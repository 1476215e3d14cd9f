//! End-to-end check of the collective algorithms over *real*
//! `process_vm_readv`/`process_vm_writev` between forked processes.
//!
//! Everything runs inside a single `#[test]` so the process only forks
//! while this test binary has no other test threads mid-allocation.

use kacc_collectives::verify::{
    alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
    scatter_sendbuf,
};
use kacc_collectives::{
    allgather, alltoall, bcast, gather, scatter, AllgatherAlgo, AlltoallAlgo, BcastAlgo,
    GatherAlgo, ScatterAlgo,
};
use kacc_comm::{BufId, Comm, CommError, CommExt, Tag};
use kacc_native::{cma_available, run_forked};

fn proto_err(msg: String) -> CommError {
    CommError::Protocol(msg)
}

#[test]
fn real_cma_collectives_end_to_end() {
    if !cma_available() {
        eprintln!("skipping: cross-process CMA unavailable (ptrace scope?)");
        return;
    }
    let p = 6;
    let count = 24_000; // page-misaligned, multi-page

    // Scatter: every algorithm against real syscalls.
    for algo in [
        ScatterAlgo::ParallelRead,
        ScatterAlgo::SequentialWrite,
        ScatterAlgo::ThrottledRead { k: 2 },
    ] {
        run_forked(p, |comm| {
            let me = comm.rank();
            let sb = (me == 1).then(|| comm.alloc_with(&scatter_sendbuf(p, count)));
            let rb = comm.alloc(count);
            scatter(comm, algo, sb, Some(rb), count, 1)?;
            let got = comm.read_all(rb)?;
            if let Some(d) = diff(&got, &scatter_expected(me, count)) {
                return Err(proto_err(format!("{algo:?}: {d}")));
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("scatter {algo:?} failed: {e}"));
    }

    // Gather.
    for algo in [
        GatherAlgo::ParallelWrite,
        GatherAlgo::SequentialRead,
        GatherAlgo::ThrottledWrite { k: 3 },
    ] {
        run_forked(p, |comm| {
            let me = comm.rank();
            let sb = comm.alloc_with(&contribution(me, count));
            let rb = (me == 0).then(|| comm.alloc(p * count));
            gather(comm, algo, Some(sb), rb, count, 0)?;
            if let Some(rb) = rb {
                let got = comm.read_all(rb)?;
                if let Some(d) = diff(&got, &gather_expected(p, count)) {
                    return Err(proto_err(format!("{algo:?}: {d}")));
                }
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("gather {algo:?} failed: {e}"));
    }

    // Allgather.
    for algo in [
        AllgatherAlgo::RingNeighbor { j: 1 },
        AllgatherAlgo::RingSourceRead,
        AllgatherAlgo::RingSourceWrite,
        AllgatherAlgo::RecursiveDoubling,
        AllgatherAlgo::Bruck,
    ] {
        run_forked(p, |comm| {
            let me = comm.rank();
            let sb = comm.alloc_with(&contribution(me, count));
            let rb = comm.alloc(p * count);
            allgather(comm, algo, Some(sb), rb, count)?;
            let got = comm.read_all(rb)?;
            if let Some(d) = diff(&got, &gather_expected(p, count)) {
                return Err(proto_err(format!("{algo:?} rank {me}: {d}")));
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("allgather {algo:?} failed: {e}"));
    }

    // Alltoall (smaller blocks: p·p·count bytes total traffic).
    for algo in [AlltoallAlgo::Pairwise, AlltoallAlgo::Bruck] {
        run_forked(p, |comm| {
            let me = comm.rank();
            let sb = comm.alloc_with(&alltoall_sendbuf(me, p, 8_000));
            let rb = comm.alloc(p * 8_000);
            alltoall(comm, algo, Some(sb), rb, 8_000)?;
            let got = comm.read_all(rb)?;
            if let Some(d) = diff(&got, &alltoall_expected(me, p, 8_000)) {
                return Err(proto_err(format!("{algo:?} rank {me}: {d}")));
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("alltoall {algo:?} failed: {e}"));
    }

    // Bcast.
    for algo in [
        BcastAlgo::DirectRead,
        BcastAlgo::DirectWrite,
        BcastAlgo::KNomial { radix: 3 },
        BcastAlgo::ScatterAllgather,
    ] {
        run_forked(p, |comm| {
            let me = comm.rank();
            let buf = if me == 0 {
                comm.alloc_with(&contribution(0, count))
            } else {
                comm.alloc(count)
            };
            bcast(comm, algo, buf, count, 0)?;
            let got = comm.read_all(buf)?;
            if let Some(d) = diff(&got, &contribution(0, count)) {
                return Err(proto_err(format!("{algo:?} rank {me}: {d}")));
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("bcast {algo:?} failed: {e}"));
    }

    // Keyed receive out of send order: rank 0 sends A, B, A, C and rank 1
    // receives C, A, B, A. Each key sees its payloads in send order, and
    // a drained key leaves nothing parked behind.
    run_forked(2, |comm| {
        let (a, b, c) = (Tag::user(1), Tag::user(2), Tag::user(3));
        if comm.rank() == 0 {
            for (tag, body) in [(a, b"a1"), (b, b"b1"), (a, b"a2"), (c, b"c1")] {
                comm.ctrl_send(1, tag, body)?;
            }
            return Ok(());
        }
        let got: Vec<Vec<u8>> = [c, a, b, a]
            .into_iter()
            .map(|tag| comm.ctrl_recv(0, tag))
            .collect::<Result<_, _>>()?;
        let want: [&[u8]; 4] = [b"c1", b"a1", b"b1", b"a2"];
        if got != want {
            return Err(proto_err(format!("keyed receive order {got:?}")));
        }
        match comm.parked_keys() {
            0 => Ok(()),
            n => Err(proto_err(format!("{n} keys still parked after draining"))),
        }
    })
    .unwrap_or_else(|e| panic!("keyed receive failed: {e}"));

    // Buffer slab: copies between buffers in both index orders, an
    // overlapping copy inside one buffer, and typed errors for ids that
    // were never handed out or are already freed.
    run_forked(1, |comm| {
        let fail = |what: &str| proto_err(what.to_string());
        let lo = comm.alloc_with(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let hi = comm.alloc_with(&[9; 8]);
        comm.copy_local(lo, 1, hi, 4, 3)?;
        if comm.read_all(hi)? != [9, 9, 9, 9, 2, 3, 4, 9] {
            return Err(fail("lower → higher copy"));
        }
        comm.copy_local(hi, 3, lo, 0, 2)?;
        if comm.read_all(lo)? != [9, 2, 3, 4, 5, 6, 7, 8] {
            return Err(fail("higher → lower copy"));
        }
        comm.copy_local(lo, 0, lo, 2, 5)?;
        if comm.read_all(lo)? != [9, 2, 9, 2, 3, 4, 5, 8] {
            return Err(fail("overlapping copy within one buffer"));
        }
        let gone = comm.alloc(4);
        comm.free(gone)?;
        for id in [BufId(0), BufId(1 << 40), gone] {
            if comm.buf_len(id) != Err(CommError::InvalidBuffer(id.0)) {
                return Err(fail(&format!("{id:?} is not an invalid buffer")));
            }
        }
        if comm.free(gone) != Err(CommError::InvalidBuffer(gone.0)) {
            return Err(fail("double free accepted"));
        }
        if comm.copy_local(lo, 0, gone, 0, 1) != Err(CommError::InvalidBuffer(gone.0)) {
            return Err(fail("copy into a freed buffer accepted"));
        }
        Ok(())
    })
    .unwrap_or_else(|e| panic!("buffer slab failed: {e}"));

    // Failure propagation: a rank that errors is reported by rank id.
    let err = run_forked(3, |comm| {
        if comm.rank() == 2 {
            Err(proto_err("deliberate failure".into()))
        } else {
            Ok(())
        }
    })
    .unwrap_err();
    match err {
        kacc_native::TeamError::RankFailures(fails) => {
            assert_eq!(fails.len(), 1);
            assert_eq!(fails[0].0, 2);
            assert!(fails[0].1.contains("deliberate failure"));
        }
        other => panic!("unexpected error: {other}"),
    }
}
