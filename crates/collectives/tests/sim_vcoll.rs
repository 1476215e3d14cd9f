//! Variable-count collectives (MPI_Scatterv / MPI_Gatherv) over the
//! simulated machine.

use kacc_collectives::verify::{contribution, diff};
use kacc_collectives::{gatherv_polled, scatterv_polled, GatherAlgo, ScatterAlgo};
use kacc_comm::BufId;
use kacc_machine::{run_polled_team, PolledComm, TeamRun};
use kacc_model::ArchProfile;
use std::future::Future;

/// Rank r contributes/receives `base + 37·r` bytes (rank 2 gets zero to
/// exercise empty slices).
fn counts(p: usize, base: usize) -> Vec<usize> {
    (0..p)
        .map(|r| if r == 2 && p > 2 { 0 } else { base + 37 * r })
        .collect()
}

fn packed(counts: &[usize]) -> Vec<u8> {
    counts
        .iter()
        .enumerate()
        .flat_map(|(r, &len)| contribution(r, len))
        .collect()
}

/// Run `body(comm, counts)` on every rank of a Broadwell team of
/// `counts.len()` ranks.
fn team<R, F, Fut>(counts: &[usize], body: F) -> (TeamRun, Vec<R>)
where
    F: Fn(PolledComm, Vec<usize>) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    let counts = counts.to_vec();
    run_polled_team(&ArchProfile::broadwell(), counts.len(), move |rank| {
        body(PolledComm::new(rank), counts.clone())
    })
}

/// The first `len` bytes of `buf`.
fn prefix(comm: &PolledComm, buf: BufId, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    comm.read_local(buf, 0, &mut out).unwrap();
    out
}

#[test]
fn scatterv_delivers_ragged_slices() {
    for algo in [
        ScatterAlgo::ParallelRead,
        ScatterAlgo::SequentialWrite,
        ScatterAlgo::ThrottledRead { k: 2 },
    ] {
        for p in [2usize, 6, 9] {
            let cts = counts(p, 1000);
            let root = p - 1;
            let (_, results) = team(&cts, move |mut comm, cts| async move {
                let me = comm.rank();
                let sb = (me == root).then(|| comm.alloc_with(&packed(&cts)).unwrap());
                let rb = comm.alloc(cts[me].max(1));
                scatterv_polled(&mut comm, algo, sb, Some(rb), &cts, None, root)
                    .await
                    .unwrap();
                prefix(&comm, rb, cts[me])
            });
            for (r, got) in results.iter().enumerate() {
                if let Some(d) = diff(got, &contribution(r, cts[r])) {
                    panic!("{algo:?} p={p} rank {r}: {d}");
                }
            }
        }
    }
}

#[test]
fn gatherv_assembles_ragged_slices() {
    for algo in [
        GatherAlgo::ParallelWrite,
        GatherAlgo::SequentialRead,
        GatherAlgo::ThrottledWrite { k: 3 },
    ] {
        for p in [2usize, 7] {
            let cts = counts(p, 800);
            let (_, results) = team(&cts, move |mut comm, cts| async move {
                let me = comm.rank();
                let sb = comm.alloc_with(&contribution(me, cts[me])).unwrap();
                let rb = (me == 0).then(|| comm.alloc(cts.iter().sum()));
                gatherv_polled(&mut comm, algo, Some(sb), rb, &cts, None, 0)
                    .await
                    .unwrap();
                rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
            });
            if let Some(d) = diff(&results[0], &packed(&cts)) {
                panic!("{algo:?} p={p}: {d}");
            }
        }
    }
}

#[test]
fn gatherv_with_explicit_displacements_and_gaps() {
    // Slices placed with 16-byte guard gaps between them; the gaps must
    // stay untouched.
    let p = 5;
    let cts: Vec<usize> = (0..p).map(|r| 100 + r * 10).collect();
    let displs: Vec<usize> = {
        let mut at = 0;
        cts.iter()
            .map(|&c| {
                let here = at;
                at += c + 16;
                here
            })
            .collect()
    };
    let total = displs.last().unwrap() + cts.last().unwrap() + 16;
    let displs2 = displs.clone();
    let (_, results) = team(&cts, move |mut comm, cts| {
        let displs = displs2.clone();
        async move {
            let me = comm.rank();
            let sb = comm.alloc_with(&contribution(me, cts[me])).unwrap();
            let rb = (me == 0).then(|| comm.alloc(total));
            let algo = GatherAlgo::ThrottledWrite { k: 2 };
            gatherv_polled(&mut comm, algo, Some(sb), rb, &cts, Some(&displs), 0)
                .await
                .unwrap();
            rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
        }
    });
    let got = &results[0];
    for r in 0..p {
        let slice = &got[displs[r]..displs[r] + cts[r]];
        assert!(diff(slice, &contribution(r, cts[r])).is_none(), "slice {r}");
        // Guard gap after each slice stays zeroed.
        let gap = &got[displs[r] + cts[r]..displs[r] + cts[r] + 16];
        assert!(gap.iter().all(|&b| b == 0), "gap after slice {r} corrupted");
    }
}

#[test]
fn zero_count_ranks_may_omit_buffers() {
    // A rank with a zero-sized slice passes no buffer at all; every
    // algorithm (including the sequential ones, which expose buffers on
    // the non-root side) must tolerate it.
    let p = 5;
    let cts: Vec<usize> = (0..p).map(|r| if r == 3 { 0 } else { 500 }).collect();
    for salgo in [
        ScatterAlgo::ParallelRead,
        ScatterAlgo::SequentialWrite,
        ScatterAlgo::ThrottledRead { k: 2 },
    ] {
        let (_, results) = team(&cts, move |mut comm, cts| async move {
            let me = comm.rank();
            let sb = (me == 0).then(|| comm.alloc_with(&packed(&cts)).unwrap());
            let rb = (cts[me] > 0 || me == 0).then(|| comm.alloc(cts[me].max(1)));
            scatterv_polled(&mut comm, salgo, sb, rb, &cts, None, 0)
                .await
                .unwrap();
            rb.map(|b| prefix(&comm, b, cts[me])).unwrap_or_default()
        });
        for (r, got) in results.iter().enumerate() {
            assert!(
                diff(got, &contribution(r, cts[r])).is_none(),
                "{salgo:?} rank {r}"
            );
        }
    }
    for galgo in [
        GatherAlgo::ParallelWrite,
        GatherAlgo::SequentialRead,
        GatherAlgo::ThrottledWrite { k: 2 },
    ] {
        let (_, results) = team(&cts, move |mut comm, cts| async move {
            let me = comm.rank();
            let sb = (cts[me] > 0).then(|| comm.alloc_with(&contribution(me, cts[me])).unwrap());
            let rb = (me == 0).then(|| comm.alloc(cts.iter().sum()));
            gatherv_polled(&mut comm, galgo, sb, rb, &cts, None, 0)
                .await
                .unwrap();
            rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
        });
        assert!(diff(&results[0], &packed(&cts)).is_none(), "{galgo:?}");
    }
}

#[test]
fn vcoll_rejects_bad_metadata() {
    let (_, results) = team(&[100; 3], |mut comm, _| async move {
        let comm = &mut comm;
        let sb = comm.alloc(100);
        let rb = comm.alloc(100);
        // counts of the wrong length must fail identically everywhere.
        let salgo = ScatterAlgo::ParallelRead;
        let bad = scatterv_polled(comm, salgo, Some(sb), Some(rb), &[10, 20], None, 0)
            .await
            .is_err();
        let (galgo, counts) = (GatherAlgo::ParallelWrite, [10, 20, 30]);
        let bad2 = gatherv_polled(comm, galgo, Some(sb), Some(rb), &counts, Some(&[0, 10]), 0)
            .await
            .is_err();
        bad && bad2
    });
    assert!(results.iter().all(|&b| b));
}
