//! Differential testing across transports: the same collective code must
//! produce byte-identical MPI semantics on the deterministic simulator
//! and on the thread-backed real-concurrency transport (and, where the
//! kernel permits, on real forked processes — covered in
//! `crates/native/tests/forked_cma.rs`).
//!
//! Each body is one `async fn` over [`AsyncComm`]: the simulator's
//! endpoint runs it natively, the thread transport through [`Blocking`]
//! and [`block_on`].

use kacc::collectives::verify::{
    alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
    scatter_sendbuf,
};
use kacc::collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, scatter_polled, AllgatherAlgo,
    AlltoallAlgo, BcastAlgo, GatherAlgo, ScatterAlgo,
};
use kacc::comm::{block_on, AsyncComm, Blocking, BufId};
use kacc::machine::{run_polled_team, PolledComm};
use kacc::model::ArchProfile;
use kacc::native::run_threads;

fn arch() -> ArchProfile {
    ArchProfile::broadwell()
}

/// A buffer holding `data`.
fn alloc_with<C: AsyncComm>(comm: &mut C, data: &[u8]) -> BufId {
    let buf = comm.alloc(data.len());
    comm.write_local(buf, 0, data).unwrap();
    buf
}

/// A whole buffer's bytes.
fn read_all<C: AsyncComm>(comm: &C, buf: BufId) -> Vec<u8> {
    let mut out = vec![0u8; comm.buf_len(buf).unwrap()];
    comm.read_local(buf, 0, &mut out).unwrap();
    out
}

async fn scatter_body<C: AsyncComm>(
    comm: &mut C,
    algo: ScatterAlgo,
    count: usize,
    root: usize,
) -> Vec<u8> {
    let p = comm.size();
    let sb = (comm.rank() == root).then(|| alloc_with(comm, &scatter_sendbuf(p, count)));
    let rb = comm.alloc(count);
    scatter_polled(comm, algo, sb, Some(rb), count, root)
        .await
        .unwrap();
    read_all(comm, rb)
}

#[test]
fn scatter_agrees_across_transports() {
    let p = 7;
    let count = 5000;
    let root = 3;
    for algo in [
        ScatterAlgo::ParallelRead,
        ScatterAlgo::SequentialWrite,
        ScatterAlgo::ThrottledRead { k: 2 },
    ] {
        let (_, sim) = run_polled_team(&arch(), p, move |rank| async move {
            scatter_body(&mut PolledComm::new(rank), algo, count, root).await
        });
        let thr = run_threads(p, |c| {
            block_on(scatter_body(&mut Blocking(c), algo, count, root))
        });
        for r in 0..p {
            assert_eq!(sim[r], thr[r], "{algo:?} transports disagree at rank {r}");
            assert!(diff(&sim[r], &scatter_expected(r, count)).is_none());
        }
    }
}

async fn gather_body<C: AsyncComm>(comm: &mut C, algo: GatherAlgo, count: usize) -> Vec<u8> {
    let (p, me) = (comm.size(), comm.rank());
    let sb = alloc_with(comm, &contribution(me, count));
    let rb = (me == 0).then(|| comm.alloc(p * count));
    gatherv_polled(comm, algo, Some(sb), rb, &vec![count; p], None, 0)
        .await
        .unwrap();
    rb.map(|b| read_all(comm, b)).unwrap_or_default()
}

#[test]
fn gather_agrees_across_transports() {
    let p = 6;
    let count = 3210;
    for algo in [
        GatherAlgo::ParallelWrite,
        GatherAlgo::SequentialRead,
        GatherAlgo::ThrottledWrite { k: 3 },
    ] {
        let (_, sim) = run_polled_team(&arch(), p, move |rank| async move {
            gather_body(&mut PolledComm::new(rank), algo, count).await
        });
        let thr = run_threads(p, |c| block_on(gather_body(&mut Blocking(c), algo, count)));
        assert_eq!(sim[0], thr[0], "{algo:?}");
        assert!(diff(&sim[0], &gather_expected(p, count)).is_none());
    }
}

async fn allgather_body<C: AsyncComm>(comm: &mut C, algo: AllgatherAlgo, count: usize) -> Vec<u8> {
    let (p, me) = (comm.size(), comm.rank());
    let sb = alloc_with(comm, &contribution(me, count));
    let rb = comm.alloc(p * count);
    allgather_polled(comm, algo, Some(sb), rb, count)
        .await
        .unwrap();
    read_all(comm, rb)
}

#[test]
fn allgather_agrees_across_transports() {
    let p = 8;
    let count = 1777;
    for algo in [
        AllgatherAlgo::RingNeighbor { j: 1 },
        AllgatherAlgo::RingSourceRead,
        AllgatherAlgo::RingSourceWrite,
        AllgatherAlgo::RecursiveDoubling,
        AllgatherAlgo::Bruck,
    ] {
        let (_, sim) = run_polled_team(&arch(), p, move |rank| async move {
            allgather_body(&mut PolledComm::new(rank), algo, count).await
        });
        let thr = run_threads(p, |c| {
            block_on(allgather_body(&mut Blocking(c), algo, count))
        });
        for r in 0..p {
            assert_eq!(sim[r], thr[r], "{algo:?} rank {r}");
            assert!(diff(&sim[r], &gather_expected(p, count)).is_none());
        }
    }
}

async fn alltoall_body<C: AsyncComm>(comm: &mut C, algo: AlltoallAlgo, count: usize) -> Vec<u8> {
    let (p, me) = (comm.size(), comm.rank());
    let sb = alloc_with(comm, &alltoall_sendbuf(me, p, count));
    let rb = comm.alloc(p * count);
    alltoall_polled(comm, algo, Some(sb), rb, count)
        .await
        .unwrap();
    read_all(comm, rb)
}

#[test]
fn alltoall_agrees_across_transports() {
    let p = 5;
    let count = 900;
    for algo in [AlltoallAlgo::Pairwise, AlltoallAlgo::Bruck] {
        let (_, sim) = run_polled_team(&arch(), p, move |rank| async move {
            alltoall_body(&mut PolledComm::new(rank), algo, count).await
        });
        let thr = run_threads(p, |c| {
            block_on(alltoall_body(&mut Blocking(c), algo, count))
        });
        for r in 0..p {
            assert_eq!(sim[r], thr[r], "{algo:?} rank {r}");
            assert!(diff(&sim[r], &alltoall_expected(r, p, count)).is_none());
        }
    }
}

async fn bcast_body<C: AsyncComm>(
    comm: &mut C,
    algo: BcastAlgo,
    count: usize,
    root: usize,
) -> Vec<u8> {
    let buf = if comm.rank() == root {
        alloc_with(comm, &contribution(root, count))
    } else {
        comm.alloc(count)
    };
    bcast_polled(comm, algo, buf, count, root).await.unwrap();
    read_all(comm, buf)
}

#[test]
fn bcast_agrees_across_transports() {
    let p = 9;
    let count = 4321;
    let root = 4;
    for algo in [
        BcastAlgo::DirectRead,
        BcastAlgo::DirectWrite,
        BcastAlgo::KNomial { radix: 3 },
        BcastAlgo::ScatterAllgather,
    ] {
        let (_, sim) = run_polled_team(&arch(), p, move |rank| async move {
            bcast_body(&mut PolledComm::new(rank), algo, count, root).await
        });
        let thr = run_threads(p, |c| {
            block_on(bcast_body(&mut Blocking(c), algo, count, root))
        });
        for r in 0..p {
            assert_eq!(sim[r], thr[r], "{algo:?} rank {r}");
            assert!(diff(&sim[r], &contribution(root, count)).is_none());
        }
    }
}
