//! Differential suite for the resident transfer: random teams issuing
//! kernel-assisted calls run on [`PolledComm`] — where the machine steps
//! each call from the event loop (`kacc_machine::xfer`) — and on the
//! blocking [`SimComm`] reference, which spells the same cost model out as
//! sequential code. Every observable must be equal: the whole `TeamRun`
//! (end and finish times, event count, engine metrics, `RankStats`, server
//! peaks and recaches), each call's return value, the bytes left in every
//! buffer, and, for traced runs, the Chrome trace.
//!
//! The generator reaches what the figures reach and what they do not:
//! extents from under a page to several pin batches, `copy_len <
//! remote_len`, reads and writes, many ranks on one target, peers on the
//! other socket, and calls that fail after the syscall or after the
//! permission check.

use kacc_comm::smcoll::sm_barrier;
use kacc_comm::{BufId, Comm, CommError, CommExt, RemoteToken};
use kacc_machine::polled::sm_barrier_polled;
use kacc_machine::{
    run_polled_team, run_polled_team_traced, run_team, run_team_traced, CmaDir, PolledComm,
    SimComm, TeamRun,
};
use kacc_model::ArchProfile;
use kacc_trace::chrome_trace_json;
use proptest::prelude::*;

/// Bytes in each rank's exposed buffer and in its private one.
const BUF: usize = 72 * 1024;

/// One generated call, before it is resolved against the team size:
/// `((think_ns, peer_pick, len_raw, len_shift), (off_raw, copy_quarters, write, mischief))`
/// (the in-tree proptest has tuple strategies up to four wide).
type RawOp = ((u64, usize, usize, u32), (usize, usize, bool, u8));

/// A resolved call: what to pass to `cma_transfer`, and how long to think
/// first (so ranks drift apart and meet again).
#[derive(Debug, Clone, Copy)]
struct Op {
    think_ns: u64,
    token: RemoteToken,
    remote_off: usize,
    local: BufId,
    local_off: usize,
    remote_len: usize,
    copy_len: usize,
    dir: CmaDir,
}

/// Every rank allocates the exposed buffer first and the private one
/// second, so their ids are known without an exchange.
const EXPOSED: u64 = 0;
const PRIVATE: BufId = BufId(1);

fn resolve(me: usize, p: usize, raw: RawOp) -> Op {
    let ((think_ns, peer_pick, len_raw, len_shift), (off_raw, copy_quarters, write, mischief)) =
        raw;
    // Half the calls of the team aim at rank 0 (same-target contention);
    // the rest spread, own rank included.
    let peer = if peer_pick % 2 == 0 {
        0
    } else {
        (me + peer_pick) % p
    };
    let remote_len = (len_raw >> len_shift).min(BUF);
    let mut op = Op {
        think_ns,
        token: RemoteToken {
            rank: peer as u64,
            token: EXPOSED,
        },
        remote_off: off_raw % (BUF - remote_len + 1),
        local: PRIVATE,
        local_off: (off_raw / 7) % (BUF - remote_len + 1),
        remote_len,
        copy_len: remote_len * copy_quarters / 4,
        dir: if write { CmaDir::Write } else { CmaDir::Read },
    };
    match mischief {
        0 => op.token.rank = p as u64 + 3,
        1 => op.token.token = PRIVATE.0, // allocated, never exposed
        2 => op.remote_off = BUF - remote_len / 2,
        3 => op.local = BufId(17),
        4 => op.local_off = BUF - op.copy_len / 2,
        _ => {}
    }
    op
}

/// What one rank reports: each call's outcome, and a digest of both its
/// buffers after the closing barrier.
type RankOut = (Vec<Result<(), CommError>>, u64);

fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fill(rank: usize) -> Vec<u8> {
    (0..BUF).map(|i| (i * 31 + rank * 7) as u8).collect()
}

fn body_blocking(comm: &mut SimComm, ops: &[Op]) -> RankOut {
    let exposed = comm.alloc_with(&fill(comm.rank()));
    comm.expose(exposed).unwrap();
    let private = comm.alloc_with(&fill(comm.rank() + 100));
    assert_eq!((exposed.0, private), (EXPOSED, PRIVATE));
    sm_barrier(comm).unwrap();
    let outcomes = ops
        .iter()
        .map(|op| {
            comm.sleep_ns(op.think_ns);
            comm.cma_transfer(
                op.token,
                op.remote_off,
                op.local,
                op.local_off,
                op.remote_len,
                op.copy_len,
                op.dir,
            )
        })
        .collect();
    sm_barrier(comm).unwrap();
    let mut bytes = comm.read_all(exposed).unwrap();
    bytes.extend(comm.read_all(private).unwrap());
    (outcomes, digest(&bytes))
}

async fn body_polled(rank: usize, ops: Vec<Op>) -> RankOut {
    let mut comm = PolledComm::new(rank);
    let exposed = comm.alloc_with(&fill(rank)).unwrap();
    comm.expose(exposed).await.unwrap();
    let private = comm.alloc_with(&fill(rank + 100)).unwrap();
    assert_eq!((exposed.0, private), (EXPOSED, PRIVATE));
    sm_barrier_polled(&mut comm).await.unwrap();
    let mut outcomes = Vec::with_capacity(ops.len());
    for op in &ops {
        comm.sleep_ns(op.think_ns).await;
        outcomes.push(
            comm.cma_transfer(
                op.token,
                op.remote_off,
                op.local,
                op.local_off,
                op.remote_len,
                op.copy_len,
                op.dir,
            )
            .await,
        );
    }
    sm_barrier_polled(&mut comm).await.unwrap();
    let mut bytes = comm.read_all(exposed).unwrap();
    bytes.extend(comm.read_all(private).unwrap());
    (outcomes, digest(&bytes))
}

/// Two sockets of `cores_per_socket` cores and `pin_batch_pages` pages
/// per `get_user_pages` batch, otherwise Broadwell: small enough that a
/// twelve-rank team spans sockets and a 72 KiB extent spans batches.
fn arch(cores_per_socket: usize, pin_batch_pages: usize) -> ArchProfile {
    ArchProfile {
        cores_per_socket,
        pin_batch_pages,
        ..ArchProfile::broadwell()
    }
}

type Outcome = (TeamRun, Vec<RankOut>, Option<String>);

fn run_blocking(arch: &ArchProfile, progs: &[Vec<Op>], traced: bool) -> Outcome {
    let p = progs.len();
    let progs = progs.to_vec();
    let body = move |comm: &mut SimComm| body_blocking(comm, &progs[comm.rank()]);
    if traced {
        let (run, out, trace) = run_team_traced(arch, p, body);
        (run, out, Some(chrome_trace_json(&trace)))
    } else {
        let (run, out) = run_team(arch, p, body);
        (run, out, None)
    }
}

fn run_polled(arch: &ArchProfile, progs: &[Vec<Op>], traced: bool) -> Outcome {
    let p = progs.len();
    let progs = progs.to_vec();
    let body = move |rank: usize| body_polled(rank, progs[rank].clone());
    if traced {
        let (run, out, trace) = run_polled_team_traced(arch, p, body);
        (run, out, Some(chrome_trace_json(&trace)))
    } else {
        let (run, out) = run_polled_team(arch, p, body);
        (run, out, None)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn resident_transfer_matches_the_blocking_reference(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                (
                    (0u64..4000, 0usize..24, 0usize..=BUF, 0u32..6),
                    (0usize..BUF, 0usize..=4, proptest::bool::ANY, 0u8..40),
                ),
                0..6,
            ),
            2..=12,
        ),
        cores_per_socket in 2usize..6,
        pin_batch_pages in 1usize..6,
        traced in proptest::bool::ANY,
    ) {
        let p = raw.len();
        let progs: Vec<Vec<Op>> = raw
            .iter()
            .enumerate()
            .map(|(me, ops)| ops.iter().map(|&op| resolve(me, p, op)).collect())
            .collect();
        let arch = arch(cores_per_socket, pin_batch_pages);
        let (b_run, b_out, b_trace) = run_blocking(&arch, &progs, traced);
        let (p_run, p_out, p_trace) = run_polled(&arch, &progs, traced);
        prop_assert_eq!(&b_out, &p_out);
        prop_assert_eq!(&b_run, &p_run);
        prop_assert!(b_trace == p_trace, "Chrome traces differ");
        // The generator must keep reaching the paths it is here for.
        let calls = progs.iter().flatten().count() as u64;
        prop_assert_eq!(p_run.total_stats().cma_ops, calls);
    }
}

/// The generator's coverage, pinned on one fixed team so a change to
/// `resolve` that stops reaching a path fails here rather than silently
/// weakening the property above.
#[test]
fn a_fixed_team_reaches_every_path() {
    let raw: Vec<RawOp> = vec![
        ((0, 0, 60_000, 0), (1234, 4, false, 9)), // several batches, full copy
        ((10, 0, 60_000, 0), (99, 1, true, 9)),   // copy_len < remote_len, write
        ((20, 5, 3000, 0), (5, 4, false, 9)),     // under a page, cross-socket peer
        ((30, 1, 40_000, 0), (0, 0, false, 9)),   // pin only
        ((0, 2, 0, 0), (0, 4, false, 9)),         // empty extent
        ((0, 3, 8192, 0), (0, 4, false, 0)),      // bad rank
        ((0, 3, 8192, 0), (0, 4, false, 1)),      // never exposed
        ((0, 3, 8192, 0), (0, 4, false, 2)),      // remote out of range
        ((0, 3, 8192, 0), (0, 4, false, 3)),      // invalid local buffer
        ((0, 3, 8192, 0), (0, 4, false, 4)),      // local out of range
    ];
    let p = 8;
    let progs: Vec<Vec<Op>> = (0..p)
        .map(|me| raw.iter().map(|&op| resolve(me, p, op)).collect())
        .collect();
    let arch = arch(3, 4);
    let (b_run, b_out, b_trace) = run_blocking(&arch, &progs, true);
    let (p_run, p_out, p_trace) = run_polled(&arch, &progs, true);
    assert_eq!(b_out, p_out);
    assert_eq!(b_run, p_run);
    assert!(b_trace == p_trace, "Chrome traces differ");

    let outcomes = &p_out[1].0;
    assert!(outcomes[..5].iter().all(Result::is_ok), "{outcomes:?}");
    assert_eq!(outcomes[5], Err(CommError::BadRank(p + 3)));
    assert_eq!(outcomes[6], Err(CommError::PermissionDenied));
    assert!(matches!(
        outcomes[7],
        Err(CommError::OutOfRange { buf: EXPOSED, .. })
    ));
    assert_eq!(outcomes[8], Err(CommError::InvalidBuffer(17)));
    assert!(matches!(
        outcomes[9],
        Err(CommError::OutOfRange { buf: 1, .. })
    ));
    // 60 000 bytes = 15 pages = 4 batches of 4 on one target from 8 ranks.
    assert!(p_run.lock_peak_concurrency[0] > 1, "no contention reached");
    assert!(p_run.mem_peak_concurrency[0] > 1);
}
