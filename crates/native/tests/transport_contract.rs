//! The receive and CMA contract of the real transports, one table of
//! two-rank cases run on the thread transport and on forked processes
//! over real `process_vm_readv`/`process_vm_writev`.
//!
//! Everything runs inside a single `#[test]` so the process only forks
//! while this test binary has no other test threads mid-allocation.

use kacc_comm::{Comm, CommError, CommExt, RemoteToken, Result, Tag};
use kacc_native::{cma_available, run_forked, run_threads};
use std::fmt::Debug;
use std::time::Duration;

/// How long a receive that is meant to expire waits.
const SHORT_NS: u64 = 2_000_000;
/// How long a sender stalls before a message an unbounded receive awaits.
const LATE: Duration = Duration::from_millis(20);
/// The tag a rank signals its peer on.
const SIGNAL: Tag = Tag(3);
/// How long a rank waits for its peer's signal: bounded, so a rank whose
/// case failed cannot leave its peer waiting forever.
const SIGNAL_NS: u64 = 10_000_000_000;

/// One case: a body both ranks of a two-rank team run.
struct Case {
    name: &'static str,
    body: fn(&mut dyn Comm) -> Result<()>,
}

const CASES: &[Case] = &[
    Case {
        name: "an unbounded receive waits for a late message",
        body: unbounded_waits,
    },
    Case {
        name: "an expired receive is Timeout and the message is claimable afterwards",
        body: expired_then_claimable,
    },
    Case {
        name: "a bulk receive that expires before the first fragment leaves dst untouched",
        body: expired_bulk_leaves_dst,
    },
    Case {
        name: "an oversize message is Truncated",
        body: oversize_is_truncated,
    },
    Case {
        name: "a bad rank is BadRank",
        body: bad_rank,
    },
    Case {
        name: "CMA read and write round-trip; an out-of-range request is typed",
        body: cma_round_trip,
    },
];

/// Why a transport's run of the table did not happen.
#[derive(Debug)]
enum Skipped {
    /// Cross-process CMA is denied here (ptrace scope).
    CmaDenied,
}

fn expect<T: PartialEq + Debug>(what: &str, got: T, want: T) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(CommError::Protocol(format!(
            "{what}: got {got:?}, want {want:?}"
        )))
    }
}

fn await_signal(comm: &mut dyn Comm, from: usize) -> Result<Vec<u8>> {
    comm.ctrl_recv_deadline(from, SIGNAL, Some(SIGNAL_NS))
}

fn timeout() -> Result<()> {
    Err(CommError::Timeout {
        waited_ns: SHORT_NS,
    })
}

fn unbounded_waits(comm: &mut dyn Comm) -> Result<()> {
    let payload = [7u8; 1000];
    if comm.rank() == 1 {
        std::thread::sleep(LATE);
        comm.ctrl_send(0, Tag::user(1), &payload[..8])?;
        let src = comm.alloc_with(&payload);
        return comm.shm_send_data(0, Tag::user(2), src, 0, payload.len());
    }
    let msg = comm.ctrl_recv_deadline(1, Tag::user(1), None)?;
    expect("ctrl payload", msg.as_slice(), &payload[..8])?;
    let dst = comm.alloc(payload.len());
    comm.shm_recv_deadline(1, Tag::user(2), dst, 0, payload.len(), None)?;
    expect("bulk payload", comm.read_all(dst)?, payload.to_vec())
}

fn expired_then_claimable(comm: &mut dyn Comm) -> Result<()> {
    if comm.rank() == 1 {
        await_signal(comm, 0)?;
        return comm.ctrl_send(0, Tag::user(1), b"late");
    }
    let first = comm.ctrl_recv_deadline(1, Tag::user(1), Some(SHORT_NS));
    expect("expired ctrl receive", first.map(drop), timeout())?;
    comm.notify(1, SIGNAL)?;
    let msg = comm.ctrl_recv(1, Tag::user(1))?;
    expect("claimed afterwards", msg.as_slice(), b"late".as_slice())
}

fn expired_bulk_leaves_dst(comm: &mut dyn Comm) -> Result<()> {
    const LEN: usize = 3000;
    if comm.rank() == 1 {
        await_signal(comm, 0)?;
        let src = comm.alloc_with(&[5u8; LEN]);
        comm.shm_send_data(0, Tag::user(2), src, 0, LEN)?;
        return comm.shm_send_data(0, Tag::user(4), src, 0, 0);
    }
    let dst = comm.alloc_with(&[0xEE; LEN]);
    let got = comm.shm_recv_deadline(1, Tag::user(2), dst, 0, LEN, Some(SHORT_NS));
    expect("expired bulk receive", got, timeout())?;
    expect("dst after expiry", comm.read_all(dst)?, vec![0xEE; LEN])?;
    // A 0-byte message has nothing to land either: expiry is the same
    // retryable timeout, not a permanent truncation.
    let empty = comm.shm_recv_deadline(1, Tag::user(4), dst, 0, 0, Some(SHORT_NS));
    expect("expired 0-byte bulk receive", empty, timeout())?;
    comm.notify(1, SIGNAL)?;
    comm.shm_recv_data(1, Tag::user(2), dst, 0, LEN)?;
    expect("claimed afterwards", comm.read_all(dst)?, vec![5; LEN])?;
    comm.shm_recv_deadline(1, Tag::user(4), dst, 0, 0, Some(1_000_000_000))
}

fn oversize_is_truncated(comm: &mut dyn Comm) -> Result<()> {
    if comm.rank() == 1 {
        let src = comm.alloc_with(&[1u8; 100]);
        return comm.shm_send_data(0, Tag::user(2), src, 0, 100);
    }
    let dst = comm.alloc(64);
    let got = comm.shm_recv_deadline(1, Tag::user(2), dst, 0, 64, None);
    let want = Err(CommError::Truncated {
        wanted: 64,
        got: 100,
    });
    expect("oversize bulk receive", got, want)
}

fn bad_rank(comm: &mut dyn Comm) -> Result<()> {
    let (bad, tag) = (comm.size(), Tag::user(1));
    let want = || Err(CommError::BadRank(bad));
    let buf = comm.alloc(8);
    let token = RemoteToken {
        rank: bad as u64,
        token: 0,
    };
    expect("ctrl_send", comm.ctrl_send(bad, tag, &[]), want())?;
    let got = comm.ctrl_recv_deadline(bad, tag, Some(SHORT_NS));
    expect("ctrl receive", got.map(drop), want())?;
    let got = comm.shm_recv_deadline(bad, tag, buf, 0, 8, None);
    expect("bulk receive", got, want())?;
    expect("cma_read", comm.cma_read(token, 0, buf, 0, 8), want())?;
    expect("cma_write", comm.cma_write(token, 0, buf, 0, 8), want())
}

fn cma_round_trip(comm: &mut dyn Comm) -> Result<()> {
    const LEN: usize = 64;
    let pattern: Vec<u8> = (0..LEN as u8).collect();
    if comm.rank() == 0 {
        let exposed = comm.alloc_with(&pattern);
        let token = comm.expose(exposed)?;
        comm.ctrl_send(1, SIGNAL, &token.to_bytes())?;
        await_signal(comm, 1)?;
        let mut want = pattern;
        want[32..].fill(0xAB);
        return expect("written back", comm.read_all(exposed)?, want);
    }
    let raw = await_signal(comm, 0)?;
    let token =
        RemoteToken::from_bytes(&raw).ok_or_else(|| CommError::Protocol("bad token".into()))?;
    let local = comm.alloc(LEN);
    comm.cma_read(token, 0, local, 0, LEN)?;
    expect("read", comm.read_all(local)?, pattern)?;
    comm.write_local(local, 0, &[0xAB; LEN])?;
    comm.cma_write(token, 32, local, 0, LEN - 32)?;
    let out_of_range = || {
        Err(CommError::OutOfRange {
            buf: local.0,
            off: 60,
            len: 8,
            cap: LEN,
        })
    };
    let got = comm.cma_read(token, 0, local, 60, 8);
    expect("out-of-range read", got, out_of_range())?;
    let got = comm.cma_write(token, 0, local, 60, 8);
    expect("out-of-range write", got, out_of_range())?;
    comm.notify(0, SIGNAL)
}

#[test]
fn real_transports_keep_the_receive_and_cma_contract() {
    for case in CASES {
        for (rank, res) in run_threads(2, |c| (case.body)(c)).into_iter().enumerate() {
            if let Err(e) = res {
                panic!("ThreadComm, {}: rank {rank}: {e}", case.name);
            }
        }
    }
    if !cma_available() {
        eprintln!("skipping the NativeComm run: {:?}", Skipped::CmaDenied);
        return;
    }
    for case in CASES {
        if let Err(e) = run_forked(2, |c| (case.body)(c)) {
            panic!("NativeComm, {}: {e}", case.name);
        }
    }
}
