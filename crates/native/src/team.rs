//! Fork/join process teams sharing a control region.

use crate::nativecomm::{layout_bytes, NativeComm, SharedLayout};
use crate::shm::ShmRegion;
use kacc_comm::Result;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Failure of a forked team run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeamError {
    /// One or more ranks failed; `(rank, message)` pairs.
    RankFailures(Vec<(usize, String)>),
    /// The team could not be set up (mmap/fork failure).
    Setup(String),
}

impl std::fmt::Display for TeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeamError::RankFailures(fails) => {
                write!(f, "rank failures:")?;
                for (r, msg) in fails {
                    write!(f, " [rank {r}: {msg}]")?;
                }
                Ok(())
            }
            TeamError::Setup(msg) => write!(f, "team setup failed: {msg}"),
        }
    }
}

impl std::error::Error for TeamError {}

/// Fork `p` processes, run `f` as rank 0..p in each, and join.
///
/// `f` returns a [`kacc_comm::Result`]; a rank that errors (or panics)
/// reports its message back through shared memory. The parent is not a
/// rank — it only forks and reaps, so it is safe to call from
/// single-threaded binaries. (Calling from heavily multi-threaded test
/// harnesses relies on the children only touching the allocator after
/// `fork`, which glibc tolerates for direct children in practice; the
/// test suite confines forking to one test binary.)
pub fn run_forked<F>(p: usize, f: F) -> std::result::Result<(), TeamError>
where
    F: Fn(&mut NativeComm) -> Result<()>,
{
    run_forked_collect(p, 0, f).map(|_| ())
}

/// [`run_forked`] that additionally returns the first `slots` shared
/// result slots (see `NativeComm::result_slot`) after the join — the
/// measurement channel across the fork boundary.
pub fn run_forked_collect<F>(
    p: usize,
    slots: usize,
    f: F,
) -> std::result::Result<Vec<u64>, TeamError>
where
    F: Fn(&mut NativeComm) -> Result<()>,
{
    assert!(p >= 1);
    let shm = Arc::new(
        ShmRegion::new(layout_bytes(p)).map_err(|e| TeamError::Setup(format!("shm: {e}")))?,
    );
    let layout = SharedLayout::new(p);

    let mut pids = Vec::with_capacity(p);
    for rank in 0..p {
        // SAFETY: fork; the child only runs our controlled code path and
        // leaves via _exit.
        match unsafe { libc::fork() } {
            0 => {
                let code = child_main(rank, p, &shm, &layout, &f);
                // SAFETY: terminate without unwinding into the parent's
                // state or running shared destructors twice.
                unsafe { libc::_exit(code) };
            }
            pid if pid > 0 => pids.push(pid),
            _ => {
                // Fork failed: reap whoever exists and bail.
                for pid in pids {
                    // SAFETY: killing and reaping our own children.
                    unsafe {
                        libc::kill(pid, libc::SIGKILL);
                        libc::waitpid(pid, std::ptr::null_mut(), 0);
                    }
                }
                return Err(TeamError::Setup("fork failed".into()));
            }
        }
    }

    let mut failures = Vec::new();
    for (rank, pid) in pids.into_iter().enumerate() {
        let mut status = 0;
        // SAFETY: reaping our own child.
        unsafe { libc::waitpid(pid, &mut status, 0) };
        let exited_ok = libc::WIFEXITED(status) && libc::WEXITSTATUS(status) == 0;
        if !exited_ok {
            let msg = layout.read_error(&shm, rank);
            failures.push((
                rank,
                if msg.is_empty() {
                    format!("exit status {status:#x}")
                } else {
                    msg
                },
            ));
        }
    }
    if failures.is_empty() {
        Ok((0..slots)
            .map(|i| {
                layout
                    .result_slot(&shm, i)
                    .load(std::sync::atomic::Ordering::SeqCst)
            })
            .collect())
    } else {
        Err(TeamError::RankFailures(failures))
    }
}

fn child_main<F>(rank: usize, p: usize, shm: &Arc<ShmRegion>, layout: &SharedLayout, f: &F) -> i32
where
    F: Fn(&mut NativeComm) -> Result<()>,
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut comm = NativeComm::attach(Arc::clone(shm), layout.clone(), rank, p);
        f(&mut comm)
    }));
    match result {
        Ok(Ok(())) => 0,
        Ok(Err(e)) => {
            layout.write_error(shm, rank, &e.to_string());
            1
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            layout.write_error(shm, rank, &msg);
            2
        }
    }
}
