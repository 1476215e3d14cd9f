#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Real transports: forked processes with genuine
//! `process_vm_readv`/`process_vm_writev` syscalls, and an in-process
//! thread transport for portable functional testing.
//!
//! The simulator (`kacc-machine`) answers *quantitative* questions; this
//! crate proves the collective algorithms drive the *actual* Linux
//! kernel-assisted copy path end-to-end:
//!
//! * [`shm`] — anonymous shared mappings inherited across `fork`;
//! * [`ring`] — lock-free SPSC byte rings living inside those mappings
//!   (the control plane: token exchange, notifications, RTS/CTS);
//! * [`team`] — fork/join process teams with a shared pid table, a
//!   sense-reversing barrier and failure collection;
//! * [`nativecomm`] — [`kacc_comm::Comm`] over all of the above, with
//!   CMA ops issued through the `nix` wrappers of the real syscalls;
//! * [`threadcomm`] — a thread-backed [`kacc_comm::Comm`] with identical
//!   semantics and no OS dependencies (used for portable tests and as a
//!   reference implementation).
//!
//! Cross-process attach requires the kernel to permit same-UID ptrace
//! (`/proc/sys/kernel/yama/ptrace_scope` ≤ 1 covers the common cases for
//! direct children); [`cma_available`] probes this at runtime so callers
//! can skip gracefully.

mod backoff;
pub mod nativecomm;
pub mod probe;
pub mod ring;
pub mod shm;
pub mod team;
pub mod threadcomm;

pub use nativecomm::NativeComm;
pub use probe::{calibrate_native, measure_native_gamma, NativeCalibration};
pub use team::{run_forked, TeamError};
pub use threadcomm::{run_threads, run_threads_faulty, ThreadComm};

use std::sync::OnceLock;

/// Bulk (two-copy) messages travel under their tag with this bit set, so
/// they never match a control message of the same tag; both transports
/// refuse a control tag that has it.
const BULK_BIT: u32 = 0x8000_0000;

/// Does cross-process CMA work here? Probes once by forking a child and
/// reading a page from it.
pub fn cma_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        run_forked(2, |comm| {
            use kacc_comm::{Comm, CommExt, Tag};
            if comm.rank() == 0 {
                let b = comm.alloc_with(&[0xA5u8; 4096]);
                let tok = comm.expose(b)?;
                comm.ctrl_send(1, Tag::user(1), &tok.to_bytes())?;
                comm.wait_notify(1, Tag::user(2))?;
                Ok(())
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1))?;
                let tok = kacc_comm::RemoteToken::from_bytes(&raw)
                    .ok_or(kacc_comm::CommError::Protocol("bad probe token".into()))?;
                let dst = comm.alloc(4096);
                comm.cma_read(tok, 0, dst, 0, 4096)?;
                let data = comm.read_all(dst)?;
                if data == [0xA5u8; 4096] {
                    comm.notify(0, Tag::user(2))?;
                    Ok(())
                } else {
                    Err(kacc_comm::CommError::Protocol("probe data mismatch".into()))
                }
            }
        })
        .is_ok()
    })
}
