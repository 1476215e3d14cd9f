#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![forbid(unsafe_code)]

//! Deterministic simulation of a multi-/many-core node's kernel-assisted
//! copy path.
//!
//! The paper's central observation is that `process_vm_readv`-style
//! transfers serialize on a per-process page-table lock inside
//! `get_user_pages`, and that this lock's cost inflates super-linearly
//! with the number of concurrent readers/writers of the same process
//! (§I-II, Figs 2–6). This crate reproduces that machine behaviour
//! *mechanistically*:
//!
//! * [`fluid::PageLockServer`] — a per-process round-robin grant server
//!   whose per-grant cost grows with the waiter count (cache-line
//!   bouncing) and with socket spread; the γ contention factor *emerges*
//!   from it rather than being postulated;
//! * [`fluid::MemSys`] — processor-shared memory bandwidth with per-core
//!   ceilings and inter-socket derating;
//! * [`simcomm::SimComm`] — a full [`kacc_comm::Comm`] endpoint charging
//!   virtual time for syscalls, permission checks, batched pinning and
//!   copying, plus a two-copy shared-memory data path and a
//!   small-message control plane;
//! * [`polled::PolledComm`] — the same model as a native
//!   [`kacc_comm::AsyncComm`] on the thread-free kernel, the endpoint every
//!   figure runs on; its kernel-assisted transfers are state machines
//!   resident in the machine ([`xfer`]), stepped by the kernel itself;
//! * [`team::run_team`] — the harness that runs one closure per rank on
//!   a simulated node and reports per-rank timing and the Fig 4 step
//!   breakdown;
//! * [`probe::SimProbe`] — the Table III parameter-extraction probes.
//!
//! Everything is deterministic: identical inputs produce bit-identical
//! virtual timings on any host.

pub mod fluid;
pub mod polled;
pub mod probe;
pub mod simcomm;
pub mod state;
pub mod team;
pub mod xfer;

pub use polled::{
    run_polled_cluster, run_polled_machine_full, run_polled_team, run_polled_team_faulty,
    run_polled_team_faulty_traced, run_polled_team_phantom, run_polled_team_traced, PolledComm,
};
pub use probe::SimProbe;
pub use simcomm::{CmaDir, SimComm};
pub use state::{MachineState, RankStats};
pub use team::{
    run_cluster, run_team, run_team_faulty, run_team_faulty_traced, run_team_no_fastpath,
    run_team_phantom, run_team_traced, TeamRun,
};
