#![warn(missing_docs)]

//! # kacc — contention-aware kernel-assisted collectives
//!
//! Umbrella crate re-exporting the full kacc workspace: a
//! production-quality Rust reproduction of *"Contention-Aware
//! Kernel-Assisted MPI Collectives for Multi-/Many-core Systems"*
//! (Chakraborty, Subramoni, Panda — IEEE CLUSTER 2017).
//!
//! The workspace contains:
//!
//! * [`comm`] — the [`comm::Comm`] endpoint trait, buffers, topology, and
//!   small-message shared-memory collectives;
//! * [`collectives`] — the paper's contribution: contention-aware
//!   native-CMA Scatter/Gather/Alltoall/Allgather/Bcast algorithms and a
//!   model-driven tuner;
//! * [`model`] — the analytical cost model (`α + nβ + l·γ_c·⌈n/s⌉`),
//!   architecture profiles, parameter extraction, and γ fitting;
//! * [`machine`] — a deterministic discrete-event simulation of a
//!   multi-core node with an emergent page-lock contention mechanism;
//! * [`sim`] — the underlying simulation kernel;
//! * [`mpi`] — a mini-MPI point-to-point substrate plus baseline
//!   MPI-library personas used as comparison targets;
//! * [`netsim`] — an inter-node fabric model for multi-node experiments;
//! * [`native`] — a real Linux transport using `process_vm_readv` /
//!   `process_vm_writev` between forked processes;
//! * [`numerics`] — from-scratch least-squares and Levenberg–Marquardt
//!   fitting used to recover the model parameters;
//! * [`trace`] — zero-cost-when-disabled structured tracing: spans and
//!   counters in virtual time, ftrace-style phase breakdowns, and
//!   Chrome trace-event JSON export for Perfetto.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results (with
//! an index of the per-change measurements under `experiments/`).

pub use kacc_collectives as collectives;
pub use kacc_comm as comm;
pub use kacc_machine as machine;
pub use kacc_model as model;
pub use kacc_mpi as mpi;
pub use kacc_native as native;
pub use kacc_netsim as netsim;
pub use kacc_numerics as numerics;
pub use kacc_sim_core as sim;
pub use kacc_trace as trace;

/// Commonly used items, for `use kacc::prelude::*`.
pub mod prelude {
    pub use kacc_collectives::{AllgatherAlgo, AlltoallAlgo, BcastAlgo, GatherAlgo, ScatterAlgo};
    pub use kacc_comm::{BufId, Comm, CommExt, RemoteToken, Tag, Topology};
    pub use kacc_model::arch::ArchProfile;
}
