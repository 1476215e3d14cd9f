#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Baseline MPI library personas.
//!
//! The paper compares its native CMA collectives against MVAPICH2, Intel
//! MPI and Open MPI (§VII). Those libraries build large-message
//! collectives out of *point-to-point* transfers — eager copies through
//! shared memory, or rendezvous (RTS/CTS) handshakes followed by a
//! kernel-assisted copy — or, in Open MPI's case, out of one-copy
//! kernel-assisted collectives without contention control. [`baseline`]
//! wires each persona to compiled plans:
//!
//! * [`baseline::Library::Mvapich2`] — `kacc_collectives::pt2pt` trees,
//!   ring and pairwise exchange with the CMA rendezvous protocol for
//!   large messages and eager below the threshold;
//! * [`baseline::Library::IntelMpi`] — the same algorithms over two-copy
//!   shared-memory transfers;
//! * [`baseline::Library::OpenMpi`] — kernel-assisted one-copy
//!   collectives à la Ma et al., *without* contention awareness;
//! * [`baseline::Library::Kacc`] — this repository's tuned designs.
//!
//! Every persona runs on the one schedule executor, so each gets step
//! telemetry, trace spans and the recovery ladder. The entry points are
//! `async` over [`kacc_comm::AsyncComm`] (`baseline::*_async`, what the
//! simulator runs), and the blocking ones (`baseline::{bcast, scatter,
//! gather, allgather, alltoall}`) are `block_on(.. &mut Blocking(comm)
//! ..)` wrappers over them.

pub mod baseline;

pub use baseline::Library;
pub use kacc_collectives::pt2pt::Protocol;
