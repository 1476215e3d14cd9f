#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Mini-MPI substrate and baseline library personas.
//!
//! The paper compares its native CMA collectives against MVAPICH2, Intel
//! MPI and Open MPI (§VII). Those libraries build large-message
//! collectives out of *point-to-point* transfers — eager copies through
//! shared memory, or rendezvous (RTS/CTS) handshakes followed by a
//! kernel-assisted copy. This crate implements that substrate:
//!
//! * [`pt2pt`] — eager, two-copy shared-memory, and CMA rendezvous
//!   point-to-point protocols (with the deadlock-free `sendrecv` used by
//!   exchange patterns);
//! * [`ptcoll`] — classic collective algorithms over pt2pt: binomial
//!   scatter/gather/bcast, ring allgather, pairwise alltoall;
//! * [`baseline`] — library personas wired from those pieces:
//!   [`baseline::Library::Mvapich2`] (pt2pt with CMA rendezvous),
//!   [`baseline::Library::IntelMpi`] (two-copy shared memory), and
//!   [`baseline::Library::OpenMpi`] (kernel-assisted one-copy collectives
//!   à la Ma et al., *without* contention awareness), plus
//!   [`baseline::Library::Kacc`] — this repository's tuned designs.
//!
//! All protocol code is `async` over [`kacc_comm::AsyncComm`] and exists
//! once: the simulator runs it natively, and the entry points a blocking
//! transport needs (`baseline::{bcast, scatter, gather, allgather,
//! alltoall}`) are `block_on(.. &mut Blocking(comm) ..)` wrappers over the
//! `*_async` bodies.

pub mod baseline;
pub mod pt2pt;
pub mod ptcoll;

pub use baseline::Library;
pub use pt2pt::Protocol;
