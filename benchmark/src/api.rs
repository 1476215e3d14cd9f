//! Every path into the repository's crates, in one place.
//!
//! The benchmark measures the crates from outside, through these public
//! items only. A change that renames or removes one of them edits this
//! file and nothing else in the benchmark (`benchmark/README.md` lists
//! them by layer).

// sim-core: the polled kernel, its leaves, mailboxes, process-wide totals.
pub use kacc_sim_core::mailbox::Mailboxes;
pub use kacc_sim_core::polled::{sim_advance, sim_poll, PolledSim};
pub use kacc_sim_core::{total_events, Poll};

// machine: the polled team harness, endpoint and the two fluid servers.
pub use kacc_machine::fluid::{MemSys, PageLockServer};
pub use kacc_machine::polled::sm_barrier_polled;
pub use kacc_machine::{
    run_polled_machine_full, run_polled_team, run_polled_team_phantom, MachineState, PolledComm,
    TeamRun,
};

// collectives: polled entry points, survivable loop, compiler, plan
// cache, blocking entry points and executor (for the real transports),
// tuner, verifier.
pub use kacc_collectives::exec::{execute, execute_traced};
pub use kacc_collectives::reduce::combine;
pub use kacc_collectives::schedule::{
    compile_allgather, compile_scatter, Schedule, Slot, Step, TokenReg,
};
pub use kacc_collectives::{
    allgather, allgather_polled, alltoall, alltoall_polled, bcast, bcast_polled, gather,
    gatherv_polled, reduce, reduce_polled, run_survivable_polled, scatter, scatter_polled, verify,
    AllgatherAlgo, AlltoallAlgo, BcastAlgo, Bindings, Dtype, GatherAlgo, PlanCache, PlanKey,
    RecoveryPolicy, ReduceAlgo, ReduceOp, ScatterAlgo, SurvivableOp, Tuner,
};

// comm: the blocking transport trait the real endpoints implement.
pub use kacc_comm::{BufId, Comm, CommError, CommExt, RemoteToken, Tag};

// fault: seeded silent kills for the survivable workload.
pub use kacc_fault::FaultPlan;

// model + numerics: closed forms, profiles and the two fitters.
pub use kacc_model::gamma::{fit_gamma, GammaPoint};
pub use kacc_model::{predict, ArchProfile, ModelParams};
pub use kacc_numerics::nlls::{levenberg_marquardt, LmOptions};

// mpi + netsim + bench: the blocking persona and cluster bodies, reached
// through the engine-agnostic signatures.
pub use kacc_bench::measure::{library_ns, Coll};
pub use kacc_bench::minijson::Json;
pub use kacc_bench::nullcomm::NullComm;
pub use kacc_bench::render::{Chart, Series};
pub use kacc_mpi::baseline::{self, Library};
pub use kacc_netsim::{cluster_gather, MultiNodeStrategy};

// native: forked CMA teams, the thread transport, rings, calibration.
pub use kacc_native::nativecomm::NativeComm;
pub use kacc_native::ring::{ring_bytes, SpscRing};
pub use kacc_native::shm::ShmRegion;
pub use kacc_native::team::run_forked_collect;
pub use kacc_native::{calibrate_native, cma_available, run_threads};

// metrics + trace: the registry the counters are read from, the tracer
// the recorder probe drives, and the validator for the traces we write.
pub use kacc_metrics::{
    reset as metrics_reset, snapshot as metrics_snapshot, LocalHist, Snapshot, Value,
};
pub use kacc_trace::validate::validate_chrome_json;
pub use kacc_trace::Tracer;
