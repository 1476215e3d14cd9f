//! Baseline library personas — the comparison targets of §VII.
//!
//! Each persona reflects how a production MPI library realizes
//! large-message intra-node collectives:
//!
//! * **MVAPICH2-like** — collectives composed from point-to-point
//!   transfers; large messages use the CMA rendezvous protocol
//!   (RTS/CTS + single-copy read), small messages go eager.
//! * **Intel-MPI-like** — two-copy shared-memory transfers throughout
//!   (its CMA support is limited to pt2pt in the paper's setups).
//! * **Open-MPI-like** — kernel-assisted *one-copy* collectives in the
//!   style of Ma et al. \[10\]: direct parallel reads/writes with no
//!   contention management (the paper's related-work comparison point).
//! * **Kacc** — this repository's contention-aware designs, selected by
//!   the model-driven [`Tuner`].
//!
//! All personas run over the same endpoint, so measured differences come
//! from algorithm and protocol choices alone — the apples-to-apples
//! setting the paper's Figs 13–18 need. Every persona runs compiled
//! plans on the one executor: a persona only picks the plan (a kacc
//! algorithm, or a [`pt2pt::Algo`] under the library's [`Protocol`]).
//! Each is written once as an `*_async` function over [`AsyncComm`]
//! (what the simulator runs); the plain-named functions drive the same
//! code on a blocking [`Comm`].

use kacc_collectives::pt2pt::{self, Algo, Protocol};
use kacc_collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, scatter_polled, AllgatherAlgo,
    BcastAlgo, GatherAlgo, ScatterAlgo, Tuner,
};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, Result};

/// Which library persona executes the collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Library {
    /// This repository's contention-aware, tuner-selected designs.
    Kacc,
    /// Point-to-point based with CMA rendezvous for large messages.
    Mvapich2,
    /// Two-copy shared-memory transfers.
    IntelMpi,
    /// Kernel-assisted one-copy collectives without contention control.
    OpenMpi,
}

impl Library {
    /// Display name used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            Library::Kacc => "KACC (proposed)",
            Library::Mvapich2 => "MVAPICH2-like",
            Library::IntelMpi => "IntelMPI-like",
            Library::OpenMpi => "OpenMPI-like",
        }
    }

    /// Rendezvous threshold the pt2pt personas use (the paper cites
    /// ~16 KiB as where kernel-assisted pt2pt starts paying off).
    pub const RNDV_THRESHOLD: usize = 16 * 1024;

    fn pt_proto(self, len: usize) -> Protocol {
        match self {
            Library::Mvapich2 => Protocol::for_len(len, Self::RNDV_THRESHOLD),
            Library::IntelMpi => {
                if len < 4096 {
                    Protocol::Eager
                } else {
                    Protocol::ShmCopy
                }
            }
            Library::OpenMpi | Library::Kacc => Protocol::for_len(len, Self::RNDV_THRESHOLD),
        }
    }

    /// Run `algo` as a point-to-point plan under this persona's protocol
    /// for `count`-byte messages.
    async fn run_pt2pt<C: AsyncComm>(
        self,
        comm: &mut C,
        algo: Algo,
        sendbuf: Option<BufId>,
        recvbuf: Option<BufId>,
        count: usize,
    ) -> Result<()> {
        let proto = self.pt_proto(count);
        pt2pt::run_polled(comm, algo, proto, sendbuf, recvbuf, count)
            .await
            .map(drop)
    }
}

/// Scatter under a persona. `tuner` is consulted only by
/// [`Library::Kacc`].
pub async fn scatter_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let algo = match lib {
        Library::Kacc => tuner.scatter(comm.size(), count),
        // One-copy parallel reads, no throttling (Ma et al. style).
        Library::OpenMpi => ScatterAlgo::ParallelRead,
        Library::Mvapich2 | Library::IntelMpi => {
            let algo = Algo::Scatter { root };
            return lib.run_pt2pt(comm, algo, sendbuf, recvbuf, count).await;
        }
    };
    scatter_polled(comm, algo, sendbuf, recvbuf, count, root)
        .await
        .map(drop)
}

/// Gather under a persona.
pub async fn gather_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let algo = match lib {
        Library::Kacc => tuner.gather(p, count),
        Library::OpenMpi => GatherAlgo::ParallelWrite,
        Library::Mvapich2 | Library::IntelMpi => {
            let algo = Algo::Gather { root };
            return lib.run_pt2pt(comm, algo, sendbuf, recvbuf, count).await;
        }
    };
    gatherv_polled(comm, algo, sendbuf, recvbuf, &vec![count; p], None, root)
        .await
        .map(drop)
}

/// Broadcast under a persona.
pub async fn bcast_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    let algo = match lib {
        Library::Kacc => tuner.bcast(comm.size(), count),
        Library::OpenMpi => BcastAlgo::DirectRead,
        Library::Mvapich2 | Library::IntelMpi => {
            let algo = Algo::Bcast { root };
            return lib.run_pt2pt(comm, algo, Some(buf), None, count).await;
        }
    };
    bcast_polled(comm, algo, buf, count, root).await.map(drop)
}

/// Allgather under a persona.
pub async fn allgather_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let algo = match lib {
        Library::Kacc => tuner.allgather(comm.size(), count),
        // Neighbor-exchange kernel-assisted ring (Ma et al. style).
        Library::OpenMpi => AllgatherAlgo::RingNeighbor { j: 1 },
        Library::Mvapich2 | Library::IntelMpi => {
            let algo = Algo::Allgather;
            return lib
                .run_pt2pt(comm, algo, sendbuf, Some(recvbuf), count)
                .await;
        }
    };
    allgather_polled(comm, algo, sendbuf, recvbuf, count)
        .await
        .map(drop)
}

/// Alltoall under a persona.
pub async fn alltoall_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let Library::Kacc = lib else {
        let algo = Algo::Alltoall;
        return lib
            .run_pt2pt(comm, algo, sendbuf, Some(recvbuf), count)
            .await;
    };
    let algo = tuner.alltoall(comm.size(), count);
    alltoall_polled(comm, algo, sendbuf, recvbuf, count)
        .await
        .map(drop)
}

/// [`scatter_async`] on a blocking transport.
pub fn scatter<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let comm = &mut Blocking(comm);
    block_on(scatter_async(
        comm, lib, tuner, sendbuf, recvbuf, count, root,
    ))
}

/// [`gather_async`] on a blocking transport.
pub fn gather<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let comm = &mut Blocking(comm);
    block_on(gather_async(
        comm, lib, tuner, sendbuf, recvbuf, count, root,
    ))
}

/// [`bcast_async`] on a blocking transport.
pub fn bcast<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    block_on(bcast_async(
        &mut Blocking(comm),
        lib,
        tuner,
        buf,
        count,
        root,
    ))
}

/// [`allgather_async`] on a blocking transport.
pub fn allgather<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let comm = &mut Blocking(comm);
    block_on(allgather_async(comm, lib, tuner, sendbuf, recvbuf, count))
}

/// [`alltoall_async`] on a blocking transport.
pub fn alltoall<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let comm = &mut Blocking(comm);
    block_on(alltoall_async(comm, lib, tuner, sendbuf, recvbuf, count))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use kacc_collectives::verify::{
        alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected,
    };
    use kacc_comm::CommError;
    use kacc_machine::{run_polled_team, PolledComm};
    use kacc_model::ArchProfile;

    const LIBS: [Library; 4] = [
        Library::Kacc,
        Library::Mvapich2,
        Library::IntelMpi,
        Library::OpenMpi,
    ];

    #[test]
    fn every_library_gathers_correctly() {
        let arch = ArchProfile::broadwell();
        for lib in LIBS {
            for count in [512usize, 40_000] {
                let (_, results) = run_polled_team(&arch, 8, move |me| async move {
                    let comm = &mut PolledComm::new(me);
                    let tuner = Tuner::new(&ArchProfile::broadwell());
                    let sb = comm.alloc_with(&contribution(me, count)).unwrap();
                    let rb = (me == 0).then(|| comm.alloc(8 * count));
                    gather_async(comm, lib, &tuner, Some(sb), rb, count, 0)
                        .await
                        .unwrap();
                    rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
                });
                if let Some(d) = diff(&results[0], &gather_expected(8, count)) {
                    panic!("{lib:?} count={count}: {d}");
                }
            }
        }
    }

    #[test]
    fn every_library_bcasts_correctly() {
        let arch = ArchProfile::broadwell();
        for lib in LIBS {
            let (_, results) = run_polled_team(&arch, 7, move |me| async move {
                let comm = &mut PolledComm::new(me);
                let tuner = Tuner::new(&ArchProfile::broadwell());
                let buf = if me == 2 {
                    comm.alloc_with(&contribution(2, 30_000)).unwrap()
                } else {
                    comm.alloc(30_000)
                };
                bcast_async(comm, lib, &tuner, buf, 30_000, 2)
                    .await
                    .unwrap();
                comm.read_all(buf).unwrap()
            });
            for got in &results {
                assert!(diff(got, &contribution(2, 30_000)).is_none(), "{lib:?}");
            }
        }
    }

    /// A rank whose buffer is missing gets a typed error under the pt2pt
    /// personas, before any traffic, as under the others: a non-root
    /// gather without a send buffer used to panic.
    #[test]
    fn a_gather_without_its_buffers_is_refused_under_the_pt2pt_personas() {
        for lib in [Library::Mvapich2, Library::IntelMpi] {
            let (run, results) =
                run_polled_team(&ArchProfile::broadwell(), 4, move |me| async move {
                    let comm = &mut PolledComm::new(me);
                    let tuner = Tuner::new(&ArchProfile::broadwell());
                    gather_async(comm, lib, &tuner, None, None, 512, 0).await
                });
            let refused = |msg: &str| Err(CommError::Protocol(msg.into()));
            assert_eq!(results[0], refused("root gather needs recvbuf"), "{lib:?}");
            for got in &results[1..] {
                assert_eq!(*got, refused("non-root gather needs sendbuf"), "{lib:?}");
            }
            assert_eq!(run.end_ns, 0, "{lib:?}");
        }
    }

    /// MVAPICH2 goes eager below its rendezvous threshold and takes the
    /// CMA rendezvous from the threshold on; Intel MPI switches to two-copy
    /// at 4 KiB.
    #[test]
    fn pt2pt_personas_switch_protocol_at_their_thresholds() {
        let t = Library::RNDV_THRESHOLD;
        assert_eq!(Library::Mvapich2.pt_proto(t - 1), Protocol::Eager);
        assert_eq!(Library::Mvapich2.pt_proto(t), Protocol::RendezvousCma);
        assert_eq!(Library::IntelMpi.pt_proto(4095), Protocol::Eager);
        assert_eq!(Library::IntelMpi.pt_proto(4096), Protocol::ShmCopy);
    }

    /// One point of the persona sweep with and without data: the two-copy
    /// persona's alltoall at 64 KiB (`Protocol::ShmCopy`, 56 bulk messages)
    /// takes the same virtual time, events and kernel traffic whether the
    /// send buffers were written (the messages carry bytes) or not (they
    /// carry lengths) — and the bytes arrive.
    #[test]
    fn a_shm_copy_point_is_the_same_run_on_written_and_unwritten_heaps() {
        const P: usize = 8;
        const COUNT: usize = 64 << 10;
        assert_eq!(Library::IntelMpi.pt_proto(COUNT), Protocol::ShmCopy);
        let body = |written: bool| {
            move |me| async move {
                let comm = &mut PolledComm::new(me);
                let tuner = Tuner::new(&ArchProfile::broadwell());
                let sb = if written {
                    comm.alloc_with(&alltoall_sendbuf(me, P, COUNT)).unwrap()
                } else {
                    comm.alloc(P * COUNT)
                };
                let rb = comm.alloc(P * COUNT);
                alltoall_async(comm, Library::IntelMpi, &tuner, Some(sb), rb, COUNT)
                    .await
                    .unwrap();
                comm.read_all(rb).unwrap()
            }
        };
        let arch = ArchProfile::broadwell();
        let (real_run, real) = run_polled_team(&arch, P, body(true));
        let (zero_run, zero) = run_polled_team(&arch, P, body(false));
        assert_eq!(real_run, zero_run);
        assert_eq!(real_run.total_stats().shm_ops, (P * (P - 1)) as u64);
        for (r, got) in real.iter().enumerate() {
            if let Some(d) = diff(got, &alltoall_expected(r, P, COUNT)) {
                panic!("rank {r}: {d}");
            }
        }
        assert!(zero.iter().all(|got| got == &vec![0u8; P * COUNT]));
    }

    #[test]
    fn proposed_design_beats_baselines_on_large_gather() {
        // Table VI's headline: the contention-aware design wins
        // large-message Gather on every architecture.
        for arch in [ArchProfile::knl(), ArchProfile::broadwell()] {
            let p = arch.default_procs.min(32);
            let count = 1 << 20;
            let mut lat = std::collections::HashMap::new();
            for lib in LIBS {
                let tuner_arch = arch.clone();
                let (run, _) = run_polled_team(&arch, p, move |me| {
                    let tuner = Tuner::new(&tuner_arch);
                    async move {
                        let comm = &mut PolledComm::new(me);
                        let sb = comm.alloc(count);
                        let rb = (me == 0).then(|| comm.alloc(p * count));
                        gather_async(comm, lib, &tuner, Some(sb), rb, count, 0)
                            .await
                            .unwrap();
                    }
                });
                lat.insert(lib, run.end_ns);
            }
            for lib in [Library::Mvapich2, Library::IntelMpi, Library::OpenMpi] {
                assert!(
                    lat[&Library::Kacc] < lat[&lib],
                    "{}: kacc {} !< {lib:?} {}",
                    arch.name,
                    lat[&Library::Kacc],
                    lat[&lib]
                );
            }
        }
    }
}
