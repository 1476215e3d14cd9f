//! Library-comparison artifacts: Figs 13–18, Tables VI–VII, and the
//! Fig 17 multi-node scaling study.

use super::{par_ys, platforms, sweep};
use crate::measure::{library_ns, Coll};
use crate::render::{Chart, Series};
use kacc_model::ArchProfile;
use kacc_mpi::Library;
use kacc_netsim::{cluster_gather, MultiNodeStrategy};

const US: f64 = 1000.0;

/// Intel MPI was not available on the OpenPOWER system (§VII).
fn libraries_for(arch: &ArchProfile) -> Vec<Library> {
    if arch.name == "Power8" {
        vec![Library::Kacc, Library::Mvapich2, Library::OpenMpi]
    } else {
        vec![
            Library::Kacc,
            Library::Mvapich2,
            Library::IntelMpi,
            Library::OpenMpi,
        ]
    }
}

fn lib_chart(arch: &ArchProfile, p: usize, coll: Coll, id: &str, sizes: &[usize]) -> Chart {
    let mut c = Chart::new(
        id,
        format!(
            "MPI_{} vs libraries, {} ({p} processes)",
            coll.label(),
            arch.name
        ),
        "Message Size (Bytes)",
        "Latency (us)",
    );
    for lib in libraries_for(arch) {
        let ys = par_ys(sizes, |eta| library_ns(arch, p, eta, coll, lib) / US);
        c.series.push(Series::new(lib.label(), sizes, &ys));
    }
    c
}

fn per_arch_lib_fig(coll: Coll, fig: &str, quick: bool, skip_power8: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .filter(|(a, _)| !(skip_power8 && a.name == "Power8"))
        .map(|(arch, p)| {
            let sizes = if coll == Coll::Alltoall || coll == Coll::Allgather {
                if quick {
                    vec![4 << 10, 64 << 10]
                } else {
                    crate::size_sweep_short()
                }
            } else {
                sweep(quick)
            };
            lib_chart(
                &arch,
                p,
                coll,
                &format!("{fig}-{}", arch.name.to_lowercase()),
                &sizes,
            )
        })
        .collect()
}

/// Fig 13: MPI_Scatter against the library personas.
pub fn fig13(quick: bool) -> Vec<Chart> {
    per_arch_lib_fig(Coll::Scatter, "fig13", quick, false)
}

/// Fig 14: MPI_Gather against the library personas.
pub fn fig14(quick: bool) -> Vec<Chart> {
    per_arch_lib_fig(Coll::Gather, "fig14", quick, false)
}

/// Fig 15: MPI_Alltoall against the library personas (KNL, Broadwell).
pub fn fig15(quick: bool) -> Vec<Chart> {
    per_arch_lib_fig(Coll::Alltoall, "fig15", quick, true)
}

/// Fig 16: MPI_Allgather against the library personas (KNL, Broadwell).
pub fn fig16(quick: bool) -> Vec<Chart> {
    per_arch_lib_fig(Coll::Allgather, "fig16", quick, true)
}

/// Fig 18: MPI_Bcast against the library personas (Broadwell, Power8).
pub fn fig18(quick: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .filter(|(a, _)| a.name != "KNL")
        .map(|(arch, p)| {
            let sizes = sweep(quick);
            let mut c = lib_chart(
                &arch,
                p,
                Coll::Bcast,
                &format!("fig18-{}", arch.name.to_lowercase()),
                &sizes,
            );
            c.notes.push(
                "the production design auto-selects shm below the CMA crossover \
                 (Tuner::bcast_prefers_shm)"
                    .into(),
            );
            c
        })
        .collect()
}

/// Fig 17: multi-node Gather on 2/4/8 KNL nodes — single-level direct
/// pt2pt vs the two-level contention-aware design.
pub fn fig17(quick: bool) -> Vec<Chart> {
    let arch = ArchProfile::knl();
    let fabric = arch.default_fabric();
    let rpn = if quick { 8 } else { 64 };
    let node_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let sizes = if quick {
        vec![4 << 10, 64 << 10]
    } else {
        crate::size_sweep_short()
    };
    node_counts
        .iter()
        .map(|&nodes| {
            let mut c = Chart::new(
                format!("fig17-{nodes}nodes"),
                format!(
                    "MPI_Gather on {nodes} KNL nodes ({} processes), {}",
                    nodes * rpn,
                    fabric.name
                ),
                "Message Size (Bytes)",
                "Latency (us)",
            );
            let single = par_ys(&sizes, |eta| {
                cluster_gather(
                    &arch,
                    nodes,
                    rpn,
                    fabric.clone(),
                    eta,
                    MultiNodeStrategy::SingleLevel,
                )
                .end_ns as f64
                    / US
            });
            c.series
                .push(Series::new("Single-level (libraries)", &sizes, &single));
            let two = par_ys(&sizes, |eta| {
                cluster_gather(
                    &arch,
                    nodes,
                    rpn,
                    fabric.clone(),
                    eta,
                    MultiNodeStrategy::TwoLevel { k: 4 },
                )
                .end_ns as f64
                    / US
            });
            c.series
                .push(Series::new("Two-level (proposed)", &sizes, &two));
            let piped = par_ys(&sizes, |eta| {
                cluster_gather(
                    &arch,
                    nodes,
                    rpn,
                    fabric.clone(),
                    eta,
                    MultiNodeStrategy::TwoLevelPipelined { k: 4 },
                )
                .end_ns as f64
                    / US
            });
            c.series
                .push(Series::new("Two-level pipelined", &sizes, &piped));
            let best = single
                .iter()
                .zip(&piped)
                .map(|(s, t)| s / t)
                .fold(f64::MIN, f64::max);
            c.notes
                .push(format!("max improvement (pipelined): {best:.2}x"));
            c
        })
        .collect()
}

/// Table VI: maximum speedup of the proposed designs over each library
/// across the full message sweep.
pub fn table6(quick: bool) -> Vec<Chart> {
    speedup_table("table6", quick, false)
}

/// Table VII: speedup at the largest evaluated message size.
pub fn table7(quick: bool) -> Vec<Chart> {
    speedup_table("table7", quick, true)
}

fn speedup_table(id: &str, quick: bool, largest_only: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .map(|(arch, p)| {
            let mut c = Chart::new(
                format!("{id}-{}", arch.name.to_lowercase()),
                format!(
                    "{} over state-of-the-art libraries, {} ({p} processes)",
                    if largest_only {
                        "Speedup at the largest message size"
                    } else {
                        "Maximum speedup"
                    },
                    arch.name
                ),
                "Collective index (0=Bcast 1=Scatter 2=Gather 3=Allgather 4=Alltoall)",
                "Speedup (x)",
            );
            let heavy = |coll: Coll| coll == Coll::Alltoall || coll == Coll::Allgather;
            for lib in libraries_for(&arch)
                .into_iter()
                .filter(|l| *l != Library::Kacc)
            {
                let mut ys = Vec::new();
                let xs: Vec<usize> = (0..Coll::all().len()).collect();
                for coll in Coll::all() {
                    let sizes: Vec<usize> = if largest_only {
                        let all = if heavy(coll) {
                            crate::size_sweep_short()
                        } else {
                            crate::size_sweep()
                        };
                        vec![*all.last().expect("size sweeps are non-empty")]
                    } else if quick {
                        vec![16 << 10, 256 << 10]
                    } else if heavy(coll) {
                        crate::size_sweep_short()
                    } else {
                        crate::size_sweep()
                    };
                    let best = par_ys(&sizes, |eta| {
                        let ours = library_ns(&arch, p, eta, coll, Library::Kacc);
                        let theirs = library_ns(&arch, p, eta, coll, lib);
                        theirs / ours
                    })
                    .into_iter()
                    .fold(f64::MIN, f64::max);
                    ys.push(best);
                }
                c.series.push(Series::new(lib.label(), &xs, &ys));
            }
            c
        })
        .collect()
}
