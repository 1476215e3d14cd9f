//! Algorithm-comparison artifacts: Figs 7–11 and the Fig 12 model
//! validation.

use super::{par_ys, platforms, sweep, throttles};
use crate::measure::{
    allgather_ns, alltoall_ns, bcast_ns, gather_ns, library_ns, scatter_ns, Coll,
};
use crate::render::{Chart, Series};
use kacc_collectives::{AllgatherAlgo, AlltoallAlgo, BcastAlgo, GatherAlgo, ScatterAlgo};
use kacc_model::{predict, ArchProfile};
use kacc_mpi::Library;

const US: f64 = 1000.0;

fn sweep_for(arch: &ArchProfile, quick: bool) -> Vec<usize> {
    let mut sizes = sweep(quick);
    if arch.name == "Power8" && !quick {
        // The paper sweeps Power8 only to 2 MiB.
        sizes.retain(|&s| s <= 2 << 20);
        sizes.push(2 << 20);
        sizes.sort_unstable();
        sizes.dedup();
    }
    sizes
}

/// Fig 7: Scatter algorithm comparison on all three architectures.
pub fn fig07(quick: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .map(|(arch, p)| {
            let sizes = sweep_for(&arch, quick);
            let mut c = Chart::new(
                format!("fig7-{}", arch.name.to_lowercase()),
                format!("Scatter algorithms, {} ({p} processes)", arch.name),
                "Message Size (Bytes)",
                "Latency (us)",
            );
            for k in throttles(&arch, p) {
                let ys = par_ys(&sizes, |eta| {
                    scatter_ns(&arch, p, eta, ScatterAlgo::ThrottledRead { k }) / US
                });
                c.series
                    .push(Series::new(format!("Throttle = {k}"), &sizes, &ys));
            }
            let par = par_ys(&sizes, |eta| {
                scatter_ns(&arch, p, eta, ScatterAlgo::ParallelRead) / US
            });
            c.series.push(Series::new("Parallel Read", &sizes, &par));
            let seq = par_ys(&sizes, |eta| {
                scatter_ns(&arch, p, eta, ScatterAlgo::SequentialWrite) / US
            });
            c.series.push(Series::new("Sequential Write", &sizes, &seq));
            c
        })
        .collect()
}

/// Fig 8: Gather algorithm comparison (mirror of Fig 7).
pub fn fig08(quick: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .map(|(arch, p)| {
            let sizes = sweep_for(&arch, quick);
            let mut c = Chart::new(
                format!("fig8-{}", arch.name.to_lowercase()),
                format!("Gather algorithms, {} ({p} processes)", arch.name),
                "Message Size (Bytes)",
                "Latency (us)",
            );
            for k in throttles(&arch, p) {
                let ys = par_ys(&sizes, |eta| {
                    gather_ns(&arch, p, eta, GatherAlgo::ThrottledWrite { k }) / US
                });
                c.series
                    .push(Series::new(format!("Throttle = {k}"), &sizes, &ys));
            }
            let par = par_ys(&sizes, |eta| {
                gather_ns(&arch, p, eta, GatherAlgo::ParallelWrite) / US
            });
            c.series.push(Series::new("Parallel Writes", &sizes, &par));
            let seq = par_ys(&sizes, |eta| {
                gather_ns(&arch, p, eta, GatherAlgo::SequentialRead) / US
            });
            c.series.push(Series::new("Sequential Read", &sizes, &seq));
            c
        })
        .collect()
}

/// Fig 9: pairwise Alltoall implementations — two-copy shared memory,
/// point-to-point CMA (RTS/CTS), and the native CMA collective.
pub fn fig09(quick: bool) -> Vec<Chart> {
    let sizes = if quick {
        vec![4 << 10, 64 << 10]
    } else {
        crate::size_sweep_short()
    };
    platforms(quick)
        .into_iter()
        .filter(|(a, _)| a.name != "Power8") // the paper shows KNL + Broadwell
        .map(|(arch, p)| {
            let mut c = Chart::new(
                format!("fig9-{}", arch.name.to_lowercase()),
                format!(
                    "Pairwise Alltoall implementations, {} ({p} processes)",
                    arch.name
                ),
                "Message Size (Bytes)",
                "Latency (us)",
            );
            let shmem = par_ys(&sizes, |eta| {
                library_ns(&arch, p, eta, Coll::Alltoall, Library::IntelMpi) / US
            });
            c.series.push(Series::new("SHMEM", &sizes, &shmem));
            let pt2pt = par_ys(&sizes, |eta| {
                library_ns(&arch, p, eta, Coll::Alltoall, Library::Mvapich2) / US
            });
            c.series.push(Series::new("CMA-pt2pt", &sizes, &pt2pt));
            let coll = par_ys(&sizes, |eta| {
                alltoall_ns(&arch, p, eta, AlltoallAlgo::Pairwise) / US
            });
            c.series.push(Series::new("CMA-coll", &sizes, &coll));
            c
        })
        .collect()
}

/// Fig 10: Allgather algorithm comparison.
pub fn fig10(quick: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .map(|(arch, p)| {
            let sizes = sweep_for(&arch, quick);
            let mut c = Chart::new(
                format!("fig10-{}", arch.name.to_lowercase()),
                format!("Allgather algorithms, {} ({p} processes)", arch.name),
                "Message Size (Bytes)",
                "Latency (us)",
            );
            let mut algos: Vec<(String, AllgatherAlgo)> = vec![
                ("Ring-Source-Read".into(), AllgatherAlgo::RingSourceRead),
                ("Ring-Source-Write".into(), AllgatherAlgo::RingSourceWrite),
                (
                    "Ring-Neighbor-1".into(),
                    AllgatherAlgo::RingNeighbor { j: 1 },
                ),
                ("Bruck's Algorithm".into(), AllgatherAlgo::Bruck),
            ];
            if p.is_power_of_two() {
                algos.push((
                    "Recursive Doubling".into(),
                    AllgatherAlgo::RecursiveDoubling,
                ));
            }
            if arch.sockets > 1 {
                // The paper's inter-socket stride contrast on Broadwell.
                let j = (1..p).find(|&j| j >= 5 && gcd(j, p) == 1).unwrap_or(1);
                algos.push((
                    format!("Ring-Neighbor-{j}"),
                    AllgatherAlgo::RingNeighbor { j },
                ));
            }
            for (label, algo) in algos {
                let ys = par_ys(&sizes, |eta| allgather_ns(&arch, p, eta, algo) / US);
                c.series.push(Series::new(label, &sizes, &ys));
            }
            c
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if a == 0 {
        b
    } else {
        gcd(b % a, a)
    }
}

/// Fig 11: Broadcast algorithm comparison.
pub fn fig11(quick: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .map(|(arch, p)| {
            let sizes = sweep_for(&arch, quick);
            let mut c = Chart::new(
                format!("fig11-{}", arch.name.to_lowercase()),
                format!("Broadcast algorithms, {} ({p} processes)", arch.name),
                "Message Size (Bytes)",
                "Latency (us)",
            );
            let dr = par_ys(&sizes, |eta| {
                bcast_ns(&arch, p, eta, BcastAlgo::DirectRead) / US
            });
            c.series
                .push(Series::new("Parallel Read (Direct)", &sizes, &dr));
            let dw = par_ys(&sizes, |eta| {
                bcast_ns(&arch, p, eta, BcastAlgo::DirectWrite) / US
            });
            c.series
                .push(Series::new("Sequential Write (Direct)", &sizes, &dw));
            for k in throttles(&arch, p).into_iter().take(2) {
                let radix = k + 1;
                let ys = par_ys(&sizes, |eta| {
                    bcast_ns(&arch, p, eta, BcastAlgo::KNomial { radix }) / US
                });
                c.series
                    .push(Series::new(format!("{radix}-nomial Read"), &sizes, &ys));
            }
            let sag = par_ys(&sizes, |eta| {
                bcast_ns(&arch, p, eta, BcastAlgo::ScatterAllgather) / US
            });
            c.series
                .push(Series::new("Scatter-Allgather", &sizes, &sag));
            c
        })
        .collect()
}

/// Fig 12: predicted vs simulated Bcast latency (model validation).
pub fn fig12(quick: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .filter(|(a, _)| a.name != "Power8") // the paper shows KNL + Broadwell
        .map(|(arch, p)| {
            let sizes = sweep_for(&arch, quick);
            let params = arch.nominal_model();
            let mut c = Chart::new(
                format!("fig12-{}", arch.name.to_lowercase()),
                format!(
                    "Predicted vs simulated MPI_Bcast, {} ({p} processes): 1=Direct Read 2=Direct Write 3=Scatter-Allgather",
                    arch.name
                ),
                "Message Size (Bytes)",
                "Latency (us)",
            );
            type ModelFn<'a> = Box<dyn Fn(usize) -> f64 + 'a>;
            let specs: [(&str, BcastAlgo, ModelFn<'_>); 3] = [
                (
                    "1",
                    BcastAlgo::DirectRead,
                    Box::new(|eta| predict::bcast_direct_read(&params, p, eta)),
                ),
                (
                    "2",
                    BcastAlgo::DirectWrite,
                    Box::new(|eta| predict::bcast_direct_write(&params, p, eta)),
                ),
                (
                    "3",
                    BcastAlgo::ScatterAllgather,
                    Box::new(|eta| predict::bcast_scatter_allgather(&params, p, eta)),
                ),
            ];
            for (name, algo, model) in specs {
                let actual: Vec<f64> =
                    sizes.iter().map(|&eta| bcast_ns(&arch, p, eta, algo) / US).collect();
                c.series.push(Series::new(format!("Actual {name}"), &sizes, &actual));
                let modeled: Vec<f64> = sizes.iter().map(|&eta| model(eta) / US).collect();
                c.series.push(Series::new(format!("Modeled {name}"), &sizes, &modeled));
            }
            c
        })
        .collect()
}
