//! Motivation and microbenchmark artifacts: Fig 1 (workload trends),
//! Figs 2–6 (CMA contention characterization), Tables III–V.

use super::{par_ys, platforms, sweep};
use crate::measure::{breakdown, one_to_all_read_ns, pairs_read_ns};
use crate::render::{Chart, Series};
use crate::workload;
use kacc_machine::SimProbe;
use kacc_model::extract::{extract_params, measure_gamma};
use kacc_model::gamma::fit_gamma;
use kacc_model::ArchProfile;

const US: f64 = 1000.0; // ns per µs

/// Fig 1: jobs submitted and CPU hours consumed by job size, from the
/// synthetic XSEDE-like trace (see `workload` for the substitution).
pub fn fig01(quick: bool) -> Vec<Chart> {
    let n = if quick { 50_000 } else { 1_000_000 };
    let jobs = workload::generate(n, 0x5EED);
    let hist = workload::histogram(&jobs);
    let (job_share, hour_share) = workload::small_job_share(&jobs);

    let mut a = Chart::new(
        "fig1a",
        "Number of Jobs Submitted by (Avg) Number of Nodes in Job",
        "Node-count bucket index",
        "Jobs (thousands)",
    );
    let xs: Vec<usize> = (0..hist.len()).collect();
    a.series.push(Series::new(
        "Jobs",
        &xs,
        &hist
            .iter()
            .map(|(_, c, _)| *c as f64 / 1000.0)
            .collect::<Vec<_>>(),
    ));
    a.notes.push(format!(
        "buckets: {}",
        hist.iter()
            .map(|(l, _, _)| l.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    a.notes.push(format!(
        "jobs with <= 9 nodes: {:.1}% of submissions",
        job_share * 100.0
    ));

    let mut b = Chart::new(
        "fig1b",
        "Total CPU Hours Consumed by (Avg) Number of Nodes in Job",
        "Node-count bucket index",
        "CPU Hours (millions)",
    );
    b.series.push(Series::new(
        "CPU Hours",
        &xs,
        &hist.iter().map(|(_, _, h)| *h / 1.0e6).collect::<Vec<_>>(),
    ));
    b.notes.push(format!(
        "jobs with <= 9 nodes: {:.1}% of CPU hours",
        hour_share * 100.0
    ));
    vec![a, b]
}

/// Fig 2: impact of the communication pattern on CMA read latency (KNL):
/// (a) all-to-all pairs, (b) one-to-all same buffer, (c) one-to-all
/// different buffers.
pub fn fig02(quick: bool) -> Vec<Chart> {
    let arch = ArchProfile::knl();
    let readers: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 4, 8, 16, 32, 64]
    };
    let sizes = sweep(quick);

    let make = |id: &str, title: &str, f: &(dyn Fn(usize, usize) -> f64 + Sync)| {
        let mut c = Chart::new(id, title, "Message Size (Bytes)", "CMA Read Latency (us)");
        for &r in readers {
            let ys = par_ys(&sizes, |eta| f(r, eta) / US);
            c.series
                .push(Series::new(format!("{r} Readers"), &sizes, &ys));
        }
        c
    };

    let a = make(
        "fig2a",
        "Different Source Processes (All-to-all)",
        &|r, eta| pairs_read_ns(&arch, r, eta),
    );
    let b = make(
        "fig2b",
        "Same Process, Same Buffer (One-to-all)",
        &|r, eta| one_to_all_read_ns(&arch, r, eta, true),
    );
    let c = make(
        "fig2c",
        "Same Process, Different Buffers (One-to-all)",
        &|r, eta| one_to_all_read_ns(&arch, r, eta, false),
    );
    vec![a, b, c]
}

/// Fig 3: one-to-all latency vs concurrent readers on all three
/// architectures.
pub fn fig03(quick: bool) -> Vec<Chart> {
    let sizes = sweep(quick);
    platforms(quick)
        .into_iter()
        .map(|(arch, p)| {
            let readers: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128]
                .into_iter()
                .filter(|&r| r < p)
                .collect();
            let mut c = Chart::new(
                format!("fig3-{}", arch.name.to_lowercase()),
                format!(
                    "One-to-all CMA read, {} ({} hardware threads)",
                    arch.name, p
                ),
                "Concurrent Readers",
                "CMA Read Latency (us)",
            );
            for &eta in &sizes {
                let ys = par_ys(&readers, |r| one_to_all_read_ns(&arch, r, eta, false) / US);
                c.series
                    .push(Series::new(crate::size_label(eta), &readers, &ys));
            }
            c
        })
        .collect()
}

/// Fig 4: step breakdown of one-to-all CMA reads on Broadwell for
/// varying page counts and contention levels.
pub fn fig04(quick: bool) -> Vec<Chart> {
    let arch = ArchProfile::broadwell();
    let pages: Vec<usize> = if quick {
        vec![64, 256]
    } else {
        vec![16, 64, 128, 256, 512]
    };
    [1usize, 4, 27]
        .into_iter()
        .map(|readers| {
            let label = if readers == 1 {
                "No Contention".to_string()
            } else {
                format!("{readers} Readers")
            };
            let mut c = Chart::new(
                format!("fig4-r{readers}"),
                format!("CMA read step breakdown, Broadwell, {label}"),
                "Number of Pages",
                "Time Taken (us)",
            );
            // One column per phase, in `breakdown`'s order.
            let mut cols: [Vec<f64>; 5] = Default::default();
            for b in crate::par::pmap(pages.clone(), |n| breakdown(&arch, readers, n)) {
                for (col, ns) in cols.iter_mut().zip(b) {
                    col.push(ns / US);
                }
            }
            let names = [
                "Syscall",
                "Permission Check",
                "Acquire Locks",
                "Pin Pages",
                "Copy Data",
            ];
            for (name, col) in names.into_iter().zip(&cols) {
                c.series.push(Series::new(name, &pages, col));
            }
            c
        })
        .collect()
}

/// Table III: step isolation via degenerate iovec counts (T₁–T₄).
pub fn table3(quick: bool) -> Vec<Chart> {
    let n_pages = if quick { 50 } else { 200 };
    platforms(quick)
        .into_iter()
        .map(|(arch, _)| {
            let mut probe = SimProbe::new(arch.clone());
            let ex = extract_params(&mut probe, n_pages);
            let mut c = Chart::new(
                format!("table3-{}", arch.name.to_lowercase()),
                format!(
                    "Time taken by CMA transfer steps, {} (N = {n_pages} pages)",
                    arch.name
                ),
                "Step (1=Syscall 2=+Check 3=+Lock/Pin 4=+Copy)",
                "Time (us)",
            );
            c.series.push(Series::new(
                "Measured",
                &[1, 2, 3, 4],
                &[ex.t1_ns / US, ex.t2_ns / US, ex.t3_ns / US, ex.t4_ns / US],
            ));
            c.notes.push(format!(
                "derived: alpha = {:.2} us, l = {:.3} us/page, beta = {:.2} GB/s",
                ex.alpha_ns / US,
                ex.l_ns / US,
                ex.bandwidth_gbps()
            ));
            c
        })
        .collect()
}

/// Table IV: model parameters per architecture, extracted from
/// simulated probes and fitted with NLLS (paper values in the notes).
pub fn table4(quick: bool) -> Vec<Chart> {
    let n_pages = if quick { 50 } else { 200 };
    let readers: &[usize] = if quick {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32]
    };
    let paper: &[(&str, f64, f64, f64, usize)] = &[
        ("KNL", 1.43, 3.29, 0.25, 4096),
        ("Broadwell", 0.98, 3.1, 0.11, 4096),
        ("Power8", 0.75, 3.7, 0.53, 65536),
    ];
    let mut c = Chart::new(
        "table4",
        "Empirically obtained model parameters (extracted from the simulator)",
        "Architecture index (0=KNL 1=Broadwell 2=Power8)",
        "Parameter value",
    );
    let mut alphas = Vec::new();
    let mut betas = Vec::new();
    let mut ls = Vec::new();
    let mut gamma_a = Vec::new();
    let mut gamma_b = Vec::new();
    for (idx, (arch, _)) in platforms(quick).into_iter().enumerate() {
        let mut probe = SimProbe::new(arch.clone());
        let ex = extract_params(&mut probe, n_pages);
        alphas.push(ex.alpha_ns / US);
        betas.push(ex.bandwidth_gbps());
        ls.push(ex.l_ns / US);
        let points = measure_gamma(&mut probe, readers, &[50]);
        let fit = fit_gamma(&points).expect("gamma fit");
        if let kacc_model::GammaModel::Quadratic { a, b } = fit.model {
            gamma_a.push(a);
            gamma_b.push(b);
        }
        let (name, pa, pb, pl, ps) = paper[idx.min(2)];
        c.notes.push(format!(
            "{name}: paper alpha={pa}us beta={pb}GB/s l={pl}us s={ps}B",
        ));
    }
    let xs: Vec<usize> = (0..alphas.len()).collect();
    c.series.push(Series::new("alpha (us)", &xs, &alphas));
    c.series.push(Series::new("beta (GB/s)", &xs, &betas));
    c.series.push(Series::new("l (us/page)", &xs, &ls));
    c.series
        .push(Series::new("gamma a (c^2 coeff)", &xs, &gamma_a));
    c.series
        .push(Series::new("gamma b (c coeff)", &xs, &gamma_b));
    vec![c]
}

/// Fig 5: determination of the contention factor γ with page-count
/// curves and the NLLS best fit.
pub fn fig05(quick: bool) -> Vec<Chart> {
    platforms(quick)
        .into_iter()
        .map(|(arch, p)| {
            let readers: Vec<usize> = [2usize, 4, 8, 16, 32, 64, 128]
                .into_iter()
                .filter(|&r| r < p)
                .collect();
            let mut probe = SimProbe::new(arch.clone());
            let mut c = Chart::new(
                format!("fig5-{}", arch.name.to_lowercase()),
                format!("Contention factor gamma, {}", arch.name),
                "Concurrent Readers",
                "Contention Factor",
            );
            let page_counts: &[usize] = if quick { &[50] } else { &[10, 50, 100] };
            let mut avg = vec![0.0f64; readers.len()];
            for &n in page_counts {
                let pts = measure_gamma(&mut probe, &readers, &[n]);
                for (i, pt) in pts.iter().enumerate() {
                    avg[i] += pt.gamma / page_counts.len() as f64;
                }
                c.series.push(Series::new(
                    format!("{n} Pages"),
                    &readers,
                    &pts.iter().map(|p| p.gamma).collect::<Vec<_>>(),
                ));
            }
            c.series.push(Series::new("Average", &readers, &avg));
            let pts: Vec<kacc_model::gamma::GammaPoint> = readers
                .iter()
                .zip(&avg)
                .map(|(&r, &g)| kacc_model::gamma::GammaPoint { c: r, gamma: g })
                .collect();
            if let Ok(fit) = fit_gamma(&pts) {
                let ys: Vec<f64> = readers.iter().map(|&r| fit.model.eval(r)).collect();
                c.series.push(Series::new("Best Fit (NLLS)", &readers, &ys));
                if let kacc_model::GammaModel::Quadratic { a, b } = fit.model {
                    c.notes
                        .push(format!("fit: gamma(c) = {a:.4} c^2 + {b:.4} c"));
                }
            }
            c
        })
        .collect()
}

/// Fig 6: CMA read throughput relative to a single reader.
pub fn fig06(quick: bool) -> Vec<Chart> {
    let sizes = sweep(quick);
    platforms(quick)
        .into_iter()
        .map(|(arch, p)| {
            let readers: Vec<usize> = match arch.name.as_str() {
                "KNL" => vec![1, 2, 4, 8, 16, 32, 64],
                "Broadwell" => vec![1, 2, 4, 8, 16, 28],
                _ => vec![1, 2, 4, 10, 20, 40, 80, 160],
            }
            .into_iter()
            .filter(|&r| r < p.max(2) || r == 1)
            .collect();
            let mut c = Chart::new(
                format!("fig6-{}", arch.name.to_lowercase()),
                format!("Relative CMA read throughput, {}", arch.name),
                "Message Size (Bytes)",
                "Relative Throughput (vs 1 reader)",
            );
            for &r in &readers {
                let ys = par_ys(&sizes, |eta| {
                    let t1 = one_to_all_read_ns(&arch, 1, eta, false);
                    let tr = one_to_all_read_ns(&arch, r, eta, false);
                    // Aggregate throughput ratio: r readers each move
                    // eta bytes in tr vs 1 reader in t1.
                    (r as f64 * eta as f64 / tr) / (eta as f64 / t1)
                });
                let label = if r == 1 {
                    "1 Reader".to_string()
                } else {
                    format!("{r} Readers")
                };
                c.series.push(Series::new(label, &sizes, &ys));
            }
            c
        })
        .collect()
}

/// Table V: hardware specification of the simulated clusters.
pub fn table5(_quick: bool) -> Vec<Chart> {
    let mut c = Chart::new(
        "table5",
        "Hardware specification of the (simulated) clusters",
        "Architecture index (0=KNL 1=Broadwell 2=Power8)",
        "Value",
    );
    let archs = ArchProfile::all();
    let xs: Vec<usize> = (0..archs.len()).collect();
    c.series.push(Series::new(
        "Sockets",
        &xs,
        &archs.iter().map(|a| a.sockets as f64).collect::<Vec<_>>(),
    ));
    c.series.push(Series::new(
        "Cores/Socket",
        &xs,
        &archs
            .iter()
            .map(|a| a.cores_per_socket as f64)
            .collect::<Vec<_>>(),
    ));
    c.series.push(Series::new(
        "Threads/Core",
        &xs,
        &archs
            .iter()
            .map(|a| a.threads_per_core as f64)
            .collect::<Vec<_>>(),
    ));
    c.series.push(Series::new(
        "Page Size (B)",
        &xs,
        &archs.iter().map(|a| a.page_size as f64).collect::<Vec<_>>(),
    ));
    c.series.push(Series::new(
        "Procs Used",
        &xs,
        &archs
            .iter()
            .map(|a| a.default_procs as f64)
            .collect::<Vec<_>>(),
    ));
    for a in &archs {
        c.notes
            .push(format!("{}: fabric {}", a.name, a.default_fabric().name));
    }
    vec![c]
}
