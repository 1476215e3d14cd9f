//! The paper's evaluation claims, checked against the committed
//! `results/*.csv` without simulating anything.
//!
//! Each claim names its `repro --list` artifact and the paper's
//! statement, and makes one check over CSV cells: an order at an x, a
//! crossover inside an x window, a factor band (carrying the paper's
//! value), a monotone trend, or an interior optimum. A claim the
//! reproduction knowingly misses is a `deviation` with its cause; it
//! asserts the shape we measure, so it still trips when that shape moves.
//! A missing file, row or column fails its claim: nothing is skipped.
//!
//! `repro --csv results all` writes the CSVs, and CI diffs a fresh
//! full-scale run against them byte for byte. This file says what they
//! must show. On failure the test lists every failing claim, one per
//! line, with the numbers it read.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Debug};
use std::fs;
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};

/// A number a claim reads: one CSV cell, or a ratio or sum of them.
#[derive(Clone)]
enum Val {
    /// File stem, row label (the first column), column header.
    Cell(&'static str, &'static str, &'static str),
    Ratio(Box<Val>, Box<Val>),
    Sum(Vec<Val>),
}

fn at(file: &'static str, x: &'static str, series: &'static str) -> Val {
    Val::Cell(file, x, series)
}

/// The cells of several series at one row.
fn row(file: &'static str, x: &'static str, series: &[&'static str]) -> Vec<Val> {
    series.iter().map(|s| at(file, x, s)).collect()
}

/// The cells of one series at several rows.
fn col(file: &'static str, xs: &[&'static str], series: &'static str) -> Vec<Val> {
    xs.iter().map(|x| at(file, x, series)).collect()
}

/// `num / den`, both in row `x` of `file`.
fn ratio(file: &'static str, x: &'static str, num: &'static str, den: &'static str) -> Val {
    at(file, x, num).over(at(file, x, den))
}

impl Val {
    fn over(self, den: Val) -> Val {
        Val::Ratio(Box::new(self), Box::new(den))
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Cell(file, x, series) => write!(f, "{file}[{x}|{series}]"),
            Val::Ratio(num, den) => write!(f, "{num} / {den}"),
            Val::Sum(parts) => write!(f, "({})", join(parts, " + ")),
        }
    }
}

fn join(vals: &[Val], sep: &str) -> String {
    vals.iter()
        .map(Val::to_string)
        .collect::<Vec<_>>()
        .join(sep)
}

fn show(ys: &[f64]) -> String {
    ys.iter()
        .map(|y| format!("{y:.4}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Which way a trend runs, or which end of a row an optimum sits at:
/// `Up` is rising / a maximum, `Down` falling / a minimum.
#[derive(Clone, Copy, PartialEq)]
enum Dir {
    Up,
    Down,
}
use Dir::{Down, Up};

impl Dir {
    fn holds(self, a: f64, b: f64) -> bool {
        match self {
            Up => a < b,
            Down => a > b,
        }
    }
}

/// One CSV: its header and its rows, each a label and raw fields.
struct Table {
    header: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    fn parse(text: &str) -> Table {
        let mut lines = text.lines().map(|l| l.split(',').map(str::to_owned));
        let header = lines
            .next()
            .map(|h| h.skip(1).collect())
            .unwrap_or_default();
        let rows = lines
            .map(|mut fields| (fields.next().unwrap_or_default(), fields.collect()))
            .collect();
        Table { header, rows }
    }

    fn row(&self, x: &str) -> Result<usize, String> {
        self.rows
            .iter()
            .position(|(label, _)| label == x)
            .ok_or_else(|| format!("no row {x:?}"))
    }

    fn get(&self, row: usize, series: &str) -> Result<f64, String> {
        let c = self
            .header
            .iter()
            .position(|h| h == series)
            .ok_or_else(|| format!("no column {series:?}"))?;
        let (label, fields) = &self.rows[row];
        let raw = fields
            .get(c)
            .ok_or_else(|| format!("row {label:?} has no {series:?} field"))?;
        raw.parse()
            .map_err(|_| format!("[{label}|{series}] = {raw:?} is not a number"))
    }
}

/// Evaluates claims against one results directory and collects the
/// verdicts.
struct Checker {
    tables: BTreeMap<String, Table>,
    claims: usize,
    deviations: usize,
    artifacts: BTreeSet<&'static str>,
    failures: Vec<String>,
}

impl Checker {
    fn new(dir: &Path) -> Checker {
        let mut tables = BTreeMap::new();
        for entry in fs::read_dir(dir).expect("results directory is readable") {
            let path = entry.expect("results entry is readable").path();
            if path.extension().is_some_and(|e| e == "csv") {
                let stem = path.file_stem().expect("a csv has a stem");
                let text = fs::read_to_string(&path).expect("csv is readable");
                tables.insert(stem.to_string_lossy().into_owned(), Table::parse(&text));
            }
        }
        Checker {
            tables,
            claims: 0,
            deviations: 0,
            artifacts: BTreeSet::new(),
            failures: Vec::new(),
        }
    }

    fn table(&self, file: &str) -> Result<&Table, String> {
        self.tables
            .get(file)
            .ok_or_else(|| format!("no {file}.csv"))
    }

    fn value(&self, v: &Val) -> Result<f64, String> {
        match v {
            Val::Cell(file, x, series) => {
                let t = self.table(file)?;
                t.get(t.row(x).map_err(|e| format!("{file}: {e}"))?, series)
                    .map_err(|e| format!("{file}: {e}"))
            }
            Val::Ratio(num, den) => Ok(self.value(num)? / self.value(den)?),
            Val::Sum(parts) => parts.iter().map(|p| self.value(p)).sum(),
        }
    }

    fn values(&self, vals: &[Val]) -> Result<Vec<f64>, String> {
        vals.iter().map(|v| self.value(v)).collect()
    }

    /// A claim the paper makes, for `artifact`, awaiting its check.
    fn claim(&mut self, artifact: &'static str, paper: &'static str) -> Claim<'_> {
        Claim {
            ck: self,
            artifact,
            paper,
            cause: None,
        }
    }
}

/// One claim awaiting its check; each check method evaluates it and
/// records the verdict.
struct Claim<'a> {
    ck: &'a mut Checker,
    artifact: &'static str,
    paper: &'static str,
    cause: Option<&'static str>,
}

impl Claim<'_> {
    /// Marks a claim the reproduction knowingly misses, for `cause`; its
    /// check then asserts the shape we measure instead.
    fn deviation(mut self, cause: &'static str) -> Self {
        self.cause = Some(cause);
        self
    }

    /// `vals` strictly ascending: the first is the lowest (for a
    /// latency, the winner).
    fn order(self, vals: Vec<Val>) {
        let what = format!("order {}", join(&vals, " < "));
        self.monotone(what, &vals, Up);
    }

    /// `vals` strictly rising (`Up`) or falling (`Down`) in the order
    /// given.
    fn trend(self, vals: Vec<Val>, dir: Dir) {
        let sep = if dir == Up { " < " } else { " > " };
        let what = format!("trend {}", join(&vals, sep));
        self.monotone(what, &vals, dir);
    }

    fn monotone(self, what: String, vals: &[Val], dir: Dir) {
        let verdict = self.ck.values(vals).and_then(|ys| {
            if ys.windows(2).all(|w| dir.holds(w[0], w[1])) {
                Ok(())
            } else {
                Err(show(&ys))
            }
        });
        self.record(what, verdict);
    }

    /// `v` inside `band`; `paper` is the paper's value where it gives one.
    fn factor(self, v: Val, band: impl RangeBounds<f64> + Debug, paper: Option<f64>) {
        let mut what = format!("factor {v} in {band:?}");
        if let Some(p) = paper {
            what += &format!(" (paper {p})");
        }
        let verdict = self.ck.value(&v).and_then(|y| {
            if band.contains(&y) {
                Ok(())
            } else {
                Err(show(&[y]))
            }
        });
        self.record(what, verdict);
    }

    /// Series `a` lies below `b` on every row through `through`, and above
    /// it on every row from `from` on: they cross inside that window.
    fn crossover(
        self,
        file: &'static str,
        a: &'static str,
        b: &'static str,
        through: &'static str,
        from: &'static str,
    ) {
        let what = format!("crossover {file}: {a} < {b} through {through}, > from {from}");
        let verdict = self.ck.table(file).and_then(|t| {
            let (last, first) = (t.row(through)?, t.row(from)?);
            if last >= first {
                return Err(format!("{through:?} is not a row before {from:?}"));
            }
            for (i, (x, _)) in t.rows.iter().enumerate() {
                let (ya, yb) = (t.get(i, a)?, t.get(i, b)?);
                if (i <= last && ya >= yb) || (i >= first && ya <= yb) {
                    return Err(format!("at {x}: {}", show(&[ya, yb])));
                }
            }
            Ok(())
        });
        self.record(what, verdict);
    }

    /// In row `x`, `top` is strictly the highest (`Up`) or lowest (`Down`)
    /// of `series`, and is neither the first nor the last of them.
    fn peak(
        self,
        file: &'static str,
        x: &'static str,
        series: &[&'static str],
        top: &'static str,
        dir: Dir,
    ) {
        let best = if dir == Up { "highest" } else { "lowest" };
        let what = format!("peak {file}[{x}]: {top} is the {best} inside {series:?}");
        let i = series.iter().position(|s| *s == top);
        let verdict = self
            .ck
            .values(&row(file, x, series))
            .and_then(|ys| match i {
                Some(i)
                    if i > 0
                        && i + 1 < ys.len()
                        && (0..ys.len()).all(|j| j == i || dir.holds(ys[j], ys[i])) =>
                {
                    Ok(())
                }
                _ => Err(show(&ys)),
            });
        self.record(what, verdict);
    }

    fn record(self, what: String, verdict: Result<(), String>) {
        let ck = self.ck;
        ck.claims += 1;
        ck.deviations += usize::from(self.cause.is_some());
        ck.artifacts.insert(self.artifact);
        if let Err(observed) = verdict {
            let deviation = self
                .cause
                .map(|c| format!(" | deviation: {c}"))
                .unwrap_or_default();
            ck.failures.push(format!(
                "FAIL {}: {what} | observed {observed} | paper: {}{deviation}",
                self.artifact, self.paper
            ));
        }
    }
}

const KACC: &str = "KACC (proposed)";
const MV2: &str = "MVAPICH2-like";
const IMPI: &str = "IntelMPI-like";
const OMPI: &str = "OpenMPI-like";
const KILLS: [&str; 5] = ["0", "1", "2", "3", "4"];

/// Fig 1, Figs 2–6, Tables III–V.
#[rustfmt::skip]
fn micro(c: &mut Checker) {
    let buckets = ["0", "1", "2", "3", "4", "5", "6"];
    // Buckets 0-3 hold the 1-8-node jobs; 9-node jobs fall in the 9-16 bucket.
    let (small, large) = buckets.split_at(4);
    c.claim("fig1", "job count falls with job size: 1-node jobs outnumber 9-16-node jobs")
        .trend(col("fig1a", &buckets, "Jobs"), Down);
    for (file, series) in [("fig1a", "Jobs"), ("fig1b", "CPU Hours")] {
        c.claim("fig1", "1-9-node jobs are the lion's share of submissions and of CPU hours")
            .factor(Val::Sum(col(file, small, series)).over(Val::Sum(col(file, large, series))), 1.0.., None);
    }

    let readers = ["1 Readers", "4 Readers", "8 Readers", "16 Readers", "32 Readers", "64 Readers"];
    c.claim("fig2", "all-to-all pairs scale: 16 disjoint pairs run within 2.5x of one pair")
        .factor(ratio("fig2a", "64K", "16 Readers", "1 Readers"), 1.0..2.5, None);
    c.claim("fig2", "all-to-all pairs scale flat up to the full node")
        .deviation("the aggregate memory-bandwidth term (DESIGN.md §4.4) shares node bandwidth \
                    among 64 concurrent copies, so 64 disjoint pairs run about 6.6x one pair")
        .factor(ratio("fig2a", "64K", "64 Readers", "1 Readers"), 6.0..7.5, Some(1.0));
    c.claim("fig2", "one-to-all reads contend: 16 readers of one source run over 4x one reader")
        .factor(ratio("fig2c", "64K", "16 Readers", "1 Readers"), 4.0..20.0, None);
    c.claim("fig2", "one-to-all latency grows with every added reader")
        .trend(row("fig2c", "64K", &readers), Up);
    c.claim("fig2", "same or different buffers degrade alike: the source process is the bottleneck")
        .factor(at("fig2b", "64K", "64 Readers").over(at("fig2c", "64K", "64 Readers")), 0.9..1.1, Some(1.0));

    for (file, readers) in [
        ("fig3-knl", &["1", "2", "4", "8", "16", "32"][..]),
        ("fig3-broadwell", &["1", "2", "4", "8", "16"]),
        ("fig3-power8", &["1", "2", "4", "8", "16", "32", "64", "128"]),
    ] {
        c.claim("fig3", "CMA read latency grows with concurrent readers on every architecture")
            .trend(col(file, readers, "1M"), Up);
    }
    c.claim("fig3", "Power8 degrades fastest once readers pass its 10-core socket").order(vec![
        at("fig3-power8", "8", "64K").over(at("fig3-power8", "4", "64K")),
        at("fig3-power8", "16", "64K").over(at("fig3-power8", "8", "64K")),
    ]);

    let lock = "Acquire Locks";
    c.claim("fig4", "lock time under 27 readers is over 5x the uncontended lock time")
        .factor(at("fig4-r27", "512", lock).over(at("fig4-r1", "512", lock)), 5.0..1000.0, None);
    c.claim("fig4", "lock acquisition grows with the number of readers")
        .trend(["fig4-r1", "fig4-r4", "fig4-r27"].map(|f| at(f, "128", lock)).to_vec(), Up);
    c.claim("fig4", "lock acquisition grows with the page count")
        .trend(col("fig4-r27", &["16", "64", "128", "256", "512"], lock), Up);
    c.claim("fig4", "syscall time is flat under contention")
        .factor(at("fig4-r27", "512", "Syscall").over(at("fig4-r1", "512", "Syscall")), 0.95..1.05,
            Some(1.0));
    c.claim("fig4", "under contention lock acquisition outweighs the copy")
        .order(row("fig4-r27", "512", &["Copy Data", lock]));

    for (file, arch) in [("table3-knl", "0"), ("table3-broadwell", "1"), ("table3-power8", "2")] {
        c.claim("table3", "each isolated step (check, lock/pin, copy) adds cost")
            .trend(col(file, &["1", "2", "3", "4"], "Measured"), Up);
        c.claim("table3", "alpha is the syscall-plus-check time T2 of Table III")
            .factor(at(file, "2", "Measured").over(at("table4", arch, "alpha (us)")), 0.999..1.001,
                Some(1.0));
    }

    for (arch, beta, l) in [("0", 3.29, 0.25), ("1", 3.1, 0.11), ("2", 3.7, 0.53)] {
        c.claim("table4", "beta is 3.29 / 3.1 / 3.7 GB/s (KNL / Broadwell / Power8)")
            .factor(at("table4", arch, "beta (GB/s)"), beta * 0.9..beta * 1.1, Some(beta));
        c.claim("table4", "l is 0.25 / 0.11 / 0.53 us per page (KNL / Broadwell / Power8)")
            .factor(at("table4", arch, "l (us/page)"), l * 0.9..l * 1.1, Some(l));
        c.claim("table4", "gamma is super-linear in the concurrency")
            .factor(at("table4", arch, "gamma a (c^2 coeff)"), 0.05..0.5, None);
    }
    for (arch, ours, paper) in [("0", 1.68, 1.43), ("1", 1.09, 0.98), ("2", 1.28, 0.75)] {
        c.claim("table4", "alpha is 1.43 / 0.98 / 0.75 us (KNL / Broadwell / Power8)")
            .deviation("the extracted alpha is T2, whose 1-byte probe pins a page, so it includes \
                        one page of lock+pin; the profiles' nominal alpha are the paper's")
            .factor(at("table4", arch, "alpha (us)"), ours * 0.95..ours * 1.05, Some(paper));
    }

    for (arch, procs) in [("0", 64.0), ("1", 28.0), ("2", 160.0)] {
        c.claim("table5", "the evaluation runs 64 / 28 / 160 processes on KNL / Broadwell / Power8")
            .factor(at("table5", arch, "Procs Used"), procs..=procs, Some(procs));
    }
    c.claim("table5", "Power8 runs with 64 KiB pages")
        .factor(at("table5", "2", "Page Size (B)"), 65536.0..=65536.0, Some(65536.0));

    for (file, conc) in [
        ("fig5-knl", &["2", "4", "8", "16", "32"][..]),
        ("fig5-broadwell", &["2", "4", "8", "16"]),
        ("fig5-power8", &["2", "4", "8", "16", "32", "64", "128"]),
    ] {
        let top = conc[conc.len() - 1];
        c.claim("fig5", "gamma does not depend on the page count (10/50/100 pages coincide)")
            .factor(ratio(file, top, "100 Pages", "10 Pages"), 0.85..1.15, Some(1.0));
        c.claim("fig5", "gamma grows super-linearly with concurrency")
            .trend(col(file, conc, "Average"), Up);
        c.claim("fig5", "the NLLS fit tracks the measured gamma at full concurrency")
            .factor(ratio(file, top, "Best Fit (NLLS)", "Average"), 0.95..1.05, Some(1.0));
    }
    c.claim("fig5", "gamma jumps past the socket boundary on Broadwell; single-socket KNL has no jump")
        .order(["fig5-knl", "fig5-broadwell"]
            .map(|f| at(f, "16", "Average").over(at(f, "8", "Average"))).to_vec());

    let knl = ["1 Reader", "2 Readers", "4 Readers", "8 Readers", "16 Readers", "32 Readers"];
    let bdw = ["1 Reader", "2 Readers", "4 Readers", "8 Readers", "16 Readers"];
    let p8 = ["1 Reader", "2 Readers", "4 Readers", "10 Readers", "20 Readers", "40 Readers", "80 Readers"];
    c.claim("fig6", "large-message read throughput peaks at a moderate concurrency (4-8 readers on KNL)")
        .peak("fig6-knl", "4M", &knl, "8 Readers", Up);
    c.claim("fig6", "small messages tolerate more concurrency than large ones")
        .peak("fig6-knl", "4K", &knl, "16 Readers", Up);
    c.claim("fig6", "Broadwell peaks at a moderate concurrency")
        .peak("fig6-broadwell", "1M", &bdw, "8 Readers", Up);
    c.claim("fig6", "Broadwell's peak relative throughput is about 2x")
        .factor(at("fig6-broadwell", "1M", "8 Readers"), 2.0..3.0, Some(2.0));
    c.claim("fig6", "Power8 peaks at about 10 readers")
        .peak("fig6-power8", "4M", &p8, "10 Readers", Up);
}

/// Figs 7–12.
#[rustfmt::skip]
fn algos(c: &mut Checker) {
    let knl = ["Throttle = 2", "Throttle = 4", "Throttle = 8", "Throttle = 16"];
    let bdw = ["Throttle = 2", "Throttle = 4", "Throttle = 7", "Throttle = 14"];
    let p8 = ["Throttle = 2", "Throttle = 4", "Throttle = 10", "Throttle = 20"];
    for (fig, file, ks, best) in [
        ("fig7", "fig7-knl", knl, "Throttle = 8"),
        ("fig7", "fig7-broadwell", bdw, "Throttle = 4"),
        ("fig7", "fig7-power8", p8, "Throttle = 10"),
        ("fig8", "fig8-knl", knl, "Throttle = 8"),
        ("fig8", "fig8-broadwell", bdw, "Throttle = 4"),
        ("fig8", "fig8-power8", p8, "Throttle = 10"),
    ] {
        let (par, seq) = if fig == "fig7" {
            ("Parallel Read", "Sequential Write")
        } else {
            ("Parallel Writes", "Sequential Read")
        };
        c.claim(fig, "the best throttle is about 4-8 on KNL, 4 on Broadwell and 10 on Power8")
            .peak(file, "1M", &ks, best, Down);
        c.claim(fig, "throttling beats unthrottled parallel access for large messages")
            .order(row(file, "1M", &[best, par]));
        if file.ends_with("knl") {
            c.claim(fig, "large messages: a throttled design beats both the parallel and the sequential one")
                .order(row(file, "4M", &[best, seq, par]));
        }
    }
    c.claim("fig7", "parallel read wins small messages; sequential write catches up only at large sizes")
        .crossover("fig7-knl", "Parallel Read", "Sequential Write", "16K", "64K");
    c.claim("fig8", "Gather mirrors Scatter")
        .factor(at("fig8-knl", "1M", "Throttle = 8").over(at("fig7-knl", "1M", "Throttle = 8")), 0.9..1.1,
            Some(1.0));

    for file in ["fig9-knl", "fig9-broadwell"] {
        c.claim("fig9", "medium messages: the native CMA collective beats CMA pt2pt, which beats SHMEM")
            .order(row(file, "64K", &["CMA-coll", "CMA-pt2pt", "SHMEM"]));
        c.claim("fig9", "kernel assistance pays from 16 KiB; below it pt2pt rides the eager path")
            .crossover(file, "CMA-pt2pt", "CMA-coll", "4K", "16K");
        c.claim("fig9", "the native collective beats CMA pt2pt by 2-5x for small and medium messages")
            .deviation("our eager/rendezvous pt2pt baseline is tighter than the 2017 libraries' \
                        (no progress-engine overhead), so eliding RTS/CTS saves only 0.5-3 %")
            .factor(ratio(file, "16K", "CMA-pt2pt", "CMA-coll"), 1.0..1.1, Some(2.0));
    }
    c.claim("fig9", "CMA pt2pt is far faster than SHMEM for large messages")
        .factor(ratio("fig9-knl", "256K", "SHMEM", "CMA-pt2pt"), 1.5..2.5, None);

    let (rn1, bruck) = ("Ring-Neighbor-1", "Bruck's Algorithm");
    c.claim("fig10", "large messages: neighbor-1 beats neighbor-5 (socket locality); rings beat Bruck")
        .order(row("fig10-broadwell", "256K", &[rn1, "Ring-Neighbor-5", "Ring-Source-Read", bruck]));
    c.claim("fig10", "on Power8 Ring-Neighbor-1 beats Ring-Neighbor-7, and rings beat Bruck")
        .order(row("fig10-power8", "256K", &[rn1, "Ring-Neighbor-7", bruck]));
    c.claim("fig10", "rings beat Bruck for large messages on KNL")
        .order(row("fig10-knl", "256K", &["Ring-Source-Read", bruck]));
    for (file, small) in [
        ("fig10-broadwell", &[rn1, bruck][..]),
        ("fig10-power8", &[rn1, bruck]),
        ("fig10-knl", &["Ring-Source-Read", "Recursive Doubling", bruck]),
    ] {
        c.claim("fig10", "Bruck and recursive doubling win small messages (log p startups)")
            .deviation("the fluid memory model shares bandwidth among the ranks' concurrent \
                        copies (DESIGN.md §4.4), so Bruck's extra staging copies cost at every size")
            .order(row(file, "1K", small));
    }

    let (sag, five, read) = ("Scatter-Allgather", "5-nomial Read", "Parallel Read (Direct)");
    c.claim("fig11", "large messages: scatter-allgather beats k-nomial and both direct designs")
        .order(row("fig11-knl", "4M", &[sag, five, read]));
    c.claim("fig11", "k-nomial beats both direct designs")
        .order(row("fig11-knl", "1K", &[five, read, "Sequential Write (Direct)"]));
    c.claim("fig11", "k-nomial beats both direct designs")
        .order(row("fig11-knl", "16K", &[five, sag, read]));
    for (file, knomial, through, from) in [
        ("fig11-knl", five, "64K", "256K"),
        ("fig11-broadwell", five, "16K", "64K"),
        ("fig11-power8", "3-nomial Read", "64K", "256K"),
    ] {
        c.claim("fig11", "scatter-allgather overtakes k-nomial for large messages")
            .crossover(file, knomial, sag, through, from);
    }

    for file in ["fig12-knl", "fig12-broadwell"] {
        for (actual, modeled) in [("Actual 1", "Modeled 1"), ("Actual 2", "Modeled 2"),
                                  ("Actual 3", "Modeled 3")] {
            for x in ["1K", "4K", "16K", "64K", "256K", "1M", "4M"] {
                c.claim("fig12", "the model's predicted Bcast latency coincides with the measured one")
                    .factor(ratio(file, x, modeled, actual), 0.4..1.6, Some(1.0));
            }
        }
    }
}

/// Figs 13–18, Tables VI–VII.
#[rustfmt::skip]
fn libs(c: &mut Checker) {
    let personas = |file: &str| -> &'static [&'static str] {
        if file.ends_with("power8") { &[MV2, OMPI] } else { &[MV2, IMPI, OMPI] }
    };
    let ring_choice = "mpi/src/baseline.rs runs the MVAPICH2-like Allgather/Alltoall as the pt2pt ring \
        and pairwise plans (pt2pt::Algo::{Allgather, Alltoall}) and the OpenMPI-like Allgather as the \
        tuner's own RingNeighbor { j: 1 }, the data movement kacc picks at large sizes; which \
        algorithm each 2017 library ran is a one-line pt2pt::Algo choice there";
    for file in ["table6-knl", "table6-broadwell", "table6-power8"] {
        for &lib in personas(file) {
            for coll in ["1", "2"] {
                c.claim("table6", "the proposed Scatter and Gather beat every library (up to 50x)")
                    .factor(at(file, coll, lib), 2.0.., Some(50.0));
            }
            c.claim("table6", "the proposed Bcast beats every library (up to 4x)")
                .factor(at(file, "0", lib), 1.0.., Some(4.0));
        }
        for (coll, paper) in [("3", 4.0), ("4", 5.0)] {
            for lib in [MV2, OMPI] {
                c.claim("table6", "the proposed Allgather (up to 4x) and Alltoall (up to 5x) win")
                    .deviation(ring_choice)
                    .factor(at(file, coll, lib), 1.0..1.15, Some(paper));
            }
        }
    }
    for file in ["table7-knl", "table7-broadwell", "table7-power8"] {
        for &lib in personas(file) {
            for coll in ["1", "2"] {
                c.claim("table7", "Scatter and Gather gains persist at the largest message size")
                    .factor(at(file, coll, lib), 1.3.., None);
            }
        }
        for coll in ["3", "4"] {
            for lib in [MV2, OMPI] {
                c.claim("table7", "Allgather and Alltoall gains shrink to 10-50 % at the largest size")
                    .deviation(ring_choice)
                    .factor(at(file, coll, lib), 1.0..1.01, Some(1.1));
            }
        }
    }
    for file in ["table6-knl", "table6-broadwell", "table7-knl", "table7-broadwell"] {
        for coll in ["3", "4"] {
            c.claim(&file[..6], "the proposed Allgather and Alltoall beat the two-copy library")
                .factor(at(file, coll, IMPI), 1.5..2.5, None);
        }
    }
    c.claim("table6", "the biggest wins are on Power8")
        .order(["table6-broadwell", "table6-knl", "table6-power8"].map(|f| at(f, "1", MV2)).to_vec());
    c.claim("table6", "personalized collectives gain up to 50x")
        .deviation("our baseline personas are idealized (no progress-engine overheads, a tight \
                    eager path), so the largest Scatter/Gather gain is about 13x")
        .factor(at("table6-power8", "2", MV2), 10.0..15.0, Some(50.0));

    for (fig, file, order) in [
        ("fig13", "fig13-knl", &[KACC, OMPI, MV2, IMPI][..]),
        ("fig13", "fig13-broadwell", &[KACC, OMPI, MV2, IMPI]),
        ("fig13", "fig13-power8", &[KACC, OMPI, MV2]),
        ("fig14", "fig14-knl", &[KACC, OMPI, MV2, IMPI]),
        ("fig14", "fig14-broadwell", &[KACC, OMPI, MV2, IMPI]),
        ("fig14", "fig14-power8", &[KACC, OMPI, MV2]),
    ] {
        c.claim(fig, "the proposed design wins large Scatter and Gather; the two-copy library loses most")
            .order(row(file, "1M", order));
    }
    for (fig, file) in [
        ("fig15", "fig15-knl"),
        ("fig15", "fig15-broadwell"),
        ("fig16", "fig16-knl"),
        ("fig16", "fig16-broadwell"),
    ] {
        c.claim(fig, "the eager pt2pt library wins small messages; kernel assistance wins from 16 KiB")
            .crossover(file, MV2, KACC, "4K", "16K");
        c.claim(fig, "the two-copy library loses about 2x at bandwidth-bound sizes")
            .factor(ratio(file, "256K", IMPI, KACC), 1.5..2.5, None);
    }

    let (single, two) = ("Single-level (libraries)", "Two-level (proposed)");
    let nodes = [("fig17-2nodes", 2.0), ("fig17-4nodes", 3.0), ("fig17-8nodes", 5.0)];
    for (file, paper) in nodes {
        c.claim("fig17", "the two-level Gather wins above the rendezvous threshold")
            .order(row(file, "64K", &[two, single]));
        c.claim("fig17", "the single-level Gather wins only eager-sized messages")
            .crossover(file, single, two, "4K", "16K");
        c.claim("fig17", "the two-level Gather wins up to 2x / 3x / 5x on 2 / 4 / 8 nodes")
            .factor(ratio(file, "16K", single, two), paper * 0.5..paper * 1.5, Some(paper));
    }
    for x in ["16K", "64K"] {
        c.claim("fig17", "the two-level improvement grows with the node count")
            .trend(nodes.map(|(f, _)| ratio(f, x, single, two)).to_vec(), Up);
    }
    c.claim("fig17", "pipelining overlaps the intra-node waves with the inter-node shipping")
        .order(row("fig17-8nodes", "64K", &["Two-level pipelined", two]));

    for (file, order) in [
        ("fig18-broadwell", &[KACC, MV2, IMPI, OMPI][..]),
        ("fig18-power8", &[KACC, MV2, OMPI]),
    ] {
        c.claim("fig18", "pt2pt/shm Bcast trees win small messages; CMA wins large ones")
            .crossover(file, MV2, KACC, "64K", "256K");
        c.claim("fig18", "above the crossover the proposed Bcast beats every library")
            .order(row(file, "1M", order));
    }
}

/// The survivable-collectives study and the traced phase breakdown.
#[rustfmt::skip]
fn robustness(c: &mut Checker) {
    for (file, breakdown) in [
        ("failures_p16", "failures_breakdown_p16"),
        ("failures_p64", "failures_breakdown_p64"),
        ("failures_p128", "failures_breakdown_p128"),
    ] {
        for op in ["Scatter (throttled k=2)", "Gather (parallel write)", "Bcast (2-nomial)",
                   "Allgather (Bruck)", "Alltoall (pairwise)"] {
            c.claim("failures", "(extension, no paper figure) each silent kill adds detection, agreement \
                                 and re-execution time")
                .trend(col(file, &KILLS, op), Up);
        }
        c.claim("failures", "(extension) a 2-nomial Reduce recovers at about the cost of the 2-nomial \
                             Bcast over the same tree")
            .deviation("above p = 8 the Reduce's survivors fail (the root is exiled, or a direct \
                        child of the root dies), so its series is time-to-fail, and the artifact has \
                        no survivor-error column: a survivor's error counts as zero (ROADMAP 1(a))")
            .factor(ratio(file, "1", "Reduce (2-nomial sum)", "Bcast (2-nomial)"), 5.0..12.0, None);
        c.claim("failures", "(extension) agreement dominates the recovery; re-execution is cheapest")
            .order(row(breakdown, "1", &["re-execute", "detect", "agree"]));
        c.claim("failures", "(extension) agreement time grows with every kill")
            .trend(col(breakdown, &KILLS, "agree"), Up);
    }

    c.claim("breakdown", "under one-to-all contention the lock share grows with the readers")
        .trend(col("fig2c-trace", &["1", "3", "7", "15", "27"], "lock"), Up);
    c.claim("breakdown", "uncontended time is copy; under heavy contention lock outweighs copy")
        .crossover("fig2c-trace", "lock", "copy", "15", "27");
}

/// Every claim, evaluated against the CSVs in `dir`.
fn check(dir: &Path) -> Checker {
    let mut c = Checker::new(dir);
    micro(&mut c);
    algos(&mut c);
    libs(&mut c);
    robustness(&mut c);
    c
}

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[test]
fn the_committed_results_show_every_claim() {
    let c = check(&results());
    assert!(
        c.failures.is_empty(),
        "{} of {} claims fail:\n{}",
        c.failures.len(),
        c.claims,
        c.failures.join("\n")
    );
    println!(
        "{} claims ({} deviations) over {} artifacts hold",
        c.claims,
        c.deviations,
        c.artifacts.len()
    );
}

#[test]
fn every_artifact_has_a_claim() {
    let c = check(&results());
    let registry: BTreeSet<&str> = kacc_bench::figs::registry()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let unclaimed: Vec<_> = registry.difference(&c.artifacts).collect();
    let unknown: Vec<_> = c.artifacts.difference(&registry).collect();
    assert!(
        unclaimed.is_empty(),
        "artifacts without a claim: {unclaimed:?}"
    );
    assert!(unknown.is_empty(), "claims on no artifact: {unknown:?}");
}

/// A copy of `results/` under the test scratch directory, with `edit`
/// applied to the lines of `file`.
fn edited_results(name: &str, file: &str, edit: impl FnOnce(&mut [Vec<String>])) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch directory");
    for entry in fs::read_dir(results()).expect("results directory is readable") {
        let path = entry.expect("results entry is readable").path();
        fs::copy(&path, dir.join(path.file_name().expect("a file name"))).expect("copy csv");
    }
    let path = dir.join(format!("{file}.csv"));
    let text = fs::read_to_string(&path).expect("csv is readable");
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split(',').map(str::to_owned).collect())
        .collect();
    edit(&mut lines);
    let out: Vec<String> = lines.iter().map(|l| l.join(",") + "\n").collect();
    fs::write(&path, out.concat()).expect("write csv");
    dir
}

fn column(lines: &[Vec<String>], name: &str) -> usize {
    lines[0]
        .iter()
        .position(|h| h == name)
        .expect("column exists")
}

#[test]
fn a_flipped_winner_fails_its_claim() {
    let dir = edited_results("claims-flipped", "fig7-knl", |lines| {
        let (t8, par) = (
            column(lines, "Throttle = 8"),
            column(lines, "Parallel Read"),
        );
        let big = lines.iter_mut().find(|l| l[0] == "4M").expect("4M row");
        big.swap(t8, par);
    });
    let c = check(&dir);
    let flipped = c
        .failures
        .iter()
        .find(|f| f.starts_with("FAIL fig7: order fig7-knl[4M|Throttle = 8]"))
        .unwrap_or_else(|| panic!("no failing claim names the flipped cell: {:#?}", c.failures));
    assert!(flipped.contains("a throttled design beats"), "{flipped}");
}

#[test]
fn a_renamed_column_fails_instead_of_skipping() {
    let dir = edited_results("claims-renamed", "fig7-knl", |lines| {
        let par = column(lines, "Parallel Read");
        lines[0][par] = "Parallel Reads".into();
    });
    let c = check(&dir);
    assert!(!c.failures.is_empty(), "a renamed column went unnoticed");
    assert!(
        c.failures
            .iter()
            .all(|f| f.contains("no column \"Parallel Read\"")),
        "{:#?}",
        c.failures
    );
}
