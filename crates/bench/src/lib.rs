#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation from the simulator (plus the Fig 1 motivation data from a
//! synthetic workload trace).
//!
//! Each `figs::figNN` / `figs::tableN` function returns [`render::Chart`]
//! values; the `repro` binary prints them as aligned text tables and
//! optional CSV, and `bench-regress` gates the quick-mode run's event
//! counts and metrics against `BENCH_BASELINE.json`. Wall-clock cost
//! per layer is the benchmark's (`benchmark/`), not this crate's.
//!
//! See `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes.

pub mod figs;
pub mod measure;
pub mod nullcomm;
pub mod par;
pub mod render;
pub mod tracedemo;
pub mod workload;

pub use kacc_trace::minijson;
pub use render::Chart;

/// The standard message-size sweep used by most figures (1 KiB – 4 MiB,
/// matching the paper's x-axes).
pub fn size_sweep() -> Vec<usize> {
    vec![
        1 << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
    ]
}

/// A shorter sweep for the heavyweight experiments (alltoall moves
/// p²·η bytes).
pub fn size_sweep_short() -> Vec<usize> {
    vec![1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10]
}

/// Human size label ("64K", "1M").
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(1 << 10), "1K");
        assert_eq!(size_label(4 << 20), "4M");
        assert_eq!(size_label(1000), "1000");
        assert_eq!(size_label(256 << 10), "256K");
    }

    #[test]
    fn sweeps_are_sorted_and_nonempty() {
        let s = size_sweep();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(size_sweep_short().len() < s.len());
    }
}
