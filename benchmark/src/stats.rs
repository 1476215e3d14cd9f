//! Order statistics, the pass digest and the seeded generator. Pure
//! functions: nothing here touches the repository's crates.

/// Sorted copy (NaN-free inputs; `total_cmp` keeps it total anyway).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an already sorted slice, `q` in [0, 1].
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; 0 for an empty slice (a metric with no samples on this
/// workload prints 0).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(xs), 0.5)
}

/// The fastest observed time, in ns, of each of a fixed list of repeated
/// components (the points of a pass, the calls of a native pass, the
/// parts of set-up). Host-time metrics are sums over this list: what the
/// whole takes when no part of it is disturbed.
///
/// The box is a shared VM whose slow-downs come in bursts shorter than a
/// pass. Over six 8-second runs of `one_to_all`, taken while it was
/// being disturbed, the median pass read 0.436–0.600 s, the fastest pass
/// 0.429–0.497 s and the sum of per-point minima 0.421–0.447 s.
#[derive(Default)]
pub struct Fastest(Vec<u64>);

impl Fastest {
    pub fn see(&mut self, component: usize, ns: u64) {
        if component >= self.0.len() {
            self.0.resize(component + 1, u64::MAX);
        }
        let best = &mut self.0[component];
        *best = (*best).min(ns);
    }

    /// Sum over the components, in seconds.
    pub fn sum_s(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64 / 1e9
    }

    /// Geometric mean over the components, in µs.
    pub fn geomean_us(&self) -> f64 {
        let us: Vec<f64> = self.0.iter().map(|&ns| ns.max(1) as f64 / 1e3).collect();
        geomean(&us)
    }
}

/// Distance between the third and first quartile; 0 below two samples.
pub fn iqr(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let v = sorted(xs);
    quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25)
}

/// The `p`-th percentile if at least ten samples lie beyond it, else 0.
pub fn percentile_if_supported(xs: &[f64], p: f64) -> f64 {
    if (xs.len() as f64 * (1.0 - p / 100.0)).floor() >= 10.0 {
        quantile_sorted(&sorted(xs), p / 100.0)
    } else {
        0.0
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// 64-bit FNV-1a over the virtual nanoseconds of a pass, taken in point
/// *id* order so the shuffled execution order does not change it; the low
/// 52 bits survive the trip through a JSON double exactly.
pub fn virtual_digest(virtual_ns_by_id: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in virtual_ns_by_id {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h & ((1 << 52) - 1)
}

/// SplitMix64: the benchmark's only source of randomness, so a seed maps
/// to the same inputs on every toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0). Modulo bias is irrelevant at these n.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `eta` moved by up to ±1/128 in 64-byte steps: every seed gives its
    /// own sizes (so no two seeds print the same virtual time) while the
    /// work stays within a per cent of the nominal point. Sizes below
    /// 8 KiB do not move.
    pub fn jitter(&mut self, eta: usize) -> usize {
        let steps = (eta / 128 / 64) as u64;
        let off = self.below(2 * steps + 1) as i64 - steps as i64;
        (eta as i64 + off * 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_iqr() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Quartiles of 1..=5 by linear interpolation are 2 and 4.
        assert_eq!(iqr(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(iqr(&[7.0]), 0.0);
        let mut f = Fastest::default();
        for (i, ns) in [(0, 4_000), (1, 9_000), (0, 1_000), (1, 16_000)] {
            f.see(i, ns);
        }
        assert_eq!(f.sum_s(), 10_000.0 / 1e9);
        assert!((f.geomean_us() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(percentile_if_supported(&xs[..999], 99.0), 0.0);
        let p99 = percentile_if_supported(&xs[..1000], 99.0);
        assert!((989.0..=990.0).contains(&p99), "{p99}");
        assert_eq!(percentile_if_supported(&xs[..100], 95.0), 0.0);
        assert!(percentile_if_supported(&xs[..200], 95.0) > 0.0);
    }

    #[test]
    fn digest_is_order_sensitive_and_52_bit() {
        let a = virtual_digest(&[1, 2, 3]);
        assert_eq!(a, virtual_digest(&[1, 2, 3]));
        assert_ne!(a, virtual_digest(&[3, 2, 1]));
        assert!(a < 1 << 52);
        assert_eq!(a as f64 as u64, a);
    }

    #[test]
    fn rng_repeats_and_jitter_stays_close() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut xs: Vec<u32> = (0..50).collect();
        a.shuffle(&mut xs);
        let mut ys: Vec<u32> = (0..50).collect();
        b.shuffle(&mut ys);
        assert_eq!(xs, ys);
        xs.sort_unstable();
        assert_eq!(xs, (0..50).collect::<Vec<_>>());
        for eta in [4 << 10, 64 << 10, 1 << 20] {
            let moved: Vec<usize> = (0..100).map(|_| a.jitter(eta)).collect();
            assert!(moved
                .iter()
                .all(|j| j % 64 == 0 && j.abs_diff(eta) <= eta / 128));
            assert_eq!(moved.iter().any(|&j| j != eta), eta >= 8 << 10);
        }
    }
}
