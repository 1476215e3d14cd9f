//! Parameter extraction via step-isolating CMA probes (Table III).
//!
//! The paper measures α, β and l by invoking `process_vm_readv` with
//! degenerate iovec counts so individual kernel steps can be timed:
//!
//! | Operation | Time | Buffer | liovcnt | riovcnt |
//! |---|---|---|---|---|
//! | System call | T₁ | 0 B | 0 | 0 |
//! | Access check | T₂ | 1 B | 0 | 1 B |
//! | Lock+Pin | T₃ | N pages | 0 | N pages |
//! | Copy data | T₄ | N pages | N pages | N pages |
//!
//! with `α = T₂`, `l = (T₃ − T₂)/N`, `β = (T₄ − T₃)/(N·s)`. γ is then
//! recovered by repeating the Lock+Pin probe under concurrency (Fig 5).
//!
//! The probes themselves are transport-specific; this module defines the
//! [`CmaProbe`] interface and the extraction/fitting logic, and
//! `kacc-machine` (simulated) / `kacc-native` (real syscalls) provide the
//! probes.

use crate::gamma::GammaPoint;

/// One probe configuration: `readers` concurrent `process_vm_readv`-like
/// calls against a single source process, each with the given iovec
/// byte totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Total bytes described by the *local* iovec (0 ⇒ no copy happens).
    pub local_bytes: usize,
    /// Total bytes described by the *remote* iovec (0 ⇒ no access check
    /// or pinning happens).
    pub remote_bytes: usize,
    /// Number of concurrent readers issuing the identical call.
    pub readers: usize,
}

impl ProbeSpec {
    /// Table III row 1: syscall cost only.
    pub fn syscall() -> ProbeSpec {
        ProbeSpec {
            local_bytes: 0,
            remote_bytes: 0,
            readers: 1,
        }
    }

    /// Table III row 2: syscall + access check (+1 page pin).
    pub fn access_check() -> ProbeSpec {
        ProbeSpec {
            local_bytes: 0,
            remote_bytes: 1,
            readers: 1,
        }
    }

    /// Table III row 3: syscall + check + lock/pin of `n` pages.
    pub fn lock_pin(n_pages: usize, page_size: usize, readers: usize) -> ProbeSpec {
        ProbeSpec {
            local_bytes: 0,
            remote_bytes: n_pages * page_size,
            readers,
        }
    }

    /// Table III row 4: full transfer of `n` pages.
    pub fn full(n_pages: usize, page_size: usize, readers: usize) -> ProbeSpec {
        let bytes = n_pages * page_size;
        ProbeSpec {
            local_bytes: bytes,
            remote_bytes: bytes,
            readers,
        }
    }
}

/// Something that can execute a probe and report the mean per-call
/// latency in nanoseconds.
pub trait CmaProbe {
    /// Page size of the machine behind this probe.
    fn page_size(&self) -> usize;
    /// Run the probe, returning mean per-call latency (ns) across the
    /// concurrent readers.
    fn probe(&mut self, spec: ProbeSpec) -> f64;
}

/// The measured step times (Table III) and derived parameters.
#[derive(Debug, Clone)]
pub struct ExtractedParams {
    /// T₁: syscall.
    pub t1_ns: f64,
    /// T₂: + access check.
    pub t2_ns: f64,
    /// T₃(N): + lock/pin of `n_pages` pages.
    pub t3_ns: f64,
    /// T₄(N): + copy of `n_pages` pages.
    pub t4_ns: f64,
    /// Page count used for T₃/T₄.
    pub n_pages: usize,
    /// α = T₂.
    pub alpha_ns: f64,
    /// l = (T₃ − T₂) / N.
    pub l_ns: f64,
    /// β = (T₄ − T₃) / (N·s), ns per byte.
    pub beta_ns_per_byte: f64,
}

impl ExtractedParams {
    /// Bandwidth in GB/s implied by β (for Table IV display).
    pub fn bandwidth_gbps(&self) -> f64 {
        1.0 / self.beta_ns_per_byte
    }
}

/// Run the Table III protocol with `n_pages` pages (the paper varies N;
/// one large N suffices once T₃/T₄ are linear in N).
pub fn extract_params(probe: &mut dyn CmaProbe, n_pages: usize) -> ExtractedParams {
    assert!(n_pages >= 1);
    let s = probe.page_size();
    let t1 = probe.probe(ProbeSpec::syscall());
    let t2 = probe.probe(ProbeSpec::access_check());
    let t3 = probe.probe(ProbeSpec::lock_pin(n_pages, s, 1));
    let t4 = probe.probe(ProbeSpec::full(n_pages, s, 1));
    // The paper notes T₄ ≥ T₃ ≥ T₂ ≥ T₁ because each row includes the
    // previous steps. T₂ also pins one page, which we subtract when
    // deriving l from the difference.
    ExtractedParams {
        t1_ns: t1,
        t2_ns: t2,
        t3_ns: t3,
        t4_ns: t4,
        n_pages,
        alpha_ns: t2,
        l_ns: (t3 - t2) / n_pages as f64,
        beta_ns_per_byte: (t4 - t3) / (n_pages * s) as f64,
    }
}

/// Measure γ(c): for each concurrency in `readers`, run the Lock+Pin
/// probe at each page count in `page_counts` and average the inflation
/// relative to the single-reader run (Fig 5 plots the per-page-count
/// curves plus their average).
pub fn measure_gamma(
    probe: &mut dyn CmaProbe,
    readers: &[usize],
    page_counts: &[usize],
) -> Vec<GammaPoint> {
    let s = probe.page_size();
    let mut out = Vec::with_capacity(readers.len());
    for &c in readers {
        let mut acc = 0.0;
        for &n in page_counts {
            let base = probe.probe(ProbeSpec::lock_pin(n, s, 1));
            let contended = probe.probe(ProbeSpec::lock_pin(n, s, c));
            // Remove the non-lock part (syscall + check) before forming
            // the ratio, so γ reflects the lock/pin step alone.
            let check = probe.probe(ProbeSpec::access_check());
            let lock_base = (base - check).max(1e-9);
            let lock_cont = (contended - check).max(1e-9);
            acc += lock_cont / lock_base;
        }
        out.push(GammaPoint {
            c,
            gamma: acc / page_counts.len() as f64,
        });
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::gamma::fit_gamma;

    /// A synthetic probe that follows the analytic model exactly —
    /// verifies the extraction algebra is self-consistent.
    struct AnalyticProbe {
        alpha_syscall: f64,
        alpha_check: f64,
        l: f64,
        beta: f64,
        page: usize,
        gamma_a: f64,
        gamma_b: f64,
    }

    impl CmaProbe for AnalyticProbe {
        fn page_size(&self) -> usize {
            self.page
        }
        fn probe(&mut self, spec: ProbeSpec) -> f64 {
            let mut t = self.alpha_syscall;
            if spec.remote_bytes > 0 {
                t += self.alpha_check;
                let pages = spec.remote_bytes.div_ceil(self.page) as f64;
                let c = spec.readers as f64;
                let gamma = if spec.readers <= 1 {
                    1.0
                } else {
                    self.gamma_a * c * c + self.gamma_b * c
                };
                t += self.l * gamma * pages;
                let copied = spec.local_bytes.min(spec.remote_bytes);
                t += copied as f64 * self.beta;
            }
            t
        }
    }

    fn probe() -> AnalyticProbe {
        AnalyticProbe {
            alpha_syscall: 900.0,
            alpha_check: 530.0,
            l: 250.0,
            beta: 0.304,
            page: 4096,
            gamma_a: 0.1,
            gamma_b: 1.6,
        }
    }

    #[test]
    fn extraction_recovers_analytic_parameters() {
        let mut p = probe();
        let ex = extract_params(&mut p, 200);
        // α = T₂ = syscall + check + one page of lock (the 1-byte remote
        // iovec pins a page); the paper accepts this approximation, and
        // with N = 200 pages the l estimate is unbiased:
        assert!((ex.l_ns - 250.0).abs() / 250.0 < 0.01, "l = {}", ex.l_ns);
        assert!((ex.beta_ns_per_byte - 0.304).abs() < 1e-6);
        assert!(ex.alpha_ns >= 1430.0, "alpha includes both fixed costs");
        assert!(ex.t4_ns >= ex.t3_ns && ex.t3_ns >= ex.t2_ns && ex.t2_ns >= ex.t1_ns);
    }

    #[test]
    fn gamma_measurement_matches_injected_curve() {
        let mut p = probe();
        let points = measure_gamma(&mut p, &[2, 4, 8, 16, 32], &[10, 50, 100]);
        for pt in &points {
            let c = pt.c as f64;
            let expect = 0.1 * c * c + 1.6 * c;
            // The 1-byte check probe also pins one page, so tolerate a
            // small bias at low page counts.
            assert!(
                (pt.gamma - expect).abs() / expect < 0.15,
                "c={} gamma={} expect={}",
                pt.c,
                pt.gamma,
                expect
            );
        }
        let fit = fit_gamma(&points).unwrap();
        match fit.model {
            crate::gamma::GammaModel::Quadratic { a, b } => {
                assert!((a - 0.1).abs() < 0.05, "a={a}");
                assert!((b - 1.6).abs() < 0.8, "b={b}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn probe_spec_constructors_match_table_iii() {
        let s = ProbeSpec::syscall();
        assert_eq!((s.local_bytes, s.remote_bytes), (0, 0));
        let a = ProbeSpec::access_check();
        assert_eq!((a.local_bytes, a.remote_bytes), (0, 1));
        let l = ProbeSpec::lock_pin(10, 4096, 4);
        assert_eq!(l.remote_bytes, 40960);
        assert_eq!(l.local_bytes, 0);
        assert_eq!(l.readers, 4);
        let f = ProbeSpec::full(10, 4096, 1);
        assert_eq!(f.local_bytes, f.remote_bytes);
    }
}
