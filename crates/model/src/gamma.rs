//! Contention-factor models γ(c) and the Fig 5 fitting pipeline.
//!
//! γ(c) is the factor by which the per-page lock+pin time inflates when
//! `c` readers (or writers) concurrently target the same source process.
//! γ(1) = 1 by definition. The paper observes (Fig 5) that γ is
//! independent of the page count, super-linear in `c`, and jumps once the
//! reader set spans sockets; it fits γ with nonlinear least squares.

use kacc_numerics::nlls::{levenberg_marquardt, LmOptions, NllsError};

/// A γ(c) model.
#[derive(Debug, Clone, PartialEq)]
pub enum GammaModel {
    /// No contention: γ(c) = 1 for all c. Useful as an ablation.
    Unit,
    /// Quadratic fit γ(c) = a·c² + b·c (+ (1−a−b) so γ(1)=1), the
    /// functional form the paper's Table IV reports.
    Quadratic {
        /// Quadratic coefficient.
        a: f64,
        /// Linear coefficient.
        b: f64,
    },
    /// The closed form implied by the machine simulator's round-robin
    /// page-lock server with cache-line-bounce handoff costs; see
    /// `ArchProfile::mechanistic_gamma`.
    Mechanistic {
        /// Handoff inflation per extra waiter.
        k_bounce: f64,
        /// Extra multiplier once the waiter set spans sockets.
        x_socket: f64,
        /// Reader count at which the set starts spanning sockets (the
        /// first socket's core count under the default mapping).
        socket_knee: usize,
        /// Fraction of the per-page time that is lock (vs pin) and thus
        /// subject to contention.
        lock_weight: f64,
    },
}

impl GammaModel {
    /// Evaluate γ(c). `c` is the number of concurrent readers/writers;
    /// values below 1 are clamped to 1.
    pub fn eval(&self, c: usize) -> f64 {
        let c = c.max(1);
        match *self {
            GammaModel::Unit => 1.0,
            GammaModel::Quadratic { a, b } => {
                let cf = c as f64;
                // Anchor γ(1)=1 exactly: add the residual constant.
                a * cf * cf + b * cf + (1.0 - a - b)
            }
            GammaModel::Mechanistic {
                k_bounce,
                x_socket,
                socket_knee,
                lock_weight,
            } => {
                let cf = c as f64;
                let xs = if c > socket_knee { x_socket } else { 1.0 };
                // Round-robin grant service: each reader's page completes
                // every c grants, and the grant itself (lock handoff +
                // pin, both under the lock like get_user_pages) is
                // inflated by the cache-line bounce on its lock share:
                // γ(c) = c · (1 + w·k_bounce·(c−1)·xs).
                cf * (1.0 + lock_weight * k_bounce * (cf - 1.0) * xs)
            }
        }
    }

    /// γ over a range of concurrencies (convenience for plotting).
    pub fn curve(&self, cs: &[usize]) -> Vec<f64> {
        cs.iter().map(|&c| self.eval(c)).collect()
    }
}

/// One γ observation: `c` concurrent readers produced an observed
/// inflation `gamma` (possibly averaged over several page counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaPoint {
    /// Concurrency.
    pub c: usize,
    /// Observed γ.
    pub gamma: f64,
}

/// Result of fitting γ(c) = a·c² + b·c to observations (Fig 5's
/// "Best Fit" line).
#[derive(Debug, Clone)]
pub struct GammaFit {
    /// Fitted model.
    pub model: GammaModel,
    /// Sum of squared residuals.
    pub ssr: f64,
    /// Iterations the NLLS solver used.
    pub iterations: usize,
}

/// Fit the paper's quadratic form with Levenberg–Marquardt.
pub fn fit_gamma(points: &[GammaPoint]) -> Result<GammaFit, NllsError> {
    let xs: Vec<f64> = points.iter().map(|p| p.c as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.gamma).collect();
    let model = |c: f64, p: &[f64]| p[0] * c * c + p[1] * c;
    let report = levenberg_marquardt(model, &xs, &ys, &[0.01, 1.0], LmOptions::default())?;
    Ok(GammaFit {
        model: GammaModel::Quadratic {
            a: report.params[0],
            b: report.params[1],
        },
        ssr: report.ssr,
        iterations: report.iterations,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn unit_gamma_is_one_everywhere() {
        for c in [1, 2, 17, 160] {
            assert_eq!(GammaModel::Unit.eval(c), 1.0);
        }
    }

    #[test]
    fn quadratic_anchors_gamma_one() {
        let g = GammaModel::Quadratic { a: 0.1, b: 1.6 };
        assert!((g.eval(1) - 1.0).abs() < 1e-12);
        assert!(g.eval(0) == g.eval(1), "clamped below 1");
    }

    #[test]
    fn mechanistic_is_superlinear_and_kneed() {
        let g = GammaModel::Mechanistic {
            k_bounce: 0.05,
            x_socket: 3.0,
            socket_knee: 14,
            lock_weight: 0.6,
        };
        // Super-linear: γ(2c) > 2 γ(c) once contention dominates.
        assert!(g.eval(64) > 2.0 * g.eval(32) * 0.9);
        // Knee: crossing the socket boundary inflates the slope.
        let before = g.eval(14) / g.eval(13);
        let after = g.eval(15) / g.eval(14);
        assert!(
            after > before,
            "inter-socket knee missing: {before} vs {after}"
        );
        // Monotone.
        for c in 1..100 {
            assert!(g.eval(c + 1) >= g.eval(c));
        }
    }

    #[test]
    fn fit_recovers_synthetic_quadratic() {
        let truth = |c: f64| 0.1 * c * c + 1.6 * c;
        let points: Vec<GammaPoint> = (1..=64)
            .map(|c| GammaPoint {
                c,
                gamma: truth(c as f64),
            })
            .collect();
        let fit = fit_gamma(&points).unwrap();
        match fit.model {
            GammaModel::Quadratic { a, b } => {
                assert!((a - 0.1).abs() < 1e-6);
                assert!((b - 1.6).abs() < 1e-5);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn fit_tracks_mechanistic_curve_reasonably() {
        // The quadratic should approximate the mechanistic curve well on
        // a single-socket machine (pure quadratic growth).
        let mech = GammaModel::Mechanistic {
            k_bounce: 0.11,
            x_socket: 1.0,
            socket_knee: 68,
            lock_weight: 0.6,
        };
        let points: Vec<GammaPoint> = (1..=64)
            .map(|c| GammaPoint {
                c,
                gamma: mech.eval(c),
            })
            .collect();
        let fit = fit_gamma(&points).unwrap();
        for c in [2usize, 8, 32, 64] {
            let err = (fit.model.eval(c) - mech.eval(c)).abs() / mech.eval(c);
            assert!(err < 0.05, "relative error {err} at c={c}");
        }
    }
}
