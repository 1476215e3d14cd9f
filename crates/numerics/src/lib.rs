#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! From-scratch numerical routines for kacc.
//!
//! The paper determines its contention factor γ "using the nonlinear
//! least-squares (NLLS) algorithm" of Marquardt (Fig 5, \[22\]). This crate
//! provides everything that fitting pipeline needs without external
//! numerical dependencies:
//!
//! * [`matrix`] — small dense row-major matrices with LU decomposition,
//! * [`nlls`] — Levenberg–Marquardt with numeric or analytic Jacobians,
//! * [`stats`] — descriptive statistics used by the bench harness.

pub mod matrix;
pub mod nlls;
pub mod stats;

pub use matrix::Matrix;
pub use nlls::{levenberg_marquardt, LmOptions, LmReport, NllsError};
