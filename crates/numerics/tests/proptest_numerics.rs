//! Property-based tests for the numerics substrate.

use kacc_numerics::nlls::{levenberg_marquardt, LmOptions};
use kacc_numerics::Matrix;
use proptest::prelude::*;

fn well_conditioned_matrix(n: usize, vals: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = vals[i * n + j];
        }
        // Diagonal dominance keeps the system solvable.
        m[(i, i)] += n as f64;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn lu_solve_reconstructs_rhs(
        n in 1usize..7,
        vals in proptest::collection::vec(-1.0f64..1.0, 49),
        seed in proptest::collection::vec(-10.0f64..10.0, 7),
    ) {
        let a = well_conditioned_matrix(n, &vals);
        let b = Matrix::col_vec(&seed[..n]);
        let x = a.solve(&b).expect("diagonally dominant systems solve");
        let residual = a.matmul(&x).add_scaled(&b, -1.0);
        prop_assert!(residual.max_abs() < 1e-8, "residual {}", residual.max_abs());
    }

    #[test]
    fn transpose_is_involutive(rows in 1usize..6, cols in 1usize..6, fill in -100.0f64..100.0) {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = fill * (i as f64 + 1.0) / (j as f64 + 1.0);
            }
        }
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn nlls_recovers_gamma_quadratics_under_noise(
        a in 0.01f64..0.5,
        b in 0.1f64..3.0,
        noise in 0.0f64..0.02,
    ) {
        let model = |c: f64, p: &[f64]| p[0] * c * c + p[1] * c;
        let cs: Vec<f64> = (1..=64).map(|c| c as f64).collect();
        let ys: Vec<f64> = cs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let wobble = if i % 2 == 0 { 1.0 + noise } else { 1.0 - noise };
                (a * c * c + b * c) * wobble
            })
            .collect();
        let fit = levenberg_marquardt(model, &cs, &ys, &[1.0, 1.0], LmOptions::default())
            .expect("fit converges");
        prop_assert!((fit.params[0] - a).abs() < 10.0 * noise * a + 1e-6,
            "a {} vs {a}", fit.params[0]);
        prop_assert!((fit.params[1] - b).abs() < 50.0 * noise * b + 1e-4,
            "b {} vs {b}", fit.params[1]);
    }
}
