//! Equivalence battery for flat (quantized, iterative, parallel)
//! inference against the recursive per-tree model, which is the
//! reference.
//!
//! * **Tolerance** — the quantized (`f32`) path must stay within
//!   [`QUANT_REL_TOL`] of the recursive model on `f32`-representable
//!   inputs (which the advisor's integer candidate grids always are):
//!   thresholds quantize toward −∞ so routing is preserved exactly, and
//!   the only error is one `f64 → f32` rounding per leaf value. NaN
//!   features fall right on both paths. Covered on proptest-generated
//!   models and on the 750-tree paper-config ensemble.
//! * **Bit identity within the quantized path** — single-row, batched
//!   and parallel (batches of at least 64 rows) calls return the same
//!   `f64` bits, asserted with `==`.

use chemcost_linalg::Matrix;
use chemcost_ml::flat::{FlatGbt, QUANT_REL_TOL};
use chemcost_ml::gradient_boosting::{GbLoss, GradientBoosting};
use chemcost_ml::Regressor;
use proptest::prelude::*;

/// Deterministic pseudo-random training corpus with a nonlinear target.
/// Feature values are snapped through `f32` so they are exactly
/// representable on the quantized path (routing then matches the
/// recursive model leaf-for-leaf; see the module docs in
/// `chemcost_ml::flat`).
fn corpus(n: usize, d: usize, salt: u64) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(n, d, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(j as u64)
            .wrapping_mul(1442695040888963407)
            .wrapping_add(salt);
        (((h >> 33) % 10_000) as f64 / 100.0) as f32 as f64
    });
    let y = (0..n)
        .map(|i| {
            let r = x.row(i);
            (r[0] * 0.11).sin() * 40.0 + r[1 % d] * 0.5 - (r[d - 1] * 0.07).cos() * 9.0
        })
        .collect();
    (x, y)
}

/// Fresh query rows the models never saw during fitting.
fn queries(n: usize, d: usize) -> Matrix {
    corpus(n, d, 0xBEEF).0
}

/// Quantized vs recursive within `QUANT_REL_TOL`.
fn assert_close(quantized: &[f64], recursive: &[f64], what: &str) {
    assert_eq!(quantized.len(), recursive.len(), "{what}: length mismatch");
    for (i, (q, e)) in quantized.iter().zip(recursive).enumerate() {
        assert!(
            (q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()),
            "{what} row {i}: quantized {q} vs recursive {e} outside QUANT_REL_TOL"
        );
    }
}

#[test]
fn gbt_equivalence_across_losses_and_controls() {
    let (x, y) = corpus(180, 3, 2);
    let mut q = queries(250, 3);
    // Missing features: NaN must fall right at every split on both paths.
    for i in (0..q.nrows()).step_by(9) {
        q[(i, i % 3)] = f64::NAN;
    }
    for j in 0..3 {
        q[(4, j)] = f64::NAN;
    }
    let configs: Vec<GradientBoosting> = vec![
        GradientBoosting::new(60, 3, 0.1),
        GradientBoosting::new(10, 1, 1.0),
        {
            let mut gb = GradientBoosting::new(50, 4, 0.2);
            gb.loss = GbLoss::AbsoluteError;
            gb
        },
        {
            let mut gb = GradientBoosting::new(50, 4, 0.2);
            gb.loss = GbLoss::Huber { alpha: 0.9 };
            gb
        },
        {
            let mut gb = GradientBoosting::new(80, 3, 0.3);
            gb.subsample = 0.6;
            gb.seed = 5;
            gb
        },
        {
            let mut gb = GradientBoosting::new(400, 3, 0.3);
            gb.n_iter_no_change = Some(5);
            gb.seed = 8;
            gb
        },
    ];
    for mut gb in configs {
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let batch = flat.predict_batch(&q);
        assert_close(&batch, &gb.predict(&q), &format!("loss {:?}", gb.loss));
        assert_close(&flat.predict_batch(&x), &gb.predict(&x), "gbt training rows");
        // Single-row calls are bit-identical to the (parallel) batch and
        // within tolerance of predict_one.
        for i in (0..q.nrows()).step_by(37).chain([4]) {
            assert_eq!(flat.predict_row(q.row(i)), batch[i]);
            assert_close(&[batch[i]], &[gb.predict_one(q.row(i))], "gbt single row");
        }
    }
}

#[test]
fn equivalence_on_advisor_style_sweep_inputs() {
    // The advisor's candidate matrices hold integer-valued (o, v, nodes,
    // tile) columns of very different magnitudes — exactly the inputs the
    // serving hot path sees. Integers are f32-representable, so the
    // quantized path routes identically to the recursive model here.
    let (x, y) = corpus(220, 4, 3);
    // Rescale features into (o, v, nodes, tile)-like ranges.
    let x = Matrix::from_fn(x.nrows(), 4, |i, j| match j {
        0 => (40.0 + x[(i, 0)] * 3.0).round(),
        1 => (260.0 + x[(i, 1)] * 13.0).round(),
        2 => (5.0 + x[(i, 2)] * 9.0).round(),
        _ => (40.0 + x[(i, 3)]).round(),
    });
    let mut gb = GradientBoosting::new(120, 6, 0.1);
    gb.seed = 42;
    gb.fit(&x, &y).unwrap();

    // A dense (nodes, tile) grid at fixed (o, v) — the sweep shape.
    let nodes_grid: Vec<f64> = vec![5.0, 10.0, 20.0, 35.0, 50.0, 80.0, 120.0, 200.0, 400.0, 900.0];
    let tiles_grid: Vec<f64> = (4..=18).map(|k| (k * 10) as f64).collect();
    let mut sweep = Matrix::zeros(0, 4);
    for &n in &nodes_grid {
        for &t in &tiles_grid {
            sweep.push_row(&[116.0, 840.0, n, t]);
        }
    }
    let flat = FlatGbt::compile(&gb);
    assert_close(&flat.predict_batch(&sweep), &gb.predict(&sweep), "gbt sweep");
}

#[test]
fn paper_config_model_within_tolerance() {
    // The deployed shape: the 750-estimator paper-config ensemble. The
    // quantized serving path must stay inside QUANT_REL_TOL of the
    // recursive model across a full advisor-style sweep.
    let (x, y) = corpus(400, 4, 7);
    let x = Matrix::from_fn(x.nrows(), 4, |i, j| match j {
        0 => (40.0 + x[(i, 0)] * 3.0).round(),
        1 => (260.0 + x[(i, 1)] * 13.0).round(),
        2 => (5.0 + x[(i, 2)] * 9.0).round(),
        _ => (40.0 + x[(i, 3)]).round(),
    });
    let mut gb = GradientBoosting::paper_config();
    gb.seed = 42;
    gb.fit(&x, &y).unwrap();
    let flat = FlatGbt::compile(&gb);
    assert_eq!(flat.n_trees(), gb.n_stages());

    let mut sweep = Matrix::zeros(0, 4);
    for nodes in [5.0, 10.0, 20.0, 50.0, 120.0, 400.0, 900.0] {
        for k in 4..=18 {
            sweep.push_row(&[116.0, 840.0, nodes, (k * 10) as f64]);
        }
    }
    assert_close(&flat.predict_batch(&sweep), &gb.predict(&sweep), "paper-config quantized");
    // Row path and batch path are bit-identical within the quantized path.
    let batch = flat.predict_batch(&sweep);
    for (i, &b) in batch.iter().enumerate() {
        assert_eq!(flat.predict_row(sweep.row(i)), b);
    }
}

#[test]
fn compiled_model_survives_persistence_round_trip() {
    // serve loads models from disk via export/from_export; the flat
    // compilation of a round-tripped model must equal the original's.
    let (x, y) = corpus(100, 4, 4);
    let mut gb = GradientBoosting::new(30, 5, 0.1);
    gb.fit(&x, &y).unwrap();
    let (init, lr, d, trees) = gb.export();
    let restored = GradientBoosting::from_export(init, lr, d, &trees);
    let q = queries(120, 4);
    assert_close(&FlatGbt::compile(&restored).predict_batch(&q), &gb.predict(&q), "restored");
    // The quantized layouts of original and round-tripped models must
    // agree bit-for-bit (same nodes in, same quantization out).
    assert_eq!(
        FlatGbt::compile(&restored).predict_batch(&q),
        FlatGbt::compile(&gb).predict_batch(&q)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized shapes and hyper-parameters: quantized flat within
    /// QUANT_REL_TOL of the recursive model, always.
    #[test]
    fn prop_flat_matches_recursive(
        n in 20usize..120,
        d in 1usize..6,
        n_estimators in 1usize..30,
        max_depth in 1usize..8,
        seed in 0u64..1000,
    ) {
        let (x, y) = corpus(n, d, seed);
        let q = queries(150, d);

        let mut gb = GradientBoosting::new(n_estimators, max_depth, 0.15);
        gb.seed = seed;
        gb.fit(&x, &y).unwrap();
        let flat_gb = FlatGbt::compile(&gb);
        for (i, (qv, e)) in flat_gb.predict_batch(&q).iter().zip(gb.predict(&q)).enumerate() {
            prop_assert!(
                (qv - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()),
                "gbt row {} quantized {} vs recursive {}", i, qv, e
            );
        }
    }
}
