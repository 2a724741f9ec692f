//! Advisor candidate-sweep inference: recursive vs. the flat quantized
//! layout, per row, batched, and as a grid.
//!
//! Five inference strategies over the same fitted ensemble and the same
//! 465-row (31 node counts × 15 tiles) candidate grid the advisor sweeps
//! per question:
//!
//! * `recursive_per_row` — the naive path: `predict_one` per candidate,
//!   pointer-chasing `Node` enums for every tree.
//! * `recursive_batched` — `GradientBoosting::predict` over the matrix
//!   (per-tree recursion, batched outer loop).
//! * `flat_per_row` — `FlatGbt::predict_row` per candidate: iterative
//!   traversal over the contiguous node arrays.
//! * `flat_batched` — `FlatGbt::predict_batch` over the materialised
//!   matrix: tree-major, with the trees split over the worker pool for
//!   batches of 64 rows or more. `/v1/predict` batches take this path.
//! * `flat_grid` — `FlatGbt::predict_grid`: one descent per tree over
//!   rectangles of the (nodes, tile) axes, bit-identical to
//!   `flat_batched`. `Advisor::sweep`, and so every `/v1/advise` cache
//!   miss, takes this path.
//!
//! Plus an end-to-end group timing `Advisor::answer` (which now sweeps
//! once through whatever `Regressor` it wraps) with the recursive vs.
//! the flat model behind it.

use chemcost_core::advisor::{Advisor, Goal};
use chemcost_core::data::{MachineData, Target};
use chemcost_linalg::Matrix;
use chemcost_ml::flat::{FlatGbt, QUANT_REL_TOL};
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_sim::datagen::{node_candidates, tile_candidates};
use chemcost_sim::machine::aurora;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// The paper's deployed ensemble (750 estimators, depth 10) fitted on the
/// Aurora training split.
fn fitted_model() -> GradientBoosting {
    let md = MachineData::generate_sized(&aurora(), 1200, 42);
    let train = md.train_dataset(Target::Seconds);
    let mut gb = GradientBoosting::paper_config();
    gb.fit(&train.x, &train.y).unwrap();
    gb
}

/// The full (nodes, tile) candidate grid at a fixed water-cluster-sized
/// problem — the exact matrix `Advisor::sweep` builds.
fn candidate_matrix(o: usize, v: usize) -> Matrix {
    let mut x = Matrix::zeros(0, 4);
    for nodes in node_candidates() {
        for tile in tile_candidates() {
            x.push_row(&[o as f64, v as f64, nodes as f64, tile as f64]);
        }
    }
    x
}

fn bench_sweep_inference(c: &mut Criterion) {
    let gb = fitted_model();
    let flat = FlatGbt::compile(&gb);
    let x = candidate_matrix(116, 840);
    let n_rows = x.nrows();

    // Sanity before timing: the flat path must sit inside the documented
    // tolerance of the recursive model (the candidate grid is all small
    // integers, so routing is identical and only leaf rounding differs).
    let recursive = gb.predict(&x);
    for (q, e) in flat.predict_batch(&x).iter().zip(&recursive) {
        assert!((q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()));
    }

    // The grid descent must reproduce the batch bit for bit.
    let axis = |g: Vec<usize>| g.into_iter().map(|k| k as f64).collect::<Vec<f64>>();
    let (nodes, tiles) = (axis(node_candidates()), axis(tile_candidates()));
    let mut grid = Vec::new();
    flat.predict_grid(&[116.0, 840.0], &nodes, &tiles, &mut grid);
    assert_eq!(grid, flat.predict_batch(&x));

    let mut group = c.benchmark_group("advisor_sweep_inference");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n_rows as u64));
    group.bench_function("recursive_per_row", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..n_rows {
                acc += gb.predict_one(black_box(x.row(i)));
            }
            black_box(acc)
        })
    });
    group.bench_function("recursive_batched", |b| b.iter(|| black_box(gb.predict(black_box(&x)))));
    group.bench_function("flat_per_row", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..n_rows {
                acc += flat.predict_row(black_box(x.row(i)));
            }
            black_box(acc)
        })
    });
    group.bench_function("flat_batched", |b| {
        b.iter(|| black_box(flat.predict_batch(black_box(&x))))
    });
    group.bench_function("flat_grid", |b| {
        b.iter(|| {
            flat.predict_grid(black_box(&[116.0, 840.0]), &nodes, &tiles, &mut grid);
            black_box(&grid);
        })
    });
    group.finish();
}

fn bench_advisor_end_to_end(c: &mut Criterion) {
    let machine = aurora();
    let gb = fitted_model();
    let flat = FlatGbt::compile(&gb);
    let recursive_advisor = Advisor::new(&gb, machine.clone());
    let flat_advisor = Advisor::new(&flat, machine);

    // Same recommendation, or the comparison is meaningless. The flat
    // advisor runs the quantized path: the integer candidate grid routes
    // identically, so nodes/tile must match exactly and the predicted
    // seconds agree within the quantization tolerance.
    let r = recursive_advisor.answer(116, 840, Goal::ShortestTime).unwrap();
    let f = flat_advisor.answer(116, 840, Goal::ShortestTime).unwrap();
    assert_eq!((r.nodes, r.tile), (f.nodes, f.tile));
    assert!(
        (r.predicted_seconds - f.predicted_seconds).abs()
            <= QUANT_REL_TOL * (1.0 + r.predicted_seconds.abs())
    );

    let mut group = c.benchmark_group("advisor_answer_stq");
    group.sample_size(10);
    group.bench_function("recursive_model", |b| {
        b.iter(|| {
            black_box(recursive_advisor.answer(black_box(116), black_box(840), Goal::ShortestTime))
        })
    });
    group.bench_function("flat_model", |b| {
        b.iter(|| {
            black_box(flat_advisor.answer(black_box(116), black_box(840), Goal::ShortestTime))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_inference, bench_advisor_end_to_end);
criterion_main!(benches);
