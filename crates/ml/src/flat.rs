//! Flat tree-ensemble inference — the serving hot path.
//!
//! Fitted [`DecisionTree`](crate::tree::DecisionTree)s store `enum` nodes
//! in per-tree arenas; walking them means matching an enum and chasing
//! per-tree allocations for every row × tree. That is fine for
//! training-time evaluation but wasteful on the advisor's query path,
//! where one `/v1/advise` request sweeps hundreds of candidate
//! configurations through an ensemble of hundreds of trees.
//!
//! [`FlatGbt::compile`] turns a fitted [`GradientBoosting`] ensemble into
//! one quantized layout (`QNodes`): 16-byte array-of-structs nodes (`f32`
//! threshold, feature, two child indices) plus a separate `f32`
//! leaf-value array, trees concatenated and addressed by root offset.
//! Rows are converted to `f32` once per batch, and leaves are stored as
//! ordinary self-loop nodes so the 8-lane interleaved stepper needs no
//! leaf test at all: it runs a fixed, per-tree-depth count of uniform
//! load→compare→select steps (bounds checks hoisted to one-time
//! compile-side validation), giving the core eight independent
//! dependent-load chains to overlap while a deep ensemble streams
//! through cache.
//!
//! The recursive [`GradientBoosting::predict`] is the reference this
//! layout is tested against.
//!
//! # Quantization contract
//!
//! Thresholds quantize **toward −∞** (the largest `f32` ≤ the exact `f64`
//! threshold). For any `f32` value `x` this preserves routing exactly:
//! `x ≤ t ⟺ x ≤ quantize(t)`, because an `f32` strictly above the
//! quantized threshold cannot lie at or below the exact one. The
//! comparison is written `!(x <= t)`, so a NaN feature value falls right,
//! exactly as in the recursive tree. Feature values are rounded to
//! nearest `f32` once per batch, so for inputs that are exactly
//! representable in `f32` — including the advisor's whole candidate grid
//! of small-integer node/tile/O/V counts — the quantized path visits the
//! *same leaves* as the recursive model and differs only by `f32`
//! rounding of the leaf values themselves (one rounding of ≤ 2⁻²⁴
//! relative per tree, accumulated in `f64`). That error is bounded well
//! inside [`QUANT_REL_TOL`], which the tolerance battery in
//! `tests/flat_equivalence.rs` asserts on proptest-generated models and on
//! the 750-tree paper-config ensemble. For inputs *not* representable in
//! `f32`, the quantized path computes an exact evaluation of the nearest-
//! `f32` perturbation of the input (a backward-error statement): relative
//! input perturbation ≤ 2⁻²⁴, which only matters for rows engineered to
//! sit within one `f32` ulp of a split threshold.
//!
//! Batched, blocked-parallel and single-row evaluation are bit-for-bit
//! identical to each other (same comparison, same `f64` accumulation
//! order over trees), so serve-side batching equivalence tests keep
//! asserting with `==`.
//!
//! Evaluation is **tree-major** everywhere (trees outer, rows inner): a
//! deep ensemble's node arrays are far larger than cache, so walking one
//! tree across all rows before moving to the next keeps its hot nodes
//! resident instead of re-streaming the whole ensemble per row. Large
//! batches additionally parallelise over *trees* — each worker fills leaf
//! values for its run of trees, streamed once in total, and a serial pass
//! reduces each row's leaves in tree order so results are independent of
//! worker count.

use crate::gradient_boosting::GradientBoosting;
use crate::traits::{FitError, Regressor};
use crate::tree::FlatNode;
use chemcost_linalg::{parallel, Matrix};
use std::cell::RefCell;

/// Sentinel feature index marking a leaf (same encoding as [`FlatNode`]).
const LEAF: u32 = u32::MAX;

/// Below this many rows a batch is predicted serially: spawning scoped
/// threads costs more than walking a few hundred trees for a handful of
/// rows.
const PAR_MIN_ROWS: usize = 64;

/// Rows per block in the parallel batch path; bounds the transient
/// per-tree leaf buffer (`n_trees × ROW_BLOCK × 4` bytes).
const ROW_BLOCK: usize = 1024;

/// Documented relative-error bound of the quantized path against the
/// recursive `f64` model, for feature values representable in `f32`.
///
/// The per-tree error is one `f64 → f32` rounding of the leaf value
/// (≤ 2⁻²⁴ ≈ 6 × 10⁻⁸ relative); accumulation happens in `f64`, so the
/// ensemble error stays far below this bound. The tolerance battery in
/// `tests/flat_equivalence.rs` and the in-bench sanity checks assert
/// `|quantized − recursive| ≤ QUANT_REL_TOL · (1 + |recursive|)`.
pub const QUANT_REL_TOL: f64 = 1e-5;

/// Largest `f32` less than or equal to `t` (round toward −∞), so that for
/// every `f32` value `x`: `x ≤ t ⟺ x ≤ quantize_threshold(t)`.
fn quantize_threshold(t: f64) -> f32 {
    let q = t as f32; // round to nearest
    if q as f64 <= t {
        q
    } else {
        q.next_down()
    }
}

/// Number of split steps on the longest root-to-leaf path of `tree` (0
/// for a lone leaf). Children follow their parent in export order
/// (checked by the caller), so one backward pass has seen both
/// children's heights before it reaches their parent.
fn tree_depth(tree: &[FlatNode]) -> u32 {
    let mut height = vec![0u32; tree.len()];
    for (i, n) in tree.iter().enumerate().rev() {
        if n.feature != LEAF {
            height[i] = 1 + height[n.left as usize].max(height[n.right as usize]);
        }
    }
    height[0]
}

/// One quantized tree node: 16 bytes, a single predictable stream for the
/// traversal loop (threshold, feature and both children land on one cache
/// line together instead of three separate array streams).
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct QNode {
    threshold: f32,
    feature: u32,
    children: [u32; 2],
}

/// The quantized ensemble: array-of-structs nodes plus a separate leaf
/// value array (leaf values are only touched once per row × tree, at the
/// end of a descent — keeping them out of [`QNode`] keeps the hot
/// traversal stream dense).
///
/// Quantized leaves are stored as *ordinary* nodes that compare feature 0
/// against `+∞` and route to themselves, so the traversal loop needs no
/// leaf test at all: it steps every lane exactly [`QNodes::depth`] times
/// (the tree's longest root-to-leaf path) and lands on a leaf by
/// construction, with finished rows self-looping harmlessly.
#[derive(Debug, Clone)]
struct QNodes {
    nodes: Vec<QNode>,
    value: Vec<f32>,
    roots: Vec<u32>,
    /// Per tree: the number of split steps on its longest root-to-leaf
    /// path. Walking exactly this many uniform steps from the root is
    /// guaranteed to finish on (or self-loop at) a leaf.
    depth: Vec<u32>,
}

/// Reusable per-thread scratch for the quantized batch path: the `f32`
/// row-major copy of the input and the per-tree leaf buffer. Thread-local
/// so warm steady-state batches allocate nothing.
#[derive(Default)]
struct QScratch {
    rows: Vec<f32>,
    leaves: Vec<f32>,
    row: Vec<f32>,
}

thread_local! {
    static Q_SCRATCH: RefCell<QScratch> = RefCell::new(QScratch::default());
}

impl QNodes {
    /// Quantize per-tree exported nodes: thresholds round toward −∞ (see
    /// [`quantize_threshold`]), leaf values round to nearest `f32`, and
    /// child indices are rebased to the ensemble-wide address space.
    /// Leaves become uniform self-loop nodes (`feature 0` vs `+∞`, both
    /// children pointing back at themselves) so the traversal loops never
    /// have to distinguish them, and each tree's maximum descent depth is
    /// recorded so those loops can run a fixed number of steps.
    ///
    /// # Panics
    /// Panics on an empty tree, a child index that is out of range or
    /// does not follow its parent, or a split feature `>= n_features`.
    fn compile(trees: &[Vec<FlatNode>], n_features: usize) -> Self {
        let total = trees.iter().map(Vec::len).sum();
        let mut q = QNodes {
            nodes: Vec::with_capacity(total),
            value: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
            depth: Vec::with_capacity(trees.len()),
        };
        for tree in trees {
            assert!(!tree.is_empty(), "cannot flatten an unfitted tree");
            let base = q.nodes.len() as u32;
            q.roots.push(base);
            for (i, n) in tree.iter().enumerate() {
                if n.feature == LEAF {
                    let abs = base + i as u32;
                    q.nodes.push(QNode {
                        threshold: f32::INFINITY,
                        feature: 0,
                        children: [abs, abs],
                    });
                    q.value.push(n.value as f32);
                } else {
                    assert!(
                        (n.left as usize) < tree.len() && (n.right as usize) < tree.len(),
                        "child index out of range in flattened tree"
                    );
                    assert!(
                        n.left as usize > i && n.right as usize > i,
                        "child index must follow its parent in flattened tree"
                    );
                    assert!((n.feature as usize) < n_features, "split feature out of range");
                    q.nodes.push(QNode {
                        threshold: quantize_threshold(n.threshold),
                        feature: n.feature,
                        children: [base + n.left, base + n.right],
                    });
                    q.value.push(0.0);
                }
            }
            q.depth.push(tree_depth(tree));
        }
        // One-time structural validation backing the unchecked loads in
        // `for_each_leaf`: every root and every child index must land
        // inside the node array (checked per tree above; this re-checks
        // the rebased ensemble-wide indices).
        let len = q.nodes.len();
        assert!(q.value.len() == len, "leaf value array out of sync");
        assert!(q.roots.iter().all(|&r| (r as usize) < len), "root index out of range");
        assert!(
            q.nodes
                .iter()
                .all(|n| (n.children[0] as usize) < len && (n.children[1] as usize) < len),
            "child index out of range"
        );
        q
    }

    /// Walk one tree for one `f32` row; returns the leaf's node index.
    /// Runs exactly `depth` uniform steps — leaves self-loop, so landing
    /// early just spins in place (see [`QNodes`]).
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fall right
    fn leaf_index(&self, root: u32, depth: u32, row: &[f32]) -> usize {
        let mut i = root as usize;
        for _ in 0..depth {
            let n = self.nodes[i];
            let go_right = !(row[n.feature as usize] <= n.threshold) as usize;
            i = n.children[go_right] as usize;
        }
        i
    }

    /// Accumulate `init + Σ weight · tree(row)` in tree order, in `f64`.
    #[inline]
    fn score_row(&self, row: &[f32], init: f64, weight: f64) -> f64 {
        let mut acc = init;
        for (&root, &depth) in self.roots.iter().zip(&self.depth) {
            acc += weight * self.value[self.leaf_index(root, depth, row)] as f64;
        }
        acc
    }

    /// Call `sink(k, leaf)` with tree `root`'s leaf value for each row
    /// `start + k`, `k < n`, walking `LANES` rows at a time through the
    /// tree. Tree traversal is a chain of dependent loads; independent
    /// per-lane cursors give the core that many load chains to overlap.
    /// The per-lane step is uniform and branchless — leaves are ordinary
    /// self-loop nodes (see [`QNodes`]) — so the group runs exactly
    /// `depth` lock-step iterations with no leaf test, and rows that
    /// reach a leaf early self-loop until the group finishes.
    ///
    /// The inner loop uses unchecked loads; its indices are covered by
    /// two invariants. (1) Node cursors: each `idx[j]` starts at `root`
    /// and only ever moves to a `children` slot, and [`Self::compile`]
    /// asserts every root and child index is in range once per compile.
    /// (2) Feature gathers: [`Self::compile`] asserts every split feature
    /// is below the model's `n_features` (leaves store feature 0, which a
    /// non-empty split set makes valid; an all-leaf ensemble has
    /// `depth == 0` and never gathers), and the public entry points
    /// assert `ncols == n_features`, so
    /// `base[j] + feature < (start + n) · ncols ≤ rows.len()` — the
    /// debug assertion below re-states that bound.
    #[inline]
    #[allow(clippy::needless_range_loop)] // j indexes lock-step lane arrays
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fall right
    #[allow(clippy::too_many_arguments)] // flat args keep the hot call zero-cost
    fn for_each_leaf<F: FnMut(usize, f32)>(
        &self,
        root: u32,
        depth: u32,
        rows: &[f32],
        ncols: usize,
        start: usize,
        n: usize,
        mut sink: F,
    ) {
        const LANES: usize = 8;
        debug_assert!(rows.len() >= (start + n) * ncols);
        let r = root as usize;
        let mut k = 0;
        while k + LANES <= n {
            let base: [usize; LANES] = std::array::from_fn(|j| (start + k + j) * ncols);
            let mut idx = [r; LANES];
            for _ in 0..depth {
                // One fused load→compare→select step per lane, fully
                // unrolled (LANES is const): each lane's chain lives in
                // registers and the eight chains overlap their loads.
                // SAFETY: invariants (1) and (2) in the doc comment —
                // `idx` holds quantize-validated node indices and the
                // gather offset is bounded by the entry-point width check.
                for j in 0..LANES {
                    let n = unsafe { *self.nodes.get_unchecked(idx[j]) };
                    let x = unsafe { *rows.get_unchecked(base[j] + n.feature as usize) };
                    let go_right = !(x <= n.threshold) as usize;
                    idx[j] = n.children[go_right] as usize;
                }
            }
            for j in 0..LANES {
                sink(k + j, self.value[idx[j]]);
            }
            k += LANES;
        }
        while k < n {
            let row = &rows[(start + k) * ncols..(start + k + 1) * ncols];
            sink(k, self.value[self.leaf_index(root, depth, row)]);
            k += 1;
        }
    }

    /// Score rows `offset..offset + out.len()` of the `f32` row-major
    /// buffer into `out`, **tree-major**: the outer loop walks trees, the
    /// inner loop rows, so one tree's nodes stay hot in cache across the
    /// whole chunk. Each row accumulates `init + Σ weight·tree(row)` in
    /// tree order in `f64` — the identical floating-point sequence to
    /// [`Self::score_row`].
    fn score_chunk(
        &self,
        rows: &[f32],
        ncols: usize,
        offset: usize,
        out: &mut [f64],
        init: f64,
        weight: f64,
    ) {
        out.fill(init);
        let n = out.len();
        for (&root, &depth) in self.roots.iter().zip(&self.depth) {
            self.for_each_leaf(root, depth, rows, ncols, offset, n, |k, leaf| {
                out[k] += weight * leaf as f64
            });
        }
    }

    /// Score every row of `x` into `out`, in parallel for large batches.
    ///
    /// The parallel split is over **trees**, not rows: each worker owns a
    /// contiguous run of trees and fills their leaf values for every row
    /// of the block, so the ensemble's node arrays are streamed through
    /// cache once in total instead of once per row chunk. A serial pass
    /// then accumulates each row's leaves in tree order — the identical
    /// floating-point sequence to [`Self::score_row`], so results are
    /// independent of worker count.
    ///
    /// All scratch (the `f32` row conversion, the per-tree leaf buffer)
    /// is thread-local and reused, and `out` is resized in place: a warm
    /// steady-state caller that holds on to `out` allocates nothing here.
    fn score_batch_into(&self, x: &Matrix, init: f64, weight: f64, out: &mut Vec<f64>) {
        let n = x.nrows();
        let ncols = x.ncols();
        out.clear();
        out.resize(n, 0.0);
        Q_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.rows.clear();
            s.rows.reserve(n * ncols);
            for i in 0..n {
                s.rows.extend(x.row(i).iter().map(|&v| v as f32));
            }
            // Small batches — and any batch on a single-core host, where
            // the tree-split buys nothing — take the direct tree-major
            // pass and skip the intermediate leaf buffer entirely. Both
            // paths accumulate each row's leaves in tree order in `f64`,
            // so the choice never changes a result bit.
            if n < PAR_MIN_ROWS || parallel::default_threads() <= 1 {
                self.score_chunk(&s.rows, ncols, 0, out, init, weight);
                return;
            }
            let t = self.roots.len();
            // Row blocking bounds the transient leaf buffer at
            // `t × ROW_BLOCK × 4` bytes regardless of batch size.
            let block = n.min(ROW_BLOCK);
            s.leaves.clear();
            s.leaves.resize(t * block, 0.0);
            for start in (0..n).step_by(block) {
                let rows = block.min(n - start);
                let leaves = &mut s.leaves[..t * rows];
                let xrows: &[f32] = &s.rows;
                parallel::par_chunks_mut(leaves, rows, |offset, chunk| {
                    for (b, tree_leaves) in chunk.chunks_mut(rows).enumerate() {
                        let t = offset / rows + b;
                        let (root, depth) = (self.roots[t], self.depth[t]);
                        self.for_each_leaf(root, depth, xrows, ncols, start, rows, |k, leaf| {
                            tree_leaves[k] = leaf
                        });
                    }
                });
                let out_block = &mut out[start..start + rows];
                out_block.fill(init);
                for tree_leaves in leaves.chunks(rows) {
                    for (o, &l) in out_block.iter_mut().zip(tree_leaves.iter()) {
                        *o += weight * l as f64;
                    }
                }
            }
        });
    }

    /// Score one `f64` row through the quantized ensemble, converting it
    /// into thread-local scratch (allocation-free when warm).
    fn score_row_f64(&self, row: &[f64], init: f64, weight: f64) -> f64 {
        Q_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.row.clear();
            s.row.extend(row.iter().map(|&v| v as f32));
            self.score_row(&s.row, init, weight)
        })
    }
}

/// A fitted [`GradientBoosting`] ensemble compiled for fast batched
/// inference on the quantized `f32` layout, within the module-level
/// tolerance contract.
///
/// # Example
///
/// ```
/// use chemcost_linalg::Matrix;
/// use chemcost_ml::flat::{FlatGbt, QUANT_REL_TOL};
/// use chemcost_ml::gradient_boosting::GradientBoosting;
/// use chemcost_ml::Regressor;
///
/// let x = Matrix::from_fn(60, 2, |i, j| ((i * (j + 2)) % 17) as f64);
/// let y: Vec<f64> = (0..60).map(|i| x[(i, 0)] * 3.0 - x[(i, 1)]).collect();
/// let mut gb = GradientBoosting::new(30, 3, 0.1);
/// gb.fit(&x, &y).unwrap();
///
/// let flat = FlatGbt::compile(&gb);
/// // The quantized layout stays within the documented tolerance of the
/// // recursive model …
/// let batch = flat.predict_batch(&x);
/// for (q, e) in batch.iter().zip(gb.predict(&x)) {
///     assert!((q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()));
/// }
/// // … and single-row calls are bit-identical to the batch.
/// assert_eq!(flat.predict_row(x.row(7)), batch[7]);
/// ```
#[derive(Debug, Clone)]
pub struct FlatGbt {
    qnodes: QNodes,
    init: f64,
    learning_rate: f64,
    n_features: usize,
}

impl FlatGbt {
    /// Compile a fitted gradient-boosting ensemble into the quantized
    /// layout.
    ///
    /// # Panics
    /// Panics if the ensemble has no fitted stages, or on a malformed
    /// tree: a child index that is out of range or does not follow its
    /// parent, or a split feature `>= n_features`.
    pub fn compile(gb: &GradientBoosting) -> FlatGbt {
        let (init, learning_rate, n_features, trees) = gb.export();
        assert!(!trees.is_empty(), "FlatGbt::compile before fit");
        let qnodes = QNodes::compile(&trees, n_features);
        FlatGbt { qnodes, init, learning_rate, n_features }
    }

    /// Number of boosting stages in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.qnodes.roots.len()
    }

    /// Total nodes across all stages.
    pub fn n_nodes(&self) -> usize {
        self.qnodes.nodes.len()
    }

    /// Number of features the source model was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    fn check_width(&self, ncols: usize, what: &str) {
        if self.n_features > 0 {
            assert_eq!(ncols, self.n_features, "FlatGbt::{what}: feature-count mismatch");
        }
    }

    /// Predict one row (allocation-free when warm).
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.check_width(row.len(), "predict_row");
        self.qnodes.score_row_f64(row, self.init, self.learning_rate)
    }

    /// Predict every row of `x`, in parallel for large batches.
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_batch_into(x, &mut out);
        out
    }

    /// Predict every row of `x` into a caller-owned buffer, resized in
    /// place — the zero-allocation entry point for steady-state serving
    /// (all internal scratch is thread-local and reused).
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_batch_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        self.check_width(x.ncols(), "predict_batch");
        self.qnodes.score_batch_into(x, self.init, self.learning_rate, out);
    }
}

impl Regressor for FlatGbt {
    /// Compiled models are read-only; refit the source
    /// [`GradientBoosting`] and re-[`compile`](FlatGbt::compile) instead.
    fn fit(&mut self, _x: &Matrix, _y: &[f64]) -> Result<(), FitError> {
        Err(FitError::NotTrainable("FlatGbt"))
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        self.predict_batch(x)
    }

    fn name(&self) -> &'static str {
        "FlatGB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_data(n: usize) -> (Matrix, Vec<f64>) {
        // Feature values pass through f32 so the quantized path routes
        // rows through exactly the same leaves as the recursive model
        // (see the module-level quantization contract).
        let x =
            Matrix::from_fn(n, 3, |i, j| ((((i * 41 + j * 17) % 59) as f64) / 3.0) as f32 as f64);
        let y = (0..n).map(|i| (x[(i, 0)] * 0.7).sin() * 10.0 + x[(i, 1)] - x[(i, 2)]).collect();
        (x, y)
    }

    fn assert_close(quantized: &[f64], recursive: &[f64]) {
        assert_eq!(quantized.len(), recursive.len());
        for (i, (q, e)) in quantized.iter().zip(recursive).enumerate() {
            assert!(
                (q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()),
                "row {i}: quantized {q} vs recursive {e} outside QUANT_REL_TOL"
            );
        }
    }

    #[test]
    fn gbt_quantized_path_within_tolerance() {
        let (x, y) = training_data(120);
        let mut gb = GradientBoosting::new(40, 4, 0.1);
        gb.seed = 7;
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        assert_eq!(flat.n_trees(), gb.n_stages());
        assert_eq!(flat.n_features(), 3);
        let (_, _, _, trees) = gb.export();
        assert_eq!(flat.n_nodes(), trees.iter().map(Vec::len).sum::<usize>());
        let recursive = gb.predict(&x);
        assert_close(&flat.predict_batch(&x), &recursive);
        let rows: Vec<f64> = (0..x.nrows()).map(|i| flat.predict_row(x.row(i))).collect();
        assert_close(&rows, &recursive);
    }

    #[test]
    fn single_row_matches_batch() {
        let (x, y) = training_data(90);
        let mut gb = GradientBoosting::new(25, 3, 0.2);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let batch = flat.predict_batch(&x);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(flat.predict_row(x.row(i)), b);
        }
    }

    #[test]
    fn predict_batch_into_reuses_buffer() {
        let (x, y) = training_data(80);
        let mut gb = GradientBoosting::new(10, 3, 0.2);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let mut out = Vec::new();
        flat.predict_batch_into(&x, &mut out);
        let first = out.clone();
        let cap = out.capacity();
        flat.predict_batch_into(&x, &mut out);
        assert_eq!(out, first);
        assert_eq!(out.capacity(), cap, "warm call must not reallocate the out buffer");
    }

    #[test]
    fn large_batch_takes_parallel_path() {
        // More rows than PAR_MIN_ROWS so score_batch goes parallel; the
        // result must be identical to the serial per-row path and within
        // tolerance of the recursive model.
        let (x, y) = training_data(PAR_MIN_ROWS * 4);
        let mut gb = GradientBoosting::new(30, 6, 0.2);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let batch = flat.predict_batch(&x);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(flat.predict_row(x.row(i)), b);
        }
        assert_close(&batch, &gb.predict(&x));
    }

    #[test]
    fn quantized_thresholds_round_toward_neg_inf() {
        for t in [0.1, -0.1, 1.0 / 3.0, 1e300, -1e300, 5.0, f64::INFINITY] {
            let q = quantize_threshold(t);
            assert!(q as f64 <= t, "quantized threshold {q} above exact {t}");
            if q.is_finite() {
                assert!(
                    q.next_up() as f64 > t,
                    "quantized threshold {q} not the largest f32 ≤ {t}"
                );
            }
        }
    }

    #[test]
    fn flat_models_are_not_trainable() {
        let (x, y) = training_data(40);
        let mut gb = GradientBoosting::new(5, 2, 0.5);
        gb.fit(&x, &y).unwrap();
        let mut flat = FlatGbt::compile(&gb);
        assert!(matches!(flat.fit(&x, &y), Err(FitError::NotTrainable(_))));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn compile_unfitted_gbt_panics() {
        let _ = FlatGbt::compile(&GradientBoosting::new(5, 3, 0.1));
    }

    #[test]
    #[should_panic(expected = "must follow its parent")]
    fn compile_rejects_cyclic_tree() {
        let cyclic = FlatNode { feature: 0, threshold: 0.5, left: 0, right: 0, value: 0.0 };
        let _ = FlatGbt::compile(&GradientBoosting::from_export(0.0, 0.1, 1, &[vec![cyclic]]));
    }

    #[test]
    #[should_panic(expected = "feature-count mismatch")]
    fn gbt_batch_rejects_wrong_width() {
        let (x, y) = training_data(40);
        let mut gb = GradientBoosting::new(5, 2, 0.5);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let _ = flat.predict_batch(&Matrix::zeros(2, 2));
    }

    #[test]
    fn regressor_impl_routes_through_flat_path() {
        let (x, y) = training_data(60);
        let mut gb = GradientBoosting::new(10, 3, 0.3);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let as_regressor: &dyn Regressor = &flat;
        assert_eq!(as_regressor.predict(&x), flat.predict_batch(&x));
        assert_close(&as_regressor.predict(&x), &gb.predict(&x));
        assert_eq!(as_regressor.name(), "FlatGB");
    }
}
