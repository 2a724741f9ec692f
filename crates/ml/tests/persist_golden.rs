//! Golden bytes for the `.ccgb` model format.
//!
//! Encodes one small fixed-seed model, with and without its lineage
//! trailer, and compares the output byte for byte against files
//! committed under `tests/golden/`. Any change to the encoder that
//! alters a single byte of the on-disk format fails here, and the
//! committed files must still decode to the same model.

use chemcost_linalg::Matrix;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::persist::{decode_gb_full, encode_gb, encode_gb_with_lineage, Lineage};
use chemcost_ml::Regressor;

const GOLDEN_V1: &[u8] = include_bytes!("golden/gb_v1.ccgb");
const GOLDEN_V2: &[u8] = include_bytes!("golden/gb_v2.ccgb");

/// A small model fitted on integer-valued data (no transcendental
/// functions, so the fit is the same IEEE arithmetic on every host).
fn fixed_model() -> (GradientBoosting, Matrix) {
    let x = Matrix::from_fn(48, 3, |i, j| ((i * (j + 3) + j * 7) % 19) as f64);
    let y: Vec<f64> =
        (0..48).map(|i| x[(i, 0)] * 3.0 - x[(i, 1)] + (x[(i, 2)] * x[(i, 0)]) / 8.0).collect();
    let mut gb = GradientBoosting::new(6, 2, 0.25);
    gb.seed = 7;
    gb.fit(&x, &y).unwrap();
    (gb, x)
}

fn lineage() -> Lineage {
    Lineage {
        parent_version: 4,
        train_rows: 48,
        observed_rows: 12,
        fit_duration_ms: 321,
        seed: 0x0123_4567_89AB_CDEF,
    }
}

#[test]
fn version_1_encoding_matches_golden_bytes() {
    let (gb, _) = fixed_model();
    assert_eq!(encode_gb(&gb)[..], GOLDEN_V1[..], "v1 encoding drifted from golden file");
}

#[test]
fn version_2_encoding_matches_golden_bytes() {
    let (gb, _) = fixed_model();
    assert_eq!(
        encode_gb_with_lineage(&gb, &lineage())[..],
        GOLDEN_V2[..],
        "v2 encoding drifted from golden file"
    );
}

#[test]
fn golden_files_decode_to_the_fixed_model() {
    let (gb, x) = fixed_model();
    let (v1, l1) = decode_gb_full(GOLDEN_V1).unwrap();
    assert_eq!(l1, None);
    assert_eq!(v1.predict(&x), gb.predict(&x));
    let (v2, l2) = decode_gb_full(GOLDEN_V2).unwrap();
    assert_eq!(l2, Some(lineage()));
    assert_eq!(v2.predict(&x), gb.predict(&x));
}
