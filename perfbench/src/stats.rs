//! Order statistics shared by every report.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `p` is in
/// `(0, 100]`; the slice must not be empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.5), 1.0);
        // Five samples: p30 has rank ceil(1.5) = 2, p99 has rank 5.
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 30.0), 20.0);
        assert_eq!(nearest_rank(&five, 40.0), 20.0);
        assert_eq!(nearest_rank(&five, 50.0), 35.0);
        assert_eq!(nearest_rank(&five, 99.0), 50.0);
    }

    #[test]
    fn nearest_rank_returns_a_sample_never_an_interpolation() {
        let v = [1.0, 10.0];
        assert_eq!(nearest_rank(&v, 50.0), 1.0);
        assert_eq!(nearest_rank(&v, 51.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_count_is_the_middle_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
