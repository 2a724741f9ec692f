//! Core model traits.

use chemcost_linalg::Matrix;

/// Error produced when a model cannot be fitted.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Training data was empty.
    EmptyTrainingSet,
    /// Feature matrix and target length disagree.
    ShapeMismatch {
        /// Rows in the feature matrix.
        rows: usize,
        /// Entries in the target vector.
        targets: usize,
    },
    /// The training data contained NaN or infinite values.
    NonFiniteData,
    /// A linear system could not be solved even with jitter.
    Numerical(String),
    /// A hyper-parameter value is outside its valid range.
    InvalidHyperParameter(String),
    /// The model is a compiled, read-only artifact (e.g. a flattened
    /// ensemble) — fit the source model and re-compile instead.
    NotTrainable(&'static str),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::EmptyTrainingSet => write!(f, "empty training set"),
            FitError::ShapeMismatch { rows, targets } => {
                write!(f, "feature rows ({rows}) != target length ({targets})")
            }
            FitError::NonFiniteData => write!(f, "training data contains NaN/inf"),
            FitError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            FitError::InvalidHyperParameter(msg) => write!(f, "invalid hyper-parameter: {msg}"),
            FitError::NotTrainable(kind) => {
                write!(f, "{kind} is a compiled read-only model; fit its source ensemble instead")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Validate the common preconditions shared by every `fit` implementation.
pub(crate) fn validate_fit_inputs(x: &Matrix, y: &[f64]) -> Result<(), FitError> {
    if x.nrows() == 0 {
        return Err(FitError::EmptyTrainingSet);
    }
    if x.nrows() != y.len() {
        return Err(FitError::ShapeMismatch { rows: x.nrows(), targets: y.len() });
    }
    if !x.is_finite() || !y.iter().all(|v| v.is_finite()) {
        return Err(FitError::NonFiniteData);
    }
    Ok(())
}

/// A trainable regression model.
///
/// `fit` may be called repeatedly; each call discards previous state.
/// `predict` panics if called before a successful `fit` (programmer error,
/// like sklearn's `NotFittedError`).
///
/// # Example
///
/// ```
/// use chemcost_linalg::Matrix;
/// use chemcost_ml::tree::DecisionTree;
/// use chemcost_ml::Regressor;
///
/// // A step function a shallow tree captures exactly.
/// let x = Matrix::from_fn(20, 1, |i, _| i as f64);
/// let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
///
/// let mut model = DecisionTree::new(3);
/// model.fit(&x, &y).unwrap();
/// assert_eq!(model.predict(&x), y);
/// assert_eq!(model.predict_one(&[3.0]), 1.0);
/// assert_eq!(model.name(), "DT");
/// ```
pub trait Regressor: Send + Sync {
    /// Train on feature matrix `x` (one sample per row) and targets `y`.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), FitError>;

    /// Predict targets for each row of `x`.
    fn predict(&self, x: &Matrix) -> Vec<f64>;

    /// Predict a single sample.
    fn predict_one(&self, row: &[f64]) -> f64 {
        let m = Matrix::from_rows(&[row]);
        self.predict(&m)[0]
    }

    /// Predict the cartesian product `fixed ++ [a[i], b[j]]` into `out`,
    /// row `i · b.len() + j`: the advisor's sweep of `(nodes, tile)`
    /// candidates at a fixed `(O, V)`. The default materialises the rows
    /// and calls [`Regressor::predict`]; a model that can score the grid
    /// without its rows overrides it with identical results.
    fn predict_grid(&self, fixed: &[f64], a: &[f64], b: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if a.is_empty() || b.is_empty() {
            return;
        }
        let w = fixed.len();
        let x = Matrix::from_fn(a.len() * b.len(), w + 2, |r, j| match j {
            j if j < w => fixed[j],
            j if j == w => a[r / b.len()],
            _ => b[r % b.len()],
        });
        *out = self.predict(&x);
    }

    /// A short human-readable name ("GB", "KR", …) used in reports.
    fn name(&self) -> &'static str;
}

/// A regressor that also produces per-sample predictive standard
/// deviations — required by uncertainty-sampling active learning.
pub trait UncertaintyRegressor: Regressor {
    /// Predict `(mean, std)` for each row of `x`.
    fn predict_with_std(&self, x: &Matrix) -> (Vec<f64>, Vec<f64>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_empty() {
        let x = Matrix::zeros(0, 3);
        assert_eq!(validate_fit_inputs(&x, &[]), Err(FitError::EmptyTrainingSet));
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let x = Matrix::zeros(3, 2);
        assert_eq!(
            validate_fit_inputs(&x, &[1.0]),
            Err(FitError::ShapeMismatch { rows: 3, targets: 1 })
        );
    }

    #[test]
    fn validate_rejects_nan() {
        let x = Matrix::from_rows(&[&[1.0, f64::NAN]]);
        assert_eq!(validate_fit_inputs(&x, &[1.0]), Err(FitError::NonFiniteData));
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(validate_fit_inputs(&x, &[f64::INFINITY]), Err(FitError::NonFiniteData));
    }

    #[test]
    fn validate_accepts_good_input() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(validate_fit_inputs(&x, &[1.0, 2.0]).is_ok());
    }

    /// Predicts a number spelling out each row's features.
    struct RowEcho;

    impl Regressor for RowEcho {
        fn fit(&mut self, _x: &Matrix, _y: &[f64]) -> Result<(), FitError> {
            Ok(())
        }
        fn predict(&self, x: &Matrix) -> Vec<f64> {
            (0..x.nrows()).map(|i| x.row(i).iter().fold(0.0, |acc, &f| acc * 10.0 + f)).collect()
        }
        fn name(&self) -> &'static str {
            "echo"
        }
    }

    #[test]
    fn default_predict_grid_is_row_major_over_the_axes() {
        let mut out = vec![7.0];
        RowEcho.predict_grid(&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0, 7.0], &mut out);
        assert_eq!(out, [1235.0, 1236.0, 1237.0, 1245.0, 1246.0, 1247.0]);
        RowEcho.predict_grid(&[1.0, 2.0], &[], &[5.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn fit_error_display() {
        let e = FitError::Numerical("singular".into());
        assert!(e.to_string().contains("singular"));
    }
}
