//! Utility functions (Definition 1).
//!
//! A utility function maps a point's coordinates to a non-negative score.
//! The framework makes *no* assumption on the functional form — linear
//! functions are merely the most common instantiation in the paper's
//! experiments; [`CobbDouglasUtility`] demonstrates a non-linear monotone
//! family, and [`TableUtility`] covers the explicit per-point vector
//! representation of Definition 1 / Table I.

use crate::error::{FamError, Result};

/// A user's utility function `f : R^d_{>=0} -> R_{>=0}`.
///
/// Implementations must return finite, non-negative values for valid points.
pub trait UtilityFunction: Send + Sync {
    /// Utility of the point with coordinates `point`. The `index` is the
    /// point's position in the dataset, allowing table-based functions that
    /// score points by identity rather than by coordinates.
    fn utility(&self, index: usize, point: &[f64]) -> f64;

    /// Short human-readable description of the functional family.
    fn kind(&self) -> &'static str {
        "utility"
    }

    /// The weight vector of a linear utility, when this function *is*
    /// linear over the point coordinates.
    ///
    /// Returning `Some(w)` is a promise that `utility(i, p)` equals
    /// [`crate::kernels::dot`]`(w, p)` **bit-for-bit** for every point of
    /// the dataset being scored — it routes the function through the
    /// fused batch-scoring kernel ([`crate::kernels::linear_score_row`]),
    /// whose per-element arithmetic is exactly `dot`. Non-linear and
    /// index-based families keep the default `None` and are scored
    /// through `utility` per element.
    fn linear_weights(&self) -> Option<&[f64]> {
        None
    }

    /// Whether this function is monotone over the coordinates.
    ///
    /// Returning `true` is a promise that `utility(i, p)` ignores the
    /// index `i` and that `utility(_, p) >= utility(_, q)` **in floating
    /// point** whenever `p` dominates `q`. That is the capability skyline
    /// reduction needs (`fam-reduce`): the skyline then holds a point
    /// scoring exactly the full database's best, so a reduced build may
    /// score the skyline alone. The default `false` makes reduction refuse
    /// the function rather than guess.
    fn is_monotone(&self) -> bool {
        false
    }
}

/// Linear utility `f(p) = w · p` with non-negative weights.
///
/// # Examples
///
/// ```
/// use fam_core::{LinearUtility, UtilityFunction};
/// let f = LinearUtility::new(vec![0.25, 0.75]).unwrap();
/// assert!((f.utility(0, &[1.0, 1.0]) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearUtility {
    weights: Vec<f64>,
}

impl LinearUtility {
    /// Creates a linear utility from a weight vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `weights` is empty or contains negative or
    /// non-finite values.
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(FamError::ZeroDimension);
        }
        for (i, w) in weights.iter().enumerate() {
            if !w.is_finite() {
                return Err(FamError::NonFinite { row: 0, col: i });
            }
            if *w < 0.0 {
                return Err(FamError::NegativeValue { row: 0, col: i });
            }
        }
        Ok(LinearUtility { weights })
    }

    /// The weight vector.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Returns a copy whose weights sum to 1 (direction is preserved;
    /// scaling a linear utility does not change any regret ratio).
    ///
    /// # Errors
    ///
    /// Returns an error if all weights are zero.
    pub fn normalized(&self) -> Result<Self> {
        let s: f64 = self.weights.iter().sum();
        if s <= 0.0 {
            return Err(FamError::InvalidWeights("all-zero weight vector".into()));
        }
        Ok(LinearUtility { weights: self.weights.iter().map(|w| w / s).collect() })
    }
}

impl UtilityFunction for LinearUtility {
    #[inline]
    fn utility(&self, _index: usize, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.weights.len());
        crate::kernels::dot(&self.weights, point)
    }

    fn kind(&self) -> &'static str {
        "linear"
    }

    #[inline]
    fn linear_weights(&self) -> Option<&[f64]> {
        Some(&self.weights)
    }

    /// Monotone: with non-negative weights every multiply and add of the
    /// [`crate::kernels::dot`] chain is monotone under rounding.
    fn is_monotone(&self) -> bool {
        true
    }
}

/// Cobb–Douglas utility `f(p) = prod_i p_i^{w_i}` — a standard non-linear,
/// monotone utility family from economics, used to exercise the paper's
/// claim that GREEDY-SHRINK "does not make any assumption on the form of the
/// utility functions".
///
/// Zero coordinates with positive exponents yield utility 0.
#[derive(Debug, Clone, PartialEq)]
pub struct CobbDouglasUtility {
    exponents: Vec<f64>,
}

impl CobbDouglasUtility {
    /// Creates a Cobb–Douglas utility from non-negative exponents.
    ///
    /// # Errors
    ///
    /// Returns an error if `exponents` is empty or contains negative or
    /// non-finite values.
    pub fn new(exponents: Vec<f64>) -> Result<Self> {
        if exponents.is_empty() {
            return Err(FamError::ZeroDimension);
        }
        for (i, w) in exponents.iter().enumerate() {
            if !w.is_finite() {
                return Err(FamError::NonFinite { row: 0, col: i });
            }
            if *w < 0.0 {
                return Err(FamError::NegativeValue { row: 0, col: i });
            }
        }
        Ok(CobbDouglasUtility { exponents })
    }

    /// The exponent vector.
    #[inline]
    pub fn exponents(&self) -> &[f64] {
        &self.exponents
    }
}

impl UtilityFunction for CobbDouglasUtility {
    fn utility(&self, _index: usize, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.exponents.len());
        let mut acc = 0.0f64;
        for (w, x) in self.exponents.iter().zip(point) {
            if *w == 0.0 {
                continue;
            }
            if *x <= 0.0 {
                return 0.0;
            }
            acc += w * x.ln();
        }
        acc.exp()
    }

    fn kind(&self) -> &'static str {
        "cobb-douglas"
    }

    /// Monotone: `ln`, the non-negative-weighted sum and `exp` are each
    /// monotone, and a zero coordinate only ever lowers the score to 0.
    fn is_monotone(&self) -> bool {
        true
    }
}

/// Explicit per-point utility scores (the n-dimensional vector form of
/// Definition 1; see Table I in the paper). Scores are indexed by the
/// point's dataset position.
#[derive(Debug, Clone, PartialEq)]
pub struct TableUtility {
    scores: Vec<f64>,
}

impl TableUtility {
    /// Creates a table utility from one score per dataset point.
    ///
    /// # Errors
    ///
    /// Returns an error if `scores` is empty or contains negative or
    /// non-finite values.
    pub fn new(scores: Vec<f64>) -> Result<Self> {
        if scores.is_empty() {
            return Err(FamError::EmptyDataset);
        }
        for (i, s) in scores.iter().enumerate() {
            if !s.is_finite() {
                return Err(FamError::NonFinite { row: 0, col: i });
            }
            if *s < 0.0 {
                return Err(FamError::NegativeValue { row: 0, col: i });
            }
        }
        Ok(TableUtility { scores })
    }

    /// Number of points this table scores.
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when the table is empty (never for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The raw score vector.
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

impl UtilityFunction for TableUtility {
    #[inline]
    fn utility(&self, index: usize, _point: &[f64]) -> f64 {
        self.scores[index]
    }

    fn kind(&self) -> &'static str {
        "table"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_dot_product() {
        let f = LinearUtility::new(vec![0.5, 2.0]).unwrap();
        assert!((f.utility(0, &[2.0, 0.25]) - 1.5).abs() < 1e-12);
        assert_eq!(f.kind(), "linear");
    }

    #[test]
    fn linear_rejects_bad_weights() {
        assert!(LinearUtility::new(vec![]).is_err());
        assert!(LinearUtility::new(vec![-1.0]).is_err());
        assert!(LinearUtility::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn linear_normalized_sums_to_one() {
        let f = LinearUtility::new(vec![1.0, 3.0]).unwrap().normalized().unwrap();
        assert_eq!(f.weights(), &[0.25, 0.75]);
        assert!(LinearUtility::new(vec![0.0, 0.0]).unwrap().normalized().is_err());
    }

    #[test]
    fn cobb_douglas_matches_closed_form() {
        let f = CobbDouglasUtility::new(vec![0.5, 0.5]).unwrap();
        let got = f.utility(0, &[4.0, 9.0]);
        assert!((got - 6.0).abs() < 1e-9, "sqrt(4*9) = 6, got {got}");
    }

    #[test]
    fn cobb_douglas_zero_coordinate() {
        let f = CobbDouglasUtility::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(f.utility(0, &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn cobb_douglas_zero_exponent_ignores_dim() {
        let f = CobbDouglasUtility::new(vec![0.0, 1.0]).unwrap();
        assert!((f.utility(0, &[0.0, 5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn table_scores_by_index() {
        let f = TableUtility::new(vec![0.9, 0.7, 0.2, 0.4]).unwrap();
        assert_eq!(f.utility(2, &[]), 0.2);
        assert_eq!(f.len(), 4);
        assert_eq!(f.kind(), "table");
    }

    #[test]
    fn table_rejects_invalid() {
        assert!(TableUtility::new(vec![]).is_err());
        assert!(TableUtility::new(vec![-0.1]).is_err());
        assert!(TableUtility::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn trait_objects_are_usable() {
        let fs: Vec<Box<dyn UtilityFunction>> = vec![
            Box::new(LinearUtility::new(vec![1.0]).unwrap()),
            Box::new(TableUtility::new(vec![0.5]).unwrap()),
        ];
        assert!((fs[0].utility(0, &[2.0]) - 2.0).abs() < 1e-12);
        assert!((fs[1].utility(0, &[2.0]) - 0.5).abs() < 1e-12);
    }
}
