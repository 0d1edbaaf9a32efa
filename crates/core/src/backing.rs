//! Which store holds a sampled population's scores: the one place that
//! decides.
//!
//! A population of linear utilities is held as [`LinearScores`]: the
//! `N × d` weights and the `n × d` points, with each score recomputed
//! when it is read. This is the space optimization of Section III-D-3.
//! Any other population is held as the materialized `N × n`
//! [`ScoreMatrix`]. The two give the same score, best point and error
//! bit for bit. So a solver answers the same on either; only time and
//! memory differ.
//!
//! [`ScoreBacking::from_functions`] makes that choice, with
//! [`ScoreBacking::fits_linear`] as its test. `fam_reduce`'s
//! `Reduction::backing` is its twin for a reduced build. The engine
//! builder and the CLI score every sampled population through these
//! two.

use std::sync::Arc;

use rand::RngCore;

use crate::dataset::Dataset;
use crate::distribution::UtilityDistribution;
use crate::error::{FamError, Result};
use crate::linear_scores::LinearScores;
use crate::scores::{ScoreMatrix, ScoreSource};
use crate::utility::UtilityFunction;

/// A sampled population's scores, in the store its utilities allow.
#[derive(Debug, Clone)]
pub enum ScoreBacking {
    /// Every utility is linear over the points' coordinates: `N × d`
    /// weights, with scores computed on demand.
    Linear(LinearScores),
    /// Any other population: the materialized `N × n` matrix.
    Dense(ScoreMatrix),
}

impl ScoreBacking {
    /// Draws `n_samples` functions from `dist` with
    /// [`sample_functions`] (the draws
    /// [`ScoreMatrix::from_distribution`] makes, in the same order) and
    /// scores them over `dataset` with [`ScoreBacking::from_functions`].
    ///
    /// # Errors
    ///
    /// As [`sample_functions`] (charged for `dataset.len()` points), then
    /// as [`ScoreBacking::from_functions`].
    pub fn sample(
        dataset: &Dataset,
        dist: &dyn UtilityDistribution,
        n_samples: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self> {
        let functions = sample_functions(dist, n_samples, dataset.len(), rng)?;
        Self::from_functions(dataset, &functions)
    }

    /// Scores `functions` (uniform sample weights) over `dataset`: as
    /// [`LinearScores::from_functions`] when
    /// [`ScoreBacking::fits_linear`] holds, as
    /// [`ScoreMatrix::from_functions`] otherwise. Both report the same
    /// error for the same input.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty function list, a non-finite or
    /// negative score, or a sample that scores every point 0.
    pub fn from_functions(
        dataset: &Dataset,
        functions: &[Arc<dyn UtilityFunction>],
    ) -> Result<Self> {
        if Self::fits_linear(functions, dataset.dim()) {
            LinearScores::from_functions(dataset.clone(), functions).map(ScoreBacking::Linear)
        } else {
            ScoreMatrix::from_functions(dataset, functions, None).map(ScoreBacking::Dense)
        }
    }

    /// Whether every function is linear
    /// ([`UtilityFunction::linear_weights`]) with `dim` weights, so that
    /// [`LinearScores`] can hold the population.
    pub fn fits_linear(functions: &[Arc<dyn UtilityFunction>], dim: usize) -> bool {
        functions.iter().all(|f| f.linear_weights().is_some_and(|w| w.len() == dim))
    }

    /// The scores, for solvers and regret measures.
    pub fn source(&self) -> &dyn ScoreSource {
        match self {
            ScoreBacking::Linear(s) => s,
            ScoreBacking::Dense(m) => m,
        }
    }
}

/// Draws `n_samples` utility functions from `dist`, one
/// `dist.sample(rng)` each, in order. Before drawing, it refuses
/// `n_samples == 0` and charges [`crate::check_matrix_budget`] for
/// `n_samples × n_points`. The budget is a limit on work, and it is
/// charged whichever backing later holds the scores.
///
/// # Errors
///
/// Returns [`FamError::InvalidParameter`] for `n_samples == 0` or a
/// footprint over the budget.
pub fn sample_functions(
    dist: &dyn UtilityDistribution,
    n_samples: usize,
    n_points: usize,
    rng: &mut dyn RngCore,
) -> Result<Vec<Arc<dyn UtilityFunction>>> {
    if n_samples == 0 {
        return Err(FamError::InvalidParameter {
            name: "n_samples",
            message: "must be at least 1".into(),
        });
    }
    crate::sampling::check_matrix_budget(n_samples, n_points)?;
    Ok((0..n_samples).map(|_| dist.sample(rng)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{CobbDouglasDistribution, UniformLinear};
    use crate::utility::LinearUtility;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        Dataset::from_rows(vec![vec![0.9, 0.1], vec![0.2, 0.8], vec![0.5, 0.6], vec![0.4, 0.4]])
            .unwrap()
    }

    fn bits(s: &dyn ScoreSource) -> Vec<u64> {
        let mut out: Vec<u64> =
            s.weights().iter().chain(s.best_values()).map(|v| v.to_bits()).collect();
        for u in 0..s.n_samples() {
            out.push(s.best_index(u) as u64);
            out.extend(s.row_scores(u, &mut Vec::new()).iter().map(|v| v.to_bits()));
        }
        out
    }

    #[test]
    fn linear_populations_go_compact_with_the_matrix_bits() {
        let ds = dataset();
        let dist = UniformLinear::new(2).unwrap();
        let compact = ScoreBacking::sample(&ds, &dist, 64, &mut StdRng::seed_from_u64(4)).unwrap();
        let dense =
            ScoreMatrix::from_distribution(&ds, &dist, 64, &mut StdRng::seed_from_u64(4)).unwrap();
        assert!(matches!(compact, ScoreBacking::Linear(_)));
        assert_eq!(bits(compact.source()), bits(&dense));
    }

    #[test]
    fn other_populations_stay_dense() {
        let ds = dataset();
        let dist = CobbDouglasDistribution::new(2).unwrap();
        let backing = ScoreBacking::sample(&ds, &dist, 32, &mut StdRng::seed_from_u64(5)).unwrap();
        let dense =
            ScoreMatrix::from_distribution(&ds, &dist, 32, &mut StdRng::seed_from_u64(5)).unwrap();
        assert!(matches!(backing, ScoreBacking::Dense(_)));
        assert_eq!(bits(backing.source()), bits(&dense));
        // A linear function of the wrong dimension is not held compactly.
        let wrong: Vec<Arc<dyn UtilityFunction>> =
            vec![Arc::new(LinearUtility::new(vec![1.0, 1.0, 1.0]).unwrap())];
        assert!(!ScoreBacking::fits_linear(&wrong, 2));
    }

    #[test]
    fn both_backings_refuse_what_the_matrix_refuses() {
        let ds = dataset();
        let dist = UniformLinear::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let err = ScoreBacking::sample(&ds, &dist, 0, &mut rng).unwrap_err();
        assert!(matches!(err, FamError::InvalidParameter { name: "n_samples", .. }), "{err}");
        let err = ScoreBacking::from_functions(&ds, &[]).unwrap_err();
        let dense = ScoreMatrix::from_functions(&ds, &[], None).unwrap_err();
        assert_eq!(err.to_string(), dense.to_string());
        // A sample that scores every point 0 is degenerate on both.
        let zero = Dataset::from_rows(vec![vec![0.0, 0.5], vec![0.0, 0.7]]).unwrap();
        let f: Vec<Arc<dyn UtilityFunction>> =
            vec![Arc::new(LinearUtility::new(vec![1.0, 0.0]).unwrap())];
        let err = ScoreBacking::from_functions(&zero, &f).unwrap_err();
        let dense = ScoreMatrix::from_functions(&zero, &f, None).unwrap_err();
        assert_eq!(err.to_string(), dense.to_string());
    }
}
