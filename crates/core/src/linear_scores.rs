//! Compact linear score storage — the `O(d(N+n))` space optimization of
//! Section III-D-3.
//!
//! When utility functions are linear, storing the `N × d` weight vectors
//! and the `n × d` database is enough: scores are recomputed on demand at
//! a factor-`d` time cost. [`LinearScores`] implements [`ScoreSource`], so
//! GREEDY-SHRINK and the other sampled algorithms run on it unchanged —
//! which is what makes the `n = 10⁶⁺` sweeps of Figure 7 feasible without
//! a multi-gigabyte matrix.

use rand::{Rng, RngCore};

use crate::dataset::Dataset;
use crate::error::{FamError, Result};
use crate::randext;
use crate::scores::ScoreSource;

/// Linear utility samples stored as weight vectors; scores computed on
/// demand as dot products.
#[derive(Debug, Clone)]
pub struct LinearScores {
    /// `N × d` row-major utility weight vectors.
    vectors: Vec<f64>,
    dim: usize,
    dataset: Dataset,
    sample_weights: Vec<f64>,
    best_index: Vec<u32>,
    best_value: Vec<f64>,
}

impl LinearScores {
    /// Builds from explicit per-sample weight vectors with uniform sample
    /// probabilities.
    ///
    /// # Errors
    ///
    /// Returns an error for empty/ragged weights, negative or non-finite
    /// entries, or samples that score every point 0.
    pub fn from_weight_rows(dataset: Dataset, rows: Vec<Vec<f64>>) -> Result<Self> {
        let d = dataset.dim();
        if rows.is_empty() {
            return Err(FamError::InvalidParameter {
                name: "rows",
                message: "need at least one utility weight vector".into(),
            });
        }
        let mut weights = Vec::with_capacity(rows.len() * d);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != d {
                return Err(FamError::DimensionMismatch { expected: d, got: r.len() });
            }
            for (j, v) in r.iter().enumerate() {
                if !v.is_finite() {
                    return Err(FamError::NonFinite { row: i, col: j });
                }
                if *v < 0.0 {
                    return Err(FamError::NegativeValue { row: i, col: j });
                }
                weights.push(*v);
            }
        }
        Self::finish(dataset, weights, rows.len())
    }

    /// Samples `n_samples` weight vectors i.i.d. uniform on `[0,1]^d` (the
    /// paper's standard linear Θ).
    ///
    /// # Errors
    ///
    /// Returns an error when `n_samples == 0`.
    pub fn sample_uniform(
        dataset: Dataset,
        n_samples: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self> {
        if n_samples == 0 {
            return Err(FamError::InvalidParameter {
                name: "n_samples",
                message: "must be at least 1".into(),
            });
        }
        let d = dataset.dim();
        let mut weights = Vec::with_capacity(n_samples * d);
        for _ in 0..n_samples {
            loop {
                let start = weights.len();
                for _ in 0..d {
                    weights.push(rng.gen_range(0.0..=1.0));
                }
                if weights[start..].iter().any(|w| *w > 0.0) {
                    break;
                }
                weights.truncate(start);
            }
        }
        Self::finish(dataset, weights, n_samples)
    }

    /// Samples weight vectors uniform on the probability simplex.
    ///
    /// # Errors
    ///
    /// Returns an error when `n_samples == 0`.
    pub fn sample_simplex(
        dataset: Dataset,
        n_samples: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self> {
        if n_samples == 0 {
            return Err(FamError::InvalidParameter {
                name: "n_samples",
                message: "must be at least 1".into(),
            });
        }
        let d = dataset.dim();
        let mut weights = vec![0.0; n_samples * d];
        for u in 0..n_samples {
            randext::uniform_simplex_into(rng, &mut weights[u * d..(u + 1) * d]);
        }
        Self::finish(dataset, weights, n_samples)
    }

    fn finish(dataset: Dataset, weights: Vec<f64>, n_samples: usize) -> Result<Self> {
        let d = dataset.dim();
        let n = dataset.len();
        let flat = dataset.as_flat();
        // The O(nNd) best-point pass fans out over sample chunks; merging
        // in chunk order preserves the serial scan's first-error semantics.
        // Each sample streams through the tiled dot-product kernel, whose
        // scores (and therefore best) are bit-identical to `score(u, p)`.
        let per_sample = crate::par::map_adaptive(n_samples, n * d, |range| {
            range
                .map(|u| {
                    let w = &weights[u * d..(u + 1) * d];
                    let (bi, bv) = crate::kernels::linear_best(w, flat, d);
                    if bv <= 0.0 {
                        return Err(FamError::DegenerateUtility { sample: u });
                    }
                    Ok((bi, bv))
                })
                .collect::<Result<Vec<_>>>()
        });
        let mut best_index = Vec::with_capacity(n_samples);
        let mut best_value = Vec::with_capacity(n_samples);
        for chunk in per_sample {
            for (bi, bv) in chunk? {
                best_index.push(bi);
                best_value.push(bv);
            }
        }
        Ok(LinearScores {
            vectors: weights,
            dim: d,
            dataset,
            sample_weights: vec![1.0 / n_samples as f64; n_samples],
            best_index,
            best_value,
        })
    }

    /// Appends new linear utility samples **in place** from explicit
    /// weight vectors — the sample-append path that keeps progressive
    /// precision available on the compact substrate (the
    /// [`crate::ScoreMatrix`] twin is
    /// [`crate::ScoreMatrix::append_samples_flat`]). The weight buffer
    /// extends at the end, the best-point pass runs over the new samples
    /// only, and per-sample probabilities re-spread to `1/N` — so every
    /// observable value is **bit-identical** to
    /// [`LinearScores::from_weight_rows`] over the concatenated rows.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving the substrate untouched) for ragged,
    /// non-finite, negative, or degenerate (all-zero-scoring) rows; the
    /// reported row index is absolute, matching the from-scratch build.
    pub fn append_weight_rows(&mut self, rows: &[Vec<f64>]) -> Result<()> {
        let d = self.dim;
        let n_old = self.sample_weights.len();
        let mut staged = Vec::with_capacity(rows.len() * d);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != d {
                return Err(FamError::DimensionMismatch { expected: d, got: r.len() });
            }
            for (j, v) in r.iter().enumerate() {
                if !v.is_finite() {
                    return Err(FamError::NonFinite { row: n_old + i, col: j });
                }
                if *v < 0.0 {
                    return Err(FamError::NegativeValue { row: n_old + i, col: j });
                }
                staged.push(*v);
            }
        }
        if rows.is_empty() {
            return Ok(());
        }
        let n = self.dataset.len();
        let flat = self.dataset.as_flat();
        // Same chunked best pass as `finish`, shifted to absolute sample
        // indices; staged state commits only after every row validated.
        let per_sample = crate::par::map_adaptive(rows.len(), n * d, |range| {
            range
                .map(|i| {
                    let w = &staged[i * d..(i + 1) * d];
                    let (bi, bv) = crate::kernels::linear_best(w, flat, d);
                    if bv <= 0.0 {
                        return Err(FamError::DegenerateUtility { sample: n_old + i });
                    }
                    Ok((bi, bv))
                })
                .collect::<Result<Vec<_>>>()
        });
        let mut bests = Vec::with_capacity(rows.len());
        for chunk in per_sample {
            bests.extend(chunk?);
        }
        self.vectors.extend_from_slice(&staged);
        for (bi, bv) in bests {
            self.best_index.push(bi);
            self.best_value.push(bv);
        }
        let n_new = n_old + rows.len();
        self.sample_weights.clear();
        self.sample_weights.resize(n_new, 1.0 / n_new as f64);
        Ok(())
    }

    /// Appends sampled utility functions, which must all be linear
    /// (expose [`crate::UtilityFunction::linear_weights`]) of the
    /// substrate's dimensionality. See
    /// [`LinearScores::append_weight_rows`] for the in-place/bit-identity
    /// contract.
    ///
    /// # Errors
    ///
    /// As [`LinearScores::append_weight_rows`]; a non-linear function
    /// reports [`FamError::InvalidParameter`] (materialize a
    /// [`crate::ScoreMatrix`] for those instead).
    pub fn append_functions(
        &mut self,
        functions: &[std::sync::Arc<dyn crate::utility::UtilityFunction>],
    ) -> Result<()> {
        let mut rows = Vec::with_capacity(functions.len());
        for f in functions {
            match f.linear_weights() {
                Some(w) if w.len() == self.dim => rows.push(w.to_vec()),
                Some(w) => {
                    return Err(FamError::DimensionMismatch { expected: self.dim, got: w.len() })
                }
                None => {
                    return Err(FamError::InvalidParameter {
                        name: "functions",
                        message: "LinearScores appends linear utilities only; \
                                  materialize a ScoreMatrix for general functions"
                            .into(),
                    })
                }
            }
        }
        self.append_weight_rows(&rows)
    }

    /// Samples `count` fresh weight vectors i.i.d. uniform on `[0,1]^d`
    /// and appends them — the incremental twin of
    /// [`LinearScores::sample_uniform`]: continuing the **same** RNG that
    /// built the substrate reproduces the from-scratch sample stream
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// As [`LinearScores::append_weight_rows`].
    pub fn append_uniform(&mut self, count: usize, rng: &mut dyn RngCore) -> Result<()> {
        let d = self.dim;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            // Identical rejection loop to `sample_uniform`, so the RNG
            // consumption (and thus the stream continuation) matches.
            loop {
                let r: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..=1.0)).collect();
                if r.iter().any(|w| *w > 0.0) {
                    rows.push(r);
                    break;
                }
            }
        }
        self.append_weight_rows(&rows)
    }

    /// Samples `count` fresh weight vectors uniform on the probability
    /// simplex and appends them — the incremental twin of
    /// [`LinearScores::sample_simplex`], with the same
    /// stream-continuation contract as [`LinearScores::append_uniform`].
    ///
    /// # Errors
    ///
    /// As [`LinearScores::append_weight_rows`].
    pub fn append_simplex(&mut self, count: usize, rng: &mut dyn RngCore) -> Result<()> {
        let d = self.dim;
        let mut rows = vec![vec![0.0; d]; count];
        for r in &mut rows {
            randext::uniform_simplex_into(rng, r);
        }
        self.append_weight_rows(&rows)
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The weight vector of sample `u`.
    pub fn weight_vector(&self, u: usize) -> &[f64] {
        &self.vectors[u * self.dim..(u + 1) * self.dim]
    }

    /// Approximate heap footprint in bytes — `O(d(N + n))`, versus the
    /// `O(nN)` of a materialized [`crate::ScoreMatrix`].
    pub fn approx_bytes(&self) -> usize {
        (self.vectors.len()
            + self.dataset.as_flat().len()
            + self.sample_weights.len()
            + self.best_value.len())
            * std::mem::size_of::<f64>()
            + self.best_index.len() * std::mem::size_of::<u32>()
    }
}

impl ScoreSource for LinearScores {
    #[inline]
    fn n_samples(&self) -> usize {
        self.sample_weights.len()
    }

    #[inline]
    fn n_points(&self) -> usize {
        self.dataset.len()
    }

    #[inline]
    fn score(&self, u: usize, p: usize) -> f64 {
        let w = &self.vectors[u * self.dim..(u + 1) * self.dim];
        crate::kernels::dot(w, self.dataset.point(p))
    }

    #[inline]
    fn weights(&self) -> &[f64] {
        &self.sample_weights
    }

    #[inline]
    fn best_values(&self) -> &[f64] {
        &self.best_value
    }

    #[inline]
    fn best_index(&self, u: usize) -> usize {
        self.best_index[u] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scores::ScoreMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        Dataset::from_rows(vec![vec![0.9, 0.1, 0.3], vec![0.2, 0.8, 0.5], vec![0.5, 0.5, 0.9]])
            .unwrap()
    }

    #[test]
    fn matches_materialized_matrix_exactly() {
        let ds = dataset();
        let rows = vec![vec![1.0, 0.0, 0.0], vec![0.2, 0.5, 0.9], vec![0.4, 0.4, 0.4]];
        let compact = LinearScores::from_weight_rows(ds.clone(), rows.clone()).unwrap();
        // Materialize the same scores.
        let mut flat = Vec::new();
        for r in &rows {
            for p in ds.points() {
                flat.push(p.iter().zip(r).map(|(a, b)| a * b).sum());
            }
        }
        let dense = ScoreMatrix::from_flat(flat, 3, 3, None).unwrap();
        for u in 0..3 {
            assert_eq!(compact.best_index(u), ScoreSource::best_index(&dense, u));
            assert!((compact.best_value(u) - ScoreSource::best_value(&dense, u)).abs() < 1e-12);
            for p in 0..3 {
                assert!((compact.score(u, p) - ScoreSource::score(&dense, u, p)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn validation() {
        let ds = dataset();
        assert!(LinearScores::from_weight_rows(ds.clone(), vec![]).is_err());
        assert!(LinearScores::from_weight_rows(ds.clone(), vec![vec![1.0]]).is_err());
        assert!(LinearScores::from_weight_rows(ds.clone(), vec![vec![-1.0, 0.0, 0.0]]).is_err());
        assert!(
            LinearScores::from_weight_rows(ds.clone(), vec![vec![0.0, 0.0, 0.0]]).is_err(),
            "all-zero weights score every point 0"
        );
        let mut rng = StdRng::seed_from_u64(1);
        assert!(LinearScores::sample_uniform(ds.clone(), 0, &mut rng).is_err());
        assert!(LinearScores::sample_simplex(ds, 0, &mut rng).is_err());
    }

    #[test]
    fn sampling_constructors_produce_valid_sources() {
        let mut rng = StdRng::seed_from_u64(2);
        for src in [
            LinearScores::sample_uniform(dataset(), 200, &mut rng).unwrap(),
            LinearScores::sample_simplex(dataset(), 200, &mut rng).unwrap(),
        ] {
            assert_eq!(src.n_samples(), 200);
            assert_eq!(src.n_points(), 3);
            for u in 0..200 {
                assert!(src.best_value(u) > 0.0);
                let manual = (0..3).map(|p| src.score(u, p)).fold(0.0f64, f64::max);
                assert!((src.best_value(u) - manual).abs() < 1e-12);
            }
            let total: f64 = (0..200).map(|u| src.weight(u)).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn append_matches_from_scratch_bitwise() {
        let ds = dataset();
        // Build 30, append 50 continuing the same RNG; compare against a
        // one-shot build of 80 from a fresh RNG with the same seed.
        let mut rng = StdRng::seed_from_u64(7);
        let mut grown = LinearScores::sample_uniform(ds.clone(), 30, &mut rng).unwrap();
        grown.append_uniform(50, &mut rng).unwrap();
        let fresh =
            LinearScores::sample_uniform(ds.clone(), 80, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(grown.n_samples(), 80);
        for u in 0..80 {
            assert_eq!(grown.weight_vector(u), fresh.weight_vector(u), "sample {u}");
            assert_eq!(grown.best_index(u), fresh.best_index(u));
            assert_eq!(grown.best_value(u).to_bits(), fresh.best_value(u).to_bits());
            assert_eq!(grown.weight(u).to_bits(), fresh.weight(u).to_bits());
        }
        // Same for the simplex sampler.
        let mut rng = StdRng::seed_from_u64(8);
        let mut grown = LinearScores::sample_simplex(ds.clone(), 20, &mut rng).unwrap();
        grown.append_simplex(25, &mut rng).unwrap();
        let fresh = LinearScores::sample_simplex(ds, 45, &mut StdRng::seed_from_u64(8)).unwrap();
        for u in 0..45 {
            assert_eq!(grown.weight_vector(u), fresh.weight_vector(u), "sample {u}");
            assert_eq!(grown.best_value(u).to_bits(), fresh.best_value(u).to_bits());
        }
    }

    #[test]
    fn append_functions_takes_linear_utilities_only() {
        use crate::utility::{LinearUtility, TableUtility};
        use std::sync::Arc;
        let ds = dataset();
        let mut src =
            LinearScores::from_weight_rows(ds.clone(), vec![vec![1.0, 0.0, 0.0]]).unwrap();
        let linear: Vec<Arc<dyn crate::UtilityFunction>> =
            vec![Arc::new(LinearUtility::new(vec![0.2, 0.5, 0.9]).unwrap())];
        src.append_functions(&linear).unwrap();
        assert_eq!(src.n_samples(), 2);
        assert_eq!(src.weight_vector(1), &[0.2, 0.5, 0.9]);
        // From-scratch equivalence over the concatenated rows.
        let fresh = LinearScores::from_weight_rows(
            ds.clone(),
            vec![vec![1.0, 0.0, 0.0], vec![0.2, 0.5, 0.9]],
        )
        .unwrap();
        for u in 0..2 {
            assert_eq!(src.best_index(u), fresh.best_index(u));
            assert_eq!(src.best_value(u).to_bits(), fresh.best_value(u).to_bits());
            assert_eq!(src.weight(u).to_bits(), fresh.weight(u).to_bits());
        }
        let table: Vec<Arc<dyn crate::UtilityFunction>> =
            vec![Arc::new(TableUtility::new(vec![0.5, 0.5, 0.5]).unwrap())];
        assert!(src.append_functions(&table).is_err(), "non-linear utilities are rejected");
        let wrong_dim: Vec<Arc<dyn crate::UtilityFunction>> =
            vec![Arc::new(LinearUtility::new(vec![1.0]).unwrap())];
        assert!(src.append_functions(&wrong_dim).is_err());
        assert_eq!(src.n_samples(), 2, "failed appends leave the substrate untouched");
    }

    #[test]
    fn append_rejections_are_atomic() {
        let ds = dataset();
        let mut src =
            LinearScores::from_weight_rows(ds, vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]])
                .unwrap();
        let before = src.clone();
        assert!(src.append_weight_rows(&[vec![1.0, 1.0]]).is_err(), "ragged");
        assert!(src.append_weight_rows(&[vec![-1.0, 0.0, 0.0]]).is_err(), "negative");
        assert!(src.append_weight_rows(&[vec![f64::NAN, 0.0, 0.0]]).is_err(), "non-finite");
        assert!(
            src.append_weight_rows(&[vec![1.0, 1.0, 1.0], vec![0.0, 0.0, 0.0]]).is_err(),
            "degenerate row anywhere in the batch rejects the whole batch"
        );
        src.append_weight_rows(&[]).unwrap();
        assert_eq!(src.n_samples(), before.n_samples());
        for u in 0..2 {
            assert_eq!(src.weight_vector(u), before.weight_vector(u));
            assert_eq!(src.best_value(u).to_bits(), before.best_value(u).to_bits());
            assert_eq!(src.weight(u).to_bits(), before.weight(u).to_bits());
        }
    }

    #[test]
    fn memory_is_compact() {
        let mut rng = StdRng::seed_from_u64(3);
        let n_points = 500;
        let big = Dataset::from_rows(
            (0..n_points).map(|i| vec![(i % 97) as f64 / 97.0 + 0.01, 0.5, 0.5]).collect(),
        )
        .unwrap();
        let src = LinearScores::sample_uniform(big, 1_000, &mut rng).unwrap();
        // d(N + n) * 8 bytes plus bookkeeping, far below N*n*8 = 4 MB.
        assert!(src.approx_bytes() < 200_000, "footprint {}", src.approx_bytes());
    }
}
