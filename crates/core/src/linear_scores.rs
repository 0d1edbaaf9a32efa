//! Compact linear score storage — the `O(d(N+n))` space optimization of
//! Section III-D-3.
//!
//! When utility functions are linear, storing the `N × d` weight vectors
//! and the `n × d` database is enough: scores are recomputed on demand at
//! a factor-`d` time cost. [`LinearScores`] implements [`ScoreSource`], so
//! GREEDY-SHRINK and the other sampled algorithms run on it unchanged —
//! which is what makes the `n = 10⁶⁺` sweeps of Figure 7 feasible without
//! a multi-gigabyte matrix — and every score it produces is bit-identical
//! to the same score in a [`crate::ScoreMatrix`] built from the same
//! functions ([`kernels::dot`]'s chain, see [`kernels::linear_fill`]).
//!
//! Both operands are also kept transposed (`d × N` weights, `d × n`
//! coordinates), so a column band or a whole row is one streaming
//! [`kernels::linear_fill`]. Every copy shares the weights through an
//! `Arc`: [`LinearScores::with_point_edits`] derives the next point
//! universe by scoring only the inserted points and rescanning only the
//! samples whose best point was deleted, and [`LinearScores::with_points`]
//! scores another point set under the same weights.

use std::ops::Range;
use std::sync::Arc;

use crate::backing::ScoreBacking;
use crate::dataset::Dataset;
use crate::error::{FamError, Result};
use crate::kernels;
use crate::scores::{MemberScores, ScoreSource};
use crate::utility::UtilityFunction;

/// Linear utility samples stored as weight vectors; scores computed on
/// demand as dot products.
#[derive(Debug, Clone)]
pub struct LinearScores {
    /// `N × d` row-major utility weight vectors.
    vectors: Arc<Vec<f64>>,
    /// The same weights transposed to `d × N`, streamed by column fills.
    vectors_t: Arc<Vec<f64>>,
    dim: usize,
    dataset: Dataset,
    /// The coordinates transposed to `d × n`, streamed by row fills.
    coords_t: Vec<f64>,
    sample_weights: Arc<Vec<f64>>,
    best_index: Vec<u32>,
    best_value: Vec<f64>,
}

/// Validated best point of every weight row in `vectors` (`d` entries
/// each) over the flat coordinates, fanned out over sample chunks;
/// `first` offsets the sample index errors report. Chunks merge in
/// order, so the first offending sample wins — with the same error
/// [`crate::ScoreMatrix::from_functions`] reports for it.
fn checked_bests(
    vectors: &[f64],
    flat: &[f64],
    dim: usize,
    first: usize,
) -> Result<(Vec<u32>, Vec<f64>)> {
    let count = vectors.len() / dim;
    let per_chunk = crate::par::map_adaptive(count, flat.len(), |range| {
        range
            .map(|i| {
                let u = first + i;
                match kernels::linear_best_checked(&vectors[i * dim..(i + 1) * dim], flat, dim) {
                    Ok((_, bv)) if bv <= 0.0 => Err(FamError::DegenerateUtility { sample: u }),
                    Ok(best) => Ok(best),
                    Err(kernels::RowIssue::NonFinite { col }) => {
                        Err(FamError::NonFinite { row: u, col })
                    }
                    Err(kernels::RowIssue::Negative { col }) => {
                        Err(FamError::NegativeValue { row: u, col })
                    }
                }
            })
            .collect::<Result<Vec<_>>>()
    });
    let mut best_index = Vec::with_capacity(count);
    let mut best_value = Vec::with_capacity(count);
    for chunk in per_chunk {
        for (bi, bv) in chunk? {
            best_index.push(bi);
            best_value.push(bv);
        }
    }
    Ok((best_index, best_value))
}

impl LinearScores {
    /// Builds from explicit per-sample weight vectors with uniform sample
    /// probabilities.
    ///
    /// # Errors
    ///
    /// Returns an error for empty/ragged weights, negative or non-finite
    /// entries, scores that overflow, or samples that score every point 0.
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
        Self::finish(dataset, weights)
    }

    /// Builds from sampled utility functions, which must all be linear
    /// ([`UtilityFunction::linear_weights`]) of the dataset's
    /// dimensionality — the compact twin of
    /// [`crate::ScoreMatrix::from_functions`] with uniform weights. Every
    /// score, best point and error equals the matrix build's bit for bit:
    /// scores are validated in the same order (first offending sample,
    /// then first offending point), without materializing them.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty function list, a non-linear or
    /// wrong-dimension function, a non-finite or negative score, or a
    /// sample that scores every point 0.
    pub fn from_functions(
        dataset: Dataset,
        functions: &[Arc<dyn UtilityFunction>],
    ) -> Result<Self> {
        if functions.is_empty() {
            return Err(FamError::InvalidParameter {
                name: "functions",
                message: "must supply at least one utility function".into(),
            });
        }
        let weights = linear_weight_rows(functions, dataset.dim())?;
        Self::finish(dataset, weights)
    }

    fn finish(dataset: Dataset, weights: Vec<f64>) -> Result<Self> {
        let d = dataset.dim();
        let n_samples = weights.len() / d;
        // The O(nNd) best-point pass fans out over sample chunks; each
        // sample streams through the tiled dot-product kernel, whose
        // scores (and therefore best) are bit-identical to `score(u, p)`.
        let (best_index, best_value) = checked_bests(&weights, dataset.as_flat(), d, 0)?;
        Ok(LinearScores {
            vectors_t: Arc::new(transposed(&weights, d)),
            vectors: Arc::new(weights),
            dim: d,
            coords_t: transposed(dataset.as_flat(), d),
            dataset,
            sample_weights: Arc::new(vec![1.0 / n_samples as f64; n_samples]),
            best_index,
            best_value,
        })
    }

    /// Commits validated weight rows: the best pass over the new samples
    /// (errors leave the substrate untouched), then the appends.
    fn append_staged(&mut self, staged: Vec<f64>) -> Result<()> {
        if staged.is_empty() {
            return Ok(());
        }
        let d = self.dim;
        let n_old = self.n_samples();
        let (best_index, best_value) = checked_bests(&staged, self.dataset.as_flat(), d, n_old)?;
        let vectors = Arc::make_mut(&mut self.vectors);
        vectors.extend_from_slice(&staged);
        self.vectors_t = Arc::new(transposed(vectors, d));
        self.best_index.extend(best_index);
        self.best_value.extend(best_value);
        let n_new = vectors.len() / d;
        self.sample_weights = Arc::new(vec![1.0 / n_new as f64; n_new]);
        Ok(())
    }

    /// Appends sampled utility functions **in place**; they must all be
    /// linear (expose [`crate::UtilityFunction::linear_weights`]) of the
    /// substrate's dimensionality. This is the sample-append path that
    /// keeps progressive precision available on the compact substrate
    /// (the [`crate::ScoreMatrix`] twin is
    /// [`crate::ScoreMatrix::append_functions`]). The weight buffer
    /// extends at the end, the best-point pass runs over the new samples
    /// only, and per-sample probabilities re-spread to `1/N`, so every
    /// observable value is **bit-identical** to
    /// [`LinearScores::from_functions`] over the concatenated functions.
    /// Like that build it validates the scores, not the weights, so its
    /// errors match [`crate::ScoreMatrix::append_functions`].
    ///
    /// # Errors
    ///
    /// Returns an error, leaving the substrate untouched, for a
    /// non-linear function ([`FamError::InvalidParameter`]; materialize a
    /// [`crate::ScoreMatrix`] for those instead), a wrong-dimension one,
    /// a non-finite or negative score, or a sample that scores every
    /// point 0; the reported sample index is absolute, matching the
    /// from-scratch build.
    pub fn append_functions(&mut self, functions: &[Arc<dyn UtilityFunction>]) -> Result<()> {
        let staged = linear_weight_rows(functions, self.dim)?;
        self.append_staged(staged)
    }

    /// A copy with one point batch applied — the compact twin of
    /// `clone()` followed by [`crate::ScoreMatrix::delete_points`] and
    /// [`crate::ScoreMatrix::insert_points`]. The coordinates take the
    /// edit [`Dataset::with_point_edits`] makes (swap-remove, then
    /// append in batch order; inserted point `j` is labelled `label(j)`
    /// on labelled coordinates). Returns the copy and the remap of the
    /// current points (`None` for deleted ones).
    ///
    /// The copy shares the weights; it scores only the inserted points
    /// (`N × d` each) and rescans only the samples whose best point was
    /// deleted. Best tracking follows the matrix's rules exactly, so
    /// every best index and value equals a fresh build over the new
    /// coordinates: a rescan keeps the first strict argmax in the
    /// post-swap order; a surviving best moves to an earlier swap-moved
    /// slot that ties it bit for bit; an inserted point takes over only
    /// by scoring strictly higher.
    ///
    /// # Errors
    ///
    /// Returns an error with `self` untouched, checking in this order:
    /// an inserted point of the wrong dimension
    /// ([`FamError::DimensionMismatch`]) or with a non-finite or negative
    /// score (`row` = sample, `col` = the current point count plus the
    /// insert's batch position); a batch that leaves fewer than
    /// `min_points` points ([`FamError::InvalidK`] with `k = min_points`,
    /// counting duplicate deletes as given); an out-of-bounds or
    /// duplicate delete; a batch that deletes every point
    /// ([`FamError::EmptyDataset`]); invalid inserted coordinates (see
    /// [`Dataset::from_flat`]); and, in sample order, a sample the
    /// deletes leave with no positive score
    /// ([`FamError::DegenerateUtility`]).
    pub fn with_point_edits(
        &self,
        delete: &[usize],
        insert: &[&[f64]],
        min_points: usize,
        label: impl Fn(usize) -> String,
    ) -> Result<(LinearScores, Vec<Option<u32>>)> {
        let (n, n_samples, d) = (self.n_points(), self.n_samples(), self.dim);
        // Score every inserted point under every sample, validated as a
        // matrix validates an inserted column.
        let mut inserted = vec![0.0f64; insert.len() * n_samples];
        for (j, (coords, col)) in
            insert.iter().zip(inserted.chunks_exact_mut(n_samples)).enumerate()
        {
            if coords.len() != d {
                return Err(FamError::DimensionMismatch { expected: d, got: coords.len() });
            }
            kernels::linear_fill(coords, &self.vectors_t, n_samples, 0, col);
            for (u, &v) in col.iter().enumerate() {
                if !v.is_finite() {
                    return Err(FamError::NonFinite { row: u, col: n + j });
                }
                if v < 0.0 {
                    return Err(FamError::NegativeValue { row: u, col: n + j });
                }
            }
        }
        let n_post = (n + insert.len()).checked_sub(delete.len());
        if n_post.is_none_or(|m| m < min_points) {
            return Err(FamError::InvalidK { k: min_points, n: n_post.unwrap_or(0) });
        }
        let (dataset, remap) = self.dataset.with_point_edits(delete, insert, label)?;
        let survivors = n - delete.len();
        let coords_t = transposed(dataset.as_flat(), d);
        let n_next = dataset.len();
        // Slots whose occupant changed, ascending: every deleted slot
        // below the survivor count, refilled by a tail point. Only there
        // can a bit-equal duplicate of a surviving best move in front of
        // it.
        let mut moved: Vec<u32> =
            delete.iter().filter(|&&s| s < survivors).map(|&s| s as u32).collect();
        moved.sort_unstable();
        let (remap_ref, moved_ref, coords_t_ref, dataset_ref) =
            (&remap, &moved, &coords_t, &dataset);
        let per_chunk = crate::par::map_chunks(n_samples, crate::par::CHUNK, |samples| {
            let mut row = vec![0.0f64; survivors];
            samples
                .map(|u| {
                    let w = self.weight_vector(u);
                    let (mut bi, mut bv) = match remap_ref[self.best_index[u] as usize] {
                        Some(nb) => {
                            // First argmax in post-swap order: a moved
                            // point tying the best bit for bit at an
                            // earlier slot wins.
                            let bv = self.best_value[u];
                            let tie = moved_ref
                                .iter()
                                .take_while(|&&m| m < nb)
                                .find(|&&m| kernels::dot(w, dataset_ref.point(m as usize)) == bv);
                            (tie.copied().unwrap_or(nb), bv)
                        }
                        None => {
                            kernels::linear_fill(w, coords_t_ref, n_next, 0, &mut row);
                            let (bi, bv) = kernels::row_best(&row);
                            if bv <= 0.0 {
                                return Err(FamError::DegenerateUtility { sample: u });
                            }
                            (bi, bv)
                        }
                    };
                    for (j, col) in inserted.chunks_exact(n_samples).enumerate() {
                        if col[u] > bv {
                            bi = (survivors + j) as u32;
                            bv = col[u];
                        }
                    }
                    Ok((bi, bv))
                })
                .collect::<Result<Vec<_>>>()
        });
        let mut best_index = Vec::with_capacity(n_samples);
        let mut best_value = Vec::with_capacity(n_samples);
        for chunk in per_chunk {
            for (bi, bv) in chunk? {
                best_index.push(bi);
                best_value.push(bv);
            }
        }
        let next = LinearScores {
            vectors: Arc::clone(&self.vectors),
            vectors_t: Arc::clone(&self.vectors_t),
            dim: d,
            dataset,
            coords_t,
            sample_weights: Arc::clone(&self.sample_weights),
            best_index,
            best_value,
        };
        Ok((next, remap))
    }

    /// The same sampled weights over other points: the copy shares the
    /// weights and reruns the build's best pass over `dataset`, so every
    /// score, best and error equals [`LinearScores::from_functions`]'
    /// over `dataset` with the same functions, bit for bit.
    ///
    /// # Errors
    ///
    /// [`FamError::DimensionMismatch`] for points of another
    /// dimensionality, then the build's errors: a non-finite or negative
    /// score, or a sample that scores every point 0.
    pub fn with_points(&self, dataset: Dataset) -> Result<LinearScores> {
        if dataset.dim() != self.dim {
            return Err(FamError::DimensionMismatch { expected: self.dim, got: dataset.dim() });
        }
        let (best_index, best_value) =
            checked_bests(&self.vectors, dataset.as_flat(), self.dim, 0)?;
        Ok(LinearScores {
            vectors: Arc::clone(&self.vectors),
            vectors_t: Arc::clone(&self.vectors_t),
            dim: self.dim,
            coords_t: transposed(dataset.as_flat(), self.dim),
            dataset,
            sample_weights: Arc::clone(&self.sample_weights),
            best_index,
            best_value,
        })
    }

    /// Number of utility samples `N`.
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.sample_weights.len()
    }

    /// Number of database points `n`.
    #[inline]
    pub fn n_points(&self) -> usize {
        self.dataset.len()
    }

    /// Always `false`: no score layout is stored, so column bands are
    /// computed (the [`crate::ScoreMatrix::has_column_mirror`] twin).
    #[inline]
    pub fn has_column_mirror(&self) -> bool {
        false
    }

    /// The underlying dataset: the live point coordinates, in score
    /// column order.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The weight vector of sample `u`.
    #[inline]
    pub fn weight_vector(&self, u: usize) -> &[f64] {
        &self.vectors[u * self.dim..(u + 1) * self.dim]
    }

    /// Approximate heap footprint in bytes — `O(d(N + n))`, versus the
    /// `O(nN)` of a materialized [`crate::ScoreMatrix`] (both operands
    /// are held twice, row-major and transposed).
    pub fn approx_bytes(&self) -> usize {
        (self.vectors.len()
            + self.vectors_t.len()
            + self.dataset.as_flat().len()
            + self.coords_t.len()
            + self.sample_weights.len()
            + self.best_value.len())
            * std::mem::size_of::<f64>()
            + self.best_index.len() * std::mem::size_of::<u32>()
    }
}

/// A row-major `rows × dim` buffer transposed to `dim × rows`: the
/// operand layout [`kernels::linear_fill`] streams.
fn transposed(flat: &[f64], dim: usize) -> Vec<f64> {
    kernels::transpose(flat, flat.len() / dim, dim)
}

/// The weight vectors of linear utility functions of dimension `dim`,
/// flattened sample-major.
fn linear_weight_rows(functions: &[Arc<dyn UtilityFunction>], dim: usize) -> Result<Vec<f64>> {
    let mut rows = Vec::with_capacity(functions.len() * dim);
    for f in functions {
        match f.linear_weights() {
            Some(w) if w.len() == dim => rows.extend_from_slice(w),
            Some(w) => return Err(FamError::DimensionMismatch { expected: dim, got: w.len() }),
            None => {
                return Err(FamError::InvalidParameter {
                    name: "functions",
                    message: "LinearScores holds linear utilities only; \
                              materialize a ScoreMatrix for general functions"
                        .into(),
                })
            }
        }
    }
    Ok(rows)
}

/// The column operands of a [`LinearScores`] — the `d × N` weights and
/// the point coordinates — for the column folds that compute each score
/// as they consume it ([`ScoreSource::linear_columns`]). Filling a band
/// and then folding it runs the fill's multiply-adds and the fold's
/// divisions one after the other; fused, they overlap.
#[derive(Debug, Clone, Copy)]
pub struct LinearColumns<'a> {
    weights_t: &'a [f64],
    n_samples: usize,
    coords: &'a Dataset,
}

impl LinearColumns<'_> {
    /// Folds [`kernels::addition_term`] of point `p` over the samples
    /// `first..first + weights.len()` into `sum`
    /// ([`kernels::linear_addition_fold`]). `first` must be a multiple
    /// of [`kernels::LANES`].
    #[inline]
    pub fn addition_fold(
        &self,
        p: usize,
        first: usize,
        weights: &[f64],
        top1: &[f64],
        best: &[f64],
        sum: &mut kernels::LaneSum,
    ) {
        let point = self.coords.point(p);
        kernels::linear_addition_fold(
            point,
            self.weights_t,
            self.n_samples,
            first,
            weights,
            top1,
            best,
            sum,
        );
    }

    /// Folds [`kernels::regret_term`] of point `p` over the samples
    /// `first..first + sat.len()` into `max`
    /// ([`kernels::linear_regret_fold`]).
    #[inline]
    pub fn regret_fold(
        &self,
        p: usize,
        first: usize,
        sat: &[f64],
        best: &[f64],
        max: &mut kernels::LaneMax,
    ) {
        let point = self.coords.point(p);
        kernels::linear_regret_fold(point, self.weights_t, self.n_samples, first, sat, best, max);
    }
}

impl ScoreSource for LinearScores {
    #[inline]
    fn n_samples(&self) -> usize {
        LinearScores::n_samples(self)
    }

    #[inline]
    fn n_points(&self) -> usize {
        LinearScores::n_points(self)
    }

    #[inline]
    fn score(&self, u: usize, p: usize) -> f64 {
        kernels::dot(self.weight_vector(u), self.dataset.point(p))
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

    fn row_scores<'a>(&'a self, u: usize, buf: &'a mut Vec<f64>) -> &'a [f64] {
        let n = self.n_points();
        buf.resize(n, 0.0);
        kernels::linear_fill(self.weight_vector(u), &self.coords_t, n, 0, buf);
        buf
    }

    fn column_scores<'a>(
        &'a self,
        p: usize,
        samples: Range<usize>,
        buf: &'a mut [f64],
    ) -> &'a [f64] {
        let out = &mut buf[..samples.len()];
        kernels::linear_fill(
            self.dataset.point(p),
            &self.vectors_t,
            self.n_samples(),
            samples.start,
            out,
        );
        out
    }

    /// The same weights over the columns' coordinates
    /// ([`LinearScores::with_points`]).
    fn restricted(&self, columns: &[usize]) -> Result<ScoreBacking> {
        Ok(ScoreBacking::Linear(self.with_points(self.dataset.subset(columns)?)?))
    }

    fn linear_columns(&self) -> Option<LinearColumns<'_>> {
        Some(LinearColumns {
            weights_t: &self.vectors_t,
            n_samples: self.n_samples(),
            coords: &self.dataset,
        })
    }

    /// A whole row (one vectorized fill) once the members are at least a
    /// [`kernels::LANES`]-th of the points; below that, one [`kernels::dot`]
    /// per member costs less.
    fn member_scores<'a>(
        &'a self,
        u: usize,
        members: &[u32],
        buf: &'a mut Vec<f64>,
    ) -> MemberScores<'a> {
        if members.len() * kernels::LANES >= self.n_points() {
            return MemberScores::Row(self.row_scores(u, buf));
        }
        let w = self.weight_vector(u);
        buf.clear();
        buf.extend(members.iter().map(|&p| kernels::dot(w, self.dataset.point(p as usize))));
        MemberScores::Listed(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{SimplexLinear, UniformLinear, UtilityDistribution};
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
        assert!(LinearScores::from_functions(ds, &[]).is_err());
    }

    /// `count` functions drawn from `dist`, as every sampled build draws
    /// them.
    fn draws(
        dist: &dyn UtilityDistribution,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<Arc<dyn UtilityFunction>> {
        crate::sample_functions(dist, count, 3, rng).unwrap()
    }

    #[test]
    fn sampling_constructors_produce_valid_sources() {
        let mut rng = StdRng::seed_from_u64(2);
        let (uniform, simplex) = (UniformLinear::new(3).unwrap(), SimplexLinear::new(3).unwrap());
        for dist in [&uniform as &dyn UtilityDistribution, &simplex] {
            let src = LinearScores::from_functions(dataset(), &draws(dist, 200, &mut rng)).unwrap();
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
        // Build from 30 draws, append 50 more off the same RNG; compare
        // against one build from 80 draws off a fresh RNG with the same
        // seed, for both linear samplers.
        let (uniform, simplex) = (UniformLinear::new(3).unwrap(), SimplexLinear::new(3).unwrap());
        for (seed, dist) in [(7, &uniform as &dyn UtilityDistribution), (8, &simplex)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut grown =
                LinearScores::from_functions(ds.clone(), &draws(dist, 30, &mut rng)).unwrap();
            grown.append_functions(&draws(dist, 50, &mut rng)).unwrap();
            let all = draws(dist, 80, &mut StdRng::seed_from_u64(seed));
            let fresh = LinearScores::from_functions(ds.clone(), &all).unwrap();
            assert_eq!(grown.n_samples(), 80);
            for u in 0..80 {
                assert_eq!(grown.weight_vector(u), fresh.weight_vector(u), "sample {u}");
                assert_eq!(grown.best_index(u), fresh.best_index(u));
                assert_eq!(grown.best_value(u).to_bits(), fresh.best_value(u).to_bits());
                assert_eq!(grown.weight(u).to_bits(), fresh.weight(u).to_bits());
            }
        }
    }

    #[test]
    fn append_functions_takes_linear_utilities_only() {
        use crate::utility::{LinearUtility, TableUtility};
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

    /// A linear utility with any weights, checked by nothing: the
    /// scores are what [`LinearScores::append_functions`] validates.
    #[derive(Debug)]
    struct RawLinear(Vec<f64>);

    impl UtilityFunction for RawLinear {
        fn utility(&self, _index: usize, point: &[f64]) -> f64 {
            kernels::dot(&self.0, point)
        }

        fn linear_weights(&self) -> Option<&[f64]> {
            Some(&self.0)
        }
    }

    fn raw(rows: &[&[f64]]) -> Vec<Arc<dyn UtilityFunction>> {
        rows.iter().map(|w| Arc::new(RawLinear(w.to_vec())) as Arc<dyn UtilityFunction>).collect()
    }

    #[test]
    fn append_rejections_are_atomic() {
        let ds = dataset();
        let mut src =
            LinearScores::from_weight_rows(ds, vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]])
                .unwrap();
        let before = src.clone();
        assert!(src.append_functions(&raw(&[&[1.0, 1.0]])).is_err(), "ragged");
        assert!(src.append_functions(&raw(&[&[-1.0, 0.0, 0.0]])).is_err(), "negative");
        assert!(src.append_functions(&raw(&[&[f64::NAN, 0.0, 0.0]])).is_err(), "non-finite");
        assert!(
            src.append_functions(&raw(&[&[1.0, 1.0, 1.0], &[0.0, 0.0, 0.0]])).is_err(),
            "degenerate row anywhere in the batch rejects the whole batch"
        );
        src.append_functions(&[]).unwrap();
        assert_eq!(src.n_samples(), before.n_samples());
        for u in 0..2 {
            assert_eq!(src.weight_vector(u), before.weight_vector(u));
            assert_eq!(src.best_value(u).to_bits(), before.best_value(u).to_bits());
            assert_eq!(src.weight(u).to_bits(), before.weight(u).to_bits());
        }
    }

    #[test]
    fn restriction_shares_the_weights_and_equals_the_matrix_restriction() {
        let mut rng = StdRng::seed_from_u64(4);
        let ds = Dataset::from_rows(
            (0..12).map(|i| vec![(i % 5) as f64 / 5.0 + 0.05, (i % 3) as f64 / 3.0, 0.4]).collect(),
        )
        .unwrap();
        let functions =
            crate::sample_functions(&UniformLinear::new(3).unwrap(), 40, 12, &mut rng).unwrap();
        let compact = LinearScores::from_functions(ds.clone(), &functions).unwrap();
        let dense = ScoreMatrix::from_functions(&ds, &functions, None).unwrap();
        let columns = [9, 2, 4, 11];
        let ScoreBacking::Linear(kept) = compact.restricted(&columns).unwrap() else {
            panic!("a compact source restricts to a compact source");
        };
        let want = dense.restrict_columns(&columns).unwrap();
        assert!(Arc::ptr_eq(&kept.vectors, &compact.vectors), "the weights are shared");
        assert_eq!(kept.n_points(), 4);
        for u in 0..40 {
            assert_eq!(ScoreSource::best_index(&kept, u), want.best_index(u), "best of {u}");
            assert_eq!(kept.best_value(u).to_bits(), want.best_value(u).to_bits());
            assert_eq!(kept.weight(u).to_bits(), ScoreSource::weight(&want, u).to_bits());
            for p in 0..4 {
                assert_eq!(kept.score(u, p).to_bits(), want.score(u, p).to_bits());
            }
        }
        // Both backings refuse the same restrictions with the same error.
        let flat = LinearScores::from_weight_rows(
            Dataset::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap(),
            vec![vec![1.0, 0.0]],
        )
        .unwrap();
        let flat_dense = ScoreMatrix::from_flat(vec![1.0, 0.0], 1, 2, None).unwrap();
        for columns in [&[][..], &[2], &[1]] {
            assert_eq!(
                flat.restricted(columns).unwrap_err(),
                flat_dense.restricted(columns).unwrap_err(),
                "{columns:?}"
            );
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
        let src = LinearScores::from_functions(
            big,
            &draws(&UniformLinear::new(3).unwrap(), 1_000, &mut rng),
        )
        .unwrap();
        // d(N + n) * 8 bytes plus bookkeeping, far below N*n*8 = 4 MB.
        assert!(src.approx_bytes() < 200_000, "footprint {}", src.approx_bytes());
    }
}
