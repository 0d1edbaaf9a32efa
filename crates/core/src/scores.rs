//! The sampled utility-score matrix.
//!
//! Every FAM algorithm in this workspace consumes utilities through a
//! [`ScoreMatrix`]: an `N × n` matrix whose entry `(u, p)` is the utility of
//! point `p` under sampled (or enumerated) utility function `u`. Building it
//! corresponds exactly to the paper's preprocessing step: sample `N` utility
//! functions from `Θ` (`O(nN)`) and find each user's best point in `D`
//! (`O(nN)`).
//!
//! # Layout
//!
//! The matrix is stored twice, both exact-size: **sample-major** (row
//! `u` is `n_points` contiguous scores) and mirrored **point-major**
//! (column `p` is `n_samples` contiguous scores). The two layouts serve
//! the two access patterns of the paper's algorithms:
//!
//! * removal rescans (GREEDY-SHRINK, the evaluator's `rebuild`) stream a
//!   sample's **row**;
//! * addition scans (ADD-GREEDY, K-HIT, MRR-GREEDY, local search's
//!   replacement scans) stream a candidate point's **column** — read
//!   from the rows, each probe would be a stride-`n` cache miss.
//!
//! The mirror doubles the memory and pays for it: on the engine bench
//! (`n = 2,000`, `N = 50,000`, one thread) ADD-GREEDY took 5,864 ms
//! probing the rows against 555 ms on the mirror, while the row-bound
//! GREEDY-SHRINK did not move (385 vs 401 ms); see `docs/PERFORMANCE.md`.
//!
//! Consumers read scores through [`ScoreSource`]'s borrow-or-fill
//! accessors ([`ScoreSource::row_scores`],
//! [`ScoreSource::column_scores`], [`ScoreSource::member_scores`]): the
//! matrix lends its rows and mirror columns, while the compact
//! [`crate::linear_scores::LinearScores`] substrate computes the same
//! bits into the caller's buffer. Construction and the per-row
//! best-point pass run on the worker pool; results are bit-identical to
//! a one-thread build (see [`crate::par`]).
//!
//! Point edits ([`ScoreMatrix::insert_points`],
//! [`ScoreMatrix::delete_points`]) and sample appends
//! ([`ScoreMatrix::append_functions`]) re-lay both buffers at the new
//! exact size, so an edited matrix equals a fresh build of its rows bit
//! for bit. Scoring, validation, and the best-point pass go through the
//! cache-blocked kernels in [`crate::kernels`]; the full memory-layout
//! and performance model is documented in `docs/PERFORMANCE.md`.

use std::ops::Range;
use std::sync::Arc;

use rand::RngCore;

use crate::backing::ScoreBacking;
use crate::dataset::Dataset;
use crate::distribution::{DiscreteDistribution, UtilityDistribution};
use crate::error::{FamError, Result};
use crate::utility::UtilityFunction;

/// Read access to sampled utility scores — the interface every FAM
/// algorithm evaluates through.
///
/// The canonical implementation is the materialized [`ScoreMatrix`]
/// (`O(nN)` space). [`crate::linear_scores::LinearScores`] trades space for
/// time per Section III-D-3 of the paper: `O(d(N+n))` storage with scores
/// recomputed on demand (a factor-`d` time overhead), bit-identical to the
/// matrix's.
pub trait ScoreSource: Send + Sync {
    /// Number of utility samples `N`.
    fn n_samples(&self) -> usize;
    /// Number of database points `n`.
    fn n_points(&self) -> usize;
    /// Score of point `p` under sample `u`.
    fn score(&self, u: usize, p: usize) -> f64;
    /// Probability mass of every sample, in sample order (sums to 1).
    ///
    /// Per-sample loops take this slice (and [`ScoreSource::best_values`])
    /// once, outside the loop: through a `&dyn ScoreSource` every
    /// per-element [`ScoreSource::weight`] call is an indirect call that
    /// also keeps the loop from vectorizing.
    fn weights(&self) -> &[f64];
    /// `sat(D, f_u)` of every sample, in sample order.
    fn best_values(&self) -> &[f64];
    /// Index of sample `u`'s best point in the full database.
    fn best_index(&self, u: usize) -> usize;

    /// Probability mass of sample `u` (sums to 1 over all samples).
    #[inline]
    fn weight(&self, u: usize) -> f64 {
        self.weights()[u]
    }

    /// `sat(D, f_u)` — sample `u`'s best database score.
    #[inline]
    fn best_value(&self, u: usize) -> f64 {
        self.best_values()[u]
    }

    /// Sample `u`'s scores over every point, in point order: borrowed
    /// from a sample-major layout ([`ScoreMatrix`]), or computed into
    /// `buf` (resized to `n_points`) by a substrate that stores no rows
    /// ([`crate::LinearScores`]). Per-sample loops pass one `buf` per
    /// chunk of samples, so neither form allocates per row.
    fn row_scores<'a>(&'a self, u: usize, buf: &'a mut Vec<f64>) -> &'a [f64];

    /// Point `p`'s scores for the samples in `samples`, in sample order:
    /// borrowed from a point-major layout (the [`ScoreMatrix`] mirror),
    /// or computed into `buf[..samples.len()]` by a substrate that
    /// stores no columns ([`crate::LinearScores`]).
    /// Column consumers walk the samples in bands of
    /// [`crate::kernels::BAND`] and fold each band while it is
    /// L1-resident ([`crate::kernels::LaneSum`]), so both forms fold the
    /// same terms in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the band, or the band exceeds
    /// `n_samples`.
    fn column_scores<'a>(
        &'a self,
        p: usize,
        samples: Range<usize>,
        buf: &'a mut [f64],
    ) -> &'a [f64];

    /// The operands of a substrate that computes its scores from linear
    /// weights, so the two hot column folds (the evaluator's addition
    /// scan and MRR-GREEDY's candidate scan) can compute each score as
    /// they consume it ([`crate::LinearColumns`]) instead of folding a
    /// filled band: `Some` for [`crate::LinearScores`], `None` (the
    /// default) for a stored matrix, whose bands
    /// [`ScoreSource::column_scores`] lends. Both fold the same terms in
    /// the same lane order.
    fn linear_columns(&self) -> Option<crate::LinearColumns<'_>> {
        None
    }

    /// Sample `u`'s scores of the points in `members`, for scans that
    /// visit members in list order (the evaluator's top-two rescans):
    /// the whole row when reading it is cheap ([`MemberScores::Row`] —
    /// always for a stored matrix), or just the members' scores in list
    /// order ([`MemberScores::Listed`]) when a computing substrate would
    /// otherwise score every point for a few members. Either way the scan
    /// sees the same scores in the same order.
    fn member_scores<'a>(
        &'a self,
        u: usize,
        members: &[u32],
        buf: &'a mut Vec<f64>,
    ) -> MemberScores<'a> {
        let _ = members;
        MemberScores::Row(self.row_scores(u, buf))
    }

    /// The same scores restricted to the given point columns (in order),
    /// in this source's own backing, with per-sample bests recomputed
    /// over the restricted universe: the step behind a per-request
    /// candidate reduction (`fam-reduce`). A [`ScoreMatrix`] copies the
    /// kept columns ([`ScoreMatrix::restrict_columns`]); a
    /// [`crate::LinearScores`] shares its weights and keeps only the
    /// columns' coordinates. The sample weights pass through bit for
    /// bit: re-normalizing them would move reduced objectives by an ULP.
    ///
    /// # Errors
    ///
    /// Returns an error if `columns` is empty, out of bounds, or the
    /// restriction makes some row degenerate (no positive score).
    fn restricted(&self, columns: &[usize]) -> Result<ScoreBacking>;
}

impl ScoreSource for ScoreMatrix {
    #[inline]
    fn n_samples(&self) -> usize {
        ScoreMatrix::n_samples(self)
    }

    #[inline]
    fn n_points(&self) -> usize {
        ScoreMatrix::n_points(self)
    }

    #[inline]
    fn score(&self, u: usize, p: usize) -> f64 {
        ScoreMatrix::score(self, u, p)
    }

    #[inline]
    fn weights(&self) -> &[f64] {
        &self.weights
    }

    #[inline]
    fn best_values(&self) -> &[f64] {
        &self.best_value
    }

    #[inline]
    fn best_index(&self, u: usize) -> usize {
        ScoreMatrix::best_index(self, u)
    }

    #[inline]
    fn row_scores<'a>(&'a self, u: usize, _buf: &'a mut Vec<f64>) -> &'a [f64] {
        ScoreMatrix::row(self, u)
    }

    #[inline]
    fn column_scores<'a>(
        &'a self,
        p: usize,
        samples: Range<usize>,
        _buf: &'a mut [f64],
    ) -> &'a [f64] {
        &ScoreMatrix::column(self, p)[samples]
    }

    fn restricted(&self, columns: &[usize]) -> Result<ScoreBacking> {
        ScoreMatrix::restrict_columns(self, columns).map(ScoreBacking::Dense)
    }
}

/// One sample's scores over a member list, as
/// [`ScoreSource::member_scores`] hands them out.
#[derive(Debug, Clone, Copy)]
pub enum MemberScores<'a> {
    /// The sample's whole row, indexed by point.
    Row(&'a [f64]),
    /// One score per listed member, in list order.
    Listed(&'a [f64]),
}

/// An `N × n` matrix of utility scores with per-row probability weights.
///
/// Row `u` holds the utility of every database point under utility function
/// `u`; `weight(u)` is the probability mass of that function (uniform `1/N`
/// for i.i.d. samples, the exact atom probability for countable `F`). The
/// per-row best point over the full database — `sat(D, f)` and its argmax —
/// is precomputed at construction.
///
/// Construction validates every entry (finite, non-negative) and rejects
/// all-zero rows, so consumers may divide by [`ScoreMatrix::best_value`]
/// unconditionally: `0 < best_value(u) ≤ f64::MAX` and
/// `score(u, p) ≤ best_value(u)` hold for every stored entry.
///
/// ```
/// use fam_core::{ScoreMatrix, ScoreSource};
///
/// let m = ScoreMatrix::from_rows(
///     vec![vec![0.9, 0.7, 0.2], vec![0.6, 1.0, 0.5]],
///     None, // uniform weights
/// )?;
/// assert_eq!((m.n_samples(), m.n_points()), (2, 3));
/// assert_eq!((m.best_index(1), m.best_value(1)), (1, 1.0));
/// assert_eq!(m.row(0), &[0.9, 0.7, 0.2]); // sample-major
/// assert_eq!(m.column(1), &[0.7, 1.0]); // point-major mirror
/// assert_eq!(m.weight(0), 0.5);
/// # Ok::<(), fam_core::FamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScoreMatrix {
    /// Sample-major, exact-size: row `u` is
    /// `scores[u * n_points..(u + 1) * n_points]`.
    scores: Vec<f64>,
    /// Point-major mirror, exact-size: `columns[p * n_samples + u] ==
    /// score(u, p)`. A second copy of the scores that buys contiguous
    /// column reads for the addition scans.
    columns: Vec<f64>,
    n_samples: usize,
    n_points: usize,
    weights: Vec<f64>,
    best_index: Vec<u32>,
    best_value: Vec<f64>,
}

/// Per-sample summary of what a reduced build left behind: how far the
/// kept universe's best satisfaction falls short of the full database's,
/// aggregated over samples. A skyline `keep` yields exactly `0.0`
/// shortfall (the skyline contains a best point for every monotone
/// utility); a coreset's shortfall is the regret actually introduced by
/// reduction, to be compared against its declared `ε`.
///
/// Every producer folds through [`TiledBuildStats::from_bests`] — the
/// tiled builds ([`ScoreMatrix::from_functions_tiled`]), the production
/// skyline-sourced build (`fam_reduce::Reduction::score_matrix`) and the
/// engine's restriction of a pre-built matrix — so one reduction reports
/// the same bits however its matrix arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiledBuildStats {
    /// Points in the full dataset the reduction was computed over.
    pub source_points: usize,
    /// Points kept — the built matrix's column count.
    pub kept_points: usize,
    /// Largest per-sample relative shortfall
    /// `(sat(D, f) − sat(kept, f)) / sat(D, f)`.
    pub max_shortfall: f64,
    /// Mean per-sample relative shortfall (uniform over samples).
    pub mean_shortfall: f64,
}

impl TiledBuildStats {
    /// Folds per-sample bests into the stats: `full_best[u]` is
    /// `sat(D, f_u)`, `kept_best[u]` is `sat(kept, f_u)`. The max and the
    /// mean go through [`crate::kernels::lane_max`] /
    /// [`crate::kernels::lane_sum`], the canonical fold every producer
    /// shares.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn from_bests(
        source_points: usize,
        kept_points: usize,
        full_best: &[f64],
        kept_best: &[f64],
    ) -> Self {
        assert_eq!(full_best.len(), kept_best.len(), "one best per sample on both sides");
        let shortfall = |u: usize| {
            let (full, kept) = (full_best[u], kept_best[u]);
            if full > kept {
                (full - kept) / full
            } else {
                0.0
            }
        };
        let n = kept_best.len();
        TiledBuildStats {
            source_points,
            kept_points,
            max_shortfall: crate::kernels::lane_max(0.0, n, shortfall),
            mean_shortfall: crate::kernels::lane_sum(n, shortfall) / n as f64,
        }
    }
}

impl ScoreMatrix {
    /// Builds the matrix by sampling `n_samples` utility functions from
    /// `dist` and scoring every point of `dataset`. It always
    /// materializes `N × n`; [`crate::ScoreBacking::sample`] makes the
    /// same draws and holds a linear population compactly instead.
    ///
    /// # Errors
    ///
    /// Returns an error if `n_samples == 0`, the footprint is over
    /// [`crate::check_matrix_budget`], a sampled function produces a
    /// non-finite or negative score, or some function scores every point 0
    /// (regret ratio undefined).
    pub fn from_distribution(
        dataset: &Dataset,
        dist: &dyn UtilityDistribution,
        n_samples: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self> {
        let functions = crate::backing::sample_functions(dist, n_samples, dataset.len(), rng)?;
        Self::from_functions(dataset, &functions, None)
    }

    /// Builds the matrix from explicit utility functions with optional
    /// probability weights (normalized; uniform when `None`).
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as
    /// [`ScoreMatrix::from_distribution`], or if `weights` has the wrong
    /// length or invalid values.
    pub fn from_functions(
        dataset: &Dataset,
        functions: &[Arc<dyn UtilityFunction>],
        weights: Option<Vec<f64>>,
    ) -> Result<Self> {
        if functions.is_empty() {
            return Err(FamError::InvalidParameter {
                name: "functions",
                message: "must supply at least one utility function".into(),
            });
        }
        let n_points = dataset.len();
        let n_samples = functions.len();
        let weights = normalize_weights(weights, n_samples)?;
        let mut scores = vec![0.0f64; n_samples * n_points];
        let (best_index, best_value) =
            fill_rows(&mut scores, n_points, |u, row| score_row(&*functions[u], dataset, row, u))?;
        Ok(Self::assemble(scores, n_samples, n_points, weights, best_index, best_value))
    }

    /// Builds a matrix over the `keep` subset of `dataset`'s points by
    /// sampling `n_samples` functions from `dist`, streaming **every**
    /// point of `dataset` in bands so the dense `N × n` matrix is never
    /// resident — only the `N × keep.len()` result is allocated, and the
    /// [`crate::sampling::check_matrix_budget`] guard is applied to that
    /// reduced footprint.
    ///
    /// This is the full-stream reference: it scores every point just to
    /// learn each sample's full-database best. Production reduced builds
    /// (`fam_reduce::Reduction::score_matrix`) call
    /// [`ScoreMatrix::from_functions_tiled`] with the *skyline* as
    /// `dataset` instead — for monotone utilities the skyline's best is
    /// the full database's best bit for bit — and the reduction bench
    /// and tests pin the two against each other.
    ///
    /// The sample stream is identical to [`ScoreMatrix::from_distribution`]
    /// (`dist.sample(rng)` per sample, in order), and the produced matrix
    /// is **bit-identical** to `from_distribution(&dataset.subset(keep)?,
    /// dist, n_samples, rng)` for coordinate-based utilities — pinned by
    /// tests. The returned [`TiledBuildStats`] additionally report, per
    /// sample, how far the kept universe's best falls short of the full
    /// database's best (exactly `0.0` when `keep` is a skyline).
    ///
    /// Index-dependent utilities ([`crate::TableUtility`]) are not
    /// supported here: the streaming pass scores points by coordinates
    /// under their *original* index; materialize
    /// [`Dataset::subset`] and use [`ScoreMatrix::from_functions`]
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns an error when `n_samples == 0`, `keep` is empty /
    /// out of bounds / not strictly ascending, the reduced footprint
    /// exceeds the matrix budget, or a sampled function is degenerate on
    /// the kept universe.
    pub fn from_distribution_tiled(
        dataset: &Dataset,
        dist: &dyn UtilityDistribution,
        n_samples: usize,
        rng: &mut dyn RngCore,
        keep: &[usize],
    ) -> Result<(Self, TiledBuildStats)> {
        let functions = crate::backing::sample_functions(dist, n_samples, keep.len(), rng)?;
        Self::from_functions_tiled(dataset, &functions, None, keep)
    }

    /// [`ScoreMatrix::from_distribution_tiled`] with explicit utility
    /// functions and optional weights; see there for the contract.
    ///
    /// # Errors
    ///
    /// See [`ScoreMatrix::from_distribution_tiled`].
    pub fn from_functions_tiled(
        dataset: &Dataset,
        functions: &[Arc<dyn UtilityFunction>],
        weights: Option<Vec<f64>>,
        keep: &[usize],
    ) -> Result<(Self, TiledBuildStats)> {
        if functions.is_empty() {
            return Err(FamError::InvalidParameter {
                name: "functions",
                message: "must supply at least one utility function".into(),
            });
        }
        if keep.is_empty() {
            return Err(FamError::EmptyDataset);
        }
        let full_n = dataset.len();
        for (i, &c) in keep.iter().enumerate() {
            if c >= full_n {
                return Err(FamError::IndexOutOfBounds { index: c, len: full_n });
            }
            if i > 0 && keep[i - 1] >= c {
                return Err(FamError::InvalidParameter {
                    name: "keep",
                    message: "kept indices must be strictly ascending".into(),
                });
            }
        }
        let n_points = keep.len();
        let n_samples = functions.len();
        let weights = normalize_weights(weights, n_samples)?;
        let flat = dataset.as_flat();
        let dim = dataset.dim();
        // One band of full-dataset scores per worker: scored through the
        // same kernels as the dense build, summarized for the running
        // full-database best, and drained into the kept columns — so the
        // kept row is bit-equal to scoring the materialized subset, while
        // the working set stays `O(band)` per worker.
        let band_points = (crate::kernels::TILE * 8).min(full_n);
        let mut scores = vec![0.0f64; n_samples * n_points];
        let rows_per_chunk = (crate::par::CHUNK / n_points.max(1)).max(1);
        let per_chunk = crate::par::for_each_chunk_mut_map(
            &mut scores,
            rows_per_chunk * n_points,
            |chunk, out| {
                let first_row = chunk * rows_per_chunk;
                let mut band = vec![0.0f64; band_points];
                out.chunks_mut(n_points)
                    .enumerate()
                    .map(|(local, row)| {
                        let u = first_row + local;
                        let f = &functions[u];
                        let linear = match f.linear_weights() {
                            Some(w) if w.len() == dim => Some(w),
                            _ => None,
                        };
                        let mut full_best = f64::NEG_INFINITY;
                        let mut cursor = 0usize;
                        let mut b0 = 0usize;
                        while b0 < full_n {
                            let b1 = (b0 + band_points).min(full_n);
                            let scratch = &mut band[..b1 - b0];
                            match linear {
                                Some(w) => {
                                    let (_, bv, _) = crate::kernels::linear_score_row(
                                        w,
                                        &flat[b0 * dim..b1 * dim],
                                        dim,
                                        scratch,
                                    );
                                    if bv > full_best {
                                        full_best = bv;
                                    }
                                }
                                None => {
                                    for (i, p) in (b0..b1).enumerate() {
                                        scratch[i] = f.utility(p, dataset.point(p));
                                    }
                                    full_best =
                                        crate::kernels::lane_max(full_best, scratch.len(), |i| {
                                            scratch[i]
                                        });
                                }
                            }
                            while cursor < n_points && keep[cursor] < b1 {
                                row[cursor] = scratch[keep[cursor] - b0];
                                cursor += 1;
                            }
                            b0 = b1;
                        }
                        // The kept row's best goes through the same checked
                        // pass as the dense build on the subset, so errors
                        // and (index, value) bits agree with it exactly.
                        row_best_checked(row, u).map(|best| (best, full_best))
                    })
                    .collect::<Result<Vec<_>>>()
            },
        );
        let mut best_index = Vec::with_capacity(n_samples);
        let mut best_value = Vec::with_capacity(n_samples);
        let mut full_best = Vec::with_capacity(n_samples);
        for chunk in per_chunk {
            for ((bi, bv), full_bv) in chunk? {
                full_best.push(full_bv);
                best_index.push(bi);
                best_value.push(bv);
            }
        }
        let stats = TiledBuildStats::from_bests(full_n, n_points, &full_best, &best_value);
        let m = Self::assemble(scores, n_samples, n_points, weights, best_index, best_value);
        Ok((m, stats))
    }

    /// Builds the matrix by exact enumeration of a countable distribution
    /// (Appendix A) — no sampling error.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as
    /// [`ScoreMatrix::from_functions`].
    pub fn from_discrete_exact(dataset: &Dataset, dist: &DiscreteDistribution) -> Result<Self> {
        Self::from_functions(dataset, dist.functions(), Some(dist.probabilities().to_vec()))
    }

    /// Builds the matrix from raw per-user score rows (the Table I format).
    ///
    /// # Errors
    ///
    /// Returns an error if rows are empty/ragged, scores are invalid, or a
    /// row has no positive score.
    pub fn from_rows(rows: Vec<Vec<f64>>, weights: Option<Vec<f64>>) -> Result<Self> {
        let n_points = rows.first().map(|r| r.len()).ok_or(FamError::EmptyDataset)?;
        let n_samples = rows.len();
        let mut scores = Vec::with_capacity(n_samples * n_points);
        for row in &rows {
            if row.len() != n_points {
                return Err(FamError::DimensionMismatch { expected: n_points, got: row.len() });
            }
            scores.extend_from_slice(row);
        }
        Self::from_flat(scores, n_samples, n_points, weights)
    }

    /// Builds from a flat row-major buffer (`n_samples` rows of `n_points`),
    /// constructing the point-major mirror.
    ///
    /// # Errors
    ///
    /// See [`ScoreMatrix::from_rows`].
    pub fn from_flat(
        scores: Vec<f64>,
        n_samples: usize,
        n_points: usize,
        weights: Option<Vec<f64>>,
    ) -> Result<Self> {
        if n_points == 0 {
            return Err(FamError::EmptyDataset);
        }
        if n_samples == 0 || scores.len() != n_samples * n_points {
            return Err(FamError::DimensionMismatch {
                expected: n_samples * n_points,
                got: scores.len(),
            });
        }
        let weights = normalize_weights(weights, n_samples)?;
        // Validation and the per-row best-point pass (the paper's
        // preprocessing) run fused, one parallel chunk of rows at a time:
        // chunks merge in order, so the first offending *row* wins, with
        // element order deciding within a row — the same error a serial
        // row-by-row scan reports.
        let rows_per_chunk = (crate::par::CHUNK / n_points.max(1)).max(1);
        let per_chunk = crate::par::map_chunks(n_samples, rows_per_chunk, |rows| {
            rows.map(|u| row_best_checked(&scores[u * n_points..(u + 1) * n_points], u))
                .collect::<Result<Vec<_>>>()
        });
        let (best_index, best_value) = merge_row_bests(per_chunk, n_samples)?;
        Ok(Self::assemble(scores, n_samples, n_points, weights, best_index, best_value))
    }

    /// Final assembly once scores, normalized weights, and per-row bests
    /// are known: builds the point-major mirror.
    fn assemble(
        scores: Vec<f64>,
        n_samples: usize,
        n_points: usize,
        weights: Vec<f64>,
        best_index: Vec<u32>,
        best_value: Vec<f64>,
    ) -> Self {
        let columns = crate::kernels::transpose(&scores, n_samples, n_points);
        ScoreMatrix { scores, columns, n_samples, n_points, weights, best_index, best_value }
    }

    /// Number of utility samples `N`.
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of database points `n`.
    #[inline]
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Score of point `p` under sample `u`.
    #[inline]
    pub fn score(&self, u: usize, p: usize) -> f64 {
        self.scores[u * self.n_points + p]
    }

    /// Full score row of sample `u`.
    #[inline]
    pub fn row(&self, u: usize) -> &[f64] {
        &self.scores[u * self.n_points..(u + 1) * self.n_points]
    }

    /// Contiguous score column of point `p` (one entry per sample), from
    /// the point-major mirror.
    #[inline]
    pub fn column(&self, p: usize) -> &[f64] {
        &self.columns[p * self.n_samples..(p + 1) * self.n_samples]
    }

    /// Always `true`: every matrix carries its point-major mirror (the
    /// [`crate::LinearScores::has_column_mirror`] twin, which is `false`).
    #[inline]
    pub fn has_column_mirror(&self) -> bool {
        true
    }

    /// Probability mass of sample `u` (weights sum to 1 over all samples).
    #[inline]
    pub fn weight(&self, u: usize) -> f64 {
        self.weights[u]
    }

    /// All probability weights.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Index of sample `u`'s best point in the full database.
    #[inline]
    pub fn best_index(&self, u: usize) -> usize {
        self.best_index[u] as usize
    }

    /// `sat(D, f_u)` — sample `u`'s satisfaction with the full database.
    #[inline]
    pub fn best_value(&self, u: usize) -> f64 {
        self.best_value[u]
    }

    /// Every sample's `sat(D, f_u)`, in sample order.
    #[inline]
    pub fn best_values(&self) -> &[f64] {
        &self.best_value
    }

    /// Validates candidate point columns for [`ScoreMatrix::insert_points`]
    /// without mutating the matrix: each column must hold exactly
    /// `n_samples` finite, non-negative scores.
    ///
    /// Callers that batch a deletion and an insertion together (see
    /// `DynamicEngine`) use this to reject the whole batch up front so a
    /// failed insertion can never leave a half-applied update.
    ///
    /// # Errors
    ///
    /// Returns the same errors [`ScoreMatrix::insert_points`] would.
    pub fn validate_new_points(&self, cols: &[Vec<f64>]) -> Result<()> {
        let first = self.n_points;
        for (j, col) in cols.iter().enumerate() {
            if col.len() != self.n_samples {
                return Err(FamError::DimensionMismatch {
                    expected: self.n_samples,
                    got: col.len(),
                });
            }
            for (u, &v) in col.iter().enumerate() {
                if !v.is_finite() {
                    return Err(FamError::NonFinite { row: u, col: first + j });
                }
                if v < 0.0 {
                    return Err(FamError::NegativeValue { row: u, col: first + j });
                }
            }
        }
        Ok(())
    }

    /// Appends new points: each element of `cols` is one point's score
    /// column (`n_samples` entries, sample order). The new points take
    /// indices `n_points..n_points + cols.len()`.
    ///
    /// The rows are copied once at the new width, each followed by the
    /// new points' entries for that sample; the mirror extends, since its
    /// columns are contiguous per point. Per-sample best tracking compares
    /// only the new columns. Every observable value —
    /// [`ScoreMatrix::row`], [`ScoreMatrix::column`], best tracking — is
    /// **bit-identical** to [`ScoreMatrix::from_flat`] on the extended
    /// rows: appended points sit after the existing ones, so the strict
    /// first-argmax scan agrees entry for entry.
    ///
    /// # Errors
    ///
    /// Returns an error if a column has the wrong length or contains
    /// non-finite or negative scores; the matrix is left untouched.
    pub fn insert_points(&mut self, cols: &[Vec<f64>]) -> Result<()> {
        self.validate_new_points(cols)?;
        self.insert_points_prevalidated(cols);
        Ok(())
    }

    /// [`ScoreMatrix::insert_points`] minus the validation scan, for
    /// callers that already ran [`ScoreMatrix::validate_new_points`] on
    /// the same columns (`DynamicEngine` validates the whole batch up
    /// front for atomicity and must not pay the `O(cols · n_samples)`
    /// check twice).
    pub(crate) fn insert_points_prevalidated(&mut self, cols: &[Vec<f64>]) {
        if cols.is_empty() {
            return;
        }
        let n_old = self.n_points;
        let n_new = n_old + cols.len();
        let mut scores = vec![0.0f64; self.n_samples * n_new];
        let old = &self.scores;
        let rows_per_chunk = (crate::par::CHUNK / n_new).max(1);
        crate::par::for_each_chunk_mut(&mut scores, rows_per_chunk * n_new, |chunk, out| {
            let first_row = chunk * rows_per_chunk;
            for (local, row) in out.chunks_mut(n_new).enumerate() {
                let u = first_row + local;
                row[..n_old].copy_from_slice(&old[u * n_old..(u + 1) * n_old]);
                for (j, col) in cols.iter().enumerate() {
                    row[n_old + j] = col[u];
                }
            }
        });
        self.scores = scores;
        for (u, (bi, bv)) in self.best_index.iter_mut().zip(&mut self.best_value).enumerate() {
            for (j, col) in cols.iter().enumerate() {
                if col[u] > *bv {
                    *bi = (n_old + j) as u32;
                    *bv = col[u];
                }
            }
        }
        self.columns.reserve_exact(cols.len() * self.n_samples);
        for col in cols {
            self.columns.extend_from_slice(col);
        }
        self.n_points = n_new;
    }

    /// Deletes the given point columns with swap-remove semantics: freed
    /// slots are processed in descending index order and each is filled
    /// by the then-last point. Returns the index remap
    /// ([`swap_remove_remap`]): `remap[old] == Some(new)` for survivors,
    /// `None` for deleted points. (Like [`Vec::swap_remove`], surviving
    /// indices are *not* order-preserving; consult the remap.)
    ///
    /// The matrix becomes [`ScoreMatrix::restrict_columns`] over the
    /// survivors in slot order — one gather of the rows, the strict
    /// first-argmax best pass and a fresh mirror — so it is
    /// **bit-identical** to [`ScoreMatrix::from_flat`] on the reordered
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving the matrix untouched) if an index is out
    /// of bounds or duplicated, if the deletion would remove every point,
    /// or if some sample would be left with no positive score
    /// ([`FamError::DegenerateUtility`]).
    pub fn delete_points(&mut self, delete: &[usize]) -> Result<Vec<Option<u32>>> {
        let remap = swap_remove_remap(self.n_points, delete)?;
        if delete.is_empty() {
            return Ok(remap);
        }
        if delete.len() == self.n_points {
            return Err(FamError::EmptyDataset);
        }
        // `survivors[slot]` is the original point that ends up in `slot`.
        let mut survivors = vec![0usize; self.n_points - delete.len()];
        for (p, slot) in remap.iter().enumerate() {
            if let Some(s) = slot {
                survivors[*s as usize] = p;
            }
        }
        *self = self.restrict_columns(&survivors)?;
        Ok(remap)
    }

    /// Restricts the matrix to the given point columns (in order),
    /// recomputing the per-row best over the restricted universe.
    ///
    /// Useful when an algorithm first reduces the database to its skyline:
    /// regret ratios must then still be measured against the *original*
    /// database, which is sound because the skyline always contains a best
    /// point for every monotone utility function.
    ///
    /// # Errors
    ///
    /// Returns an error if `columns` is empty, out of bounds, or the
    /// restriction makes some row all-zero.
    pub fn restrict_columns(&self, columns: &[usize]) -> Result<ScoreMatrix> {
        if columns.is_empty() {
            return Err(FamError::EmptyDataset);
        }
        for &c in columns {
            if c >= self.n_points {
                return Err(FamError::IndexOutOfBounds { index: c, len: self.n_points });
            }
        }
        // Assemble directly instead of round-tripping through the
        // validating constructor: the rows are already validated, and the
        // constructor would re-normalize the weights — perturbing every
        // weight by an ULP when their fp sum is not exactly 1, which
        // would break the bit-identity of skyline-reduced objectives.
        let mut scores = vec![0.0f64; self.n_samples * columns.len()];
        let (best_index, best_value) = fill_rows(&mut scores, columns.len(), |u, row| {
            let src = self.row(u);
            for (v, &c) in row.iter_mut().zip(columns) {
                *v = src[c];
            }
            row_best_checked(row, u)
        })?;
        Ok(Self::assemble(
            scores,
            self.n_samples,
            columns.len(),
            self.weights.clone(),
            best_index,
            best_value,
        ))
    }

    /// Appends new utility samples by scoring every point of `dataset`
    /// under each function — the incremental twin of
    /// [`ScoreMatrix::from_functions`], and the matrix's one sample-axis
    /// growth path. Sampling the functions off the RNG that built the
    /// matrix continues its sample stream: `from_distribution(ds, dist,
    /// N₀, rng)` followed by appending `N₁ − N₀` functions drawn from
    /// `dist` with the same `rng` is bit-identical to
    /// `from_distribution(ds, dist, N₁, rng')` with a fresh RNG from the
    /// same seed.
    ///
    /// The new rows are scored straight into the grown sample-major
    /// buffer (rows are contiguous, so growing the sample axis never
    /// re-lays them), and the mirror is re-laid at exactly the grown
    /// height, each old column copied and the new samples transposed
    /// behind it in one pass. Per-sample weights re-spread to `1/N` and
    /// best-point tracking extends with the new rows only. Every
    /// observable value — [`ScoreMatrix::row`], [`ScoreMatrix::column`],
    /// weights, best tracking — is **bit-identical** to a from-scratch
    /// [`ScoreMatrix::from_functions`] over the concatenated functions.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving the matrix untouched) when `dataset`
    /// covers a different point universe ([`FamError::DimensionMismatch`]),
    /// a new score is non-finite or negative, a new row has no positive
    /// score, the resident weights are not uniform, or the grown matrix
    /// would exceed the footprint budget
    /// ([`crate::sampling::check_matrix_budget`]). Error indices name the
    /// concatenated sample stream.
    pub fn append_functions(
        &mut self,
        dataset: &Dataset,
        functions: &[Arc<dyn UtilityFunction>],
    ) -> Result<()> {
        if dataset.len() != self.n_points {
            return Err(FamError::DimensionMismatch {
                expected: self.n_points,
                got: dataset.len(),
            });
        }
        // Appending samples re-spreads the probability mass uniformly
        // (each sample is one i.i.d. draw), which is only sound when the
        // resident mass is uniform too — exact discrete enumerations and
        // hand-weighted matrices must be rebuilt instead.
        let uniform = (1.0 / self.n_samples as f64).to_bits();
        if self.weights.iter().any(|w| w.to_bits() != uniform) {
            return Err(FamError::InvalidParameter {
                name: "weights",
                message: "appending samples requires uniform sample weights; \
                          rebuild weighted or exact-discrete matrices instead"
                    .into(),
            });
        }
        let count = functions.len();
        crate::sampling::check_matrix_budget(self.n_samples + count, self.n_points)?;
        if count == 0 {
            return Ok(());
        }
        let (n_old, n_points) = (self.n_samples, self.n_points);
        let base = self.scores.len();
        self.scores.reserve_exact(count * n_points);
        self.scores.resize(base + count * n_points, 0.0);
        let bests = fill_rows(&mut self.scores[base..], n_points, |j, row| {
            score_row(&*functions[j], dataset, row, n_old + j)
        });
        let (best_index, best_value) = match bests {
            Ok(bests) => bests,
            Err(e) => {
                self.scores.truncate(base);
                return Err(e);
            }
        };
        let rows = &self.scores[base..];
        self.columns =
            crate::kernels::transpose_appended(&self.columns, n_old, rows, count, n_points);
        // Each sample is one i.i.d. draw: the mass re-spreads uniformly,
        // exactly as a from-scratch build with `weights = None` would.
        let n_new = n_old + count;
        self.weights.clear();
        self.weights.resize(n_new, 1.0 / n_new as f64);
        self.best_index.extend(best_index);
        self.best_value.extend(best_value);
        self.n_samples = n_new;
        Ok(())
    }
}

/// The canonical swap-remove permutation of deleting `delete` (any
/// order) from a universe of `n` points: freed slots are refilled in
/// descending index order by the then-last point. `remap[old]` is the
/// survivor's new slot, `None` for deleted points — the remap
/// [`ScoreMatrix::delete_points`] returns, for callers that mirror the
/// point universe without a matrix.
///
/// # Errors
///
/// Returns [`FamError::IndexOutOfBounds`] for an index `>= n` and
/// [`FamError::InvalidParameter`] for a duplicate index.
pub fn swap_remove_remap(n: usize, delete: &[usize]) -> Result<Vec<Option<u32>>> {
    let mut dead = vec![false; n];
    for &p in delete {
        match dead.get_mut(p) {
            None => return Err(FamError::IndexOutOfBounds { index: p, len: n }),
            Some(true) => {
                return Err(FamError::InvalidParameter {
                    name: "delete",
                    message: format!("duplicate point index {p}"),
                });
            }
            Some(d) => *d = true,
        }
    }
    let mut dels: Vec<usize> = delete.to_vec();
    dels.sort_unstable();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for &d in dels.iter().rev() {
        order.swap_remove(d);
    }
    let mut remap: Vec<Option<u32>> = vec![None; n];
    for (slot, &p) in order.iter().enumerate() {
        remap[p as usize] = Some(slot as u32);
    }
    Ok(remap)
}

/// Normalizes optional per-sample probability weights: `None` yields the
/// uniform `1/N` vector, `Some` is validated (length, finiteness, sign,
/// positive total) and scaled to sum to 1.
fn normalize_weights(weights: Option<Vec<f64>>, n_samples: usize) -> Result<Vec<f64>> {
    match weights {
        Some(mut w) => {
            if w.len() != n_samples {
                return Err(FamError::InvalidWeights(format!(
                    "expected {n_samples} weights, got {}",
                    w.len()
                )));
            }
            if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(FamError::InvalidWeights(
                    "weights must be finite and non-negative".into(),
                ));
            }
            let total: f64 = w.iter().sum();
            if total <= 0.0 {
                return Err(FamError::InvalidWeights("weights sum to zero".into()));
            }
            w.iter_mut().for_each(|x| *x /= total);
            Ok(w)
        }
        None => Ok(vec![1.0 / n_samples as f64; n_samples]),
    }
}

/// One row of the fused validate+best construction pass: wraps
/// [`crate::kernels::validate_row_best`] with the matrix's row-indexed
/// error vocabulary and the degenerate-row (no positive score) check.
fn row_best_checked(row: &[f64], sample: usize) -> Result<(u32, f64)> {
    match crate::kernels::validate_row_best(row) {
        Ok((_, bv)) if bv <= 0.0 => Err(FamError::DegenerateUtility { sample }),
        Ok(best) => Ok(best),
        Err(crate::kernels::RowIssue::NonFinite { col }) => {
            Err(FamError::NonFinite { row: sample, col })
        }
        Err(crate::kernels::RowIssue::Negative { col }) => {
            Err(FamError::NegativeValue { row: sample, col })
        }
    }
}

/// Folds per-chunk row results (in chunk order, so the first offending
/// row's error wins) into the best-index / best-value columns.
fn merge_row_bests(
    per_chunk: Vec<Result<Vec<(u32, f64)>>>,
    n_samples: usize,
) -> Result<(Vec<u32>, Vec<f64>)> {
    let mut best_index = Vec::with_capacity(n_samples);
    let mut best_value = Vec::with_capacity(n_samples);
    for chunk in per_chunk {
        for (bi, bv) in chunk? {
            best_index.push(bi);
            best_value.push(bv);
        }
    }
    Ok((best_index, best_value))
}

/// Fills `scores` one whole row (`n_points` values) at a time:
/// `fill(u, row)` writes row `u` and returns its best point. Each pool
/// worker fills a disjoint block of rows, so the buffer is identical for
/// any thread count, and the bests merge in row order, so the first
/// failing row's error wins — the error a serial row-by-row pass reports.
fn fill_rows<F>(scores: &mut [f64], n_points: usize, fill: F) -> Result<(Vec<u32>, Vec<f64>)>
where
    F: Fn(usize, &mut [f64]) -> Result<(u32, f64)> + Sync,
{
    let n_rows = scores.len() / n_points;
    let rows_per_chunk = (crate::par::CHUNK / n_points).max(1);
    let per_chunk =
        crate::par::for_each_chunk_mut_map(scores, rows_per_chunk * n_points, |chunk, out| {
            let first_row = chunk * rows_per_chunk;
            out.chunks_mut(n_points)
                .enumerate()
                .map(|(local, row)| fill(first_row + local, row))
                .collect::<Result<Vec<_>>>()
        });
    merge_row_bests(per_chunk, n_rows)
}

/// Scores row `sample` — `f` over every point of `dataset` — fused with
/// validation and the best-point pass, so each row is summarized while it
/// is still cache-hot. Linear utilities take the batch kernel
/// (bit-identical to calling `utility` per element, see
/// `UtilityFunction::linear_weights`); everything else scores through the
/// trait object and validates with the same fused kernel.
#[inline]
fn score_row(
    f: &dyn UtilityFunction,
    dataset: &Dataset,
    row: &mut [f64],
    sample: usize,
) -> Result<(u32, f64)> {
    let dim = dataset.dim();
    match f.linear_weights() {
        Some(w) if w.len() == dim => {
            let (bi, bv, ok) = crate::kernels::linear_score_row(w, dataset.as_flat(), dim, row);
            if !ok {
                row_best_checked(row, sample)
            } else if bv <= 0.0 {
                Err(FamError::DegenerateUtility { sample })
            } else {
                Ok((bi, bv))
            }
        }
        _ => {
            for (idx, p) in dataset.points().enumerate() {
                row[idx] = f.utility(idx, p);
            }
            row_best_checked(row, sample)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::UniformLinear;
    use crate::utility::{LinearUtility, TableUtility};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table_i_matrix() -> ScoreMatrix {
        // Table I of the paper: 4 users x 4 hotels.
        ScoreMatrix::from_rows(
            vec![
                vec![0.9, 0.7, 0.2, 0.4],
                vec![0.6, 1.0, 0.5, 0.2],
                vec![0.2, 0.6, 0.3, 1.0],
                vec![0.1, 0.2, 1.0, 0.9],
            ],
            None,
        )
        .unwrap()
    }

    #[test]
    fn table_i_best_points() {
        let m = table_i_matrix();
        assert_eq!(m.n_samples(), 4);
        assert_eq!(m.n_points(), 4);
        assert_eq!(m.best_index(0), 0); // Alex -> Holiday Inn
        assert_eq!(m.best_index(1), 1); // Jerry -> Shangri la
        assert_eq!(m.best_index(2), 3); // Tom -> Hilton
        assert_eq!(m.best_index(3), 2); // Sam -> Intercontinental
        assert_eq!(m.best_value(1), 1.0);
        assert!((m.weight(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_functions_scores_every_point() {
        let d = Dataset::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.6, 0.6]]).unwrap();
        let fs: Vec<Arc<dyn UtilityFunction>> = vec![
            Arc::new(LinearUtility::new(vec![1.0, 0.0]).unwrap()),
            Arc::new(LinearUtility::new(vec![0.5, 0.5]).unwrap()),
        ];
        let m = ScoreMatrix::from_functions(&d, &fs, None).unwrap();
        assert_eq!(m.row(0), &[1.0, 0.0, 0.6]);
        assert_eq!(m.best_index(0), 0);
        assert_eq!(m.best_index(1), 2); // 0.6 beats 0.5
    }

    #[test]
    fn from_distribution_shape() {
        let d = Dataset::from_rows(vec![vec![0.2, 0.8], vec![0.9, 0.3]]).unwrap();
        let dist = UniformLinear::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ScoreMatrix::from_distribution(&d, &dist, 50, &mut rng).unwrap();
        assert_eq!(m.n_samples(), 50);
        assert_eq!(m.n_points(), 2);
        for u in 0..50 {
            assert!(m.best_value(u) > 0.0);
            assert!(m.best_value(u) >= m.score(u, 0));
            assert!(m.best_value(u) >= m.score(u, 1));
        }
    }

    #[test]
    fn rejects_degenerate_rows() {
        let r = ScoreMatrix::from_rows(vec![vec![0.0, 0.0]], None);
        assert!(matches!(r, Err(FamError::DegenerateUtility { sample: 0 })));
    }

    #[test]
    fn rejects_invalid_scores_and_shapes() {
        assert!(ScoreMatrix::from_rows(vec![], None).is_err());
        assert!(ScoreMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]], None).is_err());
        assert!(ScoreMatrix::from_rows(vec![vec![f64::NAN]], None).is_err());
        assert!(ScoreMatrix::from_rows(vec![vec![-1.0]], None).is_err());
        assert!(ScoreMatrix::from_flat(vec![1.0; 5], 2, 2, None).is_err());
    }

    #[test]
    fn weights_are_normalized() {
        let m = ScoreMatrix::from_rows(vec![vec![1.0, 0.5], vec![0.5, 1.0]], Some(vec![3.0, 1.0]))
            .unwrap();
        assert!((m.weight(0) - 0.75).abs() < 1e-12);
        assert!((m.weight(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weight_validation() {
        let rows = vec![vec![1.0], vec![1.0]];
        assert!(ScoreMatrix::from_rows(rows.clone(), Some(vec![1.0])).is_err());
        assert!(ScoreMatrix::from_rows(rows.clone(), Some(vec![-1.0, 2.0])).is_err());
        assert!(ScoreMatrix::from_rows(rows, Some(vec![0.0, 0.0])).is_err());
    }

    #[test]
    fn discrete_exact_uses_atom_probabilities() {
        let d = Dataset::from_rows(vec![vec![1.0], vec![0.5]]).unwrap();
        let f1: Arc<dyn UtilityFunction> = Arc::new(TableUtility::new(vec![1.0, 0.2]).unwrap());
        let f2: Arc<dyn UtilityFunction> = Arc::new(TableUtility::new(vec![0.1, 0.9]).unwrap());
        let dist = DiscreteDistribution::new(vec![(f1, 1.0), (f2, 3.0)], 1).unwrap();
        let m = ScoreMatrix::from_discrete_exact(&d, &dist).unwrap();
        assert_eq!(m.n_samples(), 2);
        assert!((m.weight(0) - 0.25).abs() < 1e-12);
        assert!((m.weight(1) - 0.75).abs() < 1e-12);
        assert_eq!(m.best_index(1), 1);
    }

    #[test]
    fn tiled_build_is_bit_identical_to_dense_build_on_the_subset() {
        // The pinned contract from the tiled-build doc comment: for the
        // same RNG stream, `from_distribution_tiled(D, keep)` equals
        // `from_distribution(D.subset(keep))` in every stored bit.
        let d = Dataset::from_rows(
            (0..997) // deliberately not a multiple of the band width
                .map(|i| {
                    let x = (i as f64 * 0.7371).fract();
                    vec![x, (1.0 - x) * 0.9, (i as f64 * 0.1313).fract()]
                })
                .collect(),
        )
        .unwrap();
        let keep: Vec<usize> = (0..d.len()).filter(|i| i % 7 == 0 || i % 11 == 3).collect();
        let dist = UniformLinear::new(3).unwrap();
        let mut rng_tiled = StdRng::seed_from_u64(42);
        let (tiled, stats) =
            ScoreMatrix::from_distribution_tiled(&d, &dist, 40, &mut rng_tiled, &keep).unwrap();
        let mut rng_dense = StdRng::seed_from_u64(42);
        let dense =
            ScoreMatrix::from_distribution(&d.subset(&keep).unwrap(), &dist, 40, &mut rng_dense)
                .unwrap();
        // Same RNG seed, same sampling order → same functions; now every
        // stored field must agree bitwise.
        assert_eq!(tiled.n_samples(), dense.n_samples());
        assert_eq!(tiled.n_points(), dense.n_points());
        for u in 0..40 {
            assert_eq!(tiled.row(u), dense.row(u), "row {u}");
            assert_eq!(tiled.best_index(u), dense.best_index(u));
            assert_eq!(tiled.best_value(u).to_bits(), dense.best_value(u).to_bits());
            assert_eq!(tiled.weight(u).to_bits(), dense.weight(u).to_bits());
        }
        // An arbitrary keep loses some best points, and the stats say so.
        assert_eq!(stats.source_points, d.len());
        assert_eq!(stats.kept_points, keep.len());
        assert!(stats.max_shortfall > 0.0);
        assert!(stats.mean_shortfall > 0.0);
        assert!(stats.mean_shortfall <= stats.max_shortfall);
        // A full keep loses nothing: shortfall is exactly zero.
        let all: Vec<usize> = (0..d.len()).collect();
        let mut rng_all = StdRng::seed_from_u64(42);
        let (_, full_stats) =
            ScoreMatrix::from_distribution_tiled(&d, &dist, 40, &mut rng_all, &all).unwrap();
        assert_eq!(full_stats.max_shortfall, 0.0);
        assert_eq!(full_stats.mean_shortfall, 0.0);
    }

    #[test]
    fn tiled_build_validates_the_keep_list() {
        let d = Dataset::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let dist = UniformLinear::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(ScoreMatrix::from_distribution_tiled(&d, &dist, 4, &mut rng, &[]).is_err());
        assert!(ScoreMatrix::from_distribution_tiled(&d, &dist, 4, &mut rng, &[2]).is_err());
        assert!(ScoreMatrix::from_distribution_tiled(&d, &dist, 4, &mut rng, &[1, 0]).is_err());
        assert!(ScoreMatrix::from_distribution_tiled(&d, &dist, 4, &mut rng, &[0, 0]).is_err());
        assert!(ScoreMatrix::from_distribution_tiled(&d, &dist, 0, &mut rng, &[0]).is_err());
    }

    /// From-scratch comparator for the incremental mutations: rebuilds a
    /// matrix from `m`'s current rows and asserts every stored field is
    /// bit-identical.
    fn assert_matches_fresh_build(m: &ScoreMatrix) {
        let mut flat = Vec::with_capacity(m.n_samples() * m.n_points());
        for u in 0..m.n_samples() {
            flat.extend_from_slice(m.row(u));
        }
        let fresh = ScoreMatrix::from_flat(flat, m.n_samples(), m.n_points(), None).unwrap();
        for u in 0..m.n_samples() {
            assert_eq!(m.row(u), fresh.row(u), "row {u} diverged");
            assert_eq!(m.best_index(u), fresh.best_index(u), "best index {u} diverged");
            assert_eq!(
                m.best_value(u).to_bits(),
                fresh.best_value(u).to_bits(),
                "best value {u} diverged"
            );
            assert_eq!(m.weight(u).to_bits(), fresh.weight(u).to_bits());
        }
        for p in 0..m.n_points() {
            assert_eq!(m.column(p), fresh.column(p), "column {p} diverged");
        }
    }

    /// Both buffers hold exactly `n_samples × n_points` values: no row
    /// slack, no mirror slack.
    fn assert_exact_size(m: &ScoreMatrix) {
        assert_eq!(m.scores.len(), m.n_samples() * m.n_points(), "rows carry slack");
        assert_eq!(m.columns.len(), m.n_points() * m.n_samples(), "mirror carries slack");
    }

    /// A utility that reads its scores from a table by point index, so a
    /// test can append exact rows through [`ScoreMatrix::append_functions`]
    /// (unlike [`TableUtility`], it accepts any value, invalid ones too).
    struct Row(Vec<f64>);

    impl UtilityFunction for Row {
        fn utility(&self, index: usize, _point: &[f64]) -> f64 {
            self.0[index]
        }
    }

    /// Appends one sample per row of `rows` to `m` through
    /// [`ScoreMatrix::append_functions`], over a dataset of `n_points`
    /// points (the matrix's own count unless a test wants a mismatch).
    fn append_rows(m: &mut ScoreMatrix, n_points: usize, rows: &[Vec<f64>]) -> Result<()> {
        let points = Dataset::from_rows((0..n_points).map(|p| vec![p as f64]).collect()).unwrap();
        let functions: Vec<Arc<dyn UtilityFunction>> =
            rows.iter().map(|r| Arc::new(Row(r.clone())) as Arc<dyn UtilityFunction>).collect();
        m.append_functions(&points, &functions)
    }

    #[test]
    fn insert_points_matches_fresh_build() {
        let mut m = table_i_matrix();
        m.insert_points(&[vec![0.95, 0.1, 0.4, 0.3], vec![0.1, 0.2, 0.7, 1.0]]).unwrap();
        assert_eq!(m.n_points(), 6);
        // The first new point beats Alex's old best (0.9 < 0.95).
        assert_eq!(m.best_index(0), 4);
        assert!((m.best_value(0) - 0.95).abs() < 1e-12);
        // Jerry keeps Shangri la.
        assert_eq!(m.best_index(1), 1);
        assert_matches_fresh_build(&m);
        // No-op insert.
        m.insert_points(&[]).unwrap();
        assert_eq!(m.n_points(), 6);
        assert_matches_fresh_build(&m);
    }

    #[test]
    fn insert_points_validates_without_mutating() {
        let mut m = table_i_matrix();
        assert!(matches!(
            m.insert_points(&[vec![1.0, 2.0]]),
            Err(FamError::DimensionMismatch { expected: 4, got: 2 })
        ));
        assert!(matches!(
            m.insert_points(&[vec![1.0, f64::NAN, 0.2, 0.1]]),
            Err(FamError::NonFinite { row: 1, col: 4 })
        ));
        assert!(matches!(
            m.insert_points(&[vec![1.0, 0.1, -0.2, 0.1]]),
            Err(FamError::NegativeValue { row: 2, col: 4 })
        ));
        assert_eq!(m.n_points(), 4);
        assert_matches_fresh_build(&m);
    }

    #[test]
    fn delete_points_matches_fresh_build() {
        let mut m = table_i_matrix();
        let remap = m.delete_points(&[1]).unwrap();
        // Swap-remove: the last point (Hilton, 3) fills the freed slot 1.
        assert_eq!(remap, vec![Some(0), None, Some(2), Some(1)]);
        assert_eq!(m.n_points(), 3);
        // Jerry's best was Shangri la (deleted) -> rescan finds Holiday Inn.
        assert_eq!(m.best_index(1), 0);
        assert!((m.best_value(1) - 0.6).abs() < 1e-12);
        // Tom's best (Hilton, old index 3) survives in slot 1.
        assert_eq!(m.best_index(2), 1);
        assert!((m.best_value(2) - 1.0).abs() < 1e-12);
        assert_matches_fresh_build(&m);
        let remap = m.delete_points(&[]).unwrap();
        assert_eq!(remap.len(), 3);
        m.delete_points(&[0, 2]).unwrap();
        assert_eq!(m.n_points(), 1);
        assert_matches_fresh_build(&m);
    }

    #[test]
    fn delete_with_bitwise_tied_duplicates_matches_fresh_build() {
        // Point 2 duplicates the best (point 1) bit for bit. Deleting
        // point 0 swap-moves the duplicate into slot 0, ahead of the
        // surviving best — the first-argmax must follow it, just like a
        // fresh build of the reordered buffer would.
        let mut m =
            ScoreMatrix::from_rows(vec![vec![0.5, 0.9, 0.9], vec![0.4, 0.3, 0.2]], None).unwrap();
        assert_eq!(m.best_index(0), 1);
        let remap = m.delete_points(&[0]).unwrap();
        assert_eq!(remap, vec![None, Some(1), Some(0)]);
        assert_eq!(m.best_index(0), 0, "relocated duplicate steals the first-argmax slot");
        assert!((m.best_value(0) - 0.9).abs() < 1e-12);
        assert_eq!(m.best_index(1), 1, "untied row keeps its remapped best");
        assert_matches_fresh_build(&m);
    }

    #[test]
    fn delete_points_rejects_invalid_batches() {
        let mut m = table_i_matrix();
        assert!(matches!(
            m.delete_points(&[9]),
            Err(FamError::IndexOutOfBounds { index: 9, len: 4 })
        ));
        assert!(m.delete_points(&[1, 1]).is_err());
        assert!(matches!(m.delete_points(&[0, 1, 2, 3]), Err(FamError::EmptyDataset)));
        // A row left without any positive score aborts without mutating.
        let mut z = ScoreMatrix::from_rows(vec![vec![0.5, 0.0], vec![0.1, 0.2]], None).unwrap();
        assert!(matches!(z.delete_points(&[0]), Err(FamError::DegenerateUtility { sample: 0 })));
        assert_eq!(z.n_points(), 2);
        assert_eq!(z.best_index(0), 0);
        assert_matches_fresh_build(&m);
    }

    #[test]
    fn interleaved_mutations_track_fresh_builds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let rows: Vec<Vec<f64>> =
            (0..17).map(|_| (0..9).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
        let mut m = ScoreMatrix::from_rows(rows, None).unwrap();
        for _ in 0..12 {
            if m.n_points() > 2 && rng.gen_bool(0.5) {
                let a = rng.gen_range(0..m.n_points());
                let b = rng.gen_range(0..m.n_points());
                let dels: Vec<usize> = if a == b { vec![a] } else { vec![a, b] };
                m.delete_points(&dels).unwrap();
            } else {
                let cols: Vec<Vec<f64>> = (0..rng.gen_range(1..3))
                    .map(|_| (0..17).map(|_| rng.gen_range(0.01..1.0)).collect())
                    .collect();
                m.insert_points(&cols).unwrap();
            }
            assert_matches_fresh_build(&m);
        }
    }

    #[test]
    fn append_samples_matches_fresh_build() {
        let mut m = table_i_matrix();
        append_rows(&mut m, 4, &[vec![0.3, 0.2, 0.8, 0.1], vec![0.95, 0.4, 0.2, 0.9]]).unwrap();
        assert_eq!(m.n_samples(), 6);
        assert_eq!(m.best_index(4), 2);
        assert!((m.best_value(5) - 0.95).abs() < 1e-12);
        // The mass re-spread uniformly over the grown stream.
        assert!((m.weight(0) - 1.0 / 6.0).abs() < 1e-15);
        assert_matches_fresh_build(&m);
        // Empty appends are identity.
        append_rows(&mut m, 4, &[]).unwrap();
        assert_eq!(m.n_samples(), 6);
        assert_matches_fresh_build(&m);
    }

    #[test]
    fn append_samples_validates_without_mutating() {
        let mut m = table_i_matrix();
        // A dataset over another point universe.
        assert!(matches!(
            append_rows(&mut m, 2, &[vec![1.0, 2.0]]),
            Err(FamError::DimensionMismatch { expected: 4, got: 2 })
        ));
        // Error indices name the concatenated sample stream.
        assert!(matches!(
            append_rows(&mut m, 4, &[vec![1.0, 0.1, f64::NAN, 0.2]]),
            Err(FamError::NonFinite { row: 4, col: 2 })
        ));
        assert!(matches!(
            append_rows(&mut m, 4, &[vec![0.5; 4], vec![0.2, -0.1, 0.3, 0.4]]),
            Err(FamError::NegativeValue { row: 5, col: 1 })
        ));
        assert!(matches!(
            append_rows(&mut m, 4, &[vec![0.5; 4], vec![0.0; 4]]),
            Err(FamError::DegenerateUtility { sample: 5 })
        ));
        assert_eq!(m.n_samples(), 4);
        assert_matches_fresh_build(&m);
        assert_exact_size(&m);
        // Non-uniform weights cannot absorb i.i.d. appends.
        let mut weighted =
            ScoreMatrix::from_rows(vec![vec![1.0, 0.5], vec![0.5, 1.0]], Some(vec![3.0, 1.0]))
                .unwrap();
        let err = append_rows(&mut weighted, 2, &[vec![0.5, 0.5]]).unwrap_err();
        assert!(err.to_string().contains("uniform"), "{err}");
    }

    #[test]
    fn repeated_appends_keep_the_mirror_exact_size() {
        use rand::Rng;
        // Many small odd-sized appends: after each one the mirror holds
        // exactly n × N values and equals a fresh build.
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = table_i_matrix();
        for _ in 0..10 {
            let rows: Vec<Vec<f64>> = (0..rng.gen_range(1..4))
                .map(|_| (0..4).map(|_| rng.gen_range(0.01..1.0)).collect())
                .collect();
            append_rows(&mut m, 4, &rows).unwrap();
            assert_matches_fresh_build(&m);
            assert_exact_size(&m);
        }
        assert!(m.n_samples() > 4);
        // Refine's doubling schedule plus one sample: 40 points at
        // N = 1000 -> 2000 -> 2001 mirror exactly 80,040 scores.
        let rows: Vec<Vec<f64>> =
            (0..40).map(|_| vec![rng.gen_range(0.05..1.0), rng.gen_range(0.05..1.0)]).collect();
        let ds = Dataset::from_rows(rows).unwrap();
        let dist = UniformLinear::new(2).unwrap();
        let mut m = ScoreMatrix::from_distribution(&ds, &dist, 1_000, &mut rng).unwrap();
        for (count, n_samples) in [(1_000, 2_000), (1, 2_001)] {
            let fns: Vec<Arc<dyn UtilityFunction>> =
                (0..count).map(|_| dist.sample(&mut rng)).collect();
            m.append_functions(&ds, &fns).unwrap();
            assert_eq!(m.n_samples(), n_samples);
            assert_exact_size(&m);
        }
        assert_eq!(m.columns.len(), 80_040);
        assert_matches_fresh_build(&m);
    }

    #[test]
    fn interleaved_point_and_sample_mutations_track_fresh_builds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(123);
        let rows: Vec<Vec<f64>> =
            (0..6).map(|_| (0..5).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
        let mut m = ScoreMatrix::from_rows(rows, None).unwrap();
        for _ in 0..28 {
            match rng.gen_range(0..3) {
                0 if m.n_points() > 2 => {
                    let d = rng.gen_range(0..m.n_points());
                    m.delete_points(&[d]).unwrap();
                }
                1 => {
                    let cols: Vec<Vec<f64>> = (0..rng.gen_range(1..3))
                        .map(|_| (0..m.n_samples()).map(|_| rng.gen_range(0.01..1.0)).collect())
                        .collect();
                    m.insert_points(&cols).unwrap();
                }
                _ => {
                    let new_rows: Vec<Vec<f64>> = (0..rng.gen_range(1..4))
                        .map(|_| (0..m.n_points()).map(|_| rng.gen_range(0.01..1.0)).collect())
                        .collect();
                    let n_points = m.n_points();
                    append_rows(&mut m, n_points, &new_rows).unwrap();
                }
            }
            assert_matches_fresh_build(&m);
            // Every edit re-lays both buffers at the new exact size.
            assert_exact_size(&m);
        }
    }

    #[test]
    fn append_functions_matches_from_distribution_stream() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = Dataset::from_rows(vec![vec![0.2, 0.8], vec![0.9, 0.3], vec![0.5, 0.55]]).unwrap();
        let dist = UniformLinear::new(2).unwrap();
        // Grown: N0 = 20, then +20 +40 off the same RNG stream.
        let mut rng = StdRng::seed_from_u64(5);
        let mut grown = ScoreMatrix::from_distribution(&d, &dist, 20, &mut rng).unwrap();
        for count in [20, 40] {
            let fns: Vec<Arc<dyn UtilityFunction>> =
                (0..count).map(|_| dist.sample(&mut rng)).collect();
            grown.append_functions(&d, &fns).unwrap();
        }
        // From scratch over the concatenated stream (fresh RNG, same seed).
        let mut rng2 = StdRng::seed_from_u64(5);
        let fresh = ScoreMatrix::from_distribution(&d, &dist, 80, &mut rng2).unwrap();
        assert_eq!(grown.n_samples(), 80);
        for u in 0..80 {
            assert_eq!(grown.row(u), fresh.row(u), "row {u}");
            assert_eq!(grown.best_index(u), fresh.best_index(u));
            assert_eq!(grown.best_value(u).to_bits(), fresh.best_value(u).to_bits());
            assert_eq!(grown.weight(u).to_bits(), fresh.weight(u).to_bits());
        }
        for p in 0..3 {
            assert_eq!(grown.column(p), fresh.column(p));
        }
        // A wrong-universe dataset is rejected up front, without
        // mutating the matrix.
        let wrong = Dataset::from_rows(vec![vec![0.1, 0.2]]).unwrap();
        let mut rng3 = StdRng::seed_from_u64(5);
        let fns: Vec<Arc<dyn UtilityFunction>> = (0..6).map(|_| dist.sample(&mut rng3)).collect();
        assert!(grown.append_functions(&wrong, &fns).is_err());
        assert_eq!(grown.n_samples(), 80);
    }

    #[test]
    fn restrict_columns_recomputes_best() {
        let m = table_i_matrix();
        let r = m.restrict_columns(&[2, 3]).unwrap();
        assert_eq!(r.n_points(), 2);
        // Alex's best among {Intercontinental, Hilton} is Hilton (0.4).
        assert_eq!(r.best_index(0), 1);
        assert!((r.best_value(0) - 0.4).abs() < 1e-12);
        assert!(m.restrict_columns(&[]).is_err());
        assert!(m.restrict_columns(&[9]).is_err());
    }

    /// Degenerate and tile-straddling geometries through the kernelized
    /// construction paths: 1×1, 1×n, N×1, and sizes around the kernel
    /// tile width must all produce correct bests and mirrors.
    #[test]
    fn kernel_edge_geometries_build_correctly() {
        use crate::kernels::TILE;
        // 1×1: the smallest legal matrix.
        let m = ScoreMatrix::from_rows(vec![vec![0.5]], None).unwrap();
        assert_eq!((m.best_index(0), m.best_value(0)), (0, 0.5));
        assert_eq!(m.column(0), &[0.5]);
        // 1×n around the tile boundary: the max sits in the tail tile.
        for n in [1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE + 3] {
            let mut row: Vec<f64> = (0..n).map(|p| 0.1 + (p % 7) as f64 * 0.01).collect();
            row[n - 1] = 9.0;
            let m = ScoreMatrix::from_rows(vec![row], None).unwrap();
            assert_eq!(m.best_index(0), n - 1, "n={n}");
            assert_eq!(m.best_value(0), 9.0);
        }
        // N×1: every row is a single-element scan.
        let rows: Vec<Vec<f64>> = (0..(TILE + 5)).map(|u| vec![0.01 + u as f64]).collect();
        let m = ScoreMatrix::from_rows(rows, None).unwrap();
        for u in 0..m.n_samples() {
            assert_eq!(m.best_index(u), 0);
            assert_eq!(m.best_value(u), 0.01 + u as f64);
        }
        assert_eq!(m.column(0).len(), TILE + 5);
    }

    /// The fused linear scoring kernel in `from_functions` must be
    /// bit-identical to scoring the same functions through the virtual
    /// per-element path (a wrapper hiding `linear_weights`) and to manual
    /// `kernels::dot` calls.
    #[test]
    fn fused_linear_from_functions_is_bitwise_virtual_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Same weights, but opted out of the batch kernel: exercises the
        /// generic virtual-dispatch row fill.
        struct Opaque(LinearUtility);
        impl UtilityFunction for Opaque {
            fn utility(&self, index: usize, point: &[f64]) -> f64 {
                self.0.utility(index, point)
            }
        }

        let mut rng = StdRng::seed_from_u64(77);
        let dim = 3;
        // Point count straddles the scoring tile; sample count straddles
        // the LANES unroll.
        let n = crate::kernels::TILE + 2;
        let n_samples = crate::kernels::LANES + 1;
        let points: Vec<Vec<f64>> =
            (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
        let d = Dataset::from_rows(points).unwrap();
        let weights: Vec<Vec<f64>> =
            (0..n_samples).map(|_| (0..dim).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
        let fused: Vec<Arc<dyn UtilityFunction>> = weights
            .iter()
            .map(|w| Arc::new(LinearUtility::new(w.clone()).unwrap()) as Arc<dyn UtilityFunction>)
            .collect();
        let virt: Vec<Arc<dyn UtilityFunction>> = weights
            .iter()
            .map(|w| {
                Arc::new(Opaque(LinearUtility::new(w.clone()).unwrap())) as Arc<dyn UtilityFunction>
            })
            .collect();
        let mf = ScoreMatrix::from_functions(&d, &fused, None).unwrap();
        let mv = ScoreMatrix::from_functions(&d, &virt, None).unwrap();
        for (u, w) in weights.iter().enumerate() {
            for p in 0..n {
                let manual = crate::kernels::dot(w, d.point(p));
                assert_eq!(mf.score(u, p).to_bits(), manual.to_bits(), "u={u} p={p}");
                assert_eq!(mf.score(u, p).to_bits(), mv.score(u, p).to_bits(), "u={u} p={p}");
            }
            assert_eq!(mf.best_index(u), mv.best_index(u));
            assert_eq!(mf.best_value(u).to_bits(), mv.best_value(u).to_bits());
        }
    }

    /// Invalid linear scores surface through the fused kernel with the
    /// same error classification as the scalar path.
    #[test]
    fn fused_linear_path_reports_nonfinite_and_degenerate() {
        // Finite inputs whose dot product overflows to +inf: the fused
        // pass must flag the first offending column.
        let d = Dataset::from_rows(vec![vec![2.0, 2.0], vec![0.5, 0.5]]).unwrap();
        let fs: Vec<Arc<dyn UtilityFunction>> =
            vec![Arc::new(LinearUtility::new(vec![f64::MAX, f64::MAX]).unwrap())];
        assert!(matches!(
            ScoreMatrix::from_functions(&d, &fs, None),
            Err(FamError::NonFinite { row: 0, col: 0 })
        ));
        // All-zero scores under a weight vector orthogonal to every point.
        let d2 = Dataset::from_rows(vec![vec![0.0, 1.0], vec![0.0, 2.0]]).unwrap();
        let fs2: Vec<Arc<dyn UtilityFunction>> =
            vec![Arc::new(LinearUtility::new(vec![1.0, 0.0]).unwrap())];
        assert!(matches!(
            ScoreMatrix::from_functions(&d2, &fs2, None),
            Err(FamError::DegenerateUtility { sample: 0 })
        ));
    }
}
