//! The high-level facade over the unified solver API: build an
//! [`Engine`] once (dataset + sampled user population + default solver),
//! then solve by registry name.
//!
//! An engine built with [`EngineBuilder::reduce`] holds only the kept
//! candidates' scores. Its solves run through
//! [`Registry::solve_reduced`], the entry point every reduced request
//! shares (the CLI's `reduce=` and fam-serve's reduced datasets too), and
//! its evaluations map ids through [`Reduction::columns`]: the scores
//! hold the kept points in ascending id order, as every reduced build
//! does.
//!
//! ```
//! use fam::Engine;
//! use fam::Dataset;
//!
//! let hotels = Dataset::from_rows(vec![
//!     vec![0.9, 0.2],
//!     vec![0.7, 0.6],
//!     vec![0.4, 0.8],
//!     vec![0.1, 0.95],
//! ]).unwrap();
//! let engine = Engine::builder()
//!     .dataset(hotels)
//!     .samples(1_000)
//!     .solver("greedy-shrink")
//!     .build()
//!     .unwrap();
//! let out = engine.solve(2).unwrap();
//! assert_eq!(out.selection.len(), 2);
//! ```

use std::sync::{Arc, OnceLock};

use fam_algos::{Registry, SolverSpec};
use fam_core::{
    chernoff_epsilon, kernels, regret, sample_functions, Dataset, FamError, LinearScores,
    PrecisionSpec, ReduceKind, RegretReport, Result, ScoreBacking, ScoreMatrix, ScoreSource,
    SolveOutput, TiledBuildStats, UniformLinear, UtilityDistribution, UtilityFunction,
};
use fam_reduce::{ReduceSpec, Reduction};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default sampled-population size (`N`) when none is configured.
pub const DEFAULT_SAMPLES: usize = 2_000;
/// Default sampling seed (a fixed seed makes engine builds reproducible).
pub const DEFAULT_SEED: u64 = 42;
/// Default solver name.
pub const DEFAULT_SOLVER: &str = "greedy-shrink";

/// A built engine: the sampled population's scores, the raw dataset
/// (when one was supplied — coordinate-based solvers need it), and a
/// default solver name. All solving dispatches through
/// [`Registry::global`].
///
/// **Backing.** A sampled population of linear utilities (the default
/// [`UniformLinear`], any `*Linear` distribution) is held as
/// [`LinearScores`]: `N × d` weights plus the points, each score
/// recomputed when read (the paper's §III-D-3). Any other population
/// (Cobb-Douglas, tables) and every [`EngineBuilder::matrix`] engine is
/// held as the dense [`ScoreMatrix`]. [`ScoreBacking`] makes that choice.
/// Both give the same answer bit for bit, so the backing changes only
/// time and memory.
///
/// **Reading the scores.** [`Engine::scores`] lends the backing as a
/// [`ScoreSource`], and every solve and evaluation reads it.
/// [`Engine::matrix`] lends a dense matrix. On a linear engine it builds
/// one on first call (`N × n × 16` bytes with its mirror). Use it only
/// where a `&ScoreMatrix` is required.
///
/// When built with [`EngineBuilder::reduce`], the scores cover only the
/// reduction's kept universe (scored from the skyline alone by
/// [`Reduction::backing`], so the full `N × n` scores never exist).
/// Requests still speak original point ids: [`Registry::solve_reduced`]
/// gates them and maps seeds in and answers out.
pub struct Engine {
    dataset: Option<Dataset>,
    scores: ScoreBacking,
    /// The dense view [`Engine::matrix`] builds for a linear engine.
    dense: OnceLock<ScoreMatrix>,
    solver: String,
    reduced: Option<ReducedState>,
}

/// The reduced-resident substrate: which original points survive, the
/// materialized kept-universe dataset coordinate solvers see, and the
/// build's shortfall statistics.
struct ReducedState {
    reduction: Reduction,
    dataset: Dataset,
    stats: TiledBuildStats,
}

impl Engine {
    /// Starts a builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The resident scores, in their backing: [`LinearScores`] for a
    /// sampled linear population, the dense [`ScoreMatrix`] otherwise.
    /// Every solve and evaluation of this engine reads them.
    pub fn scores(&self) -> &dyn ScoreSource {
        self.scores.source()
    }

    /// The resident scores as a dense [`ScoreMatrix`], for callers that
    /// need that type; everything else reads [`Engine::scores`].
    ///
    /// A dense engine lends its own matrix. A linear engine builds the
    /// matrix from its weights on the first call and keeps it: that costs
    /// the `N × n × 16` bytes the compact backing saves. The result
    /// equals [`ScoreMatrix::from_distribution`]'s build of the same
    /// population bit for bit (rows, mirror, weights and bests).
    pub fn matrix(&self) -> &ScoreMatrix {
        match &self.scores {
            ScoreBacking::Dense(m) => m,
            ScoreBacking::Linear(s) => self.dense.get_or_init(|| densify(s)),
        }
    }

    /// The raw dataset, when the engine was built from one.
    pub fn dataset(&self) -> Option<&Dataset> {
        self.dataset.as_ref()
    }

    /// The configured default solver name.
    pub fn solver(&self) -> &str {
        &self.solver
    }

    /// Solves for `k` points with the default solver and canonical
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns registry or solver errors.
    pub fn solve(&self, k: usize) -> Result<SolveOutput> {
        self.solve_with(&SolverSpec::new(&self.solver, k))
    }

    /// Solves for `k` points with any registered algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::Unsupported`] for unknown names (enumerating
    /// the registry) or capability violations, or the solver's error.
    pub fn solve_as(&self, name: &str, k: usize) -> Result<SolveOutput> {
        self.solve_with(&SolverSpec::new(name, k))
    }

    /// Solves a fully specified request (name + typed parameters). On a
    /// reduced-resident engine the request runs in the kept universe
    /// through [`Registry::solve_reduced`]: seeds and answers are
    /// original point ids, and the answer carries `reduced_from` /
    /// `reduced_to` notes.
    ///
    /// # Errors
    ///
    /// As [`Engine::solve_as`]; additionally, on a reduced-resident
    /// engine, a per-request `reduce=` parameter, a solver whose
    /// [`fam_algos::Caps::reducible`] rejects the build-time reduction,
    /// or a `k` above the kept count fails up front.
    pub fn solve_with(&self, spec: &SolverSpec) -> Result<SolveOutput> {
        match &self.reduced {
            None => Registry::global().solve(spec, self.scores(), self.dataset.as_ref()),
            Some(r) => Registry::global().solve_reduced(
                spec,
                self.scores(),
                Some(&r.dataset),
                &r.reduction,
            ),
        }
    }

    /// Harvests the default solver's whole `k`-range from one trajectory
    /// (requires range-harvest capability), each entry bit-identical to
    /// [`Engine::solve`] at that `k`.
    ///
    /// # Errors
    ///
    /// As [`Engine::solve`], plus [`FamError::Unsupported`] when the
    /// default solver cannot harvest ranges.
    pub fn solve_range(&self, ks: std::ops::RangeInclusive<usize>) -> Result<Vec<SolveOutput>> {
        let spec = SolverSpec::new(&self.solver, *ks.end());
        match &self.reduced {
            None => Registry::global().solve_range(&spec, self.scores(), self.dataset.as_ref(), ks),
            Some(r) => Registry::global().solve_range_reduced(
                &spec,
                self.scores(),
                Some(&r.dataset),
                &r.reduction,
                ks,
            ),
        }
    }

    /// Evaluates an explicit selection (original point ids) against the
    /// resident scores. On a reduced-resident engine the regret is
    /// measured against the kept universe's per-sample bests — exact for
    /// a skyline reduction, and short of the full database by at most
    /// [`Engine::reduce_stats`]'s `max_shortfall` for a coreset.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-bounds or duplicate indices, or for
    /// ids the reduction pruned.
    pub fn evaluate(&self, selection: &[usize]) -> Result<RegretReport> {
        match &self.reduced {
            None => regret::report(self.scores(), selection),
            Some(r) => regret::report(self.scores(), &r.reduction.columns(selection, "selection")?),
        }
    }

    /// The build-time reduction, when the engine is reduced-resident.
    pub fn reduction(&self) -> Option<&Reduction> {
        self.reduced.as_ref().map(|r| &r.reduction)
    }

    /// The reduced build's shortfall statistics, when the engine is
    /// reduced-resident: how far the kept universe's per-sample bests
    /// fall short of the full database's (exactly zero for a skyline
    /// reduction).
    pub fn reduce_stats(&self) -> Option<TiledBuildStats> {
        self.reduced.as_ref().map(|r| r.stats)
    }

    /// The ε the resident sample count achieves at confidence
    /// `1 - sigma` (Theorem 4) — how precise this engine's sampled
    /// estimates are.
    ///
    /// # Errors
    ///
    /// Returns an error for a `sigma` outside `(0, 1)`.
    pub fn achieved_epsilon(&self, sigma: f64) -> Result<f64> {
        chernoff_epsilon(self.scores().n_samples() as u64, sigma)
    }
}

/// A linear engine's scores as a dense matrix, built as
/// [`ScoreMatrix::from_distribution`] builds the same population: each
/// weight row goes through [`ScoreMatrix::from_functions`]' fused linear
/// kernel.
fn densify(scores: &LinearScores) -> ScoreMatrix {
    let functions: Vec<Arc<dyn UtilityFunction>> = (0..scores.n_samples())
        .map(|u| Arc::new(WeightRow(scores.weight_vector(u).to_vec())) as Arc<dyn UtilityFunction>)
        .collect();
    ScoreMatrix::from_functions(scores.dataset(), &functions, None)
        .expect("the same scores passed the same checks when the engine was built")
}

/// One sample of a linear engine, exactly as it was scored: unlike
/// [`fam_core::LinearUtility::new`] it takes the weights without
/// re-checking them, so a weight row that scored validly always
/// rebuilds.
struct WeightRow(Vec<f64>);

impl UtilityFunction for WeightRow {
    fn utility(&self, _index: usize, point: &[f64]) -> f64 {
        kernels::dot(&self.0, point)
    }

    fn linear_weights(&self) -> Option<&[f64]> {
        Some(&self.0)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("linear", &matches!(self.scores, ScoreBacking::Linear(_)))
            .field("n_points", &self.scores().n_points())
            .field("n_samples", &self.scores().n_samples())
            .field("dataset", &self.dataset.as_ref().map(|d| (d.len(), d.dim())))
            .field("solver", &self.solver)
            .field("reduce", &self.reduced.as_ref().map(|r| r.reduction.fingerprint()))
            .finish()
    }
}

/// Builds an [`Engine`]: supply a dataset (scored under a sampled
/// utility distribution) or a pre-built matrix, pick a default solver,
/// and [`EngineBuilder::build`].
pub struct EngineBuilder {
    dataset: Option<Dataset>,
    matrix: Option<ScoreMatrix>,
    distribution: Option<Box<dyn UtilityDistribution>>,
    samples: usize,
    precision: Option<PrecisionSpec>,
    seed: u64,
    solver: String,
    reduce: ReduceSpec,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            dataset: None,
            matrix: None,
            distribution: None,
            samples: DEFAULT_SAMPLES,
            precision: None,
            seed: DEFAULT_SEED,
            solver: DEFAULT_SOLVER.to_string(),
            reduce: ReduceSpec::none(),
        }
    }
}

impl EngineBuilder {
    /// The point database. Without an explicit matrix, it is scored
    /// under the configured distribution at build time; either way it is
    /// kept so coordinate-based solvers (`dp-2d`, `cube`, `sky-dom`, the
    /// LP-exact MRR-GREEDY) stay reachable.
    #[must_use]
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// A pre-built score matrix (e.g. from a learned utility model or
    /// the exact discrete construction). Skips sampling entirely; the
    /// engine is dense-backed.
    #[must_use]
    pub fn matrix(mut self, matrix: ScoreMatrix) -> Self {
        self.matrix = Some(matrix);
        self
    }

    /// The utility distribution to sample the user population from
    /// (default: [`UniformLinear`] in the dataset's dimensionality).
    #[must_use]
    pub fn distribution(mut self, dist: Box<dyn UtilityDistribution>) -> Self {
        self.distribution = Some(dist);
        self
    }

    /// Number of sampled utility functions `N` (default
    /// [`DEFAULT_SAMPLES`]). Overridden by
    /// [`EngineBuilder::precision`] when both are set.
    #[must_use]
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n;
        self
    }

    /// Sizes the sample population by a precision target instead of a
    /// raw count: `N` becomes the Chernoff bound for an `epsilon`-
    /// accurate average regret ratio at confidence `1 - sigma`
    /// (Theorem 4). Validated — including against the matrix footprint
    /// budget — at build time.
    #[must_use]
    pub fn precision(mut self, epsilon: f64, sigma: f64) -> Self {
        self.precision = Some(PrecisionSpec { epsilon, sigma });
        self
    }

    /// Sampling seed (default [`DEFAULT_SEED`]).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Default solver name (default [`DEFAULT_SOLVER`]); validated
    /// against the registry at build time.
    #[must_use]
    pub fn solver(mut self, name: &str) -> Self {
        self.solver = name.to_string();
        self
    }

    /// Reduces the candidate universe at build time (`fam-reduce`):
    /// `ReduceKind::Skyline` keeps the exact Pareto frontier,
    /// `ReduceKind::Coreset` additionally thins it under the configured
    /// [`EngineBuilder::reduce_eps`] regret target. The sampled functions
    /// are then scored by [`Reduction::backing`] over the skyline
    /// only — no dominated point is scored and no `N × n` scores
    /// ever exist, which is what lets million-point datasets through
    /// the `FAM_MAX_MATRIX_BYTES` budget — and the answer is bit-identical
    /// to scoring the full dataset. Requires a dataset (reduction is a
    /// coordinate-stage operation) and a monotone utility distribution:
    /// [`EngineBuilder::build`] refuses a sample whose
    /// [`fam_core::UtilityFunction::is_monotone`] is `false` (e.g. a
    /// `TableUtility` atom) before scoring. A pre-built
    /// [`EngineBuilder::matrix`] is restricted to the kept columns
    /// instead.
    #[must_use]
    pub fn reduce(mut self, kind: ReduceKind) -> Self {
        self.reduce.kind = kind;
        self
    }

    /// Regret target for the coreset reduction stage (default
    /// [`fam_core::solve::DEFAULT_REDUCE_EPS`]); ignored unless
    /// [`EngineBuilder::reduce`] requests `ReduceKind::Coreset`.
    #[must_use]
    pub fn reduce_eps(mut self, eps: f64) -> Self {
        self.reduce.eps = eps;
        self
    }

    /// Builds the engine: validates the solver name, then scores the
    /// dataset unless a matrix was supplied.
    ///
    /// The sampled population is drawn once from the seeded stream
    /// [`ScoreMatrix::from_distribution`] draws, and is held as
    /// [`LinearScores`] when every function is linear
    /// ([`ScoreBacking::from_functions`], or [`Reduction::backing`] on a
    /// reduced build), as a dense [`ScoreMatrix`] otherwise. The
    /// `FAM_MAX_MATRIX_BYTES` budget is charged for `N × n` (`N × kept`
    /// when reduced) either way: it limits the work a build may ask for,
    /// so a linear engine is refused exactly where a dense one is.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::Unsupported`] for an unknown solver name
    /// (enumerating the registry), [`FamError::InvalidParameter`] when
    /// neither dataset nor matrix was supplied (or the sample count is
    /// zero with no matrix), or scoring failures.
    pub fn build(self) -> Result<Engine> {
        Registry::global().require(&self.solver)?;
        self.reduce.validate()?;
        // The reduction runs before any scoring: it needs coordinates,
        // and its kept universe is what the matrix budget is charged for.
        let reduction = if self.reduce.is_none() {
            None
        } else {
            let ds = self.dataset.as_ref().ok_or_else(|| FamError::InvalidParameter {
                name: "reduce",
                message: "candidate reduction needs a dataset \
                          (it is a coordinate-stage operation)"
                    .into(),
            })?;
            Some(Reduction::compute(ds, self.reduce)?)
        };
        // A pre-built matrix has a fixed sample count: a precision target
        // it cannot meet must fail loudly, not silently under-deliver.
        if let (Some(spec), Some(m)) = (&self.precision, &self.matrix) {
            if !spec.satisfied_by(m.n_samples() as u64)? {
                return Err(FamError::InvalidParameter {
                    name: "precision",
                    message: format!(
                        "epsilon = {} at confidence {} needs N >= {} samples (Theorem 4); \
                         the supplied matrix has N = {}",
                        spec.epsilon,
                        1.0 - spec.sigma,
                        spec.required_samples()?,
                        m.n_samples()
                    ),
                });
            }
        }
        let (scores, stats) = match (self.matrix, &self.dataset) {
            (Some(m), Some(ds)) => {
                // Coordinate-based solvers index the dataset with matrix
                // point indices: the two must describe the same universe.
                if m.n_points() != ds.len() {
                    return Err(FamError::InvalidParameter {
                        name: "matrix",
                        message: format!(
                            "matrix covers {} points but the dataset has {}; \
                             they must describe the same point universe",
                            m.n_points(),
                            ds.len()
                        ),
                    });
                }
                match &reduction {
                    None => (ScoreBacking::Dense(m), None),
                    Some(r) => {
                        // A pre-built matrix already paid the dense cost;
                        // restrict it and derive the shortfall stats from
                        // the full-universe bests it knows, through the
                        // same fold the reduced scoring build uses.
                        let reduced = m.restrict_columns(r.kept())?;
                        let bests = |m: &ScoreMatrix| -> Vec<f64> {
                            (0..m.n_samples()).map(|u| m.best_value(u)).collect()
                        };
                        let stats = TiledBuildStats::from_bests(
                            ds.len(),
                            r.kept().len(),
                            &bests(&m),
                            &bests(&reduced),
                        );
                        (ScoreBacking::Dense(reduced), Some(stats))
                    }
                }
            }
            (Some(m), None) => (ScoreBacking::Dense(m), None),
            (None, Some(ds)) => {
                // The budget (and a Chernoff-sized population's budget
                // check) is charged for the universe actually scored: the
                // kept points under a reduction, the whole dataset
                // otherwise.
                let budget_points = reduction.as_ref().map_or(ds.len(), |r| r.kept().len());
                let samples = match &self.precision {
                    Some(spec) => spec.required_samples_checked(budget_points)?,
                    None => self.samples,
                };
                if samples == 0 {
                    return Err(FamError::InvalidParameter {
                        name: "samples",
                        message: "at least one utility sample is required".into(),
                    });
                }
                let dist: Box<dyn UtilityDistribution> = match self.distribution {
                    Some(d) => d,
                    None => Box::new(UniformLinear::new(ds.dim())?),
                };
                // The draws `ScoreMatrix::from_distribution` makes, with the
                // budget charged as a dense matrix of them would be, whatever
                // backing then holds the scores.
                let mut rng = StdRng::seed_from_u64(self.seed);
                let functions = sample_functions(dist.as_ref(), samples, budget_points, &mut rng)?;
                match &reduction {
                    None => (ScoreBacking::from_functions(ds, &functions)?, None),
                    Some(r) => {
                        let (scores, stats) = r.backing(ds, &functions)?;
                        (scores, Some(stats))
                    }
                }
            }
            (None, None) => {
                return Err(FamError::InvalidParameter {
                    name: "dataset",
                    message: "an engine needs a dataset or a pre-built matrix".into(),
                });
            }
        };
        let reduced = match reduction {
            None => None,
            Some(r) => {
                let full = self.dataset.as_ref().expect("reduction implies a dataset");
                let dataset = r.restrict_dataset(full)?;
                let stats = stats.expect("reduction implies tiled/restricted stats");
                Some(ReducedState { reduction: r, dataset, stats })
            }
        };
        Ok(Engine {
            dataset: self.dataset,
            scores,
            dense: OnceLock::new(),
            solver: self.solver,
            reduced,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_core::MeasureKind;

    fn hotels() -> Dataset {
        Dataset::from_rows(vec![vec![0.9, 0.2], vec![0.7, 0.6], vec![0.4, 0.8], vec![0.1, 0.95]])
            .unwrap()
    }

    #[test]
    fn builder_scores_the_dataset_and_solves() {
        let engine = Engine::builder().dataset(hotels()).samples(300).seed(7).build().unwrap();
        assert_eq!(engine.solver(), DEFAULT_SOLVER);
        assert_eq!(engine.scores().n_samples(), 300);
        assert!(engine.scores().linear_columns().is_some(), "uniform linear goes compact");
        assert_eq!(engine.dataset().unwrap().len(), 4);
        let out = engine.solve(2).unwrap();
        assert_eq!(out.selection.len(), 2);
        let rep = engine.evaluate(&out.selection.indices).unwrap();
        assert!(rep.arr.is_finite());
        assert!(format!("{engine:?}").contains("greedy-shrink"));
    }

    #[test]
    fn builds_are_reproducible_and_match_direct_calls() {
        let a = Engine::builder().dataset(hotels()).samples(200).seed(3).build().unwrap();
        let b = Engine::builder().dataset(hotels()).samples(200).seed(3).build().unwrap();
        let (sa, sb) = (a.solve(2).unwrap(), b.solve(2).unwrap());
        assert_eq!(sa.selection.indices, sb.selection.indices);
        assert_eq!(
            sa.selection.objective.unwrap().to_bits(),
            sb.selection.objective.unwrap().to_bits()
        );
        // The builder is a thin veneer: same matrix ⇒ same answer as the
        // free function.
        let direct =
            fam_algos::greedy_shrink(a.scores(), fam_algos::GreedyShrinkConfig::new(2)).unwrap();
        assert_eq!(sa.selection.indices, direct.selection.indices);
    }

    #[test]
    fn every_registered_solver_is_reachable_through_the_engine() {
        let engine = Engine::builder().dataset(hotels()).samples(150).build().unwrap();
        for solver in Registry::global().iter() {
            let out = engine
                .solve_as(solver.name(), 2)
                .unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
            assert_eq!(out.selection.len(), 2, "{}", solver.name());
        }
        // Typed parameters flow through solve_with.
        let mut spec = SolverSpec::new("dp-2d", 2);
        spec.params.measure = MeasureKind::UniformAngle;
        assert_eq!(engine.solve_with(&spec).unwrap().selection.len(), 2);
    }

    #[test]
    fn range_harvest_matches_per_k_solves() {
        let engine = Engine::builder().dataset(hotels()).samples(120).build().unwrap();
        let range = engine.solve_range(1..=3).unwrap();
        assert_eq!(range.len(), 3);
        for (i, out) in range.iter().enumerate() {
            let cold = engine.solve(i + 1).unwrap();
            assert_eq!(out.selection.indices, cold.selection.indices);
        }
    }

    #[test]
    fn matrix_backed_engines_skip_sampling_but_keep_solving() {
        let m = ScoreMatrix::from_rows(
            vec![vec![0.5, 1.0, 0.1], vec![0.4, 0.9, 0.2], vec![1.0, 0.2, 0.3]],
            None,
        )
        .unwrap();
        let engine = Engine::builder().matrix(m).solver("k-hit").build().unwrap();
        assert!(engine.dataset().is_none());
        assert_eq!(engine.solve(2).unwrap().selection.len(), 2);
        // Coordinate-based solvers are gated off without a dataset.
        assert!(engine.solve_as("sky-dom", 2).is_err());
    }

    #[test]
    fn precision_builder_sizes_samples_by_chernoff() {
        let engine =
            Engine::builder().dataset(hotels()).precision(0.15, 0.1).seed(2).build().unwrap();
        let expected = fam_core::chernoff_sample_size(0.15, 0.1).unwrap() as usize;
        assert_eq!(engine.scores().n_samples(), expected);
        assert!(engine.achieved_epsilon(0.1).unwrap() <= 0.15);
        assert!(engine.achieved_epsilon(2.0).is_err());
        // Precision wins over an explicit sample count.
        let engine =
            Engine::builder().dataset(hotels()).samples(17).precision(0.2, 0.1).build().unwrap();
        assert_eq!(
            engine.scores().n_samples(),
            fam_core::chernoff_sample_size(0.2, 0.1).unwrap() as usize
        );
        // Invalid targets fail at build time.
        assert!(Engine::builder().dataset(hotels()).precision(0.0, 0.1).build().is_err());
        assert!(Engine::builder().dataset(hotels()).precision(0.1, 1.0).build().is_err());
        // A pre-built matrix that cannot meet the target is rejected
        // instead of silently under-delivering.
        let tiny = ScoreMatrix::from_rows(vec![vec![0.5, 1.0]; 8], None).unwrap();
        let err = match Engine::builder().matrix(tiny.clone()).precision(0.1, 0.1).build() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("8 samples cannot satisfy eps = 0.1"),
        };
        assert!(err.contains("Theorem 4"), "{err}");
        // A matrix that does meet it builds fine.
        let enough = fam_core::chernoff_sample_size(0.5, 0.5).unwrap() as usize;
        let big = ScoreMatrix::from_rows(vec![vec![0.5, 1.0]; enough], None).unwrap();
        assert!(Engine::builder().matrix(big).precision(0.5, 0.5).build().is_ok());
        let _ = tiny;
    }

    #[test]
    fn reduced_engines_answer_in_original_ids() {
        // Point 4 is dominated (worse than hotel 1 on both axes) — the
        // skyline drops it, shifting every later id; remapping must undo
        // that shift.
        let rows =
            vec![vec![0.9, 0.2], vec![0.7, 0.6], vec![0.3, 0.3], vec![0.4, 0.8], vec![0.1, 0.95]];
        let ds = Dataset::from_rows(rows).unwrap();
        let full = Engine::builder().dataset(ds.clone()).samples(300).seed(9).build().unwrap();
        let reduced = Engine::builder()
            .dataset(ds.clone())
            .samples(300)
            .seed(9)
            .reduce(ReduceKind::Skyline)
            .build()
            .unwrap();
        assert_eq!(reduced.scores().n_points(), 4, "skyline drops the dominated point");
        assert_eq!(reduced.reduction().unwrap().kept(), &[0, 1, 3, 4]);
        let stats = reduced.reduce_stats().unwrap();
        assert_eq!(stats.max_shortfall, 0.0, "a skyline loses no best point");
        let (a, b) = (full.solve(2).unwrap(), reduced.solve(2).unwrap());
        assert_eq!(a.selection.indices, b.selection.indices, "original ids, same answer");
        assert_eq!(
            a.selection.objective.unwrap().to_bits(),
            b.selection.objective.unwrap().to_bits(),
            "same seed + skyline reduction = bit-identical objective"
        );
        assert_eq!(b.note("reduced_from"), Some(5.0));
        assert_eq!(b.note("reduced_to"), Some(4.0));
        // Exact coordinate solvers run on the reduced universe too.
        let exact = reduced.solve_as("dp-2d", 2).unwrap();
        assert!(exact.selection.indices.iter().all(|&i| i != 2));
        // Range harvests remap every trajectory entry.
        for (i, out) in reduced.solve_range(1..=3).unwrap().iter().enumerate() {
            assert_eq!(out.selection.indices, reduced.solve(i + 1).unwrap().selection.indices);
        }
        // evaluate() takes original ids; pruned ids are a clean error.
        let rep = reduced.evaluate(&b.selection.indices).unwrap();
        assert!(rep.arr.is_finite());
        assert!(reduced.evaluate(&[2]).is_err());
        // Per-request reduction on a reduced engine is refused.
        let mut spec = SolverSpec::new("greedy-shrink", 2);
        spec.params.reduce = ReduceKind::Skyline;
        assert!(reduced.solve_with(&spec).is_err());
        assert!(format!("{reduced:?}").contains("skyline"));
        // ... but flows through the registry on an unreduced engine.
        let out = full.solve_with(&spec).unwrap();
        assert_eq!(out.note("reduced_from"), Some(5.0));
        // A pre-built matrix is restricted rather than resampled, and the
        // engine still answers in original ids.
        let m = full.matrix().clone();
        let prebuilt = Engine::builder()
            .dataset(ds.clone())
            .matrix(m)
            .reduce(ReduceKind::Skyline)
            .build()
            .unwrap();
        assert_eq!(prebuilt.scores().n_points(), 4);
        let c = prebuilt.solve(2).unwrap();
        assert_eq!(c.selection.indices, a.selection.indices);
        assert_eq!(prebuilt.reduce_stats().unwrap().max_shortfall, 0.0);
        // Reduction without a dataset is a build-time error.
        let err = Engine::builder()
            .matrix(full.matrix().clone())
            .reduce(ReduceKind::Skyline)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("coordinate"), "{err}");
        // Coreset engines validate eps at build time.
        assert!(Engine::builder()
            .dataset(ds)
            .reduce(ReduceKind::Coreset)
            .reduce_eps(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn prebuilt_and_sampled_reduced_builds_report_the_same_stats_bits() {
        // The same population two ways: sampled by the builder (scored
        // from the skyline) and pre-built densely from the same RNG
        // stream (restricted to the kept columns). A 3-D coreset leaves
        // a non-zero shortfall, so the mean's fold order shows.
        let mut rng = StdRng::seed_from_u64(11);
        let ds =
            fam_data::synthetic(1500, 3, fam_data::Correlation::AntiCorrelated, &mut rng).unwrap();
        for eps in [0.05, 0.2] {
            let sampled = Engine::builder()
                .dataset(ds.clone())
                .samples(600)
                .seed(5)
                .reduce(ReduceKind::Coreset)
                .reduce_eps(eps)
                .build()
                .unwrap();
            let dist = UniformLinear::new(3).unwrap();
            let dense =
                ScoreMatrix::from_distribution(&ds, &dist, 600, &mut StdRng::seed_from_u64(5))
                    .unwrap();
            let prebuilt = Engine::builder()
                .dataset(ds.clone())
                .matrix(dense)
                .reduce(ReduceKind::Coreset)
                .reduce_eps(eps)
                .build()
                .unwrap();
            let (a, b) = (sampled.reduce_stats().unwrap(), prebuilt.reduce_stats().unwrap());
            assert!(a.mean_shortfall > 0.0, "eps {eps}: the coreset must lose something");
            assert_eq!((a.source_points, a.kept_points), (b.source_points, b.kept_points));
            assert_eq!(a.max_shortfall.to_bits(), b.max_shortfall.to_bits(), "eps {eps}: max");
            assert_eq!(a.mean_shortfall.to_bits(), b.mean_shortfall.to_bits(), "eps {eps}: mean");
            for u in 0..600 {
                assert_eq!(sampled.matrix().row(u), prebuilt.matrix().row(u), "eps {eps}: row {u}");
            }
        }
    }

    #[test]
    fn reduction_refuses_non_monotone_utilities_before_scoring() {
        use fam_core::{DiscreteDistribution, TableUtility, UtilityFunction};
        let table = |scores: Vec<f64>| -> Arc<dyn UtilityFunction> {
            Arc::new(TableUtility::new(scores).unwrap())
        };
        let population = |atoms: Vec<Arc<dyn UtilityFunction>>| {
            Box::new(DiscreteDistribution::uniform(atoms, 2).unwrap())
        };
        let tables = || vec![table(vec![0.2, 0.9, 0.1, 0.4]), table(vec![0.1, 0.2, 0.9, 0.3])];
        // Table 1's favourite is point 2, which the skyline drops:
        // dominance pruning is unsound for index-based tables.
        let ds = Dataset::from_rows(vec![
            vec![0.9, 0.2],
            vec![0.7, 0.6],
            vec![0.3, 0.3],
            vec![0.1, 0.95],
        ])
        .unwrap();
        let unreduced =
            Engine::builder().dataset(ds.clone()).distribution(population(tables())).samples(8);
        assert!(unreduced.build().is_ok(), "tables score fine without reduction");
        let refused = Engine::builder()
            .dataset(ds.clone())
            .distribution(population(tables()))
            .samples(8)
            .reduce(ReduceKind::Skyline)
            .build();
        match refused {
            Err(FamError::InvalidParameter { name: "reduce", message }) => {
                assert!(message.contains("monotone"), "{message}")
            }
            Err(e) => panic!("expected a `reduce` refusal, got {e}"),
            Ok(_) => panic!("a reduced build over tables must be refused"),
        }
        // The refusal comes before any scoring: a one-entry table would
        // panic on its first out-of-range index if a point were scored.
        let refused = Engine::builder()
            .dataset(ds)
            .distribution(population(vec![table(vec![1.0])]))
            .samples(8)
            .reduce(ReduceKind::Skyline)
            .build();
        assert!(matches!(refused, Err(FamError::InvalidParameter { name: "reduce", .. })));
    }

    #[test]
    fn builder_validates_inputs() {
        assert!(Engine::builder().build().is_err());
        assert!(Engine::builder().dataset(hotels()).samples(0).build().is_err());
        let err = match Engine::builder().dataset(hotels()).solver("quantum").build() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("unknown solver must fail at build time"),
        };
        assert!(err.contains("greedy-shrink"), "{err}");
        // A matrix over a different point universe than the dataset is
        // rejected: coordinate-based solvers would index it wrongly.
        let stranger =
            ScoreMatrix::from_rows(vec![vec![0.5, 1.0, 0.1], vec![0.4, 0.9, 0.2]], None).unwrap();
        let err = match Engine::builder().dataset(hotels()).matrix(stranger).build() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("mismatched matrix/dataset must fail at build time"),
        };
        assert!(err.contains("same point universe"), "{err}");
    }
}
