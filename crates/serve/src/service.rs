//! Per-dataset serving state: the resident scores, held compactly as
//! [`LinearScores`] (the sampled `N × d` weight vectors plus the live
//! `n × d` point coordinates), and a multi-`k` result cache.
//!
//! Solves dispatch through the unified solver registry
//! (`fam_algos::registry`): any registered algorithm name is valid, and
//! capability gating (dataset-needing solvers, dimension constraints,
//! warm seeds) answers a clean client error instead of a panic. The
//! cache holds the solutions for every `(algorithm, k)` in the
//! configured `cache_k` range for each solver whose capabilities declare
//! range harvesting, gathered in one greedy trajectory per algorithm.
//! Harvested entries are **bit-identical** to cold per-`k` solves on the
//! current database — pinned by the trajectory tests and re-pinned
//! end-to-end over TCP by `tests/live_server.rs` — so a cached answer is
//! indistinguishable from a fresh one, and each `(algorithm, k,
//! generation)` has exactly one answer.
//!
//! Every served distribution samples linear utilities, so a generation
//! holds `O(d(N + n))` numbers — about 1.8 MB at `n = 2,000`,
//! `N = 20,000` — instead of the `N × n` score matrix (Section III-D-3
//! of the paper); solvers compute the scores they read, bit-identical
//! to the matrix's. Updates (`POST /update`) derive the next
//! generation with [`LinearScores::with_point_edits`]: it shares the
//! weights, scores only the inserted points, refuses a batch that leaves
//! fewer than the cached maximum `k` points, permutes the coordinates by
//! swap-remove (so coordinate-based solvers like `dp-2d` answer against
//! the *current* point universe), and rescans only the samples whose
//! best point was deleted; the cache is then re-harvested on the result.
//!
//! A dataset reduced at build time ([`ServeOptions::reduce`]) holds the
//! kept candidates only, in ascending original-id order, the order every
//! fresh reduced build uses. An update edits the full coordinates,
//! repairs the reduction and re-scores the kept points in that order
//! under the resident weights ([`LinearScores::with_points`]), so ties
//! break as on a fresh build over the same points. Its cold solves and
//! harvests run through `Registry::solve_reduced` /
//! `solve_range_reduced` over the `Reduction`, the entry point the
//! reduced `Engine` and `fam solve --param reduce=` use: it refuses a
//! per-request `reduce=`, gates `Caps::reducible`, reads seeds as
//! original ids and answers in original ids. `evaluate` maps its ids
//! through `Reduction::columns`. The unreduced paths, cache hits
//! included, never build an id map.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

use fam_algos::{Registry, Solver, SolverSpec};
use fam_core::{
    check_matrix_budget, chernoff_epsilon, failpoints, regret, sample_functions, Dataset, Deadline,
    FamError, LinearScores, PrecisionSpec, RegretReport, Result, SimplexLinear, SolverParams,
    TiledBuildStats, UniformLinear, UtilityDistribution, UtilityFunction, DEFAULT_SIGMA,
};
use fam_data::UpdateOp;
use fam_reduce::{ReduceSpec, Reduction, ReductionRepair};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The utility distribution a dataset samples its user population from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// Independent uniform weights on `[0, 1]^d` ([`UniformLinear`]).
    Uniform,
    /// Uniform weights on the probability simplex ([`SimplexLinear`]).
    Simplex,
}

impl DistKind {
    /// Parses the CLI/HTTP spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(DistKind::Uniform),
            "simplex" => Some(DistKind::Simplex),
            _ => None,
        }
    }

    fn build(self, dim: usize) -> Result<Box<dyn UtilityDistribution>> {
        Ok(match self {
            DistKind::Uniform => Box::new(UniformLinear::new(dim)?),
            DistKind::Simplex => Box::new(SimplexLinear::new(dim)?),
        })
    }
}

/// How a dataset samples its user population and what it caches.
///
/// Both [`DistKind`]s sample linear utilities, so every served dataset
/// holds its scores compactly ([`LinearScores`]: the `N × d` weights and
/// the `n × d` points); `samples` and the point count size the work of a
/// solve or an update, not a resident matrix.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Number of sampled utility functions (`N`).
    pub samples: usize,
    /// RNG seed for the population sample (a fixed seed makes two
    /// services built from the same dataset bit-identical replicas).
    pub seed: u64,
    /// Utility distribution family.
    pub dist: DistKind,
    /// The `k` range whose solutions are cached (and re-harvested after
    /// every update) for every range-capable registered solver. Updates
    /// may not shrink the database below `*cache_k.end()` points.
    pub cache_k: RangeInclusive<usize>,
    /// Failure probability the dataset reports its achieved ε at (and
    /// the default confidence for `POST /refine`); confidence is
    /// `1 - sigma`.
    pub sigma: f64,
    /// Build-time candidate reduction (`fam_reduce`). When non-none, the
    /// resident scores cover **the kept points only**
    /// ([`fam_reduce::Reduction::linear_scores`]), so solvers see only
    /// the kept candidates and the `FAM_MAX_MATRIX_BYTES` work budget
    /// counts only them — million-point datasets can be served. The
    /// utility distribution must be monotone (both `DistKind`s are
    /// linear). Requests speak original point ids: seeds, answers and
    /// evaluated selections map through the kept universe, and a solver
    /// whose `Caps::reducible` refuses the reduction is refused. Updates
    /// repair the reduction incrementally
    /// ([`fam_reduce::Reduction::repair`]), recompute it only when a
    /// kept member is deleted, and re-score the kept points in ascending
    /// id order, as a fresh reduced build holds them.
    pub reduce: ReduceSpec,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            samples: 2_000,
            seed: 42,
            dist: DistKind::Uniform,
            cache_k: 1..=10,
            sigma: DEFAULT_SIGMA,
            reduce: ReduceSpec::none(),
        }
    }
}

/// Largest score count, in bytes of a one-layout `N × n` matrix
/// (`8 · N · n`), a served `POST /refine` may grow a dataset to: 4 GiB,
/// i.e. 2^29 scores. The served scores are compact, so this bounds
/// **work**, not memory: every harvest and every update computes scores
/// in proportion to `N · n` while the refine (and later each update)
/// pins the dataset's single writer slot, so an
/// unauthenticated request must not be able to demand a
/// hundreds-of-gigabytes-equivalent growth — the same reasoning as
/// [`MAX_EXPONENTIAL_LOG2_SUBSETS`]. Tighter global limits still apply
/// via `FAM_MAX_MATRIX_BYTES`; larger refinements belong offline
/// (`fam refine` / the library driver).
pub const MAX_REFINE_MATRIX_BYTES: u64 = 1 << 32;

/// Largest search space (as `log2` of the subset count `C(n, k)`) an
/// exponential-cost solver (per [`fam_algos::Caps::exponential`]) may be
/// served against: ~4M candidate subsets. The paper's own brute-force
/// comparison (100 points, k = 3 ⇒ `C(100,3) ≈ 2^17`) fits comfortably;
/// a pool worker is pinned for the whole search, so the gate bounds the
/// *work*, not just the point count — `C(100, 50)` is `≈ 2^96` and must
/// be refused even though `n` is small.
pub const MAX_EXPONENTIAL_LOG2_SUBSETS: f64 = 22.0;

/// `log2(C(n, k))` — the worst-case subset count of an enumeration
/// search, in bits.
fn log2_binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n.saturating_sub(k));
    (0..k).map(|i| (((n - i) as f64) / ((i + 1) as f64)).log2()).sum()
}

/// One cached (or freshly computed) solution.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// Selected point indices, sorted ascending.
    pub indices: Vec<usize>,
    /// Estimated average regret ratio of the selection on the resident
    /// scores: the solver's own estimate when its capabilities declare
    /// one (`reports_arr`), a fresh evaluation otherwise.
    pub arr: f64,
}

/// Summary of one applied update, as reported to clients.
#[derive(Debug, Clone)]
pub struct UpdateSummary {
    /// Points the client's batch inserted.
    pub inserted: usize,
    /// Points the client's batch deleted.
    pub deleted: usize,
    /// Post-batch point count of the resident scores (the kept
    /// candidates on a reduced service).
    pub n_points: usize,
    /// Cache entries re-harvested on the updated database.
    pub cache_entries: usize,
}

/// Summary of one precision refinement, as reported to clients.
#[derive(Debug, Clone)]
pub struct RefineSummary {
    /// The Chernoff sample target for the requested precision.
    pub target_samples: usize,
    /// Resident sample count after the call (`>= target_samples`).
    pub n_samples: usize,
    /// ε the resident count achieves at the requested confidence.
    pub achieved_epsilon: f64,
    /// Cache entries re-harvested on the refined scores (0 when the
    /// target was already met — the cache is untouched then).
    pub cache_entries: usize,
    /// True when the resident count already met the target and nothing
    /// changed.
    pub already_satisfied: bool,
}

/// A named dataset being served: sampled population, resident scores
/// (weights plus live coordinates), multi-`k` cache.
///
/// `Clone` is the snapshot-serving primitive: a writer copies the
/// current service (cache **and** the continuing RNG stream), mutates
/// the copy off to the side, and publishes it as the next generation
/// only on success — so a failed or panicking writer leaves the served
/// state untouched, and a retried writer converges to exactly the state
/// an unfailed run would have produced (the RNG never advances on a
/// discarded copy). The scores are not copied: the clone shares them
/// through an `Arc`, and an update derives the next ones with the batch
/// applied ([`LinearScores::with_point_edits`]), sharing the weights.
#[derive(Clone)]
pub struct DatasetService {
    name: String,
    dim: usize,
    /// The sampled weights and the current point coordinates, in score
    /// column order — coordinate-based solvers answer against the live
    /// universe. On a reduced service the coordinates are the **kept**
    /// universe only. Shared with the generations this one was cloned
    /// from or into until an update or refine replaces it.
    scores: Arc<LinearScores>,
    /// Result cache, keyed `(algorithm, k, reduction fingerprint)`: the
    /// fingerprint names the candidate universe an entry was solved on,
    /// so entries from differently-reduced builds can never alias.
    cache: BTreeMap<(String, usize, String), SolveResult>,
    cache_k: RangeInclusive<usize>,
    updates: u64,
    /// The distribution family and build seed, retained so `refine` can
    /// grow the population off the **continuing** RNG stream — a refined
    /// service stays bit-identical to a fresh build at the grown sample
    /// count.
    dist: DistKind,
    seed: u64,
    rng: StdRng,
    /// Confidence parameter the achieved ε is reported at (updated by
    /// each `refine` call).
    sigma: f64,
    refines: u64,
    /// Present when the service was built with a non-none
    /// [`ServeOptions::reduce`]: the resident scores then cover the
    /// *reduced* universe, and every request runs in its
    /// [`ReducedResident::reduction`].
    reduced: Option<ReducedResident>,
}

/// The reduced-resident state: the live full-universe coordinates and
/// the reduction over them, whose kept points the resident scores hold
/// in ascending id order.
#[derive(Clone)]
struct ReducedResident {
    reduction: Reduction,
    /// Live full-universe coordinates (updates apply here first, then
    /// repair the reduction, then re-score its kept points).
    full: Dataset,
    /// Shortfall stats from the build-time scoring pass.
    stats: TiledBuildStats,
}

/// Harvests every range-capable solver over `ks` on `m`: in the kept
/// universe on a reduced service, so the entries hold original ids.
fn build_cache(
    m: &LinearScores,
    ks: &RangeInclusive<usize>,
    deadline: &Deadline,
    reduction: Option<&Reduction>,
) -> Result<BTreeMap<(String, usize, String), SolveResult>> {
    // Chaos hook: the cache re-harvest is the expensive tail of every
    // update/refine; tests arm it to prove a failed harvest never
    // publishes a stale-cache generation.
    failpoints::fail_point("service.reharvest")?;
    let registry = Registry::global();
    let fingerprint = reduction.map_or_else(|| "none".to_string(), Reduction::fingerprint);
    let mut cache = BTreeMap::new();
    for solver in registry.iter().filter(|s| s.capabilities().range_harvest) {
        // One trajectory per solver is the unit of interruptible work.
        deadline.check()?;
        let spec = SolverSpec::new(solver.name(), *ks.end());
        let outs = match reduction {
            None => registry.solve_range(&spec, m, None, ks.clone())?,
            Some(r) => registry.solve_range_reduced(&spec, m, None, r, ks.clone())?,
        };
        for (i, out) in outs.into_iter().enumerate() {
            let arr = out.selection.objective.unwrap_or(f64::NAN);
            cache.insert(
                (solver.name().to_string(), ks.start() + i, fingerprint.clone()),
                SolveResult { indices: out.selection.indices, arr },
            );
        }
    }
    Ok(cache)
}

impl DatasetService {
    /// Samples the user population, scores the dataset, and harvests the
    /// multi-`k` cache for every range-capable registered solver.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid cache range (zero start, empty, or
    /// end exceeding the dataset size), an empty dataset, or scoring
    /// failures.
    pub fn build(name: &str, dataset: &Dataset, opts: &ServeOptions) -> Result<Self> {
        let (lo, hi) = (*opts.cache_k.start(), *opts.cache_k.end());
        if lo == 0 || lo > hi || hi > dataset.len() {
            return Err(FamError::InvalidParameter {
                name: "cache_k",
                message: format!(
                    "cache range {lo}..={hi} invalid for dataset `{name}` of {} points",
                    dataset.len()
                ),
            });
        }
        if opts.samples == 0 {
            return Err(FamError::InvalidParameter {
                name: "samples",
                message: "at least one utility sample is required".into(),
            });
        }
        if !(opts.sigma > 0.0 && opts.sigma < 1.0 && opts.sigma.is_finite()) {
            return Err(FamError::InvalidParameter {
                name: "sigma",
                message: format!("must be in (0, 1), got {}", opts.sigma),
            });
        }
        opts.reduce.validate()?;
        let reduction = if opts.reduce.is_none() {
            None
        } else {
            let r = Reduction::compute(dataset, opts.reduce)?;
            if hi > r.kept().len() {
                return Err(FamError::InvalidParameter {
                    name: "cache_k",
                    message: format!(
                        "cache range {lo}..={hi} exceeds the {} points the `{}` reduction \
                         kept of dataset `{name}`; relax reduce_eps or lower the range",
                        r.kept().len(),
                        r.fingerprint()
                    ),
                });
            }
            Some(r)
        };
        // Budget the scores every solve computes (`N ×` the points the
        // solvers see): on a reduced build that is the kept universe
        // only. Nothing `N × n` is resident either way.
        let budget_points = reduction.as_ref().map_or(dataset.len(), |r| r.kept().len());
        let dist = opts.dist.build(dataset.dim())?;
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let functions = sample_functions(dist.as_ref(), opts.samples, budget_points, &mut rng)?;
        let (scores, reduced) = match reduction {
            None => (LinearScores::from_functions(dataset.clone(), &functions)?, None),
            Some(reduction) => {
                let (scores, stats) = reduction.linear_scores(dataset, &functions)?;
                (scores, Some(ReducedResident { reduction, full: dataset.clone(), stats }))
            }
        };
        let cache = build_cache(
            &scores,
            &opts.cache_k,
            &Deadline::none(),
            reduced.as_ref().map(|r| &r.reduction),
        )?;
        Ok(DatasetService {
            name: name.to_string(),
            dim: dataset.dim(),
            scores: Arc::new(scores),
            cache,
            cache_k: opts.cache_k.clone(),
            updates: 0,
            dist: opts.dist,
            seed: opts.seed,
            rng,
            sigma: opts.sigma,
            refines: 0,
            reduced,
        })
    }

    /// The dataset's serving name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Point dimensionality (inserts must match it).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Current number of points.
    pub fn n_points(&self) -> usize {
        self.scores.n_points()
    }

    /// Size of the sampled user population.
    pub fn n_samples(&self) -> usize {
        self.scores.n_samples()
    }

    /// The cached `k` range.
    pub fn cache_k(&self) -> &RangeInclusive<usize> {
        &self.cache_k
    }

    /// Updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Precision refinements applied so far.
    pub fn refines(&self) -> u64 {
        self.refines
    }

    /// The RNG seed the user population was sampled from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The confidence parameter the achieved ε is reported at.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The ε the resident sample count achieves at confidence
    /// `1 - sigma` (Theorem 4) — how precise every served sampled
    /// estimate is.
    pub fn achieved_epsilon(&self) -> f64 {
        chernoff_epsilon(self.n_samples() as u64, self.sigma).unwrap_or(f64::NAN)
    }

    /// The reduction fingerprint of the resident candidate universe
    /// (`"none"` for an unreduced service) — the third component of
    /// every cache key.
    pub fn reduction_fingerprint(&self) -> String {
        self.reduced.as_ref().map_or_else(|| "none".to_string(), |r| r.reduction.fingerprint())
    }

    /// Points in the full (source) database: equals
    /// [`DatasetService::n_points`] on an unreduced service, the live
    /// full-universe size on a reduced one.
    pub fn source_points(&self) -> usize {
        self.reduced.as_ref().map_or_else(|| self.n_points(), |r| r.full.len())
    }

    /// The build-time tiled-scoring shortfall stats of a reduced
    /// service (`None` when unreduced).
    pub fn reduce_stats(&self) -> Option<TiledBuildStats> {
        self.reduced.as_ref().map(|r| r.stats)
    }

    /// The live scores (read-only; tests and benchmarks run cold solves
    /// on them). They hold the sampled weights and the coordinates, not
    /// an `N × n` matrix; [`fam_core::ScoreSource`] computes every score
    /// a solver reads, bit-identical to a matrix built from the same
    /// functions.
    pub fn matrix(&self) -> &LinearScores {
        &self.scores
    }

    /// The live point coordinates, in score column order.
    pub fn dataset(&self) -> &Dataset {
        self.scores.dataset()
    }

    /// Whether a spec is answerable from the cache: canonical parameters
    /// for a harvested `(algorithm, k)` entry. The key carries the
    /// resident reduction fingerprint, so entries are bound to the
    /// candidate universe they were solved on.
    fn cache_key(&self, spec: &SolverSpec) -> Option<(String, usize, String)> {
        if spec.params.is_canonical() {
            Some((spec.name.clone(), spec.params.k, self.reduction_fingerprint()))
        } else {
            None
        }
    }

    /// Enforces a client's `epsilon=` requirement against the resident
    /// sample count — the explicit twin of the registry's capability
    /// gate, run up front so cache hits are covered too.
    fn check_precision(&self, solver: &dyn Solver, params: &SolverParams) -> Result<()> {
        let Some(eps) = params.epsilon else { return Ok(()) };
        let shortfall =
            fam_core::sampling::precision_shortfall(self.n_samples() as u64, eps, params.sigma)?;
        if solver.capabilities().needs_matrix {
            if let Some((needed, achieved)) = shortfall {
                return Err(FamError::unsupported(
                    solver.name(),
                    format!(
                        "epsilon = {eps} at confidence {} needs N >= {needed} utility samples \
                         (Theorem 4); dataset `{}` holds N = {} (achieved epsilon = {achieved:.6}) \
                         — POST /refine?dataset={}&epsilon={eps} to grow it",
                        1.0 - params.sigma,
                        self.name,
                        self.n_samples(),
                        self.name,
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Answers a solve for any registered algorithm: from the cache when
    /// the spec is canonical and `(algo, k)` was harvested (`true` in
    /// the second slot), by a cold registry dispatch against the
    /// resident scores + live coordinates otherwise. Both paths produce
    /// bit-identical results for the same spec.
    ///
    /// A precision requirement (`epsilon`/`sigma` params) is checked
    /// against the resident sample count first and then **normalized
    /// away**: a satisfied requirement changes nothing about the answer,
    /// so it must not force a canonical `(algo, k)` past the cache.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::Unsupported`] for unknown algorithm names
    /// (enumerating the registry), capability violations, and unmet
    /// precision requirements (pointing at `/refine`), or the solver's
    /// own validation errors.
    pub fn solve(&self, spec: &SolverSpec) -> Result<(SolveResult, bool)> {
        self.solve_within(spec, &Deadline::none())
    }

    /// [`DatasetService::solve`] under a cooperative [`Deadline`]: the
    /// budget is checked before the cold dispatch (a cache hit is
    /// answered regardless — it is cheaper than the check's own
    /// bookkeeping would justify refusing).
    ///
    /// # Errors
    ///
    /// As [`DatasetService::solve`], plus [`FamError::DeadlineExceeded`]
    /// / [`FamError::Cancelled`] when the deadline fires before the
    /// cold solve starts.
    pub fn solve_within(
        &self,
        spec: &SolverSpec,
        deadline: &Deadline,
    ) -> Result<(SolveResult, bool)> {
        let registry = Registry::global();
        let solver = registry.require(&spec.name)?;
        let spec = if spec.params.epsilon.is_some() || spec.params.sigma != DEFAULT_SIGMA {
            // `sigma` without `epsilon` is inert — normalize it away too,
            // or it would silently force every such request past the
            // cache into a cold solve.
            self.check_precision(solver, &spec.params)?;
            let mut normalized = spec.clone();
            normalized.params.epsilon = None;
            normalized.params.sigma = DEFAULT_SIGMA;
            std::borrow::Cow::Owned(normalized)
        } else {
            std::borrow::Cow::Borrowed(spec)
        };
        let spec = spec.as_ref();
        if let Some(key) = self.cache_key(spec) {
            if let Some(hit) = self.cache.get(&key) {
                return Ok((hit.clone(), true));
            }
        }
        // Everything past the cache is real work: honor the deadline
        // before committing a worker to it.
        deadline.check()?;
        // A worker runs the solve for the whole request; an
        // enumeration-style exact search over a large subset space
        // would pin it effectively forever, so exponential solvers are
        // capped at a search space that finishes interactively. The
        // gate bounds C(n, k), not n alone: k near n/2 explodes the
        // space even on a small database.
        if solver.capabilities().exponential {
            let bits = log2_binomial(self.n_points(), spec.params.k);
            if bits > MAX_EXPONENTIAL_LOG2_SUBSETS {
                return Err(FamError::unsupported(
                    &spec.name,
                    format!(
                        "exponential-cost search is capped at 2^{MAX_EXPONENTIAL_LOG2_SUBSETS} \
                         candidate subsets when served; C({}, {}) is ~2^{bits:.0}",
                        self.n_points(),
                        spec.params.k
                    ),
                ));
            }
        }
        let m = &*self.scores;
        let out = match &self.reduced {
            None => registry.solve(spec, m, Some(m.dataset()))?,
            Some(r) => registry.solve_reduced(spec, m, Some(m.dataset()), &r.reduction)?,
        };
        let indices = out.selection.indices;
        let arr = match out.selection.objective {
            Some(v) if solver.capabilities().reports_arr => v,
            // Oblivious baselines (and the continuous-measure DP) do not
            // estimate the sampled arr; evaluate their selection fresh.
            _ => match &self.reduced {
                None => regret::arr(m, &indices)?,
                Some(r) => regret::arr(m, &r.reduction.columns(&indices, "selection")?)?,
            },
        };
        Ok((SolveResult { indices, arr }, false))
    }

    /// Evaluates an explicit selection (original point ids) against the
    /// resident scores.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-bounds or duplicate indices, or (on a
    /// reduced service) ids outside the kept candidate set.
    pub fn evaluate(&self, selection: &[usize]) -> Result<RegretReport> {
        match &self.reduced {
            None => regret::report(&*self.scores, selection),
            Some(r) => regret::report(&*self.scores, &r.reduction.columns(selection, "selection")?),
        }
    }

    /// Applies a parsed op stream as one atomic batch — deletes index the
    /// pre-batch point set, inserts are scored under the dataset's
    /// resident user population, and the coordinates permute by
    /// swap-remove — then re-harvests the cache on the updated database.
    ///
    /// # Errors
    ///
    /// Returns validation errors (out-of-bounds or duplicate deletes, a
    /// batch that would leave fewer than the cached maximum `k` points,
    /// negative insert coordinates) with nothing applied, or harvest
    /// errors.
    pub fn apply_ops(&mut self, ops: &[UpdateOp]) -> Result<UpdateSummary> {
        self.apply_ops_within(ops, &Deadline::none())
    }

    /// [`DatasetService::apply_ops`] under a cooperative [`Deadline`],
    /// checked before the scores change and between the re-harvest's
    /// per-solver trajectories. A deadline firing **after** the scores
    /// were replaced surfaces as an error with the scores already
    /// changed — snapshot callers clone first and discard the clone, so
    /// nothing served ever holds that half-updated state.
    ///
    /// # Errors
    ///
    /// As [`DatasetService::apply_ops`], plus
    /// [`FamError::DeadlineExceeded`] / [`FamError::Cancelled`].
    pub fn apply_ops_within(
        &mut self,
        ops: &[UpdateOp],
        deadline: &Deadline,
    ) -> Result<UpdateSummary> {
        // Chaos hook: fires before any validation or mutation, so an
        // injected failure is indistinguishable from a rejected batch.
        failpoints::fail_point("service.apply")?;
        deadline.check()?;
        let mut deletes: Vec<usize> = Vec::new();
        let mut inserted_coords: Vec<&[f64]> = Vec::new();
        for op in ops {
            match op {
                UpdateOp::Insert(coords) => {
                    // The op-stream parser validates arity, but this is a
                    // public API reachable with hand-built ops: a wrong-
                    // arity insert must fail *here*, before anything
                    // else is checked.
                    if coords.len() != self.dim {
                        return Err(FamError::DimensionMismatch {
                            expected: self.dim,
                            got: coords.len(),
                        });
                    }
                    // The paper's model (and `Dataset`) lives in R^d_{>=0};
                    // reject violations before anything mutates, so the
                    // next coordinates can always be built.
                    if let Some(c) = coords.iter().find(|c| **c < 0.0) {
                        return Err(FamError::InvalidParameter {
                            name: "insert",
                            message: format!("negative coordinate {c} (points must be in R>=0)"),
                        });
                    }
                    inserted_coords.push(coords);
                }
                UpdateOp::Delete(idx) => deletes.push(*idx),
            }
        }
        deadline.check()?;
        if self.reduced.is_some() {
            self.apply_ops_reduced(&deletes, &inserted_coords, deadline)?;
        } else {
            // The copy refuses a batch that would leave fewer than the
            // cached maximum `k` points, and any error leaves the
            // resident scores untouched; the previous scores stay with
            // whichever generation still holds them.
            let batch = self.updates;
            let (scores, _) = self.scores.with_point_edits(
                &deletes,
                &inserted_coords,
                *self.cache_k.end(),
                |j| inserted_label(batch, j),
            )?;
            self.scores = Arc::new(scores);
        }
        self.reharvest(deadline)?;
        self.updates += 1;
        Ok(UpdateSummary {
            inserted: inserted_coords.len(),
            deleted: deletes.len(),
            n_points: self.n_points(),
            cache_entries: self.cache.len(),
        })
    }

    /// The reduced service's update path. Ops address the **full**
    /// universe (delete indices refer to the pre-batch full point set,
    /// in the same swap-remove order as the unreduced path): the full
    /// coordinates take the batch first ([`Dataset::with_point_edits`]),
    /// the reduction is repaired incrementally ([`Reduction::repair`] —
    /// a deleted kept member forces a fresh recompute, everything else is
    /// bookkeeping plus a dominance pass over the appended points), and
    /// the new kept points are re-scored in ascending id order under the
    /// resident weights ([`LinearScores::with_points`]): the scores a
    /// fresh reduced build over the same points would hold.
    fn apply_ops_reduced(
        &mut self,
        deletes: &[usize],
        inserts: &[&[f64]],
        deadline: &Deadline,
    ) -> Result<()> {
        // fam-lint: allow(P001) -- apply_ops_within dispatches here only when self.reduced is Some, and no path clears it
        let red = self.reduced.as_ref().expect("reduced service");
        let batch = self.updates;
        let (full, remap) =
            red.full.with_point_edits(deletes, inserts, |j| inserted_label(batch, j))?;
        let appended = full.len() - inserts.len()..full.len();
        let reduction = match red.reduction.repair(&full, &remap, appended)? {
            ReductionRepair::Repaired(r) => r,
            ReductionRepair::Recompute => Reduction::compute(&full, red.reduction.spec())?,
        };
        let hi = *self.cache_k.end();
        let kept = reduction.kept().len();
        if kept < hi {
            return Err(FamError::InvalidParameter {
                name: "reduce",
                message: format!(
                    "the update leaves the `{}` reduction of dataset `{}` with {kept} candidates, \
                     fewer than the cached maximum k = {hi}",
                    reduction.fingerprint(),
                    self.name,
                ),
            });
        }
        deadline.check()?;
        self.scores = Arc::new(self.scores.with_points(reduction.restrict_dataset(&full)?)?);
        // fam-lint: allow(P001) -- same dispatch invariant: self.reduced is Some on this path
        let red = self.reduced.as_mut().expect("reduced service");
        red.full = full;
        red.reduction = reduction;
        Ok(())
    }

    /// Re-harvests the result cache on the resident scores.
    fn reharvest(&mut self, deadline: &Deadline) -> Result<()> {
        let reduction = self.reduced.as_ref().map(|r| &r.reduction);
        self.cache = build_cache(&self.scores, &self.cache_k, deadline, reduction)?;
        Ok(())
    }

    /// Parses an op stream (`insert,c0,..` / `delete,IDX`, see
    /// `fam_data::ops`) and applies it via [`DatasetService::apply_ops`].
    ///
    /// # Errors
    ///
    /// Returns [`FamError::Parse`] (with `source` and 1-based line) for
    /// malformed streams — validated before anything mutates — or the
    /// apply errors.
    pub fn apply_update_text(&mut self, text: &str, source: &str) -> Result<UpdateSummary> {
        self.apply_update_text_within(text, source, &Deadline::none())
    }

    /// [`DatasetService::apply_update_text`] under a cooperative
    /// [`Deadline`] (see [`DatasetService::apply_ops_within`]).
    ///
    /// # Errors
    ///
    /// As [`DatasetService::apply_update_text`], plus the deadline's.
    pub fn apply_update_text_within(
        &mut self,
        text: &str,
        source: &str,
        deadline: &Deadline,
    ) -> Result<UpdateSummary> {
        let ops = fam_data::parse_update_ops(text, self.dim, source)?;
        self.apply_ops_within(&ops, deadline)
    }

    /// Upgrades the dataset's precision **in place** to `epsilon` at
    /// confidence `1 - sigma`: grows the resident sample count to the
    /// Chernoff target via one weight append
    /// ([`LinearScores::append_functions`]: best points of the new
    /// samples only, for freshly sampled functions off the
    /// **continuing** build RNG) and re-harvests the multi-`k` cache on
    /// the refined scores — so every cached entry is again
    /// bit-identical to a cold solve at the grown `N`.
    ///
    /// The append runs as a single batch, unlike the anytime doubling of
    /// `fam_algos::refine`: the serving layer publishes only a finished
    /// generation, so intermediate rounds would be unobservable work.
    ///
    /// Because the RNG continues the build stream, a refined service is
    /// **bit-identical** to a fresh service built at the grown sample
    /// count from the same seed (provided no point updates intervened).
    /// The grown population also scores all future point inserts, so
    /// updates and refinements compose.
    ///
    /// # Errors
    ///
    /// Returns an error with nothing mutated for an invalid
    /// `(epsilon, sigma)` pair, a target over the work budget
    /// ([`check_matrix_budget`]), or a growth beyond the served cap
    /// ([`MAX_REFINE_MATRIX_BYTES`]). A re-harvest failure after the
    /// population has grown keeps it but **clears the result cache**
    /// (misses solve cold, which stays correct) and leaves the reported
    /// `sigma` unchanged.
    pub fn refine(&mut self, epsilon: f64, sigma: f64) -> Result<RefineSummary> {
        self.refine_within(epsilon, sigma, &Deadline::none())
    }

    /// [`DatasetService::refine`] under a cooperative [`Deadline`],
    /// checked before the append and between the re-harvest's
    /// per-solver trajectories. The failure semantics are
    /// [`DatasetService::refine`]'s: a deadline firing after the
    /// population grew clears the cache (snapshot callers discard the
    /// clone instead).
    ///
    /// # Errors
    ///
    /// As [`DatasetService::refine`], plus
    /// [`FamError::DeadlineExceeded`] / [`FamError::Cancelled`].
    pub fn refine_within(
        &mut self,
        epsilon: f64,
        sigma: f64,
        deadline: &Deadline,
    ) -> Result<RefineSummary> {
        deadline.check()?;
        let target =
            PrecisionSpec::new(epsilon, sigma)?.required_samples_checked(self.n_points())?;
        if self.n_samples() >= target {
            // A no-op must not mutate the dataset's reported confidence:
            // answer at the requested sigma, keep the resident one.
            return Ok(RefineSummary {
                target_samples: target,
                n_samples: self.n_samples(),
                achieved_epsilon: chernoff_epsilon(self.n_samples() as u64, sigma)?,
                cache_entries: 0,
                already_satisfied: true,
            });
        }
        // A refine pins the writer slot end to end, and every later
        // harvest computes N x n scores; cap the growth a single served
        // request can demand (cf. the exponential-solver gate on /solve).
        let bytes = (target as u64).saturating_mul(self.n_points() as u64).saturating_mul(8);
        if bytes > MAX_REFINE_MATRIX_BYTES {
            return Err(FamError::unsupported(
                "refine",
                format!(
                    "a served refine is capped at {MAX_REFINE_MATRIX_BYTES} bytes of scores \
                     (8 per sample per point, the work every harvest redoes); epsilon = \
                     {epsilon} at confidence {} needs {target} samples x {} points = {bytes} \
                     bytes — run the refinement offline (`fam refine`) or shard the dataset",
                    1.0 - sigma,
                    self.n_points(),
                ),
            ));
        }
        // Distributions are stateless samplers (all randomness lives in
        // the RNG stream), so rebuilding the object changes nothing.
        let dist = self.dist.build(self.dim)?;
        let fresh: Vec<Arc<dyn UtilityFunction>> =
            (0..target - self.n_samples()).map(|_| dist.sample(&mut self.rng)).collect();
        deadline.check()?;
        // The work budget a matrix append would have checked, then the
        // append, which is atomic: a failure leaves the scores (and so
        // the cache) untouched.
        check_matrix_budget(target, self.n_points())?;
        Arc::make_mut(&mut self.scores).append_functions(&fresh)?;
        // The population has grown: the old cache's entries no longer
        // equal cold solves on the resident database. If the re-harvest
        // fails, drop the cache entirely — misses fall through to
        // (correct) cold solves — rather than serve stale answers.
        self.cache.clear();
        self.reharvest(deadline)?;
        self.sigma = sigma;
        self.refines += 1;
        Ok(RefineSummary {
            target_samples: target,
            n_samples: self.n_samples(),
            achieved_epsilon: self.achieved_epsilon(),
            cache_entries: self.cache.len(),
            already_satisfied: false,
        })
    }
}

/// The label of point `j` inserted by update number `batch`: the batch
/// number keeps labels from colliding across updates.
fn inserted_label(batch: u64, j: usize) -> String {
    format!("inserted-{batch}-{j}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_algos::{add_greedy, dp_2d, greedy_shrink, GreedyShrinkConfig, UniformBoxMeasure};
    use fam_core::{LinearUtility, ScoreMatrix, ScoreSource};
    use fam_data::{synthetic, Correlation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The dense matrix of `svc`'s sampled population over its live
    /// coordinates. The functions are rebuilt from the compact scores'
    /// weight vectors, bit-equal to the sampled ones because
    /// `LinearUtility::new` keeps its weights as given.
    fn dense_rebuild(svc: &DatasetService) -> ScoreMatrix {
        let functions: Vec<Arc<dyn UtilityFunction>> = (0..svc.n_samples())
            .map(|u| {
                let w = svc.matrix().weight_vector(u).to_vec();
                Arc::new(LinearUtility::new(w).unwrap()) as Arc<dyn UtilityFunction>
            })
            .collect();
        ScoreMatrix::from_functions(svc.dataset(), &functions, None).unwrap()
    }

    /// Sample `u`'s scores as bits, read through the borrow-or-fill
    /// accessor (a matrix lends the row, the compact backing fills it).
    fn row_bits(m: &dyn ScoreSource, u: usize) -> Vec<u64> {
        m.row_scores(u, &mut Vec::new()).iter().map(|v| v.to_bits()).collect()
    }

    fn dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(99);
        synthetic(n, 3, Correlation::AntiCorrelated, &mut rng).unwrap()
    }

    fn dataset_2d(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(77);
        synthetic(n, 2, Correlation::AntiCorrelated, &mut rng).unwrap()
    }

    fn options() -> ServeOptions {
        ServeOptions { samples: 120, seed: 7, cache_k: 1..=4, ..ServeOptions::default() }
    }

    #[test]
    fn build_populates_cache_for_every_range_capable_algorithm() {
        let svc = DatasetService::build("demo", &dataset(40), &options()).unwrap();
        assert_eq!(svc.name(), "demo");
        assert_eq!(svc.n_points(), 40);
        assert_eq!(svc.n_samples(), 120);
        assert_eq!(svc.dim(), 3);
        assert_eq!(svc.dataset().len(), 40);
        for algo in ["add-greedy", "greedy-shrink"] {
            for k in 1..=4 {
                let (res, cached) = svc.solve(&SolverSpec::new(algo, k)).unwrap();
                assert!(cached, "{algo} k={k} should be cached");
                assert_eq!(res.indices.len(), k);
                assert!(res.arr.is_finite());
            }
        }
    }

    #[test]
    fn cached_answers_equal_cold_solves_bitwise() {
        let svc = DatasetService::build("demo", &dataset(35), &options()).unwrap();
        for k in 1..=4 {
            let (hit, cached) = svc.solve(&SolverSpec::new("add-greedy", k)).unwrap();
            assert!(cached);
            let cold = add_greedy(svc.matrix(), k).unwrap();
            assert_eq!(hit.indices, cold.indices);
            assert_eq!(hit.arr.to_bits(), cold.objective.unwrap().to_bits());

            let (hit, cached) = svc.solve(&SolverSpec::new("greedy-shrink", k)).unwrap();
            assert!(cached);
            let cold = greedy_shrink(svc.matrix(), GreedyShrinkConfig::new(k)).unwrap();
            assert_eq!(hit.indices, cold.selection.indices);
            assert_eq!(hit.arr.to_bits(), cold.selection.objective.unwrap().to_bits());
        }
    }

    #[test]
    fn every_registered_algorithm_is_servable() {
        let svc = DatasetService::build("demo", &dataset_2d(30), &options()).unwrap();
        for solver in Registry::global().iter() {
            let k = 3.max(svc.dim()); // cube needs k >= d
            let (res, _) = svc
                .solve(&SolverSpec::new(solver.name(), k))
                .unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
            assert_eq!(res.indices.len(), k, "{}", solver.name());
            assert!(res.arr.is_finite(), "{}", solver.name());
        }
    }

    #[test]
    fn non_canonical_params_bypass_the_cache() {
        let svc = DatasetService::build("demo", &dataset(30), &options()).unwrap();
        let spec = SolverSpec::parse("greedy-shrink", 2, &[("lazy", "false")]).unwrap();
        let (res, cached) = svc.solve(&spec).unwrap();
        assert!(!cached, "non-canonical spec must solve cold");
        // Lazy off changes nothing about the result, only the work done.
        let (hit, _) = svc.solve(&SolverSpec::new("greedy-shrink", 2)).unwrap();
        assert_eq!(res.indices, hit.indices);
    }

    #[test]
    fn uncached_k_solves_cold() {
        let svc = DatasetService::build("demo", &dataset(30), &options()).unwrap();
        let (res, cached) = svc.solve(&SolverSpec::new("add-greedy", 7)).unwrap();
        assert!(!cached);
        assert_eq!(res.indices.len(), 7);
        assert!(svc.solve(&SolverSpec::new("add-greedy", 0)).is_err());
        assert!(svc.solve(&SolverSpec::new("greedy-shrink", 31)).is_err());
    }

    #[test]
    fn unknown_and_unsupported_algorithms_answer_cleanly() {
        let svc = DatasetService::build("demo", &dataset(20), &options()).unwrap();
        let err = svc.solve(&SolverSpec::new("quantum", 2)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("add-greedy") && msg.contains("sky-dom"), "{msg}");
        // dp-2d on a 3-D dataset: dimension constraint, not a panic.
        let err = svc.solve(&SolverSpec::new("dp-2d", 2)).unwrap_err();
        assert!(matches!(err, FamError::DimensionMismatch { expected: 2, got: 3 }), "{err}");
    }

    #[test]
    fn update_reharvests_bit_identical_cache_and_permutes_coordinates() {
        let mut svc = DatasetService::build("demo", &dataset(30), &options()).unwrap();
        let summary = svc
            .apply_update_text("insert,0.9,0.8,0.7\ndelete,3\ninsert,0.2,0.9,0.4\n", "test ops")
            .unwrap();
        assert_eq!(summary.inserted, 2);
        assert_eq!(summary.deleted, 1);
        assert_eq!(summary.cache_entries, 8);
        assert_eq!(svc.updates(), 1);
        assert_eq!(svc.n_points(), 31);
        // The coordinate mirror tracks the matrix's point universe.
        assert_eq!(svc.dataset().len(), 31);
        assert_eq!(svc.dataset().point(30), &[0.2, 0.9, 0.4]);
        // Cached entries equal cold solves on the *post-update* database.
        for k in [1usize, 4] {
            let (hit, cached) = svc.solve(&SolverSpec::new("add-greedy", k)).unwrap();
            assert!(cached);
            let cold = add_greedy(svc.matrix(), k).unwrap();
            assert_eq!(hit.indices, cold.indices, "k={k}");
            assert_eq!(hit.arr.to_bits(), cold.objective.unwrap().to_bits(), "k={k}");
        }
    }

    #[test]
    fn clones_share_the_matrix_and_updates_leave_the_source_alone() {
        let svc = DatasetService::build("demo", &dataset(30), &options()).unwrap();
        let rows = |s: &DatasetService| -> Vec<Vec<u64>> {
            (0..s.n_samples()).map(|u| row_bits(s.matrix(), u)).collect()
        };
        let before = rows(&svc);
        // A generation snapshot copies no scores.
        let mut next = svc.clone();
        assert!(std::ptr::eq(next.matrix(), svc.matrix()));
        next.apply_update_text("insert,0.9,0.8,0.7\ndelete,3\ninsert,0.2,0.9,0.4\n", "test ops")
            .unwrap();
        assert!(!std::ptr::eq(next.matrix(), svc.matrix()));
        assert_eq!(rows(&svc), before, "the update must not touch the source generation");
        assert_eq!((svc.n_points(), next.n_points()), (30, 31));
        // The next scores are the in-place patch of a private copy of the
        // source's matrix, bit for bit.
        let mut patched = dense_rebuild(&svc);
        patched.delete_points(&[3]).unwrap();
        let inserted: Vec<Vec<f64>> = [29, 30]
            .iter()
            .map(|&p| (0..patched.n_samples()).map(|u| next.matrix().score(u, p)).collect())
            .collect();
        patched.insert_points(&inserted).unwrap();
        let bits = |m: &dyn ScoreSource| -> Vec<u64> {
            let rows = (0..m.n_samples()).flat_map(|u| row_bits(m, u));
            rows.chain(m.best_values().iter().map(|v| v.to_bits())).collect()
        };
        assert_eq!(bits(next.matrix()), bits(&patched));
    }

    #[test]
    fn coordinate_solvers_answer_against_the_updated_universe() {
        let mut svc = DatasetService::build("demo", &dataset_2d(25), &options()).unwrap();
        svc.apply_update_text("delete,2\ninsert,0.95,0.9\ndelete,7\n", "ops").unwrap();
        // A dominating insert must be picked up by the exact DP — which
        // only happens if the coordinate mirror stayed in sync.
        let (res, cached) = svc.solve(&SolverSpec::new("dp-2d", 2)).unwrap();
        assert!(!cached);
        let cold = dp_2d(svc.dataset(), 2, &UniformBoxMeasure).unwrap();
        assert_eq!(res.indices, cold.selection.indices);
        // The coordinates the scores are computed from are the mirror's.
        let m2 = dense_rebuild(&svc);
        for u in 0..svc.n_samples() {
            assert_eq!(
                row_bits(svc.matrix(), u),
                row_bits(&m2, u),
                "row {u} diverged from the mirror"
            );
        }
    }

    #[test]
    fn malformed_or_oversized_updates_leave_state_untouched() {
        let mut svc = DatasetService::build("demo", &dataset(20), &options()).unwrap();
        let err = svc.apply_update_text("insert,0.5\n", "request body").unwrap_err();
        assert!(err.to_string().contains("request body, line 1"), "{err}");
        let err = svc.apply_update_text("insert,0.1,0.2,NaN\n", "request body").unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        let err = svc.apply_update_text("insert,0.1,0.2,-0.5\n", "request body").unwrap_err();
        assert!(err.to_string().contains("negative"), "{err}");
        // A wrong-arity insert through the *public* apply_ops (bypassing
        // the op-stream parser) is rejected before anything mutates.
        let err = svc.apply_ops(&[UpdateOp::Insert(vec![0.5])]).unwrap_err();
        assert!(matches!(err, FamError::DimensionMismatch { expected: 3, got: 1 }), "{err}");
        // Deleting below the cached maximum k is rejected atomically.
        let wipe: String = (3..20).map(|i| format!("delete,{i}\n")).collect();
        assert!(svc.apply_update_text(&wipe, "request body").is_err());
        assert_eq!(svc.n_points(), 20);
        assert_eq!(svc.dataset().len(), 20);
        assert_eq!(svc.updates(), 0);
        // Evaluate validates its selection.
        assert!(svc.evaluate(&[0, 1]).is_ok());
        assert!(svc.evaluate(&[0, 0]).is_err());
        assert!(svc.evaluate(&[99]).is_err());
    }

    #[test]
    fn build_rejects_bad_cache_ranges() {
        let ds = dataset(10);
        let mut o = options();
        o.cache_k = 0..=3;
        assert!(DatasetService::build("x", &ds, &o).is_err());
        o.cache_k = 1..=11;
        assert!(DatasetService::build("x", &ds, &o).is_err());
        let mut o = options();
        o.samples = 0;
        let err = match DatasetService::build("x", &ds, &o) {
            Err(e) => e,
            Ok(_) => panic!("samples=0 must be rejected"),
        };
        assert!(err.to_string().contains("samples"), "{err}");
        #[allow(clippy::reversed_empty_ranges)]
        {
            o.cache_k = 5..=2;
            assert!(DatasetService::build("x", &ds, &o).is_err());
        }
    }

    #[test]
    fn same_spec_builds_bit_identical_replicas() {
        // The integration test leans on this: a local replica built from
        // the same dataset + options is indistinguishable from the served
        // instance.
        let ds = dataset(25);
        let a = DatasetService::build("a", &ds, &options()).unwrap();
        let b = DatasetService::build("b", &ds, &options()).unwrap();
        for u in 0..a.n_samples() {
            assert_eq!(row_bits(a.matrix(), u), row_bits(b.matrix(), u), "row {u}");
        }
        let (ra, _) = a.solve(&SolverSpec::new("greedy-shrink", 3)).unwrap();
        let (rb, _) = b.solve(&SolverSpec::new("greedy-shrink", 3)).unwrap();
        assert_eq!(ra.indices, rb.indices);
        assert_eq!(ra.arr.to_bits(), rb.arr.to_bits());
    }

    #[test]
    fn labels_follow_their_points_through_updates() {
        let rows = vec![vec![0.9, 0.2], vec![0.7, 0.6], vec![0.4, 0.8], vec![0.1, 0.95]];
        let labels: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let ds = Dataset::from_rows(rows).unwrap().with_labels(labels).unwrap();
        let opts = ServeOptions { samples: 50, cache_k: 1..=2, ..ServeOptions::default() };
        let mut svc = DatasetService::build("lab", &ds, &opts).unwrap();
        svc.apply_update_text("delete,0\ninsert,0.5,0.5\n", "ops").unwrap();
        // Swap-remove: the then-last point (`d`) fills slot 0.
        assert_eq!(svc.dataset().label(0), Some("d"));
        assert_eq!(svc.dataset().label(1), Some("b"));
        assert_eq!(svc.dataset().label(2), Some("c"));
        assert_eq!(svc.dataset().label(3), Some("inserted-0-0"));
        assert_eq!(svc.dataset().point(3), &[0.5, 0.5]);
        // A second batch's inserts do not collide with the first's.
        svc.apply_update_text("insert,0.6,0.6\n", "ops").unwrap();
        assert_eq!(svc.dataset().label(4), Some("inserted-1-0"));
    }

    #[test]
    fn refine_grows_samples_and_reharvests_bit_identical_cache() {
        let ds = dataset(30);
        let mut svc = DatasetService::build("demo", &ds, &options()).unwrap();
        assert_eq!(svc.n_samples(), 120);
        assert_eq!(svc.seed(), 7);
        // 120 samples at sigma 0.1 achieve ~0.24; ask for 0.12.
        let summary = svc.refine(0.12, 0.1).unwrap();
        assert!(!summary.already_satisfied);
        assert_eq!(summary.n_samples, summary.target_samples);
        assert_eq!(svc.n_samples(), summary.n_samples);
        assert!(summary.achieved_epsilon <= 0.12);
        assert!((svc.achieved_epsilon() - summary.achieved_epsilon).abs() < 1e-15);
        assert_eq!(summary.cache_entries, 8);
        assert_eq!(svc.refines(), 1);
        // Cached entries equal cold solves on the refined matrix.
        for k in [1usize, 4] {
            let (hit, cached) = svc.solve(&SolverSpec::new("add-greedy", k)).unwrap();
            assert!(cached);
            let cold = add_greedy(svc.matrix(), k).unwrap();
            assert_eq!(hit.indices, cold.indices, "k={k}");
            assert_eq!(hit.arr.to_bits(), cold.objective.unwrap().to_bits(), "k={k}");
        }
        // A refined service is bit-identical to a fresh build at the
        // grown sample count (the continuing-RNG replica property).
        let fresh = DatasetService::build(
            "replica",
            &ds,
            &ServeOptions { samples: summary.n_samples, ..options() },
        )
        .unwrap();
        for u in 0..svc.n_samples() {
            assert_eq!(row_bits(svc.matrix(), u), row_bits(fresh.matrix(), u), "row {u}");
        }
        // Already satisfied: a no-op that answers at the requested
        // confidence without mutating the dataset's reported sigma.
        let again = svc.refine(0.2, 0.5).unwrap();
        assert!(again.already_satisfied);
        assert_eq!(svc.refines(), 1);
        assert_eq!(svc.sigma(), 0.1, "a no-op refine must not change the reported confidence");
        assert!(again.achieved_epsilon < svc.achieved_epsilon());
        // Invalid requests leave everything untouched.
        assert!(svc.refine(0.0, 0.1).is_err());
        assert!(svc.refine(0.1, 1.0).is_err());
        // A served refine is capped: this target wants ~15 GB per layout.
        let err = svc.refine(0.0003, 0.1).unwrap_err();
        assert!(err.to_string().contains("capped"), "{err}");
        assert_eq!(svc.refines(), 1);
        // The FAM_MAX_MATRIX_BYTES budget path is covered by
        // `tests/refine_budget.rs` (a dedicated single-test binary; env
        // mutation races sibling test threads).
    }

    #[test]
    fn refine_composes_with_point_updates() {
        let mut svc = DatasetService::build("demo", &dataset(25), &options()).unwrap();
        svc.refine(0.15, 0.1).unwrap();
        // Inserts after a refine score under the grown population.
        svc.apply_update_text("insert,0.9,0.8,0.7\ndelete,3\n", "ops").unwrap();
        assert_eq!(svc.n_points(), 25);
        let (hit, cached) = svc.solve(&SolverSpec::new("greedy-shrink", 2)).unwrap();
        assert!(cached);
        let cold = greedy_shrink(svc.matrix(), GreedyShrinkConfig::new(2)).unwrap();
        assert_eq!(hit.indices, cold.selection.indices);
        assert_eq!(hit.arr.to_bits(), cold.selection.objective.unwrap().to_bits());
        // And another refine after the update keeps working.
        let summary = svc.refine(0.1, 0.1).unwrap();
        assert!(!summary.already_satisfied);
        assert!(svc.achieved_epsilon() <= 0.1);
    }

    #[test]
    fn solve_epsilon_requirement_gates_and_hits_the_cache() {
        let mut svc = DatasetService::build("demo", &dataset(30), &options()).unwrap();
        // 120 samples achieve ~0.24 at sigma 0.1: a satisfied requirement
        // still answers from the cache, bit-identically.
        let sat = SolverSpec::parse("add-greedy", 3, &[("epsilon", "0.3")]).unwrap();
        let (res, cached) = svc.solve(&sat).unwrap();
        assert!(cached, "satisfied precision must not bypass the cache");
        let (plain, _) = svc.solve(&SolverSpec::new("add-greedy", 3)).unwrap();
        assert_eq!(res, plain);
        // An unmet requirement is a clean error pointing at /refine.
        let tight = SolverSpec::parse("add-greedy", 3, &[("epsilon", "0.1")]).unwrap();
        let err = svc.solve(&tight).unwrap_err();
        assert!(matches!(err, FamError::Unsupported { .. }), "{err}");
        assert!(err.to_string().contains("/refine"), "{err}");
        // Refining unlocks it.
        svc.refine(0.1, 0.1).unwrap();
        let (res, cached) = svc.solve(&tight).unwrap();
        assert!(cached);
        assert_eq!(res.indices.len(), 3);
        // sigma without epsilon is inert and must not bypass the cache.
        let sigma_only = SolverSpec::parse("add-greedy", 3, &[("sigma", "0.2")]).unwrap();
        let (res, cached) = svc.solve(&sigma_only).unwrap();
        assert!(cached, "sigma-only spec must still hit the cache");
        assert_eq!(res.indices.len(), 3);
        // Exact coordinate solvers ignore the requirement (no sampling).
        let svc2d = DatasetService::build("d2", &dataset_2d(20), &options()).unwrap();
        let dp = SolverSpec::parse("dp-2d", 2, &[("epsilon", "0.0001")]).unwrap();
        assert!(svc2d.solve(&dp).is_ok());
    }

    #[test]
    fn build_rejects_bad_sigma() {
        let ds = dataset(10);
        for sigma in [0.0, 1.0, -0.3, f64::NAN] {
            let opts = ServeOptions { sigma, ..options() };
            assert!(DatasetService::build("x", &ds, &opts).is_err(), "sigma = {sigma}");
        }
    }

    #[test]
    fn exponential_solvers_are_work_capped_when_served() {
        // C(30, 2) = 435 subsets: comfortably within the cap.
        let svc = DatasetService::build("s", &dataset(30), &options()).unwrap();
        assert!(svc.solve(&SolverSpec::new("brute-force", 2)).is_ok());
        // C(30, 15) ≈ 2^27: refused with a clean Unsupported, not a
        // pinned worker — the gate bounds the subset space, not n alone.
        let err = svc.solve(&SolverSpec::new("brute-force", 15)).unwrap_err();
        assert!(matches!(err, FamError::Unsupported { .. }), "{err}");
        assert!(err.to_string().contains("capped"), "{err}");
        // The gate is symmetric in k (C(n, k) = C(n, n-k)).
        assert!(svc.solve(&SolverSpec::new("brute-force", 28)).is_ok());
        // Sanity on the bound itself.
        assert!((log2_binomial(100, 3) - (161_700f64).log2()).abs() < 1e-9);
        assert!(log2_binomial(100, 50) > 90.0);
        assert_eq!(log2_binomial(5, 0), 0.0);
    }

    fn reduced_options() -> ServeOptions {
        ServeOptions { reduce: ReduceSpec::skyline(), cache_k: 1..=3, ..options() }
    }

    #[test]
    fn reduced_build_serves_original_ids() {
        let ds = dataset_2d(60);
        let svc = DatasetService::build("red", &ds, &reduced_options()).unwrap();
        let kept = Reduction::compute(&ds, ReduceSpec::skyline()).unwrap().kept().to_vec();
        assert_eq!(svc.reduction_fingerprint(), "skyline");
        assert_eq!(svc.source_points(), 60);
        assert_eq!(svc.n_points(), kept.len(), "the matrix holds only the kept candidates");
        assert!(kept.len() < 60, "anti-correlated 2-D data must still prune something");
        let stats = svc.reduce_stats().unwrap();
        assert_eq!(stats.source_points, 60);
        assert_eq!(stats.kept_points, kept.len());
        assert_eq!(stats.max_shortfall, 0.0, "skyline keeps dominate everything dropped");
        // Cached and cold answers alike come back in original ids.
        for (k, want_cached) in [(2usize, true), (4usize, false)] {
            let (res, cached) = svc.solve(&SolverSpec::new("add-greedy", k)).unwrap();
            assert_eq!(cached, want_cached, "k={k}");
            assert_eq!(res.indices.len(), k);
            for id in &res.indices {
                assert!(kept.binary_search(id).is_ok(), "{id} is not a kept original id");
            }
            assert!(res.indices.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        }
        // Evaluate accepts kept original ids and rejects pruned ones.
        assert!(svc.evaluate(&kept[..2]).is_ok());
        let pruned = (0..60).find(|i| kept.binary_search(i).is_err()).unwrap();
        let err = svc.evaluate(&[pruned]).unwrap_err();
        assert!(err.to_string().contains("candidate set"), "{err}");
    }

    #[test]
    fn reduced_service_rejects_per_request_reduction() {
        let svc = DatasetService::build("red", &dataset_2d(30), &reduced_options()).unwrap();
        let spec = SolverSpec::parse("add-greedy", 2, &[("reduce", "skyline")]).unwrap();
        let err = svc.solve(&spec).unwrap_err();
        assert!(err.to_string().contains("reduced at build time"), "{err}");
        // On an unreduced service the same spec flows through the
        // registry's reduction stage instead.
        let plain = DatasetService::build("plain", &dataset_2d(30), &options()).unwrap();
        let (res, cached) = plain.solve(&spec).unwrap();
        assert!(!cached, "reduce params are non-canonical and must bypass the cache");
        assert_eq!(res.indices.len(), 2);
    }

    #[test]
    fn reduced_exact_solves_match_the_unreduced_service_bitwise() {
        // Skyline soundness, observed end to end through the server: the
        // exact DP answers with the same points and the same objective
        // bits whether it sees the full universe or only the kept one.
        let ds = dataset_2d(40);
        let mut red = DatasetService::build("red", &ds, &reduced_options()).unwrap();
        let mut plain =
            DatasetService::build("plain", &ds, &ServeOptions { cache_k: 1..=3, ..options() })
                .unwrap();
        let check = |red: &DatasetService, plain: &DatasetService| {
            let (a, _) = red.solve(&SolverSpec::new("dp-2d", 2)).unwrap();
            let (b, _) = plain.solve(&SolverSpec::new("dp-2d", 2)).unwrap();
            assert_eq!(a.indices, b.indices, "reduced ids must be original ids");
            assert_eq!(a.arr.to_bits(), b.arr.to_bits());
        };
        check(&red, &plain);
        // Delete a kept (skyline) member — the incremental repair must
        // recompute — plus a dominated point, and insert a dominating
        // point that enters the skyline. Identical swap-remove semantics
        // on both services keep the id spaces aligned.
        let kept = Reduction::compute(&ds, ReduceSpec::skyline()).unwrap().kept().to_vec();
        let pruned = (0..40).find(|i| kept.binary_search(i).is_err()).unwrap();
        // The insert extends the skyline along x without dominating the
        // rest of it, so it must join the resident candidate set.
        let new_x = (0..ds.len()).map(|i| ds.point(i)[0]).fold(0.0, f64::max) + 0.05;
        let ops = format!("delete,{}\ndelete,{pruned}\ninsert,{new_x},0.0\n", kept[0]);
        let ra = red.apply_update_text(&ops, "ops").unwrap();
        plain.apply_update_text(&ops, "ops").unwrap();
        assert_eq!(ra.inserted, 1, "client-facing counts, not matrix-batch counts");
        assert_eq!(ra.deleted, 2);
        assert_eq!(red.source_points(), 39);
        check(&red, &plain);
        // The insert landed at full-universe id 38 and is resident.
        assert!(red.evaluate(&[38]).is_ok());
        // After the update a seed is still an original id, and ties break
        // as on a fresh reduced build (arr is ~0 from k = 2, so the third
        // pick is a tie): every answer, cached or seeded, is a
        // per-request skyline solve's on `plain`.
        for k in 2..=3 {
            for (algo, seed) in
                [("add-greedy", Some("38")), ("add-greedy", None), ("greedy-shrink", None)]
            {
                let mut pairs: Vec<(&str, &str)> = seed.map(|s| ("seed", s)).into_iter().collect();
                let (a, _) = red.solve(&SolverSpec::parse(algo, k, &pairs).unwrap()).unwrap();
                pairs.push(("reduce", "skyline"));
                let (b, _) = plain.solve(&SolverSpec::parse(algo, k, &pairs).unwrap()).unwrap();
                assert!(seed.is_none() || a.indices.contains(&38), "{:?}", a.indices);
                assert_eq!(a.indices, b.indices, "{algo} k={k} seed={seed:?}");
                assert_eq!(a.arr.to_bits(), b.arr.to_bits(), "{algo} k={k} seed={seed:?}");
            }
        }
        // A second batch that only touches pruned points leaves the
        // resident candidate set alone. Replicate the full-universe
        // swap-remove to find one.
        let mut full: Vec<Vec<f64>> = (0..ds.len()).map(|i| ds.point(i).to_vec()).collect();
        let mut dels = [kept[0], pruned];
        dels.sort_unstable();
        for &d in dels.iter().rev() {
            full.swap_remove(d);
        }
        full.push(vec![new_x, 0.0]);
        let new_full = Dataset::from_rows(full).unwrap();
        let kept_now =
            Reduction::compute(&new_full, ReduceSpec::skyline()).unwrap().kept().to_vec();
        let pruned2 = (0..new_full.len()).find(|i| kept_now.binary_search(i).is_err()).unwrap();
        let n_resident = red.n_points();
        red.apply_update_text(&format!("delete,{pruned2}\n"), "ops").unwrap();
        assert_eq!(red.n_points(), n_resident, "pruned-only ops keep the candidate set");
        assert_eq!(red.source_points(), 38);
    }

    #[test]
    fn reduced_update_that_starves_the_cache_is_atomic() {
        // Skyline {0, 1, 2}; point 3 is dominated. Deleting point 1
        // leaves a 2-point skyline — below the cached maximum k = 3 —
        // so the update must fail without mutating anything.
        let ds = Dataset::from_rows(vec![
            vec![0.9, 0.1],
            vec![0.5, 0.5],
            vec![0.1, 0.9],
            vec![0.05, 0.05],
        ])
        .unwrap();
        let opts = ServeOptions { samples: 60, ..reduced_options() };
        let mut svc = DatasetService::build("tiny", &ds, &opts).unwrap();
        assert_eq!(svc.n_points(), 3);
        assert_eq!(svc.source_points(), 4);
        let err = svc.apply_update_text("delete,1\n", "ops").unwrap_err();
        assert!(err.to_string().contains("fewer than the cached maximum"), "{err}");
        assert_eq!(svc.updates(), 0);
        assert_eq!(svc.n_points(), 3);
        assert_eq!(svc.source_points(), 4);
        assert!(svc.solve(&SolverSpec::new("add-greedy", 3)).is_ok());
        // Bad full-universe delete indices answer cleanly, atomically.
        assert!(svc.apply_update_text("delete,4\n", "ops").is_err());
        assert!(svc.apply_update_text("delete,0\ndelete,0\n", "ops").is_err());
        assert_eq!(svc.updates(), 0);
    }

    /// Skyline {a, b, c}; `d` is dominated only by `b`, `e` by everyone.
    fn labelled_skyline_service() -> DatasetService {
        let rows = vec![
            vec![0.9, 0.1],
            vec![0.5, 0.5],
            vec![0.1, 0.9],
            vec![0.45, 0.45],
            vec![0.05, 0.05],
        ];
        let labels: Vec<String> = ["a", "b", "c", "d", "e"].iter().map(|s| s.to_string()).collect();
        let ds = Dataset::from_rows(rows).unwrap().with_labels(labels).unwrap();
        let opts = ServeOptions { samples: 60, ..reduced_options() };
        DatasetService::build("lab", &ds, &opts).unwrap()
    }

    /// Deletes `b` (a kept member), which promotes `d`, and inserts a
    /// point that joins the skyline.
    const EVICT_PROMOTE_INSERT: &str = "delete,1\ninsert,0.3,0.7\n";

    #[test]
    fn reduced_updates_keep_labels_with_their_points() {
        let mut svc = labelled_skyline_service();
        svc.apply_update_text(EVICT_PROMOTE_INSERT, "ops").unwrap();
        let mirror: Vec<(&str, &[f64])> = (0..svc.dataset().len())
            .map(|i| (svc.dataset().label(i).unwrap(), svc.dataset().point(i)))
            .collect();
        // A promoted survivor keeps its own label; only the real insert
        // is labelled as one.
        let want: Vec<(&str, &[f64])> = vec![
            ("a", &[0.9, 0.1]),
            ("c", &[0.1, 0.9]),
            ("d", &[0.45, 0.45]),
            ("inserted-0-0", &[0.3, 0.7]),
        ];
        assert_eq!(mirror, want);
    }

    #[test]
    fn reduced_updates_keep_the_matrix_in_lockstep_with_the_mirror() {
        let mut svc = labelled_skyline_service();
        assert_eq!(svc.n_points(), 3);
        svc.apply_update_text(EVICT_PROMOTE_INSERT, "ops").unwrap();
        assert_eq!(svc.n_points(), 4, "b evicted, d promoted, the insert kept");
        let m2 = dense_rebuild(&svc);
        for u in 0..svc.n_samples() {
            assert_eq!(
                row_bits(svc.matrix(), u),
                row_bits(&m2, u),
                "row {u} diverged from the mirror"
            );
        }
    }

    /// After every update, the compact scores answer exactly as a dense
    /// matrix rebuilt from the same functions over the live coordinates:
    /// every cached `(algo, k)` equals a cold registry solve on the
    /// rebuild (indices and arr bits), and every sample's best (index and
    /// value bits) equals the rebuild's.
    #[test]
    fn compact_scores_equal_a_dense_rebuild_across_updates() {
        // Point 5 dominates every other point and the last point repeats
        // it bit for bit, so every sample's best has a tied duplicate.
        let mut rows: Vec<Vec<f64>> = dataset(30).points().map(<[f64]>::to_vec).collect();
        rows[5] = vec![0.97, 0.95, 0.96];
        rows[29] = rows[5].clone();
        rows[11] = rows[8].clone();
        let ds = Dataset::from_rows(rows).unwrap();
        let mut svc = DatasetService::build("dup", &ds, &options()).unwrap();
        let check = |svc: &DatasetService, what: &str| {
            let dense = dense_rebuild(svc);
            for u in 0..svc.n_samples() {
                let m = svc.matrix();
                assert_eq!(ScoreSource::best_index(m, u), dense.best_index(u), "{what}: best {u}");
                assert_eq!(
                    ScoreSource::best_value(m, u).to_bits(),
                    dense.best_value(u).to_bits(),
                    "{what}: best value {u}"
                );
            }
            for ((algo, k, _), hit) in &svc.cache {
                let cold = Registry::global()
                    .solve(&SolverSpec::new(algo, *k), &dense, Some(svc.dataset()))
                    .unwrap();
                let mut want = cold.selection.indices.clone();
                want.sort_unstable();
                assert_eq!(hit.indices, want, "{what}: {algo} k={k}");
                assert_eq!(
                    Some(hit.arr.to_bits()),
                    cold.selection.objective.map(f64::to_bits),
                    "{what}: {algo} k={k} arr"
                );
            }
            assert_eq!(svc.cache.len(), 8, "{what}: both range solvers, k = 1..=4");
        };
        check(&svc, "build");
        let best = |svc: &DatasetService| ScoreSource::best_index(svc.matrix(), 0);
        assert_eq!(best(&svc), 5, "the dominant point is every sample's best");
        // Delete-only: the duplicate (last) fills slot 2, in front of the
        // surviving best, and takes over its first-argmax slot.
        svc.apply_update_text("delete,2\n", "ops").unwrap();
        assert_eq!(best(&svc), 2, "the moved duplicate now comes first");
        check(&svc, "tie moves in front");
        // Delete the best itself: every sample rescans and finds the
        // original at slot 5.
        svc.apply_update_text("delete,2\ninsert,0.3,0.6,0.2\n", "ops").unwrap();
        assert_eq!(best(&svc), 5);
        check(&svc, "best deleted");
        // Insert-only: a point that becomes every sample's best.
        svc.apply_update_text("insert,1.2,1.1,1.3\ninsert,0.4,0.2,0.9\n", "ops").unwrap();
        assert_eq!(best(&svc), svc.n_points() - 2);
        check(&svc, "new best inserted");
        // A mixed batch that deletes the new best and a tied duplicate.
        let top = best(&svc);
        svc.apply_update_text(&format!("delete,{top}\ndelete,8\ninsert,0.5,0.5,0.5\n"), "ops")
            .unwrap();
        check(&svc, "mixed");
    }

    #[test]
    fn build_rejects_reductions_the_cache_range_outgrows() {
        let ds = Dataset::from_rows(vec![
            vec![0.9, 0.1],
            vec![0.5, 0.5],
            vec![0.1, 0.9],
            vec![0.05, 0.05],
        ])
        .unwrap();
        let opts = ServeOptions { samples: 60, cache_k: 1..=4, ..reduced_options() };
        let err = match DatasetService::build("tiny", &ds, &opts) {
            Err(e) => e,
            Ok(_) => panic!("a 3-point skyline cannot back a k <= 4 cache"),
        };
        assert!(err.to_string().contains("reduction kept"), "{err}");
        // An invalid coreset eps is rejected before any work happens.
        let opts = ServeOptions { reduce: ReduceSpec::coreset(0.0), ..options() };
        assert!(DatasetService::build("tiny", &ds, &opts).is_err());
    }
}
