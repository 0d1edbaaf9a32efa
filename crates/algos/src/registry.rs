//! The unified solver API: a [`Solver`] trait, a name-based [`Registry`]
//! of every paper algorithm, and the [`SolverSpec`] parameter parser
//! shared by the CLI (`fam solve --algo NAME --param key=val`), the HTTP
//! server (`/solve?algo=NAME&key=val`), and the bench harness.
//!
//! Every adapter is a thin delegate to the crate's free functions, so a
//! registry call is **bit-identical** to the direct call it wraps —
//! pinned by `tests/registry_equivalence.rs`. The free functions remain
//! the canonical implementations; the registry adds one coherent surface
//! over their historically incompatible signatures:
//!
//! | name | delegate | needs dataset | notes |
//! |---|---|---|---|
//! | `add-greedy` | [`add_greedy_from`](crate::add_greedy_from) | no | warm seed, range harvest |
//! | `greedy-shrink` | [`greedy_shrink`](fn@crate::greedy_shrink) | no | warm seed, range harvest, `lazy`/`cache` toggles |
//! | `dp-2d` | [`dp_2d`](fn@crate::dp_2d) | yes (2-D only) | exact, `measure=box\|angle` |
//! | `brute-force` | [`brute_force_with_pruning`](crate::brute_force_with_pruning) | no | exact, `prune` toggle |
//! | `cube` | [`cube`](fn@crate::cube) | yes | k-regret baseline |
//! | `k-hit` | [`k_hit`](fn@crate::k_hit) | no | hit-probability baseline |
//! | `local-search` | [`local_search`](fn@crate::local_search) | no | polishes `seed` (ADD-GREEDY start when absent), `max-passes` cap; runner-up-bounded scans, notes `arr_evaluations` / `bound_evaluations` |
//! | `mrr-greedy` | [`mrr_greedy_sampled`](crate::mrr_greedy_sampled) | no | lazy heap, note `regret_evaluations`; `exact=true` is a compat alias for `mrr-greedy-lp` |
//! | `mrr-greedy-lp` | [`mrr_greedy_exact`](crate::mrr_greedy_exact) | yes | LP-based witness regret (linear utilities) |
//! | `sky-dom` | [`sky_dom`](fn@crate::sky_dom) | yes | representative-skyline baseline |
//!
//! Capability gating happens *before* dispatch: a warm seed offered to a
//! cold-only solver, a range harvest on a trajectory-less algorithm, or a
//! missing dataset all answer [`FamError::Unsupported`] naming the solver
//! — the serving layer maps these to HTTP 400, never 500.

use std::ops::RangeInclusive;
use std::sync::OnceLock;

use fam_core::solve::{MeasureKind, ReduceKind, SolveCtx, SolveOutput, SolverParams};
use fam_core::{Dataset, FamError, Result, ScoreMatrix, ScoreSource};
use fam_reduce::{ReduceSpec, Reduction};

use crate::measure::{AngularMeasure, UniformAngleMeasure, UniformBoxMeasure};

/// Which candidate reductions (`fam-reduce`) a solver's answer survives.
///
/// The skyline stage is **lossless for every monotone utility** — it
/// keeps a best point per sample, so even exact solvers stay exact (and
/// bit-identical in objective) on the reduced universe. The coreset
/// stage discards near-duplicates under a declared regret target `ε`,
/// which only heuristics may absorb: an exact solver's "exact" claim
/// would silently become "exact up to ε".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reducible {
    /// Reduction would change what the algorithm means (none today; kept
    /// for completeness and custom registrations).
    No,
    /// Only the lossless skyline stage preserves the solver's contract
    /// (exact solvers).
    SkylineOnly,
    /// Any reduction stage is acceptable (heuristics).
    Any,
}

impl Reducible {
    /// Whether a requested reduction pipeline is within this declaration.
    pub fn allows(self, kind: ReduceKind) -> bool {
        match kind {
            ReduceKind::None => true,
            ReduceKind::Skyline => self != Reducible::No,
            ReduceKind::Coreset => self == Reducible::Any,
        }
    }

    /// The `fam algos` / `GET /algos` rendering.
    pub fn name(self) -> &'static str {
        match self {
            Reducible::No => "no",
            Reducible::SkylineOnly => "skyline",
            Reducible::Any => "any",
        }
    }
}

/// What a registered solver can do, declared up front so consumers can
/// route requests (and reject unserviceable ones) without trial calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Produces the optimal selection (under its own objective), not a
    /// heuristic.
    pub exact: bool,
    /// Accepts a non-empty warm-start seed in [`SolverParams::seed`].
    pub warm_start: bool,
    /// Supports [`Solver::solve_range`]: one trajectory yields every `k`
    /// in a range, bit-identical to per-`k` cold solves (the substrate of
    /// the serving layer's multi-`k` cache).
    pub range_harvest: bool,
    /// Requires the raw [`Dataset`] in the context (coordinate-based
    /// algorithms); matrix-only solvers ignore the dataset.
    pub needs_dataset: bool,
    /// Hard dimensionality constraint on the dataset (`Some(2)` for the
    /// exact 2-D DP), `None` when any dimension works.
    pub dimension: Option<usize>,
    /// The produced `Selection::objective` is an estimate of the sampled
    /// average regret ratio. When false the objective is a different
    /// quantity (hit probability, continuous arr) or absent, and callers
    /// wanting `arr` must evaluate the selection themselves.
    pub reports_arr: bool,
    /// Worst-case cost is exponential in the number of points
    /// (enumeration-style exact search). Interactive consumers — the
    /// serving layer in particular — gate such solvers behind an input
    /// size cap instead of pinning a worker on an unbounded search.
    pub exponential: bool,
    /// Reads the sampled score matrix. Coordinate-only solvers (the
    /// exact 2-D DP, CUBE, SKY-DOM) never touch it — a consumer that
    /// has not scored the database yet can skip the `O(nN)` sampling
    /// pass for them (advisory; `SolveCtx` always carries a matrix).
    pub needs_matrix: bool,
    /// Which candidate reductions (`reduce=` parameter) this solver's
    /// contract survives; the registry gates and applies them before
    /// dispatch and remaps the answer back to original point ids.
    pub reducible: Reducible,
}

/// One algorithm behind the unified API. Implementations delegate to the
/// crate's free functions and must be bit-identical to them.
pub trait Solver: Send + Sync {
    /// The registry name (CLI/HTTP spelling).
    fn name(&self) -> &'static str;

    /// What this solver supports.
    fn capabilities(&self) -> Caps;

    /// Solves for `ctx.params.k` points.
    ///
    /// # Errors
    ///
    /// Returns validation errors from the underlying algorithm, or
    /// [`FamError::Unsupported`] for parameter combinations outside the
    /// declared capabilities.
    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput>;

    /// Solves for every `k` in `ks` (ascending) in one trajectory, each
    /// entry bit-identical to [`Solver::solve`] at that `k`. Only
    /// meaningful when [`Caps::range_harvest`] is set; the default
    /// implementation rejects the call.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::Unsupported`] unless the solver declares range
    /// harvesting, or the underlying range errors.
    fn solve_range(
        &self,
        ctx: &SolveCtx<'_>,
        ks: RangeInclusive<usize>,
    ) -> Result<Vec<SolveOutput>> {
        let _ = (ctx, ks);
        Err(FamError::unsupported(self.name(), "does not support multi-k range harvesting"))
    }
}

/// A named solver specification: registry name plus typed parameters.
/// This is the wire-level form every front end parses into — the CLI from
/// `--algo NAME --param key=val`, the server from query parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSpec {
    /// Registry name (e.g. `greedy-shrink`).
    pub name: String,
    /// Typed parameters.
    pub params: SolverParams,
}

fn parse_bool(key: &str, value: &str) -> Result<bool> {
    match value {
        "true" | "1" | "yes" => Ok(true),
        "false" | "0" | "no" => Ok(false),
        _ => Err(FamError::InvalidParameter {
            name: "param",
            message: format!("`{key}` wants true|false, got `{value}`"),
        }),
    }
}

impl SolverSpec {
    /// A spec with canonical parameters.
    pub fn new(name: &str, k: usize) -> Self {
        SolverSpec { name: name.to_string(), params: SolverParams::new(k) }
    }

    /// Parses `key=value` pairs into a spec. Recognized keys: `seed`
    /// (comma-separated indices), `measure` (`box`|`angle`),
    /// `max-passes`, `prune`, `lazy`, `cache`, `exact` (booleans),
    /// `epsilon`/`sigma` (precision requirement on the sampled estimate,
    /// gated against the context matrix's Chernoff bound).
    ///
    /// # Errors
    ///
    /// Returns [`FamError::InvalidParameter`] for unknown keys, malformed
    /// values, or an explicit `lazy=true` together with `cache=false`:
    /// GREEDY-SHRINK's lazy pruning runs on its best-point cache, and
    /// without the cache it runs the naive loop, which has no lazy path.
    pub fn parse<K: AsRef<str>, V: AsRef<str>>(
        name: &str,
        k: usize,
        pairs: &[(K, V)],
    ) -> Result<Self> {
        let mut params = SolverParams::new(k);
        let mut lazy_given = None;
        for (key, value) in pairs {
            let (key, value) = (key.as_ref(), value.as_ref());
            match key {
                "seed" => {
                    params.seed = value
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| {
                            s.trim().parse::<usize>().map_err(|_| FamError::InvalidParameter {
                                name: "param",
                                message: format!("seed index `{s}` is not a point index"),
                            })
                        })
                        .collect::<Result<_>>()?;
                }
                "measure" => {
                    params.measure =
                        MeasureKind::parse(value).ok_or_else(|| FamError::InvalidParameter {
                            name: "param",
                            message: format!("unknown measure `{value}` (box|angle)"),
                        })?;
                }
                "max-passes" | "max_passes" => {
                    params.max_passes = value.parse().map_err(|_| FamError::InvalidParameter {
                        name: "param",
                        message: format!("max-passes wants a count, got `{value}`"),
                    })?;
                }
                "prune" => params.prune = parse_bool(key, value)?,
                "lazy" => {
                    params.lazy = parse_bool(key, value)?;
                    lazy_given = Some(params.lazy);
                }
                "cache" => params.best_point_cache = parse_bool(key, value)?,
                "exact" => params.exact = parse_bool(key, value)?,
                "epsilon" => {
                    let eps: f64 =
                        value.parse().ok().filter(|e: &f64| *e > 0.0 && *e <= 1.0).ok_or_else(
                            || FamError::InvalidParameter {
                                name: "param",
                                message: format!("epsilon wants a number in (0, 1], got `{value}`"),
                            },
                        )?;
                    params.epsilon = Some(eps);
                }
                "sigma" => {
                    params.sigma =
                        value.parse().ok().filter(|s: &f64| *s > 0.0 && *s < 1.0).ok_or_else(
                            || FamError::InvalidParameter {
                                name: "param",
                                message: format!("sigma wants a number in (0, 1), got `{value}`"),
                            },
                        )?;
                }
                "reduce" => {
                    params.reduce =
                        ReduceKind::parse(value).ok_or_else(|| FamError::InvalidParameter {
                            name: "param",
                            message: format!("unknown reduction `{value}` (none|skyline|coreset)"),
                        })?;
                }
                "reduce-eps" | "reduce_eps" => {
                    params.reduce_eps = value
                        .parse()
                        .ok()
                        .filter(|e: &f64| *e > 0.0 && *e < 1.0)
                        .ok_or_else(|| FamError::InvalidParameter {
                        name: "param",
                        message: format!("reduce-eps wants a number in (0, 1), got `{value}`"),
                    })?;
                }
                _ => {
                    return Err(FamError::InvalidParameter {
                        name: "param",
                        message: format!(
                            "unknown parameter `{key}` (seed|measure|max-passes|prune|lazy|\
                             cache|exact|epsilon|sigma|reduce|reduce-eps)"
                        ),
                    });
                }
            }
        }
        if lazy_given == Some(true) && !params.best_point_cache {
            return Err(FamError::InvalidParameter {
                name: "param",
                message: "`lazy=true` needs `cache=true`: lazy pruning runs on the best-point \
                          cache, and `cache=false` runs the naive loop, which has no lazy path"
                    .into(),
            });
        }
        Ok(SolverSpec { name: name.to_string(), params })
    }

    /// Parses `key=val` argument strings (the CLI's repeatable `--param`
    /// flag) into a spec.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::InvalidParameter`] for arguments without `=`
    /// and everything [`SolverSpec::parse`] rejects.
    pub fn parse_args<A: AsRef<str>>(name: &str, k: usize, args: &[A]) -> Result<Self> {
        let pairs: Vec<(&str, &str)> = args
            .iter()
            .map(|a| {
                a.as_ref().split_once('=').ok_or_else(|| FamError::InvalidParameter {
                    name: "param",
                    message: format!("`{}` is not of the form key=value", a.as_ref()),
                })
            })
            .collect::<Result<_>>()?;
        SolverSpec::parse(name, k, &pairs)
    }

    /// The non-default parameters as `key=value` pairs, such that
    /// `SolverSpec::parse(name, k, &pairs)` round-trips to `self`.
    pub fn to_pairs(&self) -> Vec<(String, String)> {
        let d = SolverParams::new(self.params.k);
        let p = &self.params;
        let mut out = Vec::new();
        if p.seed != d.seed {
            let seed: Vec<String> = p.seed.iter().map(|i| i.to_string()).collect();
            out.push(("seed".to_string(), seed.join(",")));
        }
        if p.measure != d.measure {
            out.push(("measure".to_string(), p.measure.name().to_string()));
        }
        if p.max_passes != d.max_passes {
            out.push(("max-passes".to_string(), p.max_passes.to_string()));
        }
        for (key, value, default) in [
            ("prune", p.prune, d.prune),
            ("lazy", p.lazy, d.lazy),
            ("cache", p.best_point_cache, d.best_point_cache),
            ("exact", p.exact, d.exact),
        ] {
            if value != default {
                out.push((key.to_string(), value.to_string()));
            }
        }
        if let Some(eps) = p.epsilon {
            out.push(("epsilon".to_string(), eps.to_string()));
        }
        if p.sigma != d.sigma {
            out.push(("sigma".to_string(), p.sigma.to_string()));
        }
        if p.reduce != d.reduce {
            out.push(("reduce".to_string(), p.reduce.name().to_string()));
        }
        if p.reduce_eps != d.reduce_eps {
            out.push(("reduce-eps".to_string(), p.reduce_eps.to_string()));
        }
        out
    }
}

/// The name-based solver registry. [`Registry::standard`] holds every
/// paper algorithm; [`Registry::global`] is the shared instance the CLI,
/// server, and bench harness dispatch through.
pub struct Registry {
    solvers: Vec<Box<dyn Solver>>,
}

impl Registry {
    /// An empty registry (for custom solver sets).
    pub fn empty() -> Self {
        Registry { solvers: Vec::new() }
    }

    /// A registry holding all ten paper algorithms.
    pub fn standard() -> Self {
        let mut r = Registry::empty();
        for solver in [
            Box::new(AddGreedySolver) as Box<dyn Solver>,
            Box::new(GreedyShrinkSolver),
            Box::new(Dp2dSolver),
            Box::new(BruteForceSolver),
            Box::new(CubeSolver),
            Box::new(KHitSolver),
            Box::new(LocalSearchSolver),
            Box::new(MrrGreedySolver),
            Box::new(MrrGreedyLpSolver),
            Box::new(SkyDomSolver),
        ] {
            r.register(solver).expect("standard names are unique");
        }
        r
    }

    /// The process-wide standard registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::standard)
    }

    /// Adds a solver.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::InvalidParameter`] when the name is taken.
    pub fn register(&mut self, solver: Box<dyn Solver>) -> Result<()> {
        if self.get(solver.name()).is_some() {
            return Err(FamError::InvalidParameter {
                name: "solver",
                message: format!("name `{}` is already registered", solver.name()),
            });
        }
        self.solvers.push(solver);
        Ok(())
    }

    /// Looks a solver up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Solver> {
        self.solvers.iter().find(|s| s.name() == name).map(Box::as_ref)
    }

    /// Looks a solver up by name, or reports every registered name.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::Unsupported`] enumerating the valid names.
    pub fn require(&self, name: &str) -> Result<&dyn Solver> {
        self.get(name).ok_or_else(|| {
            FamError::unsupported(
                name,
                format!("unknown algorithm (registered: {})", self.names().join(", ")),
            )
        })
    }

    /// Every registered name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// Iterates the registered solvers in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Solver> {
        self.solvers.iter().map(Box::as_ref)
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// True when no solver is registered.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    /// Validates `ctx` against a solver's declared capabilities.
    fn check_caps(solver: &dyn Solver, ctx: &SolveCtx<'_>, range: bool) -> Result<()> {
        let caps = solver.capabilities();
        if caps.needs_dataset && ctx.dataset.is_none() {
            return Err(FamError::unsupported(
                solver.name(),
                "needs the raw dataset coordinates, but the context carries only a score matrix",
            ));
        }
        if let (Some(dim), Some(ds)) = (caps.dimension, ctx.dataset) {
            if ds.dim() != dim {
                return Err(FamError::DimensionMismatch { expected: dim, got: ds.dim() });
            }
        }
        if !ctx.params.seed.is_empty() && !caps.warm_start {
            return Err(FamError::unsupported(solver.name(), "does not accept a warm-start seed"));
        }
        if range && !caps.range_harvest {
            return Err(FamError::unsupported(
                solver.name(),
                "does not support multi-k range harvesting",
            ));
        }
        if let Some(eps) = ctx.params.epsilon {
            // Validate the pair even for solvers that ignore it, so a
            // malformed request never silently passes. Only sampled
            // estimators carry sampling error; exact coordinate-based
            // solvers satisfy any precision trivially.
            let n = ctx.matrix.n_samples() as u64;
            let shortfall = fam_core::sampling::precision_shortfall(n, eps, ctx.params.sigma)?;
            if caps.needs_matrix {
                if let Some((needed, achieved)) = shortfall {
                    return Err(FamError::unsupported(
                        solver.name(),
                        format!(
                            "epsilon = {eps} at confidence {} needs N >= {needed} utility \
                             samples (Theorem 4); the matrix has N = {n} (achieved epsilon \
                             = {achieved:.6}) — refine the sample population first",
                            1.0 - ctx.params.sigma,
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Gates a requested reduction against the solver's declaration,
    /// runs the `fam-reduce` pipeline, and restricts the context to the
    /// kept universe. Returns the reduction (for output remapping), the
    /// restricted matrix and dataset, and the inner parameters (reduce
    /// fields cleared, seed mapped into reduced ids).
    fn prepare_reduction(
        solver: &dyn Solver,
        params: &SolverParams,
        matrix: &dyn ScoreSource,
        dataset: Option<&Dataset>,
    ) -> Result<(Reduction, ScoreMatrix, Dataset, SolverParams)> {
        let spec = ReduceSpec::from_params(params);
        spec.validate()?;
        if !solver.capabilities().reducible.allows(params.reduce) {
            return Err(FamError::unsupported(
                solver.name(),
                format!(
                    "does not accept the lossy `reduce={}` stage \
                     (declared reducible: {})",
                    params.reduce.name(),
                    solver.capabilities().reducible.name()
                ),
            ));
        }
        let ds = dataset.ok_or_else(|| {
            FamError::unsupported(
                solver.name(),
                "candidate reduction needs the raw dataset coordinates in the solve context",
            )
        })?;
        if ds.len() != matrix.n_points() {
            return Err(FamError::DimensionMismatch { expected: ds.len(), got: matrix.n_points() });
        }
        let reduction = Reduction::compute(ds, spec)?;
        if reduction.kept().len() < params.k {
            return Err(FamError::InvalidParameter {
                name: "reduce",
                message: format!(
                    "`{}` kept {} of {} candidates but k = {}; lower k, relax \
                     reduce_eps, or solve with reduce=none",
                    reduction.fingerprint(),
                    reduction.kept().len(),
                    reduction.source_len(),
                    params.k
                ),
            });
        }
        let reduced_matrix = matrix.restricted(reduction.kept())?;
        let reduced_ds = reduction.restrict_dataset(ds)?;
        let mut inner = params.clone();
        inner.reduce = ReduceKind::None;
        inner.reduce_eps = fam_core::solve::DEFAULT_REDUCE_EPS;
        if !inner.seed.is_empty() {
            inner.seed = reduction.to_reduced(&inner.seed)?;
        }
        Ok((reduction, reduced_matrix, reduced_ds, inner))
    }

    /// Remaps a reduced-universe output back to original point ids and
    /// stamps the reduction's footprint into the notes.
    fn finish_reduced(reduction: &Reduction, out: &mut SolveOutput) -> Result<()> {
        reduction.remap_output(out)?;
        out.notes.push(("reduced_from", reduction.source_len() as f64));
        out.notes.push(("reduced_to", reduction.kept().len() as f64));
        Ok(())
    }

    /// Resolves a spec and solves: capability validation, then dispatch.
    /// When the spec requests a reduction (`reduce=skyline|coreset`), the
    /// kept universe is computed first, the solver runs on the restricted
    /// context, and the answer is remapped to original point ids (with
    /// `reduced_from` / `reduced_to` notes attached).
    ///
    /// # Errors
    ///
    /// Returns [`FamError::Unsupported`] for unknown names or capability
    /// violations (including a reduction outside [`Caps::reducible`]),
    /// or the solver's own error.
    pub fn solve(
        &self,
        spec: &SolverSpec,
        matrix: &dyn ScoreSource,
        dataset: Option<&Dataset>,
    ) -> Result<SolveOutput> {
        let solver = self.require(&spec.name)?;
        if spec.params.reduce != ReduceKind::None {
            let (reduction, rm, rds, inner) =
                Registry::prepare_reduction(solver, &spec.params, matrix, dataset)?;
            let ctx = SolveCtx { matrix: &rm, dataset: Some(&rds), params: inner };
            Registry::check_caps(solver, &ctx, false)?;
            let mut out = solver.solve(&ctx)?;
            Registry::finish_reduced(&reduction, &mut out)?;
            return Ok(out);
        }
        let ctx = SolveCtx { matrix, dataset, params: spec.params.clone() };
        Registry::check_caps(solver, &ctx, false)?;
        solver.solve(&ctx)
    }

    /// Resolves a spec and harvests every `k` in `ks` from one
    /// trajectory. Reductions apply exactly as in [`Registry::solve`],
    /// computed once for the whole range.
    ///
    /// # Errors
    ///
    /// As [`Registry::solve`], plus [`FamError::Unsupported`] when the
    /// solver lacks range harvesting.
    pub fn solve_range(
        &self,
        spec: &SolverSpec,
        matrix: &dyn ScoreSource,
        dataset: Option<&Dataset>,
        ks: RangeInclusive<usize>,
    ) -> Result<Vec<SolveOutput>> {
        let solver = self.require(&spec.name)?;
        let mut params = spec.params.clone();
        params.k = *ks.end();
        if params.reduce != ReduceKind::None {
            let (reduction, rm, rds, inner) =
                Registry::prepare_reduction(solver, &params, matrix, dataset)?;
            let ctx = SolveCtx { matrix: &rm, dataset: Some(&rds), params: inner };
            Registry::check_caps(solver, &ctx, true)?;
            let mut outs = solver.solve_range(&ctx, ks)?;
            for out in &mut outs {
                Registry::finish_reduced(&reduction, out)?;
            }
            return Ok(outs);
        }
        let ctx = SolveCtx { matrix, dataset, params };
        Registry::check_caps(solver, &ctx, true)?;
        solver.solve_range(&ctx, ks)
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("names", &self.names()).finish()
    }
}

fn measure_of(kind: MeasureKind) -> &'static dyn AngularMeasure {
    match kind {
        MeasureKind::UniformBox => &UniformBoxMeasure,
        MeasureKind::UniformAngle => &UniformAngleMeasure,
    }
}

fn require_dataset<'a>(ctx: &SolveCtx<'a>, name: &'static str) -> Result<&'a Dataset> {
    ctx.dataset.ok_or_else(|| {
        FamError::unsupported(name, "needs the raw dataset coordinates in the solve context")
    })
}

/// `add-greedy`: the insertion greedy (\[33\]), warm-startable and
/// range-harvestable.
struct AddGreedySolver;

impl Solver for AddGreedySolver {
    fn name(&self) -> &'static str {
        "add-greedy"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: false,
            warm_start: true,
            range_harvest: true,
            needs_dataset: false,
            dimension: None,
            reports_arr: true,
            exponential: false,
            needs_matrix: true,
            reducible: Reducible::Any,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        let (sel, evaluations) =
            crate::add_greedy::add_greedy_from_counted(ctx.matrix, &ctx.params.seed, ctx.params.k)?;
        Ok(SolveOutput::new(sel).with_note("arr_evaluations", evaluations as f64))
    }

    fn solve_range(
        &self,
        ctx: &SolveCtx<'_>,
        ks: RangeInclusive<usize>,
    ) -> Result<Vec<SolveOutput>> {
        if !ctx.params.seed.is_empty() {
            return Err(FamError::unsupported(
                self.name(),
                "range harvesting starts from the empty set; drop the warm seed",
            ));
        }
        let outs = crate::trajectory::add_greedy_range_counted(ctx.matrix, ks)?;
        Ok(outs
            .into_iter()
            .map(|(sel, evaluations)| {
                SolveOutput::new(sel).with_note("arr_evaluations", evaluations as f64)
            })
            .collect())
    }
}

/// `greedy-shrink`: the paper's Algorithm 1, with the Appendix C
/// improvements toggleable via `lazy` / `cache`.
struct GreedyShrinkSolver;

impl Solver for GreedyShrinkSolver {
    fn name(&self) -> &'static str {
        "greedy-shrink"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: false,
            warm_start: true,
            range_harvest: true,
            needs_dataset: false,
            dimension: None,
            reports_arr: true,
            exponential: false,
            needs_matrix: true,
            reducible: Reducible::Any,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        let p = &ctx.params;
        let cfg = crate::GreedyShrinkConfig {
            k: p.k,
            best_point_cache: p.best_point_cache,
            lazy_pruning: p.lazy,
        };
        let out = if p.seed.is_empty() {
            crate::greedy_shrink(ctx.matrix, cfg)?
        } else {
            crate::greedy_shrink_warm(ctx.matrix, &p.seed, cfg)?
        };
        Ok(shrink_notes(out))
    }

    fn solve_range(
        &self,
        ctx: &SolveCtx<'_>,
        ks: RangeInclusive<usize>,
    ) -> Result<Vec<SolveOutput>> {
        let p = &ctx.params;
        if !p.seed.is_empty() || !p.lazy || !p.best_point_cache {
            return Err(FamError::unsupported(
                self.name(),
                "range harvesting runs the canonical configuration \
                 (no seed, both improvements on)",
            ));
        }
        let outs = crate::trajectory::greedy_shrink_range_counted(ctx.matrix, ks)?;
        Ok(outs.into_iter().map(shrink_notes).collect())
    }
}

/// A GREEDY-SHRINK answer with its instrumentation as notes.
fn shrink_notes(out: crate::GreedyShrinkOutput) -> SolveOutput {
    SolveOutput::new(out.selection)
        .with_note("iterations", out.iterations as f64)
        .with_note("arr_evaluations", out.arr_evaluations as f64)
        .with_note("avg_best_change_frac", out.avg_best_change_frac)
        .with_note("avg_candidates_frac", out.avg_candidates_frac)
}

/// `dp-2d`: the exact dynamic program for 2-D linear utilities
/// (Section IV), integrating against `measure`.
struct Dp2dSolver;

impl Solver for Dp2dSolver {
    fn name(&self) -> &'static str {
        "dp-2d"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: true,
            warm_start: false,
            range_harvest: false,
            needs_dataset: true,
            dimension: Some(2),
            // The objective is the *continuous* arr under the chosen
            // measure, not the sampled-matrix estimate.
            reports_arr: false,
            exponential: false,
            needs_matrix: false,
            reducible: Reducible::SkylineOnly,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        let ds = require_dataset(ctx, self.name())?;
        let out = crate::dp_2d(ds, ctx.params.k, measure_of(ctx.params.measure))?;
        Ok(SolveOutput::new(out.selection)
            .with_note("skyline_size", out.skyline_size as f64)
            .with_note("states", out.states as f64))
    }
}

/// `brute-force`: exact enumeration with the branch-and-bound prune
/// toggleable via `prune`.
struct BruteForceSolver;

impl Solver for BruteForceSolver {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: true,
            warm_start: false,
            range_harvest: false,
            needs_dataset: false,
            dimension: None,
            reports_arr: true,
            exponential: true,
            needs_matrix: true,
            reducible: Reducible::SkylineOnly,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        crate::brute_force_with_pruning(ctx.matrix, ctx.params.k, ctx.params.prune)
            .map(SolveOutput::new)
    }
}

/// `cube`: the CUBE k-regret baseline of Nanongkai et al. \[22\].
struct CubeSolver;

impl Solver for CubeSolver {
    fn name(&self) -> &'static str {
        "cube"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: false,
            warm_start: false,
            range_harvest: false,
            needs_dataset: true,
            dimension: None,
            reports_arr: false,
            exponential: false,
            needs_matrix: false,
            reducible: Reducible::Any,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        let ds = require_dataset(ctx, self.name())?;
        crate::cube(ds, ctx.params.k).map(SolveOutput::new)
    }
}

/// `k-hit`: the probabilistic top-k baseline of Peng & Wong \[26\]
/// (objective = hit probability, not arr).
struct KHitSolver;

impl Solver for KHitSolver {
    fn name(&self) -> &'static str {
        "k-hit"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: false,
            warm_start: false,
            range_harvest: false,
            needs_dataset: false,
            dimension: None,
            reports_arr: false,
            exponential: false,
            needs_matrix: true,
            reducible: Reducible::Any,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        crate::k_hit(ctx.matrix, ctx.params.k).map(SolveOutput::new)
    }
}

/// `local-search`: swap-based polish. The seed is the initial selection;
/// without one, an ADD-GREEDY start is polished. The `arr_evaluations`
/// and `bound_evaluations` notes count the polish's own scans, not the
/// ADD-GREEDY start's.
struct LocalSearchSolver;

impl Solver for LocalSearchSolver {
    fn name(&self) -> &'static str {
        "local-search"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: false,
            warm_start: true,
            range_harvest: false,
            needs_dataset: false,
            dimension: None,
            reports_arr: true,
            exponential: false,
            needs_matrix: true,
            reducible: Reducible::Any,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        let p = &ctx.params;
        let initial = if p.seed.is_empty() {
            crate::add_greedy(ctx.matrix, p.k)?.indices
        } else {
            if p.seed.len() != p.k {
                return Err(FamError::InvalidParameter {
                    name: "seed",
                    message: format!(
                        "local-search polishes a size-k selection; seed has {} points, k = {}",
                        p.seed.len(),
                        p.k
                    ),
                });
            }
            p.seed.clone()
        };
        let cfg = crate::LocalSearchConfig { max_passes: p.max_passes, ..Default::default() };
        let out = crate::local_search(ctx.matrix, &initial, cfg)?;
        Ok(SolveOutput::new(out.selection)
            .with_note("swaps", out.swaps as f64)
            .with_note("passes", out.passes as f64)
            .with_note("arr_evaluations", out.arr_evaluations as f64)
            .with_note("bound_evaluations", out.bound_evaluations as f64))
    }
}

/// `mrr-greedy`: the sampled k-regret greedy of Nanongkai et al.
/// \[22\]. The declared capabilities describe this sampled mode;
/// `exact=true` is a compatibility alias for [`MrrGreedyLpSolver`]
/// (whose caps honestly declare the dataset need) and is gated inside
/// `solve` rather than by the capability layer.
struct MrrGreedySolver;

impl Solver for MrrGreedySolver {
    fn name(&self) -> &'static str {
        "mrr-greedy"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: false,
            warm_start: false,
            range_harvest: false,
            needs_dataset: false,
            dimension: None,
            reports_arr: false,
            exponential: false,
            needs_matrix: true,
            reducible: Reducible::Any,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        if ctx.params.exact {
            MrrGreedyLpSolver.solve(ctx)
        } else {
            let (sel, evaluations) =
                crate::mrr_greedy::mrr_greedy_sampled_counted(ctx.matrix, ctx.params.k)?;
            Ok(SolveOutput::new(sel).with_note("regret_evaluations", evaluations as f64))
        }
    }
}

/// `mrr-greedy-lp`: the LP-exact witness-regret variant of MRR-GREEDY
/// (faithful to \[22\]; valid for linear utilities). A heuristic for the
/// mrr objective like the sampled mode — "exact" refers to the witness
/// LP, not optimality — but coordinate-based: it needs the dataset and
/// never reads the score matrix, which these capabilities declare so
/// consumers route it correctly.
struct MrrGreedyLpSolver;

impl Solver for MrrGreedyLpSolver {
    fn name(&self) -> &'static str {
        "mrr-greedy-lp"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: false,
            warm_start: false,
            range_harvest: false,
            needs_dataset: true,
            dimension: None,
            reports_arr: false,
            exponential: false,
            needs_matrix: false,
            reducible: Reducible::Any,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        let ds = require_dataset(ctx, self.name())?;
        crate::mrr_greedy_exact(ds, ctx.params.k).map(SolveOutput::new)
    }
}

/// `sky-dom`: the representative-skyline baseline of Lin et al. \[20\].
struct SkyDomSolver;

impl Solver for SkyDomSolver {
    fn name(&self) -> &'static str {
        "sky-dom"
    }

    fn capabilities(&self) -> Caps {
        Caps {
            exact: false,
            warm_start: false,
            range_harvest: false,
            needs_dataset: true,
            dimension: None,
            reports_arr: false,
            exponential: false,
            needs_matrix: false,
            reducible: Reducible::Any,
        }
    }

    fn solve(&self, ctx: &SolveCtx<'_>) -> Result<SolveOutput> {
        let ds = require_dataset(ctx, self.name())?;
        crate::sky_dom(ds, ctx.params.k).map(SolveOutput::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_core::ScoreMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn instance(rng: &mut StdRng, n: usize) -> (Dataset, ScoreMatrix) {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(0.05..1.0), rng.gen_range(0.05..1.0)]).collect();
        let ds = Dataset::from_rows(rows).unwrap();
        let dist = fam_core::UniformLinear::new(2).unwrap();
        let m = ScoreMatrix::from_distribution(&ds, &dist, 80, rng).unwrap();
        (ds, m)
    }

    #[test]
    fn standard_registry_holds_all_paper_algorithms() {
        let r = Registry::standard();
        assert_eq!(
            r.names(),
            vec![
                "add-greedy",
                "greedy-shrink",
                "dp-2d",
                "brute-force",
                "cube",
                "k-hit",
                "local-search",
                "mrr-greedy",
                "mrr-greedy-lp",
                "sky-dom"
            ]
        );
        assert_eq!(r.len(), 10);
        assert!(!r.is_empty());
        assert!(std::ptr::eq(Registry::global(), Registry::global()));
        assert_eq!(Registry::default().len(), 10);
    }

    #[test]
    fn every_solver_answers_by_name_with_dataset_context() {
        let mut rng = StdRng::seed_from_u64(40);
        let (ds, m) = instance(&mut rng, 20);
        let r = Registry::standard();
        for solver in r.iter() {
            let spec = SolverSpec::new(solver.name(), 3);
            let out = r.solve(&spec, &m, Some(&ds)).unwrap_or_else(|e| {
                panic!("{}: {e}", solver.name());
            });
            assert_eq!(out.selection.len(), 3, "{}", solver.name());
        }
    }

    #[test]
    fn harvests_report_what_cold_solves_report() {
        // A harvest runs its cold solver's own loop once, to the far end
        // of the range, so the entry at every k is a cold solve at that
        // k: the same answer and every note bit for bit, evaluation
        // counts included. A harvest that rebuilt its heap per k would
        // re-score the survivors each time and report more.
        let mut rng = StdRng::seed_from_u64(41);
        let r = Registry::standard();
        let harvesters: Vec<&str> =
            r.iter().filter(|s| s.capabilities().range_harvest).map(|s| s.name()).collect();
        assert_eq!(harvesters, ["add-greedy", "greedy-shrink"]);
        let bits = |out: &SolveOutput| -> Vec<(&str, u64)> {
            out.notes.iter().map(|&(name, value)| (name, value.to_bits())).collect()
        };
        for trial in 0..4 {
            let n = rng.gen_range(12..40);
            let (_, m) = instance(&mut rng, n);
            // One trial reaches k = n, which needs no pick at all.
            let hi = if trial == 0 { n } else { rng.gen_range(3..=8) };
            let lo = rng.gen_range(1..=hi);
            for name in &harvesters {
                let outs = r.solve_range(&SolverSpec::new(name, hi), &m, None, lo..=hi).unwrap();
                assert_eq!(outs.len(), hi - lo + 1);
                for (i, out) in outs.iter().enumerate() {
                    let k = lo + i;
                    let what = format!("{name} trial {trial}: k={k} of {lo}..={hi}");
                    let cold = r.solve(&SolverSpec::new(name, k), &m, None).unwrap();
                    assert_eq!(out.selection.indices, cold.selection.indices, "{what}");
                    assert_eq!(
                        out.selection.objective.map(f64::to_bits),
                        cold.selection.objective.map(f64::to_bits),
                        "{what}"
                    );
                    assert!(out.note("arr_evaluations").is_some(), "{what}");
                    assert_eq!(bits(out), bits(&cold), "{what}");
                }
            }
        }
    }

    #[test]
    fn unknown_names_enumerate_the_registry() {
        let r = Registry::standard();
        let err = match r.require("quantum-annealer") {
            Err(e) => e,
            Ok(_) => panic!("unknown name must be rejected"),
        };
        let msg = err.to_string();
        for name in r.names() {
            assert!(msg.contains(name), "{msg}");
        }
    }

    #[test]
    fn capability_gating_rejects_before_dispatch() {
        let mut rng = StdRng::seed_from_u64(41);
        let (ds, m) = instance(&mut rng, 12);
        let r = Registry::standard();
        // Dataset-needing solvers without a dataset.
        for name in ["dp-2d", "cube", "sky-dom", "mrr-greedy-lp"] {
            let err = r.solve(&SolverSpec::new(name, 3), &m, None).unwrap_err();
            assert!(matches!(err, FamError::Unsupported { .. }), "{name}: {err}");
        }
        // Warm seed on a cold-only solver.
        let spec = SolverSpec::parse("k-hit", 3, &[("seed", "1,2")]).unwrap();
        let err = r.solve(&spec, &m, Some(&ds)).unwrap_err();
        assert!(matches!(err, FamError::Unsupported { .. }), "{err}");
        // Range harvest on a trajectory-less solver.
        let err =
            r.solve_range(&SolverSpec::new("brute-force", 3), &m, Some(&ds), 1..=3).unwrap_err();
        assert!(matches!(err, FamError::Unsupported { .. }), "{err}");
        // Dimension constraint.
        let ds3 = Dataset::from_rows(vec![vec![1.0, 0.2, 0.3]; 4]).unwrap();
        let err = r.solve(&SolverSpec::new("dp-2d", 2), &m, Some(&ds3)).unwrap_err();
        assert!(matches!(err, FamError::DimensionMismatch { expected: 2, got: 3 }), "{err}");
        // mrr-greedy exact needs the dataset.
        let spec = SolverSpec::parse("mrr-greedy", 3, &[("exact", "true")]).unwrap();
        assert!(r.solve(&spec, &m, None).is_err());
        assert!(r.solve(&spec, &m, Some(&ds)).is_ok());
        // Non-canonical range configurations are refused.
        let spec = SolverSpec::parse("greedy-shrink", 3, &[("lazy", "false")]).unwrap();
        assert!(r.solve_range(&spec, &m, None, 1..=3).is_err());
    }

    #[test]
    fn reduction_gating_and_remapping() {
        let mut rng = StdRng::seed_from_u64(46);
        // Anti-correlated arc (20 skyline points) plus dominated interior
        // points: k = 2 leaves genuinely positive regret, so the optimum
        // is separated from fp noise and bit-identity is well-defined.
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let t = std::f64::consts::FRAC_PI_2 * (i as f64 + 0.5) / 20.0;
                vec![t.cos(), t.sin()]
            })
            .collect();
        rows.extend((0..10).map(|_| vec![rng.gen_range(0.05..0.5), rng.gen_range(0.05..0.5)]));
        let ds = Dataset::from_rows(rows).unwrap();
        let dist = fam_core::UniformLinear::new(2).unwrap();
        let m = ScoreMatrix::from_distribution(&ds, &dist, 80, &mut rng).unwrap();
        let r = Registry::standard();
        // Exact solvers take the lossless skyline stage and answer the
        // same objective as the unreduced solve, with original ids.
        let plain = SolverSpec::new("brute-force", 2);
        let reduced = SolverSpec::parse("brute-force", 2, &[("reduce", "skyline")]).unwrap();
        let a = r.solve(&plain, &m, Some(&ds)).unwrap();
        let b = r.solve(&reduced, &m, Some(&ds)).unwrap();
        assert_eq!(
            a.selection.objective.unwrap().to_bits(),
            b.selection.objective.unwrap().to_bits(),
            "skyline reduction must not move an exact objective"
        );
        assert_eq!(a.selection.indices, b.selection.indices);
        assert_eq!(b.note("reduced_from"), Some(30.0));
        let kept = b.note("reduced_to").unwrap();
        assert!(kept > 0.0 && kept < 30.0, "random 2-D data has a proper skyline");
        // ... but refuse the lossy coreset stage.
        let lossy = SolverSpec::parse("brute-force", 3, &[("reduce", "coreset")]).unwrap();
        let err = r.solve(&lossy, &m, Some(&ds)).unwrap_err();
        assert!(matches!(err, FamError::Unsupported { .. }), "{err}");
        // Heuristics accept it, and the answer uses original ids.
        let lossy = SolverSpec::parse("greedy-shrink", 3, &[("reduce", "coreset")]).unwrap();
        let out = r.solve(&lossy, &m, Some(&ds)).unwrap();
        assert_eq!(out.selection.len(), 3);
        assert!(out.selection.indices.iter().all(|&i| i < 30));
        // Reduction is a coordinate-stage operation: no dataset, no deal.
        let err = r.solve(&reduced, &m, None).unwrap_err();
        assert!(matches!(err, FamError::Unsupported { .. }), "{err}");
        // Warm seeds are remapped into the reduced universe; a pruned
        // seed point is a clean parameter error.
        let seeded = SolverSpec::parse(
            "add-greedy",
            3,
            &[("reduce", "skyline"), ("seed", &b.selection.indices[0].to_string())],
        )
        .unwrap();
        let out = r.solve(&seeded, &m, Some(&ds)).unwrap();
        assert!(out.selection.indices.contains(&b.selection.indices[0]));
        // Over-reduction relative to k is reported, not mis-solved.
        let big_k = SolverSpec::parse("greedy-shrink", 29, &[("reduce", "skyline")]).unwrap();
        let err = r.solve(&big_k, &m, Some(&ds)).unwrap_err();
        assert!(err.to_string().contains("reduce=none"), "{err}");
        // Range harvests remap every entry of the trajectory.
        let range = SolverSpec::parse("add-greedy", 3, &[("reduce", "skyline")]).unwrap();
        let outs = r.solve_range(&range, &m, Some(&ds), 1..=3).unwrap();
        assert_eq!(outs.len(), 3);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.selection.len(), i + 1);
            assert_eq!(out.note("reduced_from"), Some(30.0));
            let per_k = r
                .solve(
                    &SolverSpec::parse("add-greedy", i + 1, &[("reduce", "skyline")]).unwrap(),
                    &m,
                    Some(&ds),
                )
                .unwrap();
            assert_eq!(out.selection.indices, per_k.selection.indices);
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = Registry::standard();
        let err = r.register(Box::new(KHitSolver)).unwrap_err();
        assert!(err.to_string().contains("k-hit"), "{err}");
        assert!(format!("{r:?}").contains("k-hit"));
    }

    #[test]
    fn spec_parsing_round_trips() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let mut params = SolverParams::new(rng.gen_range(1..20));
            if rng.gen_range(0..2) == 1 {
                params.seed = (0..rng.gen_range(1..5)).map(|_| rng.gen_range(0..100)).collect();
            }
            if rng.gen_range(0..2) == 1 {
                params.measure = MeasureKind::UniformAngle;
            }
            if rng.gen_range(0..2) == 1 {
                params.max_passes = rng.gen_range(1..10);
            }
            params.prune = rng.gen_range(0..2) == 1;
            params.lazy = rng.gen_range(0..2) == 1;
            params.best_point_cache = rng.gen_range(0..2) == 1;
            params.exact = rng.gen_range(0..2) == 1;
            if rng.gen_range(0..2) == 1 {
                params.epsilon = Some(rng.gen_range(1..=100) as f64 / 100.0);
            }
            if rng.gen_range(0..2) == 1 {
                params.sigma = rng.gen_range(1..100) as f64 / 100.0;
            }
            params.reduce = match rng.gen_range(0..3) {
                0 => ReduceKind::None,
                1 => ReduceKind::Skyline,
                _ => ReduceKind::Coreset,
            };
            if rng.gen_range(0..2) == 1 {
                params.reduce_eps = rng.gen_range(1..100) as f64 / 100.0;
            }
            let spec = SolverSpec { name: "greedy-shrink".into(), params };
            let pairs = spec.to_pairs();
            let back = SolverSpec::parse(&spec.name, spec.params.k, &pairs).unwrap();
            assert_eq!(back, spec, "pairs = {pairs:?}");
        }
        // Canonical params emit no pairs at all.
        assert!(SolverSpec::new("add-greedy", 5).to_pairs().is_empty());
    }

    #[test]
    fn spec_parsing_refuses_lazy_without_the_cache() {
        // The naive loop has no lazy path, so the pair would run exactly
        // what `lazy=false` runs: refused, naming both keys, in either
        // order.
        for pairs in [[("cache", "false"), ("lazy", "true")], [("lazy", "true"), ("cache", "no")]] {
            match SolverSpec::parse("greedy-shrink", 3, &pairs) {
                Err(FamError::InvalidParameter { name: "param", message }) => {
                    assert!(message.contains("lazy=true"), "{message}");
                    assert!(message.contains("cache=false"), "{message}");
                }
                other => panic!("{pairs:?}: expected a refusal, got {other:?}"),
            }
        }
        // `cache=false` alone (lazy left at its default) and the explicit
        // `lazy=false` ablation still parse, and both round-trip.
        for pairs in [vec![("cache", "false")], vec![("cache", "false"), ("lazy", "false")]] {
            let spec = SolverSpec::parse("greedy-shrink", 3, &pairs).unwrap();
            assert!(!spec.params.best_point_cache);
            let back = SolverSpec::parse(&spec.name, 3, &spec.to_pairs()).unwrap();
            assert_eq!(back, spec, "{pairs:?}");
        }
        assert!(
            SolverSpec::parse("greedy-shrink", 3, &[("cache", "true"), ("lazy", "true")]).is_ok()
        );
    }

    #[test]
    fn spec_parsing_rejects_malformed_input() {
        assert!(SolverSpec::parse("x", 1, &[("seed", "1,a")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("measure", "gaussian")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("max-passes", "many")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("lazy", "perhaps")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("warp", "9")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("epsilon", "tight")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("sigma", "maybe")]).is_err());
        // Range violations are parse errors, not deferred surprises.
        assert!(SolverSpec::parse("x", 1, &[("epsilon", "0")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("epsilon", "1.5")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("sigma", "0")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("sigma", "1")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("sigma", "5")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("reduce", "quantum")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("reduce-eps", "0")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("reduce-eps", "1")]).is_err());
        assert!(SolverSpec::parse("x", 1, &[("reduce-eps", "soon")]).is_err());
        let spec =
            SolverSpec::parse("x", 2, &[("reduce", "coreset"), ("reduce_eps", "0.1")]).unwrap();
        assert_eq!(spec.params.reduce, ReduceKind::Coreset);
        assert_eq!(spec.params.reduce_eps, 0.1);
        assert!(SolverSpec::parse_args("x", 1, &["lazy"]).is_err());
        let spec = SolverSpec::parse_args("x", 2, &["seed=3,1", "exact=1"]).unwrap();
        assert_eq!(spec.params.seed, vec![3, 1]);
        assert!(spec.params.exact);
        let spec = SolverSpec::parse_args("x", 2, &["epsilon=0.05", "sigma=0.2"]).unwrap();
        assert_eq!(spec.params.epsilon, Some(0.05));
        assert_eq!(spec.params.sigma, 0.2);
    }

    #[test]
    fn precision_requirement_gates_sampled_solvers() {
        let mut rng = StdRng::seed_from_u64(44);
        let (ds, m) = instance(&mut rng, 15); // 80 samples
        let r = Registry::standard();
        // 80 samples achieve eps = sqrt(3 ln 10 / 80) ≈ 0.294 at sigma 0.1.
        let ok = SolverSpec::parse("greedy-shrink", 3, &[("epsilon", "0.3")]).unwrap();
        assert!(r.solve(&ok, &m, None).is_ok());
        let too_tight = SolverSpec::parse("greedy-shrink", 3, &[("epsilon", "0.05")]).unwrap();
        let err = r.solve(&too_tight, &m, None).unwrap_err();
        assert!(matches!(err, FamError::Unsupported { .. }), "{err}");
        assert!(err.to_string().contains("refine"), "{err}");
        // Tightening sigma tightens the gate for the same epsilon.
        let sigma_tight =
            SolverSpec::parse("greedy-shrink", 3, &[("epsilon", "0.3"), ("sigma", "0.0001")])
                .unwrap();
        assert!(r.solve(&sigma_tight, &m, None).is_err());
        // Exact coordinate-based solvers carry no sampling error.
        let dp = SolverSpec::parse("dp-2d", 3, &[("epsilon", "0.0001")]).unwrap();
        assert!(r.solve(&dp, &m, Some(&ds)).is_ok());
        // Out-of-range precision values never even parse.
        assert!(SolverSpec::parse("dp-2d", 3, &[("epsilon", "2.0")]).is_err());
        // A hand-built out-of-range pair is still rejected by the gate.
        let mut bad = SolverSpec::new("dp-2d", 3);
        bad.params.epsilon = Some(2.0);
        assert!(r.solve(&bad, &m, Some(&ds)).is_err());
        // A satisfied requirement changes nothing about the answer.
        let plain = SolverSpec::new("greedy-shrink", 3);
        let (a, b) = (r.solve(&ok, &m, None).unwrap(), r.solve(&plain, &m, None).unwrap());
        assert_eq!(a.selection.indices, b.selection.indices);
        assert_eq!(
            a.selection.objective.unwrap().to_bits(),
            b.selection.objective.unwrap().to_bits()
        );
    }
}
