//! The unified solver interface: the context, parameters, and output
//! types every registered algorithm speaks.
//!
//! The `fam-algos` crate defines the `Solver` trait and the name-based
//! registry; this module holds the data types they exchange so that
//! downstream consumers (the serving layer, the CLI, the bench harness)
//! can talk about solver inputs and outputs without depending on any
//! particular algorithm.
//!
//! * [`SolveCtx`] — what a solver runs against: the sampled score matrix
//!   every algorithm consumes, plus (optionally) the raw [`Dataset`] for
//!   coordinate-based algorithms (the exact 2-D DP, CUBE, SKY-DOM, the
//!   LP-exact MRR-GREEDY).
//! * [`SolverParams`] — typed per-call parameters: the output size `k`,
//!   an optional warm-start seed, the angular measure for the 2-D DP,
//!   iteration caps and algorithm toggles. Defaults reproduce each free
//!   function's canonical configuration bit-for-bit.
//! * [`SolveOutput`] — the produced [`Selection`] plus solver-specific
//!   instrumentation notes.

use crate::dataset::Dataset;
use crate::scores::ScoreSource;
use crate::selection::Selection;
use std::time::{Duration, Instant};

/// Wall-clock timer for [`Selection::query_time`] telemetry.
///
/// This is the *one* sanctioned ambient clock read on solver paths: every
/// algorithm times itself through this type, so the `fam-lint` D003 rule
/// (no ambient nondeterminism in the numeric crates) has a single audited
/// site instead of one per algorithm. The reading flows only into
/// reported telemetry — never into a solver decision — so bit-identical
/// reproducibility is unaffected.
#[derive(Debug, Clone, Copy)]
pub struct QueryTimer(Instant);

impl QueryTimer {
    /// Start timing a query.
    #[must_use]
    pub fn start() -> Self {
        // fam-lint: allow(D003) -- sanctioned telemetry clock: elapsed() feeds Selection::query_time only, never a solver decision
        QueryTimer(Instant::now())
    }

    /// Wall-clock time since [`QueryTimer::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// The angular measure the exact 2-D DP integrates against, named so it
/// can travel through parsed parameters (the concrete measure objects
/// live in `fam-algos`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeasureKind {
    /// Weights `(w1, w2)` i.i.d. uniform on the unit square — the
    /// distribution of the paper's sampled experiments.
    #[default]
    UniformBox,
    /// Angle uniform on `[0, π/2]` (unit-norm weight vectors).
    UniformAngle,
}

impl MeasureKind {
    /// Parses the CLI/HTTP spelling (`box` | `angle`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "box" | "uniform-box" => Some(MeasureKind::UniformBox),
            "angle" | "uniform-angle" => Some(MeasureKind::UniformAngle),
            _ => None,
        }
    }

    /// The canonical parameter spelling.
    pub fn name(self) -> &'static str {
        match self {
            MeasureKind::UniformBox => "box",
            MeasureKind::UniformAngle => "angle",
        }
    }
}

/// The candidate-reduction stage requested for a solve, named so it can
/// travel through parsed parameters (the concrete reducers live in
/// `fam-reduce`; the registry in `fam-algos` runs them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceKind {
    /// No reduction: solve over the full point universe.
    #[default]
    None,
    /// Exact dominance pruning: restrict candidates to the skyline.
    /// Lossless for every monotone utility, so sound even for exact
    /// solvers (bit-identical objective values).
    Skyline,
    /// Skyline followed by a directional ε-kernel: keeps the per-direction
    /// argmax over a deterministic grid of positive-orthant directions.
    /// Regret loss is bounded by the declared `reduce_eps`; sound for
    /// heuristics only.
    Coreset,
}

impl ReduceKind {
    /// Parses the CLI/HTTP spelling (`none` | `skyline` | `coreset`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(ReduceKind::None),
            "skyline" => Some(ReduceKind::Skyline),
            "coreset" => Some(ReduceKind::Coreset),
            _ => None,
        }
    }

    /// The canonical parameter spelling.
    pub fn name(self) -> &'static str {
        match self {
            ReduceKind::None => "none",
            ReduceKind::Skyline => "skyline",
            ReduceKind::Coreset => "coreset",
        }
    }
}

/// Typed per-call solver parameters. [`SolverParams::new`] gives every
/// field its canonical default, under which a registered solver is
/// bit-identical to its free-function counterpart.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverParams {
    /// Output size.
    pub k: usize,
    /// Warm-start seed (empty = cold start). Only solvers whose
    /// capabilities declare warm-start support accept a non-empty seed;
    /// for `local-search` the seed is the initial selection to polish.
    pub seed: Vec<usize>,
    /// Angular measure for the exact 2-D DP.
    pub measure: MeasureKind,
    /// Improvement-pass cap for `local-search`.
    pub max_passes: usize,
    /// Branch-and-bound pruning for `brute-force`.
    pub prune: bool,
    /// GREEDY-SHRINK Improvement 2 (lazy lower-bound pruning). It runs
    /// on the best-point cache, so it is read only when
    /// `best_point_cache` is set.
    pub lazy: bool,
    /// GREEDY-SHRINK Improvement 1 (incremental best-point caching).
    pub best_point_cache: bool,
    /// MRR-GREEDY: use the LP-exact variant (requires the raw dataset)
    /// instead of the sampled one.
    pub exact: bool,
    /// Required precision on the sampled estimate: the request is only
    /// served when the context matrix's sample count meets the Chernoff
    /// bound for `(epsilon, sigma)` (Theorem 4). `None` (the default)
    /// accepts any sample count. Exact, coordinate-only solvers carry no
    /// sampling error and ignore the requirement.
    pub epsilon: Option<f64>,
    /// Failure probability for the `epsilon` requirement (confidence is
    /// `1 - sigma`); defaults to [`crate::sampling::DEFAULT_SIGMA`].
    pub sigma: f64,
    /// Candidate-reduction stage to run before dispatch (requires the raw
    /// dataset in the context). The registry checks the solver's
    /// `Caps::reducible` declaration and remaps the output back to
    /// original point ids.
    pub reduce: ReduceKind,
    /// Declared regret bound for [`ReduceKind::Coreset`]; ignored for the
    /// other stages. Defaults to [`DEFAULT_REDUCE_EPS`].
    pub reduce_eps: f64,
}

/// Default `max_passes` for `local-search` (mirrors
/// `LocalSearchConfig::default()` in `fam-algos`).
pub const DEFAULT_MAX_PASSES: usize = 3;

/// Default declared regret bound for coreset reduction.
pub const DEFAULT_REDUCE_EPS: f64 = 0.05;

impl SolverParams {
    /// Canonical parameters for output size `k`.
    pub fn new(k: usize) -> Self {
        SolverParams {
            k,
            seed: Vec::new(),
            measure: MeasureKind::default(),
            max_passes: DEFAULT_MAX_PASSES,
            prune: true,
            lazy: true,
            best_point_cache: true,
            exact: false,
            epsilon: None,
            sigma: crate::sampling::DEFAULT_SIGMA,
            reduce: ReduceKind::default(),
            reduce_eps: DEFAULT_REDUCE_EPS,
        }
    }

    /// True when every field other than `k` holds its canonical default —
    /// the configuration under which result caches may answer for a
    /// solver.
    pub fn is_canonical(&self) -> bool {
        *self == SolverParams::new(self.k)
    }
}

/// What a solver runs against: the score matrix (always), the raw
/// dataset (when the caller has one — coordinate-based solvers require
/// it, matrix-based solvers ignore it), and the per-call parameters.
#[derive(Clone)]
pub struct SolveCtx<'a> {
    /// The sampled utility-score matrix.
    pub matrix: &'a dyn ScoreSource,
    /// The raw point coordinates, when available. Must describe the same
    /// point universe as `matrix`, in the same order.
    pub dataset: Option<&'a Dataset>,
    /// Per-call parameters (output size, warm seed, measure, caps).
    pub params: SolverParams,
}

impl<'a> SolveCtx<'a> {
    /// A matrix-only context with canonical parameters for output size
    /// `k`.
    pub fn new(matrix: &'a dyn ScoreSource, k: usize) -> Self {
        SolveCtx { matrix, dataset: None, params: SolverParams::new(k) }
    }

    /// Attaches the raw dataset for coordinate-based solvers.
    #[must_use]
    pub fn with_dataset(mut self, dataset: &'a Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Replaces the per-call parameters.
    #[must_use]
    pub fn with_params(mut self, params: SolverParams) -> Self {
        self.params = params;
        self
    }
}

impl std::fmt::Debug for SolveCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCtx")
            .field("n_points", &self.matrix.n_points())
            .field("n_samples", &self.matrix.n_samples())
            .field("dataset", &self.dataset.map(|d| (d.len(), d.dim())))
            .field("params", &self.params)
            .finish()
    }
}

/// What a solver returns: the selection plus named instrumentation
/// values (iteration counts, DP state counts, …) that would otherwise
/// only exist on per-algorithm output structs.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutput {
    /// The produced selection (query time and the solver's own objective
    /// estimate attached, exactly as the free function reports them).
    pub selection: Selection,
    /// Solver-specific instrumentation, e.g. `("iterations", 15.0)`.
    pub notes: Vec<(&'static str, f64)>,
}

impl SolveOutput {
    /// Wraps a selection with no notes.
    pub fn new(selection: Selection) -> Self {
        SolveOutput { selection, notes: Vec::new() }
    }

    /// Attaches one instrumentation note.
    #[must_use]
    pub fn with_note(mut self, name: &'static str, value: f64) -> Self {
        self.notes.push((name, value));
        self
    }

    /// Looks an instrumentation note up by name.
    pub fn note(&self, name: &str) -> Option<f64> {
        self.notes.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scores::ScoreMatrix;

    #[test]
    fn measure_kind_round_trips() {
        for kind in [MeasureKind::UniformBox, MeasureKind::UniformAngle] {
            assert_eq!(MeasureKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(MeasureKind::parse("uniform-angle"), Some(MeasureKind::UniformAngle));
        assert!(MeasureKind::parse("gaussian").is_none());
        assert_eq!(MeasureKind::default(), MeasureKind::UniformBox);
    }

    #[test]
    fn reduce_kind_round_trips() {
        for kind in [ReduceKind::None, ReduceKind::Skyline, ReduceKind::Coreset] {
            assert_eq!(ReduceKind::parse(kind.name()), Some(kind));
        }
        assert!(ReduceKind::parse("sample").is_none());
        assert_eq!(ReduceKind::default(), ReduceKind::None);
    }

    #[test]
    fn canonical_params_detect_overrides() {
        let p = SolverParams::new(4);
        assert!(p.is_canonical());
        let mut q = p.clone();
        q.seed = vec![1];
        assert!(!q.is_canonical());
        let mut q = p.clone();
        q.lazy = false;
        assert!(!q.is_canonical());
        let mut q = p.clone();
        q.measure = MeasureKind::UniformAngle;
        assert!(!q.is_canonical());
        let mut q = p.clone();
        q.epsilon = Some(0.05);
        assert!(!q.is_canonical());
        let mut q = p.clone();
        q.sigma = 0.01;
        assert!(!q.is_canonical());
        let mut q = p.clone();
        q.reduce = ReduceKind::Skyline;
        assert!(!q.is_canonical());
        let mut q = p;
        q.reduce_eps = 0.1;
        assert!(!q.is_canonical());
    }

    #[test]
    fn ctx_and_output_accessors() {
        let m = ScoreMatrix::from_rows(vec![vec![1.0, 0.5], vec![0.5, 1.0]], None).unwrap();
        let ds = Dataset::from_rows(vec![vec![0.9], vec![0.1]]).unwrap();
        let ctx = SolveCtx::new(&m, 1);
        assert!(ctx.dataset.is_none());
        assert_eq!(ctx.params.k, 1);
        let ctx = ctx.with_dataset(&ds);
        assert_eq!(ctx.dataset.unwrap().len(), 2);
        assert!(format!("{ctx:?}").contains("n_points"));
        let mut p = SolverParams::new(2);
        p.exact = true;
        let ctx = ctx.with_params(p);
        assert!(ctx.params.exact && ctx.params.k == 2);

        let out = SolveOutput::new(Selection::new(vec![0], "t")).with_note("iterations", 3.0);
        assert_eq!(out.note("iterations"), Some(3.0));
        assert_eq!(out.note("missing"), None);
    }
}
