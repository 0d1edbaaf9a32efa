//! Progressive precision: solve coarse, refine in place to any requested
//! ε — the Chernoff-driven anytime driver over the dynamic sample axis.
//!
//! Theorem 4 (and Table V) of the paper say `N ≥ 3 ln(1/σ) / ε²` utility
//! samples estimate the average regret ratio within `ε` at confidence
//! `1 − σ`. The historical workflow froze `N` up front; tightening the
//! precision meant rebuilding the `N × n` score matrix and re-running the
//! solver from scratch. This driver does the opposite:
//!
//! 1. **solve coarse** — build the matrix at a small `N₀` and run the
//!    configured solver cold;
//! 2. **refine in place** — repeatedly double the sample count via
//!    [`ScoreMatrix::append_functions`] (bit-identical to a from-scratch
//!    build over the concatenated sample stream), start a fresh
//!    evaluator on the previous round's selection
//!    ([`fam_core::SelectionEvaluator::new_with`], `O(N·k)` next to the
//!    round's `O(N_new·n·d)` scoring), and re-polish the selection with
//!    the warm-started greedy repertoire ([`crate::reoptimize`], the
//!    same lazy heaps behind [`crate::add_greedy_from`] /
//!    [`crate::greedy_shrink_warm`]) — each round is an **anytime
//!    answer** with its achieved ε attached;
//! 3. **finish canonically** — once the Chernoff target `N*` is reached,
//!    run the configured solver cold on the refined matrix. Because the
//!    appended matrix is bit-identical to a fresh build at `N*`, the
//!    returned selection and `arr` are **bit-identical to a cold solve
//!    at the final `N`** — pinned by
//!    `crates/algos/tests/progressive_equivalence.rs`
//!    (`tests/refine_rounds.rs` pins every earlier round against an
//!    independent recomputation).
//!
//! The per-round trajectory (N, achieved ε, selection, arr) is returned for
//! convergence charts; `crates/bench/benches/progressive.rs` A/Bs this
//! driver against rebuild-and-resolve across ε targets
//! (`BENCH_progressive.json`).

use fam_core::solve::SolveOutput;
use fam_core::{
    chernoff_epsilon, Dataset, FamError, PrecisionSpec, Result, ScoreMatrix, Selection,
    SelectionEvaluator, UtilityDistribution,
};
use rand::RngCore;

use crate::registry::{Registry, SolverSpec};

/// Default coarse sample count the refinement starts from (clamped to
/// the Chernoff target when the target is smaller).
pub const DEFAULT_INITIAL_SAMPLES: usize = 1_000;

/// Configuration for [`refine`].
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Output size.
    pub k: usize,
    /// The precision target driving sample growth.
    pub precision: PrecisionSpec,
    /// Coarse sample count `N₀` the first solve runs at (clamped into
    /// `1..=target`). Default [`DEFAULT_INITIAL_SAMPLES`].
    pub initial_samples: usize,
    /// Fresh candidates offered to the selection per warm round (see
    /// [`crate::reoptimize`]). Default `k`.
    pub churn: usize,
    /// Registry name of the solver run cold at `N₀` and at the final
    /// `N*` (must not need the raw dataset; warm rounds always use the
    /// greedy repertoire). Default `greedy-shrink`.
    pub solver: String,
}

impl RefineConfig {
    /// Canonical configuration for output size `k` and a precision
    /// target.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid `(epsilon, sigma)` pair.
    pub fn new(k: usize, epsilon: f64, sigma: f64) -> Result<Self> {
        Ok(RefineConfig {
            k,
            precision: PrecisionSpec::new(epsilon, sigma)?,
            initial_samples: DEFAULT_INITIAL_SAMPLES,
            churn: k,
            solver: "greedy-shrink".to_string(),
        })
    }
}

/// One refinement round of a [`refine`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineRound {
    /// Sample count after this round.
    pub n_samples: usize,
    /// ε achieved by `n_samples` at the configured confidence.
    pub epsilon: f64,
    /// This round's selection: the anytime answer at `n_samples`.
    pub selection: Vec<usize>,
    /// `arr` of this round's selection under the refined estimates.
    pub arr: f64,
    /// Whether this round's selection came from the warm-started greedy
    /// repertoire (`true`) or a cold canonical solve (`false` — the
    /// first and final rounds).
    pub warm: bool,
}

/// What [`refine`] returns.
#[derive(Debug)]
pub struct RefineOutput {
    /// The final selection — bit-identical to a cold solve of the
    /// configured solver on a fresh matrix at [`RefineOutput::n_samples`]
    /// (same seed stream).
    pub selection: Selection,
    /// The final solver's instrumentation notes.
    pub notes: Vec<(&'static str, f64)>,
    /// Per-round trajectory, coarse to fine.
    pub rounds: Vec<RefineRound>,
    /// The Chernoff target `N*` for the configured precision.
    pub target_samples: usize,
    /// Final sample count (== `target_samples`).
    pub n_samples: usize,
    /// ε achieved by the final sample count.
    pub achieved_epsilon: f64,
    /// The refined matrix, for callers that keep solving on it.
    pub matrix: ScoreMatrix,
}

/// Runs the progressive-precision driver: coarse solve at `N₀`, doubling
/// sample appends with warm-started repair, and a canonical cold solve
/// once the Chernoff target is met. See the module docs for the
/// contract.
///
/// # Errors
///
/// Returns an error for an invalid precision target or `k`, a target
/// over the matrix footprint budget, an unknown or dataset-needing
/// solver name, or any scoring/solver failure.
pub fn refine(
    dataset: &Dataset,
    dist: &dyn UtilityDistribution,
    rng: &mut dyn RngCore,
    cfg: &RefineConfig,
) -> Result<RefineOutput> {
    let registry = Registry::global();
    let solver = registry.require(&cfg.solver)?;
    if solver.capabilities().needs_dataset {
        return Err(FamError::unsupported(
            &cfg.solver,
            "progressive refinement drives the sampled estimator; \
             coordinate-based solvers have no sample axis to refine",
        ));
    }
    let target = cfg.precision.required_samples_checked(dataset.len())?;
    let n0 = cfg.initial_samples.clamp(1, target);
    let spec = SolverSpec::new(&cfg.solver, cfg.k);

    let mut rounds = Vec::new();
    let mut matrix = ScoreMatrix::from_distribution(dataset, dist, n0, rng)?;

    // Coarse cold solve at N₀.
    let mut out = registry.solve(&spec, &matrix, None)?;
    rounds.push(RefineRound {
        n_samples: n0,
        epsilon: chernoff_epsilon(n0 as u64, cfg.precision.sigma)?,
        selection: out.selection.indices.clone(),
        arr: solved_arr(&out, &matrix)?,
        warm: false,
    });

    while matrix.n_samples() < target {
        let n_now = matrix.n_samples();
        let next = (n_now * 2).min(target);
        let functions: Vec<_> = (0..next - n_now).map(|_| dist.sample(rng)).collect();
        matrix.append_functions(dataset, &functions)?;
        let warm = next < target;
        let arr = if warm {
            // Intermediate round: warm-started repair from the previous
            // selection — an anytime answer under the refined estimates.
            let mut ev = SelectionEvaluator::new_with(&matrix, &out.selection.indices);
            crate::repair::reoptimize(&mut ev, cfg.k, cfg.churn)?;
            let arr = ev.arr();
            out.selection = Selection::new(ev.selection(), "refine-warm").with_objective(arr);
            out.notes.clear();
            arr
        } else {
            // Final round: the Chernoff target is met — run the
            // configured solver cold on the refined matrix, which is
            // bit-identical to a fresh build at the final N.
            out = registry.solve(&spec, &matrix, None)?;
            solved_arr(&out, &matrix)?
        };
        rounds.push(RefineRound {
            n_samples: next,
            epsilon: chernoff_epsilon(next as u64, cfg.precision.sigma)?,
            selection: out.selection.indices.clone(),
            arr,
            warm,
        });
    }

    let n_samples = matrix.n_samples();
    let achieved_epsilon = chernoff_epsilon(n_samples as u64, cfg.precision.sigma)?;
    Ok(RefineOutput {
        selection: out.selection,
        notes: out.notes,
        rounds,
        target_samples: target,
        n_samples,
        achieved_epsilon,
        matrix,
    })
}

/// The sampled `arr` of a solver output: its own objective when the
/// solver reports one, a fresh evaluation otherwise (oblivious
/// baselines like `k-hit` optimize a different quantity).
fn solved_arr(out: &SolveOutput, matrix: &ScoreMatrix) -> Result<f64> {
    match out.selection.objective {
        Some(v) if v.is_finite() => Ok(v),
        _ => fam_core::regret::arr(matrix, &out.selection.indices),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_shrink::{greedy_shrink, GreedyShrinkConfig};
    use fam_core::UniformLinear;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(rng: &mut StdRng, n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(0.05..1.0), rng.gen_range(0.05..1.0)]).collect();
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn refine_reaches_the_chernoff_target_with_a_doubling_trajectory() {
        let mut rng = StdRng::seed_from_u64(60);
        let ds = dataset(&mut rng, 25);
        let dist = UniformLinear::new(2).unwrap();
        let mut cfg = RefineConfig::new(4, 0.12, 0.1).unwrap();
        cfg.initial_samples = 60;
        let out = refine(&ds, &dist, &mut rng, &cfg).unwrap();
        let target = chernoff_sample_size_usize(0.12, 0.1);
        assert_eq!(out.target_samples, target);
        assert_eq!(out.n_samples, target);
        assert_eq!(out.matrix.n_samples(), target);
        assert!(out.achieved_epsilon <= 0.12);
        assert_eq!(out.selection.len(), 4);
        // Trajectory: starts at N0, doubles, ends at the target; the
        // first and last rounds are cold, the middle ones warm.
        assert_eq!(out.rounds.first().unwrap().n_samples, 60);
        assert_eq!(out.rounds.last().unwrap().n_samples, target);
        assert!(!out.rounds.first().unwrap().warm);
        assert!(!out.rounds.last().unwrap().warm);
        assert!(out.rounds.len() >= 3);
        for pair in out.rounds.windows(2) {
            assert!(pair[1].n_samples > pair[0].n_samples);
            assert!(pair[1].epsilon < pair[0].epsilon);
        }
        for round in &out.rounds[1..out.rounds.len() - 1] {
            assert!(round.warm);
        }
    }

    fn chernoff_sample_size_usize(eps: f64, sigma: f64) -> usize {
        fam_core::chernoff_sample_size(eps, sigma).unwrap() as usize
    }

    #[test]
    fn final_answer_is_bit_identical_to_a_cold_solve_at_the_final_n() {
        let mut rng = StdRng::seed_from_u64(61);
        let ds = dataset(&mut rng, 20);
        let dist = UniformLinear::new(2).unwrap();
        let mut cfg = RefineConfig::new(3, 0.15, 0.1).unwrap();
        cfg.initial_samples = 50;
        let mut run_rng = StdRng::seed_from_u64(99);
        let out = refine(&ds, &dist, &mut run_rng, &cfg).unwrap();
        // Cold reference: one fresh matrix over the same sample stream.
        let mut cold_rng = StdRng::seed_from_u64(99);
        let fresh =
            ScoreMatrix::from_distribution(&ds, &dist, out.n_samples, &mut cold_rng).unwrap();
        let cold = greedy_shrink(&fresh, GreedyShrinkConfig::new(3)).unwrap();
        assert_eq!(out.selection.indices, cold.selection.indices);
        assert_eq!(
            out.selection.objective.unwrap().to_bits(),
            cold.selection.objective.unwrap().to_bits()
        );
        assert_eq!(
            out.rounds.last().unwrap().arr.to_bits(),
            cold.selection.objective.unwrap().to_bits()
        );
    }

    #[test]
    fn already_satisfied_target_is_a_single_cold_solve() {
        let mut rng = StdRng::seed_from_u64(62);
        let ds = dataset(&mut rng, 15);
        let dist = UniformLinear::new(2).unwrap();
        // A very loose target: N* below the default initial samples.
        let cfg = RefineConfig::new(2, 0.9, 0.5).unwrap();
        let out = refine(&ds, &dist, &mut rng, &cfg).unwrap();
        assert_eq!(out.rounds.len(), 1);
        assert!(!out.rounds[0].warm);
        assert_eq!(out.n_samples, out.target_samples);
        assert_eq!(out.selection.len(), 2);
    }

    #[test]
    fn refine_validates_its_inputs() {
        let mut rng = StdRng::seed_from_u64(63);
        let ds = dataset(&mut rng, 10);
        let dist = UniformLinear::new(2).unwrap();
        assert!(RefineConfig::new(2, 0.0, 0.1).is_err());
        assert!(RefineConfig::new(2, 0.1, 1.5).is_err());
        // Unknown solver.
        let mut cfg = RefineConfig::new(2, 0.5, 0.1).unwrap();
        cfg.solver = "quantum".into();
        assert!(refine(&ds, &dist, &mut rng, &cfg).is_err());
        // Coordinate-based solvers have no sample axis.
        let mut cfg = RefineConfig::new(2, 0.5, 0.1).unwrap();
        cfg.solver = "sky-dom".into();
        let err = refine(&ds, &dist, &mut rng, &cfg).unwrap_err();
        assert!(err.to_string().contains("sample axis"), "{err}");
        // Invalid k surfaces from the solver.
        let cfg_bad_k = RefineConfig::new(99, 0.5, 0.1).unwrap();
        assert!(refine(&ds, &dist, &mut rng, &cfg_bad_k).is_err());
        // The FAM_MAX_MATRIX_BYTES budget path is covered by
        // `tests/refine_budget.rs`: a dedicated single-test binary,
        // because mutating the process environment while sibling test
        // threads read it races.
    }

    #[test]
    fn anytime_rounds_report_sane_arr_under_each_estimate() {
        let mut rng = StdRng::seed_from_u64(64);
        let ds = dataset(&mut rng, 18);
        let dist = UniformLinear::new(2).unwrap();
        let mut cfg = RefineConfig::new(3, 0.1, 0.1).unwrap();
        cfg.initial_samples = 80;
        cfg.solver = "add-greedy".into();
        let out = refine(&ds, &dist, &mut rng, &cfg).unwrap();
        for round in &out.rounds {
            // The incrementally maintained arr may sit within float noise
            // of an exact 0 when the selection covers every sample's best.
            assert!(round.arr.is_finite() && round.arr > -1e-9 && round.arr <= 1.0 + 1e-9);
            assert!(round.epsilon.is_finite() && round.epsilon > 0.0);
        }
        assert_eq!(out.selection.algorithm, "add-greedy");
    }
}
