//! Every round of the progressive-precision driver, recomputed
//! independently.
//!
//! `progressive_equivalence.rs` pins `refine`'s final answer against a
//! cold solve at the final `N`. This suite pins the rounds before it.
//! Each round is rebuilt from scratch: a fresh matrix at the round's `N`
//! over the same seed stream, then either the configured solver cold
//! (the first and last rounds) or a fresh evaluator on the previous
//! round's selection followed by `reoptimize(k, churn)` (the warm
//! rounds). The rebuild must reproduce the round's `N`, ε bits,
//! selection, `arr` bits and `warm` flag, for GREEDY-SHRINK and
//! ADD-GREEDY, in serial and forced-4-worker execution; the last round's
//! selection is the returned one.
//!
//! One `#[test]`: the checks toggle process-global execution-mode
//! switches.

use fam_algos::{refine, reoptimize, RefineConfig, Registry, SolverSpec};
use fam_core::{chernoff_epsilon, par, Dataset, ScoreMatrix, SelectionEvaluator, UniformLinear};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_POINTS: usize = 30;
const K: usize = 4;
const EPSILON: f64 = 0.08;
const SIGMA: f64 = 0.1;

fn dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> =
        (0..N_POINTS).map(|_| (0..3).map(|_| rng.gen_range(0.05..1.0)).collect()).collect();
    Dataset::from_rows(rows).unwrap()
}

/// One round as compared across modes: `(N, ε bits, selection, arr
/// bits, warm)`.
type Round = (usize, u64, Vec<usize>, u64, bool);

/// Runs `refine` and checks every round against its recomputation.
/// Returns the rounds and the final selection for cross-mode comparison,
/// and how many warm rounds moved the selection.
fn check_rounds(seed: u64, solver: &str) -> (Vec<Round>, Vec<usize>, usize) {
    let ds = dataset(seed);
    let dist = UniformLinear::new(3).unwrap();
    let mut cfg = RefineConfig::new(K, EPSILON, SIGMA).unwrap();
    cfg.initial_samples = 50;
    cfg.solver = solver.to_string();
    let out = refine(&ds, &dist, &mut StdRng::seed_from_u64(seed), &cfg).unwrap();
    assert!(out.rounds.len() >= 4, "seed {seed}: too few rounds to pin");

    let fresh = |n: usize| {
        ScoreMatrix::from_distribution(&ds, &dist, n, &mut StdRng::seed_from_u64(seed)).unwrap()
    };
    let spec = SolverSpec::new(solver, K);
    let mut selection: Vec<usize> = Vec::new();
    let mut moved = 0;
    let mut prev_n = 0;
    for (i, round) in out.rounds.iter().enumerate() {
        let what = format!("seed {seed} {solver} round {i}");
        let expected_n =
            if i == 0 { cfg.initial_samples } else { (2 * prev_n).min(out.target_samples) };
        assert_eq!(round.n_samples, expected_n, "{what}: N");
        prev_n = round.n_samples;
        let m = fresh(round.n_samples);
        let cold = i == 0 || i + 1 == out.rounds.len();
        let arr = if cold {
            let solved = Registry::global().solve(&spec, &m, None).unwrap();
            selection = solved.selection.indices;
            solved.selection.objective.unwrap()
        } else {
            let mut ev = SelectionEvaluator::new_with(&m, &selection);
            reoptimize(&mut ev, K, cfg.churn).unwrap();
            moved += usize::from(ev.selection() != selection);
            selection = ev.selection();
            ev.arr()
        };
        assert_eq!(round.warm, !cold, "{what}: warm flag");
        assert_eq!(round.selection, selection, "{what}: selection");
        assert_eq!(round.arr.to_bits(), arr.to_bits(), "{what}: arr bits");
        let epsilon = chernoff_epsilon(round.n_samples as u64, SIGMA).unwrap();
        assert_eq!(round.epsilon.to_bits(), epsilon.to_bits(), "{what}: epsilon bits");
    }
    assert_eq!(out.n_samples, out.target_samples);
    assert_eq!(out.selection.indices, selection, "seed {seed} {solver}: final selection");
    let rounds = out
        .rounds
        .iter()
        .map(|r| (r.n_samples, r.epsilon.to_bits(), r.selection.clone(), r.arr.to_bits(), r.warm));
    (rounds.collect(), selection, moved)
}

#[test]
fn every_refine_round_matches_an_independent_recomputation() {
    let mut moved = 0;
    for seed in [2u64, 19, 77] {
        for solver in ["greedy-shrink", "add-greedy"] {
            par::force_serial(true);
            let serial = check_rounds(seed, solver);
            par::force_serial(false);
            // Forced 4-worker pool (real spawns even on single-core hosts).
            par::set_max_threads(Some(4));
            let parallel = check_rounds(seed, solver);
            par::set_max_threads(None);
            assert_eq!(serial, parallel, "seed {seed} {solver}: rounds diverged across modes");
            moved += serial.2;
        }
    }
    // The warm rounds must do real work somewhere, or the recomputation
    // above would pin nothing but carried-over selections.
    assert!(moved > 0, "no warm round moved its selection");
}
