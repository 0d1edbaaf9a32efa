//! Bit-identity of the progressive-precision (dynamic sample axis)
//! subsystem.
//!
//! Two contracts are pinned, each across serial × forced-4-worker
//! execution:
//!
//! (a) **append ≡ from-scratch**: growing a matrix with
//!     [`ScoreMatrix::append_functions`] off a continuing RNG is
//!     bit-identical — every stored matrix field, and the `arr` a fresh
//!     [`SelectionEvaluator::new_with`] reads off it — to building one
//!     fresh matrix over the concatenated sample stream (fresh RNG, same
//!     seed). The compact `LinearScores` grown with the same functions
//!     reads the same `arr` bits.
//!
//! (b) **refine ≡ cold solve at the final N**: the refine driver's final
//!     selection and `arr` equal a cold solve of the configured
//!     algorithm on a from-scratch matrix at the final sample count.
//!
//! The checks share process-global execution-mode switches, so they all
//! run inside one `#[test]` (see `dynamic_equivalence.rs`).

use fam_algos::{refine, RefineConfig};
use std::sync::Arc;

use fam_core::{
    par, Dataset, LinearScores, ScoreMatrix, SelectionEvaluator, UniformLinear,
    UtilityDistribution, UtilityFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_POINTS: usize = 22;
const K: usize = 4;

fn dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> =
        (0..N_POINTS).map(|_| (0..3).map(|_| rng.gen_range(0.05..1.0)).collect()).collect();
    Dataset::from_rows(rows).unwrap()
}

fn assert_matrices_identical(grown: &ScoreMatrix, fresh: &ScoreMatrix) {
    assert_eq!(grown.n_points(), fresh.n_points());
    assert_eq!(grown.n_samples(), fresh.n_samples());
    for u in 0..grown.n_samples() {
        assert_eq!(grown.row(u), fresh.row(u), "row {u} diverged");
        assert_eq!(grown.best_index(u), fresh.best_index(u), "best index {u} diverged");
        assert_eq!(
            grown.best_value(u).to_bits(),
            fresh.best_value(u).to_bits(),
            "best value {u} diverged"
        );
        assert_eq!(grown.weight(u).to_bits(), fresh.weight(u).to_bits(), "weight {u} diverged");
    }
    for p in 0..grown.n_points() {
        assert_eq!(grown.column(p), fresh.column(p), "mirror column {p} diverged");
    }
}

/// (a): grows a matrix through several appends (doubling plus a couple
/// of small odd-sized batches, each re-laying the mirror) and pins every
/// intermediate state against a from-scratch build over the same
/// stream, with the compact backing grown alongside. Returns the final
/// (selection, arr bits) for cross-mode comparison.
fn run_append_scenario(seed: u64) -> (Vec<usize>, u64) {
    let ds = dataset(seed);
    let dist = UniformLinear::new(3).unwrap();
    let n0 = 40usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA99E);
    let mut sample = |count: usize| -> Vec<Arc<dyn UtilityFunction>> {
        (0..count).map(|_| dist.sample(&mut rng)).collect()
    };
    let initial = sample(n0);
    let mut grown = ScoreMatrix::from_functions(&ds, &initial, None).unwrap();
    let mut compact = LinearScores::from_functions(ds.clone(), &initial).unwrap();

    let selection: Vec<usize> = (0..N_POINTS).step_by(5).collect();
    let mut arr_bits = 0u64;
    for batch in [3usize, 40, 7, 83, 160] {
        let functions = sample(batch);
        grown.append_functions(&ds, &functions).unwrap();
        compact.append_functions(&functions).unwrap();
        // From-scratch reference over the concatenated sample stream.
        let mut fresh_rng = StdRng::seed_from_u64(seed ^ 0xA99E);
        let fresh =
            ScoreMatrix::from_distribution(&ds, &dist, grown.n_samples(), &mut fresh_rng).unwrap();
        assert_matrices_identical(&grown, &fresh);

        let arr = SelectionEvaluator::new_with(&grown, &selection).arr();
        let rebuilt = SelectionEvaluator::new_with(&fresh, &selection).arr();
        assert_eq!(
            arr.to_bits(),
            rebuilt.to_bits(),
            "arr diverged from rebuild at N = {}",
            grown.n_samples()
        );
        let on_compact = SelectionEvaluator::new_with(&compact, &selection).arr();
        assert_eq!(on_compact.to_bits(), arr.to_bits(), "compact arr diverged");
        arr_bits = arr.to_bits();
    }
    (selection, arr_bits)
}

/// (b): runs the refine driver and pins its final selection/arr against
/// a cold solve at the final N on a from-scratch matrix (same seed
/// stream). Returns (selection, arr bits, rounds) for cross-mode
/// comparison.
fn run_refine_scenario(seed: u64, solver: &str) -> (Vec<usize>, u64, usize) {
    let ds = dataset(seed);
    let dist = UniformLinear::new(3).unwrap();
    let mut cfg = RefineConfig::new(K, 0.14, 0.1).unwrap();
    cfg.initial_samples = 45;
    cfg.solver = solver.to_string();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let out = refine(&ds, &dist, &mut rng, &cfg).unwrap();

    // Cold reference at the final N.
    let mut cold_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let fresh = ScoreMatrix::from_distribution(&ds, &dist, out.n_samples, &mut cold_rng).unwrap();
    let spec = fam_algos::SolverSpec::new(solver, K);
    let cold = fam_algos::Registry::global().solve(&spec, &fresh, None).unwrap();
    assert_eq!(out.selection.indices, cold.selection.indices, "selection diverged from cold");
    assert_eq!(
        out.selection.objective.unwrap().to_bits(),
        cold.selection.objective.unwrap().to_bits(),
        "arr bits diverged from cold"
    );
    // The refined matrix itself equals the fresh one.
    assert_matrices_identical(&out.matrix, &fresh);
    assert!(out.achieved_epsilon <= 0.14);
    (out.selection.indices, out.selection.objective.unwrap().to_bits(), out.rounds.len())
}

#[test]
fn progressive_precision_is_bit_identical_across_modes() {
    for seed in [2u64, 19, 77] {
        // Reference: serial.
        par::force_serial(true);
        let serial = run_append_scenario(seed);
        let serial_refine_gs = run_refine_scenario(seed, "greedy-shrink");
        let serial_refine_ag = run_refine_scenario(seed, "add-greedy");
        par::force_serial(false);
        // Forced 4-worker pool (real spawns even on single-core hosts).
        par::set_max_threads(Some(4));
        let parallel = run_append_scenario(seed);
        let parallel_refine_gs = run_refine_scenario(seed, "greedy-shrink");
        let parallel_refine_ag = run_refine_scenario(seed, "add-greedy");
        par::set_max_threads(None);

        assert_eq!(serial, parallel, "seed {seed}: parallel append diverged from serial");
        assert_eq!(
            serial_refine_gs, parallel_refine_gs,
            "seed {seed}: refine(greedy-shrink) diverged across modes"
        );
        assert_eq!(
            serial_refine_ag, parallel_refine_ag,
            "seed {seed}: refine(add-greedy) diverged across modes"
        );
    }
}
