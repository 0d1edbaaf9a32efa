//! Bit-identity of the evaluation engine across execution modes.
//!
//! The engine's determinism contract (see `fam_core::par`) promises that
//! serial and parallel runs — and row-major versus columnar layouts —
//! produce *bit-identical* selections and objectives. These tests pin the
//! contract by running every mode on the same inputs, forcing a worker
//! pool even on single-core machines via `par::set_max_threads`.
//!
//! The checks share process-global execution-mode switches, so they all
//! run inside one `#[test]` — the harness would otherwise run them on
//! concurrent threads and the toggles would race.

use fam_algos::{
    add_greedy, continuous_arr, greedy_shrink, k_hit, local_search, mrr_greedy_sampled,
    GreedyShrinkConfig, LocalSearchConfig, UniformBoxMeasure,
};
use fam_core::{par, Dataset, ScoreMatrix, Selection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, n_samples: usize, n_points: usize) -> ScoreMatrix {
    let rows: Vec<Vec<f64>> =
        (0..n_samples).map(|_| (0..n_points).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
    ScoreMatrix::from_rows(rows, None).unwrap()
}

/// Runs every algorithm the engine parallelizes and returns the outputs
/// that must be invariant across execution modes.
fn run_suite(m: &ScoreMatrix, k: usize) -> Vec<(Vec<usize>, Option<u64>)> {
    let key = |s: &Selection| (s.indices.clone(), s.objective.map(f64::to_bits));
    let mut suite = vec![
        {
            let out = greedy_shrink(m, GreedyShrinkConfig::new(k)).unwrap();
            key(&out.selection)
        },
        {
            let out = greedy_shrink(
                m,
                GreedyShrinkConfig { k, best_point_cache: true, lazy_pruning: false },
            )
            .unwrap();
            key(&out.selection)
        },
        {
            let out = greedy_shrink(m, GreedyShrinkConfig::naive(k)).unwrap();
            key(&out.selection)
        },
        key(&add_greedy(m, k).unwrap()),
        key(&k_hit(m, k).unwrap()),
        key(&mrr_greedy_sampled(m, k).unwrap()),
    ];
    // Local search from the ADD-GREEDY answer: its runner-up bounds fan
    // out over the pool. `swaps` and `passes` must agree too.
    let seed = add_greedy(m, k).unwrap().indices;
    for max_passes in [1, 3] {
        let cfg = LocalSearchConfig { max_passes, ..Default::default() };
        let out = local_search(m, &seed, cfg).unwrap();
        suite.push(key(&out.selection));
        suite.push((vec![out.swaps, out.passes], None));
    }
    suite
}

#[test]
fn engine_modes_are_bit_identical() {
    algorithm_suite_invariance();
    construction_and_exact_scans_invariance();
}

fn algorithm_suite_invariance() {
    let mut rng = StdRng::seed_from_u64(2019);
    for trial in 0..7 {
        // The last trial is large enough ((n − k) · N >= par::PAR_MIN_WORK
        // for any k <= 8) for the per-candidate fan-outs to split across
        // the pool.
        let (n_points, n_samples) = if trial < 6 {
            (rng.gen_range(8usize..40), rng.gen_range(30usize..400))
        } else {
            (48, 1_000)
        };
        let k = rng.gen_range(1..=n_points.min(8));
        let m = random_matrix(&mut rng, n_samples, n_points);
        let bare = m.clone_without_mirror();

        // Reference: serial, columnar.
        par::force_serial(true);
        let reference = run_suite(&m, k);
        let reference_bare = run_suite(&bare, k);
        par::force_serial(false);

        // Parallel with a forced 4-worker pool (exercises real spawns even
        // on single-core hosts).
        par::set_max_threads(Some(4));
        let parallel = run_suite(&m, k);
        let parallel_bare = run_suite(&bare, k);
        par::set_max_threads(None);

        assert_eq!(reference, parallel, "trial {trial}: parallel diverged from serial");
        assert_eq!(reference, reference_bare, "trial {trial}: columnar layout changed results");
        assert_eq!(reference, parallel_bare, "trial {trial}: parallel row-major diverged");
    }
}

fn construction_and_exact_scans_invariance() {
    let mut rng = StdRng::seed_from_u64(407);
    let rows: Vec<Vec<f64>> =
        (0..120).map(|_| vec![rng.gen_range(0.05..1.0), rng.gen_range(0.05..1.0)]).collect();
    let ds = Dataset::from_rows(rows).unwrap();

    par::force_serial(true);
    let serial_arr = continuous_arr(&ds, &[0, 1, 2], &UniformBoxMeasure).unwrap();
    par::force_serial(false);
    par::set_max_threads(Some(4));
    let parallel_arr = continuous_arr(&ds, &[0, 1, 2], &UniformBoxMeasure).unwrap();

    // Matrix construction (scoring fan-out, validation, best-point pass,
    // transpose) must also be invariant.
    let functions: Vec<std::sync::Arc<dyn fam_core::UtilityFunction>> = (0..64)
        .map(|_| {
            let w = vec![rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0)];
            std::sync::Arc::new(fam_core::LinearUtility::new(w).unwrap())
                as std::sync::Arc<dyn fam_core::UtilityFunction>
        })
        .collect();
    let parallel_m = ScoreMatrix::from_functions(&ds, &functions, None).unwrap();
    par::set_max_threads(None);
    par::force_serial(true);
    let serial_m = ScoreMatrix::from_functions(&ds, &functions, None).unwrap();
    par::force_serial(false);

    assert_eq!(serial_arr.to_bits(), parallel_arr.to_bits());
    for u in 0..64 {
        assert_eq!(serial_m.best_value(u).to_bits(), parallel_m.best_value(u).to_bits());
        assert_eq!(serial_m.best_index(u), parallel_m.best_index(u));
        assert_eq!(serial_m.row(u), parallel_m.row(u));
    }
    for p in 0..ds.len() {
        assert_eq!(serial_m.column(p).unwrap(), parallel_m.column(p).unwrap());
    }
}
