//! Pool-reuse bit-identity over real solves.
//!
//! `parallel_equivalence.rs` pins that one solve is bit-identical across
//! execution modes. This suite pins the *persistent pool* properties on
//! top: back-to-back solves on the same process reuse the already-spawned
//! workers (no respawning between solves), every solve actually routes
//! through the pool, and the results of the 1st and the Nth solve are
//! bit-identical to the serial reference at forced 2 **and** 4 threads.
//!
//! One `#[test]`: the checks toggle process-global execution-mode
//! switches, which would race across harness threads.

use fam_algos::{add_greedy, greedy_shrink, GreedyShrinkConfig};
use fam_core::{par, ScoreMatrix, Selection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, n_samples: usize, n_points: usize) -> ScoreMatrix {
    let rows: Vec<Vec<f64>> =
        (0..n_samples).map(|_| (0..n_points).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
    ScoreMatrix::from_rows(rows, None).unwrap()
}

/// One full solve batch, sized so the rescans clear `PAR_MIN_WORK` and
/// genuinely dispatch to the pool.
fn solve(m: &ScoreMatrix, k: usize) -> Vec<(Vec<usize>, Option<u64>)> {
    let key = |s: &Selection| (s.indices.clone(), s.objective.map(f64::to_bits));
    vec![
        key(&greedy_shrink(m, GreedyShrinkConfig::new(k)).unwrap().selection),
        key(&add_greedy(m, k).unwrap()),
    ]
}

#[test]
fn sequential_solves_reuse_the_pool_and_stay_bit_identical() {
    let mut rng = StdRng::seed_from_u64(777);
    let m = random_matrix(&mut rng, 600, 80);
    let k = 10;

    par::force_serial(true);
    let reference = solve(&m, k);
    par::force_serial(false);

    for threads in [2usize, 4] {
        par::set_max_threads(Some(threads));
        // Warm-up solve spawns the workers for this thread count.
        assert_eq!(solve(&m, k), reference, "threads={threads}: first solve diverged");
        let warm = par::pool_stats();
        assert!(warm.jobs_dispatched > 0, "solves must route through the pool");
        for round in 0..3 {
            assert_eq!(
                solve(&m, k),
                reference,
                "threads={threads}: steady-state solve {round} diverged"
            );
        }
        let after = par::pool_stats();
        assert!(
            after.jobs_dispatched > warm.jobs_dispatched,
            "threads={threads}: steady-state solves stopped dispatching ({warm:?} -> {after:?})"
        );
        assert_eq!(
            after.workers_spawned, warm.workers_spawned,
            "threads={threads}: steady-state solves must reuse workers, not respawn"
        );
        par::set_max_threads(None);
    }
}
