//! Integration tests for the §III-D-3 space optimization: every sampled
//! algorithm must produce identical results on the compact
//! [`LinearScores`] backing and on a materialized [`ScoreMatrix`] built
//! from the same linear functions — the same indices and the same
//! objective bits, since the compact backing computes every score with
//! the matrix's own `dot` chain. Served generations hold the compact
//! backing, so bit equality between the two is the contract.

use std::sync::Arc;

use fam::prelude::*;
use fam::{add_greedy, brute_force, greedy_shrink, k_hit, local_search, regret};
use fam::{LinearScores, LocalSearchConfig, ScoreMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a dataset, explicit linear weights, and both score backings.
fn paired_backings(seed: u64, n: usize, d: usize, samples: usize) -> (LinearScores, ScoreMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = synthetic(n, d, Correlation::AntiCorrelated, &mut rng).unwrap();
    let weight_rows: Vec<Vec<f64>> =
        (0..samples).map(|_| (0..d).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
    let compact = LinearScores::from_weight_rows(ds.clone(), weight_rows.clone()).unwrap();
    let functions: Vec<Arc<dyn UtilityFunction>> = weight_rows
        .into_iter()
        .map(|w| Arc::new(LinearUtility::new(w).unwrap()) as Arc<dyn UtilityFunction>)
        .collect();
    let dense = ScoreMatrix::from_functions(&ds, &functions, None).unwrap();
    (compact, dense)
}

/// A selection's indices and objective bits.
fn answer(sel: &Selection) -> (Vec<usize>, Option<u64>) {
    (sel.indices.clone(), sel.objective.map(f64::to_bits))
}

#[test]
fn greedy_shrink_is_backing_agnostic() {
    let (compact, dense) = paired_backings(1, 60, 4, 150);
    for k in [1usize, 5, 12] {
        let a = greedy_shrink(&compact, GreedyShrinkConfig::new(k)).unwrap();
        let b = greedy_shrink(&dense, GreedyShrinkConfig::new(k)).unwrap();
        assert_eq!(answer(&a.selection), answer(&b.selection), "k={k}");
        assert!(a.selection.objective.is_some());
    }
}

#[test]
fn all_sampled_algorithms_are_backing_agnostic() {
    let (compact, dense) = paired_backings(2, 40, 3, 100);
    let k = 4;
    assert_eq!(answer(&add_greedy(&compact, k).unwrap()), answer(&add_greedy(&dense, k).unwrap()));
    assert_eq!(answer(&k_hit(&compact, k).unwrap()), answer(&k_hit(&dense, k).unwrap()));
    assert_eq!(
        answer(&brute_force(&compact, 3).unwrap()),
        answer(&brute_force(&dense, 3).unwrap())
    );
    assert_eq!(
        answer(&mrr_greedy_sampled(&compact, k).unwrap()),
        answer(&mrr_greedy_sampled(&dense, k).unwrap())
    );
    let init = vec![0, 1, 2, 3];
    assert_eq!(
        answer(&local_search(&compact, &init, LocalSearchConfig::default()).unwrap().selection),
        answer(&local_search(&dense, &init, LocalSearchConfig::default()).unwrap().selection)
    );
    // Every registered solver that reads sampled scores, through the
    // `&dyn ScoreSource` dispatch the serving layer uses.
    for solver in Registry::global().iter().filter(|s| s.capabilities().needs_matrix) {
        let spec = SolverSpec::new(solver.name(), k.max(3));
        let got = Registry::global().solve(&spec, &compact, Some(compact.dataset()));
        let want = Registry::global().solve(&spec, &dense, Some(compact.dataset()));
        match (got, want) {
            (Ok(a), Ok(b)) => {
                assert_eq!(answer(&a.selection), answer(&b.selection), "{}", solver.name())
            }
            (a, b) => assert_eq!(a.is_err(), b.is_err(), "{}", solver.name()),
        }
    }
}

#[test]
fn regret_metrics_agree_across_backings() {
    let (compact, dense) = paired_backings(3, 30, 3, 80);
    let sel = vec![0, 7, 19];
    let bits = |a: f64, b: f64| assert_eq!(a.to_bits(), b.to_bits());
    bits(regret::arr(&compact, &sel).unwrap(), regret::arr(&dense, &sel).unwrap());
    bits(regret::vrr(&compact, &sel).unwrap(), regret::vrr(&dense, &sel).unwrap());
    bits(regret::mrr_sampled(&compact, &sel).unwrap(), regret::mrr_sampled(&dense, &sel).unwrap());
    let pa = regret::rr_percentiles(&compact, &sel, &[50.0, 95.0]).unwrap();
    let pb = regret::rr_percentiles(&dense, &sel, &[50.0, 95.0]).unwrap();
    assert_eq!(pa, pb);
    for u in 0..compact.n_samples() {
        bits(compact.best_value(u), dense.best_value(u));
        assert_eq!(compact.best_index(u), dense.best_index(u));
    }
}

#[test]
fn compact_backing_scales_to_large_n_with_small_memory() {
    // The point of the optimization: n = 50,000 with N = 500 samples
    // would be a 200 MB matrix; compact is ~2.5 MB.
    let mut rng = StdRng::seed_from_u64(4);
    let ds = synthetic(50_000, 4, Correlation::Independent, &mut rng).unwrap();
    let src = LinearScores::sample_uniform(ds, 500, &mut rng).unwrap();
    assert!(src.approx_bytes() < 4_000_000, "footprint {}", src.approx_bytes());
    let out = greedy_shrink(&src, GreedyShrinkConfig::new(10)).unwrap();
    assert_eq!(out.selection.len(), 10);
    let rep = out.selection.evaluate(&src).unwrap();
    assert!(rep.arr < 0.05, "arr {}", rep.arr);
}
