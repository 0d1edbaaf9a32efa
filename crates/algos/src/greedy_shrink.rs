//! GREEDY-SHRINK (Algorithm 1) with the practical improvements of
//! Appendix C.
//!
//! The algorithm initializes the solution to the whole database and
//! repeatedly removes the point whose removal increases the average regret
//! ratio the least, until `k` points remain. Supermodularity +
//! monotonicity of `arr` give the `(e^t − 1)/t` approximation guarantee
//! (Theorem 3).
//!
//! * **Improvement 1** (best-point caching) lives in
//!   [`fam_core::SelectionEvaluator`]: evaluating `arr(S − {p})` touches
//!   only the samples whose best point is `p`.
//! * **Improvement 2** (lazy lower-bound pruning) runs on the crate's
//!   one lazy-greedy module (`lazy.rs`): stale evaluation values are lower
//!   bounds of the current ones (Lemma 2), so a heap head that is already
//!   fresh is the true argmin (Lemma 3).
//!
//! Both improvements are toggleable so the ablation experiment can measure
//! their effect; instrumentation counters reproduce the paper's "~1% of
//! best points change per iteration" and "~68% of candidates re-evaluated"
//! claims. No step of the shrink depends on where it stops, so one shrink
//! serves a cold solve (the one-size range `k..=k`) and the multi-`k`
//! harvest ([`crate::greedy_shrink_range`]) alike: every harvested entry
//! is a cold solve's state, instrumentation included.

use std::ops::RangeInclusive;

use fam_core::solve::QueryTimer;
use fam_core::{regret, FamError, Result, ScoreSource, Selection, SelectionEvaluator};

/// Configuration for [`greedy_shrink`].
#[derive(Debug, Clone, Copy)]
pub struct GreedyShrinkConfig {
    /// Output size.
    pub k: usize,
    /// Improvement 1: incremental best-point caching. When false, every
    /// candidate evaluation recomputes `arr(S − {p})` from scratch.
    pub best_point_cache: bool,
    /// Improvement 2: lazy re-evaluation with lower bounds from the
    /// previous iterations.
    pub lazy_pruning: bool,
}

impl GreedyShrinkConfig {
    /// Full-featured configuration (both improvements on).
    pub fn new(k: usize) -> Self {
        GreedyShrinkConfig { k, best_point_cache: true, lazy_pruning: true }
    }

    /// The naive variant used as an ablation baseline.
    pub fn naive(k: usize) -> Self {
        GreedyShrinkConfig { k, best_point_cache: false, lazy_pruning: false }
    }
}

/// Result of a GREEDY-SHRINK run with instrumentation.
#[derive(Debug, Clone)]
pub struct GreedyShrinkOutput {
    /// The selected points (with query time and final objective attached).
    pub selection: Selection,
    /// Number of shrink iterations performed (`n − k`).
    pub iterations: usize,
    /// Mean fraction of samples whose best point changed per iteration
    /// (the paper reports ≈1% on real datasets).
    pub avg_best_change_frac: f64,
    /// Mean fraction of surviving candidates re-evaluated per iteration
    /// (the paper reports ≈68%; 100% when lazy pruning is off). The lazy
    /// loop's initial scan belongs to no iteration.
    pub avg_candidates_frac: f64,
    /// Total number of `arr(S − {p})` evaluations, the lazy loop's
    /// initial scan of every member included.
    pub arr_evaluations: u64,
}

/// Runs GREEDY-SHRINK on a score matrix.
///
/// # Errors
///
/// Returns an error when `k` is zero or exceeds the number of points.
pub fn greedy_shrink<S: ScoreSource + ?Sized>(
    m: &S,
    cfg: GreedyShrinkConfig,
) -> Result<GreedyShrinkOutput> {
    let n = m.n_points();
    if cfg.k == 0 || cfg.k > n {
        return Err(FamError::InvalidK { k: cfg.k, n });
    }
    Ok(run(m, None, cfg))
}

/// Warm-started GREEDY-SHRINK: initializes the solution to `seed` — a
/// previous selection plus any fresh candidates, rather than the whole
/// database — and shrinks to `cfg.k` points, making `|seed| − k` picks
/// where a cold run makes `n − k`. Seeding with every point is exactly
/// [`greedy_shrink`]. The registry's `greedy-shrink` solver runs it for a
/// `seed=` parameter.
///
/// # Errors
///
/// Returns an error when `cfg.k` is invalid, or the seed is out of
/// bounds, duplicated, or smaller than `cfg.k`.
pub fn greedy_shrink_warm<S: ScoreSource + ?Sized>(
    m: &S,
    seed: &[usize],
    cfg: GreedyShrinkConfig,
) -> Result<GreedyShrinkOutput> {
    let n = m.n_points();
    if cfg.k == 0 || cfg.k > n {
        return Err(FamError::InvalidK { k: cfg.k, n });
    }
    fam_core::selection::validate_indices(seed, n, "seed")?;
    if seed.len() < cfg.k {
        return Err(FamError::InvalidParameter {
            name: "seed",
            message: format!("seed of {} points is smaller than k = {}", seed.len(), cfg.k),
        });
    }
    Ok(run(m, Some(seed), cfg))
}

fn run<S: ScoreSource + ?Sized>(
    m: &S,
    seed: Option<&[usize]>,
    cfg: GreedyShrinkConfig,
) -> GreedyShrinkOutput {
    let algorithm = match (cfg.best_point_cache, seed.is_some()) {
        (true, false) => "greedy-shrink",
        (true, true) => "greedy-shrink-warm",
        (false, false) => "greedy-shrink-naive",
        (false, true) => "greedy-shrink-naive-warm",
    };
    if cfg.best_point_cache {
        let mut outs = shrink_cached(m, seed, cfg.k..=cfg.k, cfg.lazy_pruning, algorithm);
        outs.pop().expect("the one-size range holds k")
    } else {
        shrink_naive(m, cfg.k, seed, algorithm)
    }
}

/// GREEDY-SHRINK on the best-point cache, from `seed` (every point when
/// `None`) down to `ks.start()`, returning the state at every size in `ks`
/// (ascending) with the instrumentation a cold solve at that size
/// reports. `lazy` runs the lazy loop of `lazy.rs`; otherwise every member is scored
/// at every step, the ablation and test reference. A size that needs no
/// pick (`|seed|` itself) is reported with no scan and 0 evaluations.
///
/// `ks` must lie within `1..=|seed|`.
pub(crate) fn shrink_cached<S: ScoreSource + ?Sized>(
    m: &S,
    seed: Option<&[usize]>,
    ks: RangeInclusive<usize>,
    lazy: bool,
    algorithm: &'static str,
) -> Vec<GreedyShrinkOutput> {
    let timer = QueryTimer::start();
    let mut ev = match seed {
        None => SelectionEvaluator::new_full(m),
        Some(s) => SelectionEvaluator::new_with(m, s),
    };
    let start_len = ev.len();
    let mut out = Vec::new();
    // Promotions and evaluations as of the previous pick; the lazy loop's
    // initial scan of every member belongs to no pick.
    let mut promotions = ev.counters().promotions;
    let mut counted = if lazy { start_len as u64 } else { 0 };
    let (mut best_change_acc, mut candidates_acc) = (0.0, 0.0);
    let mut observe = |ev: &SelectionEvaluator<'_, S>, evaluations: u64| {
        let iterations = start_len - ev.len();
        if iterations > 0 {
            let now = ev.counters().promotions;
            best_change_acc += (now - promotions) as f64 / m.n_samples() as f64;
            // Candidates that survived into this pick: |S| before removal.
            candidates_acc += (evaluations - counted) as f64 / (ev.len() + 1) as f64;
            (promotions, counted) = (now, evaluations);
        }
        if ks.contains(&ev.len()) {
            let mean = |acc: f64| if iterations > 0 { acc / iterations as f64 } else { 0.0 };
            out.push(GreedyShrinkOutput {
                selection: Selection::new(ev.selection(), algorithm)
                    .with_objective(ev.arr())
                    .with_query_time(timer.elapsed()),
                iterations,
                avg_best_change_frac: mean(best_change_acc),
                avg_candidates_frac: mean(candidates_acc),
                arr_evaluations: evaluations,
            });
        }
    };
    observe(&ev, 0);
    if lazy {
        crate::lazy::shrink(&mut ev, *ks.start(), &mut observe);
    } else {
        shrink_eager(&mut ev, *ks.start(), &mut observe);
    }
    out.reverse();
    out
}

/// The eager reference for the lazy shrink: scores every member at every
/// step and removes the first with the smallest value (members ascend,
/// so ties go to the lowest index, as in the lazy heap), calling
/// `on_pick` as the lazy loop does.
fn shrink_eager<S, F>(ev: &mut SelectionEvaluator<'_, S>, k: usize, mut on_pick: F)
where
    S: ScoreSource + ?Sized,
    F: FnMut(&SelectionEvaluator<'_, S>, u64),
{
    let mut members = Vec::new();
    let mut evaluations = 0u64;
    while ev.len() > k {
        ev.selection_into(&mut members);
        let mut best: Option<(f64, usize)> = None;
        for &p in &members {
            let value = ev.arr() + ev.removal_delta(p);
            evaluations += 1;
            match best {
                None => best = Some((value, p)),
                Some((bv, _)) if value < bv => best = Some((value, p)),
                _ => {}
            }
        }
        let (_, victim) = best.expect("selection non-empty");
        ev.remove(victim);
        on_pick(ev, evaluations);
    }
}

/// Textbook Algorithm 1 with no caching: every candidate evaluation is a
/// full `O(N · |S|)` scan. Kept for the ablation benchmark; the
/// per-iteration candidate fan-out runs on all cores, merging chunk
/// argmins with a lowest-position tie-break so the victim sequence is
/// identical to the serial scan's.
fn shrink_naive<S: ScoreSource + ?Sized>(
    m: &S,
    k: usize,
    seed: Option<&[usize]>,
    algorithm: &'static str,
) -> GreedyShrinkOutput {
    let timer = QueryTimer::start();
    let n = m.n_points();
    let mut members: Vec<usize> = match seed {
        None => (0..n).collect(),
        Some(s) => {
            let mut v = s.to_vec();
            v.sort_unstable();
            v
        }
    };
    let start_len = members.len();
    let mut arr_evaluations = 0u64;
    while members.len() > k {
        let members_ref = &members;
        let per_candidate = members.len().saturating_mul(m.n_samples());
        let best = fam_core::par::arg_reduce(
            members.len(),
            per_candidate,
            |pos| {
                let p = members_ref[pos];
                let scratch: Vec<usize> = members_ref.iter().copied().filter(|&q| q != p).collect();
                Some(regret::arr_unchecked(m, &scratch))
            },
            |a, b| a < b,
        );
        arr_evaluations += members.len() as u64;
        let (_, pos) = best.expect("members non-empty");
        members.remove(pos);
    }
    let objective = regret::arr_unchecked(m, &members);
    GreedyShrinkOutput {
        selection: Selection::new(members, algorithm)
            .with_objective(objective)
            .with_query_time(timer.elapsed()),
        iterations: start_len - k,
        avg_best_change_frac: f64::NAN,
        avg_candidates_frac: 1.0,
        arr_evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_core::ScoreMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, n_samples: usize, n_points: usize) -> ScoreMatrix {
        let rows: Vec<Vec<f64>> = (0..n_samples)
            .map(|_| (0..n_points).map(|_| rng.gen_range(0.01..1.0)).collect())
            .collect();
        ScoreMatrix::from_rows(rows, None).unwrap()
    }

    #[test]
    fn selects_k_points() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_matrix(&mut rng, 50, 20);
        let out = greedy_shrink(&m, GreedyShrinkConfig::new(5)).unwrap();
        assert_eq!(out.selection.len(), 5);
        assert_eq!(out.iterations, 15);
        let direct = regret::arr(&m, &out.selection.indices).unwrap();
        assert!((out.selection.objective.unwrap() - direct).abs() < 1e-9);
    }

    #[test]
    fn lazy_and_eager_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let n = rng.gen_range(5..25);
            let k = rng.gen_range(1..n);
            let m = random_matrix(&mut rng, 40, n);
            let lazy = greedy_shrink(
                &m,
                GreedyShrinkConfig { k, best_point_cache: true, lazy_pruning: true },
            )
            .unwrap();
            let eager = greedy_shrink(
                &m,
                GreedyShrinkConfig { k, best_point_cache: true, lazy_pruning: false },
            )
            .unwrap();
            assert_eq!(lazy.selection.indices, eager.selection.indices);
        }
    }

    #[test]
    fn cached_and_naive_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let n = rng.gen_range(4..15);
            let k = rng.gen_range(1..n);
            let m = random_matrix(&mut rng, 25, n);
            let cached = greedy_shrink(&m, GreedyShrinkConfig::new(k)).unwrap();
            let naive = greedy_shrink(&m, GreedyShrinkConfig::naive(k)).unwrap();
            assert_eq!(cached.selection.indices, naive.selection.indices, "n={n} k={k}");
            assert!(
                (cached.selection.objective.unwrap() - naive.selection.objective.unwrap()).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn lazy_pruning_saves_evaluations() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = random_matrix(&mut rng, 100, 60);
        let lazy = greedy_shrink(&m, GreedyShrinkConfig::new(10)).unwrap();
        let eager = greedy_shrink(
            &m,
            GreedyShrinkConfig { k: 10, best_point_cache: true, lazy_pruning: false },
        )
        .unwrap();
        assert!(
            lazy.arr_evaluations < eager.arr_evaluations,
            "lazy {} !< eager {}",
            lazy.arr_evaluations,
            eager.arr_evaluations
        );
        assert!(lazy.avg_candidates_frac < 1.0);
    }

    #[test]
    fn k_equals_n_returns_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = random_matrix(&mut rng, 10, 6);
        let out = greedy_shrink(&m, GreedyShrinkConfig::new(6)).unwrap();
        assert_eq!(out.selection.indices, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(out.iterations, 0);
        assert!(out.selection.objective.unwrap().abs() < 1e-12);
        // No pick needed: no scan either.
        assert_eq!(out.arr_evaluations, 0);
        // One pick costs the initial scan of the 6 members and nothing
        // more: the scan is fresh for the first pick.
        let out = greedy_shrink(&m, GreedyShrinkConfig::new(5)).unwrap();
        assert_eq!(out.arr_evaluations, 6);
        assert_eq!(out.avg_candidates_frac, 0.0);
    }

    #[test]
    fn k_one_picks_a_sensible_point() {
        // One point is unambiguously the best for everyone.
        let m = ScoreMatrix::from_rows(
            vec![vec![0.2, 0.9, 0.3], vec![0.1, 0.8, 0.4], vec![0.3, 1.0, 0.2]],
            None,
        )
        .unwrap();
        let out = greedy_shrink(&m, GreedyShrinkConfig::new(1)).unwrap();
        assert_eq!(out.selection.indices, vec![1]);
        assert!(out.selection.objective.unwrap().abs() < 1e-12);
    }

    #[test]
    fn invalid_k_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = random_matrix(&mut rng, 5, 4);
        assert!(greedy_shrink(&m, GreedyShrinkConfig::new(0)).is_err());
        assert!(greedy_shrink(&m, GreedyShrinkConfig::new(5)).is_err());
    }

    #[test]
    fn greedy_stays_near_exhaustive_on_small_instances() {
        // The paper observes an empirical approximation ratio of 1 on small
        // *real* datasets. Fully i.i.d. random matrices are adversarial for
        // greedy, so here we assert a modest ratio bound plus a majority of
        // exact hits; the integration suite checks ratio 1 on structured
        // data (see tests/cross_algorithm.rs).
        let mut rng = StdRng::seed_from_u64(7);
        let mut exact_hits = 0;
        let trials = 20;
        for _ in 0..trials {
            let m = random_matrix(&mut rng, 30, 7);
            let k = 3;
            let out = greedy_shrink(&m, GreedyShrinkConfig::new(k)).unwrap();
            // Exhaustive optimum.
            let mut best = f64::INFINITY;
            let idx: Vec<usize> = (0..7).collect();
            for a in 0..7 {
                for b in a + 1..7 {
                    for c in b + 1..7 {
                        let arr = regret::arr_unchecked(&m, &[idx[a], idx[b], idx[c]]);
                        if arr < best {
                            best = arr;
                        }
                    }
                }
            }
            let got = out.selection.objective.unwrap();
            assert!(got >= best - 1e-12);
            assert!(got <= best * 1.35 + 1e-9, "greedy {got} too far from optimum {best}");
            if (got - best).abs() < 1e-9 {
                exact_hits += 1;
            }
        }
        assert!(
            exact_hits >= trials / 2,
            "greedy matched the optimum on only {exact_hits}/{trials} instances"
        );
    }

    #[test]
    fn warm_seeded_with_everything_matches_cold_run() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..6 {
            let n = rng.gen_range(5..18);
            let k = rng.gen_range(1..n);
            let m = random_matrix(&mut rng, 30, n);
            let all: Vec<usize> = (0..n).collect();
            let cold = greedy_shrink(&m, GreedyShrinkConfig::new(k)).unwrap();
            let warm = greedy_shrink_warm(&m, &all, GreedyShrinkConfig::new(k)).unwrap();
            assert_eq!(cold.selection.indices, warm.selection.indices, "n={n} k={k}");
            assert_eq!(
                cold.selection.objective.unwrap().to_bits(),
                warm.selection.objective.unwrap().to_bits()
            );
            assert_eq!(warm.selection.algorithm, "greedy-shrink-warm");
            assert_eq!(warm.iterations, n - k);
        }
    }

    #[test]
    fn warm_shrinks_only_within_the_seed() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = random_matrix(&mut rng, 40, 20);
        let seed = vec![2, 5, 7, 11, 13, 17];
        for lazy in [true, false] {
            let cfg = GreedyShrinkConfig { k: 3, best_point_cache: true, lazy_pruning: lazy };
            let out = greedy_shrink_warm(&m, &seed, cfg).unwrap();
            assert_eq!(out.selection.len(), 3);
            assert_eq!(out.iterations, 3);
            assert!(out.selection.indices.iter().all(|p| seed.contains(p)));
            let direct = regret::arr(&m, &out.selection.indices).unwrap();
            assert!((out.selection.objective.unwrap() - direct).abs() < 1e-9);
        }
        // The naive ablation path accepts seeds too, with its own label.
        let naive = greedy_shrink_warm(&m, &seed, GreedyShrinkConfig::naive(3)).unwrap();
        assert_eq!(naive.selection.len(), 3);
        assert!(naive.selection.indices.iter().all(|p| seed.contains(p)));
        assert_eq!(naive.selection.algorithm, "greedy-shrink-naive-warm");
        let cold_naive = greedy_shrink(&m, GreedyShrinkConfig::naive(3)).unwrap();
        assert_eq!(cold_naive.selection.algorithm, "greedy-shrink-naive");
    }

    #[test]
    fn warm_seed_validation() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = random_matrix(&mut rng, 10, 6);
        assert!(greedy_shrink_warm(&m, &[0, 1], GreedyShrinkConfig::new(3)).is_err());
        assert!(greedy_shrink_warm(&m, &[0, 0, 1], GreedyShrinkConfig::new(2)).is_err());
        assert!(greedy_shrink_warm(&m, &[0, 9, 1], GreedyShrinkConfig::new(2)).is_err());
        assert!(greedy_shrink_warm(&m, &[0, 1, 2], GreedyShrinkConfig::new(0)).is_err());
        // Seed exactly k: zero iterations, seed returned as-is.
        let out = greedy_shrink_warm(&m, &[4, 1], GreedyShrinkConfig::new(2)).unwrap();
        assert_eq!(out.selection.indices, vec![1, 4]);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.arr_evaluations, 0);
    }

    #[test]
    fn instrumentation_is_populated() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = random_matrix(&mut rng, 200, 40);
        let out = greedy_shrink(&m, GreedyShrinkConfig::new(10)).unwrap();
        assert!(out.avg_best_change_frac > 0.0 && out.avg_best_change_frac <= 1.0);
        assert!(out.avg_candidates_frac > 0.0 && out.avg_candidates_frac <= 1.0);
        assert!(out.arr_evaluations >= 40);
        assert!(out.selection.query_time.as_nanos() > 0);
    }
}
