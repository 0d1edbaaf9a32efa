//! Swap-based local search — a polish step over any initial selection
//! (an extension beyond the paper, in the spirit of its future-work
//! discussion on improving solution quality).
//!
//! Starting from a size-`k` selection, the search repeatedly tries to swap
//! one selected point for one unselected point whenever that strictly
//! lowers the estimated average regret ratio, taking the *best* swap per
//! member (steepest descent) until a pass makes no progress or the pass
//! budget is exhausted. Because `arr` is bounded below and every accepted
//! swap strictly decreases it, termination is guaranteed.
//!
//! # Pruned replacement search
//!
//! The best replacement for a removed member is found without scanning
//! every candidate. Removing any one member leaves each sample's best at
//! least its old runner-up, so
//! [`SelectionEvaluator::runner_up_addition_bound`] — the addition fold
//! run against the runner-ups — is a lower bound on every candidate's
//! post-removal delta, bit for bit. The bounds of all unselected points
//! are computed once (fanned out over all cores) and again after each
//! accepted swap; a revert leaves the set, and so the bounds, unchanged.
//! Each member's search scores the member itself first, then walks the
//! candidates in ascending `(bound, index)` order and stops at the first
//! whose bound cannot reach the incumbent. Equal candidates keep the
//! lowest index, so the answer, `swaps` and `passes` are exactly those of
//! scanning every candidate in index order.

use fam_core::solve::QueryTimer;

use fam_core::{par, FamError, Result, ScoreSource, Selection, SelectionEvaluator};

/// Configuration for [`local_search`].
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchConfig {
    /// Maximum number of full improvement passes.
    pub max_passes: usize,
    /// Minimum arr improvement for a swap to be accepted.
    pub tolerance: f64,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig { max_passes: 3, tolerance: 1e-12 }
    }
}

/// Output of the local search.
#[derive(Debug, Clone)]
pub struct LocalSearchOutput {
    /// The polished selection.
    pub selection: Selection,
    /// Number of accepted swaps.
    pub swaps: usize,
    /// Number of passes performed.
    pub passes: usize,
    /// Exact `arr` evaluations ([`SelectionEvaluator::addition_delta`]
    /// scans) spent on replacement searches.
    pub arr_evaluations: u64,
    /// Runner-up bound scans
    /// ([`SelectionEvaluator::runner_up_addition_bound`]).
    pub bound_evaluations: u64,
}

/// The runner-up bounds of every unselected point, fanned out over all
/// cores, in ascending `(bound, index)` order — the order a replacement
/// search walks.
fn ordered_bounds<S: ScoreSource + ?Sized>(ev: &SelectionEvaluator<'_, S>) -> Vec<(f64, u32)> {
    let cands: Vec<u32> = (0..ev.n_points() as u32).filter(|&q| !ev.contains(q as usize)).collect();
    let mut bounds = vec![(0.0, 0); cands.len()];
    par::fill_adaptive(&mut bounds, ev.n_samples(), |i| {
        (ev.runner_up_addition_bound(cands[i] as usize), cands[i])
    });
    bounds.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    bounds
}

/// Polishes `initial` by best-improvement swaps.
///
/// # Errors
///
/// Returns an error if the initial selection is invalid for the matrix.
pub fn local_search<S: ScoreSource + ?Sized>(
    m: &S,
    initial: &[usize],
    cfg: LocalSearchConfig,
) -> Result<LocalSearchOutput> {
    if initial.is_empty() || initial.len() > m.n_points() {
        return Err(FamError::InvalidK { k: initial.len(), n: m.n_points() });
    }
    let mut seen = vec![false; m.n_points()];
    for &p in initial {
        if p >= m.n_points() {
            return Err(FamError::IndexOutOfBounds { index: p, len: m.n_points() });
        }
        if seen[p] {
            return Err(FamError::InvalidParameter {
                name: "initial",
                message: format!("duplicate point index {p}"),
            });
        }
        seen[p] = true;
    }
    let start = QueryTimer::start();
    let mut ev = SelectionEvaluator::new_with(m, initial);
    let mut swaps = 0usize;
    let mut passes = 0usize;
    let (mut arr_evaluations, mut bound_evaluations) = (0u64, 0u64);
    // Bounds of the current set's non-members; `None` once a swap
    // changed the set.
    let mut bounds: Option<Vec<(f64, u32)>> = None;
    for _ in 0..cfg.max_passes {
        passes += 1;
        let mut improved = false;
        let members = ev.selection();
        for &p in &members {
            if !ev.contains(p) {
                continue; // replaced earlier in this pass
            }
            let order = bounds.get_or_insert_with(|| {
                let fresh = ordered_bounds(&ev);
                bound_evaluations += fresh.len() as u64;
                fresh
            });
            let base = ev.arr();
            ev.remove(p);
            // Best replacement for p: p itself first (restoring the
            // original set), then the other candidates by ascending
            // bound until none can reach the incumbent. On equal arr the
            // lower index wins, as in an index-order scan.
            let arr = ev.arr();
            let mut best = (arr + ev.addition_delta(p), p);
            arr_evaluations += 1;
            for &(bound, q) in order.iter() {
                if arr + bound > best.0 {
                    break;
                }
                let q = q as usize;
                let cand = arr + ev.addition_delta(q);
                arr_evaluations += 1;
                if cand < best.0 || (cand == best.0 && q < best.1) {
                    best = (cand, q);
                }
            }
            ev.add(best.1);
            if best.1 != p && ev.arr() < base - cfg.tolerance {
                swaps += 1;
                improved = true;
                bounds = None;
            } else if best.1 != p {
                // Numerical tie: revert for determinism.
                ev.remove(best.1);
                ev.add(p);
            }
        }
        if !improved {
            break;
        }
    }
    let objective = ev.arr();
    Ok(LocalSearchOutput {
        selection: Selection::new(ev.selection(), "local-search")
            .with_objective(objective)
            .with_query_time(start.elapsed()),
        swaps,
        passes,
        arr_evaluations,
        bound_evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::brute_force;
    use crate::greedy_shrink::{greedy_shrink, GreedyShrinkConfig};
    use fam_core::regret;
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
    fn never_worsens_the_initial_selection() {
        let mut rng = StdRng::seed_from_u64(81);
        for _ in 0..10 {
            let m = random_matrix(&mut rng, 40, 15);
            let initial: Vec<usize> = vec![0, 1, 2];
            let before = regret::arr_unchecked(&m, &initial);
            let out = local_search(&m, &initial, LocalSearchConfig::default()).unwrap();
            assert!(out.selection.objective.unwrap() <= before + 1e-12);
            assert_eq!(out.selection.len(), 3);
            let direct = regret::arr_unchecked(&m, &out.selection.indices);
            assert!((direct - out.selection.objective.unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn polishes_bad_starts_to_optimality_on_small_instances() {
        let mut rng = StdRng::seed_from_u64(82);
        let mut hits = 0;
        let trials = 15;
        for _ in 0..trials {
            let m = random_matrix(&mut rng, 30, 9);
            let k = 3;
            let opt = brute_force(&m, k).unwrap().objective.unwrap();
            // Deliberately bad start: the last k points.
            let initial: Vec<usize> = (9 - k..9).collect();
            let out = local_search(
                &m,
                &initial,
                LocalSearchConfig { max_passes: 10, ..Default::default() },
            )
            .unwrap();
            if (out.selection.objective.unwrap() - opt).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(hits >= trials / 2, "local search reached the optimum only {hits}/{trials}");
    }

    #[test]
    fn improves_or_preserves_greedy_solutions() {
        let mut rng = StdRng::seed_from_u64(83);
        let m = random_matrix(&mut rng, 60, 20);
        let g = greedy_shrink(&m, GreedyShrinkConfig::new(5)).unwrap();
        let polished =
            local_search(&m, &g.selection.indices, LocalSearchConfig::default()).unwrap();
        assert!(polished.selection.objective.unwrap() <= g.selection.objective.unwrap() + 1e-12);
    }

    #[test]
    fn validation() {
        let mut rng = StdRng::seed_from_u64(84);
        let m = random_matrix(&mut rng, 5, 4);
        assert!(local_search(&m, &[], LocalSearchConfig::default()).is_err());
        assert!(local_search(&m, &[9], LocalSearchConfig::default()).is_err());
        assert!(local_search(&m, &[1, 1], LocalSearchConfig::default()).is_err());
    }

    #[test]
    fn reports_pass_and_swap_counts() {
        let mut rng = StdRng::seed_from_u64(85);
        let m = random_matrix(&mut rng, 30, 12);
        let out = local_search(&m, &[9, 10, 11], LocalSearchConfig::default()).unwrap();
        assert!(out.passes >= 1);
        assert!(out.swaps <= out.passes * 3 + 3);
    }
}
