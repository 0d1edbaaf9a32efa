//! ADD-GREEDY — the insertion greedy of the SIGMOD'16 poster (\[33\] in the
//! paper) that preceded GREEDY-SHRINK: start empty, repeatedly add the
//! point that decreases the estimated average regret ratio the most.
//!
//! Supermodularity of `arr` means insertion marginals *shrink* in
//! magnitude as the set grows, so the classic lazy-greedy optimization
//! applies here too: a stale (more negative) delta is an optimistic bound.
//! The grow loop lives in the crate's one lazy-greedy module (`lazy.rs`),
//! and [`crate::add_greedy_range`], [`crate::warm_repair`] and
//! [`crate::reoptimize`] run it as well. Kept primarily as an ablation
//! baseline against GREEDY-SHRINK, and as the polish start of
//! local search.

use fam_core::solve::QueryTimer;

use fam_core::{FamError, Result, ScoreSource, Selection, SelectionEvaluator};

/// Runs ADD-GREEDY, returning `k` points.
///
/// # Errors
///
/// Returns an error when `k` is zero or exceeds the number of points.
pub fn add_greedy<S: ScoreSource + ?Sized>(m: &S, k: usize) -> Result<Selection> {
    add_greedy_from_counted(m, &[], k).map(|(sel, _)| sel)
}

/// Warm-started ADD-GREEDY: starts from `seed` (a previous selection that
/// survived a batch of database updates) and greedily adds points until
/// `k` are selected. With an empty seed this is exactly [`add_greedy`].
///
/// # Errors
///
/// Returns an error when `k` is invalid, or the seed is out of bounds,
/// duplicated, or larger than `k`.
pub fn add_greedy_from<S: ScoreSource + ?Sized>(
    m: &S,
    seed: &[usize],
    k: usize,
) -> Result<Selection> {
    add_greedy_from_counted(m, seed, k).map(|(sel, _)| sel)
}

/// [`add_greedy_from`] plus the `arr` evaluations it spent: the initial
/// marginals of every unselected candidate plus the lazy re-evaluations.
pub(crate) fn add_greedy_from_counted<S: ScoreSource + ?Sized>(
    m: &S,
    seed: &[usize],
    k: usize,
) -> Result<(Selection, u64)> {
    let n = m.n_points();
    if k == 0 || k > n {
        return Err(FamError::InvalidK { k, n });
    }
    fam_core::selection::validate_indices(seed, n, "seed")?;
    if seed.len() > k {
        return Err(FamError::InvalidParameter {
            name: "seed",
            message: format!("seed of {} points exceeds k = {k}", seed.len()),
        });
    }
    let start = QueryTimer::start();
    let mut ev = SelectionEvaluator::new_with(m, seed);
    let evaluations = crate::lazy::grow(&mut ev, k, |_, _| {});
    let objective = ev.arr();
    let algorithm = if seed.is_empty() { "add-greedy" } else { "add-greedy-warm" };
    let sel = Selection::new(ev.selection(), algorithm)
        .with_objective(objective)
        .with_query_time(start.elapsed());
    Ok((sel, evaluations))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn returns_k_points_with_correct_objective() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = random_matrix(&mut rng, 60, 25);
        let sel = add_greedy(&m, 6).unwrap();
        assert_eq!(sel.len(), 6);
        let direct = regret::arr(&m, &sel.indices).unwrap();
        assert!((sel.objective.unwrap() - direct).abs() < 1e-9);
    }

    #[test]
    fn lazy_matches_eager_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let n: usize = rng.gen_range(4..20);
            let k = rng.gen_range(1..=n.min(6));
            let m = random_matrix(&mut rng, 30, n);
            let lazy = add_greedy(&m, k).unwrap();
            // Eager reference implementation.
            let mut ev = SelectionEvaluator::new_with(&m, &[]);
            for _ in 0..k {
                let mut best: Option<(f64, usize)> = None;
                for p in 0..n {
                    if ev.contains(p) {
                        continue;
                    }
                    let d = ev.addition_delta(p);
                    match best {
                        None => best = Some((d, p)),
                        Some((bd, _)) if d < bd => best = Some((d, p)),
                        _ => {}
                    }
                }
                ev.add(best.unwrap().1);
            }
            assert_eq!(lazy.indices, ev.selection(), "n={n} k={k}");
        }
    }

    #[test]
    fn first_pick_is_best_singleton() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = random_matrix(&mut rng, 40, 12);
        let sel = add_greedy(&m, 1).unwrap();
        let mut best = (f64::INFINITY, 0usize);
        for p in 0..12 {
            let arr = regret::arr_unchecked(&m, &[p]);
            if arr < best.0 {
                best = (arr, p);
            }
        }
        assert_eq!(sel.indices, vec![best.1]);
        // The initial scan is fresh for the first pick: k = 1 costs the
        // 12 initial marginals and no re-evaluation.
        let (_, evaluations) = add_greedy_from_counted(&m, &[], 1).unwrap();
        assert_eq!(evaluations, 12);
    }

    #[test]
    fn invalid_k() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = random_matrix(&mut rng, 5, 4);
        assert!(add_greedy(&m, 0).is_err());
        assert!(add_greedy(&m, 5).is_err());
    }

    #[test]
    fn warm_seed_is_respected_and_validated() {
        let mut rng = StdRng::seed_from_u64(14);
        let m = random_matrix(&mut rng, 40, 15);
        let warm = add_greedy_from(&m, &[3, 7], 5).unwrap();
        assert_eq!(warm.algorithm, "add-greedy-warm");
        assert_eq!(warm.len(), 5);
        assert!(warm.indices.contains(&3) && warm.indices.contains(&7));
        let direct = regret::arr(&m, &warm.indices).unwrap();
        assert!((warm.objective.unwrap() - direct).abs() < 1e-9);
        // Seed already at k: returned unchanged.
        let full = add_greedy_from(&m, &[1, 2, 4], 3).unwrap();
        assert_eq!(full.indices, vec![1, 2, 4]);
        assert!(add_greedy_from(&m, &[0, 0], 3).is_err());
        assert!(add_greedy_from(&m, &[99], 3).is_err());
        assert!(add_greedy_from(&m, &[0, 1, 2, 3], 3).is_err());
    }

    #[test]
    fn warm_from_empty_is_exactly_add_greedy() {
        let mut rng = StdRng::seed_from_u64(15);
        let m = random_matrix(&mut rng, 50, 18);
        let cold = add_greedy(&m, 6).unwrap();
        let warm = add_greedy_from(&m, &[], 6).unwrap();
        assert_eq!(cold.indices, warm.indices);
        assert_eq!(cold.objective.unwrap().to_bits(), warm.objective.unwrap().to_bits());
        assert_eq!(warm.algorithm, "add-greedy");
    }
}
