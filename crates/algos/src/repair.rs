//! Warm-start selection repair for dynamic databases.
//!
//! After a batch of point insertions/deletions, the previous selection is
//! usually still near-optimal: the paper's supermodularity results mean a
//! few lazy greedy steps recover the quality of a full rerun at a tiny
//! fraction of the cost. [`warm_repair`] is the standard repair policy for
//! [`fam_core::DynamicEngine`]: it offers every inserted point to the
//! selection, then lazily shrinks (or grows) back to `k` — reusing the
//! evaluator the engine resumed incrementally, so nothing is rebuilt from
//! scratch. Warm repair does not reproduce the cold answer, so no CLI or
//! server path runs it: `fam replay` and `fam serve` re-harvest cold.
//! It stays, with the engine, for perfbench's traced replica, the
//! dynamic bench and `tests/dynamic_equivalence.rs`. [`reoptimize`] is
//! the warm round of the progressive-precision driver
//! ([`mod@crate::refine`]).
//!
//! Both policies run the crate's one lazy-greedy module (`lazy.rs`): the
//! grow and shrink loops behind ADD-GREEDY and GREEDY-SHRINK: stale
//! values are optimistic bounds, so a heap head that is already fresh is
//! the true argmin (Lemmas 2/3), and ties break on the lowest point
//! index, keeping every run deterministic.

use fam_core::{FamError, RepairOutcome, Result, ScoreSource, SelectionEvaluator, WarmStart};

use crate::lazy;

/// The standard repair policy for [`fam_core::DynamicEngine::apply_with`]:
/// offer every inserted point to the selection, then lazily shrink (when
/// over `k`) or grow (when deletions left the selection short) back to
/// exactly `ws.k`.
///
/// Adding first is quality-safe — `arr` is monotone non-increasing under
/// addition (Lemma 1) — and lets an inserted point displace a weaker
/// incumbent through the shrink pass, which is exactly GREEDY-SHRINK's
/// move repertoire warm-started from the previous solution.
///
/// # Errors
///
/// Returns [`FamError::InvalidK`] when `ws.k` is zero or exceeds the
/// point universe.
pub fn warm_repair<S: ScoreSource + ?Sized>(
    ev: &mut SelectionEvaluator<'_, S>,
    ws: &WarmStart,
) -> Result<RepairOutcome> {
    let n = ev.n_points();
    if ws.k == 0 || ws.k > n {
        return Err(FamError::InvalidK { k: ws.k, n });
    }
    let mut added = 0usize;
    for p in ws.inserted.clone() {
        if !ev.contains(p) {
            ev.add(p);
            added += 1;
        }
    }
    let mut removed = 0usize;
    let mut evaluations = 0u64;
    if ev.len() > ws.k {
        removed = ev.len() - ws.k;
        evaluations = lazy::shrink(ev, ws.k, |_, _| {});
    } else if ev.len() < ws.k {
        added += ws.k - ev.len();
        evaluations = lazy::grow(ev, ws.k, |_, _| {});
    }
    Ok(RepairOutcome { added, removed, evaluations })
}

/// Re-optimizes a selection **in place** after its `arr` estimates moved
/// under it — the repair policy of the progressive-precision axis, where
/// appended utility samples refine every estimate while the point
/// universe stays fixed (for *point* churn, use [`warm_repair`]).
///
/// Greedily grows the selection by up to `churn` extra candidates (the
/// lazy grow of [`crate::add_greedy_from`]), then lazily shrinks back to
/// exactly `k` (the lazy shrink of [`crate::greedy_shrink_warm`]): a
/// candidate that looks better under the refined estimates can displace
/// a weak incumbent, while a stable selection survives both passes
/// untouched. `churn = 0` only re-validates the size.
///
/// # Errors
///
/// Returns [`FamError::InvalidK`] when `k` is zero or exceeds the point
/// universe.
pub fn reoptimize<S: ScoreSource + ?Sized>(
    ev: &mut SelectionEvaluator<'_, S>,
    k: usize,
    churn: usize,
) -> Result<RepairOutcome> {
    let n = ev.n_points();
    if k == 0 || k > n {
        return Err(FamError::InvalidK { k, n });
    }
    // `grow_to >= max(k, |S|)`: grow first, then only a shrink is left.
    let grow_to = k.max(ev.len()).saturating_add(churn).min(n);
    let added = grow_to - ev.len();
    let mut evaluations = lazy::grow(ev, grow_to, |_, _| {});
    let removed = ev.len() - k;
    evaluations += lazy::shrink(ev, k, |_, _| {});
    Ok(RepairOutcome { added, removed, evaluations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_shrink::{greedy_shrink, GreedyShrinkConfig};
    use fam_core::{regret, ScoreMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, n_samples: usize, n_points: usize) -> ScoreMatrix {
        let rows: Vec<Vec<f64>> = (0..n_samples)
            .map(|_| (0..n_points).map(|_| rng.gen_range(0.01..1.0)).collect())
            .collect();
        ScoreMatrix::from_rows(rows, None).unwrap()
    }

    #[test]
    fn shrink_from_full_matches_greedy_shrink() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..8 {
            let n = rng.gen_range(5..20);
            let k = rng.gen_range(1..n);
            let m = random_matrix(&mut rng, 40, n);
            let mut ev = SelectionEvaluator::new_full(&m);
            warm_repair(&mut ev, &WarmStart { inserted: n..n, k }).unwrap();
            let reference = greedy_shrink(&m, GreedyShrinkConfig::new(k)).unwrap();
            assert_eq!(ev.selection(), reference.selection.indices, "n={n} k={k}");
            assert_eq!(
                ev.arr().to_bits(),
                reference.selection.objective.unwrap().to_bits(),
                "n={n} k={k}"
            );
        }
    }

    #[test]
    fn grow_from_empty_matches_add_greedy() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..8 {
            let n: usize = rng.gen_range(4..20);
            let k = rng.gen_range(1..=n.min(6));
            let m = random_matrix(&mut rng, 30, n);
            let mut ev = SelectionEvaluator::new_with(&m, &[]);
            let outcome = warm_repair(&mut ev, &WarmStart { inserted: n..n, k }).unwrap();
            assert_eq!(outcome.added, k);
            let reference = crate::add_greedy::add_greedy(&m, k).unwrap();
            assert_eq!(ev.selection(), reference.indices, "n={n} k={k}");
        }
    }

    #[test]
    fn inserted_points_can_displace_incumbents() {
        // One sample adores point 3; an inserted clone of it scoring even
        // higher everywhere must displace something.
        let m = ScoreMatrix::from_rows(
            vec![vec![0.9, 0.1, 0.1, 0.2], vec![0.1, 0.8, 0.2, 0.3], vec![0.1, 0.1, 0.2, 0.9]],
            None,
        )
        .unwrap();
        let mut m2 = m.clone();
        m2.insert_points(&[vec![0.95, 0.9, 0.95]]).unwrap();
        let mut ev = SelectionEvaluator::new_with(&m2, &[0, 1]);
        let outcome = warm_repair(&mut ev, &WarmStart { inserted: 4..5, k: 2 }).unwrap();
        assert_eq!(outcome.added, 1);
        assert_eq!(outcome.removed, 1);
        let sel = ev.selection();
        assert!(sel.contains(&4), "the dominating insert must survive, got {sel:?}");
        assert_eq!(sel.len(), 2);
        assert!(ev.verify_consistency());
    }

    #[test]
    fn repair_is_a_noop_at_target_size() {
        let mut rng = StdRng::seed_from_u64(23);
        let m = random_matrix(&mut rng, 20, 8);
        let mut ev = SelectionEvaluator::new_with(&m, &[1, 4, 6]);
        let arr = ev.arr();
        let outcome = warm_repair(&mut ev, &WarmStart { inserted: 8..8, k: 3 }).unwrap();
        assert_eq!(outcome, RepairOutcome::default());
        assert_eq!(ev.arr().to_bits(), arr.to_bits());
        assert_eq!(ev.selection(), vec![1, 4, 6]);
    }

    #[test]
    fn rejects_invalid_targets() {
        let mut rng = StdRng::seed_from_u64(24);
        let m = random_matrix(&mut rng, 10, 5);
        let mut ev = SelectionEvaluator::new_with(&m, &[0]);
        assert!(warm_repair(&mut ev, &WarmStart { inserted: 5..5, k: 0 }).is_err());
        assert!(warm_repair(&mut ev, &WarmStart { inserted: 5..5, k: 6 }).is_err());
    }

    #[test]
    fn reoptimize_lets_refined_estimates_swap_members() {
        // Under the coarse 1-sample view, point 0 looks best; the refined
        // 4-sample view makes point 3 the clear winner. A churn-1
        // reoptimize must make the swap.
        let m = ScoreMatrix::from_rows(
            vec![
                vec![0.9, 0.1, 0.1, 0.8],
                vec![0.1, 0.2, 0.1, 0.9],
                vec![0.2, 0.1, 0.2, 0.95],
                vec![0.1, 0.1, 0.1, 0.9],
            ],
            None,
        )
        .unwrap();
        let mut ev = SelectionEvaluator::new_with(&m, &[0]);
        let outcome = reoptimize(&mut ev, 1, 1).unwrap();
        assert_eq!(ev.selection(), vec![3]);
        assert_eq!(outcome.added, 1);
        assert_eq!(outcome.removed, 1);
        assert!(ev.verify_consistency());
        // Zero churn leaves a full-size selection alone.
        let outcome = reoptimize(&mut ev, 1, 0).unwrap();
        assert_eq!(outcome, RepairOutcome::default());
        assert_eq!(ev.selection(), vec![3]);
    }

    #[test]
    fn reoptimize_grows_short_selections_and_validates_k() {
        let mut rng = StdRng::seed_from_u64(26);
        let m = random_matrix(&mut rng, 20, 9);
        let mut ev = SelectionEvaluator::new_with(&m, &[2]);
        // Short selection grows to k even with churn 0.
        let outcome = reoptimize(&mut ev, 3, 0).unwrap();
        assert_eq!(ev.len(), 3);
        assert_eq!(outcome.added, 2);
        assert!(ev.verify_consistency());
        // churn clamps at the universe size.
        let outcome = reoptimize(&mut ev, 3, 100).unwrap();
        assert_eq!(ev.len(), 3);
        assert_eq!(outcome.added, 6);
        assert_eq!(outcome.removed, 6);
        assert!(reoptimize(&mut ev, 0, 1).is_err());
        assert!(reoptimize(&mut ev, 10, 1).is_err());
    }

    #[test]
    fn repaired_quality_tracks_full_rerun() {
        // After moderate churn, warm repair must stay close to a full
        // greedy rerun in objective value (it is the same move repertoire
        // warm-started, not a guarantee of identical output).
        let mut rng = StdRng::seed_from_u64(25);
        for trial in 0..5 {
            let m = random_matrix(&mut rng, 60, 30);
            let k = 6;
            let full = greedy_shrink(&m, GreedyShrinkConfig::new(k)).unwrap();
            let mut m2 = m.clone();
            let remap = m2.delete_points(&[2, 11, 17]).unwrap();
            let cols: Vec<Vec<f64>> =
                (0..3).map(|_| (0..60).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
            m2.insert_points(&cols).unwrap();
            let kept: Vec<usize> = full
                .selection
                .indices
                .iter()
                .filter_map(|&p| remap[p].map(|q| q as usize))
                .collect();
            let mut ev = SelectionEvaluator::new_with(&m2, &kept);
            warm_repair(&mut ev, &WarmStart { inserted: 27..30, k }).unwrap();
            assert_eq!(ev.selection().len(), k);
            let rerun = greedy_shrink(&m2, GreedyShrinkConfig::new(k)).unwrap();
            let warm_arr = ev.arr();
            let rerun_arr = rerun.selection.objective.unwrap();
            assert!(
                warm_arr <= rerun_arr * 1.5 + 0.05,
                "trial {trial}: warm {warm_arr} too far behind rerun {rerun_arr}"
            );
            let direct = regret::arr_unchecked(&m2, &ev.selection());
            assert!((warm_arr - direct).abs() < 1e-9);
        }
    }
}
