//! Warm-start selection repair for dynamic databases.
//!
//! After a batch of point insertions/deletions, the previous selection is
//! usually still near-optimal: the paper's supermodularity results mean a
//! few lazy greedy steps recover the quality of a full rerun at a tiny
//! fraction of the cost. [`warm_repair`] is the standard repair policy for
//! [`fam_core::DynamicEngine`]: it offers every inserted point to the
//! selection, then lazily shrinks (or grows) back to `k` — reusing the
//! evaluator the engine resumed incrementally, so nothing is rebuilt from
//! scratch.
//!
//! The lazy heaps here follow the same Lemma 2/3 reasoning as
//! GREEDY-SHRINK's Improvement 2: stale evaluation values are optimistic
//! bounds, so a heap head that is already fresh is the true argmin. The
//! grow loop is shared with [`mod@crate::add_greedy`]; both directions break
//! ties on the lowest point index, keeping every run deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use fam_core::{FamError, RepairOutcome, Result, ScoreSource, SelectionEvaluator, WarmStart};

/// Heap entry ordered by smallest value first, then lowest point index —
/// the lazy-greedy ordering every shrink/grow loop in this crate shares
/// (the tie-break is part of the determinism contract).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub(crate) value: f64,
    pub(crate) point: u32,
    pub(crate) stamp: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the smallest value.
        // `total_cmp` keeps a NaN evaluation value from aborting the
        // worker thread that owns the heap; NaNs order last either way.
        other.value.total_cmp(&self.value).then_with(|| other.point.cmp(&self.point))
    }
}

impl PartialOrd for Entry {
    // fam-lint: allow(D001) -- mandatory PartialOrd delegation to the total_cmp-based Ord impl above; no float comparison happens here
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers for the lazy grow/shrink loops.
///
/// GREEDY-SHRINK's trajectory harvest (and the serve layer's `POST
/// /update` re-harvest behind it) calls [`lazy_shrink`] once per `k` on
/// one evaluator, and [`reoptimize`] chains a grow and a shrink; each call
/// used to allocate the member list, the marginal buffer, and the heap's
/// backing storage from scratch. Holding one `RepairScratch` across the
/// sweep retains those capacities, so steady-state repair iterations
/// allocate nothing. (ADD-GREEDY's harvest runs a single grow loop — see
/// [`lazy_grow_each`] — so nothing runs the grow loop once per `k`.)
/// Purely an allocation cache — every buffer is cleared before use, so
/// reusing or dropping it never changes results.
#[derive(Default)]
pub(crate) struct RepairScratch {
    /// Unselected candidate points (grow).
    cands: Vec<u32>,
    /// Current members, sorted (shrink).
    members: Vec<usize>,
    /// Initial marginals, index-aligned with `cands`.
    deltas: Vec<f64>,
    /// Backing storage recycled through `BinaryHeap::from` / `into_vec`.
    /// Heapify builds a different internal layout than one-by-one pushes,
    /// but `Entry`'s order is total (no two entries tie on value *and*
    /// point), so the pop sequence — all any caller observes — is
    /// identical.
    heap: Vec<Entry>,
}

/// Lazily grows the selection to exactly `k` points, adding the candidate
/// with the most negative addition delta each step. Returns the number of
/// `arr` evaluations spent.
///
/// Initial marginals fan out over all cores (the evaluator is read-only
/// during the scan); the lazy heap then re-evaluates only the candidates
/// whose stale bound reaches the head.
///
/// # Panics
///
/// Panics (debug) if the selection already exceeds `k`; `k` must be at
/// most the number of points.
pub(crate) fn lazy_grow<S: ScoreSource + ?Sized>(
    ev: &mut SelectionEvaluator<'_, S>,
    k: usize,
) -> u64 {
    lazy_grow_with(ev, k, &mut RepairScratch::default())
}

/// [`lazy_grow`] with caller-held scratch buffers — the allocation-free
/// form for sweeps that repair one evaluator repeatedly.
pub(crate) fn lazy_grow_with<S: ScoreSource + ?Sized>(
    ev: &mut SelectionEvaluator<'_, S>,
    k: usize,
    scratch: &mut RepairScratch,
) -> u64 {
    lazy_grow_each(ev, k, scratch, |_, _| {})
}

/// [`lazy_grow_with`] that calls `on_pick(ev, evaluations)` after every
/// pick, with the `arr` evaluations spent so far (initial marginals plus
/// lazy re-evaluations). No iteration of the loop depends on `k`, so the
/// state seen after the `j`-th pick is exactly the state a grow to
/// `ev.len()` would end in: one loop to the largest size harvests every
/// smaller one, evaluation counts included.
pub(crate) fn lazy_grow_each<S, F>(
    ev: &mut SelectionEvaluator<'_, S>,
    k: usize,
    scratch: &mut RepairScratch,
    mut on_pick: F,
) -> u64
where
    S: ScoreSource + ?Sized,
    F: FnMut(&SelectionEvaluator<'_, S>, u64),
{
    debug_assert!(ev.len() <= k && k <= ev.n_points());
    let deficit = k - ev.len();
    if deficit == 0 {
        return 0;
    }
    let RepairScratch { cands, deltas, heap, .. } = scratch;
    cands.clear();
    cands.extend((0..ev.n_points() as u32).filter(|&p| !ev.contains(p as usize)));
    let mut evaluations = cands.len() as u64;
    let ev_ref = &*ev;
    deltas.clear();
    deltas.resize(cands.len(), 0.0);
    fam_core::par::fill_adaptive(deltas, ev_ref.n_samples(), |i| {
        ev_ref.addition_delta(cands[i] as usize)
    });
    let mut entries = std::mem::take(heap);
    entries.clear();
    entries.extend(cands.iter().zip(deltas.iter()).map(|(&point, &value)| Entry {
        value,
        point,
        stamp: 0,
    }));
    let mut heap_live: BinaryHeap<Entry> = BinaryHeap::from(entries);
    for iter in 1..=deficit as u32 {
        loop {
            let head = heap_live.pop().expect("heap holds all unselected points");
            if ev.contains(head.point as usize) {
                continue;
            }
            if head.stamp == iter {
                ev.add(head.point as usize);
                on_pick(ev, evaluations);
                break;
            }
            let value = ev.addition_delta(head.point as usize);
            evaluations += 1;
            heap_live.push(Entry { value, point: head.point, stamp: iter });
        }
    }
    *heap = heap_live.into_vec();
    evaluations
}

/// Lazily shrinks the selection to exactly `k` points, removing the
/// member whose removal increases `arr` the least each step. Returns the
/// number of `arr` evaluations spent.
///
/// # Panics
///
/// Panics (debug) if the selection is already at or below `k`.
pub(crate) fn lazy_shrink<S: ScoreSource + ?Sized>(
    ev: &mut SelectionEvaluator<'_, S>,
    k: usize,
) -> u64 {
    lazy_shrink_with(ev, k, &mut RepairScratch::default())
}

/// [`lazy_shrink`] with caller-held scratch buffers — the allocation-free
/// form for sweeps that repair one evaluator repeatedly.
pub(crate) fn lazy_shrink_with<S: ScoreSource + ?Sized>(
    ev: &mut SelectionEvaluator<'_, S>,
    k: usize,
    scratch: &mut RepairScratch,
) -> u64 {
    debug_assert!(ev.len() >= k);
    let surplus = ev.len() - k;
    if surplus == 0 {
        return 0;
    }
    let RepairScratch { members, heap, .. } = scratch;
    ev.selection_into(members);
    let mut evaluations = members.len() as u64;
    let mut entries = std::mem::take(heap);
    entries.clear();
    for &p in members.iter() {
        let value = ev.arr() + ev.removal_delta(p);
        entries.push(Entry { value, point: p as u32, stamp: 0 });
    }
    let mut heap_live: BinaryHeap<Entry> = BinaryHeap::from(entries);
    for iter in 1..=surplus as u32 {
        loop {
            let head = heap_live.pop().expect("heap tracks all remaining members");
            if !ev.contains(head.point as usize) {
                continue;
            }
            if head.stamp == iter {
                ev.remove(head.point as usize);
                break;
            }
            let value = ev.arr() + ev.removal_delta(head.point as usize);
            evaluations += 1;
            heap_live.push(Entry { value, point: head.point, stamp: iter });
        }
    }
    *heap = heap_live.into_vec();
    evaluations
}

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
        evaluations = lazy_shrink(ev, ws.k);
    } else if ev.len() < ws.k {
        added += ws.k - ev.len();
        evaluations = lazy_grow(ev, ws.k);
    }
    Ok(RepairOutcome { added, removed, evaluations })
}

/// Re-optimizes a selection **in place** after its `arr` estimates moved
/// under it — the repair policy of the progressive-precision axis, where
/// appended utility samples refine every estimate while the point
/// universe stays fixed (for *point* churn, use [`warm_repair`]).
///
/// Greedily grows the selection by up to `churn` extra candidates (the
/// same lazy heap as [`crate::add_greedy_from`]), then lazily shrinks
/// back to exactly `k` (the same heap as [`crate::greedy_shrink_warm`]):
/// a candidate that looks better under the refined estimates can
/// displace a weak incumbent, while a stable selection survives both
/// passes untouched. `churn = 0` only re-validates the size.
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
    let before = ev.len();
    let grow_to = k.max(before).saturating_add(churn).min(n);
    let mut evaluations = 0u64;
    let mut added = 0usize;
    let mut scratch = RepairScratch::default();
    if ev.len() < grow_to {
        added = grow_to - ev.len();
        evaluations += lazy_grow_with(ev, grow_to, &mut scratch);
    }
    let mut removed = 0usize;
    if ev.len() > k {
        removed = ev.len() - k;
        evaluations += lazy_shrink_with(ev, k, &mut scratch);
    } else if ev.len() < k {
        added += k - ev.len();
        evaluations += lazy_grow_with(ev, k, &mut scratch);
    }
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
        let mut m = ScoreMatrix::from_rows(vec![vec![0.9, 0.1, 0.1, 0.8]], None).unwrap();
        let st = SelectionEvaluator::new_with(&m, &[0]).into_state();
        m.append_sample_rows(&[
            vec![0.1, 0.2, 0.1, 0.9],
            vec![0.2, 0.1, 0.2, 0.95],
            vec![0.1, 0.1, 0.1, 0.9],
        ])
        .unwrap();
        let mut ev = SelectionEvaluator::resume_after_append(&m, st);
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
