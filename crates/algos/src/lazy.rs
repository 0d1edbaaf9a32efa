//! The lazy-greedy loop: the paper's Improvement 2 (Appendix C),
//! written once.
//!
//! Every greedy loop in this crate picks, at each step, the candidate
//! with the smallest value under the current selection. A value computed
//! against an earlier selection bounds the current one from below
//! (Lemma 2): removal costs only grow as GREEDY-SHRINK shrinks the set,
//! addition deltas only shrink in magnitude as ADD-GREEDY grows it, and
//! MRR-GREEDY's negated witness regrets only rise. So a heap ordered by
//! possibly stale values needs only its head re-evaluated, and the first
//! fresh head is the true argmin (Lemma 3).
//!
//! [`LazyHeap`] owns that protocol: the entry order (smallest value, then
//! lowest point index, part of the determinism contract), the stamps that
//! tell a fresh value from a stale one, and the evaluation count. The
//! initial scan is fresh for the first pick. [`grow`] and [`shrink`] drive
//! a [`SelectionEvaluator`] to a target size on it and call a hook after
//! every pick; MRR-GREEDY calls [`LazyHeap::pick`] directly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use fam_core::{ScoreSource, SelectionEvaluator};

/// Heap entry ordered by smallest value first, then lowest point index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    value: f64,
    point: u32,
    /// The number of picks made when `value` was computed.
    stamp: u32,
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

/// A min-heap of candidate values, each stamped with the pick it was
/// computed for. Each candidate holds exactly one entry, and a pick pops
/// it for good, so the order is total and the pick sequence does not
/// depend on how the heap was built.
pub(crate) struct LazyHeap {
    heap: BinaryHeap<Entry>,
    picks: u32,
    evaluations: u64,
}

impl LazyHeap {
    /// Builds the heap from the initial `(point, value)` scan against the
    /// current selection. Each scanned value counts as one evaluation and
    /// is fresh for the first pick.
    pub(crate) fn new(scan: impl IntoIterator<Item = (usize, f64)>) -> Self {
        let heap: BinaryHeap<Entry> = scan
            .into_iter()
            .map(|(point, value)| Entry { value, point: point as u32, stamp: 0 })
            .collect();
        LazyHeap { evaluations: heap.len() as u64, heap, picks: 0 }
    }

    /// Pops the candidate with the smallest current value, re-evaluating
    /// stale heads with `eval` until a fresh one surfaces; `None` once no
    /// candidate is left. The caller then changes the selection, which
    /// makes every value left in the heap stale.
    pub(crate) fn pick(&mut self, mut eval: impl FnMut(usize) -> f64) -> Option<usize> {
        loop {
            let head = self.heap.pop()?;
            if head.stamp == self.picks {
                self.picks += 1;
                return Some(head.point as usize);
            }
            let value = eval(head.point as usize);
            self.evaluations += 1;
            self.heap.push(Entry { value, point: head.point, stamp: self.picks });
        }
    }

    /// Evaluations spent so far: the initial scan plus every re-evaluation.
    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

/// Grows the selection to `k` points, adding at each step the candidate
/// with the most negative addition delta, and calls `on_pick(ev,
/// evaluations)` after every pick with the evaluations spent so far.
/// Returns the total; a selection already at `k` costs nothing.
///
/// The initial deltas fan out over the worker pool (the evaluator is
/// read-only during the scan). No step depends on `k`, so the state after
/// the `j`-th pick is the state a grow to that size ends in: one grow to
/// the largest size harvests every smaller one, counts included.
///
/// # Panics
///
/// Panics (debug) if the selection already exceeds `k`; `k` must be at
/// most the number of points.
pub(crate) fn grow<S, F>(ev: &mut SelectionEvaluator<'_, S>, k: usize, mut on_pick: F) -> u64
where
    S: ScoreSource + ?Sized,
    F: FnMut(&SelectionEvaluator<'_, S>, u64),
{
    debug_assert!(ev.len() <= k && k <= ev.n_points());
    if ev.len() == k {
        return 0;
    }
    let cands: Vec<usize> = (0..ev.n_points()).filter(|&p| !ev.contains(p)).collect();
    let mut deltas = vec![0.0; cands.len()];
    let view = &*ev;
    fam_core::par::fill_adaptive(&mut deltas, view.n_samples(), |i| view.addition_delta(cands[i]));
    let mut heap = LazyHeap::new(cands.into_iter().zip(deltas));
    while ev.len() < k {
        let p = heap.pick(|p| ev.addition_delta(p)).expect("k <= n leaves a candidate");
        ev.add(p);
        on_pick(ev, heap.evaluations());
    }
    heap.evaluations()
}

/// Shrinks the selection to `k` points, removing at each step the member
/// whose removal raises `arr` the least, with the same hook and count as
/// [`grow`]. The initial scan is serial (a removal delta writes the
/// evaluator's per-sample stamps) and cheap: together the deltas touch
/// each sample about once.
///
/// # Panics
///
/// Panics (debug) if the selection is already below `k`.
pub(crate) fn shrink<S, F>(ev: &mut SelectionEvaluator<'_, S>, k: usize, mut on_pick: F) -> u64
where
    S: ScoreSource + ?Sized,
    F: FnMut(&SelectionEvaluator<'_, S>, u64),
{
    debug_assert!(ev.len() >= k);
    if ev.len() == k {
        return 0;
    }
    let value = |ev: &mut SelectionEvaluator<'_, S>, p: usize| ev.arr() + ev.removal_delta(p);
    let members = ev.selection();
    let mut heap = LazyHeap::new(members.into_iter().map(|p| (p, value(ev, p))));
    while ev.len() > k {
        let p = heap.pick(|p| value(ev, p)).expect("k < |S| leaves a member");
        ev.remove(p);
        on_pick(ev, heap.evaluations());
    }
    heap.evaluations()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_heads_are_picked_without_re_evaluation() {
        let mut heap = LazyHeap::new([(3, 0.5), (1, 0.5), (2, -1.0)]);
        assert_eq!(heap.evaluations(), 3);
        // The initial scan is fresh: the first pick spends nothing.
        assert_eq!(heap.pick(|_| unreachable!("fresh head")), Some(2));
        assert_eq!(heap.evaluations(), 3);
        // Stale heads are re-evaluated until a fresh one surfaces; ties
        // go to the lowest index.
        let mut seen = Vec::new();
        let got = heap.pick(|p| {
            seen.push(p);
            if p == 1 {
                2.0
            } else {
                0.75
            }
        });
        assert_eq!(seen, [1, 3]);
        assert_eq!(got, Some(3));
        assert_eq!(heap.evaluations(), 5);
        assert_eq!(heap.pick(|_| 9.0), Some(1));
        assert_eq!(heap.pick(|_| 9.0), None);
    }
}
