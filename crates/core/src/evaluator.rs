//! Incremental average-regret-ratio evaluation.
//!
//! [`SelectionEvaluator`] maintains, for a dynamic selection `S`, each
//! sample's best and second-best point *within `S`*, plus reverse "owner"
//! lists from points to the samples they currently satisfy best. This is
//! Improvement 1 of the paper (Appendix C): evaluating a candidate removal
//! `arr(S − {p})` touches only the samples whose best point is `p`, and
//! applying a removal only rescans those samples (empirically ~1% per
//! iteration on realistic data).
//!
//! The structure supports both removals (GREEDY-SHRINK) and additions
//! (ADD-GREEDY, K-HIT), so owner lists use lazy deletion: entries are
//! verified against the exact `top1`/`top2` arrays before use.
//!
//! # Layout and parallelism
//!
//! The evaluator reads scores through [`ScoreSource`]'s borrow-or-fill
//! accessors, so it runs unchanged on a stored matrix and on a computing
//! substrate: full rebuilds and runner-up rescans read each sample's row
//! ([`ScoreSource::row_scores`], or just the members' scores through
//! [`ScoreSource::member_scores`]), and addition scans walk a candidate's
//! column in bands of [`kernels::BAND`] samples, folded with the carried
//! lane accumulator [`kernels::LaneSum`] — the same terms in the same
//! order as one `lane_sum` over the column. A stored matrix lends each
//! band ([`ScoreSource::column_scores`]); a computing substrate scores
//! each sample as the fold consumes it ([`ScoreSource::linear_columns`])
//! (see the layout notes in [`crate::scores`]). [`rebuild`] and the
//! batched rescans triggered by [`remove`] fan out over the worker pool
//! through [`crate::par`]; reductions fold fixed chunks in order, so the
//! maintained `arr` is bit-identical for every thread count. The scans themselves go through the
//! cache-blocked kernels of [`crate::kernels`] (`top_two_dense` /
//! `top_two_gather` for removals, `lane_sum` for the arr folds) —
//! `docs/PERFORMANCE.md` documents the layout trade-offs and the
//! determinism argument.
//!
//! # When the scores change
//!
//! An evaluator borrows fixed scores, so callers whose scores grow or
//! change build a fresh one. The refine driver runs
//! [`SelectionEvaluator::new_with`] on the previous round's selection
//! after each sample append: one `O(N·|S|)` rebuild, small next to
//! scoring the new samples. fam-serve solves each generation cold. Only
//! the library replica of the update path patches a detached
//! [`EvaluatorState`] instead ([`SelectionEvaluator::resume_after_update`]).
//!
//! [`rebuild`]: SelectionEvaluator::new_full
//! [`remove`]: SelectionEvaluator::remove

use crate::kernels;
use crate::par;
use crate::scores::{MemberScores, ScoreMatrix, ScoreSource};

const NONE: u32 = kernels::NO_POINT;

/// Best and runner-up of sample `u` over `members` in list order,
/// skipping `exclude` (pass [`NONE`] to skip nothing), through
/// [`kernels::top_two_gather`] on the sample's row or
/// [`kernels::top_two_listed`] on the members' scores — the same scan
/// either way. `buf` is the caller's row scratch. Returned values are
/// 0.0 when the corresponding index is [`NONE`].
fn top_two<S: ScoreSource + ?Sized>(
    m: &S,
    u: usize,
    members: &[u32],
    exclude: u32,
    buf: &mut Vec<f64>,
) -> (u32, f64, u32, f64) {
    match m.member_scores(u, members, buf) {
        MemberScores::Row(row) => kernels::top_two_gather(row, members, exclude),
        MemberScores::Listed(scores) => kernels::top_two_listed(members, scores, exclude),
    }
}

/// [`SelectionEvaluator::addition_delta`] over the bands of point `p`'s
/// column that `m` lends (the matrix mirror) or fills: `held[u]` is the value
/// `p` must beat on sample `u` (its best within the selection, or its
/// runner-up for [`SelectionEvaluator::runner_up_addition_bound`]). Out
/// of line, as is [`fused_addition_delta`], so neither scan's code
/// shapes the other's.
#[inline(never)]
fn banded_addition_delta<S: ScoreSource + ?Sized>(
    m: &S,
    p: usize,
    w: &[f64],
    best: &[f64],
    held: &[f64],
) -> f64 {
    let n = held.len();
    let mut sum = kernels::LaneSum::new();
    let mut buf = [0.0f64; kernels::BAND];
    for b0 in (0..n).step_by(kernels::BAND) {
        let b1 = (b0 + kernels::BAND).min(n);
        let len = b1 - b0;
        // Re-sliced to the band: equal lengths let the fold drop its
        // bounds checks and vectorize.
        let col = &m.column_scores(p, b0..b1, &mut buf)[..len];
        let (w, best, held) = (&w[b0..b1], &best[b0..b1], &held[b0..b1]);
        sum.fold(b0, len, |i| kernels::addition_term(w[i], col[i], held[i], best[i]));
    }
    sum.total()
}

/// [`banded_addition_delta`] on a computing substrate: each band's
/// scores are computed as the fold consumes them
/// ([`kernels::linear_addition_fold`]), so the multiply-adds overlap the
/// divisions.
#[inline(never)]
fn fused_addition_delta(
    linear: &crate::LinearColumns<'_>,
    p: usize,
    w: &[f64],
    best: &[f64],
    held: &[f64],
) -> f64 {
    let n = held.len();
    let mut sum = kernels::LaneSum::new();
    for b0 in (0..n).step_by(kernels::BAND) {
        let b1 = (b0 + kernels::BAND).min(n);
        linear.addition_fold(p, b0, &w[b0..b1], &held[b0..b1], &best[b0..b1], &mut sum);
    }
    sum.total()
}

/// Instrumentation counters for the efficiency claims of Appendix C.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalCounters {
    /// Samples whose best point changed across all applied mutations.
    pub promotions: u64,
    /// Samples whose second-best point was recomputed by a full scan.
    pub rescans: u64,
    /// Candidate evaluations served from owner lists (`removal_delta`).
    pub delta_evals: u64,
    /// Total samples touched by `removal_delta` calls.
    pub delta_rows_touched: u64,
}

/// Detached [`SelectionEvaluator`] state with no matrix borrow.
///
/// A `SelectionEvaluator` borrows its score source for its whole lifetime,
/// which forbids mutating the matrix (point insertion/deletion) while an
/// evaluator is alive. [`SelectionEvaluator::into_state`] detaches the
/// maintained caches so an owner can patch the matrix and then reattach
/// via [`SelectionEvaluator::from_state`] (matrix unchanged) or
/// [`SelectionEvaluator::resume_after_update`] (points inserted/deleted)
/// without paying a full `O(N·|S|)` rebuild. The only such owner is
/// `DynamicEngine`, the library replica of the update path (see the
/// module docs of [`crate::dynamic`]).
#[derive(Debug, Clone)]
pub struct EvaluatorState {
    in_sel: Vec<bool>,
    members: Vec<u32>,
    top1: Vec<u32>,
    top1_val: Vec<f64>,
    top2: Vec<u32>,
    top2_val: Vec<f64>,
    owners: Vec<Vec<u32>>,
    second_owners: Vec<Vec<u32>>,
    arr: f64,
    counters: EvalCounters,
    stamp: Vec<u64>,
    epoch: u64,
}

impl EvaluatorState {
    /// Current `arr(S)`.
    #[inline]
    pub fn arr(&self) -> f64 {
        self.arr
    }

    /// Current selection size.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the selection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Current members, sorted ascending.
    pub fn selection(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.members.iter().map(|&p| p as usize).collect();
        v.sort_unstable();
        v
    }

    /// Instrumentation counters carried by the detached state.
    pub fn counters(&self) -> &EvalCounters {
        &self.counters
    }

    /// Zero-capacity stand-in used by owners that need to `mem::replace`
    /// their state while a resume is in flight.
    pub(crate) fn placeholder() -> Self {
        EvaluatorState {
            in_sel: Vec::new(),
            members: Vec::new(),
            top1: Vec::new(),
            top1_val: Vec::new(),
            top2: Vec::new(),
            top2_val: Vec::new(),
            owners: Vec::new(),
            second_owners: Vec::new(),
            arr: 0.0,
            counters: EvalCounters::default(),
            stamp: Vec::new(),
            epoch: 0,
        }
    }
}

/// Incrementally maintained `arr(S)` with O(affected-samples) updates.
///
/// # Examples
///
/// ```
/// use fam_core::{ScoreMatrix, SelectionEvaluator};
///
/// let m = ScoreMatrix::from_rows(vec![
///     vec![1.0, 0.8, 0.1],
///     vec![0.2, 0.9, 1.0],
/// ], None).unwrap();
/// let mut ev = SelectionEvaluator::new_full(&m);
/// assert!(ev.arr().abs() < 1e-12); // S = D has zero regret
/// let delta = ev.removal_delta(0);
/// ev.remove(0);
/// assert!((ev.arr() - delta).abs() < 1e-12);
/// ```
pub struct SelectionEvaluator<'a, S: ScoreSource + ?Sized = ScoreMatrix> {
    m: &'a S,
    in_sel: Vec<bool>,
    members: Vec<u32>,
    top1: Vec<u32>,
    top1_val: Vec<f64>,
    top2: Vec<u32>,
    top2_val: Vec<f64>,
    owners: Vec<Vec<u32>>,
    second_owners: Vec<Vec<u32>>,
    arr: f64,
    counters: EvalCounters,
    // Owner lists use lazy deletion, so after interleaved adds/removes a
    // row can appear in `owners[p]` more than once while still having
    // `top1 == p`. Epoch stamps deduplicate rows within one delta pass.
    stamp: Vec<u64>,
    epoch: u64,
    scratch: EvalScratch,
}

/// Reusable buffers for [`SelectionEvaluator::remove`]'s rescan pipeline.
///
/// A GREEDY-SHRINK run calls `remove` `n − k` times, and each call used to
/// allocate five fresh `Vec`s (the promoted-sample list, the rescan batch,
/// saved old values, the stale runner-up batch, and the rescan results).
/// These buffers live on the evaluator instead, retaining their capacity
/// across iterations, so steady-state removals allocate nothing. Purely an
/// allocation cache: every buffer is cleared before use, so it carries no
/// state between calls and is deliberately **not** part of
/// [`EvaluatorState`] (a resumed evaluator just warms a fresh cache).
#[derive(Default)]
struct EvalScratch {
    /// Owner/second-owner entries of the point being removed (copied out
    /// so the lists can be repaired while iterating).
    promoted: Vec<u32>,
    /// Samples whose best point died and whose runner-up was promoted.
    fresh: Vec<u32>,
    /// The dying best values of `fresh`, for the arr update.
    old_vals: Vec<f64>,
    /// Samples whose runner-up died (deduplicated via epoch stamps).
    stale: Vec<u32>,
    /// Runner-up rescan results, index-aligned with the request batch.
    pairs: Vec<(u32, f64)>,
}

impl<'a, S: ScoreSource + ?Sized> SelectionEvaluator<'a, S> {
    /// Starts with `S = D` (the initial state of GREEDY-SHRINK).
    pub fn new_full(m: &'a S) -> Self {
        let n = m.n_points();
        let mut ev = SelectionEvaluator {
            m,
            in_sel: vec![true; n],
            members: (0..n as u32).collect(),
            top1: vec![NONE; m.n_samples()],
            top1_val: vec![0.0; m.n_samples()],
            top2: vec![NONE; m.n_samples()],
            top2_val: vec![0.0; m.n_samples()],
            owners: vec![Vec::new(); n],
            second_owners: vec![Vec::new(); n],
            arr: 0.0,
            counters: EvalCounters::default(),
            stamp: vec![0; m.n_samples()],
            epoch: 0,
            scratch: EvalScratch::default(),
        };
        ev.rebuild();
        ev
    }

    /// Starts with an explicit selection (indices may be in any order; no
    /// duplicates).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or duplicated.
    pub fn new_with(m: &'a S, selection: &[usize]) -> Self {
        let n = m.n_points();
        let mut in_sel = vec![false; n];
        for &p in selection {
            assert!(p < n, "selection index {p} out of bounds");
            assert!(!in_sel[p], "duplicate selection index {p}");
            in_sel[p] = true;
        }
        let mut ev = SelectionEvaluator {
            m,
            in_sel,
            members: selection.iter().map(|&p| p as u32).collect(),
            top1: vec![NONE; m.n_samples()],
            top1_val: vec![0.0; m.n_samples()],
            top2: vec![NONE; m.n_samples()],
            top2_val: vec![0.0; m.n_samples()],
            owners: vec![Vec::new(); n],
            second_owners: vec![Vec::new(); n],
            arr: 0.0,
            counters: EvalCounters::default(),
            stamp: vec![0; m.n_samples()],
            epoch: 0,
            scratch: EvalScratch::default(),
        };
        ev.rebuild();
        ev
    }

    /// Detaches the maintained caches from the matrix borrow, ending the
    /// borrow. See [`EvaluatorState`].
    pub fn into_state(self) -> EvaluatorState {
        EvaluatorState {
            in_sel: self.in_sel,
            members: self.members,
            top1: self.top1,
            top1_val: self.top1_val,
            top2: self.top2,
            top2_val: self.top2_val,
            owners: self.owners,
            second_owners: self.second_owners,
            arr: self.arr,
            counters: self.counters,
            stamp: self.stamp,
            epoch: self.epoch,
        }
    }

    /// Reattaches a detached state to an **unchanged** matrix (same point
    /// and sample universe). For a matrix whose points changed, use
    /// [`SelectionEvaluator::resume_after_update`].
    ///
    /// # Panics
    ///
    /// Panics if the state's dimensions do not match the matrix.
    pub fn from_state(m: &'a S, st: EvaluatorState) -> Self {
        assert_eq!(st.in_sel.len(), m.n_points(), "state does not match the matrix point count");
        assert_eq!(st.stamp.len(), m.n_samples(), "state does not match the matrix sample count");
        SelectionEvaluator {
            m,
            in_sel: st.in_sel,
            members: st.members,
            top1: st.top1,
            top1_val: st.top1_val,
            top2: st.top2,
            top2_val: st.top2_val,
            owners: st.owners,
            second_owners: st.second_owners,
            arr: st.arr,
            counters: st.counters,
            stamp: st.stamp,
            epoch: st.epoch,
            scratch: EvalScratch::default(),
        }
    }

    /// Reattaches a detached state to a matrix whose **points changed**
    /// (a batch of deletions and/or appended insertions), repairing the
    /// caches incrementally instead of rebuilding.
    ///
    /// `remap` maps the previous point universe to the new one
    /// (`Some(new)` for survivors, `None` for deleted points — exactly
    /// what [`crate::ScoreMatrix::delete_points`] returns); appended
    /// points need no remap entry. Deleted members drop out of the
    /// selection. Only the samples whose cached best or runner-up died
    /// are rescanned (`O(affected · |S|)`); owner lists are rebuilt in
    /// sample order (`O(N)`, the canonical order a fresh rebuild
    /// produces) and `arr` is refolded over the same fixed chunks as a
    /// full rebuild, so the maintained values — `arr` and every
    /// `top1_val`/`top2_val` — are **bit-identical** to
    /// [`SelectionEvaluator::new_with`] on the surviving selection.
    /// (Cached top-point *indices* can differ from a fresh scan's only
    /// when two members tie bit-for-bit on a sample; the tracked values
    /// are order statistics and agree regardless.)
    ///
    /// # Panics
    ///
    /// Panics if `remap` does not cover the previous point universe, maps
    /// out of bounds, or the sample count changed.
    pub fn resume_after_update(m: &'a S, st: EvaluatorState, remap: &[Option<u32>]) -> Self {
        assert_eq!(remap.len(), st.in_sel.len(), "remap must cover the previous point universe");
        let n = m.n_points();
        let n_samples = m.n_samples();
        assert_eq!(st.stamp.len(), n_samples, "sample count must be unchanged across updates");
        let mut members: Vec<u32> = st
            .members
            .iter()
            .filter_map(|&p| remap[p as usize])
            .inspect(|&p| assert!((p as usize) < n, "remap target {p} out of bounds"))
            .collect();
        members.sort_unstable();
        let mut in_sel = vec![false; n];
        for &p in &members {
            in_sel[p as usize] = true;
        }
        let mut ev = SelectionEvaluator {
            m,
            in_sel,
            members,
            top1: st.top1,
            top1_val: st.top1_val,
            top2: st.top2,
            top2_val: st.top2_val,
            owners: st.owners,
            second_owners: st.second_owners,
            arr: 0.0,
            counters: st.counters,
            stamp: vec![0; n_samples],
            epoch: 0,
            scratch: EvalScratch::default(),
        };
        // Classify samples: a dead best point forces a full top-two
        // rescan; a dead runner-up only rescans the runner-up.
        let mut full_rescan: Vec<u32> = Vec::new();
        let mut runner_rescan: Vec<u32> = Vec::new();
        for u in 0..n_samples {
            let t1 = ev.top1[u];
            if t1 == NONE {
                continue;
            }
            match remap[t1 as usize] {
                None => {
                    ev.counters.promotions += 1;
                    full_rescan.push(u as u32);
                }
                Some(nt1) => {
                    ev.top1[u] = nt1;
                    let t2 = ev.top2[u];
                    if t2 != NONE {
                        match remap[t2 as usize] {
                            None => runner_rescan.push(u as u32),
                            Some(nt2) => ev.top2[u] = nt2,
                        }
                    }
                }
            }
        }
        // Batched rescans over the new member set (pure reads, fanned out
        // like scan_runner_ups; per-sample outputs are independent).
        let (matrix, mem) = (ev.m, &ev.members);
        let mut full = vec![(NONE, 0.0, NONE, 0.0); full_rescan.len()];
        par::fill_adaptive_with(&mut full, mem.len(), Vec::new, |buf, i| {
            top_two(matrix, full_rescan[i] as usize, mem, NONE, buf)
        });
        for (&u32u, (b1, v1, b2, v2)) in full_rescan.iter().zip(full) {
            let u = u32u as usize;
            ev.counters.rescans += 1;
            ev.top1[u] = b1;
            ev.top1_val[u] = v1;
            ev.top2[u] = b2;
            ev.top2_val[u] = v2;
        }
        let top1 = &ev.top1;
        let mut runner = vec![(NONE, 0.0); runner_rescan.len()];
        par::fill_adaptive_with(&mut runner, mem.len(), Vec::new, |buf, i| {
            let u = runner_rescan[i] as usize;
            let (b2, v2, _, _) = top_two(matrix, u, mem, top1[u], buf);
            (b2, v2)
        });
        for (&u32u, (b2, v2)) in runner_rescan.iter().zip(runner) {
            let u = u32u as usize;
            ev.counters.rescans += 1;
            ev.top2[u] = b2;
            ev.top2_val[u] = v2;
        }
        ev.resync();
        ev
    }

    /// Restores the canonical derived state a fresh rebuild would hold:
    /// owner lists refilled in sample order and `arr` refolded from the
    /// tracked best values over the same fixed chunks as
    /// [`SelectionEvaluator::new_with`] — so after a resync, `arr` is
    /// bit-identical to a rebuild on the current selection. Used by
    /// [`SelectionEvaluator::resume_after_update`] and by
    /// `DynamicEngine`'s empty-batch fast path.
    pub(crate) fn resync(&mut self) {
        let n = self.m.n_points();
        let n_samples = self.m.n_samples();
        self.owners.iter_mut().for_each(Vec::clear);
        self.second_owners.iter_mut().for_each(Vec::clear);
        self.owners.resize_with(n, Vec::new);
        self.second_owners.resize_with(n, Vec::new);
        for u in 0..n_samples {
            if self.top1[u] != NONE {
                self.owners[self.top1[u] as usize].push(u as u32);
            }
            if self.top2[u] != NONE {
                self.second_owners[self.top2[u] as usize].push(u as u32);
            }
        }
        let (top1_val, w, best) = (&self.top1_val, self.m.weights(), self.m.best_values());
        // Identical fold shape to `rebuild`: lane-decomposed sum per fixed
        // chunk, chunk partials added in order.
        let parts = par::map_chunks(n_samples, par::CHUNK, |range| {
            let (w, best, top1_val) = (&w[range.clone()], &best[range.clone()], &top1_val[range]);
            kernels::lane_sum(w.len(), |j| w[j] * (1.0 - top1_val[j] / best[j]))
        });
        self.arr = 0.0;
        for part in parts {
            self.arr += part;
        }
    }

    /// Cached best and runner-up values of sample `u` within the current
    /// selection (0.0 when absent) — diagnostics for equivalence tests.
    #[inline]
    pub fn top_values(&self, u: usize) -> (f64, f64) {
        (self.top1_val[u], self.top2_val[u])
    }

    /// Full O(N·|S|) recomputation of the cached state, fanned out over
    /// fixed sample chunks (bit-identical for any thread count: chunk
    /// partials fold in chunk order, owner lists fill in sample order).
    fn rebuild(&mut self) {
        self.owners.iter_mut().for_each(Vec::clear);
        self.second_owners.iter_mut().for_each(Vec::clear);
        let m = self.m;
        let members = &self.members;
        let (w, best) = (m.weights(), m.best_values());
        let chunks = par::map_chunks(m.n_samples(), par::CHUNK, |range| {
            let mut buf = Vec::new();
            let tops: Vec<_> =
                range.clone().map(|u| top_two(m, u, members, NONE, &mut buf)).collect();
            // Same lane-decomposed fold shape as `resync`, so an
            // incrementally maintained arr resyncs to exactly this value.
            let (w, best) = (&w[range.clone()], &best[range]);
            let arr = kernels::lane_sum(tops.len(), |j| w[j] * (1.0 - tops[j].1 / best[j]));
            (tops, arr)
        });
        self.arr = 0.0;
        let mut u = 0usize;
        for (tops, arr_part) in chunks {
            self.arr += arr_part;
            for (b1, v1, b2, v2) in tops {
                self.top1[u] = b1;
                self.top1_val[u] = v1;
                self.top2[u] = b2;
                self.top2_val[u] = v2;
                if b1 != NONE {
                    self.owners[b1 as usize].push(u as u32);
                }
                if b2 != NONE {
                    self.second_owners[b2 as usize].push(u as u32);
                }
                u += 1;
            }
        }
    }

    /// Current `arr(S)`.
    #[inline]
    pub fn arr(&self) -> f64 {
        self.arr
    }

    /// Number of points in the underlying score source.
    #[inline]
    pub fn n_points(&self) -> usize {
        self.in_sel.len()
    }

    /// Number of utility samples in the underlying score source.
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.stamp.len()
    }

    /// Current selection size.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the selection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether point `p` is currently selected.
    #[inline]
    pub fn contains(&self, p: usize) -> bool {
        self.in_sel[p]
    }

    /// Current members, sorted ascending.
    pub fn selection(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.members.iter().map(|&p| p as usize).collect();
        v.sort_unstable();
        v
    }

    /// Writes the current members, sorted ascending, into `out` (cleared
    /// first) — the allocation-free sibling of [`Self::selection`] for
    /// hot loops that re-enumerate the selection every iteration.
    pub fn selection_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.members.iter().map(|&p| p as usize));
        out.sort_unstable();
    }

    /// Instrumentation counters accumulated so far.
    pub fn counters(&self) -> &EvalCounters {
        &self.counters
    }

    /// Resets instrumentation counters.
    pub fn reset_counters(&mut self) {
        self.counters = EvalCounters::default();
    }

    /// `arr(S − {p}) − arr(S)` — the increase in average regret ratio if
    /// `p` were removed. Touches only the samples whose best point is `p`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `p` is not selected.
    pub fn removal_delta(&mut self, p: usize) -> f64 {
        debug_assert!(self.in_sel[p], "removal_delta on unselected point {p}");
        self.counters.delta_evals += 1;
        self.epoch += 1;
        let (w, best) = (self.m.weights(), self.m.best_values());
        let mut delta = 0.0;
        for &u in &self.owners[p] {
            let u = u as usize;
            if self.top1[u] != p as u32 || self.stamp[u] == self.epoch {
                continue; // lazy-deleted or duplicate entry
            }
            self.stamp[u] = self.epoch;
            self.counters.delta_rows_touched += 1;
            delta += w[u] * (self.top1_val[u] - self.top2_val[u]) / best[u];
        }
        delta
    }

    /// `arr(S − {p})` — convenience wrapper around [`Self::removal_delta`].
    pub fn arr_without(&mut self, p: usize) -> f64 {
        self.arr + self.removal_delta(p)
    }

    /// `arr(S ∪ {p}) − arr(S)` (non-positive, by Lemma 1). Touches every
    /// sample once (`O(N)`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `p` is already selected.
    pub fn addition_delta(&self, p: usize) -> f64 {
        debug_assert!(!self.in_sel[p], "addition_delta on selected point {p}");
        self.addition_fold(p, &self.top1_val)
    }

    /// A lower bound on [`Self::addition_delta`]`(p)` that holds, bit for
    /// bit, after [`Self::remove`] of any one member: the same fold run
    /// against each sample's runner-up instead of its best.
    ///
    /// Removing a member leaves every sample's best at least its old
    /// runner-up. Subtraction, `max`, multiplication by a non-negative
    /// weight and division by a positive `best` are monotone in floating
    /// point, and so is a fixed-order lane sum in each of its terms, so
    /// this fold's result never exceeds the post-removal delta.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `p` is already selected.
    pub fn runner_up_addition_bound(&self, p: usize) -> f64 {
        debug_assert!(!self.in_sel[p], "runner_up_addition_bound on selected point {p}");
        self.addition_fold(p, &self.top2_val)
    }

    /// `Σ_u −w_u · max(s(u,p) − held_u, 0) / best_u`, the fold behind
    /// [`Self::addition_delta`] (`held` = each sample's best) and
    /// [`Self::runner_up_addition_bound`] (its runner-up).
    #[inline]
    fn addition_fold(&self, p: usize, held: &[f64]) -> f64 {
        let m = self.m;
        let n = held.len();
        let (w, best) = (&m.weights()[..n], &m.best_values()[..n]);
        // Branchless form of `if s > t { delta -= w * (s - t) / b }`: a
        // non-improving sample contributes `-(w * 0.0 / b) == -0.0`, which
        // is an identity on the non-negative lane accumulators, so the sum
        // is bit-identical to the branching loop. Every substrate folds the
        // identical lane shape band by band — a matrix lends its column, a
        // computing substrate scores each sample as the fold consumes it —
        // so the layout changes memory traffic and arithmetic overlap only.
        match m.linear_columns() {
            Some(linear) => fused_addition_delta(&linear, p, w, best, held),
            None => banded_addition_delta(m, p, w, best, held),
        }
    }

    /// Removes `p` from the selection, updating all cached state.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not selected.
    pub fn remove(&mut self, p: usize) {
        assert!(self.in_sel[p], "cannot remove unselected point {p}");
        self.in_sel[p] = false;
        let pos = self
            .members
            .iter()
            .position(|&q| q as usize == p)
            .expect("member list consistent with in_sel");
        self.members.swap_remove(pos);

        // Samples whose best point was p: promote the runner-up (serial,
        // cheap), then rescan all affected samples for a new runner-up in
        // one parallel batch, and finally apply the results in sample-list
        // order so arr updates fold deterministically. Every buffer below
        // is borrowed from the scratch arena (and returned at the end), so
        // steady-state removals allocate nothing.
        let mut promoted = std::mem::take(&mut self.scratch.promoted);
        promoted.clear();
        promoted.extend_from_slice(&self.owners[p]);
        self.owners[p].clear();
        let mut fresh = std::mem::take(&mut self.scratch.fresh);
        fresh.clear();
        let mut old_vals = std::mem::take(&mut self.scratch.old_vals);
        old_vals.clear();
        for &u32u in &promoted {
            let u = u32u as usize;
            if self.top1[u] != p as u32 {
                continue; // stale entry
            }
            self.counters.promotions += 1;
            old_vals.push(self.top1_val[u]);
            self.top1[u] = self.top2[u];
            self.top1_val[u] = self.top2_val[u];
            if self.top1[u] != NONE {
                self.owners[self.top1[u] as usize].push(u as u32);
            }
            fresh.push(u32u);
        }
        let mut pairs = std::mem::take(&mut self.scratch.pairs);
        self.scan_runner_ups(&fresh, &mut pairs);
        let (w, best) = (self.m.weights(), self.m.best_values());
        for ((&u32u, &old_val), &(b2, v2)) in fresh.iter().zip(old_vals.iter()).zip(pairs.iter()) {
            let u = u32u as usize;
            self.apply_runner_up(u, b2, v2);
            self.arr += w[u] * (old_val - self.top1_val[u]) / best[u];
        }

        // Samples whose runner-up was p: rescan for a new runner-up (the
        // promoted batch above already repaired its own samples). The whole
        // batch is filtered before any repair runs, so lazy-deletion
        // duplicates of one sample all pass the `top2 == p` check — the
        // epoch stamp deduplicates them.
        promoted.clear();
        promoted.extend_from_slice(&self.second_owners[p]);
        self.second_owners[p].clear();
        let mut stale = std::mem::take(&mut self.scratch.stale);
        stale.clear();
        self.epoch += 1;
        for &u32u in &promoted {
            let u = u32u as usize;
            if self.top2[u] != p as u32 || self.stamp[u] == self.epoch {
                continue;
            }
            self.stamp[u] = self.epoch;
            stale.push(u32u);
        }
        self.scan_runner_ups(&stale, &mut pairs);
        for (&u32u, &(b2, v2)) in stale.iter().zip(pairs.iter()) {
            self.apply_runner_up(u32u as usize, b2, v2);
        }
        self.scratch = EvalScratch { promoted, fresh, old_vals, stale, pairs };
    }

    /// Computes, for each listed sample, its new runner-up within the
    /// current members (excluding the sample's best point), writing the
    /// results into `out` (cleared and resized — callers pass a scratch
    /// buffer so the hot loop allocates nothing once capacities warm up).
    /// Pure reads; fans out when the batch is large enough to pay for it.
    /// Per-sample outputs are independent, so chunking never changes
    /// results.
    ///
    /// When the selection is dense (at least a quarter of the points, the
    /// GREEDY-SHRINK regime) and rows are addressable, each rescan streams
    /// the whole sample row in index order instead of gathering through
    /// the member list: removals `swap_remove` the list into a random
    /// permutation, so the gather is a cache miss per member, while the
    /// dense scan is a sequential prefetchable read that skips
    /// non-members. Returned *values* are bit-identical either way (order
    /// statistics of the same multiset); on bit-equal ties the recorded
    /// runner-up *index* may differ between the two scans, which no
    /// consumer observes — deltas and arr use values only, and the
    /// density cutoff depends only on `(|S|, n)`, so every thread count
    /// and every backing takes the same branch.
    fn scan_runner_ups(&self, samples: &[u32], out: &mut Vec<(u32, f64)>) {
        let m = self.m;
        let members = &self.members;
        let top1 = &self.top1;
        let in_sel = &self.in_sel;
        let dense = members.len() * 4 >= in_sel.len();
        out.clear();
        out.resize(samples.len(), (NONE, 0.0));
        par::fill_adaptive_with(out, members.len(), Vec::new, |buf, i| {
            let u = samples[i] as usize;
            let (b2, v2, _, _) = if dense {
                kernels::top_two_dense(m.row_scores(u, buf), in_sel, top1[u])
            } else {
                top_two(m, u, members, top1[u], buf)
            };
            (b2, v2)
        });
    }

    /// Installs a freshly scanned runner-up for sample `u`.
    fn apply_runner_up(&mut self, u: usize, b2: u32, v2: f64) {
        self.counters.rescans += 1;
        self.top2[u] = b2;
        self.top2_val[u] = v2;
        if b2 != NONE {
            self.second_owners[b2 as usize].push(u as u32);
        }
    }

    /// Adds `p` to the selection, updating all cached state in `O(N)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is already selected.
    pub fn add(&mut self, p: usize) {
        assert!(!self.in_sel[p], "cannot add selected point {p}");
        self.in_sel[p] = true;
        self.members.push(p as u32);
        let m = self.m;
        let (w, best) = (m.weights(), m.best_values());
        let n = self.top1.len();
        let mut buf = [0.0f64; kernels::BAND];
        for b0 in (0..n).step_by(kernels::BAND) {
            let b1 = (b0 + kernels::BAND).min(n);
            // Point p's scores band by band, as addition_delta reads them.
            let col = m.column_scores(p, b0..b1, &mut buf);
            for (u, &s) in (b0..b1).zip(col) {
                self.add_sample(u, p, s, w[u], best[u]);
            }
        }
    }

    /// [`SelectionEvaluator::add`]'s per-sample step: point `p` scoring
    /// `s` on sample `u` becomes its best or runner-up when it beats them.
    #[inline]
    fn add_sample(&mut self, u: usize, p: usize, s: f64, w: f64, best: f64) {
        if self.top1[u] == NONE || s > self.top1_val[u] {
            self.counters.promotions += 1;
            // Old best becomes the runner-up.
            if self.top1[u] != NONE {
                self.second_owners[self.top1[u] as usize].push(u as u32);
            }
            self.top2[u] = self.top1[u];
            self.top2_val[u] = self.top1_val[u];
            let old_val = self.top1_val[u];
            self.top1[u] = p as u32;
            self.top1_val[u] = s;
            self.owners[p].push(u as u32);
            self.arr -= w * (s - old_val) / best;
        } else if self.top2[u] == NONE || s > self.top2_val[u] {
            self.top2[u] = p as u32;
            self.top2_val[u] = s;
            self.second_owners[p].push(u as u32);
        }
    }

    /// Debug helper: recomputes `arr(S)` from scratch and checks it against
    /// the incrementally maintained value. Used by tests.
    pub fn verify_consistency(&self) -> bool {
        let sel = self.selection();
        let fresh = crate::regret::arr_unchecked(self.m, &sel);
        (fresh - self.arr).abs() < 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regret;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn matrix() -> ScoreMatrix {
        ScoreMatrix::from_rows(
            vec![
                vec![0.9, 0.7, 0.2, 0.4],
                vec![0.6, 1.0, 0.5, 0.2],
                vec![0.2, 0.6, 0.3, 1.0],
                vec![0.1, 0.2, 1.0, 0.9],
            ],
            None,
        )
        .unwrap()
    }

    #[test]
    fn full_selection_is_zero_regret() {
        let m = matrix();
        let ev = SelectionEvaluator::new_full(&m);
        assert!(ev.arr().abs() < 1e-12);
        assert_eq!(ev.len(), 4);
        assert!(ev.contains(2));
    }

    #[test]
    fn removal_delta_matches_direct_computation() {
        let m = matrix();
        let mut ev = SelectionEvaluator::new_full(&m);
        for p in 0..4 {
            let expected =
                regret::arr_unchecked(&m, &(0..4).filter(|&q| q != p).collect::<Vec<_>>());
            let got = ev.arr() + ev.removal_delta(p);
            assert!((got - expected).abs() < 1e-12, "point {p}: {got} vs {expected}");
        }
    }

    #[test]
    fn remove_updates_arr_incrementally() {
        let m = matrix();
        let mut ev = SelectionEvaluator::new_full(&m);
        ev.remove(1);
        assert!(ev.verify_consistency());
        ev.remove(3);
        assert!(ev.verify_consistency());
        assert_eq!(ev.selection(), vec![0, 2]);
        let direct = regret::arr_unchecked(&m, &[0, 2]);
        assert!((ev.arr() - direct).abs() < 1e-12);
    }

    #[test]
    fn remove_down_to_empty() {
        let m = matrix();
        let mut ev = SelectionEvaluator::new_full(&m);
        for p in 0..4 {
            ev.remove(p);
        }
        assert!(ev.is_empty());
        assert!((ev.arr() - 1.0).abs() < 1e-12, "empty selection has arr = 1");
    }

    #[test]
    fn add_matches_direct_computation() {
        let m = matrix();
        let mut ev = SelectionEvaluator::new_with(&m, &[0]);
        assert!(ev.verify_consistency());
        let delta = ev.addition_delta(3);
        ev.add(3);
        assert!(ev.verify_consistency());
        let direct = regret::arr_unchecked(&m, &[0, 3]);
        assert!((ev.arr() - direct).abs() < 1e-12);
        let direct0 = regret::arr_unchecked(&m, &[0]);
        assert!((delta - (direct - direct0)).abs() < 1e-12);
    }

    #[test]
    fn interleaved_adds_and_removes_stay_consistent() {
        let m = matrix();
        let mut ev = SelectionEvaluator::new_with(&m, &[0, 1]);
        ev.add(2);
        ev.remove(0);
        ev.add(3);
        ev.remove(2);
        assert!(ev.verify_consistency());
        assert_eq!(ev.selection(), vec![1, 3]);
    }

    #[test]
    fn counters_accumulate() {
        let m = matrix();
        let mut ev = SelectionEvaluator::new_full(&m);
        ev.removal_delta(0);
        ev.remove(0);
        let c = ev.counters().clone();
        assert!(c.delta_evals == 1);
        assert!(c.promotions >= 1);
        ev.reset_counters();
        assert_eq!(ev.counters(), &EvalCounters::default());
    }

    #[test]
    fn duplicate_second_owner_entries_rescan_once() {
        // Drive one sample into second_owners[2] twice via lazy deletion:
        // rebuild pushes it, then the rescan after remove(0) pushes again.
        let m = ScoreMatrix::from_rows(vec![vec![0.9, 0.8, 0.7, 0.6]], None).unwrap();
        let mut ev = SelectionEvaluator::new_with(&m, &[1, 2]);
        ev.add(0);
        ev.add(3);
        ev.remove(0);
        ev.reset_counters();
        ev.remove(2);
        assert!(ev.verify_consistency());
        assert_eq!(ev.counters().rescans, 1, "duplicate entries must dedupe to one rescan");
    }

    #[test]
    fn state_round_trip_preserves_everything() {
        let m = matrix();
        let mut ev = SelectionEvaluator::new_with(&m, &[0, 2, 3]);
        ev.remove(2);
        let arr = ev.arr();
        let sel = ev.selection();
        let st = ev.into_state();
        assert_eq!(st.selection(), sel);
        assert_eq!(st.arr().to_bits(), arr.to_bits());
        assert_eq!(st.len(), 2);
        assert!(!st.is_empty());
        let mut ev = SelectionEvaluator::from_state(&m, st);
        assert_eq!(ev.arr().to_bits(), arr.to_bits());
        ev.add(1);
        assert!(ev.verify_consistency());
    }

    /// Resume after a matrix update must reproduce `new_with` on the
    /// surviving selection bit-for-bit (arr and tracked values).
    fn assert_resume_matches_rebuild(m: &ScoreMatrix, resumed: &SelectionEvaluator<ScoreMatrix>) {
        let fresh = SelectionEvaluator::new_with(m, &resumed.selection());
        assert_eq!(resumed.arr().to_bits(), fresh.arr().to_bits(), "arr diverged from rebuild");
        for u in 0..m.n_samples() {
            let (v1, v2) = resumed.top_values(u);
            let (f1, f2) = fresh.top_values(u);
            assert_eq!(v1.to_bits(), f1.to_bits(), "top1 value of sample {u}");
            assert_eq!(v2.to_bits(), f2.to_bits(), "top2 value of sample {u}");
        }
    }

    #[test]
    fn resume_after_deletion_rescans_only_affected() {
        let m = matrix();
        let ev = SelectionEvaluator::new_with(&m, &[0, 1, 3]);
        let st = ev.into_state();
        let mut m2 = m.clone();
        let remap = m2.delete_points(&[1]).unwrap();
        let resumed = SelectionEvaluator::resume_after_update(&m2, st, &remap);
        // Selection {0, 3} remapped to {0, 1}: swap-remove moved point 3
        // into the freed slot.
        assert_eq!(resumed.selection(), vec![0, 1]);
        assert!(resumed.verify_consistency());
        assert_resume_matches_rebuild(&m2, &resumed);
    }

    #[test]
    fn resume_after_insertion_keeps_selection_and_refolds_arr() {
        let m = matrix();
        let ev = SelectionEvaluator::new_with(&m, &[1, 2]);
        let st = ev.into_state();
        let mut m2 = m.clone();
        // The new point beats every sample's old best, shifting best_value.
        m2.insert_points(&[vec![1.5, 1.5, 1.5, 1.5]]).unwrap();
        let remap: Vec<Option<u32>> = (0..4).map(|p| Some(p as u32)).collect();
        let mut resumed = SelectionEvaluator::resume_after_update(&m2, st, &remap);
        assert_eq!(resumed.selection(), vec![1, 2]);
        assert!(resumed.verify_consistency());
        assert_resume_matches_rebuild(&m2, &resumed);
        // The appended point is addressable immediately.
        let d = resumed.addition_delta(4);
        resumed.add(4);
        assert!(resumed.verify_consistency());
        assert!(d < 0.0);
    }

    #[test]
    fn resume_handles_emptied_selection_and_empty_previous() {
        let m = matrix();
        // All members deleted -> empty selection, arr = 1.
        let st = SelectionEvaluator::new_with(&m, &[1]).into_state();
        let mut m2 = m.clone();
        let remap = m2.delete_points(&[1]).unwrap();
        let resumed = SelectionEvaluator::resume_after_update(&m2, st, &remap);
        assert!(resumed.is_empty());
        assert!((resumed.arr() - 1.0).abs() < 1e-12);
        assert_resume_matches_rebuild(&m2, &resumed);
        // Previously empty selection stays empty.
        let st = SelectionEvaluator::new_with(&m, &[]).into_state();
        let mut m3 = m.clone();
        let remap = m3.delete_points(&[0]).unwrap();
        let resumed = SelectionEvaluator::resume_after_update(&m3, st, &remap);
        assert!(resumed.is_empty());
        assert!((resumed.arr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resume_fuzz_matches_rebuild_and_stays_mutable() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..20 {
            let n_points = rng.gen_range(4..14);
            let n_samples = rng.gen_range(3..25);
            let rows: Vec<Vec<f64>> = (0..n_samples)
                .map(|_| (0..n_points).map(|_| rng.gen_range(0.01..1.0)).collect())
                .collect();
            let mut m = ScoreMatrix::from_rows(rows, None).unwrap();
            let sel: Vec<usize> = (0..n_points).filter(|_| rng.gen_bool(0.4)).collect();
            let mut st = SelectionEvaluator::new_with(&m, &sel).into_state();
            for _step in 0..6 {
                let n = m.n_points();
                let remap = if rng.gen_bool(0.5) && n > 2 {
                    let d = rng.gen_range(0..n);
                    m.delete_points(&[d]).unwrap()
                } else {
                    let cols: Vec<Vec<f64>> = (0..rng.gen_range(1..3))
                        .map(|_| (0..n_samples).map(|_| rng.gen_range(0.01..1.0)).collect())
                        .collect();
                    m.insert_points(&cols).unwrap();
                    (0..n).map(|p| Some(p as u32)).collect()
                };
                let mut resumed = SelectionEvaluator::resume_after_update(&m, st, &remap);
                assert!(resumed.verify_consistency(), "trial {trial}: resume drifted");
                assert_resume_matches_rebuild(&m, &resumed);
                // The resumed evaluator must remain fully operational.
                let outside: Vec<usize> =
                    (0..m.n_points()).filter(|&p| !resumed.contains(p)).collect();
                if let Some(&p) = outside.first() {
                    resumed.add(p);
                    assert!(resumed.verify_consistency());
                }
                st = resumed.into_state();
            }
        }
    }

    #[test]
    fn randomized_mutation_fuzz() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let n_points = rng.gen_range(2..12);
            let n_samples = rng.gen_range(1..20);
            let rows: Vec<Vec<f64>> = (0..n_samples)
                .map(|_| (0..n_points).map(|_| rng.gen_range(0.01..1.0)).collect())
                .collect();
            let m = ScoreMatrix::from_rows(rows, None).unwrap();
            let mut ev = SelectionEvaluator::new_full(&m);
            for _step in 0..40 {
                let sel = ev.selection();
                if !sel.is_empty() && (ev.len() == n_points || rng.gen_bool(0.6)) {
                    let p = sel[rng.gen_range(0..sel.len())];
                    let predicted = ev.arr() + ev.removal_delta(p);
                    ev.remove(p);
                    assert!(
                        (ev.arr() - predicted).abs() < 1e-9,
                        "trial {trial}: removal delta mismatch"
                    );
                } else {
                    let outside: Vec<usize> = (0..n_points).filter(|&p| !ev.contains(p)).collect();
                    if outside.is_empty() {
                        continue;
                    }
                    let p = outside[rng.gen_range(0..outside.len())];
                    let predicted = ev.arr() + ev.addition_delta(p);
                    ev.add(p);
                    assert!(
                        (ev.arr() - predicted).abs() < 1e-9,
                        "trial {trial}: addition delta mismatch"
                    );
                }
                assert!(ev.verify_consistency(), "trial {trial}: cache drifted");
            }
        }
    }
}
