//! The library replica of the point-update path: incremental inserts
//! and deletes on a live score matrix and its selection.
//!
//! A [`DynamicEngine`] holds the current [`ScoreMatrix`], the current
//! selection, and the evaluator caches, and applies an [`UpdateBatch`] by
//!
//! 1. editing the matrix ([`ScoreMatrix::delete_points`] /
//!    [`ScoreMatrix::insert_points`], each a re-lay of both layouts at
//!    the new exact size — bit-identical to a from-scratch build of the
//!    updated database),
//! 2. resuming the evaluator incrementally
//!    ([`SelectionEvaluator::resume_after_update`] — only samples whose
//!    cached best points died are rescanned), and
//! 3. handing the resumed evaluator to a **repair policy** that
//!    warm-starts from the surviving selection instead of re-running a
//!    greedy from scratch (`fam-algos::warm_repair` is the standard
//!    policy; the engine stays policy-agnostic so `fam-core` does not
//!    depend on the algorithm crate).
//!
//! No CLI or server path runs this engine. `fam replay` and `fam serve`
//! both apply a batch to a `fam_serve::DatasetService` and re-harvest
//! cold, so they give one answer per `(algo, k, generation)`; warm
//! repair does not (`BENCH_dynamic.json` records its `arr` 17–19% above
//! the cold answer). The engine, [`UpdateBatch`], [`WarmStart`],
//! [`RepairOutcome`] and [`ApplyReport`] stay because perfbench's traced
//! serve replay compiles against them, as do
//! `crates/bench/benches/dynamic.rs` and
//! `crates/algos/tests/dynamic_equivalence.rs`. They go together with
//! that replica, once perfbench's traced mode records production spans
//! instead of replaying layers.
//!
//! The incremental path is pinned against full recomputation by
//! `crates/algos/tests/dynamic_equivalence.rs` and A/B-benchmarked across
//! churn rates by `crates/bench/benches/dynamic.rs` (`BENCH_dynamic.json`).
//! How the point edits re-lay the matrix and keep the bit-identity
//! contract is documented in `docs/PERFORMANCE.md`.

use std::ops::Range;

use crate::error::{FamError, Result};
use crate::evaluator::{EvaluatorState, SelectionEvaluator};
use crate::scores::ScoreMatrix;

/// One batch of database mutations, applied atomically by
/// [`DynamicEngine::apply_with`].
///
/// Deletions are indices into the **pre-batch** point universe and are
/// applied first; insertions are score columns (`n_samples` entries each,
/// sample order) appended after compaction, so they take the highest
/// indices of the post-batch universe. A batch may not delete every
/// pre-existing point, even when it also inserts.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// Score columns of the points to insert (one `Vec` of `n_samples`
    /// scores per new point).
    pub insert: Vec<Vec<f64>>,
    /// Pre-batch indices of the points to delete (any order, no
    /// duplicates).
    pub delete: Vec<usize>,
}

impl UpdateBatch {
    /// True when the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }
}

/// What a repair policy receives alongside the resumed evaluator.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Post-batch indices of the points this batch inserted.
    pub inserted: Range<usize>,
    /// Target selection size. [`DynamicEngine::apply_with`] rejects any
    /// batch that would leave fewer than `k` points, so this never
    /// exceeds the post-batch point count.
    pub k: usize,
}

/// What a repair policy reports back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Points added to the selection (inserted candidates and greedy
    /// growth).
    pub added: usize,
    /// Points removed from the selection.
    pub removed: usize,
    /// `arr` evaluations spent repairing.
    pub evaluations: u64,
}

/// Report of one applied [`UpdateBatch`].
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Points deleted by the batch.
    pub deleted: usize,
    /// Points inserted by the batch.
    pub inserted: usize,
    /// Post-batch indices of the inserted points.
    pub inserted_range: Range<usize>,
    /// Post-batch point count.
    pub n_points: usize,
    /// Index remap of the pre-batch points: `remap[old] == Some(new)`
    /// for survivors (swap-remove order, see
    /// [`ScoreMatrix::delete_points`]), `None` for deleted points.
    /// Callers mirroring the point universe elsewhere (e.g. a serving
    /// layer keeping raw coordinates alongside the matrix) apply this
    /// permutation and then append the inserted points in batch order.
    pub remap: Vec<Option<u32>>,
    /// Selection surviving the batch *before* repair (post-batch
    /// indices) — the warm-start seed.
    pub kept: Vec<usize>,
    /// Selection after repair, sorted ascending.
    pub selection: Vec<usize>,
    /// `arr` of the repaired selection.
    pub arr: f64,
    /// Samples whose cached best or runner-up point died and was
    /// rescanned while resuming the evaluator.
    pub resumed_rescans: u64,
    /// What the repair policy did.
    pub repair: RepairOutcome,
}

/// A live score matrix plus its maintained selection, surviving inserts
/// and deletes without recompute-from-scratch.
///
/// # Examples
///
/// ```
/// use fam_core::{DynamicEngine, ScoreMatrix, UpdateBatch};
///
/// let m = ScoreMatrix::from_rows(vec![
///     vec![1.0, 0.8, 0.1],
///     vec![0.2, 0.9, 1.0],
/// ], None).unwrap();
/// let mut engine = DynamicEngine::new(m, 2, &[0, 2]).unwrap();
/// let batch = UpdateBatch { insert: vec![vec![0.5, 0.95]], delete: vec![0] };
/// // A trivial repair policy: keep whatever survived, then greedily add
/// // the inserted point if the selection is short (real callers use
/// // `fam_algos::warm_repair`).
/// let report = engine.apply_with(&batch, |ev, ws| {
///     let mut added = 0;
///     for p in ws.inserted.clone() {
///         if ev.len() < ws.k && !ev.contains(p) {
///             ev.add(p);
///             added += 1;
///         }
///     }
///     Ok(fam_core::RepairOutcome { added, removed: 0, evaluations: 0 })
/// }).unwrap();
/// assert_eq!(report.n_points, 3);
/// assert_eq!(engine.selection().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicEngine {
    matrix: ScoreMatrix,
    state: EvaluatorState,
    k: usize,
    batches_applied: u64,
}

impl DynamicEngine {
    /// Creates an engine from an initial matrix and selection.
    ///
    /// # Errors
    ///
    /// Returns an error when `k` is invalid for the matrix or the initial
    /// selection is out of bounds, duplicated, or larger than `k`.
    pub fn new(matrix: ScoreMatrix, k: usize, initial: &[usize]) -> Result<Self> {
        if k == 0 || k > matrix.n_points() {
            return Err(FamError::InvalidK { k, n: matrix.n_points() });
        }
        crate::selection::validate_indices(initial, matrix.n_points(), "initial")?;
        if initial.len() > k {
            return Err(FamError::InvalidParameter {
                name: "initial",
                message: format!("selection of {} points exceeds k = {k}", initial.len()),
            });
        }
        let state = SelectionEvaluator::new_with(&matrix, initial).into_state();
        Ok(DynamicEngine { matrix, state, k, batches_applied: 0 })
    }

    /// The current score matrix.
    #[inline]
    pub fn matrix(&self) -> &ScoreMatrix {
        &self.matrix
    }

    /// The configured output size.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current selection, sorted ascending.
    pub fn selection(&self) -> Vec<usize> {
        self.state.selection()
    }

    /// `arr` of the current selection.
    #[inline]
    pub fn arr(&self) -> f64 {
        self.state.arr()
    }

    /// Number of batches applied so far.
    #[inline]
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Applies a batch of updates and repairs the selection through the
    /// given policy.
    ///
    /// The repair policy receives the resumed evaluator (selection = the
    /// surviving members) plus a [`WarmStart`] naming the inserted index
    /// range and the target size; it must leave the evaluator holding the
    /// repaired selection. If the policy errors, the matrix keeps the
    /// applied batch (it counts in [`DynamicEngine::batches_applied`])
    /// and the selection resets to the surviving members, discarding any
    /// partial work the policy did before failing. An empty batch skips
    /// the matrix patch and evaluator resume entirely and goes straight
    /// to the policy.
    ///
    /// # Errors
    ///
    /// Returns batch-validation errors without mutating anything —
    /// including [`FamError::InvalidK`] when the batch would leave fewer
    /// than `k` points — or the repair policy's error.
    pub fn apply_with<R>(&mut self, batch: &UpdateBatch, repair: R) -> Result<ApplyReport>
    where
        R: for<'e> FnOnce(
            &mut SelectionEvaluator<'e, ScoreMatrix>,
            &WarmStart,
        ) -> Result<RepairOutcome>,
    {
        // Chaos hook: fires before any validation or mutation, so an
        // injected failure is indistinguishable from a rejected batch.
        crate::failpoints::fail_point("dynamic.apply")?;
        let Self { matrix, state, k, batches_applied } = self;
        // Validate the insertions up front; deletions are validated by
        // `delete_points`, which runs first and leaves the matrix
        // untouched on any error — so a failed (or universe-wiping)
        // deletion can never follow an applied insertion, and vice versa.
        matrix.validate_new_points(&batch.insert)?;
        // A batch may not shrink the database below the configured output
        // size: a serving layer maintaining a k-sized selection must fail
        // the update loudly instead of silently degrading to fewer points.
        // (Duplicate delete indices would undercount here, but those are
        // rejected by `delete_points` before anything mutates.)
        let n_post = (matrix.n_points() + batch.insert.len()).checked_sub(batch.delete.len());
        if n_post.is_none_or(|n| n < *k) {
            return Err(FamError::InvalidK { k: *k, n: n_post.unwrap_or(0) });
        }
        let (mut ev, inserted, resumed_rescans, remap) = if batch.is_empty() {
            // Nothing changed: reattach the state directly — no remap, no
            // sample classification, no rescans. The resync keeps `arr`
            // and the owner lists bit-identical to a fresh rebuild, which
            // the dynamic-equivalence contract pins.
            let st = std::mem::replace(state, EvaluatorState::placeholder());
            let n = matrix.n_points();
            let mut ev = SelectionEvaluator::from_state(&*matrix, st);
            ev.resync();
            let identity = (0..n).map(|p| Some(p as u32)).collect();
            (ev, n..n, 0, identity)
        } else {
            let remap = matrix.delete_points(&batch.delete)?;
            let first_new = matrix.n_points();
            // Columns were validated up front; skip the second scan.
            matrix.insert_points_prevalidated(&batch.insert);
            let inserted = first_new..matrix.n_points();
            let st = std::mem::replace(state, EvaluatorState::placeholder());
            let rescans_before = st.counters().rescans;
            let ev = SelectionEvaluator::resume_after_update(&*matrix, st, &remap);
            let resumed_rescans = ev.counters().rescans - rescans_before;
            (ev, inserted, resumed_rescans, remap)
        };
        let kept = ev.selection();
        let ws = WarmStart { inserted: inserted.clone(), k: *k };
        *batches_applied += 1;
        // From here until the disarm below, `state` holds a placeholder.
        // The guard honors the documented contract — fall back to exactly
        // the surviving members, not whatever the policy left behind —
        // whether the policy returns `Err` or panics out of this frame.
        let mut guard = SurvivorGuard { state, matrix: &*matrix, kept: &kept, armed: true };
        let repair = repair(&mut ev, &ws)?;
        guard.armed = false;
        let selection = ev.selection();
        let arr = ev.arr();
        *guard.state = ev.into_state();
        drop(guard);
        Ok(ApplyReport {
            deleted: batch.delete.len(),
            inserted: batch.insert.len(),
            inserted_range: inserted,
            n_points: matrix.n_points(),
            remap,
            kept,
            selection,
            arr,
            resumed_rescans,
            repair,
        })
    }
}

/// Restores a `DynamicEngine`'s evaluator state to the batch's surviving
/// members when the repair policy fails — by `Err` or by panic — so the
/// engine never outlives a repair holding the placeholder state.
struct SurvivorGuard<'a> {
    state: &'a mut EvaluatorState,
    matrix: &'a ScoreMatrix,
    kept: &'a [usize],
    armed: bool,
}

impl Drop for SurvivorGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            *self.state = SelectionEvaluator::new_with(self.matrix, self.kept).into_state();
        }
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

    /// Keep-the-survivors policy used where repair behavior is not under
    /// test.
    fn no_repair(
        _ev: &mut SelectionEvaluator<'_, ScoreMatrix>,
        _ws: &WarmStart,
    ) -> Result<RepairOutcome> {
        Ok(RepairOutcome::default())
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            DynamicEngine::new(matrix(), 0, &[]),
            Err(FamError::InvalidK { k: 0, n: 4 })
        ));
        assert!(matches!(
            DynamicEngine::new(matrix(), 5, &[]),
            Err(FamError::InvalidK { k: 5, n: 4 })
        ));
        assert!(DynamicEngine::new(matrix(), 2, &[9]).is_err());
        assert!(DynamicEngine::new(matrix(), 2, &[1, 1]).is_err());
        assert!(DynamicEngine::new(matrix(), 1, &[0, 1]).is_err());
        let e = DynamicEngine::new(matrix(), 2, &[3, 1]).unwrap();
        assert_eq!(e.selection(), vec![1, 3]);
        assert_eq!(e.k(), 2);
        assert_eq!(e.batches_applied(), 0);
    }

    #[test]
    fn empty_batch_is_a_cheap_noop() {
        let mut e = DynamicEngine::new(matrix(), 2, &[1, 3]).unwrap();
        let arr = e.arr();
        let report = e.apply_with(&UpdateBatch::default(), no_repair).unwrap();
        assert!(UpdateBatch::default().is_empty());
        assert_eq!(report.deleted, 0);
        assert_eq!(report.inserted, 0);
        assert_eq!(report.kept, vec![1, 3]);
        assert_eq!(report.resumed_rescans, 0);
        assert_eq!(e.arr().to_bits(), arr.to_bits());
        assert_eq!(e.batches_applied(), 1);
    }

    #[test]
    fn batch_validation_is_atomic() {
        let mut e = DynamicEngine::new(matrix(), 2, &[1, 3]).unwrap();
        // Bad insert next to a valid delete: nothing may change.
        let bad = UpdateBatch { insert: vec![vec![1.0]], delete: vec![0] };
        assert!(e.apply_with(&bad, no_repair).is_err());
        assert_eq!(e.matrix().n_points(), 4);
        assert_eq!(e.selection(), vec![1, 3]);
        // Deleting the whole pre-existing universe is rejected even with
        // enough inserts in the same batch to stay at size.
        let wipe =
            UpdateBatch { insert: vec![vec![0.5; 4], vec![0.25; 4]], delete: vec![0, 1, 2, 3] };
        assert!(matches!(e.apply_with(&wipe, no_repair), Err(FamError::EmptyDataset)));
        assert_eq!(e.matrix().n_points(), 4);
        // Out-of-bounds delete.
        let oob = UpdateBatch { insert: vec![], delete: vec![7] };
        assert!(e.apply_with(&oob, no_repair).is_err());
        assert_eq!(e.batches_applied(), 0);
    }

    #[test]
    fn apply_patches_matrix_and_selection() {
        let mut e = DynamicEngine::new(matrix(), 2, &[1, 3]).unwrap();
        let batch = UpdateBatch { insert: vec![vec![0.3, 0.2, 0.9, 0.8]], delete: vec![1] };
        let report = e.apply_with(&batch, no_repair).unwrap();
        // Selection member 1 died; 3 swap-moved into slot 1; insert
        // appended at 3.
        assert_eq!(report.kept, vec![1]);
        assert_eq!(report.inserted_range, 3..4);
        assert_eq!(report.n_points, 4);
        assert_eq!(e.selection(), vec![1]);
        let direct = regret::arr_unchecked(e.matrix(), &[1]);
        assert!((e.arr() - direct).abs() < 1e-9);
        assert_eq!(e.batches_applied(), 1);
    }

    #[test]
    fn repair_error_keeps_survivors() {
        let mut e = DynamicEngine::new(matrix(), 2, &[1, 3]).unwrap();
        let batch = UpdateBatch { insert: vec![], delete: vec![3] };
        let r = e.apply_with(&batch, |ev, _ws| {
            // Partial work before failing must be discarded.
            ev.add(0);
            Err(FamError::InvalidParameter { name: "policy", message: "boom".into() })
        });
        assert!(r.is_err());
        // The batch stayed applied (and counts); the selection fell back
        // to exactly the survivors, not the policy's partial state.
        assert_eq!(e.matrix().n_points(), 3);
        assert_eq!(e.selection(), vec![1]);
        assert_eq!(e.batches_applied(), 1);
        let direct = regret::arr_unchecked(e.matrix(), &[1]);
        assert!((e.arr() - direct).abs() < 1e-9);
        // The engine remains usable.
        let report = e.apply_with(&UpdateBatch::default(), no_repair).unwrap();
        assert_eq!(report.kept, vec![1]);
        assert_eq!(e.batches_applied(), 2);
    }

    #[test]
    fn repair_panic_restores_survivors() {
        let mut e = DynamicEngine::new(matrix(), 2, &[1, 3]).unwrap();
        let batch = UpdateBatch { insert: vec![], delete: vec![3] };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = e.apply_with(&batch, |ev, _ws| {
                // Partial work, then a policy bug.
                ev.add(0);
                panic!("policy bug");
            });
        }));
        assert!(unwound.is_err());
        // Same contract as the Err path: survivors, not the partial state
        // (and never the internal placeholder).
        assert_eq!(e.selection(), vec![1]);
        let direct = regret::arr_unchecked(e.matrix(), &[1]);
        assert!((e.arr() - direct).abs() < 1e-9);
        let report = e.apply_with(&UpdateBatch::default(), no_repair).unwrap();
        assert_eq!(report.kept, vec![1]);
    }

    #[test]
    fn repair_policy_reaches_inserted_points() {
        let mut e = DynamicEngine::new(matrix(), 2, &[0]).unwrap();
        let batch = UpdateBatch { insert: vec![vec![0.1, 0.2, 0.9, 1.0]], delete: vec![] };
        let report = e
            .apply_with(&batch, |ev, ws| {
                let mut added = 0;
                for p in ws.inserted.clone() {
                    if ev.len() < ws.k {
                        ev.add(p);
                        added += 1;
                    }
                }
                Ok(RepairOutcome { added, removed: 0, evaluations: 0 })
            })
            .unwrap();
        assert_eq!(report.repair.added, 1);
        assert_eq!(report.selection, vec![0, 4]);
        assert_eq!(e.selection(), vec![0, 4]);
        let direct = regret::arr_unchecked(e.matrix(), &[0, 4]);
        assert!((e.arr() - direct).abs() < 1e-9);
    }

    #[test]
    fn batch_below_k_errors_without_mutating() {
        // 4 points, k = 2: any batch landing under 2 points must be
        // rejected up front — never applied, never panicking.
        let mut e = DynamicEngine::new(matrix(), 2, &[1, 3]).unwrap();
        let under = UpdateBatch { insert: vec![], delete: vec![0, 1, 2] };
        assert!(matches!(e.apply_with(&under, no_repair), Err(FamError::InvalidK { k: 2, n: 1 })));
        // Inserts count toward the post-batch size.
        let balanced = UpdateBatch { insert: vec![vec![0.5; 4]], delete: vec![0, 1, 2] };
        assert!(e.apply_with(&balanced, no_repair).is_ok());
        assert_eq!(e.matrix().n_points(), 2);
        // More deletes than points (also a duplicate-free impossibility):
        // the guard's checked_sub path, not an underflow panic.
        let mut e = DynamicEngine::new(matrix(), 2, &[1, 3]).unwrap();
        let overdrawn = UpdateBatch { insert: vec![], delete: vec![0, 1, 2, 3, 4] };
        assert!(matches!(
            e.apply_with(&overdrawn, no_repair),
            Err(FamError::InvalidK { k: 2, n: 0 })
        ));
        assert_eq!(e.matrix().n_points(), 4);
        assert_eq!(e.selection(), vec![1, 3]);
        assert_eq!(e.batches_applied(), 0);
    }

    #[test]
    fn deleting_the_entire_selection_regrows_from_survivors() {
        // Every selected point dies; warm repair must regrow from an
        // empty seed exactly like ADD-GREEDY from scratch.
        let mut e = DynamicEngine::new(matrix(), 2, &[1, 3]).unwrap();
        let batch = UpdateBatch { insert: vec![], delete: vec![1, 3] };
        let report = e
            .apply_with(&batch, |ev, ws| {
                assert!(ev.is_empty());
                let mut added = 0;
                while ev.len() < ws.k {
                    let p = (0..ev.n_points()).find(|&p| !ev.contains(p)).unwrap();
                    ev.add(p);
                    added += 1;
                }
                Ok(RepairOutcome { added, removed: 0, evaluations: 0 })
            })
            .unwrap();
        assert_eq!(report.kept, Vec::<usize>::new());
        assert_eq!(report.repair.added, 2);
        assert_eq!(e.selection().len(), 2);
        let direct = regret::arr_unchecked(e.matrix(), &e.selection());
        assert!((e.arr() - direct).abs() < 1e-9);
    }

    #[test]
    fn insert_into_near_empty_matrix() {
        // A single-point universe accepts inserts and the selection can
        // reach the newcomers.
        let m = ScoreMatrix::from_rows(vec![vec![0.4], vec![0.7]], None).unwrap();
        let mut e = DynamicEngine::new(m, 1, &[0]).unwrap();
        let batch = UpdateBatch { insert: vec![vec![0.9, 0.9], vec![0.2, 0.1]], delete: vec![] };
        let report = e
            .apply_with(&batch, |ev, ws| {
                // Move the selection onto the strictly better insert.
                ev.remove(0);
                ev.add(ws.inserted.start);
                Ok(RepairOutcome { added: 1, removed: 1, evaluations: 0 })
            })
            .unwrap();
        assert_eq!(report.n_points, 3);
        assert_eq!(report.inserted_range, 1..3);
        assert_eq!(e.selection(), vec![1]);
        let direct = regret::arr_unchecked(e.matrix(), &[1]);
        assert!((e.arr() - direct).abs() < 1e-9);
        // The old sole point can now be deleted (n stays >= k).
        let drop_old = UpdateBatch { insert: vec![], delete: vec![0] };
        assert!(e.apply_with(&drop_old, no_repair).is_ok());
        assert_eq!(e.matrix().n_points(), 2);
    }

    #[test]
    fn long_update_stream_stays_consistent() {
        let mut rng = StdRng::seed_from_u64(7);
        let n_samples = 12;
        let rows: Vec<Vec<f64>> =
            (0..n_samples).map(|_| (0..8).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
        let m = ScoreMatrix::from_rows(rows, None).unwrap();
        let mut e = DynamicEngine::new(m, 3, &[0, 4, 6]).unwrap();
        for step in 0..25 {
            let n = e.matrix().n_points();
            let mut batch = UpdateBatch::default();
            if n > 3 && rng.gen_bool(0.6) {
                batch.delete.push(rng.gen_range(0..n));
            }
            if rng.gen_bool(0.7) {
                batch.insert.push((0..n_samples).map(|_| rng.gen_range(0.01..1.0)).collect());
            }
            e.apply_with(&batch, |ev, ws| {
                // Greedy-ish toy policy: add inserted points while short.
                let mut added = 0;
                for p in ws.inserted.clone() {
                    if ev.len() < ws.k {
                        ev.add(p);
                        added += 1;
                    }
                }
                Ok(RepairOutcome { added, removed: 0, evaluations: 0 })
            })
            .unwrap();
            let sel = e.selection();
            if !sel.is_empty() {
                let direct = regret::arr_unchecked(e.matrix(), &sel);
                assert!((e.arr() - direct).abs() < 1e-9, "step {step}: arr drifted");
            }
            assert!(sel.len() <= 3);
        }
        assert_eq!(e.batches_applied(), 25);
    }
}
