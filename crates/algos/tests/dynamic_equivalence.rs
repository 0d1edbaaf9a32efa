//! Bit-identity of the dynamic-update subsystem.
//!
//! The incremental path — [`ScoreMatrix::insert_points`] /
//! [`ScoreMatrix::delete_points`] re-laying both layouts, the evaluator
//! resuming via `resume_after_update`, and `warm_repair` re-optimizing
//! from the surviving selection — must be **bit-identical** to the
//! from-scratch path: rebuilding the matrix with
//! [`ScoreMatrix::from_flat`] on the updated rows and running the same
//! warm start on it. The contract holds in every execution mode (serial
//! and a forced 4-worker pool), because every reduction folds the same
//! fixed chunks in the same order; see `fam_core::par` and
//! `parallel_equivalence.rs`.
//!
//! The checks share process-global execution-mode switches, so they all
//! run inside one `#[test]`.

use fam_algos::{add_greedy, warm_repair};
use fam_core::{par, DynamicEngine, ScoreMatrix, SelectionEvaluator, UpdateBatch, WarmStart};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_SAMPLES: usize = 60;
const K: usize = 5;

/// Applies a batch to the raw sample-major rows the same way the engine
/// defines it: deletions first (pre-batch indices, swap-remove order),
/// insertions appended.
fn apply_shadow(rows: &mut [Vec<f64>], batch: &UpdateBatch) {
    let mut dels = batch.delete.clone();
    dels.sort_unstable();
    for (u, row) in rows.iter_mut().enumerate() {
        for &d in dels.iter().rev() {
            row.swap_remove(d);
        }
        for col in &batch.insert {
            row.push(col[u]);
        }
    }
}

/// Every stored field of the incrementally patched matrix must match the
/// from-scratch build bit for bit.
fn assert_matrices_identical(inc: &ScoreMatrix, fresh: &ScoreMatrix) {
    assert_eq!(inc.n_points(), fresh.n_points());
    assert_eq!(inc.n_samples(), fresh.n_samples());
    for u in 0..inc.n_samples() {
        assert_eq!(inc.row(u), fresh.row(u), "row {u} diverged");
        assert_eq!(inc.best_index(u), fresh.best_index(u), "best index {u} diverged");
        assert_eq!(
            inc.best_value(u).to_bits(),
            fresh.best_value(u).to_bits(),
            "best value {u} diverged"
        );
        assert_eq!(inc.weight(u).to_bits(), fresh.weight(u).to_bits());
    }
    for p in 0..inc.n_points() {
        assert_eq!(inc.column(p), fresh.column(p), "mirror column {p} diverged");
    }
}

/// Streams random batches through a `DynamicEngine` and, after each one,
/// pins the incremental state against the from-scratch rebuild + the same
/// warm start. Returns the per-batch outcomes for cross-mode comparison.
fn run_scenario(seed: u64) -> Vec<(Vec<usize>, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> =
        (0..N_SAMPLES).map(|_| (0..24).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
    let base = ScoreMatrix::from_rows(rows.clone(), None).unwrap();
    let initial = add_greedy(&base, K).unwrap();
    let mut engine = DynamicEngine::new(base, K, &initial.indices).unwrap();
    let mut outcomes = Vec::new();
    for _ in 0..8 {
        let n = engine.matrix().n_points();
        let mut batch = UpdateBatch::default();
        let max_del = 3.min(n.saturating_sub(K + 2));
        let mut cand: Vec<usize> = (0..n).collect();
        for _ in 0..rng.gen_range(0..=max_del) {
            let i = rng.gen_range(0..cand.len());
            batch.delete.push(cand.swap_remove(i));
        }
        for _ in 0..rng.gen_range(0..=3usize) {
            batch.insert.push((0..N_SAMPLES).map(|_| rng.gen_range(0.01..1.0)).collect());
        }
        apply_shadow(&mut rows, &batch);
        let report = engine.apply_with(&batch, warm_repair).unwrap();

        // 1. Incremental matrix == from-scratch construction.
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let fresh = ScoreMatrix::from_flat(flat, N_SAMPLES, rows[0].len(), None).unwrap();
        assert_matrices_identical(engine.matrix(), &fresh);

        // 2. Incremental resume + repair == the same warm start on the
        //    from-scratch matrix.
        let mut fresh_ev = SelectionEvaluator::new_with(&fresh, &report.kept);
        let ws = WarmStart { inserted: report.inserted_range.clone(), k: K };
        warm_repair(&mut fresh_ev, &ws).unwrap();
        assert_eq!(fresh_ev.selection(), report.selection, "warm repair diverged");
        assert_eq!(fresh_ev.arr().to_bits(), report.arr.to_bits(), "warm arr diverged");
        assert_eq!(engine.selection(), report.selection);
        assert_eq!(engine.arr().to_bits(), report.arr.to_bits());
        assert_eq!(report.selection.len(), K);

        outcomes.push((report.selection, report.arr.to_bits()));
    }
    outcomes
}

#[test]
fn dynamic_updates_are_bit_identical_across_modes() {
    for seed in [1u64, 7, 42] {
        // Reference: serial.
        par::force_serial(true);
        let serial = run_scenario(seed);
        par::force_serial(false);
        // Forced 4-worker pool (real spawns even on single-core hosts).
        par::set_max_threads(Some(4));
        let parallel = run_scenario(seed);
        par::set_max_threads(None);

        assert_eq!(serial, parallel, "seed {seed}: parallel diverged from serial");
    }
}
