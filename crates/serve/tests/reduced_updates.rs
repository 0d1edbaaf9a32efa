//! A skyline-reduced served dataset answers, after every update batch,
//! exactly as a fresh reduced build over the same points: the same kept
//! coordinates, weights and bests, cached entries, cold answers and
//! evaluations, indices and arr bits. The data are tie-heavy (a few
//! distinct frontier points, each duplicated many times) and the
//! population is small, so `arr` reaches 0 inside the cached range and
//! the later picks there are pure ties: a served dataset whose kept
//! columns sat in any order but the fresh build's would break them
//! differently.

use fam_algos::{Registry, SolverSpec};
use fam_core::{Dataset, ScoreSource};
use fam_data::UpdateOp;
use fam_reduce::{ReduceSpec, Reduction};
use fam_serve::{DatasetService, ServeOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A palette point — `1` on one axis and `0.25` on the rest, so the
/// frontier is `d` distinct points drawn many times — or, two times in
/// three, a point its palette point dominates.
fn point(rng: &mut StdRng, d: usize) -> Vec<f64> {
    let axis = rng.gen_range(0..d);
    let dominated = rng.gen_range(0..3) > 0;
    (0..d)
        .map(|i| match (i == axis, dominated) {
            (true, false) => 1.0,
            (false, false) => 0.25,
            (true, true) => rng.gen_range(1..=3) as f64 * 0.25,
            (false, true) => rng.gen_range(0..=1) as f64 * 0.25,
        })
        .collect()
}

/// The op stream's model of the live full coordinates: swap-remove in
/// descending delete order, then append.
fn apply(rows: &mut Vec<Vec<f64>>, ops: &[UpdateOp]) {
    let mut deletes: Vec<usize> = ops
        .iter()
        .filter_map(|op| match op {
            UpdateOp::Delete(i) => Some(*i),
            UpdateOp::Insert(_) => None,
        })
        .collect();
    deletes.sort_unstable();
    for &i in deletes.iter().rev() {
        rows.swap_remove(i);
    }
    for op in ops {
        if let UpdateOp::Insert(p) = op {
            rows.push(p.clone());
        }
    }
}

/// One batch of kind `batch % 5`: a kept delete (the repair must
/// recompute); pruned deletes whose swap moves the last kept point; inserts
/// that join the frontier (duplicates included); an insert beyond the
/// frontier that evicts members; a random mix.
fn batch_ops(rng: &mut StdRng, batch: usize, rows: &[Vec<f64>], kept: &[usize]) -> Vec<UpdateOp> {
    let n = rows.len();
    let d = rows[0].len();
    let pruned: Vec<usize> = (0..n).filter(|i| kept.binary_search(i).is_err()).collect();
    let pick = |rng: &mut StdRng, ids: &[usize]| ids[rng.gen_range(0..ids.len())];
    let mut ops = Vec::new();
    match batch % 5 {
        0 => {
            ops.push(UpdateOp::Delete(pick(rng, kept)));
            ops.push(UpdateOp::Insert(point(rng, d)));
        }
        1 => {
            // Deleting every pruned point after the last kept one, and
            // one before it, swaps that kept point into the earlier slot.
            let last = kept[kept.len() - 1];
            let below: Vec<usize> = pruned.iter().copied().filter(|&p| p < last).collect();
            if !below.is_empty() {
                ops.push(UpdateOp::Delete(pick(rng, &below)));
                ops.extend((last + 1..n).map(UpdateOp::Delete));
            }
        }
        2 => {
            ops.push(UpdateOp::Insert(rows[pick(rng, kept)].clone()));
            ops.push(UpdateOp::Insert(point(rng, d)));
            ops.push(UpdateOp::Insert(point(rng, d)));
        }
        3 => {
            // One level past a kept member on one axis dominates it.
            let mut p = rows[pick(rng, kept)].clone();
            let axis = rng.gen_range(0..d);
            p[axis] += 0.25;
            ops.push(UpdateOp::Insert(p));
            if !pruned.is_empty() {
                ops.push(UpdateOp::Delete(pick(rng, &pruned)));
            }
        }
        _ => {
            let mut ids: Vec<usize> = (0..n).collect();
            for _ in 0..rng.gen_range(1..=3) {
                let i = ids.swap_remove(rng.gen_range(0..ids.len()));
                ops.push(UpdateOp::Delete(i));
            }
            for _ in 0..rng.gen_range(0..=2) {
                ops.push(UpdateOp::Insert(point(rng, d)));
            }
        }
    }
    ops
}

/// An answer or an error, comparable bit for bit.
fn solved(out: fam_core::Result<(fam_serve::SolveResult, bool)>) -> String {
    match out {
        Ok((r, cached)) => format!("{:?} {:x} cached={cached}", r.indices, r.arr.to_bits()),
        Err(e) => format!("error: {e}"),
    }
}

fn cold(out: fam_core::Result<fam_core::SolveOutput>) -> String {
    match out {
        Ok(o) => {
            format!("{:?} {:?}", o.selection.indices, o.selection.objective.map(f64::to_bits))
        }
        Err(e) => format!("error: {e}"),
    }
}

/// Everything a client or a solver can read off `svc` equals `fresh`,
/// whose reduction kept `kept`. Returns whether a cached arr reached 0
/// below the top of the cached range.
fn assert_same(svc: &DatasetService, fresh: &DatasetService, kept: &[usize], what: &str) -> bool {
    assert_eq!(svc.source_points(), fresh.source_points(), "{what}: source points");
    assert_eq!(svc.n_points(), kept.len(), "{what}: kept points");
    assert_eq!(svc.dataset(), fresh.dataset(), "{what}: kept coordinates");
    let (m, f) = (svc.matrix(), fresh.matrix());
    assert_eq!(m.n_samples(), f.n_samples(), "{what}: samples");
    for u in 0..m.n_samples() {
        assert_eq!(m.weight_vector(u), f.weight_vector(u), "{what}: weights {u}");
        assert_eq!(ScoreSource::best_index(m, u), ScoreSource::best_index(f, u), "{what}: {u}");
        assert_eq!(
            ScoreSource::best_value(m, u).to_bits(),
            ScoreSource::best_value(f, u).to_bits(),
            "{what}: best value {u}"
        );
    }
    let registry = Registry::global();
    let hi = *svc.cache_k().end();
    let mut selections = vec![kept.to_vec()];
    let mut zero = false;
    for solver in registry.iter() {
        for k in 1..=hi {
            let spec = SolverSpec::new(solver.name(), k);
            let served = svc.solve(&spec);
            if let Ok((r, cached)) = &served {
                selections.push(r.indices.clone());
                zero |= *cached && k < hi && r.arr == 0.0;
            }
            let (a, b) = (solved(served), solved(fresh.solve(&spec)));
            assert_eq!(a, b, "{what}: {} k={k}", solver.name());
            if solver.capabilities().range_harvest {
                assert!(a.ends_with("cached=true"), "{what}: {} k={k}: {a}", solver.name());
                // The harvested solver's cold answer on the kept scores.
                let a = cold(registry.solve(&spec, m, Some(svc.dataset())));
                let b = cold(registry.solve(&spec, f, Some(fresh.dataset())));
                assert_eq!(a, b, "{what}: cold {} k={k}", solver.name());
            }
        }
    }
    // Evaluations of the kept set, every answer, and a pruned id.
    if let Some(pruned) = (0..svc.source_points()).find(|i| kept.binary_search(i).is_err()) {
        selections.push(vec![pruned]);
    }
    for sel in &selections {
        let bits = |r: fam_core::Result<fam_core::RegretReport>| match r {
            Ok(r) => format!("{:x} {:x} {:x}", r.arr.to_bits(), r.vrr.to_bits(), r.mrr.to_bits()),
            Err(e) => format!("error: {e}"),
        };
        assert_eq!(bits(svc.evaluate(sel)), bits(fresh.evaluate(sel)), "{what}: evaluate {sel:?}");
    }
    zero
}

fn drive(d: usize, n: usize, seed: u64) {
    let reduce = ReduceSpec::skyline();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> = (0..n).map(|_| point(&mut rng, d)).collect();
    let opts =
        ServeOptions { samples: 24, seed, cache_k: 1..=4, reduce, ..ServeOptions::default() };
    let full = Dataset::from_rows(rows.clone()).unwrap();
    let mut svc = DatasetService::build("live", &full, &opts).unwrap();
    let mut kept = Reduction::compute(&full, reduce).unwrap().kept().to_vec();
    let batches = 15;
    let mut zero = false;
    for batch in 0..batches {
        let ops = batch_ops(&mut rng, batch, &rows, &kept);
        match svc.apply_ops(&ops) {
            Ok(_) => apply(&mut rows, &ops),
            Err(e) => {
                // Only a batch that starves the cache may be refused, and
                // then nothing changes.
                assert!(e.to_string().contains("fewer than the cached maximum"), "{e}");
            }
        }
        if batch == batches / 2 {
            svc.refine(0.3, 0.1).unwrap();
        }
        let full = Dataset::from_rows(rows.clone()).unwrap();
        kept = Reduction::compute(&full, reduce).unwrap().kept().to_vec();
        let fresh_opts = ServeOptions { samples: svc.n_samples(), ..opts.clone() };
        let fresh = DatasetService::build("fresh", &full, &fresh_opts).unwrap();
        zero |= assert_same(&svc, &fresh, &kept, &format!("d={d}, batch {batch}"));
    }
    assert!(svc.n_samples() > 24, "the refine grew the population");
    assert!(zero, "d={d}: no cached arr reached 0 below the top of the range");
}

#[test]
fn reduced_served_datasets_equal_a_fresh_build_after_every_batch() {
    drive(2, 60, 11);
    drive(3, 80, 12);
}
