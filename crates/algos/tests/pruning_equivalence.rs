//! The pruned solvers against the exhaustive loops they replaced.
//!
//! MRR-GREEDY skips candidates whose stale witness regret shows they
//! cannot win, and local search skips replacements whose runner-up bound
//! shows they cannot beat the incumbent. Both prunings rest on monotone
//! floating-point folds, so the answers must be **bit-identical** to
//! scanning every candidate: the same indices, the same objective bits,
//! and for local search the same `swaps` and `passes`. The references
//! below are the exhaustive loops, kept verbatim as test-only code (as
//! `add_greedy`'s `lazy_matches_eager_reference` keeps the eager
//! ADD-GREEDY).
//!
//! Inputs are random and tie-heavy (2–5 distinct score levels, plus
//! duplicate points), at `k = 1` through `k = n`, on the mirrored matrix,
//! the mirrorless matrix, and the compact `LinearScores` backing.

use std::sync::Arc;

use fam_algos::{local_search, mrr_greedy_sampled, LocalSearchConfig};
use fam_core::{
    kernels, par, Dataset, LinearScores, LinearUtility, ScoreMatrix, ScoreSource, Selection,
    SelectionEvaluator, UtilityFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Candidate `p`'s witness regret `max_u (s(u,p) − sat_u) / best_u`,
/// folded band by band over its column.
fn sampled_witness_regret<S: ScoreSource + ?Sized>(
    m: &S,
    p: usize,
    sat: &[f64],
    bests: &[f64],
) -> f64 {
    let n_samples = sat.len();
    let mut regret = kernels::LaneMax::new(0.0);
    let mut buf = [0.0f64; kernels::BAND];
    for b0 in (0..n_samples).step_by(kernels::BAND) {
        let b1 = (b0 + kernels::BAND).min(n_samples);
        let col = &m.column_scores(p, b0..b1, &mut buf)[..b1 - b0];
        let (sat, bests) = (&sat[b0..b1], &bests[b0..b1]);
        regret.fold(b0, col.len(), |i| kernels::regret_term(col[i], sat[i], bests[i]));
    }
    regret.total()
}

/// The exhaustive sampled MRR-GREEDY: every unselected candidate's
/// witness regret at every step, highest regret first, lowest index on
/// ties.
fn mrr_greedy_exhaustive<S: ScoreSource + ?Sized>(m: &S, k: usize) -> Selection {
    let n = m.n_points();
    let mut votes = vec![0usize; n];
    for u in 0..m.n_samples() {
        votes[m.best_index(u)] += 1;
    }
    let seed = votes
        .iter()
        .enumerate()
        .max_by_key(|&(_, v)| *v)
        .map(|(p, _)| p)
        .expect("at least one point");
    let mut selection = vec![seed];
    let mut in_sel = vec![false; n];
    in_sel[seed] = true;
    let n_samples = m.n_samples();
    let mut sat: Vec<f64> = m.column_scores(seed, 0..n_samples, &mut vec![0.0; n_samples]).to_vec();
    while selection.len() < k {
        let sat_ref = &sat[..];
        let bests = &m.best_values()[..n_samples];
        let in_sel_ref = &in_sel;
        let best = par::arg_reduce(
            n,
            n_samples,
            |p| {
                if in_sel_ref[p] {
                    return None;
                }
                Some(sampled_witness_regret(m, p, sat_ref, bests))
            },
            |a, b| a > b,
        );
        let (_, p) = best.expect("k <= n guarantees a candidate");
        selection.push(p);
        in_sel[p] = true;
        let mut buf = [0.0f64; kernels::BAND];
        for b0 in (0..n_samples).step_by(kernels::BAND) {
            let b1 = (b0 + kernels::BAND).min(n_samples);
            let col = m.column_scores(p, b0..b1, &mut buf);
            for (s, &v) in sat[b0..b1].iter_mut().zip(col) {
                if v > *s {
                    *s = v;
                }
            }
        }
    }
    Selection::new(selection, "mrr-greedy-sampled")
}

/// The exhaustive local search: every unselected candidate scored in
/// index order for each member. Returns the selection, `swaps`, `passes`
/// and the exact scans it spent.
fn local_search_exhaustive<S: ScoreSource + ?Sized>(
    m: &S,
    initial: &[usize],
    cfg: LocalSearchConfig,
) -> (Selection, usize, usize, u64) {
    let mut ev = SelectionEvaluator::new_with(m, initial);
    let mut swaps = 0usize;
    let mut passes = 0usize;
    let mut scans = 0u64;
    for _ in 0..cfg.max_passes {
        passes += 1;
        let mut improved = false;
        let members = ev.selection();
        for &p in &members {
            if !ev.contains(p) {
                continue; // replaced earlier in this pass
            }
            let base = ev.arr();
            ev.remove(p);
            // Best replacement for p (p itself is a candidate, restoring
            // the original set).
            let mut best = (f64::INFINITY, p);
            for q in 0..m.n_points() {
                if ev.contains(q) {
                    continue;
                }
                let cand = ev.arr() + ev.addition_delta(q);
                scans += 1;
                if cand < best.0 {
                    best = (cand, q);
                }
            }
            ev.add(best.1);
            if best.1 != p && ev.arr() < base - cfg.tolerance {
                swaps += 1;
                improved = true;
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
    (Selection::new(ev.selection(), "local-search").with_objective(objective), swaps, passes, scans)
}

/// A selection's indices and objective bits.
fn answer(sel: &Selection) -> (Vec<usize>, Option<u64>) {
    (sel.indices.clone(), sel.objective.map(f64::to_bits))
}

/// A value drawn from `levels` evenly spaced levels in `(0, 1]`, or
/// uniformly from `[0.01, 1)` when `levels` is 0.
fn draw(rng: &mut StdRng, levels: usize) -> f64 {
    if levels == 0 {
        rng.gen_range(0.01..1.0)
    } else {
        rng.gen_range(1..=levels) as f64 / levels as f64
    }
}

/// Copies a few random points over others, so some points tie on every
/// sample.
fn duplicate_some<T: Clone>(rng: &mut StdRng, items: &mut [T]) {
    let n = items.len();
    for _ in 0..n / 4 {
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        items[to] = items[from].clone();
    }
}

/// One instance on every backing it has: the mirrored and mirrorless
/// matrices, plus the compact backing when the scores are linear.
struct Instance {
    label: String,
    mirrored: ScoreMatrix,
    mirrorless: ScoreMatrix,
    compact: Option<LinearScores>,
}

impl Instance {
    fn backings(&self) -> Vec<(&'static str, &dyn ScoreSource)> {
        let mut out: Vec<(&'static str, &dyn ScoreSource)> =
            vec![("mirrored", &self.mirrored), ("mirrorless", &self.mirrorless)];
        if let Some(compact) = &self.compact {
            out.push(("compact", compact));
        }
        out
    }

    fn n_points(&self) -> usize {
        self.mirrored.n_points()
    }
}

/// A matrix of arbitrary scores: uniform, or `levels` distinct values
/// with duplicated point columns.
fn matrix_instance(rng: &mut StdRng, n: usize, n_samples: usize, levels: usize) -> Instance {
    let mut columns: Vec<Vec<f64>> =
        (0..n).map(|_| (0..n_samples).map(|_| draw(rng, levels)).collect()).collect();
    if levels > 0 {
        duplicate_some(rng, &mut columns);
    }
    let rows: Vec<Vec<f64>> =
        (0..n_samples).map(|u| columns.iter().map(|c| c[u]).collect()).collect();
    let mirrored = ScoreMatrix::from_rows(rows, None).unwrap();
    let mirrorless = mirrored.clone_without_mirror();
    Instance {
        label: format!("matrix n={n} N={n_samples} levels={levels}"),
        mirrored,
        mirrorless,
        compact: None,
    }
}

/// Linear scores from `d`-dimensional points and weights: uniform, or
/// drawn from `levels` distinct coordinates and weights with duplicated
/// points, on all three backings.
fn linear_instance(
    rng: &mut StdRng,
    n: usize,
    n_samples: usize,
    d: usize,
    levels: usize,
) -> Instance {
    let mut points: Vec<Vec<f64>> =
        (0..n).map(|_| (0..d).map(|_| draw(rng, levels)).collect()).collect();
    if levels > 0 {
        duplicate_some(rng, &mut points);
    }
    let weights: Vec<Vec<f64>> =
        (0..n_samples).map(|_| (0..d).map(|_| draw(rng, levels)).collect()).collect();
    let ds = Dataset::from_rows(points).unwrap();
    let functions: Vec<Arc<dyn UtilityFunction>> = weights
        .iter()
        .map(|w| Arc::new(LinearUtility::new(w.clone()).unwrap()) as Arc<dyn UtilityFunction>)
        .collect();
    let mirrored = ScoreMatrix::from_functions(&ds, &functions, None).unwrap();
    let mirrorless = mirrored.clone_without_mirror();
    let compact = LinearScores::from_weight_rows(ds, weights).unwrap();
    Instance {
        label: format!("linear n={n} N={n_samples} d={d} levels={levels}"),
        mirrored,
        mirrorless,
        compact: Some(compact),
    }
}

/// Random and tie-heavy instances of several shapes.
fn instances(seed: u64) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for levels in [0usize, 2, 3, 5] {
        for _ in 0..3 {
            let n = rng.gen_range(2usize..16);
            let n_samples = rng.gen_range(1usize..60);
            out.push(matrix_instance(&mut rng, n, n_samples, levels));
            let d = rng.gen_range(1usize..4);
            out.push(linear_instance(&mut rng, n, n_samples, d, levels));
        }
    }
    // Wider than one band, so the bounds and regrets carry lanes across
    // bands.
    out.push(linear_instance(&mut rng, 24, kernels::BAND + 37, 3, 0));
    out.push(linear_instance(&mut rng, 24, kernels::BAND + 37, 2, 3));
    out.push(matrix_instance(&mut rng, 20, 2 * kernels::BAND + 5, 4));
    out
}

/// A random `k`-subset of `0..n`.
fn subset(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        all.swap(i, rng.gen_range(0..=i));
    }
    all.truncate(k);
    all
}

#[test]
fn lazy_mrr_greedy_matches_the_exhaustive_scan() {
    for inst in (0..8).flat_map(|i| instances(1800 + i)) {
        let n = inst.n_points();
        for (backing, m) in inst.backings() {
            for k in 1..=n {
                let lazy = mrr_greedy_sampled(m, k).unwrap();
                let eager = mrr_greedy_exhaustive(m, k);
                assert_eq!(answer(&lazy), answer(&eager), "{} {backing} k={k}", inst.label);
                assert_eq!(lazy.algorithm, eager.algorithm);
            }
        }
    }
}

#[test]
fn pruned_local_search_matches_the_exhaustive_scan() {
    let mut rng = StdRng::seed_from_u64(1810);
    for inst in (0..8).flat_map(|i| instances(1820 + i)) {
        let n = inst.n_points();
        let mut ks = vec![1, n, rng.gen_range(1..=n)];
        ks.dedup();
        for k in ks {
            let initial = subset(&mut rng, n, k);
            for max_passes in [0usize, 1, 3, 10] {
                let cfg = LocalSearchConfig { max_passes, ..Default::default() };
                for (backing, m) in inst.backings() {
                    let what = format!("{} {backing} k={k} passes={max_passes}", inst.label);
                    let pruned = local_search(m, &initial, cfg).unwrap();
                    let (sel, swaps, passes, scans) = local_search_exhaustive(m, &initial, cfg);
                    assert_eq!(answer(&pruned.selection), answer(&sel), "{what}");
                    assert_eq!(pruned.selection.algorithm, sel.algorithm, "{what}");
                    assert_eq!(pruned.swaps, swaps, "{what}: swaps");
                    assert_eq!(pruned.passes, passes, "{what}: passes");
                    // Each member still scores itself exactly.
                    assert!(pruned.arr_evaluations <= scans, "{what}: exact scans");
                }
            }
        }
    }
}
