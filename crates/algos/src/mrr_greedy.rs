//! MRR-GREEDY — the greedy k-regret algorithm of Nanongkai et al. \[22\]
//! (`RDP-GREEDY`), the paper's main maximum-regret-ratio baseline.
//!
//! The algorithm seeds the selection with the point maximizing the first
//! dimension, then repeatedly adds the point with the largest *current*
//! regret: the point whose witness LP (see [`crate::mrr`]) reports the
//! largest regret ratio against the running selection. Two modes:
//!
//! * **exact** — LP-based witness regret over all linear utilities
//!   (faithful to \[22\]; requires coordinates);
//! * **sampled** — witness regret over a sampled utility set (usable for
//!   learned/non-linear distributions, mirroring how the paper applies the
//!   baseline to the Yahoo pipeline).
//!
//! The sampled mode is lazy, as ADD-GREEDY is (the paper's Lemmas 2/3,
//! Improvement 2). A candidate's witness regret
//! `max_u (s(u,p) − sat_u) / best_u` can only fall as the selection
//! grows, because `sat_u` only rises; subtraction, division by a positive
//! `best_u` and `max` are monotone in floating point, so a stale value is
//! an upper bound bit for bit. Every candidate is scored once, fanned out
//! over all cores; each pick then re-evaluates only the stale heap heads,
//! and the first fresh head is the pick. The heap breaks ties on the
//! lowest index, so the picks are exactly those of scanning every
//! candidate at every step.

use std::collections::BinaryHeap;

use fam_core::solve::QueryTimer;

use fam_core::{kernels, par, Dataset, FamError, LinearColumns, Result, ScoreSource, Selection};
use fam_geometry::skyline;

use crate::mrr::witness_regret;
use crate::repair::Entry;

/// LP-exact MRR-GREEDY for linear utilities.
///
/// # Errors
///
/// Returns an error when `k` is invalid or an LP fails.
pub fn mrr_greedy_exact(dataset: &Dataset, k: usize) -> Result<Selection> {
    let n = dataset.len();
    if k == 0 || k > n {
        return Err(FamError::InvalidK { k, n });
    }
    let start = QueryTimer::start();
    // Candidates: skyline points only (dominated points are never added by
    // RDP-GREEDY and never witness more regret than their dominators).
    let sky = skyline(dataset);
    // Seed: the point with the maximum first coordinate.
    let seed = *sky
        .iter()
        .max_by(|&&a, &&b| dataset.point(a)[0].total_cmp(&dataset.point(b)[0]))
        .expect("skyline non-empty");
    let mut selection = vec![seed];
    while selection.len() < k {
        let mut best: Option<(f64, usize)> = None;
        for &p in &sky {
            if selection.contains(&p) {
                continue;
            }
            let regret = witness_regret(dataset, &selection, p)?;
            match best {
                None => best = Some((regret, p)),
                Some((br, _)) if regret > br => best = Some((regret, p)),
                _ => {}
            }
        }
        match best {
            Some((_, p)) => selection.push(p),
            // Skyline exhausted (k larger than the skyline): pad with
            // arbitrary unselected points; they cannot increase the mrr.
            None => {
                let next = (0..n).find(|p| !selection.contains(p));
                match next {
                    Some(p) => selection.push(p),
                    None => break,
                }
            }
        }
    }
    Ok(Selection::new(selection, "mrr-greedy").with_query_time(start.elapsed()))
}

/// Candidate `p`'s witness regret over the bands of its column that `m`
/// lends (the matrix mirror) or fills. Out of line, as is [`fused_regret`], so
/// neither scan's code shapes the other's.
#[inline(never)]
fn banded_regret<S: ScoreSource + ?Sized>(m: &S, p: usize, sat: &[f64], bests: &[f64]) -> f64 {
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

/// Candidate `p`'s witness regret on a computing substrate: each band's
/// scores are computed as the fold consumes them
/// ([`kernels::linear_regret_fold`]).
#[inline(never)]
fn fused_regret(linear: &LinearColumns<'_>, p: usize, sat: &[f64], bests: &[f64]) -> f64 {
    let n_samples = sat.len();
    let mut regret = kernels::LaneMax::new(0.0);
    for b0 in (0..n_samples).step_by(kernels::BAND) {
        let b1 = (b0 + kernels::BAND).min(n_samples);
        linear.regret_fold(p, b0, &sat[b0..b1], &bests[b0..b1], &mut regret);
    }
    regret.total()
}

/// Sampled MRR-GREEDY: identical structure, but the per-candidate regret is
/// measured against the sampled utility functions of `m`.
///
/// # Errors
///
/// Returns an error when `k` is invalid.
pub fn mrr_greedy_sampled<S: ScoreSource + ?Sized>(m: &S, k: usize) -> Result<Selection> {
    mrr_greedy_sampled_counted(m, k).map(|(sel, _)| sel)
}

/// [`mrr_greedy_sampled`] plus the witness-regret evaluations it spent:
/// the initial score of every candidate plus the lazy re-evaluations.
pub(crate) fn mrr_greedy_sampled_counted<S: ScoreSource + ?Sized>(
    m: &S,
    k: usize,
) -> Result<(Selection, u64)> {
    let n = m.n_points();
    if k == 0 || k > n {
        return Err(FamError::InvalidK { k, n });
    }
    let start = QueryTimer::start();
    // Seed: the point that is the favourite of the most samples (a
    // coordinate-free analogue of "best in dimension 1").
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
    // sat_u(S) maintained incrementally.
    let n_samples = m.n_samples();
    let mut sat: Vec<f64> = m.column_scores(seed, 0..n_samples, &mut vec![0.0; n_samples]).to_vec();
    let bests = &m.best_values()[..n_samples];
    let linear = m.linear_columns();
    // A candidate's witness regret max_u (score(u,p) − sat_u) / best_u,
    // over bands of its column (borrowed from a point-major mirror or
    // filled by a computing substrate), negated for the min-heap. `0.0 −
    // x` is exact and maps −0.0 to +0.0, so the heap's `total_cmp` orders
    // exactly as `>` on the regrets does.
    let neg_regret = |p: u32, sat: &[f64]| {
        let p = p as usize;
        0.0 - match linear {
            Some(linear) => fused_regret(&linear, p, sat, bests),
            None => banded_regret(m, p, sat, bests),
        }
    };
    let mut evaluations = 0u64;
    if k > 1 {
        let cands: Vec<u32> = (0..n as u32).filter(|&p| p as usize != seed).collect();
        let mut values = vec![0.0; cands.len()];
        par::fill_adaptive(&mut values, n_samples, |i| neg_regret(cands[i], &sat));
        evaluations += cands.len() as u64;
        let mut heap: BinaryHeap<Entry> = cands
            .iter()
            .zip(&values)
            .map(|(&point, &value)| Entry { value, point, stamp: 1 })
            .collect();
        while selection.len() < k {
            let stamp = selection.len() as u32;
            let head = heap.pop().expect("k <= n guarantees a candidate");
            if head.stamp != stamp {
                let value = neg_regret(head.point, &sat);
                evaluations += 1;
                heap.push(Entry { value, point: head.point, stamp });
                continue;
            }
            let p = head.point as usize;
            selection.push(p);
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
    }
    let sel = Selection::new(selection, "mrr-greedy-sampled").with_query_time(start.elapsed());
    Ok((sel, evaluations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrr::mrr_linear_exact;
    use fam_core::UniformLinear;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(rng: &mut StdRng, n: usize, d: usize) -> Dataset {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn selects_k_points_and_reduces_mrr() {
        let mut rng = StdRng::seed_from_u64(30);
        let ds = random_dataset(&mut rng, 60, 3);
        let s2 = mrr_greedy_exact(&ds, 2).unwrap();
        let s6 = mrr_greedy_exact(&ds, 6).unwrap();
        assert_eq!(s2.len(), 2);
        assert_eq!(s6.len(), 6);
        let m2 = mrr_linear_exact(&ds, &s2.indices).unwrap();
        let m6 = mrr_linear_exact(&ds, &s6.indices).unwrap();
        assert!(m6 <= m2 + 1e-9, "more points should not increase mrr: {m2} -> {m6}");
    }

    #[test]
    fn seed_is_best_first_dimension() {
        let ds = Dataset::from_rows(vec![vec![0.9, 0.1], vec![1.0, 0.05], vec![0.2, 1.0]]).unwrap();
        let s = mrr_greedy_exact(&ds, 1).unwrap();
        assert_eq!(s.indices, vec![1]);
    }

    #[test]
    fn beats_or_matches_random_selection_on_mrr() {
        let mut rng = StdRng::seed_from_u64(31);
        let ds = random_dataset(&mut rng, 50, 3);
        let k = 5;
        let greedy = mrr_greedy_exact(&ds, k).unwrap();
        let greedy_mrr = mrr_linear_exact(&ds, &greedy.indices).unwrap();
        for _ in 0..5 {
            let mut sel: Vec<usize> = (0..50).collect();
            for i in (1..sel.len()).rev() {
                sel.swap(i, rng.gen_range(0..=i));
            }
            sel.truncate(k);
            let rand_mrr = mrr_linear_exact(&ds, &sel).unwrap();
            assert!(
                greedy_mrr <= rand_mrr + 0.05,
                "greedy {greedy_mrr} much worse than random {rand_mrr}"
            );
        }
    }

    #[test]
    fn sampled_variant_matches_shape() {
        let mut rng = StdRng::seed_from_u64(32);
        let ds = random_dataset(&mut rng, 40, 3);
        let dist = UniformLinear::new(3).unwrap();
        let m = fam_core::ScoreMatrix::from_distribution(&ds, &dist, 500, &mut rng).unwrap();
        let s = mrr_greedy_sampled(&m, 5).unwrap();
        assert_eq!(s.len(), 5);
        // Sampled mrr of the sampled-greedy answer should be small-ish.
        let sampled = fam_core::regret::mrr_sampled(&m, &s.indices).unwrap();
        assert!(sampled < 0.5, "sampled mrr {sampled}");
    }

    #[test]
    fn pads_when_k_exceeds_skyline() {
        // A dominated chain: skyline = 1 point, ask for 3.
        let ds = Dataset::from_rows(vec![vec![1.0, 1.0], vec![0.9, 0.9], vec![0.8, 0.8]]).unwrap();
        let s = mrr_greedy_exact(&ds, 3).unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn invalid_k() {
        let ds = Dataset::from_rows(vec![vec![1.0]]).unwrap();
        assert!(mrr_greedy_exact(&ds, 0).is_err());
        assert!(mrr_greedy_exact(&ds, 2).is_err());
        let m = fam_core::ScoreMatrix::from_rows(vec![vec![1.0]], None).unwrap();
        assert!(mrr_greedy_sampled(&m, 0).is_err());
        assert!(mrr_greedy_sampled(&m, 2).is_err());
    }
}
