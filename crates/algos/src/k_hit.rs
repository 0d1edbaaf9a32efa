//! K-HIT — the probabilistic top-k baseline of Peng & Wong \[26\]: select
//! `k` points maximizing the probability that at least one selected point
//! is the user's favourite.
//!
//! With a sampled utility set the objective becomes max-coverage over
//! samples (each point "covers" the samples whose database-wide best point
//! it is), solved greedily. The paper configures k-hit's `ε = δ = 0.1` to
//! match GREEDY-SHRINK's sampling parameters, which is exactly this
//! sampled formulation; its query time includes the per-sample best-point
//! pass because, unlike GREEDY-SHRINK, that pass is not shared
//! preprocessing but the algorithm's own machinery.

use fam_core::solve::QueryTimer;

use fam_core::{FamError, Result, ScoreSource, Selection};
use fam_geometry::BitSet;

/// Runs sampled K-HIT.
///
/// # Errors
///
/// Returns an error when `k` is zero or exceeds the number of points.
pub fn k_hit<S: ScoreSource + ?Sized>(m: &S, k: usize) -> Result<Selection> {
    let n = m.n_points();
    if k == 0 || k > n {
        return Err(FamError::InvalidK { k, n });
    }
    let start = QueryTimer::start();
    let n_samples = m.n_samples();
    // Hit sets: point -> samples whose best point it is. This linear pass
    // is charged to K-HIT's query time (see module docs). The argmax is
    // recomputed (not read from the matrix's cache) so the timing honestly
    // includes the best-point computation the original algorithm performs;
    // it streams each sample's row and fans out over sample chunks.
    let bests = fam_core::par::map_adaptive(n_samples, n, |range| {
        let mut buf = Vec::new();
        // Tiled first-strict-argmax — exactly the serial scan's winner
        // (first occurrence of the row max) — over each sample's row,
        // borrowed or computed.
        range.map(|u| fam_core::kernels::row_best(m.row_scores(u, &mut buf)).0).collect::<Vec<_>>()
    })
    .concat();
    let mut hits: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, &best) in bests.iter().enumerate() {
        hits[best as usize].push(u as u32);
    }
    let candidates: Vec<usize> = (0..n).filter(|&p| !hits[p].is_empty()).collect();
    let bitsets: Vec<BitSet> = candidates
        .iter()
        .map(|&p| {
            let mut b = BitSet::new(n_samples);
            for &u in &hits[p] {
                b.set(u as usize);
            }
            b
        })
        .collect();

    let mut covered = BitSet::new(n_samples);
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let mut used = vec![false; candidates.len()];
    while chosen.len() < k.min(candidates.len()) {
        // Max-coverage step: independent gain counts per candidate. The
        // earliest-index tie-break of arg_reduce equals the serial scan's
        // lowest-candidate rule because `candidates` is sorted ascending.
        let covered_ref = &covered;
        let used_ref = &used;
        let bitsets_ref = &bitsets;
        let best = fam_core::par::arg_reduce(
            bitsets.len(),
            n_samples / 64 + 1,
            |pos| (!used_ref[pos]).then(|| covered_ref.gain_count(&bitsets_ref[pos])),
            |a, b| a > b,
        );
        let (_, pos) = best.expect("unused candidate exists");
        used[pos] = true;
        covered.union_with(&bitsets[pos]);
        chosen.push(candidates[pos]);
    }
    // Fewer hit-candidates than k: pad with arbitrary unselected points.
    if chosen.len() < k {
        for p in 0..n {
            if chosen.len() == k {
                break;
            }
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
    }
    let hit_prob = covered.count_ones() as f64 / n_samples as f64;
    Ok(Selection::new(chosen, "k-hit").with_objective(hit_prob).with_query_time(start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_core::ScoreMatrix;

    #[test]
    fn covers_the_most_popular_best_points() {
        // Users 0,1,2 favour point 1; user 3 favours point 0.
        let m = ScoreMatrix::from_rows(
            vec![
                vec![0.5, 1.0, 0.1],
                vec![0.4, 0.9, 0.2],
                vec![0.3, 0.8, 0.1],
                vec![1.0, 0.2, 0.3],
            ],
            None,
        )
        .unwrap();
        let s1 = k_hit(&m, 1).unwrap();
        assert_eq!(s1.indices, vec![1]);
        assert!((s1.objective.unwrap() - 0.75).abs() < 1e-12);
        let s2 = k_hit(&m, 2).unwrap();
        assert_eq!(s2.indices, vec![0, 1]);
        assert!((s2.objective.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pads_when_few_candidates() {
        // Every user favours point 0; k = 3 must still return 3 points.
        let m =
            ScoreMatrix::from_rows(vec![vec![1.0, 0.5, 0.4], vec![0.9, 0.1, 0.2]], None).unwrap();
        let s = k_hit(&m, 3).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.indices.contains(&0));
    }

    #[test]
    fn hit_probability_is_monotone_in_k() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(55);
        let rows: Vec<Vec<f64>> =
            (0..200).map(|_| (0..20).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
        let m = ScoreMatrix::from_rows(rows, None).unwrap();
        let mut prev = 0.0;
        for k in 1..=6 {
            let s = k_hit(&m, k).unwrap();
            let prob = s.objective.unwrap();
            assert!(prob >= prev - 1e-12, "hit prob decreased at k={k}");
            prev = prob;
        }
    }

    #[test]
    fn invalid_k() {
        let m = ScoreMatrix::from_rows(vec![vec![1.0]], None).unwrap();
        assert!(k_hit(&m, 0).is_err());
        assert!(k_hit(&m, 2).is_err());
    }
}
