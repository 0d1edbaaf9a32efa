//! The reduction stages: the [`CandidateReducer`] trait and its two
//! implementations, [`SkylineReducer`] (exact dominance pruning) and
//! [`CoresetReducer`] (deterministic directional ε-kernel).

use fam_core::{Dataset, FamError, Result};
use fam_geometry::dominance::{dom_compare, DomOrdering};

/// One stage of the candidate-reduction pipeline: given the dataset and
/// the ascending candidate ids that survived earlier stages, return the
/// ascending subset to keep.
///
/// Implementations must be **deterministic pure functions** of their
/// inputs — no RNG, clocks, or thread-count dependence — so composed
/// reductions are bit-identical across runs and feature configurations.
pub trait CandidateReducer {
    /// Stage name for fingerprints and diagnostics.
    fn name(&self) -> &'static str;

    /// Reduces `candidates` (ascending ids into `dataset`) to the kept
    /// subset, ascending.
    ///
    /// # Errors
    ///
    /// Returns an error for empty/out-of-bounds candidates or invalid
    /// stage parameters.
    fn reduce(&self, dataset: &Dataset, candidates: &[usize]) -> Result<Vec<usize>>;
}

fn check_candidates(dataset: &Dataset, candidates: &[usize]) -> Result<()> {
    if candidates.is_empty() {
        return Err(FamError::EmptyDataset);
    }
    for (i, &c) in candidates.iter().enumerate() {
        if c >= dataset.len() {
            return Err(FamError::IndexOutOfBounds { index: c, len: dataset.len() });
        }
        if i > 0 && candidates[i - 1] >= c {
            return Err(FamError::InvalidParameter {
                name: "candidates",
                message: "candidate ids must be strictly ascending".into(),
            });
        }
    }
    Ok(())
}

/// Exact dominance pruning: keeps exactly the candidates not dominated by
/// another candidate. For every monotone utility function the kept set
/// contains a best point with the *same* score, so this stage loses
/// nothing — exact solvers produce bit-identical objective values on the
/// reduced universe.
#[derive(Debug, Clone, Copy, Default)]
pub struct SkylineReducer;

impl CandidateReducer for SkylineReducer {
    fn name(&self) -> &'static str {
        "skyline"
    }

    fn reduce(&self, dataset: &Dataset, candidates: &[usize]) -> Result<Vec<usize>> {
        check_candidates(dataset, candidates)?;
        if candidates.len() == dataset.len() {
            // Full universe: the dimension-dispatched algorithms
            // (bucket-filtered sweep in 2-D, sort-filter otherwise).
            return Ok(fam_geometry::skyline(dataset));
        }
        // Subset skyline via the same sort-filter scheme: descending
        // coordinate sums guarantee a candidate can only be dominated by
        // ones already in the window.
        let sums: Vec<f64> = candidates
            .iter()
            .map(|&c| {
                let p = dataset.point(c);
                fam_core::kernels::lane_sum(p.len(), |i| p[i])
            })
            .collect();
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| sums[b].total_cmp(&sums[a]).then(candidates[a].cmp(&candidates[b])));
        let mut window: Vec<usize> = Vec::new();
        'outer: for &i in &order {
            let p = dataset.point(candidates[i]);
            for &w in &window {
                if dom_compare(dataset.point(candidates[w]), p) == DomOrdering::Dominates {
                    continue 'outer;
                }
            }
            window.push(i);
        }
        let mut kept: Vec<usize> = window.into_iter().map(|i| candidates[i]).collect();
        kept.sort_unstable();
        Ok(kept)
    }
}

/// Directional ε-kernel: keeps, for each direction of a deterministic
/// positive-orthant net, the first-strict-argmax candidate of
/// `⟨direction, point⟩`. The net always contains the coordinate axes
/// (per-dimension maxima survive) and the uniform direction, plus
/// `⌈d/ε⌉` low-discrepancy simplex directions from a Kronecker sequence
/// — pure arithmetic, no RNG, so the kept set is a deterministic
/// function of `(dataset, candidates, eps)`.
///
/// `eps` is a **declared target** on the regret the stage may introduce:
/// coarser nets (larger `eps`) keep fewer points and lose more. In 2-D
/// the net is an angular grid whose spacing shrinks linearly in `eps`;
/// in higher dimensions the net size grows only linearly in `d/ε`, so
/// the bound is heuristic — the reduced build's shortfall stats and
/// `reduction_equivalence.rs` measure the loss actually achieved. Run it
/// after [`SkylineReducer`] (the [`crate::Reduction`] pipeline always
/// does) so the scan touches only skyline members.
#[derive(Debug, Clone, Copy)]
pub struct CoresetReducer {
    /// Declared regret target in `(0, 1)`.
    pub eps: f64,
}

impl CoresetReducer {
    /// Creates the stage, validating `eps`.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::InvalidParameter`] when `eps` is not in
    /// `(0, 1)`.
    pub fn new(eps: f64) -> Result<Self> {
        crate::ReduceSpec::coreset(eps).validate()?;
        Ok(CoresetReducer { eps })
    }

    /// The direction net for dimensionality `dim`: `dim` coordinate
    /// axes, the uniform direction, and `⌈dim/eps⌉` Kronecker simplex
    /// directions, flattened row-major (`dim` coordinates each).
    fn directions(&self, dim: usize) -> Vec<f64> {
        let mut dirs = Vec::new();
        // Coordinate axes: per-dimension maxima always survive.
        for j in 0..dim {
            let mut e = vec![0.0; dim];
            e[j] = 1.0;
            dirs.extend_from_slice(&e);
        }
        // The uniform direction.
        dirs.resize(dirs.len() + dim, 1.0 / dim as f64);
        if dim < 2 {
            return dirs;
        }
        // Kronecker low-discrepancy net on the simplex: the i-th point of
        // the sequence frac((i+1)·√p_j) over the first dim−1 primes,
        // mapped to simplex weights via sorted spacings. Deterministic
        // (pure arithmetic) and evenly spread for any count.
        const PRIMES: [u32; 8] = [2, 3, 5, 7, 11, 13, 17, 19];
        let count = (dim as f64 / self.eps).ceil() as usize;
        let alphas: Vec<f64> = (0..dim - 1)
            .map(|j| {
                let p = PRIMES[j % PRIMES.len()] as f64;
                // Re-rooting repeated primes keeps the coordinates
                // rationally independent past 8 dimensions.
                p.sqrt().powf(1.0 + (j / PRIMES.len()) as f64 * 0.5).fract()
            })
            .collect();
        let mut cuts = vec![0.0f64; dim - 1];
        for i in 0..count {
            for (j, a) in alphas.iter().enumerate() {
                cuts[j] = ((i + 1) as f64 * a).fract();
            }
            cuts.sort_by(f64::total_cmp);
            let mut prev = 0.0;
            for &c in cuts.iter() {
                dirs.push(c - prev);
                prev = c;
            }
            dirs.push(1.0 - prev);
        }
        dirs
    }
}

impl CandidateReducer for CoresetReducer {
    fn name(&self) -> &'static str {
        "coreset"
    }

    fn reduce(&self, dataset: &Dataset, candidates: &[usize]) -> Result<Vec<usize>> {
        check_candidates(dataset, candidates)?;
        crate::ReduceSpec::coreset(self.eps).validate()?;
        let dim = dataset.dim();
        let dirs = self.directions(dim);
        let mut keep = vec![false; candidates.len()];
        for dir in dirs.chunks_exact(dim) {
            // First-strict-argmax over candidates in ascending-id order:
            // ties keep the lowest original id, independent of net order.
            let mut best = 0usize;
            let mut best_v = f64::NEG_INFINITY;
            for (i, &c) in candidates.iter().enumerate() {
                let v = fam_core::kernels::dot(dir, dataset.point(c));
                if v > best_v {
                    best = i;
                    best_v = v;
                }
            }
            keep[best] = true;
        }
        Ok(candidates.iter().zip(&keep).filter_map(|(&c, &k)| k.then_some(c)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_geometry::skyline;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ds(rows: Vec<Vec<f64>>) -> Dataset {
        Dataset::from_rows(rows).unwrap()
    }

    fn random_ds(rng: &mut StdRng, n: usize, d: usize) -> Dataset {
        ds((0..n).map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()).collect())
    }

    #[test]
    fn skyline_reducer_matches_fam_geometry() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let n = rng.gen_range(2..120);
            let d = rng.gen_range(1..5);
            let data = random_ds(&mut rng, n, d);
            let all: Vec<usize> = (0..n).collect();
            let kept = SkylineReducer.reduce(&data, &all).unwrap();
            assert_eq!(kept, skyline(&data));
        }
    }

    #[test]
    fn skyline_reducer_on_subsets_prunes_within_the_subset_only() {
        // (0.5, 0.5) is dominated by (0.6, 0.6), but the subset below
        // excludes the dominator, so it survives a subset reduction.
        let data = ds(vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.6, 0.6],
            vec![0.5, 0.5],
            vec![0.2, 0.9],
        ]);
        let kept = SkylineReducer.reduce(&data, &[0, 1, 3]).unwrap();
        assert_eq!(kept, vec![0, 1, 3]);
        let kept = SkylineReducer.reduce(&data, &[0, 1, 2, 3]).unwrap();
        assert_eq!(kept, vec![0, 1, 2]);
    }

    #[test]
    fn candidate_validation() {
        let data = ds(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(SkylineReducer.reduce(&data, &[]).is_err());
        assert!(SkylineReducer.reduce(&data, &[0, 2]).is_err());
        assert!(SkylineReducer.reduce(&data, &[1, 0]).is_err(), "must be ascending");
        assert!(SkylineReducer.reduce(&data, &[0, 0]).is_err(), "must be strict");
        assert!(CoresetReducer::new(0.0).is_err());
        assert!(CoresetReducer::new(1.5).is_err());
    }

    #[test]
    fn coreset_keeps_extreme_points_and_shrinks() {
        let mut rng = StdRng::seed_from_u64(33);
        let n = 4000;
        let data = random_ds(&mut rng, n, 3);
        let sky = skyline(&data);
        let core = CoresetReducer::new(0.05).unwrap().reduce(&data, &sky).unwrap();
        assert!(!core.is_empty() && core.len() <= sky.len());
        assert!(core.iter().all(|c| sky.binary_search(c).is_ok()), "coreset ⊆ skyline");
        // Per-dimension maxima survive (axis directions are in the net).
        for j in 0..3 {
            let mut best = 0usize;
            let mut best_v = f64::NEG_INFINITY;
            for (i, p) in data.points().enumerate() {
                if p[j] > best_v {
                    best = i;
                    best_v = p[j];
                }
            }
            assert!(core.contains(&best), "axis-{j} maximum must be kept");
        }
        // Coarser eps keeps no more points than a finer one.
        let coarse = CoresetReducer::new(0.2).unwrap().reduce(&data, &sky).unwrap();
        assert!(coarse.len() <= core.len());
    }

    #[test]
    fn coreset_is_deterministic_and_order_canonical() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_ds(&mut rng, 500, 4);
        let sky = skyline(&data);
        let r = CoresetReducer::new(0.1).unwrap();
        let a = r.reduce(&data, &sky).unwrap();
        let b = r.reduce(&data, &sky).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending, strict");
    }

    #[test]
    fn one_dimensional_inputs_reduce_to_the_maxima() {
        let data = ds(vec![vec![0.3], vec![0.9], vec![0.9], vec![0.1]]);
        let all: Vec<usize> = (0..4).collect();
        let sky = SkylineReducer.reduce(&data, &all).unwrap();
        assert_eq!(sky, vec![1, 2], "duplicate maxima are mutually non-dominating");
        let core = CoresetReducer::new(0.05).unwrap().reduce(&data, &sky).unwrap();
        assert_eq!(core, vec![1], "first-strict-argmax keeps the lowest id");
    }
}
