//! Skyline (Pareto frontier) computation.
//!
//! The skyline is the set of points not dominated by any other point. It is
//! the shared preprocessing step of every algorithm in the paper: for any
//! monotone utility function the skyline contains a best point, so regret
//! ratios measured against the skyline equal those measured against the
//! full database.
//!
//! Three algorithms are provided: block-nested-loop ([`skyline_bnl`]),
//! sort-filter skyline ([`skyline_sfs`], usually much faster because
//! high-volume points are promoted to the comparison window early), and a
//! dedicated two-dimensional sweep ([`skyline_2d`]) behind a linear
//! bucket pre-filter, so only the few points the filter cannot rule out
//! are ever sorted.

use fam_core::Dataset;

use crate::dominance::{dom_compare, DomOrdering};

/// Block-nested-loop skyline. Returns the indices of skyline points,
/// ascending. Duplicate (coordinate-identical) points are all kept: by
/// Definition 6 of dominance, equal points do not dominate each other.
pub fn skyline_bnl(dataset: &Dataset) -> Vec<usize> {
    let mut window: Vec<usize> = Vec::new();
    'outer: for i in 0..dataset.len() {
        let p = dataset.point(i);
        let mut w = 0;
        while w < window.len() {
            match dom_compare(dataset.point(window[w]), p) {
                DomOrdering::Dominates => continue 'outer,
                DomOrdering::DominatedBy => {
                    window.swap_remove(w);
                }
                DomOrdering::Equal | DomOrdering::Incomparable => w += 1,
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

/// Sort-filter skyline: points are processed in descending order of their
/// coordinate sum, which guarantees that a point can only be dominated by
/// points already in the window, so nothing is ever evicted.
pub fn skyline_sfs(dataset: &Dataset) -> Vec<usize> {
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    let sums: Vec<f64> = dataset.points().map(|p| p.iter().sum()).collect();
    order.sort_by(|&a, &b| sums[b].total_cmp(&sums[a]));
    let mut window: Vec<usize> = Vec::new();
    'outer: for &i in &order {
        let p = dataset.point(i);
        for &w in &window {
            if dom_compare(dataset.point(w), p) == DomOrdering::Dominates {
                continue 'outer;
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

/// Buckets of [`skyline_2d`]'s x pre-filter. A fixed table: 32 KiB of
/// running maxima stays L1-resident while the points stream past it.
const X_BUCKETS: usize = 4096;

/// Dedicated 2-D skyline: a linear bucket pre-filter, then a sorted sweep
/// over the survivors only.
///
/// The filter buckets points by a monotone function of x (so a strictly
/// higher bucket means strictly larger x) and records each bucket's
/// largest y. A point whose y does not exceed the largest y of every
/// strictly higher bucket is dominated and dropped without ever being
/// sorted; on a million anti-correlated points about 1.6% survive.
/// The survivors go through the sweep: sort by first dimension
/// descending (second descending as tie-break) and keep points whose
/// second dimension strictly exceeds the running maximum — plus exact
/// duplicates of kept points, which are mutually non-dominating. A
/// dropped point would never have been kept by the sweep, and dropping
/// it changes neither the running maximum nor the last kept point, so
/// the result is the sweep's over all points.
///
/// # Panics
///
/// Panics if the dataset is not 2-dimensional.
pub fn skyline_2d(dataset: &Dataset) -> Vec<usize> {
    assert_eq!(dataset.dim(), 2, "skyline_2d requires a 2-dimensional dataset");
    let points = || dataset.as_flat().chunks_exact(2);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in points() {
        if p[0] < lo {
            lo = p[0];
        }
        if p[0] > hi {
            hi = p[0];
        }
    }
    // Clamping the scale keeps the product finite when the x-range is
    // zero or subnormal (`X_BUCKETS / range` overflows); every step —
    // subtract, multiply, saturating cast, clamp — is monotone in x.
    let scale = (X_BUCKETS as f64 / (hi - lo)).min(f64::MAX);
    let bucket = |x: f64| (((x - lo) * scale) as usize).min(X_BUCKETS - 1);
    let mut above = vec![f64::NEG_INFINITY; X_BUCKETS];
    for p in points() {
        let b = bucket(p[0]);
        if p[1] > above[b] {
            above[b] = p[1];
        }
    }
    // Turn per-bucket maxima into maxima over the strictly higher buckets.
    let mut run = f64::NEG_INFINITY;
    for slot in above.iter_mut().rev() {
        let top = *slot;
        *slot = run;
        if top > run {
            run = top;
        }
    }
    let mut survivors: Vec<(f64, f64, usize)> = points()
        .enumerate()
        .filter(|(_, p)| p[1] > above[bucket(p[0])])
        .map(|(i, p)| (p[0], p[1], i))
        .collect();
    survivors
        .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));
    let mut result = Vec::new();
    let mut best_y = f64::NEG_INFINITY;
    let mut prev: Option<(f64, f64)> = None;
    for &(x, y, i) in &survivors {
        if y > best_y {
            best_y = y;
            result.push(i);
            prev = Some((x, y));
        } else if prev == Some((x, y)) {
            // Exact duplicate of the last kept point: not dominated.
            result.push(i);
        }
    }
    result.sort_unstable();
    result
}

/// Computes the skyline with the best algorithm for the dimensionality:
/// [`skyline_2d`] (bucket pre-filter plus sweep, linear in `n` outside
/// the survivors' sort) when `d == 2`, [`skyline_sfs`] otherwise. Returns
/// ascending ids; this is what `fam-reduce` calls for a full-universe
/// skyline.
pub fn skyline(dataset: &Dataset) -> Vec<usize> {
    if dataset.dim() == 2 {
        skyline_2d(dataset)
    } else {
        skyline_sfs(dataset)
    }
}

/// For each point of `dataset`, the list of point indices it dominates.
/// `O(n·m·d)` where `m` is the number of `candidates`; used by the SKY-DOM
/// baseline with `candidates` = the skyline.
pub fn dominated_sets(dataset: &Dataset, candidates: &[usize]) -> Vec<Vec<usize>> {
    candidates
        .iter()
        .map(|&c| {
            let pc = dataset.point(c);
            (0..dataset.len())
                .filter(|&j| j != c && crate::dominance::dominates(pc, dataset.point(j)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(rows: Vec<Vec<f64>>) -> Dataset {
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn all_algorithms_agree_on_simple_case() {
        let d = ds(vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.6, 0.6],
            vec![0.5, 0.5], // dominated by (0.6, 0.6)
            vec![0.2, 0.9],
        ]);
        let expected = vec![0, 1, 2, 4];
        assert_eq!(skyline_bnl(&d), expected);
        assert_eq!(skyline_sfs(&d), expected);
        assert_eq!(skyline_2d(&d), expected);
        assert_eq!(skyline(&d), expected);
    }

    #[test]
    fn duplicates_are_all_kept() {
        let d = ds(vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![0.5, 0.5]]);
        assert_eq!(skyline_bnl(&d), vec![0, 1]);
        assert_eq!(skyline_sfs(&d), vec![0, 1]);
        assert_eq!(skyline_2d(&d), vec![0, 1]);
    }

    #[test]
    fn single_point_is_its_own_skyline() {
        let d = ds(vec![vec![0.3, 0.7]]);
        assert_eq!(skyline(&d), vec![0]);
    }

    #[test]
    fn totally_ordered_chain_keeps_only_top() {
        let d = ds(vec![vec![1.0, 1.0], vec![0.9, 0.9], vec![0.8, 0.8]]);
        assert_eq!(skyline_bnl(&d), vec![0]);
        assert_eq!(skyline_sfs(&d), vec![0]);
        assert_eq!(skyline_2d(&d), vec![0]);
    }

    #[test]
    fn anti_correlated_keeps_everything() {
        let d = ds(vec![vec![1.0, 0.0], vec![0.75, 0.25], vec![0.5, 0.5], vec![0.0, 1.0]]);
        assert_eq!(skyline_bnl(&d), vec![0, 1, 2, 3]);
        assert_eq!(skyline_2d(&d), vec![0, 1, 2, 3]);
    }

    #[test]
    fn higher_dimensional_skyline() {
        let d = ds(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.4, 0.4, 0.4],
            vec![0.3, 0.3, 0.3], // dominated
        ]);
        assert_eq!(skyline_bnl(&d), vec![0, 1, 2, 3]);
        assert_eq!(skyline_sfs(&d), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ties_in_first_dim_2d() {
        // (1, 2) is dominated by (1, 3).
        let d = ds(vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![2.0, 1.0]]);
        assert_eq!(skyline_2d(&d), vec![1, 2]);
        assert_eq!(skyline_bnl(&d), vec![1, 2]);
    }

    #[test]
    fn bnl_and_sfs_agree_on_random_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(1..80);
            let dim = rng.gen_range(1..5);
            let rows: Vec<Vec<f64>> =
                (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
            let d = ds(rows);
            let a = skyline_bnl(&d);
            let b = skyline_sfs(&d);
            assert_eq!(a, b);
            if dim == 2 {
                assert_eq!(a, skyline_2d(&d));
            }
        }
    }

    #[test]
    fn dominated_sets_cover_expected() {
        let d = ds(vec![vec![1.0, 0.8], vec![0.5, 0.5], vec![0.2, 0.9], vec![0.1, 0.1]]);
        let sky = skyline(&d);
        assert_eq!(sky, vec![0, 2]);
        let sets = dominated_sets(&d, &sky);
        assert_eq!(sets[0], vec![1, 3]); // (1,0.8) dominates (0.5,0.5) and (0.1,0.1)
        assert_eq!(sets[1], vec![3]); // (0.2,0.9) dominates (0.1,0.1)
    }
}
