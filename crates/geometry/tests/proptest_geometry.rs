//! Property-based tests for the geometric substrates.

use fam_core::Dataset;
use fam_geometry::{
    dom_compare, dominates, skyline_2d, skyline_bnl, skyline_sfs, switch_angle, utility_at_angle,
    BitSet, DomOrdering, Envelope, HALF_PI,
};
use proptest::prelude::*;

fn dataset_strategy(max_n: usize, dim: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, dim), 1..=max_n)
        .prop_map(|rows| Dataset::from_rows(rows).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Skyline soundness: no returned point is dominated by any point.
    /// Completeness: every omitted point is dominated by someone.
    #[test]
    fn skyline_sound_and_complete(ds in dataset_strategy(40, 3)) {
        let sky = skyline_sfs(&ds);
        let in_sky = |i: usize| sky.binary_search(&i).is_ok();
        for i in 0..ds.len() {
            let dominated = (0..ds.len())
                .any(|j| j != i && dominates(ds.point(j), ds.point(i)));
            if in_sky(i) {
                prop_assert!(!dominated, "skyline point {} is dominated", i);
            } else {
                prop_assert!(dominated, "non-skyline point {} is undominated", i);
            }
        }
    }

    /// The three skyline algorithms agree.
    #[test]
    fn skyline_algorithms_agree(ds in dataset_strategy(60, 2)) {
        let a = skyline_bnl(&ds);
        let b = skyline_sfs(&ds);
        let c = skyline_2d(&ds);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// On coordinates quantized to multiples of 1/8, duplicates and runs
    /// of equal x are the rule, and every run sits on an edge of
    /// `skyline_2d`'s bucket table: its pre-filter must still drop only
    /// dominated points and keep every duplicate of a skyline point.
    #[test]
    fn skyline_2d_matches_bnl_on_quantized_coordinates(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..=8, 2), 1..=200),
    ) {
        let ds = Dataset::from_rows(
            rows.iter().map(|r| r.iter().map(|&q| f64::from(q) / 8.0).collect()).collect(),
        )
        .unwrap();
        prop_assert_eq!(skyline_2d(&ds), skyline_bnl(&ds));
    }

    /// Dominance is a strict partial order: irreflexive, asymmetric,
    /// transitive.
    #[test]
    fn dominance_is_strict_partial_order(ds in dataset_strategy(12, 3)) {
        let n = ds.len();
        for i in 0..n {
            prop_assert!(!dominates(ds.point(i), ds.point(i)));
            for j in 0..n {
                if dominates(ds.point(i), ds.point(j)) {
                    prop_assert!(!dominates(ds.point(j), ds.point(i)));
                    for k in 0..n {
                        if dominates(ds.point(j), ds.point(k)) {
                            prop_assert!(dominates(ds.point(i), ds.point(k)));
                        }
                    }
                }
            }
        }
    }

    /// `dom_compare` is consistent with `dominates` in both directions.
    #[test]
    fn dom_compare_consistent(
        a in proptest::collection::vec(0.0f64..1.0, 4),
        b in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        match dom_compare(&a, &b) {
            DomOrdering::Dominates => prop_assert!(dominates(&a, &b)),
            DomOrdering::DominatedBy => prop_assert!(dominates(&b, &a)),
            DomOrdering::Equal => prop_assert_eq!(&a, &b),
            DomOrdering::Incomparable => {
                prop_assert!(!dominates(&a, &b) && !dominates(&b, &a));
            }
        }
    }

    /// The envelope returns a maximizer at every probed angle.
    #[test]
    fn envelope_is_optimal_everywhere(ds in dataset_strategy(30, 2), steps in 1usize..50) {
        let env = Envelope::build(&ds);
        for s in 0..=steps {
            let theta = HALF_PI * s as f64 / steps as f64;
            let best = env.best_at(theta);
            let vb = utility_at_angle(ds.point(best), theta);
            for p in ds.points() {
                prop_assert!(utility_at_angle(p, theta) <= vb + 1e-9);
            }
        }
    }

    /// Switch angles sit exactly at the preference boundary.
    #[test]
    fn switch_angle_is_the_boundary(
        ax in 0.01f64..1.0, ay in 0.0f64..1.0, dx in 0.001f64..0.5, dy in 0.001f64..0.5,
    ) {
        // Construct b with smaller x, larger y.
        let a = [ax + dx, ay];
        let b = [ax, ay + dy];
        let t = switch_angle(&a, &b);
        prop_assert!((0.0..=HALF_PI).contains(&t));
        let ua = utility_at_angle(&a, t);
        let ub = utility_at_angle(&b, t);
        prop_assert!((ua - ub).abs() < 1e-9, "utilities at switch differ: {} vs {}", ua, ub);
    }

    /// Bitset union/gain counts agree with a reference set implementation.
    #[test]
    fn bitset_counts_match_reference(
        xs in proptest::collection::btree_set(0usize..300, 0..40),
        ys in proptest::collection::btree_set(0usize..300, 0..40),
    ) {
        let a = BitSet::from_indices(300, &xs.iter().copied().collect::<Vec<_>>());
        let b = BitSet::from_indices(300, &ys.iter().copied().collect::<Vec<_>>());
        let union: std::collections::BTreeSet<_> = xs.union(&ys).copied().collect();
        prop_assert_eq!(a.union_count(&b), union.len());
        prop_assert_eq!(a.gain_count(&b), ys.difference(&xs).count());
        let ones: Vec<usize> = a.iter_ones().collect();
        prop_assert_eq!(ones, xs.iter().copied().collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The skyline is a property of the point *set*: permuting the input
    /// rows permutes the skyline indices and changes nothing else. The
    /// candidate-reduction layer leans on this — a reduced universe must
    /// not depend on storage order beyond the id relabeling.
    #[test]
    fn skyline_is_invariant_under_input_permutation(
        ds in dataset_strategy(40, 3),
        shift in 1usize..37,
    ) {
        let n = ds.len();
        // A coprime stride visits every slot: perm[new] = old.
        let stride = if n % 37 == 0 { 1 } else { 37 };
        let perm: Vec<usize> = (0..n).map(|i| (shift + i * stride) % n).collect();
        let shuffled =
            Dataset::from_rows(perm.iter().map(|&old| ds.point(old).to_vec()).collect()).unwrap();
        let base = skyline_sfs(&ds);
        let moved = skyline_sfs(&shuffled);
        // Map the shuffled skyline back into original ids.
        let mut back: Vec<usize> = moved.iter().map(|&new| perm[new]).collect();
        back.sort_unstable();
        prop_assert_eq!(&back, &base);
    }
}

fn ds2(rows: &[[f64; 2]]) -> Dataset {
    Dataset::from_rows(rows.iter().map(|r| r.to_vec()).collect()).unwrap()
}

/// `skyline_2d` against the block-nested-loop reference.
fn assert_2d_matches_bnl(ds: &Dataset) {
    assert_eq!(skyline_2d(ds), skyline_bnl(ds));
}

#[test]
fn skyline_2d_with_every_x_equal() {
    // A zero x-range puts every point in one bucket; only the largest y
    // (and its duplicates) survive.
    let ds = ds2(&[[0.5, 0.1], [0.5, 0.9], [0.5, 0.3], [0.5, 0.9]]);
    assert_eq!(skyline_2d(&ds), vec![1, 3]);
    assert_2d_matches_bnl(&ds);
}

#[test]
fn skyline_2d_with_a_one_ulp_x_range() {
    let lo = 0.75f64;
    let hi = f64::from_bits(lo.to_bits() + 1);
    let ds = ds2(&[[lo, 0.9], [hi, 0.2], [lo, 0.1], [hi, 0.2], [lo, 0.95]]);
    assert_eq!(skyline_2d(&ds), vec![1, 3, 4]);
    assert_2d_matches_bnl(&ds);
}

#[test]
fn skyline_2d_with_a_subnormal_x_range() {
    // `buckets / range` overflows to infinity here; the clamped scale
    // must still map x monotonically into the table.
    let tiny = f64::from_bits(1);
    let ds = ds2(&[
        [0.0, 0.4],
        [tiny, 0.3],
        [2.0 * tiny, 0.2],
        [tiny, 0.5],
        [0.0, 0.6],
        [2.0 * tiny, 0.2],
    ]);
    assert_eq!(skyline_2d(&ds), vec![2, 3, 4, 5]);
    assert_2d_matches_bnl(&ds);
}

#[test]
fn skyline_2d_of_a_single_point() {
    assert_eq!(skyline_2d(&ds2(&[[0.3, 0.7]])), vec![0]);
}

#[test]
fn skyline_2d_matches_sfs_on_a_large_anti_correlated_set() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2019);
    let rows: Vec<Vec<f64>> = (0..100_000)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y = (1.0 - x + rng.gen_range(-0.05f64..0.05)).clamp(0.0, 1.0);
            vec![x, y]
        })
        .collect();
    let ds = Dataset::from_rows(rows).unwrap();
    let sky = skyline_2d(&ds);
    assert!(sky.len() > 10 && sky.len() < 5_000, "skyline of {} points", sky.len());
    assert_eq!(sky, skyline_sfs(&ds));
}
