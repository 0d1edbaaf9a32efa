//! Property-based tests for the core regret machinery.

use std::sync::Arc;

use fam_core::{
    regret, Dataset, LinearScores, LinearUtility, ScoreMatrix, ScoreSource, SelectionEvaluator,
    UtilityFunction,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn matrix_strategy(max_points: usize, max_users: usize) -> impl Strategy<Value = ScoreMatrix> {
    (2..=max_points, 1..=max_users).prop_flat_map(|(n, u)| {
        proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, n), u)
            .prop_map(|rows| ScoreMatrix::from_rows(rows, None).unwrap())
    })
}

fn weighted_matrix_strategy() -> impl Strategy<Value = ScoreMatrix> {
    (2usize..8, 2usize..8).prop_flat_map(|(n, u)| {
        (
            proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, n), u),
            proptest::collection::vec(0.01f64..1.0, u),
        )
            .prop_map(|(rows, w)| ScoreMatrix::from_rows(rows, Some(w)).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental evaluator agrees with direct recomputation after an
    /// arbitrary removal sequence.
    #[test]
    fn evaluator_matches_direct(m in matrix_strategy(10, 12), order_seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(order_seed);
        let mut ev = SelectionEvaluator::new_full(&m);
        let mut remaining: Vec<usize> = (0..m.n_points()).collect();
        while remaining.len() > 1 {
            let pos = rng.gen_range(0..remaining.len());
            let victim = remaining.swap_remove(pos);
            let predicted = ev.arr_without(victim);
            ev.remove(victim);
            prop_assert!((ev.arr() - predicted).abs() < 1e-9);
            let direct = regret::arr_unchecked(&m, &ev.selection());
            prop_assert!((ev.arr() - direct).abs() < 1e-9);
        }
    }

    /// `restrict_columns` preserves regret ratios measured against the
    /// restricted universe.
    #[test]
    fn restriction_consistency(m in matrix_strategy(8, 6)) {
        let keep: Vec<usize> = (0..m.n_points()).step_by(2).collect();
        prop_assume!(!keep.is_empty());
        // Skip rows that become all-zero under restriction.
        let ok = (0..m.n_samples()).all(|u| keep.iter().any(|&p| m.score(u, p) > 0.0));
        prop_assume!(ok);
        let r = m.restrict_columns(&keep).unwrap();
        // arr over all restricted columns is 0 by definition.
        let all: Vec<usize> = (0..r.n_points()).collect();
        prop_assert!(regret::arr_unchecked(&r, &all).abs() < 1e-12);
        // Per-sample best value matches the max over kept columns.
        for u in 0..r.n_samples() {
            let manual = keep.iter().map(|&p| m.score(u, p)).fold(0.0f64, f64::max);
            prop_assert!((r.best_value(u) - manual).abs() < 1e-12);
        }
    }

    /// Weighted arr is a convex combination of per-user regret ratios.
    #[test]
    fn weighted_arr_is_convex_combination(m in weighted_matrix_strategy()) {
        let sel = vec![0];
        let rrs = regret::rr_all(&m, &sel);
        let arr = regret::arr(&m, &sel).unwrap();
        let lo = rrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rrs.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(arr >= lo - 1e-12 && arr <= hi + 1e-12);
        // Weights sum to 1 after normalization.
        let total: f64 = m.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Adding any point to a selection never increases arr (Lemma 1),
    /// checked via evaluator addition deltas.
    #[test]
    fn addition_deltas_are_non_positive(m in matrix_strategy(9, 7)) {
        let mut ev = SelectionEvaluator::new_with(&m, &[0]);
        for p in 1..m.n_points() {
            prop_assert!(ev.addition_delta(p) <= 1e-12);
        }
        // And applying them matches the predicted value.
        for p in 1..m.n_points().min(4) {
            let predicted = ev.arr() + ev.addition_delta(p);
            ev.add(p);
            prop_assert!((ev.arr() - predicted).abs() < 1e-9);
        }
    }

    /// Best-in-D bookkeeping: the stored best value is genuinely maximal
    /// and positive.
    #[test]
    fn best_values_are_maximal(m in matrix_strategy(10, 10)) {
        for u in 0..m.n_samples() {
            let row = m.row(u);
            let manual = row.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!((m.best_value(u) - manual).abs() < 1e-15);
            prop_assert!(m.best_value(u) > 0.0);
            prop_assert!((row[m.best_index(u)] - manual).abs() < 1e-15);
        }
    }
}

// Properties of the dual-layout score substrate (point-major mirror).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The point-major mirror agrees with `score(u, p)` entry for entry,
    /// and `row_scores` lends exactly the sample-major rows.
    #[test]
    fn column_mirror_matches_scores(m in matrix_strategy(12, 12)) {
        use fam_core::ScoreSource;
        prop_assert!(m.has_column_mirror());
        for p in 0..m.n_points() {
            let col = m.column(p).expect("mirror present");
            prop_assert_eq!(col.len(), m.n_samples());
            for (u, &v) in col.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), m.score(u, p).to_bits());
            }
        }
        let mut buf = Vec::new();
        for u in 0..m.n_samples() {
            let row = m.row_scores(u, &mut buf);
            prop_assert!(std::ptr::eq(row, m.row(u)), "matrix rows are borrowed, not copied");
            for (p, &v) in row.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), m.score(u, p).to_bits());
            }
        }
    }

    /// Dropping the mirror changes layout only: every score, best value,
    /// and evaluator result is unchanged, `column` reports `None`, and
    /// `column_scores` gathers the column from the rows.
    #[test]
    fn mirrorless_matrix_is_equivalent(m in matrix_strategy(10, 10)) {
        use fam_core::ScoreSource;
        let bare = m.clone_without_mirror();
        prop_assert!(!bare.has_column_mirror());
        prop_assert!(bare.column(0).is_none());
        let mut buf = vec![0.0; bare.n_samples()];
        let gathered = ScoreSource::column_scores(&bare, 0, 0..bare.n_samples(), &mut buf).to_vec();
        prop_assert_eq!(&gathered[..], &buf[..], "a mirrorless column is gathered into the buffer");
        for (u, &v) in gathered.iter().enumerate() {
            prop_assert_eq!(v.to_bits(), m.score(u, 0).to_bits());
        }
        for u in 0..m.n_samples() {
            prop_assert_eq!(bare.best_value(u).to_bits(), m.best_value(u).to_bits());
            for p in 0..m.n_points() {
                prop_assert_eq!(bare.score(u, p).to_bits(), m.score(u, p).to_bits());
            }
        }
        let mut with = SelectionEvaluator::new_full(&m);
        let mut without = SelectionEvaluator::new_full(&bare);
        prop_assert_eq!(with.arr().to_bits(), without.arr().to_bits());
        for p in (0..m.n_points() - 1).rev() {
            prop_assert_eq!(
                with.removal_delta(p).to_bits(),
                without.removal_delta(p).to_bits()
            );
            with.remove(p);
            without.remove(p);
            prop_assert_eq!(with.arr().to_bits(), without.arr().to_bits());
        }
        // Additions exercise the columnar fast path against the probe path.
        for p in 1..m.n_points() - 1 {
            prop_assert_eq!(
                with.addition_delta(p).to_bits(),
                without.addition_delta(p).to_bits()
            );
            with.add(p);
            without.add(p);
            prop_assert_eq!(with.arr().to_bits(), without.arr().to_bits());
        }
    }

    /// A rebuilt mirror is identical to the one made at construction.
    #[test]
    fn rebuilt_mirror_roundtrips(m in matrix_strategy(9, 9)) {
        let mut bare = m.clone_without_mirror();
        bare.build_column_mirror();
        for p in 0..m.n_points() {
            prop_assert_eq!(m.column(p).unwrap(), bare.column(p).unwrap());
        }
    }
}

/// One linear instance on all three backings — mirrored, mirrorless and
/// compact — plus a selection with at least one member. Coordinates and
/// weights are uniform when `levels` is 0, else drawn from `levels`
/// evenly spaced values with some points duplicated, so scores tie
/// exactly.
fn runner_up_instance(
    seed: u64,
    levels: usize,
) -> (ScoreMatrix, ScoreMatrix, LinearScores, Vec<usize>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let draw = |rng: &mut rand::rngs::StdRng| -> f64 {
        if levels == 0 {
            rng.gen_range(0.01..1.0)
        } else {
            rng.gen_range(1..=levels) as f64 / levels as f64
        }
    };
    let (n, d, n_samples) =
        (rng.gen_range(2usize..12), rng.gen_range(1usize..4), rng.gen_range(1usize..40));
    let mut points: Vec<Vec<f64>> =
        (0..n).map(|_| (0..d).map(|_| draw(&mut rng)).collect()).collect();
    if levels > 0 {
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        points[to] = points[from].clone();
    }
    let weights: Vec<Vec<f64>> =
        (0..n_samples).map(|_| (0..d).map(|_| draw(&mut rng)).collect()).collect();
    let ds = Dataset::from_rows(points).unwrap();
    let functions: Vec<Arc<dyn UtilityFunction>> = weights
        .iter()
        .map(|w| Arc::new(LinearUtility::new(w.clone()).unwrap()) as Arc<dyn UtilityFunction>)
        .collect();
    let mirrored = ScoreMatrix::from_functions(&ds, &functions, None).unwrap();
    let mirrorless = mirrored.clone_without_mirror();
    let compact = LinearScores::from_weight_rows(ds, weights).unwrap();
    let k = rng.gen_range(1..n);
    let mut selection: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        selection.swap(i, rng.gen_range(0..=i));
    }
    selection.truncate(k);
    (mirrored, mirrorless, compact, selection)
}

/// Asserts, with no tolerance, that every non-member's runner-up bound
/// is at most its addition delta after the removal of each member.
fn assert_runner_up_bounds<S: ScoreSource + ?Sized>(m: &S, selection: &[usize], backing: &str) {
    let mut ev = SelectionEvaluator::new_with(m, selection);
    let outside: Vec<usize> = (0..m.n_points()).filter(|&p| !ev.contains(p)).collect();
    let bounds: Vec<f64> = outside.iter().map(|&p| ev.runner_up_addition_bound(p)).collect();
    for &q in selection {
        ev.remove(q);
        for (&p, &bound) in outside.iter().zip(&bounds) {
            let delta = ev.addition_delta(p);
            prop_assert!(bound <= delta, "{backing}: bound {bound} > delta {delta} (p={p}, q={q})");
        }
        ev.add(q);
        // The set is unchanged, and so are its bounds.
        for (&p, &bound) in outside.iter().zip(&bounds) {
            prop_assert_eq!(ev.runner_up_addition_bound(p).to_bits(), bound.to_bits());
        }
    }
}

// The runner-up bound that prunes local search's replacement scans.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `runner_up_addition_bound(p)` never exceeds `addition_delta(p)`
    /// after any one member is removed, compared as plain `f64`, on every
    /// backing.
    #[test]
    fn runner_up_bound_is_below_every_post_removal_delta(
        seed in 0u64..1_000_000,
        levels in 0usize..6,
    ) {
        let (mirrored, mirrorless, compact, selection) = runner_up_instance(seed, levels);
        assert_runner_up_bounds(&mirrored, &selection, "mirrored");
        assert_runner_up_bounds(&mirrorless, &selection, "mirrorless");
        assert_runner_up_bounds(&compact, &selection, "compact");
    }
}
