//! Multi-`k` solution harvesting: solve a whole range of output sizes in
//! one greedy trajectory.
//!
//! A serving layer answering `solve(k)` for many `k` (see the `fam-serve`
//! crate) would naively pay one full greedy run per cached size. Both
//! greedy directions make that redundant:
//!
//! * ADD-GREEDY's pick sequence does not depend on where it stops — the
//!   first `k` picks of a longer run *are* `add_greedy(m, k)` — and
//! * GREEDY-SHRINK's victim sequence does not depend on where it stops —
//!   the shrink from `n` to `k` passes through the exact states of every
//!   intermediate `greedy_shrink(m, k')` with `k' > k`.
//!
//! Both properties hold by construction, at the bit level. Each harvest
//! runs its cold solver's own lazy loop once, to the far end of the
//! range, and snapshots the evaluator after each pick: [`add_greedy_range`]
//! grows from the empty set to `ks.end()`, and [`greedy_shrink_range`]
//! shrinks from the full database to `ks.start()` (a cold GREEDY-SHRINK
//! is the same shrink with the one-size range `k..=k`). No step of either
//! loop depends on the target size, so each entry holds the same
//! selection, objective bits and evaluation counts as a cold solve at its
//! size. `tests::*_range_matches_cold_solves` pins selections and
//! objective bits against per-`k` cold runs, and the registry's tests pin
//! every note; the serving layer's result cache leans on that contract to
//! serve cached answers indistinguishable from fresh solves.

use fam_core::solve::QueryTimer;
use std::ops::RangeInclusive;

use fam_core::{FamError, Result, ScoreSource, Selection, SelectionEvaluator};

use crate::greedy_shrink::{shrink_cached, GreedyShrinkOutput};

fn validate_range<S: ScoreSource + ?Sized>(m: &S, ks: &RangeInclusive<usize>) -> Result<()> {
    let (lo, hi) = (*ks.start(), *ks.end());
    let n = m.n_points();
    if lo == 0 || hi > n {
        return Err(FamError::InvalidK { k: if lo == 0 { lo } else { hi }, n });
    }
    if lo > hi {
        return Err(FamError::InvalidParameter {
            name: "ks",
            message: format!("empty k-range {lo}..={hi}"),
        });
    }
    Ok(())
}

/// Runs one ADD-GREEDY trajectory from the empty set up to `ks.end()`,
/// returning the selection at every size in `ks` (ascending). Each entry
/// is bit-identical — indices and objective — to `add_greedy(m, k)`.
///
/// # Errors
///
/// Returns an error when the range is empty, starts at zero, or exceeds
/// the number of points.
pub fn add_greedy_range<S: ScoreSource + ?Sized>(
    m: &S,
    ks: RangeInclusive<usize>,
) -> Result<Vec<Selection>> {
    Ok(add_greedy_range_counted(m, ks)?.into_iter().map(|(sel, _)| sel).collect())
}

/// [`add_greedy_range`] plus, per entry, the `arr` evaluations the
/// trajectory had spent when it reached that size — exactly what a cold
/// `add_greedy(m, k)` spends, since the cold run is the trajectory's
/// first `k` iterations.
pub(crate) fn add_greedy_range_counted<S: ScoreSource + ?Sized>(
    m: &S,
    ks: RangeInclusive<usize>,
) -> Result<Vec<(Selection, u64)>> {
    validate_range(m, &ks)?;
    let start = QueryTimer::start();
    let mut ev = SelectionEvaluator::new_with(m, &[]);
    let mut out = Vec::with_capacity(ks.end() - ks.start() + 1);
    let lo = *ks.start();
    crate::lazy::grow(&mut ev, *ks.end(), |ev, evaluations| {
        if ev.len() >= lo {
            let sel = Selection::new(ev.selection(), "add-greedy")
                .with_objective(ev.arr())
                .with_query_time(start.elapsed());
            out.push((sel, evaluations));
        }
    });
    Ok(out)
}

/// Runs one GREEDY-SHRINK trajectory from the full database down to
/// `ks.start()`, returning the selection at every size in `ks`
/// (ascending). Each entry is bit-identical — indices and objective — to
/// `greedy_shrink(m, GreedyShrinkConfig::new(k))`.
///
/// # Errors
///
/// Returns an error when the range is empty, starts at zero, or exceeds
/// the number of points.
pub fn greedy_shrink_range<S: ScoreSource + ?Sized>(
    m: &S,
    ks: RangeInclusive<usize>,
) -> Result<Vec<Selection>> {
    Ok(greedy_shrink_range_counted(m, ks)?.into_iter().map(|out| out.selection).collect())
}

/// [`greedy_shrink_range`] with each entry's instrumentation: the
/// iterations, `arr` evaluations and averages a cold
/// `greedy_shrink(m, GreedyShrinkConfig::new(k))` reports.
pub(crate) fn greedy_shrink_range_counted<S: ScoreSource + ?Sized>(
    m: &S,
    ks: RangeInclusive<usize>,
) -> Result<Vec<GreedyShrinkOutput>> {
    validate_range(m, &ks)?;
    Ok(shrink_cached(m, None, ks, true, "greedy-shrink"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::add_greedy::add_greedy;
    use crate::greedy_shrink::{greedy_shrink, GreedyShrinkConfig};
    use fam_core::ScoreMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, n_samples: usize, n_points: usize) -> ScoreMatrix {
        let rows: Vec<Vec<f64>> = (0..n_samples)
            .map(|_| (0..n_points).map(|_| rng.gen_range(0.01..1.0)).collect())
            .collect();
        ScoreMatrix::from_rows(rows, None).unwrap()
    }

    #[test]
    fn add_greedy_range_matches_cold_solves() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let n = rng.gen_range(6..30);
            let hi = rng.gen_range(1..=n);
            let lo = rng.gen_range(1..=hi);
            let m = random_matrix(&mut rng, 50, n);
            let range = add_greedy_range(&m, lo..=hi).unwrap();
            assert_eq!(range.len(), hi - lo + 1);
            for (i, sel) in range.iter().enumerate() {
                let k = lo + i;
                let cold = add_greedy(&m, k).unwrap();
                assert_eq!(sel.indices, cold.indices, "trial {trial}: k={k} of {lo}..={hi}");
                assert_eq!(
                    sel.objective.unwrap().to_bits(),
                    cold.objective.unwrap().to_bits(),
                    "trial {trial}: k={k} objective bits"
                );
            }
        }
    }

    #[test]
    fn greedy_shrink_range_matches_cold_solves() {
        let mut rng = StdRng::seed_from_u64(32);
        for trial in 0..6 {
            let n = rng.gen_range(6..30);
            let hi = rng.gen_range(1..=n);
            let lo = rng.gen_range(1..=hi);
            let m = random_matrix(&mut rng, 50, n);
            let range = greedy_shrink_range(&m, lo..=hi).unwrap();
            assert_eq!(range.len(), hi - lo + 1);
            for (i, sel) in range.iter().enumerate() {
                let k = lo + i;
                let cold = greedy_shrink(&m, GreedyShrinkConfig::new(k)).unwrap();
                assert_eq!(
                    sel.indices, cold.selection.indices,
                    "trial {trial}: k={k} of {lo}..={hi}"
                );
                assert_eq!(
                    sel.objective.unwrap().to_bits(),
                    cold.selection.objective.unwrap().to_bits(),
                    "trial {trial}: k={k} objective bits"
                );
            }
        }
    }

    #[test]
    fn full_width_ranges_cover_every_k() {
        let mut rng = StdRng::seed_from_u64(33);
        let m = random_matrix(&mut rng, 30, 9);
        let grown = add_greedy_range(&m, 1..=9).unwrap();
        let shrunk = greedy_shrink_range(&m, 1..=9).unwrap();
        assert_eq!(grown.len(), 9);
        assert_eq!(shrunk.len(), 9);
        for (i, (g, s)) in grown.iter().zip(&shrunk).enumerate() {
            assert_eq!(g.len(), i + 1);
            assert_eq!(s.len(), i + 1);
        }
        // k = n: both directions select everything with zero regret.
        assert_eq!(grown[8].indices, (0..9).collect::<Vec<_>>());
        assert_eq!(shrunk[8].indices, (0..9).collect::<Vec<_>>());
        assert!(shrunk[8].objective.unwrap().abs() < 1e-12);
    }

    #[test]
    fn invalid_ranges_are_rejected() {
        let mut rng = StdRng::seed_from_u64(34);
        let m = random_matrix(&mut rng, 10, 5);
        assert!(add_greedy_range(&m, 0..=3).is_err());
        assert!(add_greedy_range(&m, 1..=6).is_err());
        assert!(greedy_shrink_range(&m, 0..=3).is_err());
        assert!(greedy_shrink_range(&m, 2..=6).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(add_greedy_range(&m, 4..=2).is_err());
            assert!(greedy_shrink_range(&m, 4..=2).is_err());
        }
    }
}
