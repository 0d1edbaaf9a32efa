//! Regret, regret ratio, and their aggregates (Definitions 2–5).
//!
//! All metrics operate on a [`ScoreMatrix`](crate::ScoreMatrix) (or any
//! [`ScoreSource`]) and a selection of point
//! indices, computing Equation (1) of the paper (and its weighted analogue
//! for countable `F`, Definition 9).

use crate::error::Result;
use crate::scores::{MemberScores, ScoreSource};
use crate::stats;

/// `sat(S, f_u)` — the best score within the selection for sample `u`
/// (0 for the empty selection, per Definition 2).
#[inline]
pub fn sat<S: ScoreSource + ?Sized>(m: &S, u: usize, selection: &[usize]) -> f64 {
    SatScan::new(selection).sat(m, u)
}

/// Per-sample `sat(S, f_u)` over one selection: the member list and the
/// row scratch are built once and reused for every sample.
struct SatScan {
    members: Vec<u32>,
    buf: Vec<f64>,
}

impl SatScan {
    fn new(selection: &[usize]) -> Self {
        SatScan { members: selection.iter().map(|&p| p as u32).collect(), buf: Vec::new() }
    }

    /// `sat(S, f_u)`, reading the sample's scores through
    /// [`ScoreSource::member_scores`]: the same scores in list order
    /// whether the substrate lends its row or scores the members.
    fn sat<S: ScoreSource + ?Sized>(&mut self, m: &S, u: usize) -> f64 {
        match m.member_scores(u, &self.members, &mut self.buf) {
            MemberScores::Row(row) => {
                let members = &self.members;
                // fam-lint: allow(K001) -- reference implementation of Definition 2; the hot path is SelectionEvaluator's kernel scan, pinned bit-identical to this shape by evaluator tests
                members.iter().fold(0.0f64, |acc, &p| acc.max(row[p as usize]))
            }
            // fam-lint: allow(K001) -- the same reference shape over scores listed in member order
            MemberScores::Listed(scores) => scores.iter().fold(0.0f64, |acc, &s| acc.max(s)),
        }
    }
}

/// `rr(S, f_u)` — regret ratio of sample `u` with respect to the selection.
#[inline]
pub fn rr<S: ScoreSource + ?Sized>(m: &S, u: usize, selection: &[usize]) -> f64 {
    1.0 - sat(m, u, selection) / m.best_value(u)
}

/// Regret ratio of every sample, in sample order.
pub fn rr_all<S: ScoreSource + ?Sized>(m: &S, selection: &[usize]) -> Vec<f64> {
    let mut scan = SatScan::new(selection);
    m.best_values().iter().enumerate().map(|(u, &best)| 1.0 - scan.sat(m, u) / best).collect()
}

/// `arr(S)` — probability-weighted average regret ratio (Definition 4 /
/// Equation (1); Definition 9 when weights encode exact atom masses).
///
/// Validates the selection before computing.
///
/// # Errors
///
/// Returns an error if the selection is empty, out of bounds, or contains
/// duplicates.
pub fn arr<S: ScoreSource + ?Sized>(m: &S, selection: &[usize]) -> Result<f64> {
    validate_selection(m, selection)?;
    Ok(arr_unchecked(m, selection))
}

/// `arr(S)` without selection validation; also accepts the empty selection
/// (which has average regret ratio 1 by Definition 2).
pub fn arr_unchecked<S: ScoreSource + ?Sized>(m: &S, selection: &[usize]) -> f64 {
    let (w, best) = (m.weights(), m.best_values());
    let mut scan = SatScan::new(selection);
    let mut acc = 0.0;
    for (u, (&w, &best)) in w.iter().zip(best).enumerate() {
        acc += w * (1.0 - scan.sat(m, u) / best);
    }
    acc
}

/// `vrr(S)` — variance of the regret ratio (Definition 5).
///
/// # Errors
///
/// Returns an error for invalid selections.
pub fn vrr<S: ScoreSource + ?Sized>(m: &S, selection: &[usize]) -> Result<f64> {
    validate_selection(m, selection)?;
    let rrs = rr_all(m, selection);
    Ok(stats::weighted_variance(&rrs, m.weights()))
}

/// Standard deviation of the regret ratio (plotted in Figures 3 and 10).
///
/// # Errors
///
/// Returns an error for invalid selections.
pub fn rr_std_dev<S: ScoreSource + ?Sized>(m: &S, selection: &[usize]) -> Result<f64> {
    Ok(vrr(m, selection)?.sqrt())
}

/// Sampled maximum regret ratio `max_u rr(S, f_u)` — the k-regret objective
/// restricted to the sampled utility functions.
///
/// # Errors
///
/// Returns an error for invalid selections.
pub fn mrr_sampled<S: ScoreSource + ?Sized>(m: &S, selection: &[usize]) -> Result<f64> {
    validate_selection(m, selection)?;
    let bests = m.best_values().iter().enumerate();
    let mut scan = SatScan::new(selection);
    // fam-lint: allow(K001) -- mrr is a max (exact under any grouping), computed once per report, not per-candidate
    Ok(bests.fold(0.0f64, |acc, (u, &best)| acc.max(1.0 - scan.sat(m, u) / best)))
}

/// Regret ratio at the given user percentiles (the paper's "regret ratio
/// distribution" plots). Percentiles are in `[0, 100]`; users are weighted
/// by their probability mass.
///
/// # Errors
///
/// Returns an error for invalid selections.
pub fn rr_percentiles<S: ScoreSource + ?Sized>(
    m: &S,
    selection: &[usize],
    percentiles: &[f64],
) -> Result<Vec<f64>> {
    validate_selection(m, selection)?;
    let rrs = rr_all(m, selection);
    let mut pairs: Vec<(f64, f64)> = rrs.iter().copied().zip(m.weights().iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(percentiles.iter().map(|&q| stats::weighted_percentile_sorted(&pairs, q)).collect())
}

/// Summary of all regret metrics for one selection; convenient for
/// experiment harnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretReport {
    /// Average regret ratio.
    pub arr: f64,
    /// Variance of the regret ratio.
    pub vrr: f64,
    /// Standard deviation of the regret ratio.
    pub std_dev: f64,
    /// Maximum regret ratio over the samples.
    pub mrr: f64,
}

/// Computes a [`RegretReport`] in a single pass over the matrix.
///
/// # Errors
///
/// Returns an error for invalid selections.
pub fn report<S: ScoreSource + ?Sized>(m: &S, selection: &[usize]) -> Result<RegretReport> {
    validate_selection(m, selection)?;
    let mut mean = 0.0;
    let mut mrr = 0.0f64;
    let rrs = rr_all(m, selection);
    let w = m.weights();
    for (&w, &r) in w.iter().zip(&rrs) {
        mean += w * r;
        mrr = mrr.max(r);
    }
    let dev = |(&w, &r): (&f64, &f64)| w * (r - mean) * (r - mean);
    // fam-lint: allow(K001) -- diagnostic variance for reports; computed once per call and never compared across binaries
    let vrr = w.iter().zip(&rrs).map(dev).sum::<f64>();
    Ok(RegretReport { arr: mean, vrr, std_dev: vrr.sqrt(), mrr })
}

fn validate_selection<S: ScoreSource + ?Sized>(m: &S, selection: &[usize]) -> Result<()> {
    if selection.is_empty() {
        return Err(crate::error::FamError::InvalidK { k: 0, n: m.n_points() });
    }
    crate::selection::validate_indices(selection, m.n_points(), "selection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scores::ScoreMatrix;

    /// Table I of the paper.
    fn table_i() -> ScoreMatrix {
        ScoreMatrix::from_rows(
            vec![
                vec![0.9, 0.7, 0.2, 0.4], // Alex
                vec![0.6, 1.0, 0.5, 0.2], // Jerry
                vec![0.2, 0.6, 0.3, 1.0], // Tom
                vec![0.1, 0.2, 1.0, 0.9], // Sam
            ],
            None,
        )
        .unwrap()
    }

    #[test]
    fn paper_example_satisfaction() {
        // S = {Intercontinental, Hilton} = columns {2, 3}.
        let m = table_i();
        assert!((sat(&m, 0, &[2, 3]) - 0.4).abs() < 1e-12, "Alex's best in S is Hilton");
    }

    #[test]
    fn paper_example_arr() {
        // arr(S) with uniform probabilities = mean of per-user rr.
        let m = table_i();
        let s = [2, 3];
        let expected =
            ((1.0 - 0.4 / 0.9) + (1.0 - 0.5 / 1.0) + (1.0 - 1.0 / 1.0) + (1.0 - 1.0 / 1.0)) / 4.0;
        assert!((arr(&m, &s).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn full_database_has_zero_arr() {
        let m = table_i();
        let all = [0, 1, 2, 3];
        assert!(arr(&m, &all).unwrap().abs() < 1e-12);
        assert!(mrr_sampled(&m, &all).unwrap().abs() < 1e-12);
        assert!(rr_std_dev(&m, &all).unwrap().abs() < 1e-12);
    }

    #[test]
    fn empty_selection_has_arr_one() {
        let m = table_i();
        assert!((arr_unchecked(&m, &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arr_is_monotone_under_addition() {
        let m = table_i();
        let small = arr(&m, &[0]).unwrap();
        let bigger = arr(&m, &[0, 2]).unwrap();
        assert!(bigger <= small + 1e-12);
    }

    #[test]
    fn weighted_arr_uses_probabilities() {
        let m = ScoreMatrix::from_rows(vec![vec![1.0, 0.5], vec![0.5, 1.0]], Some(vec![0.9, 0.1]))
            .unwrap();
        // S = {0}: user0 rr=0 (w 0.9), user1 rr=0.5 (w 0.1).
        assert!((arr(&m, &[0]).unwrap() - 0.05).abs() < 1e-12);
        // S = {1}: user0 rr=0.5 (w 0.9), user1 rr=0.
        assert!((arr(&m, &[1]).unwrap() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn variance_and_std_dev() {
        let m = ScoreMatrix::from_rows(vec![vec![1.0, 0.5], vec![0.5, 1.0]], None).unwrap();
        // S = {0}: rr = [0, 0.5]; mean 0.25, var 0.0625, std 0.25.
        assert!((vrr(&m, &[0]).unwrap() - 0.0625).abs() < 1e-12);
        assert!((rr_std_dev(&m, &[0]).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_regret() {
        let m = table_i();
        let ps = rr_percentiles(&m, &[2, 3], &[0.0, 50.0, 100.0]).unwrap();
        // rr values: Alex 0.555..., Jerry 0.5, Tom 0, Sam 0 -> sorted [0,0,0.5,0.5556]
        assert!(ps[0].abs() < 1e-12);
        assert!((ps[1] - 0.0).abs() < 1e-12);
        assert!((ps[2] - (1.0 - 0.4 / 0.9)).abs() < 1e-12);
    }

    #[test]
    fn report_matches_individual_metrics() {
        let m = table_i();
        let sel = [1, 3];
        let rep = report(&m, &sel).unwrap();
        assert!((rep.arr - arr(&m, &sel).unwrap()).abs() < 1e-12);
        assert!((rep.vrr - vrr(&m, &sel).unwrap()).abs() < 1e-12);
        assert!((rep.mrr - mrr_sampled(&m, &sel).unwrap()).abs() < 1e-12);
        assert!((rep.std_dev - rep.vrr.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn selection_validation() {
        let m = table_i();
        assert!(arr(&m, &[]).is_err());
        assert!(arr(&m, &[9]).is_err());
        assert!(arr(&m, &[1, 1]).is_err());
        assert!(rr_percentiles(&m, &[], &[50.0]).is_err());
    }
}
