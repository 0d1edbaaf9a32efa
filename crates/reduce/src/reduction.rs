//! The composed reduction pipeline and its result: original-id
//! bookkeeping, the skyline-sourced score-matrix build, output
//! remapping, and incremental repair under dynamic updates.

use std::ops::Range;
use std::sync::Arc;

use fam_core::solve::{ReduceKind, SolveOutput};
use fam_core::{
    kernels, Dataset, FamError, LinearScores, Result, ScoreBacking, ScoreMatrix, ScoreSource,
    TiledBuildStats, UtilityFunction,
};
use fam_geometry::dominance::{dom_compare, DomOrdering};

use crate::reducers::{CandidateReducer, CoresetReducer};
use crate::ReduceSpec;

/// The result of running a [`ReduceSpec`] pipeline over a dataset: which
/// original points survived, stage by stage, plus the remap every
/// consumer applies so callers only ever see original point ids.
///
/// `kept` is strictly ascending, so reduced index `j` corresponds to
/// original id `kept[j]` and the remap preserves the sortedness of
/// selections.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    spec: ReduceSpec,
    source_len: usize,
    /// Stage-1 (skyline) survivors — equals `kept` unless a coreset
    /// stage ran. Retained so dynamic repair can maintain the exact
    /// skyline and re-derive the coreset from it.
    skyline: Vec<usize>,
    /// Final kept original ids, ascending.
    kept: Vec<usize>,
}

/// What [`Reduction::repair`] decided about an update batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ReductionRepair {
    /// The reduction was repaired incrementally; the result is identical
    /// to a fresh [`Reduction::compute`] over the updated dataset.
    Repaired(Reduction),
    /// A kept (skyline) point was deleted — the skyline can only grow
    /// back from points the reduction no longer tracks, so the caller
    /// must recompute from scratch.
    Recompute,
}

impl Reduction {
    /// Runs the spec's stage pipeline over `dataset`.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty dataset or an invalid spec.
    pub fn compute(dataset: &Dataset, spec: ReduceSpec) -> Result<Reduction> {
        spec.validate()?;
        let n = dataset.len();
        if n == 0 {
            return Err(FamError::EmptyDataset);
        }
        // The full-universe skyline needs no candidate list: the
        // dimension-dispatched algorithm reads the dataset directly.
        let (skyline, kept) = match spec.kind {
            ReduceKind::None => {
                let all: Vec<usize> = (0..n).collect();
                (all.clone(), all)
            }
            ReduceKind::Skyline => {
                let sky = fam_geometry::skyline(dataset);
                (sky.clone(), sky)
            }
            ReduceKind::Coreset => {
                let sky = fam_geometry::skyline(dataset);
                let core = CoresetReducer::new(spec.eps)?.reduce(dataset, &sky)?;
                (sky, core)
            }
        };
        Ok(Reduction { spec, source_len: n, skyline, kept })
    }

    /// Scores the kept universe under `functions` into a dense matrix
    /// and reports the shortfall stats: the build
    /// [`Reduction::backing`] runs for a population that is not linear.
    ///
    /// Only the skyline is scored: it is the source of
    /// [`ScoreMatrix::from_functions_tiled`], with the kept ids'
    /// positions inside the skyline as `keep`. No dominated point is
    /// touched. For a monotone utility the skyline holds a point scoring
    /// exactly the full database's best, and the max is exact, so rows,
    /// bests and stats are bit-identical to the full-stream
    /// `from_functions_tiled(full, functions, None, self.kept())` —
    /// pinned by `reduction_equivalence.rs` and the reduce bench. The
    /// stats report `source_points = full.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::InvalidParameter`] (`reduce`) before scoring
    /// anything when a function is not monotone
    /// ([`UtilityFunction::is_monotone`]): dominance pruning is unsound
    /// for it (and an index-based table would be read at skyline
    /// positions). Returns [`FamError::DimensionMismatch`] when `full` is
    /// not the dataset this reduction was computed over, and the build's
    /// own errors otherwise.
    pub fn score_matrix(
        &self,
        full: &Dataset,
        functions: &[Arc<dyn UtilityFunction>],
    ) -> Result<(ScoreMatrix, TiledBuildStats)> {
        self.check_scoring(full, functions)?;
        let keep: Vec<usize> = self
            .kept
            .iter()
            .map(|id| self.skyline.binary_search(id).expect("kept ids are skyline members"))
            .collect();
        let skyline = full.subset(&self.skyline)?;
        let (matrix, stats) = ScoreMatrix::from_functions_tiled(&skyline, functions, None, &keep)?;
        Ok((matrix, TiledBuildStats { source_points: full.len(), ..stats }))
    }

    /// The compact twin of [`Reduction::score_matrix`]: a
    /// [`LinearScores`] over the kept points (in `kept` order) and the
    /// same [`TiledBuildStats`] bits. The kept scores, bests and errors
    /// equal the matrix build's ([`LinearScores::from_functions`]); each
    /// sample's full-database best is its best over the skyline, the
    /// same exact max the tiled build folds. Nothing `N × n` is ever
    /// materialized.
    ///
    /// # Errors
    ///
    /// As [`Reduction::score_matrix`], plus
    /// [`FamError::InvalidParameter`] for a non-linear function.
    pub fn linear_scores(
        &self,
        full: &Dataset,
        functions: &[Arc<dyn UtilityFunction>],
    ) -> Result<(LinearScores, TiledBuildStats)> {
        self.check_scoring(full, functions)?;
        let scores = LinearScores::from_functions(full.subset(&self.kept)?, functions)?;
        let skyline = full.subset(&self.skyline)?;
        let (flat, d) = (skyline.as_flat(), skyline.dim());
        let full_best = fam_core::par::map_adaptive(scores.n_samples(), flat.len(), |samples| {
            samples
                .map(|u| kernels::linear_best(scores.weight_vector(u), flat, d).1)
                .collect::<Vec<_>>()
        })
        .concat();
        let stats = TiledBuildStats::from_bests(
            full.len(),
            self.kept.len(),
            &full_best,
            ScoreSource::best_values(&scores),
        );
        Ok((scores, stats))
    }

    /// Scores the kept universe under `functions` in the store
    /// [`ScoreBacking::from_functions`] would pick, with the same test
    /// ([`ScoreBacking::fits_linear`]): [`Reduction::linear_scores`] for
    /// a linear population, [`Reduction::score_matrix`] otherwise. Both
    /// report the same stats bits and the same errors, so the choice
    /// changes only time and memory. This is the build every reduced
    /// caller runs (the engine builder, `fam solve --param reduce=…`).
    ///
    /// # Errors
    ///
    /// As [`Reduction::score_matrix`].
    pub fn backing(
        &self,
        full: &Dataset,
        functions: &[Arc<dyn UtilityFunction>],
    ) -> Result<(ScoreBacking, TiledBuildStats)> {
        if ScoreBacking::fits_linear(functions, full.dim()) {
            let (scores, stats) = self.linear_scores(full, functions)?;
            Ok((ScoreBacking::Linear(scores), stats))
        } else {
            let (matrix, stats) = self.score_matrix(full, functions)?;
            Ok((ScoreBacking::Dense(matrix), stats))
        }
    }

    /// The checks both builds run before scoring anything: `full` is the
    /// dataset this reduction was computed over, and every function is
    /// monotone.
    fn check_scoring(&self, full: &Dataset, functions: &[Arc<dyn UtilityFunction>]) -> Result<()> {
        if full.len() != self.source_len {
            return Err(FamError::DimensionMismatch { expected: self.source_len, got: full.len() });
        }
        if let Some(u) = functions.iter().position(|f| !f.is_monotone()) {
            return Err(FamError::InvalidParameter {
                name: "reduce",
                message: format!(
                    "the `{}` reduction needs monotone utilities, but sample {u} is a `{}` \
                     function; build without reduction",
                    self.fingerprint(),
                    functions[u].kind()
                ),
            });
        }
        Ok(())
    }

    /// The spec this reduction was computed under.
    pub fn spec(&self) -> ReduceSpec {
        self.spec
    }

    /// Cache-key component; see [`ReduceSpec::fingerprint`].
    pub fn fingerprint(&self) -> String {
        self.spec.fingerprint()
    }

    /// Final kept original ids, strictly ascending.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Points in the dataset the reduction was computed over.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Stage-1 (skyline) survivor count.
    pub fn skyline_len(&self) -> usize {
        self.skyline.len()
    }

    /// `kept / source` — the fraction of the universe solvers still see.
    pub fn kept_fraction(&self) -> f64 {
        self.kept.len() as f64 / self.source_len as f64
    }

    /// Materializes the reduced dataset (labels carried along).
    ///
    /// # Errors
    ///
    /// Returns an error when `full` is not the dataset this reduction
    /// was computed over (length mismatch).
    pub fn restrict_dataset(&self, full: &Dataset) -> Result<Dataset> {
        if full.len() != self.source_len {
            return Err(FamError::DimensionMismatch { expected: self.source_len, got: full.len() });
        }
        full.subset(&self.kept)
    }

    /// Maps original point ids into the reduced index space — the inbound
    /// remap for warm-start seeds.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::InvalidParameter`] when an id was pruned by
    /// the reduction (callers should re-seed or solve with
    /// `reduce=none`), [`FamError::IndexOutOfBounds`] when it never
    /// existed.
    pub fn to_reduced(&self, original: &[usize]) -> Result<Vec<usize>> {
        original
            .iter()
            .map(|&id| {
                if id >= self.source_len {
                    return Err(FamError::IndexOutOfBounds { index: id, len: self.source_len });
                }
                self.kept.binary_search(&id).map_err(|_| FamError::InvalidParameter {
                    name: "seed",
                    message: format!(
                        "seed point {id} was pruned by the `{}` reduction; \
                         re-seed from kept points or solve with reduce=none",
                        self.fingerprint()
                    ),
                })
            })
            .collect()
    }

    /// Maps one reduced index back to its original id.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::IndexOutOfBounds`] for an index outside the
    /// kept universe.
    pub fn to_original(&self, reduced: usize) -> Result<usize> {
        self.kept
            .get(reduced)
            .copied()
            .ok_or(FamError::IndexOutOfBounds { index: reduced, len: self.kept.len() })
    }

    /// Rewrites a solver output produced on the reduced universe so its
    /// selection carries original point ids. Ascending order is preserved
    /// (the remap is strictly monotone); the objective value and notes
    /// are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::IndexOutOfBounds`] when the output indexes
    /// outside the kept universe.
    pub fn remap_output(&self, out: &mut SolveOutput) -> Result<()> {
        for idx in &mut out.selection.indices {
            *idx = self
                .kept
                .get(*idx)
                .copied()
                .ok_or(FamError::IndexOutOfBounds { index: *idx, len: self.kept.len() })?;
        }
        Ok(())
    }

    /// Incrementally repairs the reduction after a dynamic update batch,
    /// given the updated dataset, the old→new id remap (`None` =
    /// deleted, swap-remove semantics), and the new-id range of appended
    /// points.
    ///
    /// Deleting a non-kept point never changes the skyline; an inserted
    /// point joins the skyline window unless a member dominates it, and
    /// evicts members it dominates (exact by transitivity of dominance).
    /// A coreset stage is then re-derived from the repaired skyline, so a
    /// [`ReductionRepair::Repaired`] result is **identical** to a fresh
    /// [`Reduction::compute`] over the updated dataset. Deleting a
    /// skyline member surfaces points the reduction no longer tracks —
    /// that returns [`ReductionRepair::Recompute`] instead of guessing.
    ///
    /// # Errors
    ///
    /// Returns an error when `remap` does not cover the pre-update
    /// universe or the mapped/appended ids fall outside `after`.
    pub fn repair(
        &self,
        after: &Dataset,
        remap: &[Option<u32>],
        appended: Range<usize>,
    ) -> Result<ReductionRepair> {
        if remap.len() != self.source_len {
            return Err(FamError::DimensionMismatch {
                expected: self.source_len,
                got: remap.len(),
            });
        }
        let mut window = Vec::with_capacity(self.skyline.len() + appended.len());
        for &old in &self.skyline {
            match remap[old] {
                Some(new) => {
                    let new = new as usize;
                    if new >= after.len() {
                        return Err(FamError::IndexOutOfBounds { index: new, len: after.len() });
                    }
                    window.push(new);
                }
                None => return Ok(ReductionRepair::Recompute),
            }
        }
        for id in appended.clone() {
            if id >= after.len() {
                return Err(FamError::IndexOutOfBounds { index: id, len: after.len() });
            }
            let p = after.point(id);
            let mut dominated = false;
            let mut w = 0;
            while w < window.len() {
                match dom_compare(after.point(window[w]), p) {
                    DomOrdering::Dominates => {
                        dominated = true;
                        break;
                    }
                    DomOrdering::DominatedBy => {
                        window.swap_remove(w);
                    }
                    DomOrdering::Equal | DomOrdering::Incomparable => w += 1,
                }
            }
            if !dominated {
                window.push(id);
            }
        }
        window.sort_unstable();
        let kept = match self.spec.kind {
            ReduceKind::Coreset => CoresetReducer::new(self.spec.eps)?.reduce(after, &window)?,
            _ => window.clone(),
        };
        Ok(ReductionRepair::Repaired(Reduction {
            spec: self.spec,
            source_len: after.len(),
            skyline: window,
            kept,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ds(rows: Vec<Vec<f64>>) -> Dataset {
        Dataset::from_rows(rows).unwrap()
    }

    fn random_ds(rng: &mut StdRng, n: usize, d: usize) -> Dataset {
        ds((0..n).map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()).collect())
    }

    #[test]
    fn compute_and_remap_round_trip() {
        let data = ds(vec![
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.4, 0.4], // dominated
            vec![0.0, 1.0],
        ]);
        let r = Reduction::compute(&data, ReduceSpec::skyline()).unwrap();
        assert_eq!(r.kept(), &[0, 1, 3]);
        assert_eq!((r.source_len(), r.skyline_len()), (4, 3));
        assert!((r.kept_fraction() - 0.75).abs() < 1e-12);
        let reduced = r.restrict_dataset(&data).unwrap();
        assert_eq!(reduced.len(), 3);
        assert_eq!(reduced.point(2), data.point(3));
        // Original → reduced → original round-trips.
        assert_eq!(r.to_reduced(&[0, 3]).unwrap(), vec![0, 2]);
        assert_eq!(r.to_original(2).unwrap(), 3);
        assert!(r.to_reduced(&[2]).is_err(), "pruned seed points are rejected");
        assert!(r.to_reduced(&[9]).is_err());
        assert!(r.to_original(3).is_err());
        let mut out = SolveOutput::new(fam_core::Selection::new(vec![0, 2], "test"));
        r.remap_output(&mut out).unwrap();
        assert_eq!(out.selection.indices, vec![0, 3]);
        let mut bad = SolveOutput::new(fam_core::Selection::new(vec![7], "test"));
        assert!(r.remap_output(&mut bad).is_err());
    }

    #[test]
    fn score_matrix_matches_the_full_stream_and_refuses_non_monotone_functions() {
        use fam_core::{LinearUtility, TableUtility};
        let data = ds(vec![
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.4, 0.4], // dominated
            vec![0.0, 1.0],
        ]);
        let fns: Vec<Arc<dyn UtilityFunction>> = [[0.3, 0.7], [0.9, 0.1], [0.5, 0.5]]
            .iter()
            .map(|w| Arc::new(LinearUtility::new(w.to_vec()).unwrap()) as Arc<dyn UtilityFunction>)
            .collect();
        for spec in [ReduceSpec::skyline(), ReduceSpec::coreset(0.2)] {
            let r = Reduction::compute(&data, spec).unwrap();
            let (m, stats) = r.score_matrix(&data, &fns).unwrap();
            let (full, full_stats) =
                ScoreMatrix::from_functions_tiled(&data, &fns, None, r.kept()).unwrap();
            for u in 0..fns.len() {
                assert_eq!(m.row(u), full.row(u), "{spec:?}: row {u}");
            }
            assert_eq!(stats, full_stats, "{spec:?}");
            assert_eq!(stats.source_points, 4);
            // A dataset other than the reduction's own is rejected.
            assert!(r.score_matrix(&data.subset(&[0, 1]).unwrap(), &fns).is_err());
            // The compact build over the kept points: the same scores,
            // bests and stats, bit for bit.
            let (compact, compact_stats) = r.linear_scores(&data, &fns).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for u in 0..fns.len() {
                let row = compact.row_scores(u, &mut Vec::new()).to_vec();
                assert_eq!(bits(&row), bits(m.row(u)), "{spec:?}: compact row {u}");
                assert_eq!(ScoreSource::best_index(&compact, u), m.best_index(u));
            }
            assert_eq!(bits(ScoreSource::best_values(&compact)), bits(m.best_values()));
            let stat_bits = |s: TiledBuildStats| {
                (
                    s.source_points,
                    s.kept_points,
                    s.max_shortfall.to_bits(),
                    s.mean_shortfall.to_bits(),
                )
            };
            assert_eq!(stat_bits(compact_stats), stat_bits(stats), "{spec:?}");
            assert!(r.linear_scores(&data.subset(&[0, 1]).unwrap(), &fns).is_err());
        }
        // Index-based tables are refused before anything is scored.
        let table: Arc<dyn UtilityFunction> =
            Arc::new(TableUtility::new(vec![0.1, 0.2, 0.9, 0.3]).unwrap());
        let r = Reduction::compute(&data, ReduceSpec::skyline()).unwrap();
        match r.score_matrix(&data, &[fns[0].clone(), table.clone()]) {
            Err(FamError::InvalidParameter { name: "reduce", .. }) => {}
            other => panic!("expected a `reduce` refusal, got {other:?}"),
        }
        assert!(matches!(
            r.linear_scores(&data, &[fns[0].clone(), table.clone()]),
            Err(FamError::InvalidParameter { name: "reduce", .. })
        ));
        // `backing` holds the linear population compactly and sends the
        // mixed one to the dense build, which refuses the table.
        assert!(matches!(r.backing(&data, &fns).unwrap().0, ScoreBacking::Linear(_)));
        assert!(matches!(
            r.backing(&data, &[fns[0].clone(), table]),
            Err(FamError::InvalidParameter { name: "reduce", .. })
        ));
    }

    #[test]
    fn identity_spec_keeps_everything() {
        let data = ds(vec![vec![1.0, 0.0], vec![0.5, 0.5]]);
        let r = Reduction::compute(&data, ReduceSpec::none()).unwrap();
        assert_eq!(r.kept(), &[0, 1]);
        assert_eq!(r.fingerprint(), "none");
    }

    #[test]
    fn repair_insert_matches_fresh_compute() {
        let mut rng = StdRng::seed_from_u64(17);
        for spec in [ReduceSpec::skyline(), ReduceSpec::coreset(0.1)] {
            let before = random_ds(&mut rng, 200, 3);
            let r = Reduction::compute(&before, spec).unwrap();
            // Append 40 points (no deletions): remap is the identity.
            let mut rows: Vec<Vec<f64>> = before.points().map(<[f64]>::to_vec).collect();
            for _ in 0..40 {
                rows.push((0..3).map(|_| rng.gen_range(0.0..1.0)).collect());
            }
            let after = ds(rows);
            let remap: Vec<Option<u32>> = (0..200).map(|i| Some(i as u32)).collect();
            match r.repair(&after, &remap, 200..240).unwrap() {
                ReductionRepair::Repaired(rep) => {
                    let fresh = Reduction::compute(&after, spec).unwrap();
                    assert_eq!(rep, fresh, "{spec:?}");
                }
                ReductionRepair::Recompute => panic!("insert-only batches must repair"),
            }
        }
    }

    #[test]
    fn repair_handles_deletions() {
        let data = ds(vec![
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.4, 0.4], // dominated by 1
            vec![0.0, 1.0],
        ]);
        let r = Reduction::compute(&data, ReduceSpec::skyline()).unwrap();
        // Delete the dominated point 2 (swap-remove: point 3 takes slot 2).
        let after = ds(vec![vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 1.0]]);
        let remap = vec![Some(0), Some(1), None, Some(2)];
        match r.repair(&after, &remap, 3..3).unwrap() {
            ReductionRepair::Repaired(rep) => {
                assert_eq!(rep, Reduction::compute(&after, ReduceSpec::skyline()).unwrap());
            }
            ReductionRepair::Recompute => panic!("non-kept deletions must repair"),
        }
        // Deleting a skyline member forces a recompute.
        let remap = vec![Some(0), None, Some(1), Some(2)];
        let after = ds(vec![vec![1.0, 0.0], vec![0.4, 0.4], vec![0.0, 1.0]]);
        assert_eq!(r.repair(&after, &remap, 3..3).unwrap(), ReductionRepair::Recompute);
        // A remap that does not cover the old universe is rejected.
        assert!(r.repair(&after, &[Some(0)], 3..3).is_err());
    }

    #[test]
    fn repair_inserted_duplicates_and_dominators() {
        let data = ds(vec![vec![0.6, 0.6], vec![0.2, 0.9]]);
        let r = Reduction::compute(&data, ReduceSpec::skyline()).unwrap();
        assert_eq!(r.kept(), &[0, 1]);
        // Insert an exact duplicate of a member and a dominator of the other.
        let after = ds(vec![
            vec![0.6, 0.6],
            vec![0.2, 0.9],
            vec![0.6, 0.6], // duplicate of 0 — joins (Definition 6)
            vec![0.3, 1.0], // dominates 1 — evicts it
        ]);
        let remap = vec![Some(0), Some(1)];
        match r.repair(&after, &remap, 2..4).unwrap() {
            ReductionRepair::Repaired(rep) => {
                assert_eq!(rep.kept(), &[0, 2, 3]);
                assert_eq!(rep, Reduction::compute(&after, ReduceSpec::skyline()).unwrap());
            }
            ReductionRepair::Recompute => panic!("insert-only batches must repair"),
        }
    }
}
