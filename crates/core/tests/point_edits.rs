//! `LinearScores::with_point_edits` — how a served generation derives the
//! next one — against two references: a fresh `LinearScores` over the
//! permuted coordinates, and a dense `ScoreMatrix` built from the same
//! linear functions and edited by `clone()` + `delete_points` +
//! `insert_points`. The remap, every best (index and value bits) and
//! every score must agree bit for bit for each batch shape, serial and
//! on a forced 4-worker pool; a refused batch must return the documented
//! error and leave the source untouched.
//!
//! The checks toggle the process-global thread override, so they run
//! inside one `#[test]`.

use std::sync::Arc;

use fam_core::{
    par, Dataset, FamError, LinearScores, LinearUtility, Result, ScoreMatrix, ScoreSource,
    UtilityFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 3;

/// More samples than one `par::CHUNK`, so the best repair fans out.
const SAMPLES: usize = 4096 + 300;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Every observable value of a compact backing, as bits.
fn fingerprint(s: &LinearScores) -> Vec<Vec<u64>> {
    let mut out = vec![vec![s.n_samples() as u64, s.n_points() as u64]];
    out.push(bits(s.dataset().as_flat()));
    let mut buf = Vec::new();
    out.extend((0..s.n_samples()).map(|u| bits(s.row_scores(u, &mut buf))));
    out.push((0..s.n_samples()).map(|u| ScoreSource::best_index(s, u) as u64).collect());
    out.push(bits(ScoreSource::best_values(s)));
    out.push(bits(ScoreSource::weights(s)));
    out
}

/// The same values read off a dense matrix.
fn dense_fingerprint(m: &ScoreMatrix, coords: &Dataset) -> Vec<Vec<u64>> {
    let mut out = vec![vec![m.n_samples() as u64, m.n_points() as u64]];
    out.push(bits(coords.as_flat()));
    out.extend((0..m.n_samples()).map(|u| bits(m.row(u))));
    out.push((0..m.n_samples()).map(|u| m.best_index(u) as u64).collect());
    out.push(bits(m.best_values()));
    out.push(bits(m.weights()));
    out
}

struct Fixture {
    weights: Vec<Vec<f64>>,
    functions: Vec<Arc<dyn UtilityFunction>>,
    scores: LinearScores,
    dense: ScoreMatrix,
}

impl Fixture {
    fn new(coords: Dataset, weights: Vec<Vec<f64>>) -> Self {
        let functions: Vec<Arc<dyn UtilityFunction>> = weights
            .iter()
            .map(|w| Arc::new(LinearUtility::new(w.clone()).unwrap()) as Arc<dyn UtilityFunction>)
            .collect();
        let dense = ScoreMatrix::from_functions(&coords, &functions, None).unwrap();
        let scores = LinearScores::from_weight_rows(coords, weights.clone()).unwrap();
        Fixture { weights, functions, scores, dense }
    }

    fn insert_columns(&self, insert: &[&[f64]]) -> Vec<Vec<f64>> {
        insert
            .iter()
            .map(|c| self.functions.iter().map(|f| f.utility(usize::MAX, c)).collect())
            .collect()
    }

    /// The dense reference: clone, delete, insert.
    fn via_dense(
        &self,
        delete: &[usize],
        insert: &[&[f64]],
    ) -> Result<(ScoreMatrix, Vec<Option<u32>>)> {
        let mut m = self.dense.clone();
        let remap = m.delete_points(delete)?;
        m.insert_points(&self.insert_columns(insert))?;
        Ok((m, remap))
    }

    /// Checks one accepted batch against both references.
    fn check(&self, delete: &[usize], insert: &[&[f64]], what: &str) {
        let before = fingerprint(&self.scores);
        let (got, remap) = self
            .scores
            .with_point_edits(delete, insert, 1, |j| format!("ins-{j}"))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(fingerprint(&self.scores), before, "{what}: source must stay untouched");
        let (dense, dense_remap) = self.via_dense(delete, insert).unwrap();
        assert_eq!(remap, dense_remap, "{what}: remap");
        assert_eq!(
            fingerprint(&got),
            dense_fingerprint(&dense, got.dataset()),
            "{what}: compact edit vs dense clone path"
        );
        let fresh =
            LinearScores::from_weight_rows(got.dataset().clone(), self.weights.clone()).unwrap();
        assert_eq!(fingerprint(&got), fingerprint(&fresh), "{what}: compact edit vs fresh build");
        // The permuted coordinates are the survivors in slot order, then
        // the inserts.
        for (p, slot) in remap.iter().enumerate() {
            if let Some(s) = slot {
                assert_eq!(got.dataset().point(*s as usize), self.scores.dataset().point(p));
            }
        }
        for (j, c) in insert.iter().enumerate() {
            assert_eq!(got.dataset().point(got.n_points() - insert.len() + j), *c);
        }
    }

    /// Checks one refused batch: the expected error, the source untouched.
    fn refuse(&self, delete: &[usize], insert: &[&[f64]], min_points: usize, want: &FamError) {
        let before = fingerprint(&self.scores);
        match self.scores.with_point_edits(delete, insert, min_points, |j| format!("ins-{j}")) {
            Ok(_) => panic!("batch {delete:?} + {} inserts must be refused", insert.len()),
            Err(got) => assert_eq!(&got, want),
        }
        assert_eq!(fingerprint(&self.scores), before, "a refused batch leaves the source alone");
    }
}

/// Random points plus a dominant point (index 5) whose bit-equal
/// duplicate is the last point: nearly every sample's best is point 5,
/// and a swap-remove that moves the duplicate in front of it must move
/// the first argmax too.
fn fixture(rng: &mut StdRng) -> Fixture {
    let n = 40;
    let mut rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..DIM).map(|_| rng.gen_range(0.01..0.9)).collect()).collect();
    rows[5] = vec![0.97, 0.95, 0.96];
    rows[n - 1] = rows[5].clone();
    rows[12] = rows[7].clone();
    let weights: Vec<Vec<f64>> =
        (0..SAMPLES).map(|_| (0..DIM).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
    Fixture::new(Dataset::from_rows(rows).unwrap(), weights)
}

fn check_batches(rng: &mut StdRng, mode: &str) {
    let f = fixture(rng);
    let n = f.scores.n_points();
    let what = |batch: &str| format!("{mode}: {batch}");
    let best0 = ScoreSource::best_index(&f.scores, 0);
    let random: Vec<Vec<f64>> =
        (0..3).map(|_| (0..DIM).map(|_| rng.gen_range(0.01..0.9)).collect()).collect();
    let random: Vec<&[f64]> = random.iter().map(Vec::as_slice).collect();
    let dominant: &[f64] = &[1.5, 1.5, 1.5];

    f.check(&[best0, 20], &random[..1], &what("deletes a best"));
    // Deleting slot 2 moves the last point — point 5's duplicate — into
    // slot 2, in front of the surviving best.
    assert_eq!(best0, 5, "the fixture's dominant point is sample 0's best");
    f.check(&[2], &[], &what("moves a tie"));
    f.check(&[3, 30], &[random[1], dominant], &what("inserts a new best"));
    f.check(&[], &random, &what("insert-only"));
    f.check(&[n - 2, 0, 17], &[], &what("delete-only"));
    f.check(&[], &[], &what("empty"));

    let pt = &random[..1];
    f.refuse(&[1, n], pt, 1, &FamError::IndexOutOfBounds { index: n, len: n });
    let dup =
        FamError::InvalidParameter { name: "delete", message: "duplicate point index 4".into() };
    f.refuse(&[4, 9, 4], pt, 1, &dup);
    let all: Vec<usize> = (0..n).collect();
    f.refuse(&all, &random[..2], 1, &FamError::EmptyDataset);
    f.refuse(&[1, 2], &[], n - 1, &FamError::InvalidK { k: n - 1, n: n - 2 });
    f.refuse(&[], &[&[0.5, 0.5]], 1, &FamError::DimensionMismatch { expected: DIM, got: 2 });
    // Scores that overflow to infinity: the error names the first
    // offending sample and the column the insert would have taken — the
    // same error the dense matrix's insert validation reports.
    let huge: &[f64] = &[f64::MAX, f64::MAX, f64::MAX];
    let want = f.dense.validate_new_points(&f.insert_columns(&[random[0], huge])).unwrap_err();
    assert!(matches!(want, FamError::NonFinite { col, .. } if col == n + 1), "{want}");
    f.refuse(&[3], &[random[0], huge], 1, &want);

    // A delete that leaves a sample with no positive score: the same
    // error as the dense delete, found after every cheaper check.
    let lonely = Fixture::new(
        Dataset::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.5]]).unwrap(),
        vec![vec![0.5, 0.5], vec![1.0, 0.0]],
    );
    let want = lonely.via_dense(&[0], &[]).unwrap_err();
    assert_eq!(want, FamError::DegenerateUtility { sample: 1 });
    lonely.refuse(&[0], &[], 1, &want);
}

#[test]
fn linear_point_edits_match_fresh_builds_and_the_dense_clone_path() {
    let mut rng = StdRng::seed_from_u64(15);
    par::force_serial(true);
    check_batches(&mut rng, "serial");
    par::force_serial(false);
    // Forced 4-worker pool: real spawns even on small hosts.
    par::set_max_threads(Some(4));
    check_batches(&mut rng, "4 threads");
    par::set_max_threads(None);
}
