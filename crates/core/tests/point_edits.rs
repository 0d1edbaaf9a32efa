//! `ScoreMatrix::with_point_edits` — the exact-size copy a served
//! generation derives the next one from — against the path it replaces:
//! `clone()` followed by `delete_points` and `insert_points`. Rows, bests
//! (index and value), weights, mirror columns and the remap must agree
//! bit for bit for every batch shape, mirrored and mirrorless, serial and
//! on a forced 4-worker pool; a refused batch must return the same error
//! and leave the source untouched.
//!
//! The checks toggle the process-global thread override, so they run
//! inside one `#[test]`.

use fam_core::{par, FamError, Result, ScoreMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, n_samples: usize, n_points: usize) -> ScoreMatrix {
    let rows: Vec<Vec<f64>> =
        (0..n_samples).map(|_| (0..n_points).map(|_| rng.gen_range(0.01..1.0)).collect()).collect();
    ScoreMatrix::from_rows(rows, None).unwrap()
}

fn random_cols(rng: &mut StdRng, count: usize, n_samples: usize) -> Vec<Vec<f64>> {
    (0..count).map(|_| (0..n_samples).map(|_| rng.gen_range(0.01..1.0)).collect()).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Every observable value of the matrix, as bits.
fn fingerprint(m: &ScoreMatrix) -> Vec<Vec<u64>> {
    let mut out = vec![vec![m.n_samples() as u64, m.n_points() as u64]];
    out.extend((0..m.n_samples()).map(|u| bits(m.row(u))));
    out.push((0..m.n_samples()).map(|u| m.best_index(u) as u64).collect());
    out.push(bits(m.best_values()));
    out.push(bits(m.weights()));
    out.push(vec![u64::from(m.has_column_mirror())]);
    out.extend((0..m.n_points()).filter_map(|p| m.column(p).map(bits)));
    out
}

fn via_clone(
    src: &ScoreMatrix,
    delete: &[usize],
    insert: &[Vec<f64>],
) -> Result<(ScoreMatrix, Vec<Option<u32>>)> {
    let mut m = src.clone();
    let remap = m.delete_points(delete)?;
    m.insert_points(insert)?;
    Ok((m, remap))
}

fn check(src: &ScoreMatrix, delete: &[usize], insert: &[Vec<f64>], what: &str) {
    let before = fingerprint(src);
    match (src.with_point_edits(delete, insert), via_clone(src, delete, insert)) {
        (Ok((got, got_remap)), Ok((want, want_remap))) => {
            assert_eq!(got_remap, want_remap, "{what}: remap");
            assert_eq!(fingerprint(&got), fingerprint(&want), "{what}: matrix");
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{what}: error"),
        (got, want) => panic!(
            "{what}: with_point_edits {:?} vs clone path {:?}",
            got.map(|_| ()),
            want.map(|_| ())
        ),
    }
    assert_eq!(fingerprint(src), before, "{what}: source must stay untouched");
}

fn check_batches(rng: &mut StdRng, mirror: bool, mode: &str) {
    let n_samples = 300;
    let tight = random_matrix(rng, n_samples, 40);
    let tight = if mirror { tight } else { tight.drop_column_mirror() };
    // One in-place insert past the tight stride doubles it: 41 live
    // points in rows of 80, so 39 slots of slack per row.
    let mut slack = tight.clone();
    slack.insert_points(&random_cols(rng, 1, n_samples)).unwrap();
    for (src, label) in [(&tight, "tight"), (&slack, "slack")] {
        let what = |batch: &str| format!("{mode} mirror={mirror} {label}: {batch}");
        let n = src.n_points();
        check(src, &[3, 17, 0], &random_cols(rng, 5, n_samples), &what("within slack"));
        check(src, &[n - 1, 2], &random_cols(rng, 60, n_samples), &what("past slack"));
        check(src, &[n - 1, 5, 6, 30], &[], &what("delete-only"));
        check(src, &[], &random_cols(rng, 7, n_samples), &what("insert-only"));
        check(src, &[], &[], &what("empty"));
        // Refused batches: the same error as the clone path, nothing
        // changed in the source.
        let cols = random_cols(rng, 2, n_samples);
        check(src, &[1, n], &cols, &what("out-of-bounds delete"));
        check(src, &[4, 9, 4], &cols, &what("duplicate delete"));
        check(src, &(0..n).collect::<Vec<_>>(), &cols, &what("delete everything"));
        let mut bad = random_cols(rng, 3, n_samples);
        bad[1][n_samples / 2] = f64::NAN;
        check(src, &[2], &bad, &what("non-finite insert"));
        bad[1][n_samples / 2] = -0.5;
        check(src, &[2], &bad, &what("negative insert"));
        check(src, &[2], &[vec![0.5; n_samples - 1]], &what("short insert column"));
    }
    // A delete that leaves a sample with no positive score is found on
    // the copy, after the cheap checks passed.
    let lonely =
        ScoreMatrix::from_rows(vec![vec![1.0, 0.0, 0.0], vec![0.5, 0.5, 0.5]], None).unwrap();
    let lonely = if mirror { lonely } else { lonely.drop_column_mirror() };
    check(&lonely, &[0], &[vec![0.2, 0.3]], &format!("{mode} mirror={mirror}: degenerate"));
    assert!(matches!(
        lonely.with_point_edits(&[0], &[]),
        Err(FamError::DegenerateUtility { sample: 0 })
    ));
}

#[test]
fn point_edits_equal_clone_then_delete_then_insert() {
    let mut rng = StdRng::seed_from_u64(15);
    for mirror in [true, false] {
        par::force_serial(true);
        check_batches(&mut rng, mirror, "serial");
        par::force_serial(false);
        // Forced 4-worker pool: real spawns even on small hosts.
        par::set_max_threads(Some(4));
        check_batches(&mut rng, mirror, "4 threads");
        par::set_max_threads(None);
    }
}
