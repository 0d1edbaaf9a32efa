//! S001 bad fixture: a front end that picks the score store itself.

pub fn dense(ds: &Dataset, dist: &dyn UtilityDistribution, rng: &mut StdRng) -> ScoreMatrix {
    ScoreMatrix::from_distribution(ds, dist, 500, rng).unwrap()
}

pub fn compact(ds: &Dataset, functions: &[Arc<dyn UtilityFunction>]) -> LinearScores {
    LinearScores::from_functions(ds.clone(), functions).unwrap()
}

pub fn reduced(r: &Reduction, ds: &Dataset, functions: &[Arc<dyn UtilityFunction>]) {
    let _dense = r.score_matrix(ds, functions);
    let _compact = r.linear_scores(ds, functions);
}
