//! S001 good fixture: every population goes through the backing decision.

pub fn scores(ds: &Dataset, dist: &dyn UtilityDistribution, rng: &mut StdRng) -> ScoreBacking {
    ScoreBacking::sample(ds, dist, 500, rng).unwrap()
}

pub fn reduced(r: &Reduction, ds: &Dataset, functions: &[Arc<dyn UtilityFunction>]) {
    let _scores = r.backing(ds, functions);
    // A tiled reference build and a learned model's sampler are other
    // names, not the four constructors.
    let _tiled = ScoreMatrix::from_distribution_tiled(ds, dist, 10, rng, &[0]);
    let _learned = model.sample_score_matrix(10, rng);
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference() {
        let _ = ScoreMatrix::from_distribution(&ds, &dist, 10, &mut rng);
    }
}
