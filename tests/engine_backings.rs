//! An engine holds a sampled linear population as `LinearScores` and
//! everything else as a dense `ScoreMatrix`. The backing may change time
//! and memory only: a sampled engine and one built on
//! `ScoreMatrix::from_distribution` from the same seed must answer every
//! request with the same bits.

use std::sync::Arc;

use fam::core::{CobbDouglasDistribution, DiscreteDistribution, SimplexLinear};
use fam::data::{synthetic, Correlation};
use fam::{
    Dataset, Engine, ReduceKind, Registry, RegretReport, Result, ScoreMatrix, SolveOutput,
    TableUtility, TiledBuildStats, UniformLinear, UtilityDistribution, UtilityFunction,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SAMPLES: usize = 150;
const SEED: u64 = 17;

/// A sampled population's distribution over `d`-dimensional points.
type Population = fn(usize) -> Box<dyn UtilityDistribution>;

/// A solve's answer as bits: indices, objective and notes, or the error.
type Answer = std::result::Result<(Vec<usize>, Option<u64>, Vec<(&'static str, u64)>), String>;

fn answer(out: Result<SolveOutput>) -> Answer {
    out.map(|o| {
        let notes = o.notes.iter().map(|(name, v)| (*name, v.to_bits())).collect();
        (o.selection.indices, o.selection.objective.map(f64::to_bits), notes)
    })
    .map_err(|e| e.to_string())
}

fn report_bits(r: RegretReport) -> [u64; 4] {
    [r.arr.to_bits(), r.vrr.to_bits(), r.std_dev.to_bits(), r.mrr.to_bits()]
}

fn stats_bits(s: TiledBuildStats) -> (usize, usize, u64, u64) {
    (s.source_points, s.kept_points, s.max_shortfall.to_bits(), s.mean_shortfall.to_bits())
}

fn dataset(n: usize, d: usize) -> Dataset {
    synthetic(n, d, Correlation::AntiCorrelated, &mut StdRng::seed_from_u64(5)).unwrap()
}

/// The sampled engine and the engine built on the dense matrix of the
/// same draws, both with `solver` as the default.
fn engines(ds: &Dataset, dist: Population, reduce: ReduceKind, solver: &str) -> (Engine, Engine) {
    let sampled = Engine::builder()
        .dataset(ds.clone())
        .distribution(dist(ds.dim()))
        .samples(SAMPLES)
        .seed(SEED)
        .reduce(reduce)
        .reduce_eps(0.2)
        .solver(solver)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let dense =
        ScoreMatrix::from_distribution(ds, dist(ds.dim()).as_ref(), SAMPLES, &mut rng).unwrap();
    let prebuilt = Engine::builder()
        .dataset(ds.clone())
        .matrix(dense)
        .reduce(reduce)
        .reduce_eps(0.2)
        .solver(solver)
        .build()
        .unwrap();
    (sampled, prebuilt)
}

fn uniform(d: usize) -> Box<dyn UtilityDistribution> {
    Box::new(UniformLinear::new(d).unwrap())
}

fn simplex(d: usize) -> Box<dyn UtilityDistribution> {
    Box::new(SimplexLinear::new(d).unwrap())
}

#[test]
fn sampled_linear_engines_answer_like_the_dense_build() {
    let populations: [(&str, Population); 2] = [("uniform", uniform), ("simplex", simplex)];
    for d in [2, 3] {
        let ds = dataset(24, d);
        for (name, dist) in populations {
            for reduce in [ReduceKind::None, ReduceKind::Skyline, ReduceKind::Coreset] {
                let case = format!("{name}, d = {d}, reduce = {}", reduce.name());
                let (sampled, prebuilt) = engines(&ds, dist, reduce, "greedy-shrink");
                assert!(sampled.scores().linear_columns().is_some(), "{case}: compact");
                assert!(prebuilt.scores().linear_columns().is_none(), "{case}: dense");
                assert_eq!(sampled.scores().n_points(), prebuilt.scores().n_points(), "{case}");
                for solver in Registry::global().iter() {
                    for k in [1, 2, 4] {
                        assert_eq!(
                            answer(sampled.solve_as(solver.name(), k)),
                            answer(prebuilt.solve_as(solver.name(), k)),
                            "{case}: {} at k = {k}",
                            solver.name()
                        );
                    }
                }
                let sel: Vec<usize> = match sampled.reduction() {
                    Some(r) => r.kept().iter().copied().take(3).collect(),
                    None => vec![0, 5, 11],
                };
                assert_eq!(
                    report_bits(sampled.evaluate(&sel).unwrap()),
                    report_bits(prebuilt.evaluate(&sel).unwrap()),
                    "{case}: evaluate"
                );
                assert_eq!(
                    sampled.reduce_stats().map(stats_bits),
                    prebuilt.reduce_stats().map(stats_bits),
                    "{case}: reduce_stats"
                );
                assert_eq!(
                    sampled.achieved_epsilon(0.1).unwrap().to_bits(),
                    prebuilt.achieved_epsilon(0.1).unwrap().to_bits()
                );
            }
        }
    }
}

#[test]
fn range_harvests_agree_across_backings() {
    let ds = dataset(30, 3);
    for solver in Registry::global().iter().filter(|s| s.capabilities().range_harvest) {
        for reduce in [ReduceKind::None, ReduceKind::Skyline] {
            let (sampled, prebuilt) = engines(&ds, uniform, reduce, solver.name());
            let (a, b) =
                (sampled.solve_range(1..=5).unwrap(), prebuilt.solve_range(1..=5).unwrap());
            assert_eq!(a.len(), 5);
            for (k, (x, y)) in a.into_iter().zip(b).enumerate() {
                assert_eq!(
                    answer(Ok(x)),
                    answer(Ok(y)),
                    "{} reduce = {} at k = {}",
                    solver.name(),
                    reduce.name(),
                    k + 1
                );
            }
        }
    }
}

#[test]
fn a_linear_engines_matrix_is_the_dense_build_bit_for_bit() {
    let ds = dataset(40, 3);
    let engine = Engine::builder().dataset(ds.clone()).samples(SAMPLES).seed(SEED).build().unwrap();
    let dist = UniformLinear::new(3).unwrap();
    let dense =
        ScoreMatrix::from_distribution(&ds, &dist, SAMPLES, &mut StdRng::seed_from_u64(SEED))
            .unwrap();
    let m = engine.matrix();
    assert_eq!((m.n_samples(), m.n_points()), (dense.n_samples(), dense.n_points()));
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for u in 0..SAMPLES {
        assert_eq!(bits(m.row(u)), bits(dense.row(u)), "row {u}");
        assert_eq!(m.best_index(u), dense.best_index(u), "best of {u}");
    }
    for p in 0..ds.len() {
        assert_eq!(bits(m.column(p)), bits(dense.column(p)), "mirror column {p}");
    }
    assert_eq!(bits(m.weights()), bits(dense.weights()));
    assert_eq!(bits(m.best_values()), bits(dense.best_values()));
    // The view is built once and kept; the solves still read the compact
    // backing.
    assert!(std::ptr::eq(m, engine.matrix()));
    assert!(engine.scores().linear_columns().is_some());
}

#[test]
fn non_linear_populations_stay_dense() {
    let ds = dataset(12, 2);
    let cobb = Engine::builder()
        .dataset(ds.clone())
        .distribution(Box::new(CobbDouglasDistribution::new(2).unwrap()))
        .samples(60)
        .build()
        .unwrap();
    assert!(cobb.scores().linear_columns().is_none(), "Cobb-Douglas is not linear");
    let atoms: Vec<Arc<dyn UtilityFunction>> = (0..3)
        .map(|i| {
            let scores = (0..ds.len()).map(|p| ((p + i) % 5) as f64 + 0.5).collect();
            Arc::new(TableUtility::new(scores).unwrap()) as Arc<dyn UtilityFunction>
        })
        .collect();
    let tables = Engine::builder()
        .dataset(ds)
        .distribution(Box::new(DiscreteDistribution::uniform(atoms, 2).unwrap()))
        .samples(60)
        .build()
        .unwrap();
    assert!(tables.scores().linear_columns().is_none(), "tables are not linear");
    assert!(format!("{tables:?}").contains("linear: false"), "{tables:?}");
    assert!(format!("{cobb:?}").contains("linear: false"), "{cobb:?}");
}
