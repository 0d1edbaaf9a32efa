//! A reduced request means the same thing on every path: the reduced
//! `Engine`, a served dataset reduced at build time, and a per-request
//! `reduce=` all gate the solver's `Caps::reducible`, read seeds as
//! original point ids, and answer in original ids.

use fam::core::FamError;
use fam::data::{synthetic, Correlation};
use fam::serve::{DatasetService, ServeOptions};
use fam::{
    Dataset, Engine, ReduceKind, ReduceSpec, Registry, ScoreMatrix, SolveOutput, SolverSpec,
    UniformLinear,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SAMPLES: usize = 300;
const SEED: u64 = 7;

fn dataset(n: usize, d: usize, corr: Correlation, seed: u64) -> Dataset {
    synthetic(n, d, corr, &mut StdRng::seed_from_u64(seed)).unwrap()
}

fn engine(ds: &Dataset, reduce: ReduceKind, eps: f64) -> Engine {
    Engine::builder()
        .dataset(ds.clone())
        .samples(SAMPLES)
        .seed(SEED)
        .reduce(reduce)
        .reduce_eps(eps)
        .build()
        .unwrap()
}

fn service(ds: &Dataset, reduce: ReduceSpec) -> DatasetService {
    let opts = ServeOptions {
        samples: SAMPLES,
        seed: SEED,
        cache_k: 1..=3,
        reduce,
        ..ServeOptions::default()
    };
    DatasetService::build("reduced", ds, &opts).unwrap()
}

#[test]
fn served_seeds_are_original_ids_as_on_the_engine() {
    let ds = dataset(400, 3, Correlation::Independent, 3);
    let engine = engine(&ds, ReduceKind::Skyline, 0.05);
    let svc = service(&ds, ReduceSpec::skyline());
    let kept = engine.reduction().unwrap().kept();
    for (seed, want) in [(19, [19, 176, 220, 235]), (67, [67, 176, 220, 235])] {
        assert!(kept.binary_search(&seed).is_ok(), "seed {seed} is a kept point");
        let spec = SolverSpec::parse("add-greedy", 4, &[("seed", seed.to_string())]).unwrap();
        let on_engine = engine.solve_with(&spec).unwrap();
        assert_eq!(on_engine.selection.indices, want, "engine, seed {seed}");
        let (served, cached) = svc.solve(&spec).unwrap();
        assert!(!cached, "a seeded request solves cold");
        assert_eq!(served.indices, want, "service, seed {seed}");
        assert_eq!(served.arr.to_bits(), on_engine.selection.objective.unwrap().to_bits());
    }
    // A pruned seed is refused on both, naming the candidate set.
    let pruned = (0..ds.len()).find(|i| kept.binary_search(i).is_err()).unwrap();
    let spec = SolverSpec::parse("add-greedy", 4, &[("seed", pruned.to_string())]).unwrap();
    for err in [engine.solve_with(&spec).unwrap_err(), svc.solve(&spec).unwrap_err()] {
        assert!(matches!(err, FamError::InvalidParameter { name: "seed", .. }), "{err}");
        assert!(err.to_string().contains("candidate set"), "{err}");
    }
}

#[test]
fn served_coresets_refuse_exact_solvers_as_the_engine_does() {
    let ds = dataset(600, 2, Correlation::AntiCorrelated, 5);
    let engine = engine(&ds, ReduceKind::Coreset, 0.2);
    let svc = service(&ds, ReduceSpec::coreset(0.2));
    for algo in ["brute-force", "dp-2d"] {
        let spec = SolverSpec::new(algo, 2);
        for err in [engine.solve_with(&spec).unwrap_err(), svc.solve(&spec).unwrap_err()] {
            assert!(matches!(err, FamError::Unsupported { .. }), "{algo}: {err}");
            assert!(err.to_string().contains("reducible"), "{algo}: {err}");
        }
    }
    // A heuristic is served in the same universe, with the same answer.
    let spec = SolverSpec::new("greedy-shrink", 2);
    let (served, cached) = svc.solve(&spec).unwrap();
    assert!(cached);
    assert_eq!(served.indices, engine.solve_with(&spec).unwrap().selection.indices);
}

/// A solve's answer as bits: indices, objective and notes, or the error.
type Answer = Result<(Vec<usize>, Option<u64>, Vec<(&'static str, u64)>), String>;

fn answer(out: fam::Result<SolveOutput>) -> Answer {
    out.map(|o| {
        let notes = o.notes.iter().map(|(name, v)| (*name, v.to_bits())).collect();
        (o.selection.indices, o.selection.objective.map(f64::to_bits), notes)
    })
    .map_err(|e| e.to_string())
}

#[test]
fn per_request_reduction_on_compact_scores_answers_like_the_dense_build() {
    let ds = dataset(30, 3, Correlation::AntiCorrelated, 9);
    let sampled = engine(&ds, ReduceKind::None, 0.05);
    assert!(sampled.scores().linear_columns().is_some(), "the sampled engine is compact");
    let dist = UniformLinear::new(3).unwrap();
    let dense =
        ScoreMatrix::from_distribution(&ds, &dist, SAMPLES, &mut StdRng::seed_from_u64(SEED))
            .unwrap();
    let prebuilt = Engine::builder().dataset(ds.clone()).matrix(dense).build().unwrap();
    for reduce in ["skyline", "coreset"] {
        for solver in Registry::global().iter() {
            for k in [1, 2, 4] {
                let pairs = [("reduce", reduce), ("reduce-eps", "0.2")];
                let spec = SolverSpec::parse(solver.name(), k, &pairs).unwrap();
                let got = answer(sampled.solve_with(&spec));
                assert_eq!(
                    got,
                    answer(prebuilt.solve_with(&spec)),
                    "{} reduce = {reduce} at k = {k}",
                    solver.name()
                );
                if let Ok((_, _, notes)) = &got {
                    assert!(notes.iter().any(|(name, _)| *name == "reduced_to"), "{notes:?}");
                }
            }
        }
    }
}
