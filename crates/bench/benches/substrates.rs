//! Criterion benches for the substrate layers: skyline algorithms, the LP
//! solver (MRR witness LPs), the incremental evaluator, and score-matrix
//! construction — the components whose costs add up to the paper's
//! preprocessing and query-time accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fam::prelude::*;
use fam::ScoreMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_substrates(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let ds = synthetic(20_000, 5, Correlation::AntiCorrelated, &mut rng).unwrap();

    let mut g = c.benchmark_group("skyline");
    g.sample_size(10);
    g.bench_function("sfs_20k_5d_anti", |b| b.iter(|| fam::geometry::skyline_sfs(&ds)));
    let indep = synthetic(20_000, 5, Correlation::Independent, &mut rng).unwrap();
    g.bench_function("sfs_20k_5d_indep", |b| b.iter(|| fam::geometry::skyline_sfs(&indep)));
    g.bench_function("bnl_20k_5d_indep", |b| b.iter(|| fam::geometry::skyline_bnl(&indep)));
    let two_d = synthetic(20_000, 2, Correlation::AntiCorrelated, &mut rng).unwrap();
    g.bench_function("sweep_20k_2d", |b| b.iter(|| fam::geometry::skyline_2d(&two_d)));
    g.finish();

    // Witness LP (the inner loop of exact MRR-GREEDY).
    let mut g = c.benchmark_group("lp_witness");
    g.sample_size(20);
    let small = synthetic(200, 6, Correlation::AntiCorrelated, &mut rng).unwrap();
    let selection: Vec<usize> = (0..20).collect();
    g.bench_function("witness_regret_d6_s20", |b| {
        b.iter(|| fam::algos::mrr::witness_regret(&small, &selection, 100).unwrap())
    });
    g.finish();

    // Score matrix construction (the paper's preprocessing step).
    let mut g = c.benchmark_group("preprocessing");
    g.sample_size(10);
    let dist = UniformLinear::new(5).unwrap();
    let sub = ds.subset(&(0..2_000).collect::<Vec<_>>()).unwrap();
    g.bench_function("score_matrix_2k_points_1k_samples", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(3);
            ScoreMatrix::from_distribution(&sub, &dist, 1_000, &mut r).unwrap()
        })
    });
    g.finish();

    // Incremental evaluator: removal deltas vs full recomputation.
    let mut g = c.benchmark_group("evaluator");
    g.sample_size(20);
    let mut r = StdRng::seed_from_u64(5);
    let m = ScoreMatrix::from_distribution(&sub, &dist, 1_000, &mut r).unwrap();
    g.bench_function("new_full_plus_one_sweep", |b| {
        b.iter(|| {
            let mut ev = SelectionEvaluator::new_full(&m);
            let mut acc = 0.0;
            for p in 0..m.n_points().min(256) {
                acc += ev.removal_delta(p);
            }
            acc
        })
    });
    g.bench_with_input(BenchmarkId::new("arr_unchecked_k", 10), &m, |b, m| {
        let sel: Vec<usize> = (0..10).collect();
        b.iter(|| fam::regret::arr_unchecked(m, &sel))
    });
    g.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
