//! Progressive-precision A/B: refine-in-place versus rebuild-and-resolve.
//!
//! Scenario: a dataset is resident at a baseline sample count (the
//! serving layer's default `N₀`), and a client demands progressively
//! tighter precision targets ε ∈ {0.05, 0.02, 0.01} (at confidence
//! `1 − σ`, Theorem 4). Two ways to serve each target:
//!
//! * **refine in place** — keep the evolving matrix: grow the sample
//!   axis to the Chernoff count with one `ScoreMatrix::append_functions`
//!   per target (sampling and scoring only the *delta* rows) and run the
//!   canonical cold solve on the refined matrix — the `refine` driver's
//!   discipline;
//! * **rebuild and resolve** — what the pre-progressive system had to
//!   do: sample `N(ε)` fresh functions, build the whole matrix from
//!   scratch, and cold-solve.
//!
//! The legs are interleaved per target (rebuild first, then dropped)
//! so both pay comparable allocator/page-fault bills for their
//! gigabyte-scale buffers. Because the refine leg's RNG continues the
//! baseline stream, its refined matrix is bit-identical to the rebuild
//! leg's at every target — the cold solves must agree bit-for-bit,
//! which the run asserts. The timings therefore isolate pure
//! maintenance cost for identical answers.
//!
//! Scale defaults to `n = 2,000`, `k = 10`, baseline `N₀ = 2,000`;
//! override with `FAM_PROGRESSIVE_{POINTS,K,BASE_SAMPLES,SIGMA}` and the
//! comma-separated target list `FAM_PROGRESSIVE_EPS`, best-of
//! `FAM_PROGRESSIVE_REPS` passes. Besides the criterion group, the run
//! emits `BENCH_progressive.json` (override `FAM_BENCH_PROGRESSIVE_OUT`)
//! with per-target timings and the arr-vs-N convergence trajectory.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use fam::prelude::*;
use fam::{
    chernoff_epsilon, chernoff_sample_size, greedy_shrink, GreedyShrinkConfig, ScoreMatrix,
    SelectionEvaluator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_eps_list(name: &str, default: &[f64]) -> Vec<f64> {
    std::env::var(name)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<f64>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

struct TargetResult {
    epsilon: f64,
    target_n: usize,
    refine: Duration,
    rebuild: Duration,
    arr_refine: f64,
    arr_rebuild: f64,
}

struct TrajectoryPoint {
    n_samples: usize,
    epsilon: f64,
    arr: f64,
    phase: &'static str,
}

/// One full A/B pass: for each ε target (ascending), run the rebuild
/// leg first — sample `N(ε)` fresh functions, build the whole matrix
/// from scratch, cold-solve, drop it — then the refine leg: one sample
/// append straight to the Chernoff count on the continuing matrix
/// (scoring only the delta rows) and the same canonical cold solve.
/// The `resumed` trajectory points give the baseline selection's `arr`
/// under each refined estimate, evaluated outside the timer.
/// Interleaving the legs per target keeps the allocator/page-fault state
/// comparable: each leg's gigabyte-scale buffers are equally fresh. The refine leg's RNG
/// continues the baseline stream, so both legs solve bit-identical
/// matrices at every target (asserted).
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn ab_pass(
    ds: &Dataset,
    dist: &UniformLinear,
    seed: u64,
    base_samples: usize,
    k: usize,
    sigma: f64,
    targets: &[(f64, usize)],
) -> (Vec<(Duration, Duration, f64, f64)>, Vec<TrajectoryPoint>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut matrix =
        ScoreMatrix::from_distribution(ds, dist, base_samples, &mut rng).expect("matrix");
    let initial = greedy_shrink(&matrix, GreedyShrinkConfig::new(k)).expect("baseline solve");
    let mut trajectory = vec![TrajectoryPoint {
        n_samples: base_samples,
        epsilon: chernoff_epsilon(base_samples as u64, sigma).expect("eps"),
        arr: initial.selection.objective.unwrap_or(f64::NAN),
        phase: "cold",
    }];
    let mut out = Vec::new();
    for &(_eps, target_n) in targets {
        // Rebuild leg (dropped before the refine leg runs).
        let mut rb_rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let functions: Vec<Arc<dyn UtilityFunction>> =
            (0..target_n).map(|_| dist.sample(&mut rb_rng)).collect();
        let rebuilt = ScoreMatrix::from_functions(ds, &functions, None).expect("rebuild");
        let rb_cold = greedy_shrink(&rebuilt, GreedyShrinkConfig::new(k)).expect("rebuild cold");
        let rebuild = t0.elapsed();
        let arr_rebuild = rb_cold.selection.objective.unwrap_or(f64::NAN);
        drop(rebuilt);

        // Refine leg: continue the evolving matrix.
        let t0 = Instant::now();
        let n_now = matrix.n_samples();
        let functions: Vec<Arc<dyn UtilityFunction>> =
            (0..target_n - n_now).map(|_| dist.sample(&mut rng)).collect();
        matrix.append_functions(ds, &functions).expect("append");
        let cold = greedy_shrink(&matrix, GreedyShrinkConfig::new(k)).expect("cold");
        let refine = t0.elapsed();
        let arr_refine = cold.selection.objective.unwrap_or(f64::NAN);
        let arr_resumed = SelectionEvaluator::new_with(&matrix, &initial.selection.indices).arr();
        out.push((refine, rebuild, arr_refine, arr_rebuild));
        trajectory.push(TrajectoryPoint {
            n_samples: target_n,
            epsilon: chernoff_epsilon(target_n as u64, sigma).expect("eps"),
            arr: arr_resumed,
            phase: "resumed",
        });
        trajectory.push(TrajectoryPoint {
            n_samples: target_n,
            epsilon: chernoff_epsilon(target_n as u64, sigma).expect("eps"),
            arr: arr_refine,
            phase: "cold",
        });
    }
    (out, trajectory)
}

fn bench_progressive(c: &mut Criterion) {
    let n = env_usize("FAM_PROGRESSIVE_POINTS", 2_000);
    let k = env_usize("FAM_PROGRESSIVE_K", 10).min(n);
    let base_samples = env_usize("FAM_PROGRESSIVE_BASE_SAMPLES", 2_000);
    let sigma = env_f64("FAM_PROGRESSIVE_SIGMA", 0.1);
    let reps = env_usize("FAM_PROGRESSIVE_REPS", 1).max(1);
    let epsilons = env_eps_list("FAM_PROGRESSIVE_EPS", &[0.05, 0.02, 0.01]);
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    eprintln!(
        "progressive bench: n={n}, k={k}, N0={base_samples}, sigma={sigma}, \
         eps={epsilons:?}, reps={reps}, host threads={threads}"
    );

    let seed = 20190408u64;
    let mut rng = StdRng::seed_from_u64(7);
    let ds = synthetic(n, 4, Correlation::AntiCorrelated, &mut rng).expect("points");
    let dist = UniformLinear::new(4).expect("dist");

    // Targets are cumulative: sort ascending in N (descending ε) and
    // drop duplicates, so the refine leg's per-target delta is always
    // non-negative; a target already met by the baseline clamps up to a
    // no-op for both legs.
    let mut targets: Vec<(f64, usize)> = epsilons
        .iter()
        .map(|&eps| {
            let t = chernoff_sample_size(eps, sigma).expect("target") as usize;
            (eps, t.max(base_samples))
        })
        .collect();
    targets.sort_by_key(|t| t.1);
    targets.dedup_by_key(|t| t.1);

    // --- Interleaved A/B passes, best of `reps`. ---
    let mut best: Vec<(Duration, Duration, f64, f64)> =
        vec![(Duration::MAX, Duration::MAX, f64::NAN, f64::NAN); targets.len()];
    let mut trajectory = Vec::new();
    for _ in 0..reps {
        let (pass, traj) = ab_pass(&ds, &dist, seed, base_samples, k, sigma, &targets);
        for (b, got) in best.iter_mut().zip(pass) {
            if got.0 < b.0 {
                b.0 = got.0;
            }
            if got.1 < b.1 {
                b.1 = got.1;
            }
            b.2 = got.2;
            b.3 = got.3;
        }
        trajectory = traj;
    }

    let mut results = Vec::new();
    for (i, &(eps, target_n)) in targets.iter().enumerate() {
        let (refine, rebuild, arr_refine, arr_rebuild) = best[i];
        // Same sample stream => the cold solves must agree bitwise.
        assert_eq!(
            arr_refine.to_bits(),
            arr_rebuild.to_bits(),
            "refined answer diverged from the rebuild at eps = {eps}"
        );
        let speedup = rebuild.as_secs_f64() / refine.as_secs_f64().max(1e-12);
        eprintln!(
            "eps {eps:>5}: N = {target_n:>7}, refine-in-place {refine:?} vs \
             rebuild-and-resolve {rebuild:?} ({speedup:.1}x), arr {arr_refine:.6}"
        );
        results.push(TargetResult {
            epsilon: eps,
            target_n,
            refine,
            rebuild,
            arr_refine,
            arr_rebuild,
        });
    }

    let out_path = std::env::var("FAM_BENCH_PROGRESSIVE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_progressive.json").to_string()
    });
    let mut targets_json = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            targets_json.push(',');
        }
        targets_json.push_str(&format!(
            "{{\"epsilon\":{},\"target_n\":{},\"refine_ms\":{:.3},\"rebuild_ms\":{:.3},\
             \"speedup\":{:.3},\"arr_refine\":{:.6},\"arr_rebuild\":{:.6}}}",
            r.epsilon,
            r.target_n,
            r.refine.as_secs_f64() * 1e3,
            r.rebuild.as_secs_f64() * 1e3,
            r.rebuild.as_secs_f64() / r.refine.as_secs_f64().max(1e-12),
            r.arr_refine,
            r.arr_rebuild,
        ));
    }
    let mut traj_json = String::new();
    for (i, p) in trajectory.iter().enumerate() {
        if i > 0 {
            traj_json.push(',');
        }
        traj_json.push_str(&format!(
            "{{\"n_samples\":{},\"epsilon\":{:.6},\"arr\":{:.6},\"phase\":\"{}\"}}",
            p.n_samples, p.epsilon, p.arr, p.phase
        ));
    }
    let json = format!(
        "{{\"bench\":\"progressive\",\"n\":{n},\"k\":{k},\"base_samples\":{base_samples},\
         \"sigma\":{sigma},\"host_threads\":{threads},\"targets\":[{targets_json}],\
         \"trajectory\":[{traj_json}]}}\n"
    );
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }

    // Criterion group for the append kernel itself: appending a 10%
    // sample block versus rebuilding the matrix from scratch on the
    // concatenated functions (small fixed scale so iterations stay
    // cheap). Both legs score what they build: the append only the
    // block, the rebuild every sample.
    let kernel_n = 400.min(n);
    let kernel_rows = 1_000usize;
    let block = kernel_rows / 10;
    let mut krng = StdRng::seed_from_u64(11);
    let kds = synthetic(kernel_n, 4, Correlation::AntiCorrelated, &mut krng).expect("kernel ds");
    let all_fns: Vec<Arc<dyn UtilityFunction>> =
        (0..kernel_rows + block).map(|_| dist.sample(&mut krng)).collect();
    let (base_fns, block_fns) = all_fns.split_at(kernel_rows);
    let kmatrix = ScoreMatrix::from_functions(&kds, base_fns, None).expect("kernel matrix");
    let mut g = c.benchmark_group("progressive_kernels");
    g.sample_size(10);
    g.bench_function("append_10pct_samples", |bench| {
        bench.iter(|| {
            let mut m = kmatrix.clone();
            m.append_functions(&kds, block_fns).expect("append");
            m.n_samples()
        })
    });
    g.bench_function("rebuild_on_10pct_growth", |bench| {
        bench.iter(|| {
            let fresh = ScoreMatrix::from_functions(&kds, &all_fns, None).expect("rebuild");
            fresh.n_samples()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_progressive);
criterion_main!(benches);
