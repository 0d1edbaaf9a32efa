//! Candidate-reduction quality-vs-cost curve on million-point datasets,
//! with the skyline-sourced build A/B'd against the full stream.
//!
//! For each scale (default `n = 10^5, d = 3` and `n = 10^6, d = 2`,
//! anti-correlated — the paper's hard case for skylines), runs the
//! reduction pipeline end to end: compute the reduction, build the
//! `N × kept` matrix, and solve with ADD-GREEDY. Every leg builds the
//! matrix two ways from one utility stream:
//!
//! * `build_ms` — the production `Reduction::score_matrix`, which
//!   scores the skyline only (sampling included);
//! * `full_stream_build_ms` — the reference
//!   `ScoreMatrix::from_distribution_tiled`, which streams all `n`
//!   points to learn each sample's full-database best.
//!
//! The bench panics unless the two agree bit for bit in rows, bests,
//! weights and all four shortfall stats, so every committed number is
//! also an equivalence check. The lossless skyline leg is the
//! reference; each coreset leg (`ε` sweep) reports its kept fraction,
//! wall-time split, achieved shortfall, and the ARR delta measured
//! against the skyline matrix (whose per-sample best equals the full
//! database's best, so the delta is the real quality loss, not a
//! reduced-universe artifact). 2-D coresets often lose exactly nothing,
//! so a 3-D scale is what makes the stats check non-trivial.
//!
//! The dense unreduced build at these scales is exactly what the
//! reduction exists to avoid (an `N × 10^6` matrix), so there is no
//! unreduced leg; the skyline leg is achievable-optimum-preserving by
//! dominance.
//!
//! Knobs: `FAM_REDUCE_SCALES` (`n:d` comma list), `FAM_REDUCE_SAMPLES`,
//! `FAM_REDUCE_K`, `FAM_REDUCE_EPS` (comma list), `FAM_REDUCE_REPS`
//! (best-of), `FAM_BENCH_REDUCE_OUT` (default `BENCH_reduce.json` at
//! the workspace root).

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use fam::prelude::*;
use fam::{add_greedy, regret, ReduceSpec, Reduction, ScoreMatrix, TiledBuildStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_list(name: &str, default: &str) -> Vec<String> {
    let raw = std::env::var(name).unwrap_or_else(|_| default.to_string());
    raw.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
}

struct Leg {
    label: String,
    k: usize,
    kept: usize,
    reduce: Duration,
    build: Duration,
    full_stream_build: Duration,
    solve: Duration,
    arr: f64,
    stats: TiledBuildStats,
}

/// Runs `f` `reps` times; the fastest time and the last result.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed());
        out = Some(v);
    }
    (best, out.expect("at least one rep"))
}

/// Panics unless the two builds agree bit for bit.
fn assert_bit_equal(
    label: &str,
    (a, sa): &(ScoreMatrix, TiledBuildStats),
    (b, sb): &(ScoreMatrix, TiledBuildStats),
) {
    assert_eq!((a.n_samples(), a.n_points()), (b.n_samples(), b.n_points()), "{label}: shape");
    for u in 0..a.n_samples() {
        assert_eq!(a.row(u), b.row(u), "{label}: row {u}");
        assert_eq!(a.best_index(u), b.best_index(u), "{label}: best index {u}");
        assert_eq!(a.best_value(u).to_bits(), b.best_value(u).to_bits(), "{label}: best {u}");
        assert_eq!(a.weight(u).to_bits(), b.weight(u).to_bits(), "{label}: weight {u}");
    }
    assert_eq!((sa.source_points, sa.kept_points), (sb.source_points, sb.kept_points), "{label}");
    assert_eq!(sa.max_shortfall.to_bits(), sb.max_shortfall.to_bits(), "{label}: max shortfall");
    assert_eq!(sa.mean_shortfall.to_bits(), sb.mean_shortfall.to_bits(), "{label}: mean shortfall");
}

/// One reduction pipeline end to end, best-of-`reps` per phase.
fn run_leg(
    ds: &Dataset,
    spec: ReduceSpec,
    n_samples: usize,
    k: usize,
    reps: usize,
    skyline_matrix: Option<(&Reduction, &ScoreMatrix)>,
) -> (Leg, Reduction, ScoreMatrix) {
    let label = spec.fingerprint();
    let dist = UniformLinear::new(ds.dim()).expect("dist");
    let (reduce_t, reduction) = best_of(reps, || Reduction::compute(ds, spec).expect("reduction"));
    // The same seed every rep, every leg and both builds: one utility
    // stream, so arr values are comparable across kept universes.
    let (build_t, built) = best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(42);
        let functions: Vec<Arc<dyn UtilityFunction>> =
            (0..n_samples).map(|_| dist.sample(&mut rng)).collect();
        reduction.score_matrix(ds, &functions).expect("skyline-sourced build")
    });
    let (full_stream_t, full_stream) = best_of(reps, || {
        let mut rng = StdRng::seed_from_u64(42);
        ScoreMatrix::from_distribution_tiled(ds, &dist, n_samples, &mut rng, reduction.kept())
            .expect("full-stream build")
    });
    assert_bit_equal(&label, &built, &full_stream);
    drop(full_stream);
    let (matrix, stats) = built;
    // An aggressive coreset can keep fewer than `k` candidates; solve
    // for what is there and report the effective k.
    let k = k.min(reduction.kept().len());
    let (solve_t, selection) = best_of(reps, || add_greedy(&matrix, k).expect("solve"));
    // Measure quality against the skyline universe's bests (= the full
    // database's bests) so lossy legs pay for what they pruned. The
    // selection's original ids are a subset of the skyline, so they
    // remap cleanly into the reference matrix's columns.
    let arr = match skyline_matrix {
        Some((sky, m)) => {
            let original: Vec<usize> = selection
                .indices
                .iter()
                .map(|&i| reduction.to_original(i).expect("original id"))
                .collect();
            let cols = sky.to_reduced(&original).expect("coreset ⊆ skyline");
            regret::report(m, &cols).expect("reference arr").arr
        }
        None => selection.objective.expect("add-greedy reports arr"),
    };
    let leg = Leg {
        label,
        k,
        kept: reduction.kept().len(),
        reduce: reduce_t,
        build: build_t,
        full_stream_build: full_stream_t,
        solve: solve_t,
        arr,
        stats,
    };
    (leg, reduction, matrix)
}

fn bench_reduce(c: &mut Criterion) {
    let n_samples = env_usize("FAM_REDUCE_SAMPLES", 2_000);
    let k = env_usize("FAM_REDUCE_K", 10);
    let reps = env_usize("FAM_REDUCE_REPS", 1).max(1);
    let scales: Vec<(usize, usize)> = env_list("FAM_REDUCE_SCALES", "100000:3,1000000:2")
        .iter()
        .map(|s| {
            let (n, d) = s.split_once(':').expect("scale as n:d");
            (n.parse().expect("n"), d.parse().expect("d"))
        })
        .collect();
    let eps_list: Vec<f64> = env_list("FAM_REDUCE_EPS", "0.05,0.1,0.2")
        .iter()
        .map(|s| s.parse().expect("eps"))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    eprintln!(
        "reduce bench: scales={scales:?}, N={n_samples}, k={k}, eps={eps_list:?}, reps={reps}, \
         host threads={threads}"
    );

    let mut scale_json = String::new();
    let mut small_dataset = None;
    for (i, &(n, dim)) in scales.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(20190408 + n as u64);
        let t0 = Instant::now();
        let ds = synthetic(n, dim, Correlation::AntiCorrelated, &mut rng).expect("dataset");
        let generate = t0.elapsed();

        let (sky, sky_reduction, sky_matrix) =
            run_leg(&ds, ReduceSpec::skyline(), n_samples, k, reps, None);
        eprintln!(
            "n={n} d={dim}: skyline kept {} ({:.4}%), reduce {:?} + build {:?} \
             (full stream {:?}) + solve {:?}, arr {:.6}",
            sky.kept,
            100.0 * sky.kept as f64 / n as f64,
            sky.reduce,
            sky.build,
            sky.full_stream_build,
            sky.solve,
            sky.arr
        );

        let mut coreset_json = String::new();
        for (j, &eps) in eps_list.iter().enumerate() {
            let (leg, _, _) = run_leg(
                &ds,
                ReduceSpec::coreset(eps),
                n_samples,
                k,
                reps,
                Some((&sky_reduction, &sky_matrix)),
            );
            eprintln!(
                "n={n} d={dim}: {} kept {} ({:.4}%), build {:?} (full stream {:?}), \
                 arr {:.6} (delta {:+.6}), max shortfall {:.6}",
                leg.label,
                leg.kept,
                100.0 * leg.kept as f64 / n as f64,
                leg.build,
                leg.full_stream_build,
                leg.arr,
                leg.arr - sky.arr,
                leg.stats.max_shortfall
            );
            if j > 0 {
                coreset_json.push(',');
            }
            coreset_json.push_str(&format!(
                "{{\"eps\":{eps},\"k\":{},\"kept\":{},\"kept_fraction\":{:.8},\
                 \"reduce_ms\":{:.3},\"build_ms\":{:.3},\"full_stream_build_ms\":{:.3},\
                 \"solve_ms\":{:.3},\"arr\":{:.6},\"arr_delta\":{:.6},\"max_shortfall\":{:.6},\
                 \"mean_shortfall\":{:.6}}}",
                leg.k,
                leg.kept,
                leg.kept as f64 / n as f64,
                leg.reduce.as_secs_f64() * 1e3,
                leg.build.as_secs_f64() * 1e3,
                leg.full_stream_build.as_secs_f64() * 1e3,
                leg.solve.as_secs_f64() * 1e3,
                leg.arr,
                leg.arr - sky.arr,
                leg.stats.max_shortfall,
                leg.stats.mean_shortfall,
            ));
        }

        if i > 0 {
            scale_json.push(',');
        }
        scale_json.push_str(&format!(
            "{{\"n\":{n},\"dim\":{dim},\"generate_ms\":{:.3},\"skyline\":{{\"kept\":{},\
             \"kept_fraction\":{:.8},\"reduce_ms\":{:.3},\"build_ms\":{:.3},\
             \"full_stream_build_ms\":{:.3},\"solve_ms\":{:.3},\"arr\":{:.6}}},\
             \"coresets\":[{coreset_json}]}}",
            generate.as_secs_f64() * 1e3,
            sky.kept,
            sky.kept as f64 / n as f64,
            sky.reduce.as_secs_f64() * 1e3,
            sky.build.as_secs_f64() * 1e3,
            sky.full_stream_build.as_secs_f64() * 1e3,
            sky.solve.as_secs_f64() * 1e3,
            sky.arr,
        ));
        if i == 0 {
            small_dataset = Some(ds);
        }
    }

    let json = format!(
        "{{\"bench\":\"reduce\",\"n_samples\":{n_samples},\"k\":{k},\
         \"host_threads\":{threads},\"scales\":[{scale_json}]}}\n"
    );
    let out_path = std::env::var("FAM_BENCH_REDUCE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reduce.json").to_string()
    });
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }

    // Criterion group on the smaller scale: the reduction computation
    // itself (the part every reduced solve pays, cold).
    let ds = small_dataset.expect("at least one scale");
    let mut g = c.benchmark_group("reduce");
    g.sample_size(10);
    g.bench_function("skyline_compute", |bench| {
        bench.iter(|| {
            Reduction::compute(&ds, ReduceSpec::skyline()).expect("reduction").kept().len()
        })
    });
    g.bench_function("coreset_compute", |bench| {
        bench.iter(|| {
            Reduction::compute(&ds, ReduceSpec::coreset(0.1)).expect("reduction").kept().len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_reduce);
criterion_main!(benches);
