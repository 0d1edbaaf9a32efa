//! Engine A/B: the row-major serial baseline versus the columnar parallel
//! evaluation engine, end to end on GREEDY-SHRINK and ADD-GREEDY, plus the
//! fused scoring kernel versus the pre-kernel scalar pass.
//!
//! Scale defaults to the acceptance configuration (`n = 2,000` points,
//! `N = 50,000` samples, `k = 10`); override with `FAM_ENGINE_POINTS`,
//! `FAM_ENGINE_SAMPLES`, `FAM_ENGINE_K`. Besides the criterion groups,
//! the run emits one JSON trajectory point (default
//! `BENCH_engine.json` at the workspace root, override with
//! `FAM_BENCH_ENGINE_OUT`) recording both engines' times and the speedup.
//!
//! The A/B legs are **interleaved** (baseline leg and engine leg back to
//! back, alternating which side goes first) and each side keeps its
//! best-observed time: with sequential legs, allocator state, page-cache
//! warmup, and frequency scaling drift between the two measurement
//! windows and get misattributed to whichever engine runs second — on a
//! single-core host both legs run the same code, and interleaving is
//! what makes the reported ratio actually converge to 1. Each algorithm
//! gets its own alternating loop (GREEDY-SHRINK runs
//! `FAM_ENGINE_SHRINK_REPS` pairs, default `3 × FAM_ENGINE_REPS`), so a
//! short shrink leg never inherits the thermal state of a ~10 s
//! addition sweep.
//!
//! The **dispatch** leg times ADD-GREEDY through `Registry::solve` — the
//! `&dyn ScoreSource` path every front end takes — against the generic
//! `add_greedy` on the same matrix (best of 5 alternating pairs) and
//! fails unless both agree bit for bit and the registry stays within
//! 1.25× of the generic build. A per-element trait call in a hot loop
//! costs an indirect call per sample and blocks vectorization (≈2× on
//! ADD-GREEDY), so this leg catches one creeping back in.
//!
//! The **compact** leg runs the serve layer's work — the ADD-GREEDY and
//! GREEDY-SHRINK range harvests, plus cold local-search (`max-passes=1`),
//! MRR-GREEDY and K-HIT — through the registry on the compact
//! `LinearScores` backing and on the mirrored `ScoreMatrix` built from
//! the same weights, best of 5 alternating pairs. It fails unless every
//! answer agrees bit for bit and each solver's compact time stays within
//! 1.5× the mirror's: the banded fills measured 0.85–1.23×, while a
//! per-element `score(u, p)` fallback costs 5–6×.

use std::io::Write as _;
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use fam::prelude::*;
use fam::{add_greedy, greedy_shrink, LinearScores, ScoreMatrix, ScoreSource};
use fam_core::{kernels, par};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Thread counts for the scaling sweep: `FAM_THREAD_SWEEP` as a comma
/// list (e.g. `1,2,4`), default `1,2,4`. Every leg must produce
/// bit-identical outputs — the sweep certifies the determinism contract
/// while it measures scaling.
fn thread_sweep() -> Vec<usize> {
    std::env::var("FAM_THREAD_SWEEP")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse::<usize>().ok()).collect::<Vec<_>>())
        .filter(|counts| !counts.is_empty() && counts.iter().all(|&t| t >= 1))
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// One leg's accumulated result: the (rep-stable) output plus the best
/// observed time.
struct Leg {
    selection: Vec<usize>,
    objective: f64,
    best: Duration,
}

fn fold(into: &mut Option<Leg>, (selection, objective, dt): (Vec<usize>, f64, Duration)) {
    match into {
        Some(leg) => {
            assert_eq!(leg.selection, selection, "selection must be stable across reps");
            leg.best = leg.best.min(dt);
        }
        None => *into = Some(Leg { selection, objective, best: dt }),
    }
}

/// Runs `pairs` baseline/engine leg pairs back to back, alternating which
/// side goes first each pair, and keeps each side's minimum time. Tight
/// alternation is what makes the ratio of two identical-code legs
/// converge to 1: every transient (frequency scaling, page-cache state,
/// allocator churn) lands on both sides an equal number of times, and
/// the per-side minimum discards whatever is left.
fn ab_minimum(
    pairs: usize,
    mut baseline_leg: impl FnMut() -> (Vec<usize>, f64, Duration),
    mut engine_leg: impl FnMut() -> (Vec<usize>, f64, Duration),
) -> (Leg, Leg) {
    let (mut baseline, mut engine) = (None, None);
    for pair in 0..pairs.max(1) {
        if pair % 2 == 0 {
            fold(&mut baseline, baseline_leg());
            fold(&mut engine, engine_leg());
        } else {
            fold(&mut engine, engine_leg());
            fold(&mut baseline, baseline_leg());
        }
    }
    (baseline.expect("at least one pair"), engine.expect("at least one pair"))
}

/// One timed GREEDY-SHRINK pass in the current engine mode (the caller
/// sets layout and serial/parallel).
fn shrink_once(m: &ScoreMatrix, k: usize) -> (Vec<usize>, f64, Duration) {
    let t = Instant::now();
    let out = greedy_shrink(m, GreedyShrinkConfig::new(k)).expect("greedy_shrink");
    let dt = t.elapsed();
    (out.selection.indices, out.selection.objective.unwrap_or(f64::NAN), dt)
}

/// One timed ADD-GREEDY pass in the current engine mode.
fn add_once(m: &ScoreMatrix, k: usize) -> (Vec<usize>, f64, Duration) {
    let t = Instant::now();
    let added = add_greedy(m, k).expect("add_greedy");
    let dt = t.elapsed();
    (added.indices, added.objective.unwrap_or(f64::NAN), dt)
}

/// One timed ADD-GREEDY pass through the registry, which hands the
/// solver a `&dyn ScoreSource`.
fn add_via_registry(m: &dyn ScoreSource, k: usize) -> (Vec<usize>, f64, Duration) {
    let spec = SolverSpec::new("add-greedy", k);
    let t = Instant::now();
    let out = Registry::global().solve(&spec, m, None).expect("registry add-greedy");
    let dt = t.elapsed();
    (out.selection.indices, out.selection.objective.unwrap_or(f64::NAN), dt)
}

/// Largest registry/generic time ratio the dispatch leg accepts.
const MAX_DISPATCH_RATIO: f64 = 1.25;

/// Largest compact/mirror time ratio the compact leg accepts per solver.
const MAX_COMPACT_RATIO: f64 = 1.5;

/// Every answer of one registry run: indices and objective bits per `k`.
type Answers = Vec<(Vec<usize>, Option<u64>)>;

/// One timed registry run: a range harvest over `1..=k` when `range` is
/// set, else a cold solve.
fn registry_answers(
    m: &dyn ScoreSource,
    spec: &SolverSpec,
    range: Option<RangeInclusive<usize>>,
) -> (Answers, Duration) {
    let registry = Registry::global();
    let t = Instant::now();
    let outs = match range {
        Some(ks) => registry.solve_range(spec, m, None, ks),
        None => registry.solve(spec, m, None).map(|o| vec![o]),
    }
    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let dt = t.elapsed();
    let answers = outs
        .into_iter()
        .map(|o| (o.selection.indices, o.selection.objective.map(f64::to_bits)))
        .collect();
    (answers, dt)
}

/// One solver of the compact leg: best times on the compact backing and
/// on the mirror, and their ratio.
struct CompactLeg {
    name: &'static str,
    compact: Duration,
    mirror: Duration,
}

impl CompactLeg {
    fn ratio(&self) -> f64 {
        self.compact.as_secs_f64() / self.mirror.as_secs_f64().max(1e-12)
    }
}

/// The compact leg: each solver on `compact` and on `mirror` (the same
/// scores), best of `pairs` alternating pairs, answers bit-identical.
fn compact_legs(
    compact: &LinearScores,
    mirror: &ScoreMatrix,
    k: usize,
    pairs: usize,
) -> Vec<CompactLeg> {
    let local = SolverSpec::parse("local-search", k, &[("max-passes", "1")]).expect("spec");
    let legs = [
        ("add-greedy", SolverSpec::new("add-greedy", k), Some(1..=k)),
        ("greedy-shrink", SolverSpec::new("greedy-shrink", k), Some(1..=k)),
        ("local-search", local, None),
        ("mrr-greedy", SolverSpec::new("mrr-greedy", k), None),
        ("k-hit", SolverSpec::new("k-hit", k), None),
    ];
    let sides: [&dyn ScoreSource; 2] = [compact, mirror];
    legs.into_iter()
        .map(|(name, spec, range)| {
            let mut best = [Duration::MAX; 2];
            let mut answers: [Option<Answers>; 2] = [None, None];
            for pair in 0..pairs {
                for side in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
                    let (got, dt) = registry_answers(sides[side], &spec, range.clone());
                    best[side] = best[side].min(dt);
                    match &answers[side] {
                        Some(first) => assert_eq!(first, &got, "{name}: answers must be stable"),
                        None => answers[side] = Some(got),
                    }
                }
            }
            assert_eq!(
                answers[0], answers[1],
                "{name}: the compact backing must answer bit-identically to the mirror"
            );
            let leg = CompactLeg { name, compact: best[0], mirror: best[1] };
            eprintln!(
                "compact:       {name} {:?} vs mirror {:?} ({:.2}x)",
                leg.compact,
                leg.mirror,
                leg.ratio()
            );
            assert!(
                leg.ratio() <= MAX_COMPACT_RATIO,
                "{name} on LinearScores ({:?}) is {:.2}x the mirrored matrix ({:?}); a hot loop \
                 is scoring per element instead of filling bands (see docs/PERFORMANCE.md, \
                 Compact served generations)",
                leg.compact,
                leg.ratio(),
                leg.mirror
            );
            leg
        })
        .collect()
}

/// The scoring pass exactly as it existed before the kernel layer: a
/// virtual `utility` call per element (two-rounding multiply-add inside),
/// followed by a separate serial best-point scan per row. Kept here as
/// the baseline leg of the scoring-kernel A/B.
struct ScalarLinear(Vec<f64>);

impl UtilityFunction for ScalarLinear {
    fn utility(&self, _index: usize, point: &[f64]) -> f64 {
        self.0.iter().zip(point).map(|(w, x)| w * x).sum()
    }
}

fn bench_engine(c: &mut Criterion) {
    let n = env_usize("FAM_ENGINE_POINTS", 2_000);
    let n_samples = env_usize("FAM_ENGINE_SAMPLES", 50_000);
    let k = env_usize("FAM_ENGINE_K", 10);
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    eprintln!("engine bench: n={n}, N={n_samples}, k={k}, host threads={threads}");

    let mut rng = StdRng::seed_from_u64(20190408);
    let ds = synthetic(n, 4, Correlation::AntiCorrelated, &mut rng).expect("dataset");
    let dist = UniformLinear::new(4).expect("dist");
    let reps = env_usize("FAM_ENGINE_REPS", 3).max(1);

    // Scoring-kernel A/B, single-core: the fused score+validate+best tile
    // pass versus the pre-kernel scalar pass over the same sampled weight
    // vectors. A checksum over the per-row bests keeps both legs honest
    // against dead-code elimination.
    let dim = ds.dim();
    let flat = ds.as_flat();
    let mut wrng = StdRng::seed_from_u64(11);
    let weight_rows: Vec<Vec<f64>> =
        (0..n_samples).map(|_| (0..dim).map(|_| wrng.gen_range(0.0..=1.0)).collect()).collect();
    let scalar_fns: Vec<ScalarLinear> =
        weight_rows.iter().map(|w| ScalarLinear(w.clone())).collect();
    let mut row = vec![0.0f64; n];
    let mut scoring_scalar = Duration::MAX;
    let mut scoring_fused = Duration::MAX;
    let mut sink = 0.0f64;
    par::force_serial(true);
    for _ in 0..reps {
        let t = Instant::now();
        for f in &scalar_fns {
            let f: &dyn UtilityFunction = f;
            for (idx, p) in ds.points().enumerate() {
                row[idx] = f.utility(idx, p);
            }
            let (mut bi, mut bv) = (0usize, row[0]);
            for (i, &v) in row.iter().enumerate().skip(1) {
                if v > bv {
                    bi = i;
                    bv = v;
                }
            }
            sink += bv + bi as f64;
        }
        scoring_scalar = scoring_scalar.min(t.elapsed());
        let t = Instant::now();
        for w in &weight_rows {
            let (bi, bv, _) = kernels::linear_score_row(w, flat, dim, &mut row);
            sink += bv + bi as f64;
        }
        scoring_fused = scoring_fused.min(t.elapsed());
    }
    par::force_serial(false);
    let scoring_speedup = scoring_scalar.as_secs_f64() / scoring_fused.as_secs_f64().max(1e-12);
    eprintln!(
        "scoring pass:  scalar {scoring_scalar:?} vs fused kernel {scoring_fused:?} \
         ({scoring_speedup:.2}x, checksum {sink:.3})"
    );

    // Construction A/B (per-sample scoring fan-out + transpose),
    // interleaved serial/parallel with best-of-reps per leg; each build is
    // dropped before the next so peak memory stays at one mirrored
    // matrix. The final parallel build is kept for the algorithm A/B.
    let build = || {
        let mut r = StdRng::seed_from_u64(7);
        ScoreMatrix::from_distribution(&ds, &dist, n_samples, &mut r).expect("matrix")
    };
    let mut construct_serial = Duration::MAX;
    let mut construct_parallel = Duration::MAX;
    let mut matrix = None;
    for rep in 0..reps {
        // Only one matrix is ever resident: each leg drops the previous
        // build first, so neither pays allocator/memory pressure for the
        // other's 2×-footprint result. Leg order alternates per rep so
        // any residual first-leg warmup cost is shared.
        for leg in [rep % 2 == 0, rep % 2 != 0] {
            drop(matrix.take());
            par::force_serial(leg);
            let t = Instant::now();
            let m = build();
            let dt = t.elapsed();
            if leg {
                construct_serial = construct_serial.min(dt);
            } else {
                construct_parallel = construct_parallel.min(dt);
                matrix = Some(m);
            }
        }
    }
    par::force_serial(false);
    let built = match matrix {
        Some(m) => m,
        None => build(),
    };
    // Derive BOTH legs' matrices from fresh back-to-back clones so their
    // row buffers have identical allocation character (the original
    // build's buffer, allocated amid scoring churn, measurably loses a
    // few percent of page/TLB locality to a compact clone — enough to
    // masquerade as an engine difference on row-bound algorithms).
    let base = built.drop_column_mirror();
    let bare = base.clone_without_mirror();
    let mut matrix = base.clone_without_mirror();
    drop(base);
    matrix.build_column_mirror();

    // GREEDY-SHRINK A/B in its own tight alternating loop, decoupled from
    // the much longer ADD-GREEDY legs: when both algorithms shared one
    // timed pass, every shrink leg inherited the thermal/frequency state
    // left behind by whichever ~10 s addition sweep preceded it, and that
    // adjacency bias (a persistent few percent) swamped the actual engine
    // difference. Shrink legs are short, so extra pairs are cheap.
    let shrink_pairs = env_usize("FAM_ENGINE_SHRINK_REPS", 3 * reps).max(2);
    let (s_base, s_engine) = ab_minimum(
        shrink_pairs,
        || {
            par::force_serial(true);
            let r = shrink_once(&bare, k);
            par::force_serial(false);
            r
        },
        || shrink_once(&matrix, k),
    );
    assert_eq!(s_base.selection, s_engine.selection, "engines must select identical sets");
    assert_eq!(
        s_base.objective.to_bits(),
        s_engine.objective.to_bits(),
        "engines must report bit-identical arr"
    );

    // ADD-GREEDY A/B: same alternating discipline, fewer pairs (the
    // row-major leg re-scores a full column per candidate and dominates
    // the bench's wall clock).
    let (a_base, a_engine) = ab_minimum(
        reps,
        || {
            par::force_serial(true);
            let r = add_once(&bare, k);
            par::force_serial(false);
            r
        },
        || add_once(&matrix, k),
    );
    assert_eq!(
        a_base.selection, a_engine.selection,
        "add_greedy engines must select identical sets"
    );
    assert_eq!(
        a_base.objective.to_bits(),
        a_engine.objective.to_bits(),
        "add_greedy engines must report bit-identical arr"
    );

    // Dispatch A/B: the same ADD-GREEDY through `&dyn ScoreSource` (the
    // registry) and through the generic entry point, same matrix, same
    // execution mode.
    let (d_generic, d_registry) =
        ab_minimum(5, || add_once(&matrix, k), || add_via_registry(&matrix, k));
    assert_eq!(d_registry.selection, d_generic.selection, "dispatch legs must select alike");
    assert_eq!(
        d_registry.objective.to_bits(),
        d_generic.objective.to_bits(),
        "dispatch legs must report bit-identical arr"
    );
    let dispatch_ratio = d_registry.best.as_secs_f64() / d_generic.best.as_secs_f64().max(1e-12);
    eprintln!(
        "dispatch:      add_greedy via registry {:?} vs generic {:?} ({dispatch_ratio:.2}x)",
        d_registry.best, d_generic.best
    );
    assert!(
        dispatch_ratio <= MAX_DISPATCH_RATIO,
        "add_greedy through the registry ({:?}) is {dispatch_ratio:.2}x the generic build ({:?}); \
         a hot loop is calling ScoreSource per element (see docs/PERFORMANCE.md, Dispatch)",
        d_registry.best,
        d_generic.best
    );

    // Compact A/B: the served backing against the mirror, same weights
    // (`from_distribution` samples exactly these functions, in order).
    let mut r = StdRng::seed_from_u64(7);
    let functions: Vec<Arc<dyn UtilityFunction>> =
        (0..n_samples).map(|_| dist.sample(&mut r)).collect();
    let compact = LinearScores::from_functions(ds.clone(), &functions).expect("compact backing");
    drop(functions);
    let compact_legs = compact_legs(&compact, &matrix, k, 5);
    let compact_json = compact_legs
        .iter()
        .map(|l| {
            format!(
                "\"{}\":{{\"compact_ms\":{:.3},\"mirror_ms\":{:.3},\"ratio\":{:.3}}}",
                l.name,
                l.compact.as_secs_f64() * 1e3,
                l.mirror.as_secs_f64() * 1e3,
                l.ratio()
            )
        })
        .collect::<Vec<_>>()
        .join(",");

    let speedup = s_base.best.as_secs_f64() / s_engine.best.as_secs_f64().max(1e-12);
    let add_speedup = a_base.best.as_secs_f64() / a_engine.best.as_secs_f64().max(1e-12);
    eprintln!(
        "greedy_shrink: row-major serial {:?} vs columnar parallel {:?} ({speedup:.2}x)",
        s_base.best, s_engine.best
    );
    eprintln!(
        "add_greedy:    row-major serial {:?} vs columnar parallel {:?} ({add_speedup:.2}x)",
        a_base.best, a_engine.best
    );

    // Fork-join overhead A/B: the same trivial two-index job dispatched
    // through the persistent pool versus a scoped one-thread spawn. This
    // is the latency every parallel helper pays per call — the number
    // `PAR_MIN_WORK` is calibrated against (see docs/PERFORMANCE.md).
    let overhead_reps = env_usize("FAM_ENGINE_OVERHEAD_REPS", 2_000).max(100);
    par::set_max_threads(Some(2));
    par::prewarm();
    let mut overhead_sink = 0usize;
    let t = Instant::now();
    for _ in 0..overhead_reps {
        overhead_sink += par::map_chunks(2, 1, |r| r.start).len();
    }
    let pool_forkjoin_overhead_us = t.elapsed().as_secs_f64() * 1e6 / overhead_reps as f64;
    par::set_max_threads(None);
    let t = Instant::now();
    for _ in 0..overhead_reps {
        std::thread::scope(|s| {
            let half = s.spawn(|| 1usize);
            overhead_sink += half.join().expect("scoped leg") + 1;
        });
    }
    let scoped_spawn_overhead_us = t.elapsed().as_secs_f64() * 1e6 / overhead_reps as f64;
    eprintln!(
        "fork-join:     pool dispatch {pool_forkjoin_overhead_us:.2}us vs scoped spawn \
         {scoped_spawn_overhead_us:.2}us per job (checksum {overhead_sink})"
    );
    assert!(
        pool_forkjoin_overhead_us < 0.10 * scoped_spawn_overhead_us,
        "pool dispatch ({pool_forkjoin_overhead_us:.2}us) must stay under 10% of a scoped \
         spawn ({scoped_spawn_overhead_us:.2}us) — the PAR_MIN_WORK calibration assumes it"
    );

    // Thread-scaling sweep: the full GREEDY-SHRINK and ADD-GREEDY legs,
    // plus cold local-search (`max-passes=1`) and MRR-GREEDY through the
    // registry, at each requested worker count, asserting bit-identical
    // outputs while recording per-count times. `set_max_threads(Some(1))`
    // takes the serial path, so the sweep brackets the pool against
    // no-pool.
    let sweep = thread_sweep();
    let pruned = [
        SolverSpec::parse("local-search", k, &[("max-passes", "1")]).expect("spec"),
        SolverSpec::new("mrr-greedy", k),
    ];
    let mut pruned_answers: [Option<Answers>; 2] = [None, None];
    let mut sweep_shrink_ms = Vec::new();
    let mut sweep_add_ms = Vec::new();
    let mut sweep_pruned_ms = [Vec::new(), Vec::new()];
    for &count in &sweep {
        par::set_max_threads(Some(count));
        let (mut shrink_best, mut add_best) = (Duration::MAX, Duration::MAX);
        let mut pruned_best = [Duration::MAX; 2];
        for _ in 0..reps {
            let (sel, obj, dt) = shrink_once(&matrix, k);
            assert_eq!(sel, s_engine.selection, "threads={count}: greedy_shrink diverged");
            assert_eq!(obj.to_bits(), s_engine.objective.to_bits(), "threads={count}: arr");
            shrink_best = shrink_best.min(dt);
            let (sel, obj, dt) = add_once(&matrix, k);
            assert_eq!(sel, a_engine.selection, "threads={count}: add_greedy diverged");
            assert_eq!(obj.to_bits(), a_engine.objective.to_bits(), "threads={count}: arr");
            add_best = add_best.min(dt);
            for ((spec, answers), best) in
                pruned.iter().zip(&mut pruned_answers).zip(&mut pruned_best)
            {
                let (got, dt) = registry_answers(&matrix, spec, None);
                match answers {
                    Some(first) => {
                        assert_eq!(first, &got, "threads={count}: {} diverged", spec.name)
                    }
                    None => *answers = Some(got),
                }
                *best = (*best).min(dt);
            }
        }
        par::set_max_threads(None);
        eprintln!(
            "threads={count}: greedy_shrink {shrink_best:?}, add_greedy {add_best:?}, \
             local-search {:?}, mrr-greedy {:?} (bit-identical)",
            pruned_best[0], pruned_best[1]
        );
        sweep_shrink_ms.push(shrink_best.as_secs_f64() * 1e3);
        sweep_add_ms.push(add_best.as_secs_f64() * 1e3);
        for (ms, best) in sweep_pruned_ms.iter_mut().zip(pruned_best) {
            ms.push(best.as_secs_f64() * 1e3);
        }
    }
    let pool = par::pool_stats();
    let join_ms = |xs: &[f64]| xs.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(",");
    let thread_scaling = format!(
        "{{\"threads\":[{}],\"greedy_shrink_ms\":[{}],\"add_greedy_ms\":[{}],\
         \"local_search_ms\":[{}],\"mrr_greedy_ms\":[{}],\
         \"bit_identical\":true,\"pool_workers_spawned\":{},\"pool_jobs_dispatched\":{}}}",
        sweep.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(","),
        join_ms(&sweep_shrink_ms),
        join_ms(&sweep_add_ms),
        join_ms(&sweep_pruned_ms[0]),
        join_ms(&sweep_pruned_ms[1]),
        pool.workers_spawned,
        pool.jobs_dispatched,
    );

    let out_path = std::env::var("FAM_BENCH_ENGINE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });
    let json = format!(
        "{{\"bench\":\"engine\",\"n\":{n},\"n_samples\":{n_samples},\"k\":{k},\
         \"host_threads\":{threads},\
         \"scoring_scalar_ms\":{:.3},\"scoring_fused_ms\":{:.3},\
         \"scoring_kernel_speedup\":{scoring_speedup:.3},\
         \"construct_serial_ms\":{:.3},\"construct_parallel_ms\":{:.3},\
         \"greedy_shrink_row_serial_ms\":{:.3},\"greedy_shrink_columnar_parallel_ms\":{:.3},\
         \"greedy_shrink_speedup\":{speedup:.3},\
         \"add_greedy_row_serial_ms\":{:.3},\"add_greedy_columnar_parallel_ms\":{:.3},\
         \"add_greedy_speedup\":{add_speedup:.3},\
         \"add_greedy_registry_ms\":{:.3},\"add_greedy_generic_ms\":{:.3},\
         \"dispatch_ratio\":{dispatch_ratio:.3},\
         \"pool_forkjoin_overhead_us\":{pool_forkjoin_overhead_us:.3},\
         \"scoped_spawn_overhead_us\":{scoped_spawn_overhead_us:.3},\
         \"compact\":{{{compact_json}}},\
         \"thread_scaling\":{thread_scaling}}}\n",
        scoring_scalar.as_secs_f64() * 1e3,
        scoring_fused.as_secs_f64() * 1e3,
        construct_serial.as_secs_f64() * 1e3,
        construct_parallel.as_secs_f64() * 1e3,
        s_base.best.as_secs_f64() * 1e3,
        s_engine.best.as_secs_f64() * 1e3,
        a_base.best.as_secs_f64() * 1e3,
        a_engine.best.as_secs_f64() * 1e3,
        d_registry.best.as_secs_f64() * 1e3,
        d_generic.best.as_secs_f64() * 1e3,
    );
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }

    // Criterion groups for the hot kernels, so `cargo bench` trends them.
    let mut g = c.benchmark_group("engine_kernels");
    g.sample_size(5);
    let score_rows = n_samples.min(2_000);
    g.bench_function("scoring_scalar_pass", |b| {
        let mut row = vec![0.0f64; n];
        b.iter(|| {
            let mut acc = 0.0;
            for f in &scalar_fns[..score_rows] {
                let f: &dyn UtilityFunction = f;
                for (idx, p) in ds.points().enumerate() {
                    row[idx] = f.utility(idx, p);
                }
                acc += row[n - 1];
            }
            acc
        })
    });
    g.bench_function("scoring_fused_pass", |b| {
        let mut row = vec![0.0f64; n];
        b.iter(|| {
            let mut acc = 0.0;
            for w in &weight_rows[..score_rows] {
                let (_, bv, _) = kernels::linear_score_row(w, flat, dim, &mut row);
                acc += bv;
            }
            acc
        })
    });
    g.bench_function("rebuild_columnar_parallel", |b| {
        b.iter(|| SelectionEvaluator::new_full(&matrix).arr())
    });
    g.bench_function("rebuild_row_serial", |b| {
        par::force_serial(true);
        b.iter(|| SelectionEvaluator::new_full(&bare).arr());
        par::force_serial(false);
    });
    g.bench_function("addition_sweep_columnar", |b| {
        let ev = SelectionEvaluator::new_with(&matrix, &[0]);
        b.iter(|| {
            let mut acc = 0.0;
            for p in 1..matrix.n_points() {
                acc += ev.addition_delta(p);
            }
            acc
        })
    });
    g.bench_function("addition_sweep_row_major", |b| {
        let ev = SelectionEvaluator::new_with(&bare, &[0]);
        par::force_serial(true);
        b.iter(|| {
            let mut acc = 0.0;
            for p in 1..bare.n_points() {
                acc += ev.addition_delta(p);
            }
            acc
        });
        par::force_serial(false);
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
