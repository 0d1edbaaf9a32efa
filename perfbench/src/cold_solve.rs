//! `cold-solve`: the library path. An `Engine` over n points and N
//! sampled users; each op is a cold solve at one `k` by add-greedy,
//! greedy-shrink, local-search or mrr-greedy, interleaved round-robin
//! over seeded instances.

use std::time::{Duration, Instant};

use fam::algos::{Registry, SolverSpec};
use fam::core::{par, regret, Dataset, ScoreMatrix, SelectionEvaluator, UniformLinear};
use fam::data::{synthetic, Correlation};
use fam::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{is_k_set, median, minflt, ms};
use crate::trace::Tracer;
use crate::{Args, Outcome, Traced};

/// The solvers, in the order each round runs them.
const SOLVERS: [&str; 4] = ["add-greedy", "greedy-shrink", "local-search", "mrr-greedy"];

/// The request each solve makes. local-search runs one improvement pass
/// (`max-passes=1`): how many of the default three passes it takes
/// depends on the data, which would make an op's work vary by seed.
fn spec(solver: &str, k: usize) -> SolverSpec {
    let mut spec = SolverSpec::new(solver, k);
    if solver == "local-search" {
        spec.params.max_passes = 1;
    }
    spec
}

/// The seed of the run's instance `i`: instance 0 is the run's seed
/// itself, and every later one is derived from it.
fn instance_seed(args: &Args, i: u64) -> u64 {
    args.seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)
}

/// One instance's points, derived from its seed.
fn dataset(args: &Args, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = &args.scale;
    synthetic(s.n, s.d, Correlation::AntiCorrelated, &mut rng).expect("synthetic dataset")
}

/// The seed of an instance's sampled user population.
fn sample_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc01d
}

fn build(args: &Args, ds: Dataset, seed: u64) -> Engine {
    Engine::builder()
        .dataset(ds)
        .samples(args.scale.samples)
        .seed(sample_seed(seed))
        .solver(SOLVERS[0])
        .build()
        .expect("engine build")
}

/// One answer, as compared across repeated solves.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    indices: Vec<usize>,
    objective_bits: Option<u64>,
}

/// Checks one solve: `k` distinct in-range ids, a reported arr equal to
/// `regret::arr` of the selection, and bit-identity with the reference
/// answer of the same solver (when one exists).
fn check(
    out: &mut Outcome,
    m: &ScoreMatrix,
    solver: &str,
    k: usize,
    got: &fam::core::SolveOutput,
    reference: Option<&Answer>,
) -> Answer {
    let sel = &got.selection.indices;
    let answer =
        Answer { indices: sel.clone(), objective_bits: got.selection.objective.map(f64::to_bits) };
    let shape_ok = is_k_set(sel, k, m.n_points());
    let arr = regret::arr(m, sel).unwrap_or(f64::NAN);
    let reports_arr =
        Registry::global().require(solver).map(|s| s.capabilities().reports_arr).unwrap_or(false);
    // A solver's own estimate comes from incremental sums, which round
    // differently from a fresh evaluation: equal within 1e-9 relative.
    let close = |v: f64| (v - arr).abs() <= 1e-9 * arr.abs().max(f64::MIN_POSITIVE);
    let arr_ok = arr.is_finite() && (!reports_arr || got.selection.objective.is_some_and(close));
    let same = reference.is_none_or(|r| *r == answer);
    out.op(shape_ok && arr_ok && same, || {
        format!(
            "{solver} k={k}: selection {sel:?} (shape ok {shape_ok}), objective {:?} vs regret::arr {arr} \
             (ok {arr_ok}), identical to the first solve {same}",
            got.selection.objective
        )
    });
    answer
}

/// The geometric mean of positive values.
fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How long each solver solves an instance before the next solver takes
/// it (at least once): greedy-shrink, the fastest, solves it a few times.
const SOLVING_PER_SOLVER: Duration = Duration::from_millis(400);

/// A run is a series of rounds, one per seeded instance: build it, then
/// each solver in turn solves it cold. How much work a solve does
/// depends on its input (add-greedy's lazy re-evaluations, local-search's
/// swaps), so each solver's median is taken over the instances, and
/// interleaving the solvers lets all four see the same host. The gated
/// `op_p50_ms` is the geometric mean of the four solver medians, so a
/// slowdown by the same factor weighs the same in every solver.
pub fn run(args: &Args, out: &mut Outcome) {
    let k = args.scale.k;
    let specs: Vec<SolverSpec> = SOLVERS.iter().map(|s| spec(s, k)).collect();
    let mut setups = Vec::new();
    let mut build_timed = |i: u64| {
        let seed = instance_seed(args, i);
        let ds = dataset(args, seed);
        let t = Instant::now();
        let engine = build(args, ds, seed);
        setups.push(t.elapsed().as_secs_f64());
        engine
    };

    // Warm-up round: instance 0, each solver once, untimed. Its answers
    // are the references the rebuilt instance 0 must reproduce bit for
    // bit.
    let warm_up: Vec<Answer> = {
        let e = build_timed(0);
        SOLVERS
            .iter()
            .zip(&specs)
            .map(|(solver, spec)| {
                let got = e.solve_with(spec).expect("warm-up solve");
                check(out, e.matrix(), solver, k, &got, None)
            })
            .collect()
    };

    // Per round, each solver solves until SOLVING_PER_SOLVER has gone
    // by; every repeat must equal its first answer on the instance.
    let mut medians: Vec<Vec<f64>> = vec![Vec::new(); SOLVERS.len()];
    let mut solves = vec![0usize; SOLVERS.len()];
    let start = Instant::now();
    for i in 0.. {
        if i > 0 && start.elapsed() >= args.window() {
            break;
        }
        let e = build_timed(i);
        for (s, solver) in SOLVERS.iter().enumerate() {
            let mut reference = (i == 0).then(|| warm_up[s].clone());
            let mut lat = Vec::new();
            let mut solving = Duration::ZERO;
            while lat.is_empty() || solving < SOLVING_PER_SOLVER {
                let t = Instant::now();
                let got = e.solve_with(&specs[s]);
                let dt = t.elapsed();
                solving += dt;
                lat.push(ms(dt));
                match got {
                    Ok(got) => {
                        let a = check(out, e.matrix(), solver, k, &got, reference.as_ref());
                        reference.get_or_insert(a);
                    }
                    Err(err) => {
                        out.attempted += 1;
                        out.fail(format!("{solver} k={k}, instance {i}: {err}"));
                        break;
                    }
                }
            }
            medians[s].push(median(&lat));
            solves[s] += lat.len();
        }
    }
    let rounds = medians[0].len();
    let p50: Vec<f64> = medians.iter().map(|m| median(m)).collect();
    out.metric("setup_s", median(&setups), "s", setups.len());
    out.metric("op_p50_ms", geomean(&p50), "ms", rounds);
    for ((solver, p), n) in SOLVERS.iter().zip(&p50).zip(&solves) {
        out.report(&format!("{solver}_p50_ms"), *p, "ms", rounds);
        out.fact(&format!("{solver}_solves"), n.to_string());
    }
    out.fact("rounds", rounds.to_string());
}

/// Traced replay on instance 0: the engine set-up split into the dense
/// matrix build and the engine assembly around it, then rounds of
/// registry solves, one by each solver and each followed by an
/// evaluator rebuild over the answer: one round, and when `full` rounds
/// until the window ends.
pub fn trace(args: &Args, out: &mut Outcome, t: &mut Tracer, full: bool) -> Traced {
    let seed = instance_seed(args, 0);
    let ds = dataset(args, seed);
    let s = &args.scale;
    let k = s.k;
    let op = t.op();
    let (engine, root) = t.span(op, None, "cold-solve.setup", |t, root| {
        let matrix = t.span(op, Some(root), "core.scores.build", |t, id| {
            let f0 = minflt();
            let dist = UniformLinear::new(s.d).expect("uniform distribution");
            let mut rng = StdRng::seed_from_u64(sample_seed(seed));
            let m = ScoreMatrix::from_distribution(&ds, &dist, s.samples, &mut rng)
                .expect("dense build");
            let layouts = if m.has_column_mirror() { 2.0 } else { 1.0 };
            t.count(id, "minflt", (minflt() - f0) as f64);
            t.count(id, "resident_bytes", layouts * (m.n_points() * m.n_samples() * 8) as f64);
            m
        });
        let engine = t.span(op, Some(root), "fam.engine.assemble", |_, _| {
            Engine::builder()
                .matrix(matrix)
                .dataset(ds.clone())
                .solver(SOLVERS[0])
                .build()
                .expect("engine assembly")
        });
        (engine, root)
    });
    let setup_s = t.spans()[root].dur_us() / 1e6;
    let m = engine.matrix();
    let registry = Registry::global();
    let mut reference: Vec<Option<Answer>> = vec![None; SOLVERS.len()];
    let mut per_solver: Vec<Vec<f64>> = vec![Vec::new(); SOLVERS.len()];
    let deadline = Instant::now() + args.window();
    loop {
        for (i, solver) in SOLVERS.iter().enumerate() {
            let op = t.op();
            let got = t.span(op, None, "cold-solve.solve", |t, root| {
                let got = t.span(op, Some(root), &format!("algos.{solver}.cold"), |t, id| {
                    let j0 = par::pool_stats().jobs_dispatched;
                    let got = registry.solve(&spec(solver, k), m, engine.dataset());
                    t.count(id, "pool_jobs", (par::pool_stats().jobs_dispatched - j0) as f64);
                    if let Ok(got) = &got {
                        for (name, v) in &got.notes {
                            t.count(id, name, *v);
                        }
                    }
                    got
                });
                if let Ok(got) = &got {
                    t.span(op, Some(root), "core.evaluator.rebuild", |_, _| {
                        std::hint::black_box(SelectionEvaluator::new_with(
                            m,
                            &got.selection.indices,
                        ));
                    });
                }
                got
            });
            let solve_span = t.named("cold-solve", &format!("algos.{solver}.cold"));
            per_solver[i].extend(solve_span.last().map(|&j| t.spans()[j].dur_us() / 1e3));
            match got {
                Ok(got) => {
                    let a = check(out, m, solver, k, &got, reference[i].as_ref());
                    reference[i].get_or_insert(a);
                }
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("{solver} k={k}: {e}"));
                }
            }
        }
        if !full || Instant::now() >= deadline {
            break;
        }
    }
    let w = || "cold-solve".to_string();
    let p50: Vec<f64> = per_solver.iter().map(|v| median(v)).collect();
    let rounds = per_solver[0].len();
    let mut e2e = vec![
        (w(), "setup_s".to_string(), setup_s, "s", 1),
        (w(), "op_p50_ms".to_string(), geomean(&p50), "ms", rounds),
    ];
    for (s, p) in SOLVERS.iter().zip(p50) {
        e2e.push((w(), format!("{s}_p50_ms"), p, "ms", rounds));
    }
    e2e
}
