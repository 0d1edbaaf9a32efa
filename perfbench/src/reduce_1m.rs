//! `reduce-1m`: the million-point path. Set-up generates the dataset;
//! each op is a skyline-reduced `Engine` build (reduction, then the tiled
//! matrix build over the kept points) followed by one solve.

use std::time::Instant;

use fam::algos::{Registry, SolverSpec};
use fam::core::{Dataset, ReduceKind, ScoreMatrix, UniformLinear};
use fam::data::{synthetic, Correlation};
use fam::{Engine, ReduceSpec, Reduction};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{is_k_set, median, ms};
use crate::trace::Tracer;
use crate::{Args, Outcome, Traced};

/// The solver each op runs on the reduced universe.
const SOLVER: &str = "add-greedy";

fn generate(args: &Args) -> Dataset {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let s = &args.scale;
    synthetic(s.reduce_n, s.reduce_d, Correlation::AntiCorrelated, &mut rng)
        .expect("synthetic dataset")
}

/// The seed of the sampled user population.
fn sample_seed(args: &Args) -> u64 {
    args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7ed0
}

/// Checks one op's answer: `k` distinct in-range ids, a skyline build
/// without shortfall, and the same selection as the first op.
fn check(
    out: &mut Outcome,
    args: &Args,
    selection: &[usize],
    max_shortfall: f64,
    reference: &mut Option<Vec<usize>>,
) {
    let k = args.scale.k;
    let shape_ok = is_k_set(selection, k, args.scale.reduce_n);
    let same = reference.as_ref().is_none_or(|r| r.as_slice() == selection);
    out.op(shape_ok && same && max_shortfall == 0.0, || {
        format!(
            "reduced solve: selection {selection:?} (shape ok {shape_ok}, same as first op {same}), \
             max_shortfall {max_shortfall} (must be 0 for a skyline keep)"
        )
    });
    reference.get_or_insert_with(|| selection.to_vec());
}

/// The dataset is generated afresh before every op, so `setup_s` (the
/// median generation) samples the same stretch of the run as the ops.
pub fn run(args: &Args, out: &mut Outcome) {
    let k = args.scale.k;
    let mut setups = Vec::new();
    let mut reference = None;
    let mut op = |out: &mut Outcome| -> Option<f64> {
        let t = Instant::now();
        let ds = generate(args);
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let result = Engine::builder()
            .dataset(ds)
            .reduce(ReduceKind::Skyline)
            .samples(args.scale.reduce_samples)
            .seed(sample_seed(args))
            .solver(SOLVER)
            .build()
            .and_then(|engine| engine.solve(k).map(|got| (engine, got)));
        let dt = ms(t.elapsed());
        match result {
            Ok((engine, got)) => {
                let shortfall = engine.reduce_stats().map_or(f64::NAN, |s| s.max_shortfall);
                check(out, args, &got.selection.indices, shortfall, &mut reference);
                Some(dt)
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("reduced build + solve: {e}"));
                None
            }
        }
    };
    // Warm-up op: fixes the reference answer.
    op(out);
    let mut ops = Vec::new();
    let deadline = Instant::now() + args.window();
    while ops.is_empty() || Instant::now() < deadline {
        match op(out) {
            Some(dt) => ops.push(dt),
            None => break,
        }
    }
    out.metric("setup_s", median(&setups), "s", setups.len());
    out.metric("op_p50_ms", median(&ops), "ms", ops.len());
    out.report("solve_p50_ms", median(&ops), "ms", ops.len());
}

/// Traced replay: the generation, then per op the reduction, the tiled
/// build over the kept points, the kept-universe dataset, and the solve
/// on the `N × kept` matrix — the calls `Engine::build` + `solve` make.
pub fn trace(args: &Args, out: &mut Outcome, t: &mut Tracer, full: bool) -> Traced {
    let s = &args.scale;
    let k = s.k;
    let op = t.op();
    let (ds, root) = t.span(op, None, "reduce-1m.setup", |t, root| {
        (t.span(op, Some(root), "data.generate", |_, _| generate(args)), root)
    });
    let setup_s = t.spans()[root].dur_us() / 1e6;
    let mut reference = None;
    let mut ops = Vec::new();
    let deadline = Instant::now() + args.window();
    loop {
        let op = t.op();
        let (result, root) = t.span(op, None, "reduce-1m.op", |t, root| {
            let run = |t: &mut Tracer| -> fam::core::Result<(Vec<usize>, f64)> {
                let r = t.span(op, Some(root), "reduce.compute", |t, id| {
                    let r = Reduction::compute(&ds, ReduceSpec::skyline());
                    if let Ok(r) = &r {
                        t.count(id, "kept_fraction", r.kept_fraction());
                        t.count(id, "kept_points", r.kept().len() as f64);
                    }
                    r
                })?;
                let (m, stats) = t.span(op, Some(root), "core.scores.tiled_build", |t, id| {
                    let dist = UniformLinear::new(ds.dim())?;
                    let mut rng = StdRng::seed_from_u64(sample_seed(args));
                    let built = ScoreMatrix::from_distribution_tiled(
                        &ds,
                        &dist,
                        s.reduce_samples,
                        &mut rng,
                        r.kept(),
                    );
                    // Every sample scores every point: N · n · d · 8 bytes read.
                    t.count(id, "bytes_read", (s.reduce_samples * ds.len() * ds.dim() * 8) as f64);
                    built
                })?;
                let kept = t.span(op, Some(root), "reduce.restrict_dataset", |_, _| {
                    r.restrict_dataset(&ds)
                })?;
                let mut got = t.span(op, Some(root), "algos.add-greedy.reduced", |_, _| {
                    Registry::global().solve(&SolverSpec::new(SOLVER, k), &m, Some(&kept))
                })?;
                r.remap_output(&mut got)?;
                Ok((got.selection.indices, stats.max_shortfall))
            };
            (run(t), root)
        });
        match result {
            Ok((selection, shortfall)) => {
                check(out, args, &selection, shortfall, &mut reference);
                ops.push(t.spans()[root].dur_us() / 1e3);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("traced reduced build + solve: {e}"));
            }
        }
        if !full || Instant::now() >= deadline || out.failed > 0 {
            break;
        }
    }
    let w = || "reduce-1m".to_string();
    vec![
        (w(), "setup_s".to_string(), setup_s, "s", 1),
        (w(), "op_p50_ms".to_string(), median(&ops), "ms", ops.len()),
        (w(), "solve_p50_ms".to_string(), median(&ops), "ms", ops.len()),
    ]
}
