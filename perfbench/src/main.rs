//! The gating benchmark: runs one named workload from a seed, drives the
//! program only through its public API, checks every answer, and prints
//! its metrics by name with their units.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mixed.update --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; it exits 1 when any
//! answer check failed. Untraced (`--trace 0`) the metrics are the
//! end-to-end ones `BENCHMARK.json` gates, which every workload reports
//! (`setup_s`, `op_p50_ms`, `peak_rss_mb`); traced (`--trace 1`) they are
//! the per-layer ones. The line before it is a report: provenance (nproc,
//! pool size, scale, seed, build), every workload-specific number by
//! name with its unit and sample count (`update_p50_ms`, `read_p99_us`,
//! each solver's `*_p50_ms`, ...), the error rate, work counters, and the
//! host canary.
//!
//! Two options beyond the four every run takes: `--scale smoke` (tiny
//! inputs for the benchmark's own tests) and `--out DIR` (where traced
//! spans and the untraced results log go; default `.bench_out`).

mod cold_solve;
mod probe;
mod reduce_1m;
mod serve_mixed;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use probe::{num, object, string};
use trace::Tracer;

/// The workloads. A name is `family` or `family.variant`: the two
/// serve-mixed workloads run the same traffic and gate the update and
/// the read latency.
pub const WORKLOADS: [&str; 4] =
    ["serve-mixed.update", "serve-mixed.read", "cold-solve", "reduce-1m"];

/// The workload families, in the order the traced mode replays them.
const FAMILIES: [&str; 3] = ["serve-mixed", "cold-solve", "reduce-1m"];

/// A workload's family and variant (`""` when it has none).
pub fn family(workload: &str) -> (&str, &str) {
    workload.split_once('.').unwrap_or((workload, ""))
}

/// Input sizes. `full` is the gated scale; `smoke` runs every path and
/// every check in seconds.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    /// Points, dimension and sampled users of serve-mixed and cold-solve.
    pub n: usize,
    pub d: usize,
    pub samples: usize,
    /// serve-mixed caches `k = 1..=cache_hi`.
    pub cache_hi: usize,
    /// The `k` every cold and reduced solve asks for.
    pub k: usize,
    /// serve-mixed's open-loop read rate (requests per second).
    pub read_rate: f64,
    /// reduce-1m's points, dimension and sampled users.
    pub reduce_n: usize,
    pub reduce_d: usize,
    pub reduce_samples: usize,
}

impl Scale {
    fn full() -> Self {
        Scale {
            name: "full",
            n: 2_000,
            d: 4,
            samples: 20_000,
            cache_hi: 10,
            k: 10,
            read_rate: 2_000.0,
            reduce_n: 1_000_000,
            reduce_d: 2,
            reduce_samples: 2_000,
        }
    }

    fn smoke() -> Self {
        Scale {
            name: "smoke",
            n: 150,
            d: 4,
            samples: 400,
            cache_hi: 5,
            k: 5,
            read_rate: 400.0,
            reduce_n: 20_000,
            reduce_d: 2,
            reduce_samples: 200,
        }
    }

    fn provenance(&self) -> String {
        object(&[
            ("scale", string(self.name)),
            ("n", self.n.to_string()),
            ("d", self.d.to_string()),
            ("samples", self.samples.to_string()),
            ("k", self.k.to_string()),
            ("cache_k", string(&format!("1..={}", self.cache_hi))),
            ("read_rate_per_s", num(self.read_rate)),
            ("reduce_n", self.reduce_n.to_string()),
            ("reduce_d", self.reduce_d.to_string()),
            ("reduce_samples", self.reduce_samples.to_string()),
        ])
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out: PathBuf,
}

impl Args {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::full();
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::full(),
                    "smoke" => Scale::smoke(),
                    _ => return Err("--scale takes full or smoke".into()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (have {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        out,
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and failed (a failed answer check counts as a
    /// failed op).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Gated metrics, end-to-end untraced and per-layer traced:
    /// `(name, value, unit, samples)`.
    pub metrics: Vec<(String, f64, &'static str, usize)>,
    /// How each per-layer metric is measured, with its base.
    pub bases: Vec<(String, String)>,
    /// Every other number by name: `(name, value, unit, samples)`.
    pub report: Vec<(String, f64, &'static str, usize)>,
    /// Work counters and run facts, already JSON-encoded.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one attempted op that passed or failed its check.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure (of an op already counted as attempted).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// A per-layer metric with the statement of how it is measured.
    pub fn layer(
        &mut self,
        name: &str,
        (value, samples): (f64, usize),
        unit: &'static str,
        base: &str,
    ) {
        self.metric(name, value, unit, samples);
        self.bases.push((name.to_string(), string(base)));
    }

    pub fn report(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.report.push((name.to_string(), value, unit, samples));
    }

    pub fn fact(&mut self, name: &str, json: String) {
        self.facts.push((name.to_string(), json));
    }
}

/// Identifies the running build: an FNV-1a hash of the executable, so
/// the traced run compares itself only with untraced runs of the same
/// code.
fn build_id() -> String {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let hash = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    format!("{hash:016x}")
}

/// The median of `metric` over the untraced runs of `workload` that this
/// build logged at this scale, and how many there were (the traced run
/// prints it beside its own number).
fn untraced_median(args: &Args, build: &str, workload: &str, metric: &str) -> (f64, usize) {
    let Ok(log) = std::fs::read_to_string(args.out.join("results.jsonl")) else {
        return (f64::NAN, 0);
    };
    let v: Vec<f64> = log
        .lines()
        .filter(|l| probe::field(l, "build") == Some(string(build).as_str()))
        .filter(|l| probe::field(l, "workload") == Some(string(workload).as_str()))
        .filter(|l| probe::field(l, "scale") == Some(string(args.scale.name).as_str()))
        .filter_map(|l| probe::field_f64(l, metric))
        .collect();
    (probe::median(&v), v.len())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    if args.trace {
        traced(&args, &mut out, &mut tracer);
        out.fact("peak_rss_mb", num(probe::peak_rss_mb()));
    } else {
        match family(&args.workload) {
            ("serve-mixed", gate) => serve_mixed::run(&args, &mut out, gate == "read"),
            ("cold-solve", _) => cold_solve::run(&args, &mut out),
            _ => reduce_1m::run(&args, &mut out),
        }
        out.metric("peak_rss_mb", probe::peak_rss_mb(), "MB", 1);
    }
    // The canary runs last so its scratch memory never sets the peak.
    let (spin_ms, touch) = probe::host_canary();
    finish(&args, &out, &tracer, spin_ms, touch);
}

/// End-to-end numbers of a traced replay: `(workload, metric, value,
/// unit, samples)`.
pub type Traced = Vec<(String, String, f64, &'static str, usize)>;

/// The traced run: replays the named workload's family for the whole
/// window, then one op of each other family. The contract requires a
/// traced run to print every registered per-layer metric, and each
/// family runs layers the others do not; a metric is taken from the
/// named workload's family where that family runs the layer.
fn traced(args: &Args, out: &mut Outcome, tracer: &mut Tracer) {
    let own = family(&args.workload).0;
    let build = build_id();
    // The named workload's family first (`false` sorts before `true`).
    let mut order = FAMILIES.to_vec();
    order.sort_by_key(|f| *f != own);
    for f in order {
        tracer.workload = f;
        let full = f == own;
        let e2e = match f {
            "serve-mixed" => serve_mixed::trace(args, out, tracer, full),
            "cold-solve" => cold_solve::trace(args, out, tracer, full),
            _ => reduce_1m::trace(args, out, tracer, full),
        };
        let mut by_workload: Vec<(String, Vec<(String, String)>)> = Vec::new();
        for (w, name, value, unit, n) in e2e {
            let (base, runs) = untraced_median(args, &build, &w, &name);
            let pair = (
                name,
                object(&[
                    ("traced", num(value)),
                    ("unit", string(unit)),
                    ("samples", n.to_string()),
                    ("untraced_median", num(base)),
                    ("untraced_runs", runs.to_string()),
                ]),
            );
            match by_workload.iter_mut().find(|(seen, _)| *seen == w) {
                Some((_, pairs)) => pairs.push(pair),
                None => by_workload.push((w, vec![pair])),
            }
        }
        let by_root: Vec<(String, String)> = tracer
            .unaccounted(f)
            .into_iter()
            .map(|(root, shares)| {
                let max = shares.iter().copied().fold(f64::NAN, f64::max);
                (
                    root,
                    object(&[
                        ("median", num(probe::median(&shares))),
                        ("max", num(max)),
                        ("ops", shares.len().to_string()),
                    ]),
                )
            })
            .collect();
        for (w, pairs) in by_workload {
            out.fact(&format!("{w}.end_to_end"), object(&pairs));
        }
        out.fact(&format!("{f}.unaccounted_share"), object(&by_root));
    }
    layer_metrics(args, out, tracer);
    let path = args.out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write(&path) {
        Ok(()) => out.fact("spans_file", string(&path.display().to_string())),
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("writing spans to {}: {e}", path.display()));
        }
    }
}

/// Where a per-layer metric's samples come from.
enum Source {
    /// Durations of the spans with this name, divided by the scale.
    Dur(&'static str, f64),
    /// Self times of the spans with this name, divided by the scale.
    SelfDur(&'static str, f64),
    /// A counter on the spans with this name, divided by the scale.
    Counter(&'static str, &'static str, f64),
    /// The HTTP read p50 minus the direct cache-hit p50.
    HttpRead,
}

use Source::{Counter, Dur, SelfDur};

/// Every per-layer metric: name, unit, source, how it is measured (with
/// its base), and which end-to-end metric it should move on which
/// workload. Each value is the median over the calls the traced run
/// made; the sample count is that number of calls.
#[rustfmt::skip]
const LAYERS: [(&str, &str, Source, &str, &str); 36] = [
    ("serve.http.read_us", "us", Source::HttpRead, "HTTP GET /solve p50 from the due send time, minus the DatasetService::solve cache-hit p50", "op_p50_ms (the read p50) on serve-mixed.read"),
    ("serve.service.solve_hit_us", "us", Dur("serve.service.solve_hit", 1.0), "one direct DatasetService::solve of a cached spec", "op_p50_ms (the read p50) on serve-mixed.read, and its read_p99_us"),
    ("serve.service.cache_hit_ratio", "ratio", Counter("serve.http.reads", "cache_hit_ratio", 1.0), "/stats cache_hits / solve_requests over the run", "op_p50_ms (the read p50) on serve-mixed.read, and its read_p99_us"),
    ("serve.gen.lag_p99_us", "us", Counter("serve.http.reads", "lag_p99_us", 1.0), "p99 of how late the open-loop reader sent a request (health check only)", "none (health check)"),
    ("serve.service.clone_ms", "ms", Dur("serve.service.clone", 1e3), "one DatasetService::clone, per update", "op_p50_ms on serve-mixed.update"),
    ("serve.service.clone_minflt", "count", Counter("serve.service.clone", "minflt", 1.0), "minor page faults of the process during one clone", "op_p50_ms, peak_rss_mb on serve-mixed.update"),
    ("serve.service.clone_mb", "MB", Counter("serve.service.clone", "bytes_moved", 1e6), "bytes one clone copies: layouts x N x n x 8 B", "op_p50_ms, peak_rss_mb on serve-mixed.update"),
    ("serve.service.apply_ms", "ms", Dur("serve.service.apply", 1e3), "one DatasetService::apply_ops on the clone", "op_p50_ms on serve-mixed.update"),
    ("core.par.jobs", "count", Counter("serve.service.apply", "pool_jobs", 1.0), "pool jobs dispatched during one apply_ops, per update", "op_p50_ms on both serve-mixed workloads, and read_p99_us"),
    ("core.dynamic.apply_ms", "ms", SelfDur("core.dynamic.apply", 1e3), "DynamicEngine::apply_with on the library replica minus its repair closure, per update", "op_p50_ms on serve-mixed.update"),
    ("core.dynamic.resumed_rescans", "count", Counter("core.dynamic.apply", "resumed_rescans", 1.0), "ApplyReport::resumed_rescans, per update", "op_p50_ms on serve-mixed.update"),
    ("algos.repair.ms", "ms", Dur("algos.repair", 1e3), "warm_repair inside the apply_with closure, per update", "op_p50_ms on serve-mixed.update"),
    ("algos.repair.evaluations", "count", Counter("algos.repair", "evaluations", 1.0), "RepairOutcome::evaluations, per update", "op_p50_ms on serve-mixed.update"),
    ("algos.trajectory.add-greedy_ms", "ms", Dur("algos.trajectory.add-greedy", 1e3), "one Registry::solve_range over the cache range, at set-up and per update", "op_p50_ms, setup_s on serve-mixed.update"),
    ("algos.trajectory.greedy-shrink_ms", "ms", Dur("algos.trajectory.greedy-shrink", 1e3), "one Registry::solve_range over the cache range, at set-up and per update", "op_p50_ms, setup_s on serve-mixed.update"),
    ("core.scores.build_ms", "ms", Dur("core.scores.build", 1e3), "one dense ScoreMatrix::from_functions (serve-mixed) or from_distribution (cold-solve)", "setup_s on serve-mixed and cold-solve"),
    ("core.scores.build_minflt", "count", Counter("core.scores.build", "minflt", 1.0), "minor page faults of the process during one dense build", "setup_s on serve-mixed and cold-solve"),
    ("core.scores.matrix_mb", "MB", Counter("core.scores.build", "resident_bytes", 1e6), "resident matrix: n x N x 8 B per layout, two layouts with has_column_mirror", "peak_rss_mb on serve-mixed and cold-solve"),
    ("core.evaluator.rebuild_ms", "ms", Dur("core.evaluator.rebuild", 1e3), "one SelectionEvaluator::new_with over a cold answer", "op_p50_ms on cold-solve"),
    ("algos.add-greedy.cold_ms", "ms", Dur("algos.add-greedy.cold", 1e3), "one cold Registry::solve", "add-greedy_p50_ms, and so op_p50_ms, on cold-solve"),
    ("core.par.add-greedy_jobs", "count", Counter("algos.add-greedy.cold", "pool_jobs", 1.0), "pool jobs dispatched during one cold solve", "add-greedy_p50_ms, and so op_p50_ms, on cold-solve"),
    ("algos.greedy-shrink.cold_ms", "ms", Dur("algos.greedy-shrink.cold", 1e3), "one cold Registry::solve", "greedy-shrink_p50_ms, and so op_p50_ms, on cold-solve"),
    ("core.par.greedy-shrink_jobs", "count", Counter("algos.greedy-shrink.cold", "pool_jobs", 1.0), "pool jobs dispatched during one cold solve", "greedy-shrink_p50_ms, and so op_p50_ms, on cold-solve"),
    ("algos.local-search.cold_ms", "ms", Dur("algos.local-search.cold", 1e3), "one cold Registry::solve (max-passes=1)", "local-search_p50_ms, and so op_p50_ms, on cold-solve"),
    ("core.par.local-search_jobs", "count", Counter("algos.local-search.cold", "pool_jobs", 1.0), "pool jobs dispatched during one cold solve", "local-search_p50_ms, and so op_p50_ms, on cold-solve"),
    ("algos.mrr-greedy.cold_ms", "ms", Dur("algos.mrr-greedy.cold", 1e3), "one cold Registry::solve", "mrr-greedy_p50_ms, and so op_p50_ms, on cold-solve"),
    ("core.par.mrr-greedy_jobs", "count", Counter("algos.mrr-greedy.cold", "pool_jobs", 1.0), "pool jobs dispatched during one cold solve", "mrr-greedy_p50_ms, and so op_p50_ms, on cold-solve"),
    ("algos.greedy-shrink.arr_evaluations", "count", Counter("algos.greedy-shrink.cold", "arr_evaluations", 1.0), "SolveOutput note, per cold solve", "greedy-shrink_p50_ms, and so op_p50_ms, on cold-solve"),
    ("algos.local-search.swaps", "count", Counter("algos.local-search.cold", "swaps", 1.0), "SolveOutput note, per cold solve", "local-search_p50_ms, and so op_p50_ms, on cold-solve"),
    ("algos.local-search.passes", "count", Counter("algos.local-search.cold", "passes", 1.0), "SolveOutput note, per cold solve", "local-search_p50_ms, and so op_p50_ms, on cold-solve"),
    ("data.generate_ms", "ms", Dur("data.generate", 1e3), "one fam_data::synthetic of the million-point dataset", "setup_s on reduce-1m"),
    ("reduce.compute_ms", "ms", Dur("reduce.compute", 1e3), "one Reduction::compute (skyline)", "op_p50_ms on reduce-1m"),
    ("reduce.kept_fraction", "ratio", Counter("reduce.compute", "kept_fraction", 1.0), "Reduction::kept_fraction: kept points / source points", "op_p50_ms on reduce-1m"),
    ("core.scores.tiled_build_ms", "ms", Dur("core.scores.tiled_build", 1e3), "one ScoreMatrix::from_distribution_tiled over the kept points", "op_p50_ms on reduce-1m"),
    ("core.scores.tiled_gb", "GB", Counter("core.scores.tiled_build", "bytes_read", 1e9), "bytes one tiled build reads: N x n x d x 8 B", "op_p50_ms on reduce-1m"),
    ("algos.add-greedy.reduced_ms", "ms", Dur("algos.add-greedy.reduced", 1e3), "one Registry::solve on the N x kept matrix", "op_p50_ms on reduce-1m"),
];

/// The per-layer metrics of a traced run, from its spans and counters.
fn layer_metrics(args: &Args, out: &mut Outcome, t: &Tracer) {
    let w = family(&args.workload).0;
    let self_times = t.self_times();
    let med = |v: Vec<f64>, scale: f64| (probe::median(&v) / scale, v.len());
    let dur = |name: &str, scale: f64| {
        med(t.named(w, name).iter().map(|&i| t.spans()[i].dur_us()).collect(), scale)
    };
    let counter = |name: &str, key: &str, scale: f64| {
        let of = |i: usize| t.spans()[i].counters.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        med(t.named(w, name).into_iter().filter_map(of).collect(), scale)
    };
    for (name, unit, source, base, moves) in &LAYERS {
        let value = match *source {
            Dur(span, scale) => dur(span, scale),
            SelfDur(span, scale) => {
                med(t.named(w, span).iter().map(|&i| self_times[i]).collect(), scale)
            }
            Counter(span, key, scale) => counter(span, key, scale),
            Source::HttpRead => {
                let (http, n) = counter("serve.http.reads", "latency_p50_us", 1.0);
                (http - dur("serve.service.solve_hit", 1.0).0, n)
            }
        };
        out.layer(name, value, unit, &format!("{base}; should move {moves}"));
    }
}

fn finish(args: &Args, out: &Outcome, tracer: &Tracer, spin_ms: f64, touch_ms_per_mb: f64) {
    let correct = out.failed == 0 && out.attempted > 0;
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let named: Vec<(String, String)> = out
        .report
        .iter()
        .map(|(name, v, unit, n)| {
            (
                name.clone(),
                object(&[("value", num(*v)), ("unit", string(unit)), ("samples", n.to_string())]),
            )
        })
        .collect();
    let report = object(&[
        ("workload", string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", threads.to_string()),
        ("pool_threads", fam::core::par::max_threads().to_string()),
        ("build", string(&build_id())),
        ("scale", args.scale.provenance()),
        (
            "metric_samples",
            object(&out.metrics.iter().map(|m| (m.0.clone(), m.3.to_string())).collect::<Vec<_>>()),
        ),
        ("per_layer_bases", object(&out.bases)),
        ("named", object(&named)),
        ("facts", object(&out.facts)),
        (
            "host",
            object(&[
                ("host.spin_ms", num(spin_ms)),
                ("host.touch_ms_per_mb", num(touch_ms_per_mb)),
            ]),
        ),
        ("error_rate", num(error_rate)),
        ("spans", tracer.spans().len().to_string()),
        (
            "errors",
            format!("[{}]", out.errors.iter().map(|e| string(e)).collect::<Vec<_>>().join(",")),
        ),
    ]);
    println!("{report}");
    if !args.trace && correct {
        let mut row: Vec<(String, String)> = vec![
            ("workload".into(), string(&args.workload)),
            ("build".into(), string(&build_id())),
            ("scale".into(), string(args.scale.name)),
            ("seed".into(), args.seed.to_string()),
        ];
        row.extend(out.metrics.iter().map(|(n, v, _, _)| (n.clone(), num(*v))));
        row.extend(
            out.report
                .iter()
                .filter(|(n, ..)| out.metrics.iter().all(|m| m.0 != *n))
                .map(|(n, v, ..)| (n.clone(), num(*v))),
        );
        let line = object(&row) + "\n";
        let log = args.out.join("results.jsonl");
        let _ = std::fs::create_dir_all(&args.out);
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)
            .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
        {
            eprintln!("perfbench: could not log results to {}: {e}", log.display());
        }
    }
    let metrics: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|(name, v, unit, _)| {
            (name.clone(), object(&[("value", num(*v)), ("unit", string(unit))]))
        })
        .collect();
    println!(
        "{}",
        object(&[
            ("correct", correct.to_string()),
            ("attempted", out.attempted.to_string()),
            ("failed", out.failed.to_string()),
            ("metrics", object(&metrics)),
        ])
    );
    if !correct {
        for e in &out.errors {
            eprintln!("perfbench: check failed: {e}");
        }
        std::process::exit(1);
    }
}
