//! `serve-mixed.update` and `serve-mixed.read`: one dataset on an
//! in-process `fam-serve` server with two connection workers. A writer
//! holds one keep-alive connection in a closed loop of `POST /update`
//! (two seeded inserts, one seeded delete); a reader holds another in an
//! open loop of cached `GET /solve` at a fixed rate, rotating over the
//! harvested solvers and the cached `k`. Both workloads run this same
//! traffic; the first gates the update latency, the second the read
//! latency, and each reports the other beside it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fam::algos::{warm_repair, Registry, SolverSpec};
use fam::core::{
    par, Dataset, DynamicEngine, ScoreMatrix, UniformLinear, UpdateBatch, UtilityDistribution,
    UtilityFunction,
};
use fam::data::{synthetic, Correlation, UpdateOp};
use fam::serve::{Client, DatasetService, DistKind, ServeOptions, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probe::{field, field_f64, field_usizes, is_k_set, median, minflt, ms, quantile, us};
use crate::trace::Tracer;
use crate::{Args, Outcome, Traced};

/// The served dataset's name.
const NAME: &str = "hotels";
/// The solvers whose `k`-ranges the service harvests and readers ask for.
const CACHED: [&str; 2] = ["add-greedy", "greedy-shrink"];
/// Connection workers (one per client connection).
const WORKERS: usize = 2;
/// Service set-ups (each built, bound and answering) per run, half
/// before the traffic window and half after it; `setup_s` is their
/// median.
const SETUPS: usize = 4;

fn inputs(args: &Args) -> (Dataset, ServeOptions) {
    let s = &args.scale;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let ds = synthetic(s.n, s.d, Correlation::AntiCorrelated, &mut rng).expect("synthetic dataset");
    let opts = ServeOptions {
        samples: s.samples,
        seed: args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5e4e,
        dist: DistKind::Uniform,
        cache_k: 1..=s.cache_hi,
        ..ServeOptions::default()
    };
    (ds, opts)
}

/// The seeded update stream: each batch inserts two anti-correlated
/// points and deletes one index of the pre-batch universe.
struct Updates {
    rng: StdRng,
    n: usize,
    d: usize,
}

impl Updates {
    fn new(args: &Args) -> Self {
        Updates {
            rng: StdRng::seed_from_u64(args.seed ^ 0x0bd8_7e5a),
            n: args.scale.n,
            d: args.scale.d,
        }
    }

    /// The next batch as the op stream `POST /update` takes, and as ops.
    fn next(&mut self) -> (String, Vec<UpdateOp>) {
        let fresh = synthetic(2, self.d, Correlation::AntiCorrelated, &mut self.rng)
            .expect("inserted points");
        let mut body = String::new();
        let mut ops = Vec::new();
        for p in 0..fresh.len() {
            let coords = fresh.point(p).to_vec();
            let text: Vec<String> = coords.iter().map(|c| format!("{c}")).collect();
            body.push_str(&format!("insert,{}\n", text.join(",")));
            ops.push(UpdateOp::Insert(coords));
        }
        let victim = self.rng.gen_range(0..self.n);
        body.push_str(&format!("delete,{victim}\n"));
        ops.push(UpdateOp::Delete(victim));
        self.n += 1;
        (body, ops)
    }
}

/// A bound server running on its own thread.
struct Running {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    addr: String,
}

impl Running {
    /// Binds `svc`, starts serving, and waits for the first ready answer.
    fn start(svc: DatasetService, hi: usize) -> Running {
        let server = Server::bind("127.0.0.1:0", vec![svc], WORKERS).expect("bind");
        let handle = server.handle();
        let addr = handle.addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        let mut client = Client::new(addr.clone());
        let path = format!("/solve?dataset={NAME}&k={hi}&algo={}", CACHED[0]);
        let give_up = Instant::now() + Duration::from_secs(60);
        loop {
            match client.get(&path) {
                Ok(r) if r.status == 200 => break,
                other => {
                    assert!(Instant::now() < give_up, "server never answered ready: {other:?}");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        Running { handle, thread, addr }
    }

    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

/// The bit-identity contract: every cached answer equals a cold
/// registry solve on the service's own matrix.
fn check_cache(out: &mut Outcome, svc: &DatasetService) {
    for solver in CACHED {
        for k in svc.cache_k().clone() {
            let spec = SolverSpec::new(solver, k);
            let cached = svc.solve(&spec);
            let cold = Registry::global().solve(&spec, svc.matrix(), Some(svc.dataset()));
            let ok = match (&cached, &cold) {
                (Ok((hit, true)), Ok(cold)) => {
                    let mut idx = cold.selection.indices.clone();
                    idx.sort_unstable();
                    hit.indices == idx
                        && cold.selection.objective.map(f64::to_bits) == Some(hit.arr.to_bits())
                }
                _ => false,
            };
            out.op(ok, || {
                format!("cache check {solver} k={k}: cached {cached:?} vs cold {cold:?}")
            });
        }
    }
}

/// What the open-loop reader saw.
#[derive(Default)]
struct ReadLog {
    /// From the due send time to the full response, µs.
    latency_us: Vec<f64>,
    /// How late the generator sent each request, µs.
    lag_us: Vec<f64>,
    /// `(due, done)` of each read, for the traced run's spans.
    intervals: Vec<(Instant, Instant)>,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    retries: u64,
    reconnects: u64,
}

/// Checks one `/solve` response: a cached 200 with `k` distinct ids in
/// range for its generation and a finite arr.
fn check_read(
    resp: &Result<fam::serve::Response, String>,
    k: usize,
    n0: usize,
) -> Result<(), String> {
    let r = resp.as_ref().map_err(|e| format!("read transport error: {e}"))?;
    if r.status != 200 {
        return Err(format!("read answered {}: {}", r.status, r.body.trim()));
    }
    let generation = field_f64(&r.body, "generation").unwrap_or(0.0) as usize;
    // Every update inserts two points and deletes one.
    let n = n0 + generation.saturating_sub(1);
    let sel = field_usizes(&r.body, "selection").unwrap_or_default();
    let arr = field_f64(&r.body, "arr").unwrap_or(f64::NAN);
    let cached = field(&r.body, "cached") == Some("true");
    if is_k_set(&sel, k, n) && arr.is_finite() && cached {
        Ok(())
    } else {
        Err(format!("bad read for k={k} at n={n}: {}", r.body.trim()))
    }
}

/// The open-loop reader: request `i` is due at `i / rate` seconds after
/// the start; it runs until `stop` is set.
fn read_loop(addr: String, rate: f64, hi: usize, n0: usize, stop: Arc<AtomicBool>) -> ReadLog {
    let mut client = Client::new(addr);
    let mut log = ReadLog::default();
    let start = Instant::now();
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let solver = CACHED[(i % 2) as usize];
        let k = 1 + ((i / 2) as usize) % hi;
        let resp = client.get(&format!("/solve?dataset={NAME}&k={k}&algo={solver}"));
        let done = Instant::now();
        log.attempted += 1;
        log.lag_us.push(us(sent.saturating_duration_since(due)));
        log.latency_us.push(us(done - due));
        log.intervals.push((due, done));
        if let Err(e) = check_read(&resp, k, n0) {
            log.failed += 1;
            if log.failures.len() < 4 {
                log.failures.push(e);
            }
        }
        i += 1;
    }
    log.retries = client.retries();
    log.reconnects = client.reconnects();
    log
}

/// Checks one `POST /update` answer against the expected generation
/// and point count.
fn check_update(
    resp: &Result<fam::serve::Response, String>,
    generation: usize,
    n: usize,
) -> Result<(), String> {
    let r = resp.as_ref().map_err(|e| format!("update transport error: {e}"))?;
    let got_gen = field_f64(&r.body, "generation").map(|g| g as usize);
    let got_n = field_f64(&r.body, "n_points").map(|g| g as usize);
    if r.status == 200 && got_gen == Some(generation) && got_n == Some(n) {
        Ok(())
    } else {
        Err(format!(
            "update to generation {generation} (n={n}) answered {}: {}",
            r.status,
            r.body.trim()
        ))
    }
}

/// Folds the reader's log into the outcome and reports `/stats`.
fn finish_reads(out: &mut Outcome, log: &ReadLog, stats: &str) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    for f in &log.failures {
        if out.errors.len() < 8 {
            out.errors.push(f.clone());
        }
    }
    let n = log.latency_us.len();
    out.report("read_p50_us", median(&log.latency_us), "us", n);
    out.report("read_p99_us", quantile(&log.latency_us, 0.99), "us", n);
    out.report("gen.lag_p50_us", median(&log.lag_us), "us", n);
    out.report("gen.lag_p99_us", quantile(&log.lag_us, 0.99), "us", n);
    out.fact(
        "reader_client",
        crate::probe::object(&[
            ("retries", log.retries.to_string()),
            ("reconnects", log.reconnects.to_string()),
        ]),
    );
    let mut counters = Vec::new();
    for key in [
        "solve_requests",
        "cache_hits",
        "cache_misses",
        "rejected",
        "deadline_exceeded",
        "shed",
        "requests",
    ] {
        counters.push((key, crate::probe::num(field_f64(stats, key).unwrap_or(f64::NAN))));
    }
    out.fact("server_stats", crate::probe::object(&counters));
}

/// Runs the traffic; the gated op is the read when `gate_reads`, else
/// the update.
pub fn run(args: &Args, out: &mut Outcome, gate_reads: bool) {
    let (ds, opts) = inputs(args);
    let hi = args.scale.cache_hi;
    let mut setups = Vec::with_capacity(SETUPS);
    // One set-up: from inputs in hand to the first ready answer. The
    // service that serves the traffic is checked against cold solves.
    let mut set_up = |out: &mut Outcome, check: bool| -> Running {
        let t = Instant::now();
        let svc = DatasetService::build(NAME, &ds, &opts).expect("service build");
        let built = t.elapsed();
        if check {
            check_cache(out, &svc);
        }
        let t = Instant::now();
        let running = Running::start(svc, hi);
        setups.push((built + t.elapsed()).as_secs_f64());
        running
    };
    for _ in 1..SETUPS / 2 {
        set_up(out, false).stop();
    }
    let server = set_up(out, true);

    let mut updates = Updates::new(args);
    let mut writer = Client::new(server.addr.clone());
    let mut generation = 1;
    let mut post = |writer: &mut Client, out: &mut Outcome, updates: &mut Updates| -> f64 {
        let (body, _) = updates.next();
        generation += 1;
        let t = Instant::now();
        let resp = writer.post(&format!("/update?dataset={NAME}"), &body);
        let dt = ms(t.elapsed());
        let check = check_update(&resp, generation, updates.n);
        out.op(check.is_ok(), || check.err().unwrap_or_default());
        dt
    };
    // Warm-up update: not timed.
    post(&mut writer, out, &mut updates);

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (addr, stop) = (server.addr.clone(), Arc::clone(&stop));
        let (rate, n0) = (args.scale.read_rate, args.scale.n);
        std::thread::spawn(move || read_loop(addr, rate, hi, n0, stop))
    };
    let mut lat = Vec::new();
    let deadline = Instant::now() + args.window();
    while lat.is_empty() || Instant::now() < deadline {
        lat.push(post(&mut writer, out, &mut updates));
    }
    stop.store(true, Ordering::SeqCst);
    let log = reader.join().expect("reader thread");
    let stats = writer.get("/stats").map(|r| r.body).unwrap_or_default();
    let (w_retries, w_reconnects) = (writer.retries(), writer.reconnects());
    // Close the keep-alive connection first, so the shutdown does not
    // wait out its idle timeout.
    drop(writer);
    server.stop();
    for _ in SETUPS / 2..SETUPS {
        set_up(out, false).stop();
    }

    out.metric("setup_s", median(&setups), "s", setups.len());
    if gate_reads {
        let reads = log.latency_us.len();
        out.metric("op_p50_ms", median(&log.latency_us) / 1e3, "ms", reads);
    } else {
        out.metric("op_p50_ms", median(&lat), "ms", lat.len());
    }
    out.report("update_p50_ms", median(&lat), "ms", lat.len());
    finish_reads(out, &log, &stats);
    out.fact(
        "writer_client",
        crate::probe::object(&[
            ("retries", w_retries.to_string()),
            ("reconnects", w_reconnects.to_string()),
        ]),
    );
}

/// The library replica of the service's writer path: the same sampled
/// functions, matrix and resident engine `DatasetService::build` makes.
struct Replica {
    functions: Vec<Arc<dyn UtilityFunction>>,
    engine: DynamicEngine,
}

/// Traced replay. Set-up: the real service build and bind, plus the
/// layer calls it is made of on a library replica (dense build, one
/// trajectory per cached solver). Each update is replayed one level
/// below `POST /update`: the writer's `DatasetService::clone` and
/// `apply_ops` on a copy of the served service (the traced update time
/// is their sum; the server's HTTP framing and publish swap are left
/// out), then `DynamicEngine::apply_with` (with `warm_repair` timed
/// inside its closure) and the re-harvest trajectories on the library
/// replica. Reads run throughout against the served first generation.
pub fn trace(args: &Args, out: &mut Outcome, t: &mut Tracer, full: bool) -> Traced {
    let (ds, opts) = inputs(args);
    let s = &args.scale;
    let hi = s.cache_hi;
    let registry = Registry::global();

    let op = t.op();
    let (replica, svc, server, setup_spans) = t.span(op, None, "serve-mixed.setup", |t, root| {
        let functions: Vec<Arc<dyn UtilityFunction>> =
            t.span(op, Some(root), "core.distribution.sample", |_, _| {
                let dist = UniformLinear::new(s.d).expect("uniform distribution");
                let mut rng = StdRng::seed_from_u64(opts.seed);
                (0..opts.samples).map(|_| dist.sample(&mut rng)).collect()
            });
        let matrix = t.span(op, Some(root), "core.scores.build", |t, id| {
            let f0 = minflt();
            let m = ScoreMatrix::from_functions(&ds, &functions, None).expect("dense build");
            let layouts = if m.has_column_mirror() { 2.0 } else { 1.0 };
            t.count(id, "minflt", (minflt() - f0) as f64);
            t.count(id, "resident_bytes", layouts * (m.n_points() * m.n_samples() * 8) as f64);
            m
        });
        let mut initial = Vec::new();
        for solver in CACHED {
            let outs = t.span(op, Some(root), &format!("algos.trajectory.{solver}"), |_, _| {
                registry
                    .solve_range(&SolverSpec::new(solver, hi), &matrix, None, 1..=hi)
                    .expect("trajectory")
            });
            if solver == CACHED[0] {
                initial = outs.last().map(|o| o.selection.indices.clone()).unwrap_or_default();
            }
        }
        let engine = t.span(op, Some(root), "core.dynamic.new", |_, _| {
            DynamicEngine::new(matrix, hi, &initial).expect("library replica")
        });
        let (svc, build_id) = t.span(op, Some(root), "serve.service.build", |_, id| {
            (DatasetService::build(NAME, &ds, &opts).expect("service build"), id)
        });
        let (server, bind_id) = t.span(op, Some(root), "serve.server.bind_ready", |_, id| {
            (Running::start(svc.clone(), hi), id)
        });
        (Replica { functions, engine }, svc, server, [build_id, bind_id])
    });
    check_cache(out, &svc);
    let mut replica = replica;
    let mut svc = svc;
    let setup_s = setup_spans.iter().map(|&i| t.spans()[i].dur_us()).sum::<f64>() / 1e6;

    // Direct cache hits, the service half of a read.
    let op = t.op();
    for i in 0..2_000usize {
        let spec = SolverSpec::new(CACHED[i % 2], 1 + (i / 2) % hi);
        t.span(op, None, "serve.service.solve_hit", |_, _| {
            std::hint::black_box(svc.solve(&spec)).is_ok()
        });
    }

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (addr, stop) = (server.addr.clone(), Arc::clone(&stop));
        let (rate, n0) = (s.read_rate, s.n);
        std::thread::spawn(move || read_loop(addr, rate, hi, n0, stop))
    };
    let mut updates = Updates::new(args);
    let mut lat = Vec::new();
    let deadline = Instant::now() + args.window();
    loop {
        let (_, ops) = updates.next();
        let op = t.op();
        t.span(op, None, "serve-mixed.update", |t, root| {
            // The previous generation is dropped as soon as the next is
            // copied, so the replica holds one generation, not two.
            let (next, clone_id) = t.span(op, Some(root), "serve.service.clone", |t, id| {
                let f0 = minflt();
                let next = svc.clone();
                let m = next.matrix();
                let layouts = if m.has_column_mirror() { 2.0 } else { 1.0 };
                t.count(id, "minflt", (minflt() - f0) as f64);
                t.count(id, "bytes_moved", layouts * (m.n_points() * m.n_samples() * 8) as f64);
                (next, id)
            });
            svc = next;
            let (applied, apply_id) = t.span(op, Some(root), "serve.service.apply", |t, id| {
                let j0 = par::pool_stats().jobs_dispatched;
                let r = svc.apply_ops(&ops);
                t.count(id, "pool_jobs", (par::pool_stats().jobs_dispatched - j0) as f64);
                (r, id)
            });
            lat.push((t.spans()[clone_id].dur_us() + t.spans()[apply_id].dur_us()) / 1e3);
            let ok = applied.is_ok() && svc.n_points() == updates.n;
            out.op(ok, || {
                format!(
                    "apply_ops: {:?} with {} points, want {}",
                    applied.err(),
                    svc.n_points(),
                    updates.n
                )
            });

            let mut batch = UpdateBatch::default();
            for o in &ops {
                match o {
                    UpdateOp::Insert(c) => {
                        batch.insert.push(
                            replica.functions.iter().map(|f| f.utility(usize::MAX, c)).collect(),
                        );
                    }
                    UpdateOp::Delete(p) => batch.delete.push(*p),
                }
            }
            let report = t.span(op, Some(root), "core.dynamic.apply", |t, id| {
                let r = replica.engine.apply_with(&batch, |ev, ws| {
                    t.span(op, Some(id), "algos.repair", |t, rid| {
                        let r = warm_repair(ev, ws);
                        if let Ok(r) = &r {
                            t.count(rid, "evaluations", r.evaluations as f64);
                        }
                        r
                    })
                });
                if let Ok(r) = &r {
                    t.count(id, "resumed_rescans", r.resumed_rescans as f64);
                }
                r
            });
            if let Err(e) = report {
                out.attempted += 1;
                out.fail(format!("library replica apply_with: {e}"));
            }
            // The replica's re-harvest must reproduce the service's cache.
            for solver in CACHED {
                let outs = t.span(op, Some(root), &format!("algos.trajectory.{solver}"), |_, _| {
                    registry.solve_range(
                        &SolverSpec::new(solver, hi),
                        replica.engine.matrix(),
                        None,
                        1..=hi,
                    )
                });
                let same = outs.as_ref().is_ok_and(|outs| {
                    outs.iter().enumerate().all(|(i, o)| {
                        let mut idx = o.selection.indices.clone();
                        idx.sort_unstable();
                        svc.solve(&SolverSpec::new(solver, i + 1))
                            .is_ok_and(|(hit, cached)| cached && hit.indices == idx)
                    })
                });
                out.op(same, || {
                    format!("replica trajectory of {solver} differs from the service cache")
                });
            }
        });
        if !full || Instant::now() >= deadline {
            break;
        }
    }
    stop.store(true, Ordering::SeqCst);
    let log = reader.join().expect("reader thread");
    let stats = Client::new(server.addr.clone()).get("/stats").map(|r| r.body).unwrap_or_default();
    server.stop();

    // One summary span carries the reader's counters; each read is also
    // its own span below.
    let op = t.op();
    let reads = t.span(op, None, "serve.http.reads", |_, id| id);
    let hits = field_f64(&stats, "cache_hits").unwrap_or(f64::NAN);
    let solves = field_f64(&stats, "solve_requests").unwrap_or(f64::NAN);
    t.count(reads, "latency_p50_us", median(&log.latency_us));
    t.count(reads, "latency_p99_us", quantile(&log.latency_us, 0.99));
    t.count(reads, "lag_p99_us", quantile(&log.lag_us, 0.99));
    t.count(reads, "cache_hit_ratio", hits / solves);
    t.count(reads, "reads", log.latency_us.len() as f64);
    for &(due, done) in &log.intervals {
        let op = t.op();
        t.record(op, None, "serve.http.read", due, done);
    }
    finish_reads(out, &log, &stats);
    let reads = log.latency_us.len();
    let read_p50_us = median(&log.latency_us);
    let mut e2e = Traced::new();
    for (w, op_ms, n) in [("update", median(&lat), lat.len()), ("read", read_p50_us / 1e3, reads)] {
        let w = format!("serve-mixed.{w}");
        e2e.push((w.clone(), "setup_s".to_string(), setup_s, "s", 1));
        e2e.push((w.clone(), "op_p50_ms".to_string(), op_ms, "ms", n));
        e2e.push((w.clone(), "update_p50_ms".to_string(), median(&lat), "ms", lat.len()));
        e2e.push((w.clone(), "read_p50_us".to_string(), read_p50_us, "us", reads));
        let p99 = quantile(&log.latency_us, 0.99);
        e2e.push((w, "read_p99_us".to_string(), p99, "us", reads));
    }
    e2e
}
