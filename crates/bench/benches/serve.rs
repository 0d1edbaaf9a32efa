//! Serving-layer throughput: requests/s against a live in-process
//! `fam-serve` instance over real TCP, driven through the crate's
//! keep-alive [`fam::serve::Client`] (one persistent connection per
//! client thread, as a real caller would hold).
//!
//! Three workloads:
//!
//! * **cached** — 4 client threads issuing `GET /solve` for `k` inside
//!   the cache range (answers come from the multi-`k` trajectory cache);
//! * **uncached** — the same clients asking for a `k` outside the range
//!   (every request pays a cold ADD-GREEDY solve on the snapshot);
//! * **mixed** — the cached readers racing a writer that streams `POST
//!   /update` batches. Readers are wait-free: each update builds the
//!   next generation off to the side and publishes it with one swap, so
//!   `mixed_rps` should sit within a small factor of `cached_rps`
//!   rather than collapsing behind a write lock. The leg runs for at
//!   least the leg duration **and** until [`MIN_MIXED_UPDATES`] updates
//!   have landed, so `update_p50_ms` / `update_p95_ms` are quantiles of
//!   a real sample, never one update.
//!
//! Scale via `FAM_SERVE_POINTS`, `FAM_SERVE_SAMPLES`, `FAM_SERVE_CACHE_K`
//! and duration via `FAM_SERVE_MILLIS`; emits one JSON trajectory point
//! (default `BENCH_serve.json` at the workspace root, override with
//! `FAM_BENCH_SERVE_OUT`).

use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use fam::prelude::*;
use fam::serve::{Client, ClientOptions, DatasetService, DistKind, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Updates the mixed leg waits for before it stops, whatever its
/// duration: enough for a p50 and a p95 of the update latency.
const MIN_MIXED_UPDATES: u64 = 10;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Nearest-rank quantile `q` of sorted values (NaN when empty).
fn quantile_ms(sorted_nanos: &[u64], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted_nanos.len() as f64).ceil() as usize).clamp(1, sorted_nanos.len());
    sorted_nanos[rank - 1] as f64 / 1e6
}

/// Runs `clients` reader threads — each holding one keep-alive
/// connection — against `path_of(i)` until `millis` have passed and
/// `more()` returns false, returning total completed requests and the
/// time the leg ran.
fn hammer(
    addr: SocketAddr,
    clients: usize,
    millis: u64,
    more: impl Fn() -> bool,
    path_of: impl Fn(usize, usize) -> String + Send + Sync,
) -> (u64, Duration) {
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (stop, served, path_of) = (&stop, &served, &path_of);
            s.spawn(move || {
                let mut client = Client::new(addr.to_string());
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let resp = client.get(&path_of(c, i)).expect("request");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(millis));
        while more() {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
    });
    (served.load(Ordering::Relaxed), start.elapsed())
}

fn bench_serve(c: &mut Criterion) {
    let n = env_usize("FAM_SERVE_POINTS", 2_000);
    let n_samples = env_usize("FAM_SERVE_SAMPLES", 20_000);
    let cache_hi = env_usize("FAM_SERVE_CACHE_K", 10);
    let millis = env_usize("FAM_SERVE_MILLIS", 2_000) as u64;
    let clients = 4usize;
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    eprintln!(
        "serve bench: n={n}, N={n_samples}, cache_k=1..={cache_hi}, {clients} clients, \
         {millis} ms per leg, host threads={threads}"
    );

    let mut rng = StdRng::seed_from_u64(20190408);
    let ds = synthetic(n, 4, Correlation::AntiCorrelated, &mut rng).expect("dataset");
    let opts = ServeOptions {
        samples: n_samples,
        seed: 7,
        dist: DistKind::Uniform,
        cache_k: 1..=cache_hi,
        ..ServeOptions::default()
    };
    let t0 = Instant::now();
    let svc = DatasetService::build("bench", &ds, &opts).expect("service");
    let build = t0.elapsed();
    eprintln!("service build (scoring + 2 trajectory harvests): {build:?}");
    let server = Server::bind(("127.0.0.1", 0), vec![svc], clients + 2).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Cached leg: k rotates inside the cache range.
    let (cached, leg) = hammer(
        addr,
        clients,
        millis,
        || false,
        |c, i| format!("/solve?dataset=bench&k={}&algo=add-greedy", 1 + (c + i) % cache_hi),
    );
    let cached_rps = cached as f64 / leg.as_secs_f64();
    eprintln!("cached   : {cached} requests in {millis} ms = {cached_rps:.0} req/s");

    // Uncached leg: k just above the cache range forces cold solves.
    let k_cold = (cache_hi + 1).min(n);
    let (uncached, leg) = hammer(
        addr,
        clients,
        millis,
        || false,
        |_, _| format!("/solve?dataset=bench&k={k_cold}&algo=add-greedy"),
    );
    let uncached_rps = uncached as f64 / leg.as_secs_f64();
    eprintln!("uncached : {uncached} requests in {millis} ms = {uncached_rps:.0} req/s");

    // Mixed leg: cached readers racing an update writer. Each update
    // clones the service, applies + re-harvests off-lock, and publishes
    // the next generation with one swap; readers never wait on it.
    let stop_writer = Arc::new(AtomicBool::new(false));
    let updates_done = Arc::new(AtomicU64::new(0));
    let update_nanos: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
    let writer = {
        let (stop, done, nanos) =
            (Arc::clone(&stop_writer), Arc::clone(&updates_done), Arc::clone(&update_nanos));
        std::thread::spawn(move || {
            // An update (clone + apply + re-harvest) can take seconds
            // under reader contention: give the writer a wide timeout so
            // a slow response is not misread as a lost one.
            let opts =
                ClientOptions { timeout: Duration::from_secs(600), ..ClientOptions::default() };
            let mut client = Client::with_options(addr.to_string(), opts);
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Insert two, delete one: the database drifts but never
                // shrinks below the cached k range.
                let ops = format!(
                    "insert,0.5,0.9,0.4,0.8\ninsert,0.9,0.2,0.7,0.3\ndelete,{}\n",
                    round % 50
                );
                let t = Instant::now();
                let resp = client.post("/update?dataset=bench", &ops).expect("update");
                nanos.lock().expect("durations lock").push(t.elapsed().as_nanos() as u64);
                assert_eq!(resp.status, 200, "{}", resp.body);
                done.fetch_add(1, Ordering::Relaxed);
                round += 1;
            }
        })
    };
    let landed = || updates_done.load(Ordering::Relaxed) < MIN_MIXED_UPDATES;
    let (mixed, mixed_leg) = hammer(addr, clients, millis, landed, |c, i| {
        format!("/solve?dataset=bench&k={}&algo=add-greedy", 1 + (c + i) % cache_hi)
    });
    stop_writer.store(true, Ordering::SeqCst);
    writer.join().expect("writer");
    let mixed_rps = mixed as f64 / mixed_leg.as_secs_f64();
    let updates = updates_done.load(Ordering::Relaxed);
    // Quantiles of the per-update latency over every update that landed
    // (at least MIN_MIXED_UPDATES): the p50 is what a steady writer
    // experiences, the p95 its tail under the readers.
    let mut durations = update_nanos.lock().expect("durations lock").clone();
    durations.sort_unstable();
    let (update_p50_ms, update_p95_ms) =
        (quantile_ms(&durations, 0.5), quantile_ms(&durations, 0.95));
    eprintln!(
        "mixed    : {mixed} reads = {mixed_rps:.0} req/s alongside {updates} updates in \
         {mixed_leg:?} (p50 {update_p50_ms:.1} ms, p95 {update_p95_ms:.1} ms each: clone + \
         apply + cache re-harvest + publish)"
    );

    let out_path = std::env::var("FAM_BENCH_SERVE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    });
    let json = format!(
        "{{\"bench\":\"serve\",\"n\":{n},\"n_samples\":{n_samples},\"cache_k\":{cache_hi},\
         \"clients\":{clients},\"leg_ms\":{millis},\"host_threads\":{threads},\
         \"build_ms\":{:.3},\"cached_rps\":{cached_rps:.1},\"uncached_rps\":{uncached_rps:.1},\
         \"mixed_rps\":{mixed_rps:.1},\"mixed_ms\":{:.0},\"updates_during_mixed\":{updates},\
         \"update_p50_ms\":{update_p50_ms:.3},\"update_p95_ms\":{update_p95_ms:.3}}}\n",
        build.as_secs_f64() * 1e3,
        mixed_leg.as_secs_f64() * 1e3,
    );
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }

    // Criterion group: single-request latency, cached vs uncached, over
    // one persistent connection.
    let mut lat_client = Client::new(addr.to_string());
    let mut g = c.benchmark_group("serve_latency");
    g.sample_size(10);
    g.bench_function("solve_cached", |b| {
        b.iter(|| lat_client.get("/solve?dataset=bench&k=3&algo=add-greedy").expect("request"))
    });
    g.bench_function("solve_uncached", |b| {
        b.iter(|| {
            lat_client
                .get(&format!("/solve?dataset=bench&k={k_cold}&algo=add-greedy"))
                .expect("request")
        })
    });
    g.finish();
    drop(lat_client);

    handle.shutdown();
    server_thread.join().expect("server thread");
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
