//! Drives a live `fam-serve` instance over real TCP: multiple datasets,
//! ≥4 concurrent solve clients hammering the server *while* `POST
//! /update` batches apply, and — the serving layer's core contract —
//! cached solve responses bit-identical to cold solves on the
//! post-update database (selection indices and `arr` bits, recovered
//! through the JSON wire format's shortest-round-trip floats).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fam_algos::{add_greedy, greedy_shrink, GreedyShrinkConfig};
use fam_core::Dataset;
use fam_data::{synthetic, Correlation};
use fam_serve::{DatasetService, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("receive");
    let status = buf
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {buf:?}"));
    let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

// One-shot helpers: `Connection: close` keeps `read_to_string` honest
// against the keep-alive default (the keep-alive path is exercised by
// `fam_serve::Client` in the chaos tests and the benchmark).
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Extracts a top-level `"key":<number>` field.
fn field_f64(body: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag).unwrap_or_else(|| panic!("no {key} in {body}")) + tag.len()..];
    let end = rest.find([',', '}']).expect("terminated field");
    rest[..end].parse().unwrap_or_else(|_| panic!("bad number for {key} in {body}"))
}

/// Extracts a top-level `"key":[i,j,..]` usize array.
fn field_indices(body: &str, key: &str) -> Vec<usize> {
    let tag = format!("\"{key}\":[");
    let rest = &body[body.find(&tag).unwrap_or_else(|| panic!("no {key} in {body}")) + tag.len()..];
    let end = rest.find(']').expect("closed array");
    rest[..end].split(',').filter(|s| !s.is_empty()).map(|s| s.parse().expect("index")).collect()
}

fn base_dataset(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    synthetic(n, 3, Correlation::AntiCorrelated, &mut rng).expect("dataset")
}

fn options() -> ServeOptions {
    ServeOptions { samples: 200, seed: 17, cache_k: 1..=5, sigma: 0.1, ..ServeOptions::default() }
}

fn base_dataset_2d(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    synthetic(n, 2, Correlation::AntiCorrelated, &mut rng).expect("dataset")
}

#[test]
fn concurrent_clients_and_updates_stay_bit_identical() {
    let alpha_data = base_dataset(11, 120);
    let beta_data = base_dataset(12, 60);
    let gamma_data = base_dataset_2d(13, 40);
    let alpha = DatasetService::build("alpha", &alpha_data, &options()).expect("alpha");
    let beta = DatasetService::build("beta", &beta_data, &options()).expect("beta");
    let gamma = DatasetService::build("gamma", &gamma_data, &options()).expect("gamma");
    let server = Server::bind(("127.0.0.1", 0), vec![alpha, beta, gamma], 6).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // --- Warm single-client checks across every endpoint. ---
    let (status, body) = get(addr, "/datasets");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"alpha\"") && body.contains("\"beta\""), "{body}");
    let (status, body) = get(addr, "/solve?dataset=beta&k=2&algo=greedy-shrink");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    let (status, body) = get(addr, "/evaluate?dataset=beta&selection=0,3,7");
    assert_eq!(status, 200, "{body}");
    assert!(field_f64(&body, "arr").is_finite());
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"workers\":6"), "{body}");

    // --- Liveness and readiness report generation ids per dataset. ---
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"generations\":{\"alpha\":1,\"beta\":1,\"gamma\":1}"), "{body}");
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\":true") && body.contains("\"draining\":false"), "{body}");

    // --- Deadline handling: an exhausted budget is a clean 504, a
    // malformed one a 400, and a generous one serves normally. ---
    let (status, body) = get(addr, "/solve?dataset=beta&k=2&deadline_ms=0");
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline exceeded"), "{body}");
    let (status, body) = get(addr, "/solve?dataset=beta&k=2&deadline_ms=soon");
    assert_eq!(status, 400, "{body}");
    let (status, body) = get(addr, "/solve?dataset=beta&k=2&deadline_ms=30000");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");

    // --- The registry endpoint lists every algorithm with capabilities. ---
    let (status, body) = get(addr, "/algos");
    assert_eq!(status, 200, "{body}");
    for name in fam_algos::Registry::global().names() {
        assert!(body.contains(&format!("\"name\":\"{name}\"")), "{name} missing in {body}");
    }
    assert!(body.contains("\"kind\":\"exact\"") && body.contains("\"kind\":\"heuristic\""));
    assert!(body.contains("\"range_harvest\":true"), "{body}");
    assert!(body.contains("\"dimension\":2"), "{body}");
    let (status, _) = post(addr, "/algos", "");
    assert_eq!(status, 405);

    // --- Every registered algorithm answers by name over HTTP (the 2-D
    // dataset admits dp-2d; cube needs k >= d = 2). ---
    for name in fam_algos::Registry::global().names() {
        let (status, body) = get(addr, &format!("/solve?dataset=gamma&k=3&algo={name}"));
        assert_eq!(status, 200, "{name}: {body}");
        assert_eq!(field_indices(&body, "selection").len(), 3, "{name}: {body}");
        assert!(field_f64(&body, "arr").is_finite(), "{name}: {body}");
    }
    // Solver parameters ride along as query parameters, parsed by the
    // same SolverSpec machinery as the CLI's --param.
    let (status, body) = get(addr, "/solve?dataset=gamma&k=3&algo=dp-2d&measure=angle");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/solve?dataset=gamma&k=2&algo=greedy-shrink&lazy=false");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":false"), "non-canonical params must bypass the cache");
    let (status, body) = get(addr, "/solve?dataset=gamma&k=2&algo=dp-2d&measure=warp");
    assert_eq!(status, 400, "{body}");
    // Lazy pruning needs the best-point cache: the pair is refused with
    // both keys named, not run as the naive loop.
    let (status, body) =
        get(addr, "/solve?dataset=gamma&k=2&algo=greedy-shrink&cache=false&lazy=true");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("lazy=true") && body.contains("cache=false"), "{body}");

    // An unknown algorithm enumerates the registry in the 400 body.
    let (status, body) = get(addr, "/solve?dataset=alpha&k=2&algo=quantum");
    assert_eq!(status, 400, "{body}");
    for name in fam_algos::Registry::global().names() {
        assert!(body.contains(name), "{name} not listed in {body}");
    }
    // A capability violation is a clean 400 too: dp-2d on 3-D data.
    let (status, body) = get(addr, "/solve?dataset=alpha&k=2&algo=dp-2d");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("dimension mismatch"), "{body}");

    // --- Error paths never kill a worker. ---
    for (path, want) in [
        ("/solve?dataset=nope&k=2", 404),
        ("/solve?dataset=alpha", 400),
        ("/solve?dataset=alpha&k=abc", 400),
        ("/solve?dataset=alpha&k=2&algo=quantum", 400),
        ("/solve?dataset=alpha&k=0", 400),
        ("/evaluate?dataset=alpha&selection=1,1", 400),
        ("/evaluate?dataset=alpha&selection=", 400),
        ("/nope", 404),
        ("/solve?k=2", 400),
    ] {
        let (status, body) = get(addr, path);
        assert_eq!(status, want, "{path}: {body}");
        assert!(body.contains("error"), "{path}: {body}");
    }
    let (status, _) = post(addr, "/solve?dataset=alpha&k=2", "");
    assert_eq!(status, 405);
    let (status, body) = post(addr, "/update?dataset=alpha", "insert,0.5\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("request body, line 1"), "{body}");

    // --- ≥4 concurrent solve clients during POST /update batches. ---
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|client| {
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let k = 1 + (client + i) % 5;
                    let algo = if i.is_multiple_of(2) { "add-greedy" } else { "greedy-shrink" };
                    let (status, body) =
                        get(addr, &format!("/solve?dataset=alpha&k={k}&algo={algo}"));
                    assert_eq!(status, 200, "client {client}: {body}");
                    assert!(body.contains("\"cached\":true"), "client {client}: {body}");
                    assert!(field_f64(&body, "arr").is_finite());
                    assert_eq!(field_indices(&body, "selection").len(), k);
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    // Three update rounds against the readers: inserts + a delete each.
    let updates = [
        "insert,0.9,0.8,0.7\ninsert,0.2,0.95,0.4\ndelete,3\n",
        "# churn\n+,0.5,0.5,0.99\n-,17\n+,0.85,0.1,0.6\n",
        "delete,0\ninsert,0.3,0.9,0.9\n",
    ];
    for ops in updates {
        let (status, body) = post(addr, "/update?dataset=alpha", ops);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("cache_entries"), "{body}");
        // Keep the readers overlapping the writer for a little while.
        std::thread::sleep(std::time::Duration::from_millis(30));
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }
    assert!(served.load(Ordering::Relaxed) >= 8, "readers barely ran");

    // --- Bit-identity: cached answers == cold solves on the post-update
    // database. A replica built from the same spec and fed the same op
    // stream holds that database (same seed => same sampled population).
    let mut replica = DatasetService::build("alpha", &alpha_data, &options()).expect("replica");
    for ops in updates {
        replica.apply_update_text(ops, "replica").expect("replica update");
    }
    let (_, body) = get(addr, "/datasets");
    assert!(body.contains(&format!("\"n_points\":{}", replica.n_points())), "{body}");
    for k in 1..=5usize {
        let (status, body) = get(addr, &format!("/solve?dataset=alpha&k={k}&algo=add-greedy"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"cached\":true"), "{body}");
        let cold = add_greedy(replica.matrix(), k).expect("cold add-greedy");
        assert_eq!(field_indices(&body, "selection"), cold.indices, "k={k}");
        assert_eq!(
            field_f64(&body, "arr").to_bits(),
            cold.objective.unwrap().to_bits(),
            "k={k} arr bits"
        );

        let (status, body) = get(addr, &format!("/solve?dataset=alpha&k={k}&algo=greedy-shrink"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"cached\":true"), "{body}");
        let cold = greedy_shrink(replica.matrix(), GreedyShrinkConfig::new(k)).expect("cold gs");
        assert_eq!(field_indices(&body, "selection"), cold.selection.indices, "k={k}");
        assert_eq!(
            field_f64(&body, "arr").to_bits(),
            cold.selection.objective.unwrap().to_bits(),
            "k={k} arr bits"
        );
    }
    // An uncached k takes the cold path on the server and still matches.
    let (status, body) = get(addr, "/solve?dataset=alpha&k=8&algo=add-greedy");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":false"), "{body}");
    let cold = add_greedy(replica.matrix(), 8).expect("cold k=8");
    assert_eq!(field_indices(&body, "selection"), cold.indices);
    assert_eq!(field_f64(&body, "arr").to_bits(), cold.objective.unwrap().to_bits());

    // Beta was untouched by alpha's updates.
    let (_, body) = get(addr, "/solve?dataset=beta&k=3");
    let cold = add_greedy(replica_free_beta(&beta_data).matrix(), 3).expect("beta cold");
    assert_eq!(field_indices(&body, "selection"), cold.indices);

    // --- Progressive precision over the wire: /stats reports the sample
    // axis, an unmet epsilon requirement is a clean 400 pointing at
    // /refine, and POST /refine grows the population in place. ---
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"n_samples\":200"), "{body}");
    assert!(body.contains("\"seed\":17"), "{body}");
    assert!(body.contains("\"achieved_epsilon\":"), "{body}");
    // 200 samples achieve ~0.186 at sigma 0.1; 0.12 needs 480.
    let (status, body) = get(addr, "/solve?dataset=beta&k=2&epsilon=0.12");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("/refine"), "{body}");
    let (status, body) = get(addr, "/solve?dataset=beta&k=2&epsilon=0.2");
    assert_eq!(status, 200, "satisfied epsilon must serve: {body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    let (status, body) = post(addr, "/refine?dataset=beta&epsilon=0.12", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(field_f64(&body, "n_samples") as usize, 480);
    assert!(field_f64(&body, "achieved_epsilon") <= 0.12, "{body}");
    assert!(body.contains("\"already_satisfied\":false"), "{body}");
    let (status, body) = get(addr, "/solve?dataset=beta&k=2&epsilon=0.12");
    assert_eq!(status, 200, "refined dataset must satisfy the epsilon: {body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    // The refined cache equals cold solves on an identically refined
    // replica (the continuing-RNG contract, through the JSON floats).
    let mut refined_replica = replica_free_beta(&beta_data);
    refined_replica.refine(0.12, 0.1).expect("replica refine");
    let (_, body) = get(addr, "/solve?dataset=beta&k=3");
    let cold = add_greedy(refined_replica.matrix(), 3).expect("refined cold");
    assert_eq!(field_indices(&body, "selection"), cold.indices);
    assert_eq!(field_f64(&body, "arr").to_bits(), cold.objective.unwrap().to_bits());
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"n_samples\":480"), "{body}");
    // Refine error paths: wrong method, missing/garbled parameters.
    let (status, _) = get(addr, "/refine?dataset=beta&epsilon=0.1");
    assert_eq!(status, 405);
    let (status, body) = post(addr, "/refine?dataset=beta", "");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(addr, "/refine?dataset=beta&epsilon=2.0", "");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(addr, "/refine?dataset=beta&epsilon=0.1&sigma=oops", "");
    assert_eq!(status, 400, "{body}");
    let (status, _) = post(addr, "/refine?dataset=nope&epsilon=0.1", "");
    assert_eq!(status, 404);

    // Stats survived the storm and counted the traffic.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(field_f64(&body, "requests") > 20.0, "{body}");
    assert!(body.contains("\"refines\":1"), "{body}");

    // Each published write bumped its dataset's generation: alpha took 3
    // updates (gen 4), beta one refine (gen 2), gamma none (gen 1).
    let (_, body) = get(addr, "/healthz");
    assert!(body.contains("\"generations\":{\"alpha\":4,\"beta\":2,\"gamma\":1}"), "{body}");

    handle.shutdown();
    server_thread.join().expect("server thread");
}

fn replica_free_beta(beta_data: &Dataset) -> DatasetService {
    DatasetService::build("beta", beta_data, &options()).expect("beta replica")
}

#[test]
fn malformed_http_is_answered_or_dropped_without_harm() {
    let ds = base_dataset(21, 30);
    let opts = ServeOptions { samples: 60, cache_k: 1..=2, ..options() };
    let svc = DatasetService::build("tiny", &ds, &opts).expect("svc");
    let server = Server::bind(("127.0.0.1", 0), vec![svc], 2).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Garbage request line: 400, and the server keeps serving.
    let (status, body) = request(addr, "NOT-HTTP\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    // A client that connects and immediately hangs up costs nothing.
    drop(TcpStream::connect(addr).expect("connect"));
    let (status, _) = get(addr, "/datasets");
    assert_eq!(status, 200);

    handle.shutdown();
    server_thread.join().expect("server thread");
}

#[test]
fn reduced_dataset_serves_original_ids_over_http() {
    let data = base_dataset_2d(31, 50);
    let opts = ServeOptions { samples: 80, cache_k: 1..=3, ..options() };
    let red_opts = ServeOptions { reduce: fam_serve::ReduceSpec::skyline(), ..opts.clone() };
    let red = DatasetService::build("red", &data, &red_opts).expect("red");
    let source_points = red.source_points();
    let plain = DatasetService::build("plain", &data, &opts).expect("plain");
    let server = Server::bind(("127.0.0.1", 0), vec![red, plain], 2).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // The registry advertises each solver's reduction capability.
    let (status, body) = get(addr, "/algos");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"reducible\":\"skyline\""), "{body}");
    assert!(body.contains("\"reducible\":\"any\""), "{body}");

    // Stats name the candidate universe the cache was solved on.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"reduction\":\"skyline\""), "{body}");
    assert!(body.contains("\"reduction\":\"none\""), "{body}");
    assert!(body.contains(&format!("\"source_points\":{source_points}")), "{body}");

    // Skyline soundness over the wire: the exact DP answers with the
    // same points and the same arr bits on both datasets.
    let (status, a) = get(addr, "/solve?dataset=red&k=2&algo=dp-2d");
    assert_eq!(status, 200, "{a}");
    let (status, b) = get(addr, "/solve?dataset=plain&k=2&algo=dp-2d");
    assert_eq!(status, 200, "{b}");
    assert_eq!(field_indices(&a, "selection"), field_indices(&b, "selection"));
    assert_eq!(field_f64(&a, "arr").to_bits(), field_f64(&b, "arr").to_bits());

    // Per-request reduction composes only with the unreduced dataset.
    let (status, body) = get(addr, "/solve?dataset=red&k=2&reduce=skyline");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("reduced at build time"), "{body}");
    let (status, body) = get(addr, "/solve?dataset=plain&k=2&reduce=skyline");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":false"), "{body}");

    // Updates address the full universe; answers stay in original ids.
    let (status, body) = post(addr, "/update?dataset=red", "delete,0\ninsert,0.5,0.5\n");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/solve?dataset=red&k=3");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    let ids = field_indices(&body, "selection");
    assert_eq!(ids.len(), 3);
    assert!(ids.iter().all(|&i| i < source_points), "{body}");

    handle.shutdown();
    server_thread.join().expect("server thread");
}
