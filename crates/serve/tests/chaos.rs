//! Deterministic fault-injection ("chaos") tests over a live server:
//! every writer failure mode — injected error, panic, failure between
//! build and publish — must leave the previously published generation
//! serving bit-identical answers to wait-free readers, and a recovered
//! writer must converge to exactly the state of a run that never
//! failed. Overload is exercised too: a tiny pending budget plus an
//! injected per-request delay must shed with `503` + `Retry-After`
//! while at least one request still lands.
//!
//! The failpoint registry is process-global, so every test that arms
//! one serializes on [`CHAOS`].

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use fam_algos::add_greedy;
use fam_core::failpoints::{self, FailAction};
use fam_core::Dataset;
use fam_data::{synthetic, Correlation};
use fam_serve::{Client, ClientOptions, DatasetService, ServeOptions, Server, ServerOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes tests that arm the process-global failpoint registry.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    let guard = match CHAOS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    failpoints::reset();
    guard
}

fn base_dataset(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    synthetic(n, 3, Correlation::AntiCorrelated, &mut rng).expect("dataset")
}

fn options() -> ServeOptions {
    ServeOptions { samples: 200, seed: 29, cache_k: 1..=4, sigma: 0.1, ..ServeOptions::default() }
}

/// Server options tuned for tests: fast idle expiry so shutdown does
/// not wait on parked keep-alive connections.
fn test_server_opts() -> ServerOptions {
    ServerOptions { idle_timeout: Duration::from_millis(200), ..ServerOptions::default() }
}

fn field_f64(body: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag).unwrap_or_else(|| panic!("no {key} in {body}")) + tag.len()..];
    let end = rest.find([',', '}']).expect("terminated field");
    rest[..end].parse().unwrap_or_else(|_| panic!("bad number for {key} in {body}"))
}

fn field_indices(body: &str, key: &str) -> Vec<usize> {
    let tag = format!("\"{key}\":[");
    let rest = &body[body.find(&tag).unwrap_or_else(|| panic!("no {key} in {body}")) + tag.len()..];
    let end = rest.find(']').expect("closed array");
    rest[..end].split(',').filter(|s| !s.is_empty()).map(|s| s.parse().expect("index")).collect()
}

/// The comparable core of a solve response: everything except timing.
fn solve_fingerprint(body: &str) -> (Vec<usize>, u64, u64) {
    (
        field_indices(body, "selection"),
        field_f64(body, "arr").to_bits(),
        field_f64(body, "generation") as u64,
    )
}

const OPS_A: &str = "insert,0.9,0.85,0.7\ninsert,0.2,0.95,0.4\ndelete,3\n";
const OPS_B: &str = "insert,0.5,0.5,0.99\ndelete,11\n";

#[test]
fn writer_failures_never_publish_and_recovery_converges() {
    let _chaos = chaos_lock();
    let data = base_dataset(41, 80);
    let svc = DatasetService::build("alpha", &data, &options()).expect("svc");
    let server = Server::bind_with(("127.0.0.1", 0), vec![svc], test_server_opts()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::new(addr.to_string());

    // Baseline: generation 1 answers for every cached k.
    let mut baseline = Vec::new();
    for k in 1..=4usize {
        let resp = client.get(&format!("/solve?dataset=alpha&k={k}")).expect("baseline");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"cached\":true"), "{}", resp.body);
        baseline.push(solve_fingerprint(&resp.body));
        assert_eq!(baseline[k - 1].2, 1, "baseline generation");
    }

    // Every writer failure mode: before mutation, during cache
    // re-harvest (error *and* panic), and after a successful build but
    // before the publish swap.
    let rounds: [(&str, FailAction, u16, &str); 4] = [
        ("service.apply", FailAction::Error, 500, "injected fault at failpoint `service.apply`"),
        ("service.reharvest", FailAction::Error, 500, "failpoint `service.reharvest`"),
        ("service.reharvest", FailAction::Panic, 500, "handler panicked"),
        ("serve.publish", FailAction::Error, 500, "failpoint `serve.publish`"),
    ];
    for (site, action, want_status, want_body) in rounds {
        let _fp = failpoints::arm_times(site, action, 1);
        let resp = client.post("/update?dataset=alpha", OPS_A).expect("faulty update delivered");
        assert_eq!(resp.status, want_status, "{site}: {}", resp.body);
        assert!(resp.body.contains(want_body), "{site}: {}", resp.body);
        assert!(failpoints::triggered(site) > 0, "{site} armed but never hit");

        // The failed writer published nothing: generation still 1 and
        // every cached answer is bit-identical to the baseline.
        let resp = client.get("/healthz").expect("healthz");
        assert!(resp.body.contains("\"generations\":{\"alpha\":1}"), "{site}: {}", resp.body);
        for k in 1..=4usize {
            let resp = client.get(&format!("/solve?dataset=alpha&k={k}")).expect("read-back");
            assert_eq!(resp.status, 200, "{site}: {}", resp.body);
            assert_eq!(solve_fingerprint(&resp.body), baseline[k - 1], "{site} k={k}");
        }
    }
    failpoints::reset();

    // Recovery: the same op batch now lands, and the published state is
    // exactly what an unfailed run produces (failed attempts consumed
    // no RNG and left no residue in the clone-discard path).
    let resp = client.post("/update?dataset=alpha", OPS_A).expect("recovered update");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"generation\":2"), "{}", resp.body);
    let mut replica = DatasetService::build("alpha", &data, &options()).expect("replica");
    replica.apply_update_text(OPS_A, "replica").expect("replica update");
    for k in 1..=4usize {
        let resp = client.get(&format!("/solve?dataset=alpha&k={k}")).expect("converged");
        assert!(resp.body.contains("\"cached\":true"), "{}", resp.body);
        let cold = add_greedy(replica.matrix(), k).expect("cold");
        let (sel, arr_bits, generation) = solve_fingerprint(&resp.body);
        assert_eq!(sel, cold.indices, "k={k}");
        assert_eq!(arr_bits, cold.objective.unwrap().to_bits(), "k={k} arr bits");
        assert_eq!(generation, 2, "k={k}");
    }

    handle.shutdown();
    server_thread.join().expect("server thread");
}

#[test]
fn concurrent_readers_never_block_on_a_sustained_faulty_writer() {
    let _chaos = chaos_lock();
    let data = base_dataset(43, 90);
    let svc = DatasetService::build("alpha", &data, &options()).expect("svc");
    let opts = ServerOptions { workers: 6, ..test_server_opts() };
    let server = Server::bind_with(("127.0.0.1", 0), vec![svc], opts).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // ≥4 wait-free readers on persistent connections, hammering cached
    // solves for the whole writer storm.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|reader| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::new(addr.to_string());
                let mut served = 0u64;
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = 1 + (reader + i) % 4;
                    let resp = client.get(&format!("/solve?dataset=alpha&k={k}")).expect("reader");
                    assert_eq!(resp.status, 200, "reader {reader}: {}", resp.body);
                    assert!(resp.body.contains("\"cached\":true"), "reader {reader}");
                    assert!(field_f64(&resp.body, "arr").is_finite());
                    served += 1;
                    i += 1;
                }
                served
            })
        })
        .collect();

    // A sustained writer that fails every other round, rotating through
    // the injection sites; the even rounds land.
    let mut writer = Client::new(addr.to_string());
    let sites = ["service.apply", "service.reharvest", "serve.publish"];
    let mut landed = Vec::new();
    for round in 0..6 {
        let ops = if round % 4 < 2 { OPS_A } else { OPS_B };
        if round % 2 == 0 {
            let _fp = failpoints::arm_times(sites[round / 2], FailAction::Error, 1);
            let resp = writer.post("/update?dataset=alpha", ops).expect("faulty round");
            assert_eq!(resp.status, 500, "round {round}: {}", resp.body);
        } else {
            let resp = writer.post("/update?dataset=alpha", ops).expect("good round");
            assert_eq!(resp.status, 200, "round {round}: {}", resp.body);
            landed.push(ops);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served: u64 = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
    assert!(served >= 16, "readers barely ran: {served}");

    // Post-recovery state == a cold replica that saw only the landed
    // batches; generation counted only the successful publishes.
    let mut replica = DatasetService::build("alpha", &data, &options()).expect("replica");
    for ops in &landed {
        replica.apply_update_text(ops, "replica").expect("replica update");
    }
    let resp = writer.get("/healthz").expect("healthz");
    assert!(resp.body.contains("\"generations\":{\"alpha\":4}"), "{}", resp.body);
    for k in 1..=4usize {
        let resp = writer.get(&format!("/solve?dataset=alpha&k={k}")).expect("converged");
        let cold = add_greedy(replica.matrix(), k).expect("cold");
        let (sel, arr_bits, _) = solve_fingerprint(&resp.body);
        assert_eq!(sel, cold.indices, "k={k}");
        assert_eq!(arr_bits, cold.objective.unwrap().to_bits(), "k={k} arr bits");
    }

    handle.shutdown();
    server_thread.join().expect("server thread");
}

#[test]
fn overload_sheds_with_retry_after_and_deadlines_expire() {
    let _chaos = chaos_lock();
    let data = base_dataset(47, 40);
    let opts = ServeOptions { samples: 100, cache_k: 1..=2, ..options() };
    let svc = DatasetService::build("tiny", &data, &opts).expect("svc");
    let server_opts =
        ServerOptions { workers: 1, max_pending: 1, retry_after_secs: 7, ..test_server_opts() };
    let server = Server::bind_with(("127.0.0.1", 0), vec![svc], server_opts).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Injected 300 ms of per-request work, one worker, one queue slot:
    // a burst of 6 must shed most of the flood with 503 + Retry-After
    // while at least one request still lands.
    let _fp = failpoints::arm("serve.solve", FailAction::Delay(Duration::from_millis(300)));
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(6));
    let outcomes: Vec<_> = (0..6)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::new(addr.to_string());
                barrier.wait();
                c.get_once("/solve?dataset=tiny&k=1").expect("delivered")
            })
        })
        .collect();
    let outcomes: Vec<_> = outcomes.into_iter().map(|t| t.join().expect("client")).collect();
    let ok = outcomes.iter().filter(|r| r.status == 200).count();
    let shed: Vec<_> = outcomes.iter().filter(|r| r.status == 503).collect();
    assert!(ok >= 1, "nothing served under overload");
    assert!(
        !shed.is_empty(),
        "nothing shed: statuses {:?}",
        outcomes.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    for resp in &shed {
        assert_eq!(resp.header("retry-after"), Some("7"), "{:?}", resp.headers);
        assert!(resp.body.contains("overloaded"), "{}", resp.body);
    }
    failpoints::reset();

    // The shed counter recorded the turned-away connections.
    let mut c = Client::new(addr.to_string());
    let resp = c.get("/stats").expect("stats");
    assert!(field_f64(&resp.body, "shed") >= 1.0, "{}", resp.body);

    // A request whose budget is already spent when work starts answers
    // 504 — even though the answer is cached — and is counted.
    let _fp = failpoints::arm("serve.solve", FailAction::Delay(Duration::from_millis(30)));
    let resp = c.get("/solve?dataset=tiny&k=1&deadline_ms=1").expect("deadline");
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("deadline exceeded"), "{}", resp.body);
    failpoints::reset();
    let resp = c.get("/stats").expect("stats");
    assert!(field_f64(&resp.body, "deadline_exceeded") >= 1.0, "{}", resp.body);

    handle.shutdown();
    server_thread.join().expect("server thread");
}

#[test]
fn keep_alive_is_bounded_and_the_client_rides_reconnects() {
    let data = base_dataset(53, 30);
    let opts = ServeOptions { samples: 80, cache_k: 1..=2, ..options() };
    let svc = DatasetService::build("tiny", &data, &opts).expect("svc");
    let server_opts = ServerOptions { max_requests_per_conn: 3, ..test_server_opts() };
    let server = Server::bind_with(("127.0.0.1", 0), vec![svc], server_opts).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // 8 requests over a 3-requests-per-connection server: the third
    // response on each connection says `Connection: close`, and the
    // client transparently reconnects — ceil(8/3) = 3 connections.
    let mut client = Client::new(addr.to_string());
    for i in 0..8 {
        let resp = client.get("/solve?dataset=tiny&k=2").expect("request");
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        assert!(resp.body.contains("\"cached\":true"), "request {i}");
    }
    assert_eq!(client.reconnects(), 3, "bounded keep-alive must force reconnects");
    assert_eq!(client.retries(), 0, "reconnecting is not a retry");

    handle.shutdown();
    server_thread.join().expect("server thread");
}

/// The retry loop against a hand-rolled one-shot server: a `503` with
/// `Retry-After: 0` is retried and the second attempt's `200` is
/// returned — fully deterministic, no timing in the loop.
#[test]
fn client_retries_a_503_and_honors_the_budget() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let answers = [
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\nRetry-After: 0\r\nConnection: close\r\n\r\n{}",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
        ];
        for answer in answers {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut buf);
            std::io::Write::write_all(&mut stream, answer.as_bytes()).expect("answer");
        }
    });
    let mut client = Client::with_options(
        addr.to_string(),
        ClientOptions { base_backoff: Duration::from_millis(1), ..ClientOptions::default() },
    );
    let resp = client.get("/stats").expect("retried to success");
    assert_eq!(resp.status, 200);
    assert_eq!(client.retries(), 1, "exactly one retry after the 503");
    fake.join().expect("fake server");
}

/// A POST whose response is lost after the request was fully sent is
/// *not* retried (an op batch could have been applied); the error says
/// so.
#[test]
fn client_refuses_to_blindly_retry_a_sent_post() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 1024];
        let _ = std::io::Read::read(&mut stream, &mut buf);
        drop(stream); // hang up without answering
    });
    let mut client = Client::with_options(
        addr.to_string(),
        ClientOptions { base_backoff: Duration::from_millis(1), ..ClientOptions::default() },
    );
    let err = client.post("/update?dataset=x", "insert,0.5\n").expect_err("must not retry");
    assert!(err.contains("not retried"), "{err}");
    assert_eq!(client.retries(), 0, "{err}");
    fake.join().expect("fake server");
}
