//! # fam-serve
//!
//! A dependency-free concurrent serving layer over the FAM engine: one
//! process hosts **multiple named datasets**, each published as an
//! immutable generation snapshot behind an `Arc`, and answers
//! regret-minimizing-set queries over HTTP/1.1 (std `TcpListener`,
//! fixed pool of scoped worker threads — no async runtime, no external
//! crates).
//!
//! * [`DatasetService`] — per-dataset state: the sampled user population,
//!   the live score matrix + coordinates, and a **multi-`k` result
//!   cache** harvested in one greedy trajectory per range-capable
//!   algorithm (`fam_algos::trajectory`), bit-identical to per-`k` cold
//!   solves and re-harvested after every update — the one answer each
//!   `(algorithm, k, generation)` has;
//! * **wait-free reads** — readers clone the current generation's `Arc`
//!   and never block; writers build the next generation off-lock and
//!   publish it with a single swap, so a failed or panicking writer
//!   leaves the previous generation serving bit-identical answers
//!   (pinned by the fault-injection tests over
//!   [`fam_core::failpoints`]);
//! * **admission control** — per-request deadlines (`deadline_ms` →
//!   `504`), a bounded pending-connection queue shedding overload with
//!   `503` + `Retry-After`, bounded keep-alive connections, and
//!   graceful drain on shutdown;
//! * solve dispatch through the unified solver registry
//!   (`fam_algos::Registry`): every registered algorithm is reachable at
//!   `/solve?algo=NAME` (solver parameters ride along as query
//!   parameters), and `GET /algos` lists the registry with per-algorithm
//!   capabilities;
//! * [`Server`] / [`ServerHandle`] / [`ServerOptions`] — the listener,
//!   acceptor + worker pool, routing, and graceful shutdown;
//! * [`Client`] — a persistent-connection client with jittered
//!   exponential backoff honoring `Retry-After`;
//! * [`http`] / [`json`] — the minimal protocol layers.
//!
//! ```no_run
//! use fam_core::Dataset;
//! use fam_serve::{DatasetService, ServeOptions, Server};
//!
//! let ds = Dataset::from_rows(vec![vec![0.9, 0.2], vec![0.4, 0.8], vec![0.1, 0.95]]).unwrap();
//! let opts = ServeOptions { cache_k: 1..=2, ..Default::default() };
//! let svc = DatasetService::build("hotels", &ds, &opts).unwrap();
//! let server = Server::bind(("127.0.0.1", 0), vec![svc], 4).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! server.run(); // blocks until a `ServerHandle::shutdown`
//! ```
//!
//! The CLI front end is `fam serve --data a.csv --data b.csv --port P
//! --cache-k 1..K` (plus `fam remote-solve` / `fam remote-replay` for
//! the client side); `crates/bench/benches/serve.rs` measures cached vs
//! uncached throughput and readers-during-writes (`BENCH_serve.json`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod service;

pub use client::{Client, ClientOptions, Response};
pub use fam_reduce::ReduceSpec;
pub use server::{Server, ServerHandle, ServerOptions, DEFAULT_WORKERS};
pub use service::{
    DatasetService, DistKind, RefineSummary, ServeOptions, SolveResult, UpdateSummary,
    MAX_EXPONENTIAL_LOG2_SUBSETS, MAX_REFINE_MATRIX_BYTES,
};
