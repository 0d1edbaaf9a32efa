//! # fam-cli
//!
//! Command implementations for the `fam` binary — a thin, dependency-free
//! command-line front end over the FAM library:
//!
//! ```text
//! fam generate --out data.csv --n 10000 --d 4 --corr anti
//! fam skyline  --data data.csv
//! fam algos
//! fam solve    --data data.csv --k 10 --algo greedy-shrink --param lazy=false
//! fam select   --data data.csv --k 10 --algo greedy-shrink
//! fam evaluate --data data.csv --selection 3,17,42
//! fam refine   --data data.csv --k 10 --epsilon 0.02
//! fam replay   --data data.csv --updates ops.csv --k 10 --batch 16
//! fam serve    --data a.csv --data b.csv --port 8787 --cache-k 1..10
//! fam remote-solve  --server 127.0.0.1:8787 --dataset a --k 10
//! fam remote-replay --server 127.0.0.1:8787 --dataset a --updates ops.csv --batch 16
//! ```
//!
//! `fam solve` dispatches through the unified solver registry
//! (`fam::Registry`) — every registered algorithm is reachable by name,
//! with typed parameters parsed from `--param key=val` by the same
//! machinery the HTTP server applies to `/solve` query parameters.
//!
//! All logic lives in this library crate so it is unit-testable; `main`
//! only forwards `std::env::args`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::ParsedArgs;

/// Entry point shared by the binary and the tests.
///
/// # Errors
///
/// Returns a human-readable error string on bad usage or command failure.
pub fn run(argv: &[String]) -> Result<String, String> {
    let (command, rest) = argv.split_first().ok_or_else(usage)?;
    let parsed = ParsedArgs::parse(rest)?;
    match command.as_str() {
        "generate" => commands::generate(&parsed),
        "skyline" => commands::skyline_cmd(&parsed),
        "solve" => commands::solve(&parsed),
        "algos" => Ok(commands::algos()),
        "select" => commands::select(&parsed),
        "evaluate" => commands::evaluate(&parsed),
        "refine" => commands::refine_cmd(&parsed),
        "replay" | "update" => commands::replay(&parsed),
        "serve" => commands::serve(&parsed),
        "remote-solve" => commands::remote_solve(&parsed),
        "remote-replay" | "remote-update" => commands::remote_replay(&parsed),
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: fam <command> [flags]\n\
     commands:\n  \
     generate  --out FILE --n N --d D [--corr indep|corr|anti] [--seed S]\n  \
     skyline   --data FILE [--labelled]\n  \
     algos     (list the solver registry with per-algorithm capabilities)\n  \
     solve     --data FILE --k K [--algo NAME] [--param key=val ...]\n            \
     [--samples N | --epsilon E --sigma G] [--dist uniform|simplex] [--seed S] [--labelled]\n            \
     (NAME is any registry entry - see `fam algos`; params: seed=i,j,.. measure=box|angle\n            \
     max-passes=N prune|lazy|cache|exact=true|false reduce=none|skyline|coreset reduce-eps=E;\n            \
     reduce=skyline prunes candidates losslessly and scores only the skyline, so\n            \
     million-point datasets fit the matrix budget)\n  \
     select    --data FILE --k K [--algo greedy-shrink|add-greedy|mrr-greedy|sky-dom|k-hit|dp|brute-force]\n            \
     [--samples N | --epsilon E --sigma G] [--dist uniform|simplex] [--seed S] [--compact] [--labelled]\n  \
     evaluate  --data FILE --selection I,J,K [--samples N] [--seed S] [--labelled]\n  \
     refine    --data FILE --k K --epsilon E [--sigma G] [--initial N0] [--churn C] [--algo NAME]\n            \
     [--dist uniform|simplex] [--seed S] [--labelled]   (progressive precision: solve coarse,\n            \
     double samples in place until the Chernoff bound for eps is met; final answer is\n            \
     bit-identical to a cold solve at the final N)\n  \
     replay    --data FILE --updates FILE --k K [--batch B] [--samples N] [--dist uniform|simplex]\n            \
     [--seed S] [--verify] [--labelled]   (alias: update; ops are `insert,c0,c1,..` / `delete,IDX`,\n            \
     delete indices refer to the point set at the start of each batch, swap-remove order)\n  \
     serve     --data FILE [--data FILE ...] [--port P] [--bind ADDR] [--workers W] [--cache-k LO..HI]\n            \
     [--samples N | --epsilon E --sigma G] [--dist uniform|simplex] [--seed S] [--labelled]\n            \
     [--reduce none|skyline|coreset [--reduce-eps E]]  (reduce at build time: the engine holds\n            \
     only the kept candidates, answers come back in original ids, updates repair the reduction)\n            \
     [--deadline-ms MS] [--max-pending N] [--keepalive-requests N] [--idle-ms MS] [--retry-after SECS]\n            \
     (HTTP endpoints: GET /healthz, /readyz, /datasets, /algos, /solve?dataset=..&k=..&algo=..,\n            \
     /evaluate?dataset=..&selection=.., /stats; POST /update?dataset=.. with an op-stream body;\n            \
     POST /refine?dataset=..&epsilon=.. publishes a precision-upgraded generation; every request\n            \
     may carry deadline_ms= (504 past budget); overload sheds 503 + Retry-After; datasets are\n            \
     named by file stem; binds 127.0.0.1 unless --bind says otherwise - /update and /refine\n            \
     are unauthenticated)\n  \
     remote-solve  --server HOST:PORT --dataset NAME --k K [--algo NAME] [--deadline-ms MS]\n            \
     [--attempts N] [--timeout-ms MS]   (query a running server; 503s are retried with\n            \
     jittered exponential backoff honoring Retry-After, bounded by --attempts)\n  \
     remote-replay --server HOST:PORT --dataset NAME --updates FILE [--batch B] [--deadline-ms MS]\n            \
     [--attempts N] [--timeout-ms MS]   (alias: remote-update; stream an ops file to\n            \
     POST /update in batches with the same retry policy; a batch whose fate is unknown\n            \
     is never blindly re-sent)"
        .to_string()
}
