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

/// A command's implementation.
type Command = fn(&ParsedArgs) -> Result<String, String>;

/// Every command with the flags its usage line documents, space-separated;
/// any other flag is a usage error, so a typo (`--sample` for
/// `--samples`) cannot silently change a run. A flag marked `...` may
/// repeat; any other flag given twice is a usage error too, so a
/// duplicate cannot silently override the first value.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("generate", commands::generate, "out n d corr seed"),
    ("skyline", commands::skyline_cmd, "data labelled"),
    ("algos", |_| Ok(commands::algos()), ""),
    ("solve", commands::solve, "data k algo param... samples epsilon sigma dist seed labelled"),
    ("select", commands::select, "data k algo samples epsilon sigma dist seed compact labelled"),
    ("evaluate", commands::evaluate, "data selection samples seed labelled"),
    ("refine", commands::refine_cmd, "data k epsilon sigma initial churn algo dist seed labelled"),
    (
        "replay",
        commands::replay,
        "data updates k batch samples epsilon sigma dist seed verify labelled",
    ),
    (
        "serve",
        commands::serve,
        "data... port bind workers cache-k samples epsilon sigma dist seed labelled reduce \
         reduce-eps deadline-ms max-pending keepalive-requests idle-ms retry-after",
    ),
    (
        "remote-solve",
        commands::remote_solve,
        "server dataset k algo deadline-ms attempts timeout-ms",
    ),
    (
        "remote-replay",
        commands::remote_replay,
        "server dataset updates batch deadline-ms attempts timeout-ms",
    ),
];

/// Entry point shared by the binary and the tests. `--help` or `-h`
/// anywhere after a command prints the usage.
///
/// # Errors
///
/// Returns a human-readable error string on bad usage (an unknown
/// command or flag included) or command failure.
pub fn run(argv: &[String]) -> Result<String, String> {
    match parse(argv)? {
        Some((command, args)) => command(&args),
        None => Ok(usage()),
    }
}

/// Resolves a command line to its command and flags, rejecting any flag
/// the command does not accept; `None` asks for the usage.
fn parse(argv: &[String]) -> Result<Option<(Command, ParsedArgs)>, String> {
    let (command, rest) = argv.split_first().ok_or_else(usage)?;
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        return Ok(None);
    }
    // The aliases share their command's entry.
    let canonical = match command.as_str() {
        "update" => "replay",
        "remote-update" => "remote-replay",
        other => other,
    };
    let Some(&(_, run_command, flags)) = COMMANDS.iter().find(|(name, ..)| *name == canonical)
    else {
        return Err(format!("unknown command `{command}`\n{}", usage()));
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let args = ParsedArgs::parse(rest)?;
    for flag in args.names() {
        let accepted = flags.split_whitespace().find(|g| g.trim_end_matches("...") == flag);
        let Some(accepted) = accepted else {
            return Err(format!("unknown flag --{flag} for `fam {command}` (see `fam --help`)"));
        };
        let given = args.all(flag).len();
        if given > 1 && !accepted.ends_with("...") {
            return Err(format!(
                "flag --{flag} given {given} times for `fam {command}`; it takes one value"
            ));
        }
    }
    Ok(Some((run_command, args)))
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
     replay    --data FILE --updates FILE --k K [--batch B] [--samples N | --epsilon E --sigma G]\n            \
     [--dist uniform|simplex] [--seed S] [--verify] [--labelled]   (alias: update; ops are\n            \
     `insert,c0,c1,..` / `delete,IDX`, delete indices refer to the point set at the start of each\n            \
     batch, swap-remove order; applies each batch like POST /update, so the answers equal\n            \
     `fam serve`'s for the same ops and flags; --verify checks every cached answer against a\n            \
     cold solve)\n  \
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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (line, flag) in [
            ("solve --data d.csv --k 3 --sample 20000 --algo add-greedy", "--sample"),
            ("solve --data d.csv --k 3 --bogus 1", "--bogus"),
            ("select --data d.csv --k 3 --verify", "--verify"),
            ("update --data d.csv --updates ops.csv --k 3 --cache-k 1..6", "--cache-k"),
            ("algos --k 3", "--k"),
        ] {
            // Rejected before the command runs: `d.csv` is never read.
            let err = run(&argv(line)).unwrap_err();
            let command = line.split_whitespace().next().unwrap();
            assert!(err.contains(flag), "{line}: {err}");
            assert!(err.contains(&format!("`fam {command}`")), "{line}: {err}");
        }
    }

    #[test]
    fn repeated_single_value_flags_are_rejected_by_name() {
        for (line, flag) in [
            ("solve --data d.csv --k 3 --k 5 --samples 300", "--k"),
            ("solve --data d.csv --k 3 --samples 300 --samples 50", "--samples"),
            ("solve --data a.csv --data b.csv --k 3", "--data"),
            ("select --data d.csv --k 3 --algo add-greedy --algo greedy-shrink", "--algo"),
            ("serve --data a.csv --port 1 --port 2", "--port"),
        ] {
            // Rejected before the command runs: no file is ever read.
            let err = run(&argv(line)).unwrap_err();
            let command = line.split_whitespace().next().unwrap();
            assert!(err.contains(&format!("{flag} given 2 times")), "{line}: {err}");
            assert!(err.contains(&format!("`fam {command}`")), "{line}: {err}");
        }
        // `--data` on `fam serve` and `--param` on `fam solve` repeat.
        let parsed = |line: &str| parse(&argv(line)).unwrap().expect("a command, not the usage").1;
        let serve = parsed("serve --data a.csv --data b.csv --data c.csv --port 0");
        assert_eq!(serve.all("data"), vec!["a.csv", "b.csv", "c.csv"]);
        let solve = parsed("solve --data d.csv --k 3 --param lazy=false --param cache=false");
        assert_eq!(solve.all("param"), vec!["lazy=false", "cache=false"]);
    }

    #[test]
    fn help_after_any_command_prints_the_usage() {
        for (name, ..) in COMMANDS {
            for help in ["--help", "-h"] {
                let msg = run(&argv(&format!("{name} --data d.csv {help}"))).unwrap();
                assert!(msg.starts_with("usage: fam"), "{name} {help}: {msg}");
            }
        }
        assert!(run(&argv("solve --help")).unwrap().contains("solve     --data FILE --k K"));
        assert!(run(&argv("bogus --help")).is_err());
    }

    /// Every `fam` command line in README's CLI block and CI's
    /// serve-smoke job names only flags its command accepts.
    #[test]
    fn documented_command_lines_parse() {
        let readme = include_str!("../../../README.md");
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let lines: Vec<&str> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("fam "))
            .chain(ci.lines().filter_map(|l| l.trim().strip_prefix("$FAM ")))
            .collect();
        assert!(lines.len() >= 14, "found only {} command lines", lines.len());
        for line in lines {
            // Drop shell comments, backgrounding, pipes and redirects.
            let command = line.split(['#', '&', '|', '>']).next().unwrap_or_default();
            parse(&argv(command)).unwrap_or_else(|e| panic!("`fam {line}`: {e}"));
        }
    }
}
