//! The rule engine: repo-specific invariants, stable IDs, and waivers.
//!
//! Rules operate on the blanked code stream produced by
//! [`crate::lexer::lex`]; test-scoped lines are exempt. Every violation
//! is waivable only by an inline comment of the form
//!
//! ```text
//! // fam-lint: allow(D001) -- why this site is safe
//! ```
//!
//! on the offending line or on a standalone comment line directly above
//! it. A waiver **must** carry a reason after `--` (otherwise `W001`),
//! and a waiver that suppresses nothing is itself an error (`W002`), so
//! the set of waived sites can never silently rot. See `docs/LINTS.md`
//! for the full catalog.

use crate::lexer::{lex, Line};

/// Stable rule identifiers. New rules append; IDs are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Float ordering: `partial_cmp` / `f64::max` fold operators.
    D001,
    /// Unordered `HashMap`/`HashSet` in the numeric crates.
    D002,
    /// Ambient nondeterminism: wall clocks and unseeded RNG.
    D003,
    /// Panic-freedom on `fam-serve` request paths.
    P001,
    /// Kernel-shape confinement: raw float accumulation outside kernels.
    K001,
    /// `#![forbid(unsafe_code)]` present in every crate root.
    U001,
    /// Ad-hoc threading outside the deterministic pool and the serve
    /// acceptor.
    T001,
    /// A `BinaryHeap` in `fam-algos` outside `lazy.rs`, its one lazy-greedy
    /// loop.
    H001,
    /// A direct score-store constructor in the facade or the CLI, which
    /// score sampled populations through the one backing decision.
    S001,
    /// A reduced-universe remap outside the registry's one entry point
    /// and `fam-reduce`.
    R001,
    /// Waiver without a reason.
    W001,
    /// Stale waiver: suppresses nothing.
    W002,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::P001 => "P001",
            Rule::K001 => "K001",
            Rule::U001 => "U001",
            Rule::T001 => "T001",
            Rule::H001 => "H001",
            Rule::S001 => "S001",
            Rule::R001 => "R001",
            Rule::W001 => "W001",
            Rule::W002 => "W002",
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "D001" => Some(Rule::D001),
            "D002" => Some(Rule::D002),
            "D003" => Some(Rule::D003),
            "P001" => Some(Rule::P001),
            "K001" => Some(Rule::K001),
            "U001" => Some(Rule::U001),
            "T001" => Some(Rule::T001),
            "H001" => Some(Rule::H001),
            "S001" => Some(Rule::S001),
            "R001" => Some(Rule::R001),
            "W001" => Some(Rule::W001),
            "W002" => Some(Rule::W002),
            _ => None,
        }
    }
}

/// One rule violation (or waiver defect) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated (e.g. `crates/core/src/scores.rs`).
    pub rel_path: String,
    /// The owning workspace member (e.g. `crates/core`; `.` for the root
    /// facade package).
    pub member: String,
    /// `fam_core::kernels` — the one file where the floating-point shape
    /// of hot passes lives; D001/K001 do not apply inside it.
    pub is_kernels: bool,
    /// Crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`) — U001
    /// checks `#![forbid(unsafe_code)]` here.
    pub is_crate_root: bool,
}

impl FileCtx {
    /// Derive the context from a workspace-relative path.
    pub fn from_rel_path(rel: &str) -> FileCtx {
        let rel_path = rel.replace('\\', "/");
        let member = if let Some(rest) = rel_path.strip_prefix("crates/") {
            let mut parts = rest.split('/');
            let first = parts.next().unwrap_or("");
            if first == "compat" {
                let second = parts.next().unwrap_or("");
                format!("crates/compat/{second}")
            } else {
                format!("crates/{first}")
            }
        } else {
            ".".to_string()
        };
        let file_name = rel_path.rsplit('/').next().unwrap_or("");
        let in_bin = rel_path.contains("/src/bin/");
        let is_crate_root = file_name == "lib.rs"
            || file_name == "main.rs"
            || (in_bin && file_name.ends_with(".rs"));
        FileCtx {
            is_kernels: member == "crates/core" && file_name == "kernels.rs",
            is_crate_root,
            rel_path,
            member,
        }
    }

    /// The numeric crates whose folds feed reproducible answers.
    fn is_numeric_crate(&self) -> bool {
        self.member == "crates/core" || self.member == "crates/algos"
    }

    fn d001_applies(&self) -> bool {
        !self.is_kernels
    }

    fn d002_applies(&self) -> bool {
        self.is_numeric_crate()
    }

    /// Wall clocks and entropy are the *point* of the serving, bench, and
    /// criterion-shim crates; everywhere else they need a waiver.
    fn d003_applies(&self) -> bool {
        !matches!(self.member.as_str(), "crates/serve" | "crates/bench" | "crates/compat/criterion")
    }

    fn p001_applies(&self) -> bool {
        self.member == "crates/serve"
    }

    fn k001_applies(&self) -> bool {
        self.is_numeric_crate() && !self.is_kernels
    }

    /// The deterministic pool (`fam_core::par` and its submodules) and
    /// fam-serve's acceptor/worker loop are the only sanctioned spawn
    /// sites; everywhere else an ad-hoc thread bypasses the pool's
    /// determinism contract and needs a waiver.
    fn t001_applies(&self) -> bool {
        !(self.rel_path == "crates/core/src/par.rs"
            || self.rel_path.starts_with("crates/core/src/par/")
            || self.rel_path == "crates/serve/src/server.rs")
    }

    /// fam-algos writes its lazy-greedy loop (pop, stamp check,
    /// re-evaluate, push) once, in `lazy.rs`; a heap anywhere else in the
    /// crate is a second copy of that loop.
    fn h001_applies(&self) -> bool {
        self.member == "crates/algos" && self.rel_path != "crates/algos/src/lazy.rs"
    }

    /// The facade (`Engine`) and the CLI hold a sampled population in the
    /// store `ScoreBacking` / `Reduction::backing` pick; a direct
    /// constructor there would make the choice a second time.
    fn s001_applies(&self) -> bool {
        self.rel_path.starts_with("src/") || self.rel_path.starts_with("crates/cli/src/")
    }

    /// `Registry::solve_reduced` (in the registry file) gates and remaps
    /// every reduced request, and `fam-reduce` owns the id bookkeeping;
    /// a remap anywhere else is a second copy of that contract.
    fn r001_applies(&self) -> bool {
        self.rel_path != "crates/algos/src/registry.rs"
            && !self.rel_path.starts_with("crates/reduce/src/")
    }
}

/// The note key R001 confines: only the registry's remap writes it.
// fam-lint: allow(R001) -- the rule's own needle
const R001_NOTE: &str = "reduced_from";

/// A parsed waiver comment.
#[derive(Debug)]
struct Waiver {
    /// Line the comment sits on (1-based).
    line: usize,
    /// Line whose findings it suppresses (same line, or the next code
    /// line for a standalone comment).
    target: Option<usize>,
    rules: Vec<Rule>,
    has_reason: bool,
    used: bool,
}

/// Lint one file's source text under `ctx`. Returns findings sorted by line.
pub fn lint_source(ctx: &FileCtx, source: &str) -> Vec<Finding> {
    let lines = lex(source);
    let mut findings = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let code = line.code.as_str();
        let mut push = |rule: Rule, message: String| {
            findings.push(Finding {
                rule,
                path: ctx.rel_path.clone(),
                line: lineno,
                message,
                snippet: source.lines().nth(idx).unwrap_or("").trim().to_string(),
            });
        };

        if ctx.d001_applies() {
            for tok in ["partial_cmp", "f64::max", "f64::min", "f32::max", "f32::min"] {
                if has_word(code, tok) {
                    push(
                        Rule::D001,
                        format!(
                            "float ordering via `{tok}` — use `total_cmp` (or \
                             `fam_core::kernels::lane_max`) so NaN cannot poison an ordering \
                             decision"
                        ),
                    );
                }
            }
        }
        if ctx.d002_applies() {
            for tok in ["HashMap", "HashSet"] {
                if has_word(code, tok) {
                    push(
                        Rule::D002,
                        format!(
                            "`{tok}` in a numeric crate — iteration order is nondeterministic; \
                             use `BTreeMap`/`BTreeSet`/an indexed `Vec`, or waive with a proof \
                             that its order never feeds a fold"
                        ),
                    );
                }
            }
        }
        if ctx.d003_applies() {
            for tok in [
                "Instant::now",
                "SystemTime::now",
                "thread_rng",
                "from_entropy",
                "OsRng",
                "rand::random",
            ] {
                if has_word(code, tok) {
                    push(
                        Rule::D003,
                        format!(
                            "ambient nondeterminism via `{tok}` — outside the serve/bench \
                             allowlist, time and entropy must come from seeded/injected sources"
                        ),
                    );
                }
            }
        }
        if ctx.p001_applies() {
            for tok in
                [".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"]
            {
                if code.contains(tok) {
                    push(
                        Rule::P001,
                        format!(
                            "`{tok}` on a fam-serve request path — handlers must return errors, \
                             not panic a worker"
                        ),
                    );
                }
            }
            if let Some(col) = find_bare_index(code) {
                push(
                    Rule::P001,
                    format!(
                        "bare index `…[` at column {} — out-of-bounds panics a worker; use \
                         `.get()` / pattern matching, or waive with a bounds proof",
                        col + 1
                    ),
                );
            }
        }
        if ctx.k001_applies() {
            for tok in ["mul_add", ".sum::<f64>()", ".sum::<f32>()"] {
                if if tok.starts_with('.') { code.contains(tok) } else { has_word(code, tok) } {
                    push(
                        Rule::K001,
                        format!(
                            "`{tok}` outside `fam_core::kernels` — the floating-point shape of \
                             accumulations is single-sourced there (`lane_sum`/`fmadd`)"
                        ),
                    );
                }
            }
            if fold_with_float_seed(code) {
                push(
                    Rule::K001,
                    "float-seeded `.fold(` outside `fam_core::kernels` — route the reduction \
                     through `lane_sum`/`lane_max` or waive with a reason"
                        .to_string(),
                );
            }
        }
        if ctx.t001_applies() {
            for tok in ["thread::spawn", "thread::scope", "thread::Builder"] {
                if has_word(code, tok) {
                    push(
                        Rule::T001,
                        format!(
                            "`{tok}` outside the sanctioned spawn sites — ad-hoc threads bypass \
                             the deterministic worker pool; route work through `fam_core::par`, \
                             or waive with a reason why this thread cannot affect reproducibility"
                        ),
                    );
                }
            }
        }
        if ctx.h001_applies() && has_word(code, "BinaryHeap") {
            push(
                Rule::H001,
                "`BinaryHeap` in fam-algos outside `lazy.rs` — the lazy-greedy loop (stamp \
                 check, re-evaluation, tie order, evaluation count) lives there once; \
                 run `lazy::grow` / `lazy::shrink` / `LazyHeap::pick`, or waive with a reason"
                    .to_string(),
            );
        }
        if ctx.s001_applies() {
            let paths = ["ScoreMatrix::from_distribution", "LinearScores::from_functions"];
            let methods = [".score_matrix(", ".linear_scores("];
            let hits = paths
                .iter()
                .filter(|tok| has_word(code, tok))
                .chain(methods.iter().filter(|tok| code.contains(*tok)));
            for tok in hits {
                push(
                    Rule::S001,
                    format!(
                        "direct `{tok}` in the facade or the CLI — score a sampled population \
                         through `ScoreBacking::sample` / `ScoreBacking::from_functions` (or \
                         `Reduction::backing` when reduced), the one place that picks its store, \
                         or waive with a reason"
                    ),
                );
            }
        }
        if ctx.r001_applies() {
            let calls = [".remap_output(", ".to_reduced("].into_iter().filter(|t| code.contains(t));
            let notes = line.strings.iter().filter(|s| *s == R001_NOTE).map(|_| "\"reduced_from\"");
            for tok in calls.chain(notes) {
                push(
                    Rule::R001,
                    format!(
                        "`{tok}` outside the registry and fam-reduce — a reduced request is gated \
                         and remapped once, by `Registry::solve_reduced` / \
                         `solve_range_reduced` over its `Reduction`; map evaluation ids with \
                         `Reduction::columns`, or waive with a reason"
                    ),
                );
            }
        }
    }

    let forbids_unsafe = lines.iter().any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if ctx.is_crate_root && !forbids_unsafe {
        findings.push(Finding {
            rule: Rule::U001,
            path: ctx.rel_path.clone(),
            line: 1,
            message: "crate root missing `#![forbid(unsafe_code)]`".to_string(),
            snippet: source.lines().next().unwrap_or("").trim().to_string(),
        });
    }

    apply_waivers(ctx, &lines, &mut findings);
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Parse waivers from comments, suppress matched findings, and emit
/// W001/W002 for malformed or stale waivers.
fn apply_waivers(ctx: &FileCtx, lines: &[Line], findings: &mut Vec<Finding>) {
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut bad: Vec<Finding> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = line.comment.find("fam-lint:") else { continue };
        let lineno = idx + 1;
        let rest = line.comment[pos + "fam-lint:".len()..].trim_start();
        let parsed = parse_allow(rest);
        let Some((rules, has_reason)) = parsed else {
            bad.push(Finding {
                rule: Rule::W001,
                path: ctx.rel_path.clone(),
                line: lineno,
                message:
                    "malformed fam-lint comment — expected `allow(<RULE>[, <RULE>…]) -- <reason>`"
                        .to_string(),
                snippet: line.comment.trim().to_string(),
            });
            continue;
        };
        if !has_reason {
            bad.push(Finding {
                rule: Rule::W001,
                path: ctx.rel_path.clone(),
                line: lineno,
                message: "waiver without a reason — append `-- <why this site is safe>`"
                    .to_string(),
                snippet: line.comment.trim().to_string(),
            });
            continue;
        }
        // Standalone comment line: the waiver aims at the next code line.
        let target = if line.code.trim().is_empty() {
            lines
                .iter()
                .enumerate()
                .skip(idx + 1)
                .find(|(_, l)| !l.code.trim().is_empty())
                .map(|(j, _)| j + 1)
        } else {
            Some(lineno)
        };
        waivers.push(Waiver { line: lineno, target, rules, has_reason, used: false });
    }

    findings.retain(|f| {
        let mut keep = true;
        for w in waivers.iter_mut() {
            let hits = w.rules.contains(&f.rule)
                && (w.target == Some(f.line)
                    || (f.rule == Rule::U001 && w.rules.contains(&Rule::U001)));
            if hits {
                w.used = true;
                keep = false;
            }
        }
        keep
    });

    for w in &waivers {
        if w.has_reason && !w.used {
            let ids: Vec<&str> = w.rules.iter().map(|r| r.id()).collect();
            bad.push(Finding {
                rule: Rule::W002,
                path: ctx.rel_path.clone(),
                line: w.line,
                message: format!(
                    "stale waiver: no {} finding on the waived line — delete it so the waiver \
                     set cannot rot",
                    ids.join("/")
                ),
                snippet: String::new(),
            });
        }
    }
    findings.extend(bad);
}

/// Parse `allow(D001, K001) -- reason`. Returns the rule list and whether
/// a non-empty reason follows `--`; `None` if the shape or a rule ID is
/// unrecognized.
fn parse_allow(rest: &str) -> Option<(Vec<Rule>, bool)> {
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let mut rules = Vec::new();
    for id in rest[..close].split(',') {
        rules.push(Rule::from_id(id.trim())?);
    }
    if rules.is_empty() {
        return None;
    }
    let tail = rest[close + 1..].trim_start();
    let has_reason = tail.strip_prefix("--").map(|r| !r.trim().is_empty()).unwrap_or(false);
    Some((rules, has_reason))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Substring match with identifier boundaries on both ends (`:` and `.`
/// inside the needle are fine, so `f64::max` matches as one token).
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1] as char);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end] as char);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// A `[` directly preceded by an identifier character, `)`, or `]` is an
/// index expression (`buf[0]`, `row[..n]`, `f()[i]`). Attributes (`#[`),
/// macros (`vec![`), slice patterns, and array types are all preceded by
/// other characters and do not match.
fn find_bare_index(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'[' && i > 0 {
            let p = bytes[i - 1] as char;
            if is_ident(p) || p == ')' || p == ']' {
                return Some(i);
            }
        }
    }
    None
}

/// `.fold(` whose seed is a float literal or an `f64::`/`f32::` constant —
/// the textual signature of a raw float accumulation.
fn fold_with_float_seed(code: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(".fold(") {
        let after = code[from + pos + ".fold(".len()..].trim_start();
        let after = after.strip_prefix('-').unwrap_or(after);
        let float_literal = after
            .find(|c: char| !c.is_ascii_digit() && c != '_')
            .map(|stop| {
                stop > 0
                    && (after[stop..].starts_with('.')
                        || after[stop..].starts_with("f64")
                        || after[stop..].starts_with("f32"))
            })
            .unwrap_or(false);
        if float_literal || after.starts_with("f64::") || after.starts_with("f32::") {
            return true;
        }
        from += pos + ".fold(".len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str) -> FileCtx {
        FileCtx::from_rel_path(path)
    }

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.id()).collect()
    }

    #[test]
    fn member_derivation() {
        assert_eq!(ctx("crates/core/src/kernels.rs").member, "crates/core");
        assert!(ctx("crates/core/src/kernels.rs").is_kernels);
        assert_eq!(ctx("crates/compat/rand/src/lib.rs").member, "crates/compat/rand");
        assert_eq!(ctx("src/engine.rs").member, ".");
        assert!(ctx("crates/bench/src/bin/experiments.rs").is_crate_root);
        assert!(!ctx("crates/core/src/scores.rs").is_crate_root);
    }

    #[test]
    fn d001_fires_and_waives() {
        let c = ctx("crates/algos/src/x.rs");
        let f = lint_source(&c, "fn a(x: f64, y: f64) { x.partial_cmp(&y); }\n");
        assert_eq!(ids(&f), ["D001"]);
        let f = lint_source(
            &c,
            "// fam-lint: allow(D001) -- delegates to the total_cmp Ord impl\nfn a(x: f64, y: f64) { x.partial_cmp(&y); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d001_exempt_in_kernels_and_tests() {
        let f = lint_source(&ctx("crates/core/src/kernels.rs"), "let m = f64::max(a, b);\n");
        assert!(f.is_empty());
        let f = lint_source(
            &ctx("crates/core/src/x.rs"),
            "#[cfg(test)]\nmod tests {\n    fn t() { let m = f64::max(a, b); }\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn waiver_without_reason_is_w001_and_does_not_suppress() {
        let c = ctx("crates/algos/src/x.rs");
        let f = lint_source(&c, "x.partial_cmp(&y); // fam-lint: allow(D001)\n");
        let mut got = ids(&f);
        got.sort_unstable();
        assert_eq!(got, ["D001", "W001"]);
    }

    #[test]
    fn stale_waiver_is_w002() {
        let c = ctx("crates/algos/src/x.rs");
        let f = lint_source(&c, "// fam-lint: allow(D001) -- nothing here\nlet a = 1;\n");
        assert_eq!(ids(&f), ["W002"]);
    }

    #[test]
    fn unknown_rule_in_waiver_is_w001() {
        let c = ctx("crates/algos/src/x.rs");
        let f = lint_source(&c, "// fam-lint: allow(Z999) -- ???\nlet a = 1;\n");
        assert_eq!(ids(&f), ["W001"]);
    }

    #[test]
    fn multi_rule_waiver_covers_both_findings_on_a_line() {
        let c = ctx("crates/core/src/x.rs");
        let src = "// fam-lint: allow(D001, K001) -- exact max fold, pinned by tests\nlet m = xs.iter().fold(f64::NEG_INFINITY, f64::max);\n";
        assert!(lint_source(&c, src).is_empty());
    }

    #[test]
    fn d003_allowlist() {
        let src = "let t = Instant::now();\n";
        assert_eq!(ids(&lint_source(&ctx("crates/core/src/x.rs"), src)), ["D003"]);
        assert!(lint_source(&ctx("crates/serve/src/server.rs"), src).is_empty());
        assert!(lint_source(&ctx("crates/bench/src/workloads.rs"), src).is_empty());
        assert!(lint_source(&ctx("crates/compat/criterion/src/timing.rs"), src).is_empty());
    }

    #[test]
    fn p001_bare_index_heuristic() {
        let c = ctx("crates/serve/src/http.rs");
        assert_eq!(ids(&lint_source(&c, "let x = parts[1];\n")), ["P001"]);
        assert_eq!(ids(&lint_source(&c, "let x = &buf[..n];\n")), ["P001"]);
        assert!(lint_source(&c, "#[derive(Clone)]\nstruct S;\n").is_empty());
        assert!(lint_source(&c, "let v = vec![1, 2];\n").is_empty());
        assert!(lint_source(&c, "fn f(x: [u8; 4]) {}\n").is_empty());
        assert!(lint_source(&c, "let [a, b] = pair;\n").is_empty());
    }

    #[test]
    fn k001_scope_and_patterns() {
        let core = ctx("crates/core/src/x.rs");
        assert_eq!(ids(&lint_source(&core, "let s = xs.iter().sum::<f64>();\n")), ["K001"]);
        assert_eq!(ids(&lint_source(&core, "let s = xs.fold(0.0f64, |a, b| a + b);\n")), ["K001"]);
        assert_eq!(ids(&lint_source(&core, "let y = a.mul_add(b, c);\n")), ["K001"]);
        assert!(lint_source(&core, "let s = xs.fold(0usize, |a, b| a + b);\n").is_empty());
        // Outside the numeric crates the kernel-shape rule does not apply.
        assert!(lint_source(&ctx("crates/data/src/x.rs"), "xs.iter().sum::<f64>();\n").is_empty());
    }

    #[test]
    fn u001_crate_root() {
        let c = ctx("crates/data/src/lib.rs");
        assert_eq!(ids(&lint_source(&c, "pub mod csv;\n")), ["U001"]);
        assert!(lint_source(&c, "#![forbid(unsafe_code)]\npub mod csv;\n").is_empty());
        // Non-root files are not checked.
        assert!(lint_source(&ctx("crates/data/src/csv.rs"), "pub fn parse() {}\n").is_empty());
    }

    #[test]
    fn t001_scope_and_waiver() {
        let src = "let h = std::thread::spawn(|| work());\n";
        assert_eq!(ids(&lint_source(&ctx("crates/cli/src/commands.rs"), src)), ["T001"]);
        assert_eq!(
            ids(&lint_source(&ctx("crates/algos/src/x.rs"), "std::thread::scope(|s| {});\n")),
            ["T001"]
        );
        assert_eq!(
            ids(&lint_source(&ctx("crates/core/src/x.rs"), "std::thread::Builder::new();\n")),
            ["T001"]
        );
        // Sanctioned spawn sites: the pool module tree and the serve acceptor.
        assert!(lint_source(&ctx("crates/core/src/par.rs"), src).is_empty());
        assert!(lint_source(&ctx("crates/core/src/par/pool.rs"), src).is_empty());
        assert!(lint_source(&ctx("crates/serve/src/server.rs"), src).is_empty());
        // Waivable like any other rule.
        let waived = "// fam-lint: allow(T001) -- joined before any solve starts\nlet h = std::thread::spawn(|| work());\n";
        assert!(lint_source(&ctx("crates/cli/src/commands.rs"), waived).is_empty());
    }

    #[test]
    fn standalone_waiver_targets_next_code_line() {
        let c = ctx("crates/serve/src/http.rs");
        let src = "// fam-lint: allow(P001) -- length checked two lines up\n\nlet x = parts[1];\n";
        assert!(lint_source(&c, src).is_empty(), "blank line between waiver and code is fine");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let c = ctx("crates/core/src/x.rs");
        let src = "// partial_cmp is bad\nlet s = \"f64::max\";\n";
        assert!(lint_source(&c, src).is_empty());
    }
}
