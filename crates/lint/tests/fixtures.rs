//! Fixture tests: every rule ID has a failing fixture and a passing one,
//! and the waiver machinery (reasonless, stale, clean) behaves as
//! documented in `docs/LINTS.md`.
#![forbid(unsafe_code)]

use fam_lint::{lint_source, FileCtx, Rule};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Rule IDs reported for `name` linted as-if it lived at `ctx_path`.
fn ids(ctx_path: &str, name: &str) -> Vec<&'static str> {
    let ctx = FileCtx::from_rel_path(ctx_path);
    lint_source(&ctx, &fixture(name)).into_iter().map(|f| f.rule.id()).collect()
}

#[test]
fn d001_bad_fixture_fails_and_good_passes() {
    let bad = ids("crates/algos/src/sample.rs", "d001_bad.rs");
    assert!(bad.contains(&"D001"), "expected D001 in {bad:?}");
    assert_eq!(ids("crates/algos/src/sample.rs", "d001_good.rs"), Vec::<&str>::new());
}

#[test]
fn d001_is_exempt_inside_kernels() {
    assert!(!ids("crates/core/src/kernels.rs", "d001_bad.rs").contains(&"D001"));
}

#[test]
fn d002_bad_fixture_fails_and_good_passes() {
    let bad = ids("crates/core/src/sample.rs", "d002_bad.rs");
    assert!(bad.contains(&"D002"), "expected D002 in {bad:?}");
    assert_eq!(ids("crates/core/src/sample.rs", "d002_good.rs"), Vec::<&str>::new());
}

#[test]
fn d002_does_not_apply_outside_numeric_crates() {
    assert!(!ids("crates/serve/src/sample.rs", "d002_bad.rs").contains(&"D002"));
}

#[test]
fn d003_bad_fixture_fails_and_good_passes() {
    let bad = ids("crates/core/src/sample.rs", "d003_bad.rs");
    assert!(bad.contains(&"D003"), "expected D003 in {bad:?}");
    assert_eq!(ids("crates/core/src/sample.rs", "d003_good.rs"), Vec::<&str>::new());
}

#[test]
fn d003_allowlists_the_serving_layer() {
    assert!(!ids("crates/serve/src/sample.rs", "d003_bad.rs").contains(&"D003"));
}

#[test]
fn p001_bad_fixture_fails_and_good_passes() {
    let bad = ids("crates/serve/src/sample.rs", "p001_bad.rs");
    assert!(bad.contains(&"P001"), "expected P001 in {bad:?}");
    // The bad fixture trips all three shapes: bare index, `.unwrap()`, `panic!`.
    assert!(bad.iter().filter(|id| **id == "P001").count() >= 3, "{bad:?}");
    assert_eq!(ids("crates/serve/src/sample.rs", "p001_good.rs"), Vec::<&str>::new());
}

#[test]
fn p001_only_applies_to_fam_serve() {
    assert!(!ids("crates/algos/src/sample.rs", "p001_bad.rs").contains(&"P001"));
}

#[test]
fn k001_bad_fixture_fails_and_good_passes() {
    let bad = ids("crates/core/src/sample.rs", "k001_bad.rs");
    assert!(bad.contains(&"K001"), "expected K001 in {bad:?}");
    assert_eq!(ids("crates/core/src/sample.rs", "k001_good.rs"), Vec::<&str>::new());
}

#[test]
fn k001_is_exempt_inside_kernels() {
    assert!(!ids("crates/core/src/kernels.rs", "k001_bad.rs").contains(&"K001"));
}

#[test]
fn u001_bad_fixture_fails_and_good_passes() {
    let bad = ids("crates/demo/src/lib.rs", "u001_bad.rs");
    assert!(bad.contains(&"U001"), "expected U001 in {bad:?}");
    assert_eq!(ids("crates/demo/src/lib.rs", "u001_good.rs"), Vec::<&str>::new());
}

#[test]
fn u001_only_checks_crate_roots() {
    assert!(!ids("crates/demo/src/helper.rs", "u001_bad.rs").contains(&"U001"));
}

#[test]
fn t001_bad_fixture_fails_and_good_passes() {
    let bad = ids("crates/cli/src/sample.rs", "t001_bad.rs");
    assert!(bad.contains(&"T001"), "expected T001 in {bad:?}");
    // Both spawn shapes trip it: `thread::spawn` and `thread::scope`.
    assert!(bad.iter().filter(|id| **id == "T001").count() >= 2, "{bad:?}");
    assert_eq!(ids("crates/cli/src/sample.rs", "t001_good.rs"), Vec::<&str>::new());
}

#[test]
fn t001_allows_the_pool_and_the_serve_acceptor() {
    assert!(!ids("crates/core/src/par/pool.rs", "t001_bad.rs").contains(&"T001"));
    assert!(!ids("crates/serve/src/server.rs", "t001_bad.rs").contains(&"T001"));
}

#[test]
fn h001_bad_fixture_fails_and_good_passes() {
    let bad = ids("crates/algos/src/sample.rs", "h001_bad.rs");
    assert!(bad.contains(&"H001"), "expected H001 in {bad:?}");
    // Both the import and the typed binding trip it.
    assert!(bad.iter().filter(|id| **id == "H001").count() >= 2, "{bad:?}");
    assert_eq!(ids("crates/algos/src/sample.rs", "h001_good.rs"), Vec::<&str>::new());
}

#[test]
fn h001_allows_lazy_rs_and_other_crates() {
    assert!(!ids("crates/algos/src/lazy.rs", "h001_bad.rs").contains(&"H001"));
    assert!(!ids("crates/core/src/sample.rs", "h001_bad.rs").contains(&"H001"));
}

#[test]
fn s001_bad_fixture_fails_and_good_passes() {
    let bad = ids("src/engine.rs", "s001_bad.rs");
    // The two path calls and the two `Reduction` method calls.
    assert_eq!(bad.iter().filter(|id| **id == "S001").count(), 4, "{bad:?}");
    assert_eq!(ids("crates/cli/src/commands.rs", "s001_bad.rs"), bad);
    assert_eq!(ids("src/engine.rs", "s001_good.rs"), Vec::<&str>::new());
}

#[test]
fn s001_applies_to_the_facade_and_the_cli_only() {
    // fam-core and fam-reduce own the constructors; tests, benches and
    // the rest of the workspace build references freely.
    for path in [
        "crates/core/src/backing.rs",
        "crates/reduce/src/reduction.rs",
        "crates/serve/src/service.rs",
    ] {
        assert!(!ids(path, "s001_bad.rs").contains(&"S001"), "{path}");
    }
}

#[test]
fn reasonless_waiver_is_w001_and_does_not_suppress() {
    let got = ids("crates/algos/src/sample.rs", "waiver_reasonless.rs");
    assert!(got.contains(&"W001"), "expected W001 in {got:?}");
    assert!(got.contains(&"D001"), "reasonless waiver must not suppress: {got:?}");
}

#[test]
fn stale_waiver_is_w002() {
    let got = ids("crates/algos/src/sample.rs", "waiver_stale.rs");
    assert_eq!(got, vec!["W002"], "stale waiver must be the only finding");
}

#[test]
fn reasoned_waiver_suppresses_exactly_its_finding() {
    assert_eq!(ids("crates/algos/src/sample.rs", "waiver_good.rs"), Vec::<&str>::new());
}

#[test]
fn cfg_test_scopes_are_exempt_from_every_rule() {
    assert_eq!(ids("crates/core/src/sample.rs", "test_exempt.rs"), Vec::<&str>::new());
}

#[test]
fn rule_ids_round_trip() {
    for id in
        ["D001", "D002", "D003", "P001", "K001", "U001", "T001", "H001", "S001", "W001", "W002"]
    {
        assert_eq!(Rule::from_id(id).map(Rule::id), Some(id), "{id}");
    }
    assert_eq!(Rule::from_id("Z999"), None);
}
