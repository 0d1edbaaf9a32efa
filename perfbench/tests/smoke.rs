//! Runs every workload `BENCHMARK.json` registers at smoke scale,
//! untraced and traced, and checks the result line against the metrics
//! it registers.

use std::path::PathBuf;
use std::process::Command;

/// The `name`s listed in one top-level array of `BENCHMARK.json`.
fn registered(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let open = start + text[start..].find('[').expect("array");
    let close = open + text[open..].find(']').expect("array end");
    text[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| {
            let value = chunk.split('"').nth(1).expect("quoted name");
            value.to_string()
        })
        .collect()
}

/// Runs the benchmark; returns its exit status and last stdout line.
fn run(workload: &str, trace: u8, out: &PathBuf) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            &trace.to_string(),
        ])
        .args(["--scale", "smoke", "--out"])
        .arg(out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let last = lines.next().unwrap_or_default().to_string();
    let report = lines.next().unwrap_or_default().to_string();
    (output.status.success(), last, report)
}

fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\":").expect("metrics key")..];
    metrics
        .split("\"value\"")
        .filter_map(|chunk| chunk.rfind("\":{").map(|end| &chunk[..end]))
        .filter_map(|head| head.rfind('"').map(|start| head[start + 1..].to_string()))
        .collect()
}

#[test]
fn every_workload_reports_its_registered_metrics_and_checks_pass() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let mut e2e = registered("end_to_end");
    let mut layers = registered("per_layer");
    e2e.sort();
    layers.sort();
    assert!(e2e.contains(&"setup_s".to_string()));
    let workloads = registered("workloads");
    assert!(workloads.len() >= 2, "{workloads:?}");
    for workload in &workloads {
        for (trace, expected) in [(0u8, &e2e), (1u8, &layers)] {
            let (ok, result, report) = run(workload, trace, &out);
            assert!(ok, "{workload} trace={trace} failed: {result}\n{report}");
            assert!(result.starts_with("{\"correct\":true,"), "{workload} trace={trace}: {result}");
            assert!(result.contains("\"failed\":0,"), "{workload} trace={trace}: {result}");
            assert!(
                !result.contains("null"),
                "{workload} trace={trace} has a missing value: {result}"
            );
            let mut names = metric_names(&result);
            names.sort();
            assert_eq!(&names, expected, "{workload} trace={trace}");
            assert!(
                report.contains("\"nproc\":") && report.contains("\"host.spin_ms\":"),
                "{report}"
            );
        }
        let spans = out.join(format!("spans-{workload}-7.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("traced run writes its spans");
        assert!(text.lines().count() > 10, "{}", spans.display());
        assert!(text.lines().all(|l| l.contains("\"op\":") && l.contains("\"self_us\":")));
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
