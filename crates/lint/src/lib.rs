#![forbid(unsafe_code)]
//! `fam-lint` — a dependency-free invariant linter for this workspace.
//!
//! Generic clippy cannot express the contracts this repo actually relies
//! on: bit-identical serial/parallel/mirrored runs (`total_cmp`
//! everywhere, ordered reductions), panic-freedom on `fam-serve` request
//! paths, and the rule that the floating-point shape of every hot pass is
//! single-sourced in `fam_core::kernels`. This crate turns those from
//! review-time prose into a mechanical gate:
//!
//! ```bash
//! cargo run -p fam-lint -- --workspace          # human output, exit 1 on findings
//! cargo run -p fam-lint -- --workspace --json   # machine-readable
//! ```
//!
//! The rule catalog (D001/D002/D003/P001/K001/U001/T001/H001/S001/R001 + waiver
//! rules W001/W002) and the waiver syntax live in `docs/LINTS.md`. There are no
//! dependencies by design: the container is offline (no `syn`/`dylint`),
//! and the linter must stay buildable before anything else in the tree.

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, FileCtx, Finding, Rule};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Result of linting a whole workspace.
#[derive(Debug)]
pub struct Report {
    /// Unwaived findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Discover the source files the invariants cover: `src/` of every
/// workspace member plus the root facade's `src/`. Test and bench
/// *directories* (`tests/`, `benches/`, `examples/`) are exempt by
/// construction, matching the in-file `#[cfg(test)]` exemption.
pub fn discover_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut members = parse_members(&manifest);
    members.push(".".to_string());
    let mut files = Vec::new();
    for member in &members {
        let src = root.join(member).join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Pull the `members = [ … ]` list out of the workspace manifest without
/// a TOML dependency. The list is line-oriented in this repo (rustfmt'd
/// by hand); quoted entries are extracted wherever they sit.
fn parse_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with("members") && t.contains('[') {
            in_members = true;
        }
        if in_members {
            let mut rest = t;
            while let Some(start) = rest.find('"') {
                let Some(len) = rest[start + 1..].find('"') else { break };
                members.push(rest[start + 1..start + 1 + len].to_string());
                rest = &rest[start + 1 + len + 1..];
            }
            if t.ends_with(']') {
                break;
            }
        }
    }
    members
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one on-disk file, deriving its rule context from the path
/// relative to `root`.
pub fn lint_file(root: &Path, path: &Path) -> io::Result<Vec<Finding>> {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let rel = rel.to_string_lossy().replace('\\', "/");
    let source = fs::read_to_string(path)?;
    Ok(lint_source(&FileCtx::from_rel_path(&rel), &source))
}

/// Lint every covered file under the workspace at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = discover_files(root)?;
    let mut findings = Vec::new();
    for file in &files {
        findings.extend(lint_file(root, file)?);
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(Report { findings, files_scanned: files.len() })
}

/// Render a report as JSON (hand-rolled — the crate is dependency-free).
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\"files_scanned\":");
    out.push_str(&report.files_scanned.to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":\"");
        out.push_str(f.rule.id());
        out.push_str("\",\"path\":");
        json_string(&f.path, &mut out);
        out.push_str(",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"message\":");
        json_string(&f.message, &mut out);
        out.push_str(",\"snippet\":");
        json_string(&f.snippet, &mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_parsing_from_this_workspace_shape() {
        let manifest =
            "[workspace]\nmembers = [\n    \"crates/algos\",\n    \"crates/compat/rand\",\n]\n";
        assert_eq!(parse_members(manifest), ["crates/algos", "crates/compat/rand"]);
    }

    #[test]
    fn json_escapes() {
        let report = Report {
            findings: vec![Finding {
                rule: Rule::D001,
                path: "a\\b.rs".into(),
                line: 3,
                message: "say \"hi\"".into(),
                snippet: "x\ty".into(),
            }],
            files_scanned: 1,
        };
        let json = to_json(&report);
        assert!(json.contains("\"a\\\\b.rs\""));
        assert!(json.contains("\\\"hi\\\""));
        assert!(json.contains("x\\ty"));
        assert!(json.contains("\"files_scanned\":1"));
    }
}
