//! The traced mode's span recorder. Spans are taken from outside the
//! program, around the public calls of each layer: name, start, end,
//! parent, and an op id shared by every span of one operation. They stay
//! in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::probe::{num, object, string};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The workload whose seeded ops made this call.
    pub workload: &'static str,
    /// Shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The layer call, named after its module.
    pub name: String,
    /// Microseconds since the recorder's epoch.
    pub start_us: f64,
    /// Microseconds since the recorder's epoch.
    pub end_us: f64,
    /// Work counters read at the same boundary, each with its base
    /// stated in its name.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall time of the call in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    /// The workload currently replaying; stamped on new spans.
    pub workload: &'static str,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), workload: "", spans: Vec::new(), next_op: 0 }
    }

    /// A fresh op id.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span; `f` receives the recorder and the new
    /// span's index (to parent nested spans on it).
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let id = self.spans.len();
        // Store the span before reading the clock, so its own allocation
        // is not timed.
        self.spans.push(Span {
            workload: self.workload,
            op,
            parent,
            name: name.to_string(),
            start_us: 0.0,
            end_us: 0.0,
            counters: Vec::new(),
        });
        let start_us = self.now_us();
        let out = f(self, id);
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        (span.start_us, span.end_us) = (start_us, end_us);
        out
    }

    /// Records an already-timed interval (e.g. one measured on another
    /// thread) as a span.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            workload: self.workload,
            op,
            parent,
            name: name.to_string(),
            start_us: at(start),
            end_us: at(end),
            counters: Vec::new(),
        });
        id
    }

    /// Attaches a work counter to a span.
    pub fn count(&mut self, id: usize, name: &'static str, value: f64) {
        self.spans[id].counters.push((name, value));
    }

    /// All spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Child span indices of every span.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children are
    /// merged, so parallel children are not counted twice).
    pub fn self_times(&self) -> Vec<f64> {
        let kids = self.children();
        self.spans
            .iter()
            .zip(&kids)
            .map(|(s, kids)| {
                let mut cover: Vec<(f64, f64)> = kids
                    .iter()
                    .map(|&c| {
                        (self.spans[c].start_us.max(s.start_us), self.spans[c].end_us.min(s.end_us))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                cover.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in cover {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_us() - covered
            })
            .collect()
    }

    /// Indices of the spans named `name`, preferring those `workload`
    /// made; falls back to any workload's when it made none.
    pub fn named(&self, workload: &str, name: &str) -> Vec<usize> {
        let pick = |own: bool| -> Vec<usize> {
            (0..self.spans.len())
                .filter(|&i| {
                    self.spans[i].name == name && (!own || self.spans[i].workload == workload)
                })
                .collect()
        };
        let own = pick(true);
        if own.is_empty() {
            pick(false)
        } else {
            own
        }
    }

    /// For each kind of root span (no parent) of `workload` that has
    /// children: the share of each one's duration that no child span
    /// covers — what the layer spans leave unaccounted.
    pub fn unaccounted(&self, workload: &str) -> BTreeMap<String, Vec<f64>> {
        let kids = self.children();
        let selfs = self.self_times();
        let mut shares: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none()
                && s.workload == workload
                && !kids[i].is_empty()
                && s.dur_us() > 0.0
            {
                shares.entry(s.name.clone()).or_default().push(selfs[i] / s.dur_us());
            }
        }
        shares
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let counters: Vec<(&str, String)> =
                s.counters.iter().map(|(k, v)| (*k, num(*v))).collect();
            let line = object(&[
                ("id", i.to_string()),
                ("op", s.op.to_string()),
                ("parent", s.parent.map_or("null".to_string(), |p| p.to_string())),
                ("workload", string(s.workload)),
                ("name", string(&s.name)),
                ("start_us", num(s.start_us)),
                ("end_us", num(s.end_us)),
                ("self_us", num(selfs[i])),
                ("counters", object(&counters)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let mut t = Tracer::new();
        let op = t.op();
        let base = Instant::now();
        let at = |us: u64| base + std::time::Duration::from_micros(us);
        let root = t.record(op, None, "root", at(0), at(100));
        t.record(op, Some(root), "a", at(10), at(40));
        t.record(op, Some(root), "b", at(30), at(50));
        t.record(op, Some(root), "c", at(90), at(120));
        // Children cover 10..50 and 90..100: 50 of 100 µs.
        assert!((t.self_times()[root] - 50.0).abs() < 1e-6);
        let un = t.unaccounted("");
        assert_eq!(un.len(), 1);
        assert!((un["root"][0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_share_the_op_id() {
        let mut t = Tracer::new();
        t.workload = "w";
        let op = t.op();
        t.span(op, None, "outer", |t, id| t.span(op, Some(id), "inner", |_, _| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.op == op && s.workload == "w"));
        assert_eq!(t.named("other", "inner"), vec![1]);
    }
}
