//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span starts just
//! before a public call and ends just after it returns.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde::Value;

use crate::stats::{str_value, to_json};

/// One span: a layer name, its interval, the span that encloses it, and
/// the epoch or step it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// The spans of one replica (one re-driven loop), in start order.
#[derive(Debug)]
pub struct Tracer {
    pub replica: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(replica: &'static str) -> Self {
        Tracer {
            replica,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: Option<u64>) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: Option<u64>, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, id);
        let r = f();
        self.end(s);
        r
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }

    /// Seconds covered by top-level spans: the sum of every span's self
    /// time (its duration minus the part its children cover).
    pub fn covered_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum::<f64>()
            / 1e9
    }
}

/// Writes every span of `tracers` as JSON lines to `path`.
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        // Self time needs each span's children; one pass sums them.
        let mut child_ns = vec![0.0; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        for (i, s) in t.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(Value::Null, |x| Value::Int(i128::from(x)));
            let line = to_json(Value::Map(vec![
                ("replica".into(), str_value(t.replica)),
                ("span".into(), Value::Int(i as i128)),
                ("name".into(), str_value(s.name)),
                ("start_ns".into(), Value::Int(i128::from(s.start_ns))),
                ("end_ns".into(), Value::Int(i128::from(s.end_ns))),
                ("self_ns".into(), Value::Float(s.ns() - child_ns[i])),
                ("parent".into(), opt(s.parent.map(|p| p as u64))),
                ("id".into(), opt(s.id)),
            ]));
            writeln!(out, "{line}")?;
        }
    }
    out.flush()
}
