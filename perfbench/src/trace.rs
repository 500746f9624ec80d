//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and a parent, and carries the id of
//! the op it belongs to. Spans are kept in memory while the run measures
//! and written out as JSON lines when it ends, so recording one costs two
//! clock reads and a push. Spans whose name starts with `probe.` time side
//! measurements taken between ops (a standalone lex, a no-op walk, a lint
//! pass); they are not part of the op.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans and per-op counters.
pub struct Tracer {
    label: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    /// A tracer whose spans are written out tagged with `label`.
    pub fn new(label: &'static str) -> Tracer {
        Tracer {
            label,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: Vec::new(),
        }
    }

    /// Starts a new op; later spans and counters carry its id.
    pub fn begin_op(&mut self) {
        self.open.clear();
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Records a counter value for the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.push((self.op, name, value));
    }

    /// Total milliseconds per op spent in spans named `name`, for every op
    /// that recorded at least one.
    pub fn ms_per_op(&self, name: &str) -> Vec<f64> {
        let mut per: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per.entry(s.op).or_default() += s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6;
        }
        per.into_values().collect()
    }

    /// Net milliseconds of every span named `op`: its duration minus that
    /// of its `probe.*` children.
    pub fn op_ms(&self) -> Vec<f64> {
        let mut net: BTreeMap<usize, i64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns.saturating_sub(s.start_ns) as i64;
            if s.name == "op" {
                *net.entry(i).or_default() += d;
            } else if s.name.starts_with("probe.") {
                if let Some(p) = s.parent.filter(|&p| self.spans[p].name == "op") {
                    *net.entry(p).or_default() -= d;
                }
            }
        }
        net.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Values of counter `name`, one per op that recorded it.
    pub fn counter(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.1 == name)
            .map(|c| c.2)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"tracer\":\"{}\",\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.label, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
