//! Span recording for the traced run.
//!
//! The spans are taken from outside: the harness times its own calls into
//! each layer's public functions. Everything is kept in memory and written
//! once, when the run ends. One generator thread records, so a plain
//! `&mut` recorder is enough.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    /// The operation (pipeline run, session, query) this span belongs to.
    pub op: usize,
    pub parent: Option<SpanId>,
    /// `<layer>.<call>`.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// `(op, name, value)` counts taken at the same boundaries.
    counts: Vec<(usize, String, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, op: usize, parent: Option<SpanId>, name: &str) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            op,
            parent,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Time one call as a span.
    pub fn span<T>(
        &mut self,
        op: usize,
        parent: Option<SpanId>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, parent, name);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span whose bounds something else measured (a scheduler
    /// handle's queued/running split, a job's reported training time).
    pub fn record(
        &mut self,
        op: usize,
        parent: Option<SpanId>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            op,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    pub fn count(&mut self, op: usize, name: &str, value: f64) {
        self.counts.push((op, name.to_string(), value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span with this name, in op order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Median duration in seconds of the spans with this name (0 when the
    /// workload never made the call).
    pub fn p50(&self, name: &str) -> f64 {
        stats::median(&self.durations(name))
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns).saturating_sub(covered)
    }

    /// One JSON object per line: spans first, then counts.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("op", Json::from(s.op)),
                ("span", Json::from(id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::str(s.name.clone())),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("self_ns", Json::from(self.self_ns(id))),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        for (op, name, value) in &self.counts {
            let line = Json::obj([
                ("op", Json::from(*op)),
                ("count", Json::str(name.clone())),
                ("value", Json::Num(*value)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        let root = t.record(0, None, "core.op", at(0), at(100));
        // Two overlapping children (10..40, 30..60) cover 50 ms; one
        // child sticks out past the parent and is clipped (90..120).
        t.record(0, Some(root), "a.x", at(10), at(40));
        t.record(0, Some(root), "a.y", at(30), at(60));
        t.record(0, Some(root), "a.z", at(90), at(120));
        // A grandchild does not count against the root.
        t.record(0, Some(1), "b.w", at(10), at(20));
        assert_eq!(t.self_ns(root), 40_000_000);
        assert_eq!(t.self_ns(1), 20_000_000);
        assert_eq!(t.durations("a.x"), vec![0.03]);
    }

    #[test]
    fn p50_is_zero_for_calls_never_made() {
        let t = Tracer::new();
        assert_eq!(t.p50("dfs.write"), 0.0);
    }
}
