//! In-memory spans around the benchmark's calls into each layer, plus
//! the order statistics every metric uses.
//!
//! A span has a name (`layer.what`), a start and end on one monotonic
//! clock, the span that caused it, and the id of the op it belongs to
//! (0 for set-up and standalone measurements).  Spans are only appended
//! during a run and written out once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Start, nanoseconds since the process clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the process clock origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Op id (0 outside measured ops).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span recorder.  A disabled recorder records nothing, so untraced
/// set-up code can share the traced code path.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: parent.and_then(|p| p.0),
            op,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span, returning its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        match id.0 {
            Some(i) => {
                let s = &mut self.spans[i];
                s.end_ns = now_ns();
                s.dur_ns()
            }
            None => 0,
        }
    }

    /// Appends another tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.enabled |= other.enabled;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// True for a recording tracer.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Durations (ns) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Per-span self time: its duration minus the part its direct
    /// children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, over spans belonging to ops.
    pub fn op_self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if s.op != 0 {
                *out.entry(s.name).or_insert(0) += own;
            }
        }
        out
    }

    /// Total duration of the op spans (root spans with an op id).
    pub fn op_wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.op != 0 && s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// The per-layer self-time table of the report.
    pub fn self_time_table(&self) -> String {
        let wall = self.op_wall_ns().max(1);
        let mut s = format!(
            "op wall {:.1} ms over {} ops; self time by span:\n",
            wall as f64 / 1e6,
            self.spans
                .iter()
                .filter(|s| s.op != 0 && s.parent.is_none())
                .count()
        );
        for (name, ns) in self.op_self_times() {
            let _ = writeln!(
                s,
                "  {name:28} {:10.1} ms  {:5.1}%",
                ns as f64 / 1e6,
                ns as f64 * 100.0 / wall as f64
            );
        }
        s
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// Median of ascending `v` (0 when empty).
pub fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of ascending `v` (0 when empty).
pub fn percentile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of nanosecond samples, in milliseconds.
pub fn median_ms(ns: &[u64]) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.90), 90.0);
        assert_eq!(percentile_sorted(&[7.0], 0.90), 7.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        };
        let t = Tracer {
            enabled: true,
            spans: vec![
                span("op", 0, 100, None),
                span("a", 10, 40, Some(0)),
                span("b", 40, 90, Some(0)),
            ],
        };
        let own = t.op_self_times();
        assert_eq!(own["op"], 20);
        assert_eq!(own["a"], 30);
        assert_eq!(own["b"], 50);
        assert_eq!(t.op_wall_ns(), 100);
    }
}
