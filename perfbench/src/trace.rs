//! In-memory span recording for the traced run.
//!
//! Each load thread owns a [`Tracer`]; every call the benchmark makes
//! into a layer's public function is wrapped in a span (name, start,
//! end, parent span, request id). Spans stay in memory until the run
//! ends, then the threads' buffers are merged and written out. A
//! disabled tracer records nothing and reads no clock.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.identify`.
    pub name: &'static str,
    /// Request the span belongs to (shared by a request's spans).
    pub req: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (0 while open).
    pub end: u64,
    /// Index of the parent span in the same buffer.
    pub parent: Option<usize>,
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer sharing `epoch` with the run's other threads.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            req,
            start,
            end: 0,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            let now = self.now();
            self.spans[i].end = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread buffers, re-basing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buf in buffers {
        let base = out.len();
        out.extend(buf.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (see [`stats::self_time`]).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| stats::self_time(s.start, s.end, kids))
        .collect()
}

/// Per-name summary: span count, median duration and median self time
/// (µs).
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    /// Spans recorded under the name.
    pub count: usize,
    /// Median span duration, µs.
    pub median_us: f64,
    /// Median self time, µs.
    pub self_median_us: f64,
}

/// Summarizes spans by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.end.saturating_sub(s.start) as f64 / 1e3);
        entry.1.push(own as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (dur, own))| {
            let dur = stats::sorted(dur);
            let own = stats::sorted(own);
            (
                name,
                NameSummary {
                    count: dur.len(),
                    median_us: stats::median(&dur).unwrap_or(0.0),
                    self_median_us: stats::median(&own).unwrap_or(0.0),
                },
            )
        })
        .collect()
}

/// Writes spans as CSV (`name,req,start_ns,end_ns,parent,self_ns`).
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,req,start_ns,end_ns,parent,self_ns")?;
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.name, s.req, s.start, s.end, parent, own
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            req: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.begin("x", 1, None);
        t.end(id);
        assert_eq!(t.span("y", 1, None, || 5), 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_parents() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.begin("login", 3, None);
        t.span("net.identify", 3, root, || ());
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn self_times_never_double_count() {
        let spans = vec![
            span("login", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 90, Some(0)),
            span("a.inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 50, 10]);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("r", 0, 10, None), span("c", 1, 2, Some(0))];
        let b = vec![span("r", 0, 10, None), span("c", 1, 2, Some(0))];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, Some(2));
        let sum = summarize(&m);
        assert_eq!(sum["r"].count, 2);
        assert_eq!(sum["r"].self_median_us, 0.009);
    }
}
