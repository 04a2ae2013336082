//! In-memory spans around calls into the program's layers.
//!
//! A span records its name, start, end, parent span and the point or
//! submission it belongs to. Spans stay in memory while the benchmark
//! runs and are written out once at the end. A disabled tracer records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as a child's parent.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `workloads.generate`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`0` while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Point or submission id (`u64::MAX` when the span has none).
    pub id: u64,
}

/// Aggregated self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// A span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Marker for "no point or submission".
pub const NO_ID: u64 = u64::MAX;

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id (`None` when tracing is off) to pass to its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let idx = {
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans.push(Span { name, start: self.now(), end: 0, parent, id });
            spans.len() - 1
        };
        let out = f(Some(idx));
        let end = self.now();
        self.spans.lock().expect("span buffer poisoned")[idx].end = end;
        out
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Any error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let id = if s.id == NO_ID { "null".to_string() } else { s.id.to_string() };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{id}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the union of
/// its children's intervals (clipped to the span), summed by name.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let dur = s.end.saturating_sub(s.start);
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, id: NO_ID }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a", 30, 60, Some(0)), // overlaps the first child (another thread)
            span("b", 70, 80, Some(0)),
            span("c", 72, 75, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - 50 - 10);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].self_ns, 60);
        assert_eq!(t["b"].self_ns, 7);
        assert_eq!(t["c"].self_ns, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let v = tr.span("x", None, NO_ID, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        let on = Tracer::new(true);
        on.span("outer", None, 1, |p| on.span("inner", p, 1, |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
