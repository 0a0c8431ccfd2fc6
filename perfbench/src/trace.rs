//! Spans recorded by the benchmark around each call into a layer, kept in
//! memory and written out as Chrome trace JSON when the run ends.
//!
//! A span's self time is its duration minus the time its child spans
//! cover; children of one span never overlap because each thread records
//! its own spans in call order.

use std::collections::BTreeMap;
use std::time::Instant;

use recopack_json::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Name of the layer entry point the span wraps.
    pub name: &'static str,
    /// Recording thread (one per client connection or solver loop).
    pub tid: u64,
    /// The job (instance or request) the span belongs to.
    pub job: u64,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span log for one thread, or several merged.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Trace {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, tid: u64, job: u64) {
        self.enter_at(name, tid, job, Instant::now());
    }

    /// Opens a span that began at `start`, which may lie in the past (an
    /// open-loop request is timed from when it was due).
    pub fn enter_at(&mut self, name: &'static str, tid: u64, job: u64, start: Instant) {
        self.spans.push(Span {
            name,
            tid,
            job,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().map(|&(index, _)| index),
        });
        self.open.push((self.spans.len() - 1, start));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        self.exit_at(Instant::now());
    }

    /// Closes the innermost open span as of `end`.
    pub fn exit_at(&mut self, end: Instant) {
        let (index, started) = self.open.pop().expect("exit matches an enter");
        self.spans[index].dur_ns = end.saturating_duration_since(started).as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, tid: u64, job: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, tid, job);
        let value = f();
        self.exit();
        value
    }

    /// Appends another thread's spans.
    pub fn merge(&mut self, other: Trace) {
        let offset = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span.start_ns += shift;
            span
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.dur_ns);
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// Number of spans and their total duration per span name.
    pub fn calls_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += span.dur_ns;
        }
        totals
    }

    /// The log as a Chrome trace document (`chrome://tracing`, Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|span| {
                Json::Object(vec![
                    ("name".to_string(), Json::String(span.name.to_string())),
                    ("cat".to_string(), Json::String("perfbench".to_string())),
                    ("ph".to_string(), Json::String("X".to_string())),
                    ("ts".to_string(), Json::Number(span.start_ns as f64 / 1e3)),
                    ("dur".to_string(), Json::Number(span.dur_ns as f64 / 1e3)),
                    ("pid".to_string(), Json::Number(1.0)),
                    ("tid".to_string(), Json::Number(span.tid as f64)),
                    (
                        "args".to_string(),
                        Json::Object(vec![("job".to_string(), Json::Number(span.job as f64))]),
                    ),
                ])
            })
            .collect();
        Json::Object(vec![
            ("traceEvents".to_string(), Json::Array(events)),
            (
                "displayTimeUnit".to_string(),
                Json::String("ms".to_string()),
            ),
        ])
        .to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub(name: &'static str, dur_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tid: 0,
            job: 0,
            start_ns: 0,
            dur_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut trace = Trace::new(Instant::now());
        trace.spans = vec![
            stub("job", 100, None),
            stub("bounds", 30, Some(0)),
            stub("search", 50, Some(0)),
            stub("job", 10, None),
        ];
        assert_eq!(trace.self_ns(), vec![20, 30, 50, 10]);
        let by_name = trace.self_by_name();
        assert_eq!(by_name["job"], 30);
        assert_eq!(by_name["search"], 50);
        assert_eq!(trace.calls_by_name()["job"], (2, 110));
    }

    #[test]
    fn nested_spans_record_parents_and_export() {
        let mut trace = Trace::new(Instant::now());
        trace.span("job", 1, 7, || ());
        trace.enter("job", 1, 8);
        let inner = trace.span("heur", 1, 8, || 42);
        trace.exit();
        assert_eq!(inner, 42);
        let parents: Vec<Option<usize>> = trace.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, None, Some(1)]);

        let mut other = Trace::new(Instant::now());
        other.enter("submit", 2, 9);
        other.span("poll", 2, 9, || ());
        other.exit();
        trace.merge(other);
        assert_eq!(trace.spans()[4].parent, Some(3));

        let doc = Json::parse(&trace.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 5);
        assert_eq!(events[2].get("name").and_then(Json::as_str), Some("heur"));
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("X"));
    }
}
