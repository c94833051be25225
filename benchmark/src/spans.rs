//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSONL when the run ends.

use std::time::Instant;

use crate::json;

/// A span handle; `None` when tracing is off, so callers never branch.
pub type SpanId = Option<usize>;

/// One timed interval: name, start, end (ns since the tracer started),
/// its id and the id of the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans when enabled; every method is a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        self.record(name, parent, Instant::now(), Instant::now())
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Records an interval measured elsewhere (on a pool worker, say).
    pub fn record(&mut self, name: &str, parent: SpanId, start: Instant, end: Instant) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One JSON object per line: `id`, `parent`, `name`, `start_ns`, `end_ns`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id,
            json::quote(&s.name),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("rep", None);
        assert_eq!(id, None);
        t.close(id);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(true);
        let parent = t.open("rep", None);
        let child = t.record("job", parent, Instant::now(), Instant::now());
        t.close(parent);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(child, Some(1));
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            for key in ["id", "parent", "name", "start_ns", "end_ns"] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }
}
