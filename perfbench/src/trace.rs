//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span that was open when it
//! began (its parent) and a request id shared by every span of one
//! request or pass. Spans stay in memory while the workload runs and
//! are written out once at exit. With tracing off, [`Trace::span`]
//! only calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`. Spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of each span: its duration minus the part of it that
    /// its children cover (children never overlap each other here,
    /// since spans are opened on one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Total self time per span name, in seconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            *totals.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        totals
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (span, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{own}}}",
                span.name, span.start_ns, span.end_ns, span.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Trace::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let own = t.self_ns();
        assert_eq!(
            own[0] + (t.spans[1].end_ns - t.spans[1].start_ns),
            t.spans[0].end_ns - t.spans[0].start_ns
        );
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert_eq!(t.len(), 0);
    }
}
