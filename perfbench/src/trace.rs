//! In-memory span and counter recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span has a name, start and end (seconds since the
//! recorder's origin) and the span that was open when it began. The
//! recorder is summarised into per-layer metrics when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span opened by [`Trace::begin`], closed by [`Trace::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Spans and counters of one thread of a traced run.
#[derive(Debug)]
pub(crate) struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub(crate) fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span nested in the innermost open one.
    pub(crate) fn begin(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub(crate) fn end(&mut self, id: SpanId) {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub(crate) fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Add `value` to counter `name`.
    pub(crate) fn add(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_string()).or_default() += value;
    }

    pub(crate) fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds spent in spans named `name`.
    pub(crate) fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end - s.start))
    }

    /// Number of spans named `name`.
    pub(crate) fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Seconds of spans named `name` that none of their direct child
    /// spans covers. A span without children counts as covered.
    pub(crate) fn self_time(&self, name: &str) -> f64 {
        let mut children = vec![None::<f64>; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children[p].get_or_insert(0.0) += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |acc, (s, c)| {
                acc + c.map_or(0.0, |c| (s.end - s.start) - c)
            })
    }

    /// Fold another recorder's spans and counters into this one (the
    /// serve workload keeps one recorder per labeler thread).
    pub(crate) fn merge(&mut self, other: Trace) {
        let offset = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + offset);
            self.spans.push(s);
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_total_and_self_time() {
        let mut t = Trace::new();
        let outer = t.begin("outer");
        let a = t.begin("leaf");
        t.end(a);
        let mid = t.begin("mid");
        let inner = t.begin("leaf");
        t.end(inner);
        t.end(mid);
        t.end(outer);
        assert_eq!(t.count("leaf"), 2);
        let expected = t.total("outer") - t.total("mid") - (t.spans[a.0].end - t.spans[a.0].start);
        assert!((t.self_time("outer") - expected).abs() < 1e-12);
        assert_eq!(t.self_time("leaf"), 0.0);
        t.add("n", 2.0);
        t.add("n", 3.0);
        assert_eq!(t.counter("n"), 5.0);
    }
}
