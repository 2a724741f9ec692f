//! In-memory span recorder for the traced run. Spans are recorded by
//! the benchmark around its own calls into each layer (the program under
//! test is not instrumented) and written out as JSONL when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch;
/// `parent` is the index + 1 of the enclosing span (0 for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `ml.gb.fit` or `wire.advise`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Enclosing span (index + 1), 0 for a root.
    pub parent: u32,
    /// Identifier shared by the spans of one request or phase.
    pub trace: u64,
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, trace });
        let id = self.spans.len() as u32;
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.ns(Instant::now());
        out
    }

    /// Record an already-finished span (wire requests, timed by the load
    /// engine), nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, trace: u64) {
        if self.enabled {
            let parent = self.open.last().copied().unwrap_or(0);
            self.spans.push(Span { name, start_ns, end_ns, parent, trace });
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trace\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.trace
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_point_at_their_parent() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| ());
            t.record("wire.advise", 5, 9, 42);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", 0));
        assert_eq!((s[1].name, s[1].parent), ("inner", 1));
        assert_eq!((s[2].parent, s[2].trace, s[2].end_ns), (1, 42, 9));
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", 1, |t| {
            t.record("x", 0, 1, 1);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
