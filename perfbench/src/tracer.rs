//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

/// A span recorder. Spans nest: a span begun while another is open
/// records it as its parent, and a span's self time is its duration minus
/// the time its children cover.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named after the layer call it wraps.
    pub fn begin(&mut self, name: impl Into<String>) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            child_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        let dur = end - span.start_ns;
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
        }
        dur as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its value and duration.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let r = f();
        let secs = self.end(id);
        (r, secs)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line:
    /// `{"id","parent","name","start_ns","end_ns","self_ns"}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns.saturating_sub(s.start_ns);
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                minijson::Json::from(s.name.as_str()).dump(),
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(s.child_ns)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let outer_dur = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(t.spans[0].child_ns, t.spans[1].end_ns - t.spans[1].start_ns);
        assert!(t.spans[0].child_ns <= outer_dur);
    }
}
