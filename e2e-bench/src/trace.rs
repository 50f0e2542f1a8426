//! In-memory spans of the replay, their self times, and the JSON-lines
//! trace file.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The request index the span belongs to.
    pub req: u64,
    /// The span's id, unique within its request.
    pub span: u32,
    /// The id of the span that caused this one; `None` for the request's root.
    pub parent: Option<u32>,
    /// The layer called, e.g. `engine.symbolic`.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer began.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer began.
    pub end_ns: u64,
}

/// Collects spans in memory; nothing is written until [`write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    req: u64,
    root: u32,
    next: u32,
    /// Spans are kept only while enabled (warm-up requests are replayed
    /// for their effect on the registry, not measured).
    pub enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            req: 0,
            root: 0,
            next: 0,
            enabled: true,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs one request under a root span named `layer`.
    pub fn request<T>(
        &mut self,
        req: u64,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.req = req;
        self.root = 0;
        self.next = 1;
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.push(None, 0, layer, start, end);
        out
    }

    /// Times `f` as a child span of the current request's root.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        let id = self.next;
        self.next += 1;
        self.push(Some(self.root), id, layer, start, end);
        out
    }

    fn push(&mut self, parent: Option<u32>, span: u32, layer: &'static str, start: u64, end: u64) {
        if self.enabled {
            self.spans.push(Span {
                req: self.req,
                span,
                parent,
                layer,
                start_ns: start,
                end_ns: end,
            });
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<(u64, u32), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.req, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&(s.req, s.span)) else {
                return total;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            total - covered
        })
        .collect()
}

/// Writes one JSON object per span: `req`, `span`, `parent`, `layer`,
/// `start_ns` and `end_ns`.
///
/// # Errors
///
/// Any I/O error creating or writing `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"req\":{},\"span\":{},\"parent\":{parent},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.span, s.layer, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 1,
            span,
            parent,
            layer: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_children_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50), // overlaps span 1 for 10 ns
            span(3, Some(2), 25, 45),
            span(4, Some(0), 90, 120), // runs past its parent's end
        ];
        // Root: 100 − [10, 50) − [90, 100) = 50.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 30]);
    }

    #[test]
    fn spans_of_other_requests_are_not_children() {
        let mut other = span(1, Some(0), 0, 100);
        other.req = 2;
        assert_eq!(self_times(&[span(0, None, 0, 100), other]), vec![100, 100]);
    }

    #[test]
    fn the_tracer_nests_layers_under_the_request() {
        let mut t = Tracer::default();
        let v = t.request(7, "request", |t| t.span("a", || 1) + t.span("b", || 2));
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.req == 7));
        let root = spans.iter().find(|s| s.parent.is_none()).expect("a root");
        assert_eq!(root.layer, "request");
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            assert_eq!(s.parent, Some(root.span));
            assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
        }
        t.enabled = false;
        t.request(8, "request", |t| t.span("a", || ()));
        assert_eq!(t.spans().len(), 3, "disabled requests record nothing");
    }
}
