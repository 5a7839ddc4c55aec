//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Spans are recorded by the benchmark's own code around each call it makes into a
//! layer's public functions: name, start, end, parent span and request id.  They stay in
//! memory while the workload runs and are written out once at exit.  A layer's self time
//! is its span's duration minus the part of that interval its child spans cover.  With
//! tracing off every call is a no-op, so the untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    request: u64,
}

/// Per-name aggregate of recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and, defensively, any span left open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured interval (seconds since the tracer's origin) as a
    /// closed child of the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let (start, end) = (at(start), at(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let duration = (s.end - s.start).max(0.0);
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_s += duration;
            entry.self_s += self_time(s.start, s.end, kids);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        Ok(())
    }
}

/// `end - start` minus the union of the child intervals clipped to `[start, end]`.
pub fn self_time(start: f64, end: f64, mut children: Vec<(f64, f64)>) -> f64 {
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = start;
    for (s, e) in children {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(0.0, 10.0, vec![]), 10.0);
        assert_eq!(self_time(0.0, 10.0, vec![(1.0, 3.0), (5.0, 6.0)]), 7.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // (1,4) and (2,5) overlap: together they cover 4 s, not 6.
        assert_eq!(self_time(0.0, 10.0, vec![(2.0, 5.0), (1.0, 4.0)]), 6.0);
        // A child nested in another child adds nothing.
        assert_eq!(self_time(0.0, 10.0, vec![(1.0, 9.0), (2.0, 3.0)]), 2.0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(2.0, 6.0, vec![(0.0, 3.0), (5.0, 8.0)]), 2.0);
        assert_eq!(self_time(0.0, 1.0, vec![(0.0, 2.0)]), 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_aggregates_by_name() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let layers = t.layers();
        let (o, i) = (layers["outer"], layers["inner"]);
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.total_s >= 0.005);
        assert!((o.self_s - (o.total_s - i.total_s)).abs() < 1e-9);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        t.end(s);
        assert_eq!(t.time("y", 0, || 3), 3);
        assert!(t.layers().is_empty());
    }
}
