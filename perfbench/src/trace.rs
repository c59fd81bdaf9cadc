//! In-memory spans recorded around calls into the system's layers.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was made), the span that was open when it started, and the id of the
//! request it belongs to. Spans stay in memory until [`Tracer::save`]
//! puts them out as JSON lines at the end of a run. With tracing off,
//! [`Tracer::span`] only calls its closure: no clock is read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary the span measures, e.g. `serve.resolve`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or operation) the span belongs to.
    pub req: u64,
}

/// Per-name totals over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus child coverage), ns.
    pub self_ns: u64,
}

/// Records spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens on the tracer
    /// it is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            req,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Every span recorded so far, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of everything recorded so far.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end - span.start;
            t.self_ns += own;
        }
        out
    }

    /// Writes every span to `perfbench/out/<workload>-<seed>.spans.jsonl`
    /// (relative to the working directory), reporting a failure on
    /// stderr: the spans are a by-product, not a result.
    pub fn save(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{workload}-{seed}.spans.jsonl"));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| self.write(&path)) {
            eprintln!("perfbench: spans not written to {}: {e}", path.display());
        }
    }

    /// Writes every span as one JSON object per line.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start, s.end, s.req
            );
        }
        std::fs::write(path, text)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: only 30..50 is newly covered.
            span("b", 20, 50, Some(0)),
            // A grandchild counts against `b`, not against `request`.
            span("b.inner", 25, 45, Some(2)),
            span("c", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorded_spans_nest_and_sum() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", 7, |tr| {
            tr.span("inner", 7, |_| std::hint::black_box(3)) + tr.span("inner", 7, |_| 4)
        });
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let totals = tr.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, |tr| tr.span("y", 0, |_| 5)), 5);
        assert!(tr.spans().is_empty());
    }
}
