//! In-memory spans around every call into a layer.
//!
//! The traced run records one [`Span`] per call — name, start, end, the
//! span that caused it, and the batch it belongs to — keeps them in
//! memory, and writes them out when the workload ends
//! (`benchmark/out/trace-<workload>.jsonl`). Per-layer timings are
//! computed from these spans and from nothing else, so the trace file
//! and the printed numbers cannot disagree.
//!
//! All spans come from the benchmark's own files: this PR changes no
//! line of the program, so a layer is timed from outside, around its
//! public functions. Spans inside the program are a later issue.

use crate::stats;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span (its parent link).
pub type SpanId = u32;

/// "No parent" / "no batch".
pub const NONE: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.stage`, e.g. `tivgate.encode_request`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The span that caused this one ([`NONE`] for a root).
    pub parent: SpanId,
    /// Spans of one request share this identifier ([`NONE`] outside a
    /// request).
    pub batch: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Lines the trace file is capped at: the closed loop produces a few
/// hundred thousand spans and nobody reads more than the head of them.
const FILE_LINE_CAP: usize = 100_000;

/// The span store of one traced run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Recorder::end). Open spans
    /// may nest (a batch span stays open while its stages run).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, batch: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, batch });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.nanos()
    }

    /// Times one call as a span and passes its result through.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        batch: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, batch);
        let out = f();
        self.end(id);
        out
    }

    /// True when at least one span called `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::nanos).collect()
    }

    /// Median duration (ns) of the spans called `name`; 0 when the run
    /// recorded none.
    pub fn median_ns(&self, name: &str) -> f64 {
        stats::median(&self.durations(name))
    }

    /// Median **self time** (ns) of the spans called `name`: duration
    /// minus the part of it the direct children cover.
    pub fn median_self_ns(&self, name: &str) -> f64 {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                covered[s.parent as usize] += s.nanos();
            }
        }
        let own: Vec<f64> = self
            .spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, covered)| s.nanos() - covered)
            .collect();
        stats::median(&own)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as JSON lines (one object per span, capped at
    /// [`FILE_LINE_CAP`] with a trailing note when truncated).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(FILE_LINE_CAP).enumerate() {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            let batch = if s.batch == NONE { -1 } else { i64::from(s.batch) };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{batch}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        if self.spans.len() > FILE_LINE_CAP {
            writeln!(
                out,
                "{{\"truncated\":true,\"spans_recorded\":{},\"spans_written\":{FILE_LINE_CAP}}}",
                self.spans.len()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new();
        // Hand-built spans: a 100 ns batch with two children (30 + 50)
        // and one grandchild that must not be subtracted twice.
        r.spans.push(Span { name: "batch", start_ns: 0, end_ns: 100, parent: NONE, batch: 0 });
        r.spans.push(Span { name: "a", start_ns: 0, end_ns: 30, parent: 0, batch: 0 });
        r.spans.push(Span { name: "b", start_ns: 30, end_ns: 80, parent: 0, batch: 0 });
        r.spans.push(Span { name: "b.inner", start_ns: 40, end_ns: 60, parent: 2, batch: 0 });
        assert_eq!(r.median_ns("batch"), 100.0);
        assert_eq!(r.median_self_ns("batch"), 20.0);
        assert_eq!(r.median_self_ns("b"), 30.0);
        assert_eq!(r.median_ns("missing"), 0.0);
    }

    #[test]
    fn time_records_a_closed_span_with_its_links() {
        let mut r = Recorder::new();
        let root = r.begin("batch", NONE, 7);
        let got = r.time("stage", root, 7, || 41 + 1);
        r.end(root);
        assert_eq!(got, 42);
        assert_eq!(r.len(), 2);
        assert_eq!(r.spans[1].parent, root);
        assert_eq!(r.spans[1].batch, 7);
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
    }
}
