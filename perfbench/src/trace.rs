//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span is `(name, start, end, parent, request)`. A layer's self time is
//! its span's duration minus the durations of its child spans. Some child
//! spans are *probes*: a layer's sub-phases re-invoked through their own
//! public functions right after the parent call, on the same inputs,
//! because the parent runs them internally where the benchmark cannot
//! see. Their durations stand in for the covered part of the parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `layer.function`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: calls and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `spans` spans, so recording does not
    /// reallocate mid-run.
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let value = f();
        let id = self.record(name, parent, request, start, Instant::now());
        (id, value)
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends an opened span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line, after a first line
    /// carrying `header` notes.
    ///
    /// # Errors
    ///
    /// Directory creation and write failures.
    pub fn write_jsonl(&self, path: &Path, header: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let notes: Vec<String> = header
            .iter()
            .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        writeln!(out, "{{\"notes\": [{}]}}", notes.join(", "))?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::with_capacity(2);
        let base = Instant::now();
        let parent = t.record("a", None, 0, base, base + Duration::from_micros(10));
        t.record(
            "b",
            Some(parent),
            0,
            base + Duration::from_micros(2),
            base + Duration::from_micros(5),
        );
        let times = t.self_times();
        assert_eq!(times["a"].self_ns, 7_000);
        assert_eq!(times["a"].total_ns, 10_000);
        assert_eq!(times["b"].self_ns, 3_000);
    }
}
