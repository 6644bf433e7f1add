//! The benchmark's own span recorder, used only by traced runs: spans are
//! kept in memory per thread (name, start, end, parent) and written out as
//! JSONL when the run ends. A layer's self time is its spans' durations
//! minus the time their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `netlist.step`.
    pub name: &'static str,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Identifier shared by every span of one unit of work (a plan replay,
    /// a job).
    pub request: u64,
    /// Offset from the run's epoch at entry.
    pub start: Duration,
    /// Offset from the run's epoch at exit (equal to `start` while open).
    pub end: Duration,
}

/// The spans of one thread. Spans nest: [`Tracer::exit`] closes the
/// innermost open span.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id that spans opened from now on carry.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open (a bracket mismatch in the benchmark).
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer totals over a set of tracers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub count: usize,
    /// Summed span durations, in seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage), in seconds.
    pub self_s: f64,
}

/// Folds the spans of `tracers` into per-name totals and self times.
pub fn fold(tracers: &[Tracer]) -> BTreeMap<&'static str, LayerTime> {
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for tracer in tracers {
        let duration = |s: &Span| s.end.saturating_sub(s.start).as_secs_f64();
        let mut child_cover = vec![0.0; tracer.spans.len()];
        for span in &tracer.spans {
            if let Some(parent) = span.parent {
                child_cover[parent] += duration(span);
            }
        }
        for (span, cover) in tracer.spans.iter().zip(child_cover) {
            let layer = layers.entry(span.name).or_default();
            layer.count += 1;
            layer.total_s += duration(span);
            layer.self_s += (duration(span) - cover).max(0.0);
        }
    }
    layers
}

/// Writes every span as one JSON line: stream (the tracer's index in
/// `tracers`), id (index within the stream), parent, request, name, start
/// and end in microseconds.
///
/// # Errors
/// Propagates file-system errors.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (stream, tracer) in tracers.iter().enumerate() {
        for (id, span) in tracer.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"stream\":{stream},\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                span.request,
                span.name,
                span.start.as_micros(),
                span.end.as_micros()
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.enter("outer");
        t.time("inner", || std::thread::sleep(Duration::from_millis(5)));
        t.exit();
        let layers = fold(&[t]);
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_s >= 0.005);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(inner.self_s, inner.total_s);
    }
}
