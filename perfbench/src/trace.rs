//! The traced run's in-memory spans.
//!
//! Spans are recorded from the benchmark's side of each call into the
//! program: around setup, around every `simulate_*` call, and around
//! every call into the flow source (`next()`) and the outcome sink. The
//! per-flow spans are far too many to keep one by one, so each of those
//! two layers keeps a busy-time and call counter that every shard of a
//! sharded run adds to; the counters are snapshotted into the enclosing
//! `simulate` span when it closes. Nothing is written until
//! [`Trace::write`] at the end of the run.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Busy time and call count of one per-call layer, shared by all shards.
#[derive(Debug, Default)]
pub struct Layer {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Layer {
    /// Adds one call that started at `start` and ends now.
    pub fn add(&self, start: Instant) {
        // Relaxed: plain statistics, read only after the shards joined.
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn take(&self) -> (u64, u64) {
        (
            self.ns.swap(0, Ordering::Relaxed),
            self.calls.swap(0, Ordering::Relaxed),
        )
    }
}

/// The median cost in nanoseconds of one empty call through
/// [`Layer::add`]: the floor that every per-call span includes.
pub fn timer_floor_ns() -> f64 {
    const CALLS: u64 = 4_096;
    let mut samples: Vec<f64> = (0..31)
        .map(|_| {
            let layer = Layer::default();
            for _ in 0..CALLS {
                layer.add(Instant::now());
            }
            layer.ns.load(Ordering::Relaxed) as f64 / CALLS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// An iterator adapter that times every `next()` into a [`Layer`].
/// Clones share the layer, so each shard's replay of the source adds to
/// the same counter.
#[derive(Clone)]
pub struct Timed<'a, I> {
    inner: I,
    layer: &'a Layer,
}

impl<'a, I> Timed<'a, I> {
    /// Wraps `inner`, timing into `layer`.
    pub fn new(inner: I, layer: &'a Layer) -> Self {
        Timed { inner, layer }
    }
}

impl<I: Iterator> Iterator for Timed<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let start = Instant::now();
        let item = self.inner.next();
        self.layer.add(start);
        item
    }
}

/// Per-call layer totals inside one span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counted {
    /// Busy nanoseconds, summed over shards.
    pub ns: u64,
    /// Calls, summed over shards.
    pub calls: u64,
}

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers (`setup`, `setup.inputs`, `simulate`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Source `next()` time inside this span.
    pub source: Counted,
    /// Outcome-sink time inside this span.
    pub sink: Counted,
}

impl Span {
    /// The span's wall time in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The trace of one benchmark process.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    /// Time inside the flow source's `next()`.
    pub source: Layer,
    /// Time inside the outcome sink.
    pub sink: Layer,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            source: Layer::default(),
            sink: Layer::default(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    /// Opens a span under `parent` and returns its index; close it with
    /// [`Trace::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span writer panicked");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            source: Counted::default(),
            sink: Counted::default(),
        });
        spans.len() - 1
    }

    /// Closes span `id`, moving the per-call layer counters accumulated
    /// since the last close into it.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        let (ns, calls) = self.source.take();
        let source = Counted { ns, calls };
        let (ns, calls) = self.sink.take();
        let sink = Counted { ns, calls };
        let mut spans = self.spans.lock().expect("no span writer panicked");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.source = source;
        span.sink = sink;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every closed span named `name`.
    pub fn spans(&self, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("no span writer panicked");
        spans.iter().filter(|s| s.name == name).cloned().collect()
    }

    /// Writes every span as one JSON document to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no span writer panicked");
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"source_ns\": {}, \"source_calls\": {}, \"sink_ns\": {}, \
                 \"sink_calls\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.source.ns,
                s.source.calls,
                s.sink.ns,
                s.sink.calls,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
