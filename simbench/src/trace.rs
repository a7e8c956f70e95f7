//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a simulator layer in a
//! span (name, start, end, parent, batch id). Spans stay in memory
//! until the run ends; [`Tracer::layer_totals`] derives each layer's
//! call count and self time (its duration minus the part its child
//! spans cover), and [`Tracer::write_chrome_json`] writes them out as
//! Chrome trace-event JSON.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Simulated batch (or training step) the call served.
    pub batch: Option<u64>,
}

/// Call count and self time of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// The span recorder. Spans nest: a span begun while another is open
/// becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, batch: Option<u64>, f: impl FnOnce() -> R) -> R {
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                batch,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls and self time per layer name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_s += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON (complete events,
    /// microsecond timestamps), viewable in Perfetto.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\": [")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"batch\": {}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.batch.map_or("null".to_string(), |b| b.to_string()),
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Runs `f` in a span when a tracer is given, plainly otherwise.
pub fn maybe<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    batch: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, batch, f),
        None => f(),
    }
}
