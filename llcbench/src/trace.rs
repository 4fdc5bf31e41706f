//! Tracing from outside the library: coarse spans around calls into each
//! layer, and per-call seam timers on the trait objects the benchmark
//! hands to an entry point. Nothing here reaches inside the crates.
//!
//! Spans are kept in memory and written as JSON lines when the run ends.
//! Seams keep no per-call records: each is a call count, a total, and a
//! `LogHist` of per-call nanoseconds.

use kvs::CompletionSink;
use llc_sim::Machine;
use rte::nic::HeadroomPolicy;
use rte::MbufPool;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use trafficgen::Arrivals;
use xstats::LogHist;

/// One coarse span: a named interval and the span that caused it.
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one child run. Times are ns since the recorder
/// was made (the child's start).
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// ns since the child started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Total duration of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// A span's own time: its duration minus what its children cover.
    fn self_ns(&self, id: usize) -> i64 {
        let s = &self.spans[id];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns) as i64 - covered as i64
    }

    /// Well-formedness: every span is closed, every child lies inside its
    /// parent, and no span's self time is negative.
    pub fn check(&self) -> Result<(), String> {
        for (id, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {id} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!("span {id} ({}) leaves its parent {p}", s.name));
                }
            }
            if self.self_ns(id) < 0 {
                return Err(format!("span {id} ({}) has negative self time", s.name));
            }
        }
        Ok(())
    }

    /// Writes the spans (one JSON object per line, all sharing `run`)
    /// followed by one line per seam aggregate.
    pub fn write_jsonl(
        &self,
        path: &Path,
        run: &str,
        seams: &[(&str, &Seam)],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":\"{run}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, seam) in seams {
            writeln!(
                w,
                "{{\"run\":\"{run}\",\"seam\":\"{name}\",\"calls\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                seam.calls(),
                seam.total_ns(),
                seam.quantile_ns(0.50),
                seam.quantile_ns(0.99)
            )?;
        }
        w.flush()
    }
}

/// A per-call timer aggregate. Interior mutability because some seams
/// (`Arrivals::peek_next_ns`) are `&self` methods.
pub struct Seam {
    calls: Cell<u64>,
    total_ns: Cell<u64>,
    hist: RefCell<LogHist>,
}

impl Default for Seam {
    fn default() -> Self {
        Self {
            calls: Cell::new(0),
            total_ns: Cell::new(0),
            hist: RefCell::new(LogHist::latency_ns(0.01)),
        }
    }
}

impl Seam {
    /// Times one call.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.set(self.calls.get() + 1);
        self.total_ns.set(self.total_ns.get() + ns);
        self.hist.borrow_mut().record(ns as f64);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.get()
    }

    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.calls() == 0 {
            0.0
        } else {
            self.hist.borrow().quantile(q)
        }
    }
}

/// A seam timer around a trait object the entry point calls back into.
pub struct Timed<'a, T: ?Sized> {
    pub inner: &'a mut T,
    pub seam: Seam,
}

impl<'a, T: ?Sized> Timed<'a, T> {
    pub fn new(inner: &'a mut T) -> Self {
        Self {
            inner,
            seam: Seam::default(),
        }
    }
}

impl<T: Arrivals + ?Sized> Arrivals for Timed<'_, T> {
    fn next_arrival_ns(&mut self) -> f64 {
        let inner = &mut *self.inner;
        self.seam.time(|| inner.next_arrival_ns())
    }

    fn peek_next_ns(&self) -> f64 {
        self.seam.time(|| self.inner.peek_next_ns())
    }
}

impl<T: HeadroomPolicy + ?Sized> HeadroomPolicy for Timed<'_, T> {
    fn data_off(&mut self, m: &mut Machine, pool: &MbufPool, mbuf: u32, core: usize) -> u16 {
        let inner = &mut *self.inner;
        self.seam.time(|| inner.data_off(m, pool, mbuf, core))
    }
}

impl<T: CompletionSink + ?Sized> CompletionSink for Timed<'_, T> {
    fn record(&mut self, queue: usize, completion_ns: f64, latency_ns: f64) {
        let inner = &mut *self.inner;
        self.seam
            .time(|| inner.record(queue, completion_ns, latency_ns));
    }
}
