//! An in-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public API in a span:
//! name, start, end, parent span, and the round (request) it belongs to.
//! Spans stay in memory while the run measures and are written out as a
//! Chrome trace when it ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

pub struct Guard<'r> {
    rec: &'r Recorder,
    name: &'static str,
    id: u64,
    parent: u64,
    round: u64,
    start_ns: u64,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        self.rec
            .spans
            .lock()
            .expect("lock poisoned by a panicked thread")
            .push(Span {
                name: self.name,
                id: self.id,
                parent: self.parent,
                round: self.round,
                start_ns: self.start_ns,
                end_ns,
            });
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it is recorded when the guard drops. `parent` is 0
    /// for a root span.
    pub fn span(&self, name: &'static str, parent: u64, round: u64) -> Guard<'_> {
        Guard {
            rec: self,
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            round,
            start_ns: self.now_ns(),
        }
    }

    /// Time `f` under a span and return its result.
    pub fn time<R>(&self, name: &'static str, parent: u64, round: u64, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name, parent, round);
        f()
    }

    /// Per-round total duration of every span named `name`, in ms:
    /// one entry per round that recorded it.
    pub fn per_round_ms(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("lock poisoned by a panicked thread");
        let mut rounds: Vec<(u64, f64)> = Vec::new();
        for s in spans.iter().filter(|s| s.name == name) {
            match rounds.iter_mut().find(|(r, _)| *r == s.round) {
                Some((_, t)) => *t += s.ms(),
                None => rounds.push((s.round, s.ms())),
            }
        }
        rounds.into_iter().map(|(_, t)| t).collect()
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("lock poisoned by a panicked thread")
            .len()
    }

    /// Write every span as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("lock poisoned by a panicked thread");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"round\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.round
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
