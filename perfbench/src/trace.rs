//! Spans and instants recorded from the benchmark's side of each layer
//! boundary, kept in memory and written as Chrome trace-event JSON (opens in
//! Perfetto or `chrome://tracing`) when the run ends.
//!
//! A disabled [`Tracer`] records nothing, so the untraced run pays only for
//! an `Instant::now()` per span.

use std::cell::Cell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use netlist::{Lit, NodeId};
use stp_sweep::{Observer, SatCallOutcome};

struct Event {
    /// `'X'` for a complete span, `'i'` for an instant.
    phase: char,
    name: &'static str,
    detail: String,
    ts_us: f64,
    dur_us: f64,
    tid: u64,
    id: u64,
    parent: u64,
}

/// Collects spans and instants; shared by reference across threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    events: Mutex<Vec<Event>>,
    next_id: AtomicU64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A small per-thread id for the trace's `tid` field.
fn tid() -> u64 {
    TID.with(|cell| match cell.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(id));
            id
        }
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; it is recorded when dropped.  `parent` is the id of
    /// the span that caused it (0 for none).
    pub fn span(&self, name: &'static str, parent: u64) -> Span<'_> {
        self.span_with(name, parent, String::new)
    }

    /// Like [`Tracer::span`], with a detail string (circuit or job name)
    /// that is only built when tracing is on.
    pub fn span_with(
        &self,
        name: &'static str,
        parent: u64,
        detail: impl FnOnce() -> String,
    ) -> Span<'_> {
        let (id, detail) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), detail())
        } else {
            (0, String::new())
        };
        Span {
            tracer: self,
            name,
            detail,
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Records a timestamped instant under span `parent`.
    pub fn instant(&self, name: &'static str, parent: u64, value: u64) {
        if !self.enabled {
            return;
        }
        let ts_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.push(Event {
            phase: 'i',
            name,
            detail: value.to_string(),
            ts_us,
            dur_us: 0.0,
            tid: tid(),
            id: 0,
            parent,
        });
    }

    /// Called from `Span::drop`, so it must not panic: an event is dropped
    /// if another thread panicked while pushing one.
    fn push(&self, event: Event) {
        if let Ok(mut events) = self.events.lock() {
            events.push(event);
        }
    }

    pub fn num_events(&self) -> usize {
        self.events
            .lock()
            .expect("a thread panicked while recording a trace event")
            .len()
    }

    /// Writes every recorded event as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let events = self
            .events
            .lock()
            .expect("a thread panicked while recording a trace event");
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        let mut line = String::new();
        for (i, event) in events.iter().enumerate() {
            line.clear();
            if i > 0 {
                line.push_str(",\n");
            }
            let _ = write!(
                line,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                event.name, event.phase, event.ts_us, event.tid
            );
            if event.phase == 'X' {
                let _ = write!(line, ",\"dur\":{:.3}", event.dur_us);
            } else {
                line.push_str(",\"s\":\"t\"");
            }
            let _ = write!(
                line,
                ",\"args\":{{\"id\":{},\"parent\":{},\"detail\":\"{}\"}}}}",
                event.id,
                event.parent,
                escape(&event.detail)
            );
            out.write_all(line.as_bytes())?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An open span; see [`Tracer::span`].
pub struct Span<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    detail: String,
    id: u64,
    parent: u64,
    start: Instant,
}

impl Span<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let ts_us = self.start.duration_since(self.tracer.origin).as_secs_f64() * 1e6;
        let dur_us = self.start.elapsed().as_secs_f64() * 1e6;
        self.tracer.push(Event {
            phase: 'X',
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            ts_us,
            dur_us,
            tid: tid(),
            id: self.id,
            parent: self.parent,
        });
    }
}

/// Turns sweep events into trace instants under the sweep's span.
pub struct TraceObserver<'t> {
    tracer: &'t Tracer,
    parent: u64,
}

impl<'t> TraceObserver<'t> {
    pub fn new(tracer: &'t Tracer, parent: u64) -> Self {
        TraceObserver { tracer, parent }
    }
}

impl Observer for TraceObserver<'_> {
    fn on_sat_call(&mut self, outcome: SatCallOutcome) {
        let name = match outcome {
            SatCallOutcome::Sat => "sat_call.sat",
            SatCallOutcome::Unsat => "sat_call.unsat",
            SatCallOutcome::Undetermined => "sat_call.undet",
        };
        self.tracer.instant(name, self.parent, 0);
    }

    fn on_merge(&mut self, candidate: NodeId, _replacement: Lit) {
        self.tracer.instant("merge", self.parent, candidate as u64);
    }

    fn on_counterexample(&mut self, assignment: &[bool]) {
        self.tracer
            .instant("counterexample", self.parent, assignment.len() as u64);
    }

    fn on_class_refined(&mut self, _num_classes: usize, moved: usize) {
        self.tracer.instant("refinement", self.parent, moved as u64);
    }
}
