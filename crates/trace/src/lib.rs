//! Structured tracing for the kacc simulation stack.
//!
//! The paper's core diagnostic instrument is an ftrace breakdown of the
//! kernel-assisted copy path (syscall / permission check / page-lock / pin /
//! copy — Figs 2–4). This crate is the reproduction of that methodology as a
//! first-class subsystem: every layer of the simulator emits *structured
//! events* on **virtual time**, and sinks turn the event stream into
//! Chrome-trace JSON (for `chrome://tracing` / Perfetto) or ftrace-style
//! breakdown tables.
//!
//! # Event model
//!
//! An [`Event`] is a named record on a [`Track`] (one per simulated rank,
//! plus one per page-lock server). Three kinds exist:
//!
//! - **Span** — a phase with a start timestamp and an `f64` duration
//!   (e.g. `lock`, `pin`, `copy`). The machine's phase spans are the only
//!   record of its phase times: a rank's spans, summed in emission order,
//!   are its Fig 4 breakdown, to the bit on every run.
//! - **Instant** — a point event (e.g. a scheduler dispatch).
//! - **Counter** — a sampled value over time (e.g. lock-server queue depth).
//!
//! Timestamps are always supplied by the caller — the tracer never reads a
//! clock — so tracing can never perturb simulated time.
//!
//! # Zero cost when disabled
//!
//! [`Tracer`] is a newtype over `Option<Arc<..>>`. A disabled tracer
//! ([`Tracer::off`]) costs a single branch per emission site and allocates
//! nothing; the hot path never formats, boxes, or locks. The benchmark's
//! `collectives.exec_step_ns` probe times the executor through an off
//! tracer, and `trace.buffered_step_ns` the same steps buffered.
//!
//! # Sinks
//!
//! Anything implementing [`Sink`] can consume events. [`SharedBuffer`] is
//! the built-in in-memory sink; its captured `Vec<Event>` feeds
//! [`chrome_trace_json`] and [`Breakdown::from_events`].

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![forbid(unsafe_code)]

use std::sync::{Arc, Mutex};

pub mod breakdown;
pub mod chrome;
pub mod minijson;
pub mod validate;

pub use breakdown::Breakdown;
pub use chrome::chrome_trace_json;

/// The timeline an event belongs to. Maps to a (pid, tid) pair in the
/// Chrome-trace export: ranks render under pid 0, lock servers under pid 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A simulated rank (cooperative sim thread). One track per rank.
    Rank(usize),
    /// The per-target page-lock server; the index is the target rank whose
    /// pages are being locked. Carries the queue-depth counter.
    LockServer(usize),
}

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A phase with a start time and duration. `dur` is `f64` nanoseconds:
    /// the machine's phase times are fractional, and its spans are their
    /// only record.
    Span {
        /// Virtual start time in nanoseconds.
        ts: u64,
        /// Duration in (possibly fractional) nanoseconds.
        dur: f64,
    },
    /// A point event at one virtual time.
    Instant {
        /// Virtual time in nanoseconds.
        ts: u64,
    },
    /// A sampled counter value (e.g. queue depth) at one virtual time.
    Counter {
        /// Virtual time in nanoseconds.
        ts: u64,
        /// The sampled value.
        value: f64,
    },
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Timeline this event belongs to.
    pub track: Track,
    /// Static name: the phase ("lock", "pin", "copy", …) or step kind.
    pub name: &'static str,
    /// Span / instant / counter payload.
    pub kind: EventKind,
    /// Bytes moved by this event, if meaningful (0 otherwise).
    pub bytes: u64,
    /// Tag-class / collective attribution (`kacc_comm::tagclass` value), if
    /// the event belongs to an internal collective protocol message.
    pub class: Option<u32>,
}

impl Event {
    /// The event's (start) timestamp in virtual nanoseconds.
    pub fn ts(&self) -> u64 {
        match self.kind {
            EventKind::Span { ts, .. } => ts,
            EventKind::Instant { ts } => ts,
            EventKind::Counter { ts, .. } => ts,
        }
    }
}

/// Consumer of trace events. Implementations must be `Send` because sinks
/// are shared across simulated rank threads (serialized by the tracer).
pub trait Sink: Send {
    /// Record one event. Called in emission order under the tracer's lock.
    fn record(&mut self, ev: &Event);
}

/// In-memory sink capturing events into a shared `Vec`. Cheap to clone;
/// clones view the same buffer.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<Event>>>);

impl SharedBuffer {
    /// Create an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain and return all captured events, leaving the buffer empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.lock())
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Sink for SharedBuffer {
    fn record(&mut self, ev: &Event) {
        self.lock().push(ev.clone());
    }
}

struct Inner {
    sink: Mutex<Box<dyn Sink>>,
}

/// Handle used by instrumented code to emit events.
///
/// Clones share the same sink. The disabled state ([`Tracer::off`], also the
/// `Default`) is a `None` — emission is one branch, no allocation, no lock.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "Tracer(on)"
        } else {
            "Tracer(off)"
        })
    }
}

impl Tracer {
    /// A disabled tracer: every emission is a single `is_some()` branch.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A tracer feeding the given sink.
    pub fn to_sink(sink: Box<dyn Sink>) -> Self {
        Tracer(Some(Arc::new(Inner {
            sink: Mutex::new(sink),
        })))
    }

    /// Convenience: a tracer recording into a fresh in-memory buffer.
    /// Returns the tracer and a handle to read the captured events back.
    pub fn buffered() -> (Self, SharedBuffer) {
        let buf = SharedBuffer::new();
        (Self::to_sink(Box::new(buf.clone())), buf)
    }

    /// True when events will actually be recorded. Use to skip *computing*
    /// expensive attributes; plain emission calls are already near-free when
    /// disabled.
    #[inline]
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Emit a fully-formed event.
    #[inline]
    pub fn emit(&self, ev: Event) {
        if let Some(inner) = &self.0 {
            inner
                .sink
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .record(&ev);
        }
    }

    /// Emit a phase span: `name` ran on `track` from `ts` for `dur` ns,
    /// moving `bytes` bytes, attributed to tag class `class` (if any).
    #[inline]
    pub fn span(
        &self,
        track: Track,
        name: &'static str,
        ts: u64,
        dur: f64,
        bytes: u64,
        class: Option<u32>,
    ) {
        if self.0.is_some() {
            self.emit(Event {
                track,
                name,
                kind: EventKind::Span { ts, dur },
                bytes,
                class,
            });
        }
    }

    /// Emit a point event.
    #[inline]
    pub fn instant(&self, track: Track, name: &'static str, ts: u64) {
        if self.0.is_some() {
            self.emit(Event {
                track,
                name,
                kind: EventKind::Instant { ts },
                bytes: 0,
                class: None,
            });
        }
    }

    /// Emit a counter sample (e.g. lock-server queue depth).
    #[inline]
    pub fn counter(&self, track: Track, name: &'static str, ts: u64, value: f64) {
        if self.0.is_some() {
            self.emit(Event {
                track,
                name,
                kind: EventKind::Counter { ts, value },
                bytes: 0,
                class: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_and_reports_off() {
        let t = Tracer::off();
        assert!(!t.on());
        // These must be no-ops, not panics.
        t.span(Track::Rank(0), "lock", 10, 5.0, 0, None);
        t.instant(Track::Rank(0), "x", 1);
        t.counter(Track::LockServer(0), "depth", 2, 3.0);
    }

    #[test]
    fn buffered_tracer_captures_in_order() {
        let (t, buf) = Tracer::buffered();
        assert!(t.on());
        t.span(Track::Rank(1), "copy", 100, 50.5, 4096, Some(17));
        t.instant(Track::Rank(1), "dispatch", 200);
        t.counter(Track::LockServer(2), "queue_depth", 150, 4.0);
        let evs = buf.take();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].name, "copy");
        assert_eq!(evs[0].bytes, 4096);
        assert_eq!(evs[0].class, Some(17));
        assert_eq!(evs[0].ts(), 100);
        assert_eq!(evs[1].kind, EventKind::Instant { ts: 200 });
        assert_eq!(evs[2].track, Track::LockServer(2));
        assert!(buf.is_empty());
    }

    #[test]
    fn clones_share_one_sink() {
        let (t, buf) = Tracer::buffered();
        let t2 = t.clone();
        t.instant(Track::Rank(0), "a", 1);
        t2.instant(Track::Rank(1), "b", 2);
        assert_eq!(buf.len(), 2);
    }
}
