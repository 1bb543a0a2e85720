//! The trace recorder: a global virtual clock plus an append-only event
//! buffer, shared by all runtime threads.
//!
//! Because the scheduler guarantees exactly one thread executes at any
//! moment, the clock and buffer see strictly serialized access and the
//! recorded trace is deterministic.

use crate::sync::Mutex;
use extrap_time::{DurationNs, ThreadId, TimeNs};
use extrap_trace::{EventKind, ProgramTrace, TraceRecord};
use std::sync::atomic::{AtomicU64, Ordering};

/// The shared instrumentation state of one program run.
#[derive(Debug)]
pub struct Recorder {
    clock: AtomicU64,
    records: Mutex<Vec<TraceRecord>>,
    /// Virtual cost charged for recording each event (lets experiments
    /// exercise the intrusion compensation of the translation algorithm).
    event_overhead: DurationNs,
}

impl Recorder {
    /// Creates a recorder with the given per-event recording overhead.
    pub fn new(event_overhead: DurationNs) -> Recorder {
        Recorder {
            clock: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            event_overhead,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> TimeNs {
        TimeNs(self.clock.load(Ordering::Relaxed))
    }

    /// Advances the virtual clock (computation by the running thread).
    pub fn advance(&self, d: DurationNs) {
        self.clock.fetch_add(d.as_ns(), Ordering::Relaxed);
    }

    /// Records an event for `thread` at the current clock, then charges
    /// the recording overhead.
    pub fn record(&self, thread: ThreadId, kind: EventKind) {
        let time = self.now();
        self.records.lock().push(TraceRecord { time, thread, kind });
        self.advance(self.event_overhead);
    }

    /// The per-event overhead this recorder charges.
    pub fn event_overhead(&self) -> DurationNs {
        self.event_overhead
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the run and produces the validated program trace.
    pub fn into_trace(self, n_threads: usize) -> ProgramTrace {
        let pt = ProgramTrace {
            n_threads,
            records: self.records.into_inner(),
        };
        pt.validate().expect("runtime produced an invalid trace");
        pt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_stamps() {
        let r = Recorder::new(DurationNs::ZERO);
        r.record(ThreadId(0), EventKind::ThreadBegin);
        r.advance(DurationNs(500));
        r.record(ThreadId(0), EventKind::ThreadEnd);
        let t = r.into_trace(1);
        assert_eq!(t.records[0].time, TimeNs(0));
        assert_eq!(t.records[1].time, TimeNs(500));
    }

    #[test]
    fn event_overhead_is_charged_after_stamping() {
        let r = Recorder::new(DurationNs(7));
        r.record(ThreadId(0), EventKind::ThreadBegin);
        assert_eq!(r.now(), TimeNs(7));
        r.record(ThreadId(0), EventKind::ThreadEnd);
        let t = r.into_trace(1);
        assert_eq!(t.records[1].time, TimeNs(7));
    }

    #[test]
    fn len_counts_records() {
        let r = Recorder::new(DurationNs::ZERO);
        assert!(r.is_empty());
        r.record(ThreadId(0), EventKind::Marker { id: 1 });
        assert_eq!(r.len(), 1);
    }
}
