//! Trace events and trace containers.
//!
//! The instrumented runtime records only the *high-level* events the paper
//! identifies as sufficient for extrapolation: barrier entry/exit and
//! remote element accesses, plus begin/end markers.  The time *between*
//! events carries the computation cost and is what the processor model
//! scales.

use extrap_time::{BarrierId, ElementId, ThreadId, TimeNs};

/// The kind of a traced event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum EventKind {
    /// The thread started executing user code.
    ThreadBegin,
    /// The thread finished; its timestamp is the thread's completion time.
    ThreadEnd,
    /// The thread arrived at global barrier `barrier`.
    BarrierEnter {
        /// Program-order barrier number (identical across threads in the
        /// data-parallel model).
        barrier: BarrierId,
    },
    /// The thread left global barrier `barrier`.
    BarrierExit {
        /// Program-order barrier number.
        barrier: BarrierId,
    },
    /// The thread read a collection element it does not own.
    RemoteRead {
        /// The thread that owns the element ("owner computes").
        owner: ThreadId,
        /// Global element index.
        element: ElementId,
        /// Transfer size the *compiler* declared for the access — the whole
        /// collection element (the measurement abstraction of §4.1).
        declared_bytes: u32,
        /// Bytes the access actually needs (what an optimizing compiler
        /// would request).  `SizeMode` in the simulator selects which of
        /// the two sizes drives the communication model.
        actual_bytes: u32,
    },
    /// The thread wrote a remote collection element (one-way message; the
    /// "trivial extension" of §5).
    RemoteWrite {
        /// The owning thread.
        owner: ThreadId,
        /// Global element index.
        element: ElementId,
        /// Declared (whole-element) transfer size.
        declared_bytes: u32,
        /// Actual bytes written.
        actual_bytes: u32,
    },
    /// A user-defined phase marker (for diagnosis; ignored by the models).
    Marker {
        /// User-chosen marker id.
        id: u32,
    },
}

impl EventKind {
    /// True for barrier entry/exit — the synchronization events whose
    /// timestamps the translation algorithm treats specially.
    #[inline]
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            EventKind::BarrierEnter { .. } | EventKind::BarrierExit { .. }
        )
    }

    /// True for remote element accesses (read or write).
    #[inline]
    pub fn is_remote(&self) -> bool {
        matches!(
            self,
            EventKind::RemoteRead { .. } | EventKind::RemoteWrite { .. }
        )
    }

    /// A short stable tag used in diagnostics.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::ThreadBegin => "begin",
            EventKind::ThreadEnd => "end",
            EventKind::BarrierEnter { .. } => "barrier-enter",
            EventKind::BarrierExit { .. } => "barrier-exit",
            EventKind::RemoteRead { .. } => "remote-read",
            EventKind::RemoteWrite { .. } => "remote-write",
            EventKind::Marker { .. } => "marker",
        }
    }
}

/// One timestamped event from one thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Event timestamp (global virtual clock in the 1-processor run;
    /// idealized per-thread time after translation).
    pub time: TimeNs,
    /// The thread that generated the event.
    pub thread: ThreadId,
    /// What happened.
    pub kind: EventKind,
}

/// The trace of an *n*-thread program measured on **one** processor: a
/// single, globally time-ordered event stream (the output of the
/// instrumented non-preemptive runtime).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramTrace {
    /// Number of threads in the traced program.
    pub n_threads: usize,
    /// All events, ordered by (time, insertion order).
    pub records: Vec<TraceRecord>,
}

impl ProgramTrace {
    /// Creates an empty program trace for `n_threads` threads.
    pub fn new(n_threads: usize) -> ProgramTrace {
        assert!(n_threads > 0, "a program trace needs at least one thread");
        ProgramTrace {
            n_threads,
            records: Vec::new(),
        }
    }

    /// Validates global ordering and thread-id ranges.
    pub fn validate(&self) -> Result<(), crate::TraceError> {
        let mut prev = TimeNs::ZERO;
        for (i, r) in self.records.iter().enumerate() {
            if r.thread.index() >= self.n_threads {
                return Err(crate::TraceError::BadThread {
                    record: i,
                    thread: r.thread,
                    n_threads: self.n_threads,
                });
            }
            if r.time < prev {
                return Err(crate::TraceError::TimeRegression { record: i });
            }
            prev = r.time;
        }
        Ok(())
    }
}

/// One thread's event stream with (translated) per-thread timestamps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The thread these events belong to.
    pub thread: ThreadId,
    /// Events in program order; timestamps are non-decreasing.
    pub records: Vec<TraceRecord>,
}

impl ThreadTrace {
    /// The timestamp of the final event (the thread's completion time), or
    /// zero for an empty trace.
    pub fn end_time(&self) -> TimeNs {
        self.records.last().map(|r| r.time).unwrap_or(TimeNs::ZERO)
    }

    /// The barrier ids this thread passes, in order.
    pub fn barrier_sequence(&self) -> Vec<BarrierId> {
        self.records
            .iter()
            .filter_map(|r| match r.kind {
                EventKind::BarrierEnter { barrier } => Some(barrier),
                _ => None,
            })
            .collect()
    }
}

/// A set of per-thread traces — the output of translation and the input to
/// the extrapolation simulators ("the resulting set of trace files look as
/// if they were obtained from a n-thread, n-processor run").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSet {
    /// One trace per thread, indexed by thread id.
    pub threads: Vec<ThreadTrace>,
}

impl TraceSet {
    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Approximate heap footprint of this trace set in bytes — the
    /// accounting probe cache-eviction budgets are charged against.
    /// Counts the record buffers (by capacity, since that is what is
    /// actually resident) plus the per-thread headers.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<TraceSet>()
            + self
                .threads
                .iter()
                .map(|t| {
                    std::mem::size_of::<ThreadTrace>()
                        + t.records.capacity() * std::mem::size_of::<TraceRecord>()
                })
                .sum::<usize>()
    }

    /// The latest completion time across all threads (the program's
    /// idealized parallel execution time).
    pub fn makespan(&self) -> TimeNs {
        self.threads
            .iter()
            .map(|t| t.end_time())
            .max()
            .unwrap_or(TimeNs::ZERO)
    }

    /// Validates the data-parallel determinism assumption the paper's
    /// extrapolation relies on: every thread passes the same barrier
    /// sequence, per-thread timestamps are monotone, and thread ids match
    /// positions.
    pub fn validate(&self) -> Result<(), crate::TraceError> {
        let reference = self
            .threads
            .first()
            .map(|t| t.barrier_sequence())
            .unwrap_or_default();
        for (i, t) in self.threads.iter().enumerate() {
            if t.thread.index() != i {
                return Err(crate::TraceError::MisplacedThread {
                    position: i,
                    thread: t.thread,
                });
            }
            let mut prev = TimeNs::ZERO;
            for (j, r) in t.records.iter().enumerate() {
                if r.time < prev {
                    return Err(crate::TraceError::ThreadTimeRegression {
                        thread: t.thread,
                        record: j,
                    });
                }
                prev = r.time;
                if r.thread != t.thread {
                    return Err(crate::TraceError::MisplacedThread {
                        position: i,
                        thread: r.thread,
                    });
                }
            }
            if t.barrier_sequence() != reference {
                return Err(crate::TraceError::BarrierMismatch {
                    thread: t.thread,
                    reference: ThreadId(0),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(time: u64, thread: u32, kind: EventKind) -> TraceRecord {
        TraceRecord {
            time: TimeNs(time),
            thread: ThreadId(thread),
            kind,
        }
    }

    #[test]
    fn kind_classification() {
        assert!(EventKind::BarrierEnter {
            barrier: BarrierId(0)
        }
        .is_sync());
        assert!(EventKind::BarrierExit {
            barrier: BarrierId(0)
        }
        .is_sync());
        assert!(!EventKind::ThreadBegin.is_sync());
        assert!(EventKind::RemoteRead {
            owner: ThreadId(1),
            element: ElementId(0),
            declared_bytes: 8,
            actual_bytes: 8
        }
        .is_remote());
        assert!(!EventKind::Marker { id: 1 }.is_remote());
    }

    #[test]
    fn program_trace_validation_catches_regression() {
        let mut pt = ProgramTrace::new(1);
        pt.records.push(rec(5, 0, EventKind::ThreadBegin));
        pt.records.push(rec(3, 0, EventKind::ThreadEnd));
        assert!(matches!(
            pt.validate(),
            Err(crate::TraceError::TimeRegression { record: 1 })
        ));
    }

    #[test]
    fn program_trace_validation_catches_bad_thread() {
        let mut pt = ProgramTrace::new(1);
        pt.records.push(rec(0, 9, EventKind::ThreadBegin));
        assert!(matches!(
            pt.validate(),
            Err(crate::TraceError::BadThread { .. })
        ));
    }

    #[test]
    fn trace_set_makespan_is_latest_end() {
        let ts = TraceSet {
            threads: vec![
                ThreadTrace {
                    thread: ThreadId(0),
                    records: vec![
                        rec(0, 0, EventKind::ThreadBegin),
                        rec(10, 0, EventKind::ThreadEnd),
                    ],
                },
                ThreadTrace {
                    thread: ThreadId(1),
                    records: vec![
                        rec(0, 1, EventKind::ThreadBegin),
                        rec(25, 1, EventKind::ThreadEnd),
                    ],
                },
            ],
        };
        assert_eq!(ts.makespan(), TimeNs(25));
        assert!(ts.validate().is_ok());
    }

    #[test]
    fn trace_set_validation_catches_barrier_mismatch() {
        let enter = |b: u32, t: u32, tm: u64| {
            rec(
                tm,
                t,
                EventKind::BarrierEnter {
                    barrier: BarrierId(b),
                },
            )
        };
        let ts = TraceSet {
            threads: vec![
                ThreadTrace {
                    thread: ThreadId(0),
                    records: vec![enter(0, 0, 1)],
                },
                ThreadTrace {
                    thread: ThreadId(1),
                    records: vec![enter(1, 1, 1)],
                },
            ],
        };
        assert!(matches!(
            ts.validate(),
            Err(crate::TraceError::BarrierMismatch { .. })
        ));
    }

    #[test]
    fn empty_trace_set_is_valid() {
        let ts = TraceSet { threads: vec![] };
        assert!(ts.validate().is_ok());
        assert_eq!(ts.makespan(), TimeNs::ZERO);
    }
}
