//! The trace translation algorithm of §3.2.
//!
//! Input: the single, globally time-stamped event stream of an *n*-thread
//! program measured on **one** processor under non-preemptive scheduling.
//! Output: *n* per-thread traces whose timestamps reflect the *ideal*
//! concurrent execution on *n* processors, under the paper's idealizing
//! assumptions: instant remote accesses, instant barrier synchronization
//! (threads exit a barrier the moment the last thread enters it), and
//! unperturbed thread computation.
//!
//! The rules, verbatim from the paper:
//!
//! * **Non-synchronization events** keep their per-thread inter-event
//!   deltas: if `e1`, `e2` are consecutive events of one thread with
//!   measured times `t1`, `t2`, and `e1` was adjusted to `t1'`, then `e2`
//!   is adjusted to `t2 - t1 + t1'`.
//! * **Barrier exits** are snapped to the adjusted barrier-entry timestamp
//!   of the *last* thread to enter that barrier.
//!
//! The algorithm also optionally compensates for measurement intrusion:
//! a fixed per-event recording overhead and a per-reschedule thread-switch
//! overhead are subtracted from the measured deltas ("the trace
//! translation algorithm is easily modified to handle the overhead for
//! recording the events ... and switching the threads").

use crate::error::TraceError;
use crate::event::{EventKind, ProgramTrace, ThreadTrace, TraceRecord, TraceSet};
use crate::stream::{ChunkSource, ProgramStream};
use extrap_time::{BarrierId, DurationNs, ThreadId, TimeNs};
use std::collections::VecDeque;
use std::mem::size_of;

/// Intrusion-compensation knobs for translation.
#[derive(Clone, Copy, Debug, Default)]
pub struct TranslateOptions {
    /// Cost of recording one event in the measured run; subtracted from
    /// every per-thread inter-event delta (saturating at zero).
    pub event_overhead: DurationNs,
    /// Cost of a thread switch in the measured run; additionally
    /// subtracted from the delta following each rescheduling point (thread
    /// begin and barrier exit).
    pub switch_overhead: DurationNs,
}

/// Receives translated records from the [`EpochTranslator`].
///
/// Records arrive in per-thread time order (each thread's records are
/// emitted in its own stream order), but threads interleave in epoch
/// resolution order, **not** global time order.  Sinks that need a
/// global view must merge per thread; sinks that fold per thread (a
/// [`TraceSet`] builder, the incremental compiler, a spill file) consume
/// them directly.
pub trait TranslateSink {
    /// Accepts one translated record for `thread`.  Fallible so sinks
    /// that spill to disk can surface I/O errors through translation.
    fn emit(&mut self, thread: usize, rec: TraceRecord) -> Result<(), TraceError>;
}

impl<F: FnMut(usize, TraceRecord) -> Result<(), TraceError>> TranslateSink for F {
    fn emit(&mut self, thread: usize, rec: TraceRecord) -> Result<(), TraceError> {
        self(thread, rec)
    }
}

/// Counters reported by a completed streaming translation.
#[derive(Clone, Copy, Debug, Default)]
pub struct TranslateStats {
    /// Total input records consumed.
    pub records: u64,
    /// High-water mark of the translator's transient state (held
    /// records, barrier-id and release windows, per-thread cursors) —
    /// the O(threads + live-epoch) bound, excluding whatever the sink
    /// itself retains.
    pub peak_resident_bytes: usize,
}

/// Per-thread translation state inside the streaming machine.
struct ThreadXlate {
    orig_prev: TimeNs,
    adj_prev: TimeNs,
    started: bool,
    /// True when the previous translated event was a rescheduling point
    /// (thread begin or barrier exit).
    after_reschedule: bool,
    /// Barriers this thread has entered so far.
    entered: usize,
    /// The next record is this thread's barrier exit: snap it to the
    /// release time of epoch `entered - 1`.
    pending_snap: bool,
    /// Barrier entered but not yet exited (protocol tracking).
    pending_barrier: Option<BarrierId>,
    /// Records received while this thread is ahead of the last resolved
    /// epoch; replayed when the epoch's release time becomes final.
    held: VecDeque<TraceRecord>,
}

impl ThreadXlate {
    fn new() -> ThreadXlate {
        ThreadXlate {
            orig_prev: TimeNs::ZERO,
            adj_prev: TimeNs::ZERO,
            started: false,
            after_reschedule: false,
            entered: 0,
            pending_snap: false,
            pending_barrier: None,
            held: VecDeque::new(),
        }
    }
}

/// The streaming §3.2 translation machine: consumes the global
/// 1-processor record stream in order and emits idealized per-thread
/// records to a [`TranslateSink`] as soon as their timestamps are final.
///
/// A record's translated time is final once the release time of every
/// barrier epoch before it is known, i.e. once every thread has entered
/// that barrier.  Threads that run ahead of the slowest thread have
/// their records held back (that is the only buffering); when the
/// laggard's entry resolves an epoch, the held records drain.  Resident
/// state is therefore O(threads + live-epoch): the per-thread cursors
/// plus the records and barrier bookkeeping of epochs still in flight.
///
/// The machine is the only translation: the whole-trace [`translate`],
/// [`translate_stream`] and the CLI all drive it, so their outputs *and*
/// their errors are identical by construction.  It checks validity
/// record by record (thread range, monotone clock, barrier protocol,
/// barrier-sequence agreement); a [`TraceError::BarrierMismatch`] names
/// the first thread to reach the disagreeing epoch as its reference.
pub struct EpochTranslator {
    options: TranslateOptions,
    threads: Vec<ThreadXlate>,
    /// Barrier id per epoch and the first thread to enter it (the
    /// reference later entries are checked against); pruned below the
    /// slowest thread's epoch.
    barrier_ids: VecDeque<(BarrierId, ThreadId)>,
    ids_base: usize,
    /// Accumulating release times (max adjusted entry) per epoch;
    /// pruned once snapped by every thread.
    release: VecDeque<TimeNs>,
    release_base: usize,
    /// Epochs whose release time is final (every thread has entered).
    resolved: usize,
    /// Threads with `entered > resolved`; when all are, an epoch resolves.
    ahead: usize,
    /// Held records across all threads (for O(1) residency accounting).
    held_records: usize,
    next_record: usize,
    last_time: TimeNs,
    peak_resident: usize,
}

impl EpochTranslator {
    /// A fresh machine for an `n_threads`-thread program stream.
    pub fn new(n_threads: usize, options: TranslateOptions) -> EpochTranslator {
        let mut m = EpochTranslator {
            options,
            threads: (0..n_threads).map(|_| ThreadXlate::new()).collect(),
            barrier_ids: VecDeque::new(),
            ids_base: 0,
            release: VecDeque::new(),
            release_base: 0,
            resolved: 0,
            ahead: 0,
            held_records: 0,
            next_record: 0,
            last_time: TimeNs::ZERO,
            peak_resident: 0,
        };
        m.note_peak();
        m
    }

    /// Feeds one record of the global stream, emitting every translated
    /// record it finalizes.
    pub fn push(
        &mut self,
        rec: &TraceRecord,
        sink: &mut dyn TranslateSink,
    ) -> Result<(), TraceError> {
        let record = self.next_record;
        self.next_record += 1;
        let t = rec.thread.index();
        if t >= self.threads.len() {
            return Err(TraceError::BadThread {
                record,
                thread: rec.thread,
                n_threads: self.threads.len(),
            });
        }
        if rec.time < self.last_time {
            return Err(TraceError::TimeRegression { record });
        }
        self.last_time = rec.time;
        if self.threads[t].entered > self.resolved {
            // Thread is ahead of the slowest epoch: its release time is
            // not final yet, so hold the record.
            self.threads[t].held.push_back(*rec);
            self.held_records += 1;
            self.note_peak();
            return Ok(());
        }
        self.step(t, *rec, sink)?;
        self.drain(sink)?;
        self.note_peak();
        Ok(())
    }

    /// Flushes end-of-stream checks.  Call exactly once after the last
    /// [`push`](EpochTranslator::push); emits nothing (all translatable
    /// records were emitted eagerly) but rejects streams whose threads
    /// disagree on the barrier count or leave a barrier unexited.
    pub fn finish(&mut self) -> Result<(), TraceError> {
        let n = self.threads.len();
        if n == 0 {
            return Ok(());
        }
        // Held records never made it through `step`; fold them into the
        // barrier census and protocol check before judging the stream.
        let mut total_entered = vec![0usize; n];
        let mut protocol_err: Vec<Option<TraceError>> = (0..n).map(|_| None).collect();
        for (t, st) in self.threads.iter().enumerate() {
            total_entered[t] = st.entered;
            let thread = ThreadId::from_index(t);
            let mut pending = st.pending_barrier;
            for rec in &st.held {
                match rec.kind {
                    EventKind::BarrierEnter { barrier } => {
                        total_entered[t] += 1;
                        if protocol_err[t].is_none() {
                            if let Some(p) = pending {
                                protocol_err[t] = Some(TraceError::BarrierProtocol {
                                    thread,
                                    detail: format!("entered {barrier} while still inside {p}"),
                                });
                            }
                            pending = Some(barrier);
                        }
                    }
                    EventKind::BarrierExit { barrier } if protocol_err[t].is_none() => {
                        match pending.take() {
                            Some(p) if p == barrier => {}
                            Some(p) => {
                                protocol_err[t] = Some(TraceError::BarrierProtocol {
                                    thread,
                                    detail: format!("exited {barrier} while inside {p}"),
                                });
                            }
                            None => {
                                protocol_err[t] = Some(TraceError::BarrierProtocol {
                                    thread,
                                    detail: format!("exited {barrier} without entering it"),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
            if protocol_err[t].is_none() {
                if let Some(p) = pending {
                    protocol_err[t] = Some(TraceError::BarrierProtocol {
                        thread,
                        detail: format!("never exited {p}"),
                    });
                }
            }
        }
        for (t, &count) in total_entered.iter().enumerate().skip(1) {
            if count != total_entered[0] {
                return Err(TraceError::BarrierMismatch {
                    thread: ThreadId::from_index(t),
                    reference: ThreadId(0),
                });
            }
        }
        for err in &mut protocol_err {
            if let Some(e) = err.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Input records consumed so far.
    fn records_seen(&self) -> u64 {
        self.next_record as u64
    }

    /// Current transient state, by size-of arithmetic (no allocator
    /// hooks; `forbid(unsafe_code)` holds).  Counts live records and
    /// window entries, not capacities, so it is O(1) to maintain.
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>()
            + self.threads.len() * size_of::<ThreadXlate>()
            + self.held_records * size_of::<TraceRecord>()
            + self.barrier_ids.len() * size_of::<(BarrierId, ThreadId)>()
            + self.release.len() * size_of::<TimeNs>()
    }

    /// High-water mark of [`resident_bytes`](EpochTranslator::resident_bytes).
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }

    fn note_peak(&mut self) {
        let r = self.resident_bytes();
        if r > self.peak_resident {
            self.peak_resident = r;
        }
    }

    /// Processes one record of a thread that is *not* ahead (its epoch's
    /// release time, if needed, is final).
    fn step(
        &mut self,
        t: usize,
        rec: TraceRecord,
        sink: &mut dyn TranslateSink,
    ) -> Result<(), TraceError> {
        if self.threads[t].pending_snap {
            // This is the record after a barrier entry: the barrier
            // exit, snapped to the release time (the last thread's
            // adjusted entry) — mirroring whole-trace phase 2, which
            // snaps unconditionally.
            let epoch = self.threads[t].entered - 1;
            let release = self.release[epoch - self.release_base];
            self.protocol_update(t, &rec)?;
            let st = &mut self.threads[t];
            st.pending_snap = false;
            st.orig_prev = rec.time;
            st.adj_prev = release;
            st.started = true;
            st.after_reschedule = true;
            return sink.emit(
                t,
                TraceRecord {
                    time: release,
                    thread: rec.thread,
                    kind: rec.kind,
                },
            );
        }
        self.protocol_update(t, &rec)?;
        if let EventKind::BarrierEnter { barrier } = rec.kind {
            let epoch = self.threads[t].entered;
            // Sequence agreement, against the id established by the
            // first thread to reach this epoch.
            let idx = epoch - self.ids_base;
            match self.barrier_ids.get(idx) {
                Some(&(established, reference)) if established != barrier => {
                    return Err(TraceError::BarrierMismatch {
                        thread: ThreadId::from_index(t),
                        reference,
                    });
                }
                None => {
                    debug_assert_eq!(idx, self.barrier_ids.len());
                    self.barrier_ids.push_back((barrier, rec.thread));
                }
                Some(_) => {}
            }
            self.adjust_emit(t, &rec, sink)?;
            let entry = self.threads[t].adj_prev;
            let ridx = epoch - self.release_base;
            if ridx == self.release.len() {
                self.release.push_back(entry);
            } else {
                let r = &mut self.release[ridx];
                *r = (*r).max(entry);
            }
            let st = &mut self.threads[t];
            st.entered += 1;
            st.pending_snap = true;
            if st.entered == self.resolved + 1 {
                self.ahead += 1;
            }
            Ok(())
        } else {
            self.adjust_emit(t, &rec, sink)
        }
    }

    /// Resolves epochs while every thread is past them, replaying held
    /// records (which may resolve further epochs; the loop, not
    /// recursion, handles the cascade).
    fn drain(&mut self, sink: &mut dyn TranslateSink) -> Result<(), TraceError> {
        while !self.threads.is_empty() && self.ahead == self.threads.len() {
            self.resolved += 1;
            self.ahead = self
                .threads
                .iter()
                .filter(|st| st.entered > self.resolved)
                .count();
            for t in 0..self.threads.len() {
                while self.threads[t].entered <= self.resolved {
                    let Some(rec) = self.threads[t].held.pop_front() else {
                        break;
                    };
                    self.held_records -= 1;
                    self.step(t, rec, sink)?;
                }
            }
            self.prune();
        }
        Ok(())
    }

    /// Drops barrier-id and release entries no thread can read again.
    fn prune(&mut self) {
        let mut ids_needed = usize::MAX;
        let mut rel_needed = usize::MAX;
        for st in &self.threads {
            ids_needed = ids_needed.min(st.entered);
            rel_needed = rel_needed.min(st.entered - usize::from(st.pending_snap));
        }
        while self.ids_base < ids_needed && !self.barrier_ids.is_empty() {
            self.barrier_ids.pop_front();
            self.ids_base += 1;
        }
        while self.release_base < rel_needed && !self.release.is_empty() {
            self.release.pop_front();
            self.release_base += 1;
        }
    }

    /// The per-thread delta adjustment (§3.2 rule one), emitted directly.
    fn adjust_emit(
        &mut self,
        t: usize,
        rec: &TraceRecord,
        sink: &mut dyn TranslateSink,
    ) -> Result<(), TraceError> {
        let st = &mut self.threads[t];
        let adj_time = if !st.started {
            st.started = true;
            TimeNs::ZERO
        } else {
            let mut delta = rec.time.since(st.orig_prev);
            delta = delta.saturating_sub(self.options.event_overhead);
            if st.after_reschedule {
                delta = delta.saturating_sub(self.options.switch_overhead);
            }
            st.adj_prev + delta
        };
        st.orig_prev = rec.time;
        st.adj_prev = adj_time;
        st.after_reschedule = matches!(
            rec.kind,
            EventKind::ThreadBegin | EventKind::BarrierExit { .. }
        );
        sink.emit(
            t,
            TraceRecord {
                time: adj_time,
                thread: rec.thread,
                kind: rec.kind,
            },
        )
    }

    /// Incremental entry/exit alternation check.
    fn protocol_update(&mut self, t: usize, rec: &TraceRecord) -> Result<(), TraceError> {
        let st = &mut self.threads[t];
        let thread = ThreadId::from_index(t);
        match rec.kind {
            EventKind::BarrierEnter { barrier } => {
                if let Some(p) = st.pending_barrier {
                    return Err(TraceError::BarrierProtocol {
                        thread,
                        detail: format!("entered {barrier} while still inside {p}"),
                    });
                }
                st.pending_barrier = Some(barrier);
            }
            EventKind::BarrierExit { barrier } => match st.pending_barrier.take() {
                Some(p) if p == barrier => {}
                Some(p) => {
                    return Err(TraceError::BarrierProtocol {
                        thread,
                        detail: format!("exited {barrier} while inside {p}"),
                    })
                }
                None => {
                    return Err(TraceError::BarrierProtocol {
                        thread,
                        detail: format!("exited {barrier} without entering it"),
                    })
                }
            },
            _ => {}
        }
        Ok(())
    }
}

/// Translates a 1-processor program trace into idealized per-thread traces.
///
/// Every thread's first event is re-based to time zero (all threads start
/// simultaneously on the target machine).
///
/// A thin adapter over the streaming [`EpochTranslator`]: the whole-trace
/// and [`translate_stream`] paths produce identical sets and report
/// identical errors by construction.
///
/// # Errors
/// Returns the machine's first error: a record naming a thread out of
/// range, a global timestamp regression, threads that disagree on the
/// barrier sequence, or barrier entry/exit events that do not alternate.
pub fn translate(trace: &ProgramTrace, options: TranslateOptions) -> Result<TraceSet, TraceError> {
    let mut out: Vec<Vec<TraceRecord>> = (0..trace.n_threads).map(|_| Vec::new()).collect();
    let mut machine = EpochTranslator::new(trace.n_threads, options);
    {
        let mut sink = |t: usize, rec: TraceRecord| {
            out[t].push(rec);
            Ok(())
        };
        for rec in &trace.records {
            machine.push(rec, &mut sink)?;
        }
    }
    machine.finish()?;

    let set = TraceSet {
        threads: out
            .into_iter()
            .enumerate()
            .map(|(i, records)| ThreadTrace {
                thread: ThreadId::from_index(i),
                records,
            })
            .collect(),
    };
    set.validate()?;
    Ok(set)
}

/// Streaming translation: consumes [`ProgramStream`] chunks directly,
/// emitting translated records to `sink` as their timestamps finalize.
/// Resident state is the machine's O(threads + live-epoch) bound plus the
/// stream's fixed decode window; the input trace is never materialized.
///
/// Runs the same machine as [`translate`], so it accepts and rejects the
/// same traces with the same errors, and emits the same records.
pub fn translate_stream<S: ChunkSource>(
    stream: &mut ProgramStream<S>,
    options: TranslateOptions,
    sink: &mut dyn TranslateSink,
) -> Result<TranslateStats, TraceError> {
    let mut machine = EpochTranslator::new(stream.n_threads(), options);
    while let Some(chunk) = stream.next_chunk()? {
        for rec in chunk {
            machine.push(rec, sink)?;
        }
    }
    machine.finish()?;
    Ok(TranslateStats {
        records: machine.records_seen(),
        peak_resident_bytes: machine.peak_resident_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{PhaseProgram, PhaseWork};

    fn uniform(n: usize, phases: &[u64]) -> ProgramTrace {
        let mut p = PhaseProgram::new(n);
        for &c in phases {
            p.push_uniform_phase(DurationNs(c));
        }
        p.record()
    }

    #[test]
    fn uniform_phases_collapse_to_parallel_time() {
        // 4 threads, two phases of 1000ns each: on 1 processor the run
        // takes 8000ns of compute; translated, the makespan is 2000ns.
        let pt = uniform(4, &[1_000, 1_000]);
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        assert_eq!(ts.makespan(), TimeNs(2_000));
        for t in &ts.threads {
            assert_eq!(t.end_time(), TimeNs(2_000));
        }
    }

    #[test]
    fn skewed_phase_waits_for_slowest() {
        // Thread 1 computes 3x longer; the barrier releases at the slowest
        // thread's entry.
        let mut p = PhaseProgram::new(2);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(100),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(300),
                accesses: vec![],
            },
        ]);
        p.push_uniform_phase(DurationNs(50));
        let ts = translate(&p.record(), TranslateOptions::default()).unwrap();
        // Barrier 0 releases at 300; both threads then compute 50 more.
        assert_eq!(ts.makespan(), TimeNs(350));
        let exits: Vec<_> = ts.threads[0]
            .records
            .iter()
            .filter(|r| matches!(r.kind, EventKind::BarrierExit { .. }))
            .map(|r| r.time)
            .collect();
        assert_eq!(exits[0], TimeNs(300));
        assert_eq!(exits[1], TimeNs(350));
    }

    #[test]
    fn deltas_are_preserved_for_non_sync_events() {
        let pt = uniform(3, &[500, 700, 900]);
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        // Every thread's compute deltas (exit -> next enter) must equal the
        // original phase lengths.
        for t in &ts.threads {
            let mut compute = Vec::new();
            let mut last_resume = TimeNs::ZERO;
            for r in &t.records {
                match r.kind {
                    EventKind::BarrierEnter { .. } => {
                        compute.push(r.time.since(last_resume).as_ns())
                    }
                    EventKind::BarrierExit { .. } | EventKind::ThreadBegin => last_resume = r.time,
                    _ => {}
                }
            }
            assert_eq!(compute, vec![500, 700, 900]);
        }
    }

    #[test]
    fn event_overhead_is_subtracted() {
        // One phase of 1000ns; with 100ns/event overhead the compute delta
        // between begin and barrier-enter shrinks to 900ns.
        let pt = uniform(1, &[1_000]);
        let ts = translate(
            &pt,
            TranslateOptions {
                event_overhead: DurationNs(100),
                switch_overhead: DurationNs::ZERO,
            },
        )
        .unwrap();
        let enter = ts.threads[0]
            .records
            .iter()
            .find(|r| matches!(r.kind, EventKind::BarrierEnter { .. }))
            .unwrap();
        assert_eq!(enter.time, TimeNs(900));
    }

    #[test]
    fn switch_overhead_applies_after_reschedule() {
        let pt = uniform(1, &[1_000, 1_000]);
        let ts = translate(
            &pt,
            TranslateOptions {
                event_overhead: DurationNs::ZERO,
                switch_overhead: DurationNs(200),
            },
        )
        .unwrap();
        // Phase 0 delta (after ThreadBegin, a reschedule point): 800.
        // Barrier exits instantly; phase 1 delta (after exit): 800.
        assert_eq!(ts.makespan(), TimeNs(1_600));
    }

    #[test]
    fn single_thread_translation_is_identity_shift() {
        let pt = uniform(1, &[123, 456]);
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        assert_eq!(ts.makespan(), TimeNs(579));
    }

    #[test]
    fn remote_events_keep_relative_position() {
        use extrap_time::{ElementId, ThreadId};
        let mut p = PhaseProgram::new(2);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(400),
                accesses: vec![crate::builder::PhaseAccess {
                    after: DurationNs(150),
                    owner: ThreadId(1),
                    element: ElementId(3),
                    declared_bytes: 64,
                    actual_bytes: 8,
                    write: false,
                }],
            },
            PhaseWork {
                compute: DurationNs(400),
                accesses: vec![],
            },
        ]);
        let ts = translate(&p.record(), TranslateOptions::default()).unwrap();
        let remote = ts.threads[0]
            .records
            .iter()
            .find(|r| r.kind.is_remote())
            .unwrap();
        assert_eq!(remote.time, TimeNs(150));
    }

    #[test]
    fn mismatched_barrier_sequences_rejected() {
        use crate::builder::ProgramTraceBuilder;
        let mut b = ProgramTraceBuilder::new(2);
        for (t, barrier) in [(0u32, 0u32), (1, 1)] {
            b.emit(ThreadId(t), EventKind::ThreadBegin);
            b.emit(
                ThreadId(t),
                EventKind::BarrierEnter {
                    barrier: BarrierId(barrier),
                },
            );
            b.emit(
                ThreadId(t),
                EventKind::BarrierExit {
                    barrier: BarrierId(barrier),
                },
            );
            b.emit(ThreadId(t), EventKind::ThreadEnd);
        }
        let pt = b.finish();
        assert!(matches!(
            translate(&pt, TranslateOptions::default()),
            Err(TraceError::BarrierMismatch { .. })
        ));
    }

    #[test]
    fn unmatched_barrier_exit_rejected() {
        use crate::builder::ProgramTraceBuilder;
        let mut b = ProgramTraceBuilder::new(1);
        b.emit(ThreadId(0), EventKind::ThreadBegin);
        b.emit(
            ThreadId(0),
            EventKind::BarrierExit {
                barrier: BarrierId(0),
            },
        );
        let pt = b.finish();
        assert!(matches!(
            translate(&pt, TranslateOptions::default()),
            Err(TraceError::BarrierProtocol { .. })
        ));
    }

    #[test]
    fn no_phase_program_translates() {
        let pt = uniform(3, &[]);
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        assert_eq!(ts.n_threads(), 3);
        assert_eq!(ts.makespan(), TimeNs::ZERO);
    }

    fn sample_remote_program() -> ProgramTrace {
        use crate::builder::PhaseAccess;
        use extrap_time::ElementId;
        let access = |after: u64, owner: usize, element: u32, write: bool| PhaseAccess {
            after: DurationNs(after),
            owner: ThreadId::from_index(owner),
            element: ElementId(element),
            declared_bytes: 64,
            actual_bytes: 16,
            write,
        };
        let mut p = PhaseProgram::new(4);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(120),
                accesses: vec![access(30, 2, 7, false), access(60, 3, 3, true)],
            },
            PhaseWork {
                compute: DurationNs(340),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(90),
                accesses: vec![access(45, 0, 11, true)],
            },
            PhaseWork {
                compute: DurationNs(200),
                accesses: vec![],
            },
        ]);
        p.push_uniform_phase(DurationNs(75));
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(10),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(500),
                accesses: vec![access(100, 0, 1, false)],
            },
            PhaseWork {
                compute: DurationNs(40),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(40),
                accesses: vec![],
            },
        ]);
        p.record()
    }

    /// The spilling sink writes the whole-trace set's bytes at every
    /// budget: 0 spills every batch, 64 some, `usize::MAX` none.
    #[test]
    fn streaming_translate_matches_whole_trace() {
        use crate::stream::{ProgramStream, SliceSource, SpillSink};
        let pt = sample_remote_program();
        let opts = TranslateOptions {
            event_overhead: DurationNs(3),
            switch_overhead: DurationNs(5),
        };
        let expected = crate::format::encode_set(&translate(&pt, opts).unwrap());
        let bytes = crate::format::encode_program(&pt);
        let dir = std::env::temp_dir().join(format!("extrap-xlate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.xtps");
        for budget in [0usize, 64, usize::MAX] {
            let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
            let mut sink = SpillSink::new(stream.n_threads(), budget);
            let stats = translate_stream(&mut stream, opts, &mut sink).unwrap();
            assert_eq!(stats.records, pt.records.len() as u64);
            assert!(stats.peak_resident_bytes > 0);
            assert_eq!(
                sink.spill_count() > 0,
                budget < usize::MAX,
                "budget {budget}"
            );
            sink.write_set_file(&path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), expected, "budget {budget}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A hand-written program trace: `(time, thread, kind)` per record.
    fn raw_trace(n_threads: usize, recs: &[(u64, u32, EventKind)]) -> ProgramTrace {
        let mut pt = ProgramTrace::new(n_threads);
        pt.records = recs
            .iter()
            .map(|&(time, thread, kind)| TraceRecord {
                time: TimeNs(time),
                thread: ThreadId(thread),
                kind,
            })
            .collect();
        pt
    }

    #[test]
    fn streaming_translate_rejects_what_whole_trace_rejects() {
        use crate::stream::{ProgramStream, SliceSource, SpillSink};
        use EventKind::{ThreadBegin as Begin, ThreadEnd as End};
        let enter = |b: u32| EventKind::BarrierEnter {
            barrier: BarrierId(b),
        };
        let exit = |b: u32| EventKind::BarrierExit {
            barrier: BarrierId(b),
        };
        let cases: Vec<(&str, ProgramTrace)> = vec![
            (
                "T1 reaches epoch 0 first with another barrier",
                raw_trace(
                    3,
                    &[
                        (0, 0, Begin),
                        (0, 1, Begin),
                        (0, 2, Begin),
                        (10, 1, enter(9)),
                        (20, 0, enter(0)),
                        (30, 2, enter(0)),
                    ],
                ),
            ),
            (
                "T1 disagrees with T0",
                raw_trace(
                    2,
                    &[
                        (0, 0, Begin),
                        (0, 1, Begin),
                        (10, 0, enter(0)),
                        (30, 1, enter(9)),
                    ],
                ),
            ),
            (
                "threads run one after the other with different barriers",
                raw_trace(
                    2,
                    &[
                        (0, 0, Begin),
                        (1, 0, enter(0)),
                        (2, 0, exit(0)),
                        (3, 0, End),
                        (4, 1, Begin),
                        (5, 1, enter(1)),
                        (6, 1, exit(1)),
                        (7, 1, End),
                    ],
                ),
            ),
            (
                "T1 passes fewer barriers",
                raw_trace(
                    2,
                    &[
                        (0, 0, Begin),
                        (0, 1, Begin),
                        (5, 0, enter(0)),
                        (6, 1, End),
                        (7, 0, exit(0)),
                        (8, 0, End),
                    ],
                ),
            ),
            (
                "exit without entry",
                raw_trace(1, &[(0, 0, Begin), (5, 0, exit(0))]),
            ),
            (
                "entry while inside",
                raw_trace(1, &[(0, 0, Begin), (5, 0, enter(0)), (6, 0, enter(1))]),
            ),
            (
                "never exited",
                raw_trace(1, &[(0, 0, Begin), (5, 0, enter(0)), (6, 0, End)]),
            ),
            (
                "global timestamp regression",
                raw_trace(1, &[(5, 0, Begin), (3, 0, End)]),
            ),
            (
                "thread out of range",
                raw_trace(1, &[(0, 0, Begin), (1, 3, Begin)]),
            ),
        ];
        for (what, pt) in &cases {
            let whole = translate(pt, TranslateOptions::default())
                .expect_err(what)
                .to_string();
            let bytes = crate::format::encode_program(pt);
            let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
            let mut collected = Vec::new();
            let mut collect = |t: usize, rec: TraceRecord| {
                collected.push((t, rec));
                Ok(())
            };
            let bare = translate_stream(&mut stream, TranslateOptions::default(), &mut collect)
                .expect_err(what)
                .to_string();
            assert_eq!(whole, bare, "{what}, collecting sink");
            let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
            let mut spill = SpillSink::new(stream.n_threads(), 0);
            let spilled = translate_stream(&mut stream, TranslateOptions::default(), &mut spill)
                .expect_err(what)
                .to_string();
            assert_eq!(whole, spilled, "{what}, spilling sink");
        }
        // The reference is the first thread to reach the epoch.
        let first = translate(&cases[0].1, TranslateOptions::default()).unwrap_err();
        assert_eq!(
            first.to_string(),
            "T0 passes a different barrier sequence than thread 1 \
             (program is not deterministically data-parallel)"
        );
    }
}
