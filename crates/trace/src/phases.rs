//! Marker-delimited phase profiles.
//!
//! Programs can bracket logical phases with [`EventKind::Marker`] events
//! (`ctx.marker(id)` in the runtime).  This module splits a translated or
//! predicted trace at marker boundaries and reports, per phase and per
//! thread, where the time went — the "which part of my program is the
//! bottleneck" question a performance debugger asks first.
//!
//! A marker with id `k` starts phase `k`; the region before the first
//! marker is phase `u32::MAX` (labelled "prelude").
//!
//! [`PhaseFold`] is the one pass behind both the per-phase profiles and
//! the per-thread [`TraceStats`]: it folds translated records one at a
//! time, so the daemon and `extrap stats` profile a trace while they
//! compile it, without holding the set.
//!
//! Barrier epochs are fingerprinted and clustered from compiled op
//! scripts in `extrap_core::repr`, which also renders the full
//! `extrap stats` report around [`render`].

use crate::event::{EventKind, TraceRecord, TraceSet};
use crate::stats::{ThreadStats, TraceStats};
use extrap_time::{DurationNs, TimeNs};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated times of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Computation time summed across threads.
    pub compute: DurationNs,
    /// Barrier wait summed across threads.
    pub barrier_wait: DurationNs,
    /// Remote accesses issued.
    pub remote_accesses: usize,
    /// Actual bytes requested.
    pub actual_bytes: u64,
    /// Barriers entered.
    pub barriers: usize,
}

/// The id used for events before the first marker.
pub const PRELUDE: u32 = u32::MAX;

/// The record fold behind the marker-phase profiles and the per-thread
/// [`TraceStats`]: per thread it keeps the current phase, the resume
/// point and the open barrier entry, so records of different threads
/// may arrive interleaved (as a translate stream emits them) as long as
/// each thread's own records arrive in order.
///
/// Compute is the time from a resume point (thread begin, barrier exit,
/// thread end) to the next blocking event (barrier entry, thread end).
/// A marker splits that span between two phases without ending it, so a
/// thread's compute never depends on where its markers fall.
#[derive(Debug, Default)]
pub struct PhaseFold {
    phases: BTreeMap<u32, PhaseProfile>,
    threads: Vec<ThreadFold>,
}

/// One thread's accounting state.
#[derive(Debug, Default)]
struct ThreadFold {
    /// Phase id of the thread's current phase (`PRELUDE` once opened).
    current: u32,
    /// The last resume point.
    resume: TimeNs,
    /// The last resume point or marker, whichever came last: where the
    /// current phase's share of the open compute span starts.
    split: TimeNs,
    barrier_enter: Option<TimeNs>,
    stats: ThreadStats,
}

impl PhaseFold {
    /// Folds one translated record of `thread`.  Threads are opened on
    /// first sight, so a fold needs no declared thread count.
    pub fn record(&mut self, thread: usize, rec: &TraceRecord) {
        if thread >= self.threads.len() {
            self.open_threads(thread + 1);
        }
        let t = &mut self.threads[thread];
        let phase = self.phases.entry(t.current).or_default();
        let s = &mut t.stats;
        s.events += 1;
        s.end_time = rec.time;
        match rec.kind {
            EventKind::Marker { id } => {
                phase.compute += rec.time.saturating_since(t.split);
                t.split = rec.time;
                t.current = id;
            }
            EventKind::ThreadBegin => t.resume_at(rec.time),
            EventKind::BarrierEnter { .. } => {
                phase.compute += rec.time.saturating_since(t.split);
                phase.barriers += 1;
                s.compute += rec.time.saturating_since(t.resume);
                s.barriers += 1;
                t.barrier_enter = Some(rec.time);
            }
            EventKind::BarrierExit { .. } => {
                if let Some(enter) = t.barrier_enter.take() {
                    let wait = rec.time.saturating_since(enter);
                    phase.barrier_wait += wait;
                    s.barrier_wait += wait;
                }
                t.resume_at(rec.time);
            }
            EventKind::RemoteRead {
                declared_bytes,
                actual_bytes,
                ..
            } => {
                phase.remote_accesses += 1;
                phase.actual_bytes += u64::from(actual_bytes);
                s.remote_reads += 1;
                s.declared_bytes += u64::from(declared_bytes);
                s.actual_bytes += u64::from(actual_bytes);
            }
            EventKind::RemoteWrite {
                declared_bytes,
                actual_bytes,
                ..
            } => {
                phase.remote_accesses += 1;
                phase.actual_bytes += u64::from(actual_bytes);
                s.remote_writes += 1;
                s.declared_bytes += u64::from(declared_bytes);
                s.actual_bytes += u64::from(actual_bytes);
            }
            EventKind::ThreadEnd => {
                phase.compute += rec.time.saturating_since(t.split);
                s.compute += rec.time.saturating_since(t.resume);
                t.resume_at(rec.time);
            }
        }
    }

    /// The per-marker phase profiles folded so far.
    pub fn into_profiles(self) -> BTreeMap<u32, PhaseProfile> {
        self.phases
    }

    /// Folds a whole set, thread by thread.
    pub(crate) fn from_set(set: &TraceSet) -> PhaseFold {
        let mut fold = PhaseFold::default();
        for (t, trace) in set.threads.iter().enumerate() {
            for rec in &trace.records {
                fold.record(t, rec);
            }
        }
        fold
    }

    /// The per-thread statistics of an `n_threads`-thread trace, in
    /// thread order (a thread with no records gets zero [`ThreadStats`]).
    pub fn into_stats(mut self, n_threads: usize) -> TraceStats {
        if self.threads.len() < n_threads {
            self.open_threads(n_threads);
        }
        TraceStats {
            per_thread: self.threads.into_iter().map(|t| t.stats).collect(),
        }
    }

    fn open_threads(&mut self, n: usize) {
        self.threads.resize_with(n, || ThreadFold {
            current: PRELUDE,
            ..ThreadFold::default()
        });
    }
}

impl ThreadFold {
    fn resume_at(&mut self, time: TimeNs) {
        self.resume = time;
        self.split = time;
    }
}

/// Renders the profile as an aligned table.
pub fn render(profiles: &BTreeMap<u32, PhaseProfile>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>8} {:>12} {:>8}",
        "phase", "compute[ms]", "barwait[ms]", "barriers", "bytes", "accesses"
    );
    for (id, p) in profiles {
        let label = if *id == PRELUDE {
            "prelude".to_string()
        } else {
            id.to_string()
        };
        let _ = writeln!(
            out,
            "{:>8} {:>12.3} {:>12.3} {:>8} {:>12} {:>8}",
            label,
            p.compute.as_us() / 1_000.0,
            p.barrier_wait.as_us() / 1_000.0,
            p.barriers,
            p.actual_bytes,
            p.remote_accesses
        );
    }
    out
}

/// SplitMix64: the seeded deterministic PRNG behind medoid sampling and
/// the synthetic periodic traces in tests.  Public so every consumer
/// draws from the identical stream regardless of crate.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::DurationNs;
    use pcpp_rt_free_test_helpers::*;

    // Tiny local helpers (avoid a dev-dependency cycle with pcpp-rt).
    mod pcpp_rt_free_test_helpers {
        use crate::builder::ProgramTraceBuilder;
        use crate::event::{EventKind, ProgramTrace};
        use extrap_time::{BarrierId, DurationNs, ThreadId};

        /// One thread: [begin, 100ns compute, marker 1, 200ns compute,
        /// barrier, marker 2, 300ns compute, end].
        pub fn marked_program() -> ProgramTrace {
            let mut b = ProgramTraceBuilder::new(1);
            let t = ThreadId(0);
            b.emit(t, EventKind::ThreadBegin);
            b.advance(DurationNs(100));
            b.emit(t, EventKind::Marker { id: 1 });
            b.advance(DurationNs(200));
            b.emit(
                t,
                EventKind::BarrierEnter {
                    barrier: BarrierId(0),
                },
            );
            b.emit(
                t,
                EventKind::BarrierExit {
                    barrier: BarrierId(0),
                },
            );
            b.emit(t, EventKind::Marker { id: 2 });
            b.advance(DurationNs(300));
            b.emit(t, EventKind::ThreadEnd);
            b.finish()
        }
    }

    #[test]
    fn phases_split_at_markers() {
        let ts = crate::translate(&marked_program(), Default::default()).unwrap();
        let profiles = PhaseFold::from_set(&ts).into_profiles();
        assert_eq!(profiles.len(), 3);
        assert_eq!(profiles[&PRELUDE].compute, DurationNs(100));
        assert_eq!(profiles[&1].compute, DurationNs(200));
        assert_eq!(profiles[&1].barriers, 1);
        assert_eq!(profiles[&2].compute, DurationNs(300));
    }

    #[test]
    fn render_includes_each_phase() {
        let ts = crate::translate(&marked_program(), Default::default()).unwrap();
        let text = render(&PhaseFold::from_set(&ts).into_profiles());
        assert!(text.contains("prelude"));
        assert!(text.lines().count() >= 4);
    }

    /// The two record walks the fold replaced, kept verbatim as the
    /// oracle: one split compute at markers, the other ignored them.
    fn reference(set: &TraceSet) -> (BTreeMap<u32, PhaseProfile>, Vec<ThreadStats>) {
        let mut phases: BTreeMap<u32, PhaseProfile> = BTreeMap::new();
        let mut per_thread = Vec::new();
        for thread in &set.threads {
            let mut current = PRELUDE;
            let mut resume = TimeNs::ZERO;
            let mut barrier_enter: Option<TimeNs> = None;
            for rec in &thread.records {
                let entry = phases.entry(current).or_default();
                match rec.kind {
                    EventKind::Marker { id } => {
                        entry.compute += rec.time.saturating_since(resume);
                        resume = rec.time;
                        current = id;
                    }
                    EventKind::ThreadBegin => resume = rec.time,
                    EventKind::BarrierEnter { .. } => {
                        entry.compute += rec.time.saturating_since(resume);
                        entry.barriers += 1;
                        barrier_enter = Some(rec.time);
                    }
                    EventKind::BarrierExit { .. } => {
                        if let Some(enter) = barrier_enter.take() {
                            entry.barrier_wait += rec.time.saturating_since(enter);
                        }
                        resume = rec.time;
                    }
                    EventKind::RemoteRead { actual_bytes, .. }
                    | EventKind::RemoteWrite { actual_bytes, .. } => {
                        entry.remote_accesses += 1;
                        entry.actual_bytes += u64::from(actual_bytes);
                    }
                    EventKind::ThreadEnd => {
                        entry.compute += rec.time.saturating_since(resume);
                        resume = rec.time;
                    }
                }
            }

            let mut s = ThreadStats {
                events: thread.records.len(),
                end_time: thread.end_time(),
                ..ThreadStats::default()
            };
            let mut resume = TimeNs::ZERO;
            let mut barrier_enter: Option<TimeNs> = None;
            for r in &thread.records {
                match r.kind {
                    EventKind::BarrierEnter { .. } => {
                        s.barriers += 1;
                        s.compute += r.time.saturating_since(resume);
                        barrier_enter = Some(r.time);
                    }
                    EventKind::BarrierExit { .. } => {
                        if let Some(enter) = barrier_enter.take() {
                            s.barrier_wait += r.time.saturating_since(enter);
                        }
                        resume = r.time;
                    }
                    EventKind::RemoteRead {
                        declared_bytes,
                        actual_bytes,
                        ..
                    } => {
                        s.remote_reads += 1;
                        s.declared_bytes += u64::from(declared_bytes);
                        s.actual_bytes += u64::from(actual_bytes);
                    }
                    EventKind::RemoteWrite {
                        declared_bytes,
                        actual_bytes,
                        ..
                    } => {
                        s.remote_writes += 1;
                        s.declared_bytes += u64::from(declared_bytes);
                        s.actual_bytes += u64::from(actual_bytes);
                    }
                    EventKind::ThreadBegin => resume = r.time,
                    EventKind::ThreadEnd => {
                        s.compute += r.time.saturating_since(resume);
                        resume = r.time;
                    }
                    EventKind::Marker { .. } => {}
                }
            }
            per_thread.push(s);
        }
        (phases, per_thread)
    }

    /// Random sets with markers anywhere (inside barriers, before the
    /// begin, after the end) and clocks that may run backwards, folded
    /// with threads interleaved at random, equal the oracle exactly.
    #[test]
    fn fold_matches_the_reference_walks_on_any_records() {
        use crate::event::{ThreadTrace, TraceRecord};
        use extrap_time::{BarrierId, ElementId, ThreadId};
        let mut rng = 7u64;
        for case in 0..300 {
            let n_threads = 1 + (splitmix64(&mut rng) % 4) as usize;
            let threads: Vec<ThreadTrace> = (0..n_threads)
                .map(|t| {
                    let len = (splitmix64(&mut rng) % 24) as usize;
                    let mut time = 0u64;
                    let records = (0..len)
                        .map(|_| {
                            let r = splitmix64(&mut rng);
                            time = if r.is_multiple_of(11) {
                                time.saturating_sub(r % 50)
                            } else {
                                time + r % 97
                            };
                            let bytes = (r >> 8) as u32 % 4096;
                            let kind = match (r >> 20) % 8 {
                                0 => EventKind::ThreadBegin,
                                1 => EventKind::ThreadEnd,
                                2 => EventKind::BarrierEnter {
                                    barrier: BarrierId(0),
                                },
                                3 => EventKind::BarrierExit {
                                    barrier: BarrierId(0),
                                },
                                4 => EventKind::Marker {
                                    id: (r >> 32) as u32 % 3,
                                },
                                5 | 6 => EventKind::RemoteRead {
                                    owner: ThreadId(0),
                                    element: ElementId(0),
                                    declared_bytes: bytes * 2,
                                    actual_bytes: bytes,
                                },
                                _ => EventKind::RemoteWrite {
                                    owner: ThreadId(0),
                                    element: ElementId(0),
                                    declared_bytes: bytes * 3,
                                    actual_bytes: bytes,
                                },
                            };
                            TraceRecord {
                                time: TimeNs(time),
                                thread: ThreadId::from_index(t),
                                kind,
                            }
                        })
                        .collect();
                    ThreadTrace {
                        thread: ThreadId::from_index(t),
                        records,
                    }
                })
                .collect();
            let set = TraceSet { threads };
            let (phases, per_thread) = reference(&set);
            assert_eq!(
                crate::TraceStats::from_set(&set).per_thread,
                per_thread,
                "case {case}"
            );

            let mut cursors = vec![0usize; n_threads];
            let mut fold = PhaseFold::default();
            while let Some(t) = {
                let open: Vec<usize> = (0..n_threads)
                    .filter(|&t| cursors[t] < set.threads[t].records.len())
                    .collect();
                (!open.is_empty())
                    .then(|| open[(splitmix64(&mut rng) % open.len() as u64) as usize])
            } {
                fold.record(t, &set.threads[t].records[cursors[t]]);
                cursors[t] += 1;
            }
            assert_eq!(fold.into_profiles(), phases, "case {case}");
        }
    }

    #[test]
    fn splitmix64_is_stable() {
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn unmarked_trace_is_all_prelude() {
        let mut p = crate::builder::PhaseProgram::new(2);
        p.push_uniform_phase(DurationNs(500));
        let ts = crate::translate(&p.record(), Default::default()).unwrap();
        let profiles = PhaseFold::from_set(&ts).into_profiles();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[&PRELUDE].compute, DurationNs(1_000));
        assert_eq!(profiles[&PRELUDE].barriers, 2);
    }
}
