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
//! Barrier epochs are fingerprinted and clustered from compiled op
//! scripts in `extrap_core::repr`, which also renders the full
//! `extrap stats` report around [`render`].

use crate::event::{EventKind, TraceSet};
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

/// Splits the trace into per-marker phases and profiles each.
pub fn phase_profiles(set: &TraceSet) -> BTreeMap<u32, PhaseProfile> {
    let mut phases: BTreeMap<u32, PhaseProfile> = BTreeMap::new();
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
    }
    phases
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
        let profiles = phase_profiles(&ts);
        assert_eq!(profiles.len(), 3);
        assert_eq!(profiles[&PRELUDE].compute, DurationNs(100));
        assert_eq!(profiles[&1].compute, DurationNs(200));
        assert_eq!(profiles[&1].barriers, 1);
        assert_eq!(profiles[&2].compute, DurationNs(300));
    }

    #[test]
    fn render_includes_each_phase() {
        let ts = crate::translate(&marked_program(), Default::default()).unwrap();
        let text = render(&phase_profiles(&ts));
        assert!(text.contains("prelude"));
        assert!(text.lines().count() >= 4);
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
        let profiles = phase_profiles(&ts);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[&PRELUDE].compute, DurationNs(1_000));
        assert_eq!(profiles[&PRELUDE].barriers, 2);
    }
}
