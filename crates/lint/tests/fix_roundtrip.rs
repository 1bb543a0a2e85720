//! Round-trip properties of the fix engine:
//!
//! * traces carrying only **fixable** corruption (timestamp dips of
//!   non-sync records, out-of-range thread ids, dangling or
//!   inconsistent element owners, missing frames) come back error-free,
//!   and re-fixing the output changes nothing (idempotence);
//! * traces carrying only **unfixable** corruption come back untouched,
//!   with the errors still present for the caller to refuse on.
//!
//! Driven by `SplitMix64::cases` instead of `proptest` (crates.io is
//! unreachable in the build environment).

use extrap_lint::{fix_program, fix_set, lint_program, lint_set};
use extrap_time::{BarrierId, DurationNs, ElementId, SplitMix64, ThreadId, TimeNs};
use extrap_trace::{
    translate, EventKind, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace, TraceRecord, TraceSet,
};

const CASES: u64 = 128;

fn base_program() -> ProgramTrace {
    let mut p = PhaseProgram::new(3);
    p.push_uniform_phase(DurationNs(100));
    p.push_uniform_phase(DurationNs(40));
    p.push_uniform_phase(DurationNs(70));
    p.record()
}

fn base_set() -> TraceSet {
    translate(&base_program(), Default::default()).unwrap()
}

/// Dips the timestamp of one random *non-sync* record.  Sync records
/// are excluded deliberately: re-sorting a barrier event across its
/// partner is exactly the unfixable (`E004`) case.
fn dip_non_sync(rng: &mut SplitMix64, records: &mut [TraceRecord]) {
    let candidates: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.kind.is_sync() && r.time > TimeNs::ZERO)
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let i = candidates[rng.range(0, candidates.len() as u64) as usize];
    records[i].time = TimeNs(rng.range(0, records[i].time.0));
}

/// Inserts a record referencing a thread the trace does not declare.
fn insert_bad_thread(rng: &mut SplitMix64, records: &mut Vec<TraceRecord>, n_threads: usize) {
    let at = rng.range(0, records.len() as u64 + 1) as usize;
    let time = records
        .get(at.saturating_sub(1))
        .map(|r| r.time)
        .unwrap_or(TimeNs::ZERO);
    records.insert(
        at,
        TraceRecord {
            time,
            thread: ThreadId((n_threads as u32) + rng.range(0, 5) as u32),
            kind: EventKind::Marker {
                id: rng.next_u64() as u32,
            },
        },
    );
}

/// Inserts a remote access naming an out-of-range owner.
fn insert_dangling_access(
    rng: &mut SplitMix64,
    records: &mut Vec<TraceRecord>,
    n_threads: usize,
    thread: ThreadId,
) {
    let at = rng.range(0, records.len() as u64 + 1) as usize;
    let time = records
        .get(at.saturating_sub(1))
        .map(|r| r.time)
        .unwrap_or(TimeNs::ZERO);
    records.insert(
        at,
        TraceRecord {
            time,
            thread,
            kind: EventKind::RemoteRead {
                owner: ThreadId((n_threads as u32) + 1 + rng.range(0, 4) as u32),
                element: ElementId(rng.range(0, 16) as u32),
                declared_bytes: 64,
                actual_bytes: 8,
            },
        },
    );
}

/// Removes one thread's frame records (its begins and/or ends).
fn tear_frame(rng: &mut SplitMix64, records: &mut Vec<TraceRecord>, thread: ThreadId) {
    let which = rng.range(0, 3);
    records.retain(|r| {
        if r.thread != thread {
            return true;
        }
        match r.kind {
            EventKind::ThreadBegin => which == 1,
            EventKind::ThreadEnd => which == 0,
            _ => true,
        }
    });
}

#[test]
fn fixable_program_corruptions_fix_clean_and_idempotent() {
    for mut rng in SplitMix64::cases(0xF1_0001, CASES) {
        let mut pt = base_program();
        for _ in 0..rng.range(1, 4) {
            match rng.range(0, 4) {
                0 => dip_non_sync(&mut rng, &mut pt.records),
                1 => insert_bad_thread(&mut rng, &mut pt.records, pt.n_threads),
                2 => {
                    let t = ThreadId(rng.range(0, pt.n_threads as u64) as u32);
                    insert_dangling_access(&mut rng, &mut pt.records, pt.n_threads, t);
                }
                _ => {
                    let t = ThreadId(rng.range(0, pt.n_threads as u64) as u32);
                    tear_frame(&mut rng, &mut pt.records, t);
                }
            }
        }
        let once = fix_program(&pt);
        let report = lint_program(&once.value);
        assert!(
            !report.has_errors(),
            "errors survive the fixer: {:?}\nnotes: {:?}",
            report.diagnostics,
            once.notes
        );
        let twice = fix_program(&once.value);
        assert!(!twice.changed(), "fix not idempotent: {:?}", twice.notes);
        assert_eq!(twice.value, once.value);
    }
}

#[test]
fn fixable_set_corruptions_fix_clean_and_idempotent() {
    for mut rng in SplitMix64::cases(0xF1_0002, CASES) {
        let mut ts = base_set();
        let n = ts.threads.len();
        for _ in 0..rng.range(1, 4) {
            let seg = rng.range(0, n as u64) as usize;
            let thread = ts.threads[seg].thread;
            match rng.range(0, 3) {
                0 => dip_non_sync(&mut rng, &mut ts.threads[seg].records),
                1 => insert_dangling_access(&mut rng, &mut ts.threads[seg].records, n, thread),
                _ => tear_frame(&mut rng, &mut ts.threads[seg].records, thread),
            }
        }
        let once = fix_set(&ts);
        let report = lint_set(&once.value);
        assert!(
            !report.has_errors(),
            "errors survive the fixer: {:?}\nnotes: {:?}",
            report.diagnostics,
            once.notes
        );
        let twice = fix_set(&once.value);
        assert!(!twice.changed(), "fix not idempotent: {:?}", twice.notes);
        assert_eq!(twice.value, once.value);
    }
}

#[test]
fn inconsistent_ownership_is_repaired_by_dropping_later_claims() {
    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs(100),
            accesses: vec![PhaseAccess {
                after: DurationNs(10),
                owner: ThreadId(2),
                element: ElementId(5),
                declared_bytes: 8,
                actual_bytes: 8,
                write: false,
            }],
        },
        PhaseWork {
            compute: DurationNs(100),
            accesses: vec![PhaseAccess {
                after: DurationNs(10),
                owner: ThreadId(0),
                element: ElementId(5),
                declared_bytes: 8,
                actual_bytes: 8,
                write: false,
            }],
        },
        PhaseWork {
            compute: DurationNs(100),
            accesses: vec![],
        },
    ]);
    let pt = p.record();
    assert!(lint_program(&pt).has_errors());
    let out = fix_program(&pt);
    assert!(out.changed());
    assert!(!lint_program(&out.value).has_errors());
    assert_eq!(out.value.records.len(), pt.records.len() - 1);
}

#[test]
fn unfixable_corruptions_leave_the_trace_untouched() {
    // E009: segments swapped.
    let mut swapped = base_set();
    swapped.threads.swap(0, 1);
    let out = fix_set(&swapped);
    assert!(!out.changed());
    assert_eq!(out.value, swapped);
    assert!(lint_set(&out.value).has_errors());

    // E005: one thread skips a barrier.
    let mut deadlock = base_set();
    deadlock.threads[1].records.retain(
        |r| !matches!(r.kind, EventKind::BarrierEnter { barrier } | EventKind::BarrierExit { barrier } if barrier == BarrierId(1)),
    );
    let out = fix_set(&deadlock);
    assert!(!out.changed());
    assert_eq!(out.value, deadlock);
    assert!(lint_set(&out.value).has_errors());

    // E004: a barrier exit vanished.
    let mut unmatched = base_set();
    let pos = unmatched.threads[1]
        .records
        .iter()
        .position(|r| matches!(r.kind, EventKind::BarrierExit { .. }))
        .unwrap();
    unmatched.threads[1].records.remove(pos);
    let out = fix_set(&unmatched);
    assert!(!out.changed());
    assert_eq!(out.value, unmatched);
    assert!(lint_set(&out.value).has_errors());

    // E007: a same-epoch write/read race.
    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs(100),
            accesses: vec![PhaseAccess {
                after: DurationNs(10),
                owner: ThreadId(2),
                element: ElementId(9),
                declared_bytes: 8,
                actual_bytes: 8,
                write: true,
            }],
        },
        PhaseWork {
            compute: DurationNs(100),
            accesses: vec![PhaseAccess {
                after: DurationNs(10),
                owner: ThreadId(2),
                element: ElementId(9),
                declared_bytes: 8,
                actual_bytes: 8,
                write: false,
            }],
        },
        PhaseWork {
            compute: DurationNs(100),
            accesses: vec![],
        },
    ]);
    let race = translate(&p.record(), Default::default()).unwrap();
    let out = fix_set(&race);
    assert!(!out.changed());
    assert_eq!(out.value, race);
    assert!(lint_set(&out.value).has_errors());
}
