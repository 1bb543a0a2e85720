//! One fixture per diagnostic code: each seeded corruption class must
//! fire its code **exactly once** and nothing else — the codes are the
//! tool's contract, so a corruption that trips three codes at once (or a
//! clean trace that trips any) is a linter bug.

use extrap_lint::{lint_params, lint_program, lint_set, Code, Report};
use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId, TimeNs};
use extrap_trace::{
    translate, EventKind, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace, TraceRecord, TraceSet,
};

fn access(owner: u32, element: u32, write: bool) -> PhaseAccess {
    PhaseAccess {
        after: DurationNs(10),
        owner: ThreadId(owner),
        element: ElementId(element),
        declared_bytes: 8,
        actual_bytes: 8,
        write,
    }
}

fn work(compute_ns: u64, accesses: Vec<PhaseAccess>) -> PhaseWork {
    PhaseWork {
        compute: DurationNs(compute_ns),
        accesses,
    }
}

/// A clean two-phase, two-thread program (the uncorrupted baseline).
fn clean_program() -> ProgramTrace {
    let mut p = PhaseProgram::new(2);
    p.push_uniform_phase(DurationNs(100));
    p.push_uniform_phase(DurationNs(40));
    p.record()
}

fn clean_set() -> TraceSet {
    translate(&clean_program(), Default::default()).unwrap()
}

/// Asserts the report contains exactly one diagnostic, carrying `code`.
fn assert_fires_exactly_once(report: &Report, code: Code) {
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly one diagnostic, got: {:#?}",
        report.diagnostics
    );
    assert_eq!(report.diagnostics[0].code, code);
}

#[test]
fn clean_fixtures_are_clean() {
    assert!(lint_program(&clean_program()).is_clean());
    assert!(lint_set(&clean_set()).is_clean());
    assert!(lint_params(&extrap_core::SimParams::default()).is_clean());
}

#[test]
fn e001_global_time_regression() {
    let mut pt = clean_program();
    assert!(pt.records[2].time > TimeNs::ZERO, "need room to dip");
    pt.records[2].time = TimeNs::ZERO;
    let report = lint_program(&pt);
    assert_fires_exactly_once(&report, Code::E001GlobalTimeRegression);
    assert_eq!(report.diagnostics[0].span.record, Some(2));
}

#[test]
fn e002_thread_time_regression() {
    let mut ts = clean_set();
    let last = ts.threads[1].records.len() - 1;
    ts.threads[1].records[last].time = TimeNs::ZERO;
    let report = lint_set(&ts);
    assert_fires_exactly_once(&report, Code::E002ThreadTimeRegression);
    assert_eq!(report.diagnostics[0].span.thread, Some(ThreadId(1)));
}

#[test]
fn e003_bad_thread_id() {
    let mut pt = clean_program();
    // An extra event attributed to a thread the trace does not declare.
    let t = pt.records[2].time;
    pt.records.insert(
        3,
        TraceRecord {
            time: t,
            thread: ThreadId(9),
            kind: EventKind::Marker { id: 7 },
        },
    );
    let report = lint_program(&pt);
    assert_fires_exactly_once(&report, Code::E003BadThreadId);
}

#[test]
fn e004_unmatched_barrier() {
    let mut ts = clean_set();
    // Drop thread 1's first barrier *exit*: its entries now nest.
    let pos = ts.threads[1]
        .records
        .iter()
        .position(
            |r| matches!(r.kind, EventKind::BarrierExit { barrier } if barrier == BarrierId(0)),
        )
        .unwrap();
    ts.threads[1].records.remove(pos);
    let report = lint_set(&ts);
    assert_fires_exactly_once(&report, Code::E004BarrierProtocol);
    assert_eq!(report.diagnostics[0].span.thread, Some(ThreadId(1)));
}

#[test]
fn e005_barrier_count_mismatch_static_deadlock() {
    let mut ts = clean_set();
    // Thread 1 skips its second barrier entirely (enter and exit), so the
    // other thread would wait forever.
    ts.threads[1].records.retain(
        |r| !matches!(r.kind, EventKind::BarrierEnter { barrier } | EventKind::BarrierExit { barrier } if barrier == BarrierId(1)),
    );
    let report = lint_set(&ts);
    assert_fires_exactly_once(&report, Code::E005BarrierMismatch);
    assert!(report.diagnostics[0].message.contains("deadlock"));
}

#[test]
fn e006_dangling_element_owner() {
    let mut p = PhaseProgram::new(2);
    // Thread 0 reads an element owned by a thread that does not exist.
    p.push_phase(vec![
        work(100, vec![access(9, 5, false)]),
        work(100, vec![]),
    ]);
    let report = lint_program(&p.record());
    assert_fires_exactly_once(&report, Code::E006DanglingElement);
}

#[test]
fn e006_inconsistent_element_ownership() {
    let mut p = PhaseProgram::new(3);
    // Two accesses in the SAME barrier epoch name different owners for
    // element 5.  (Across epochs this is fine — redistribution.)
    p.push_phase(vec![
        work(100, vec![access(2, 5, false)]),
        work(100, vec![access(0, 5, false)]),
        work(100, vec![]),
    ]);
    let report = lint_program(&p.record());
    assert_fires_exactly_once(&report, Code::E006DanglingElement);
    assert!(report.diagnostics[0].message.contains("inconsistent"));
}

#[test]
fn e006_redistribution_across_epochs_is_clean() {
    let mut p = PhaseProgram::new(3);
    // The same element changes owner between epochs: a legitimate
    // redistribution (mgrid reuses element ids across levels), not E006.
    p.push_phase(vec![
        work(100, vec![access(2, 5, false)]),
        work(100, vec![]),
        work(100, vec![]),
    ]);
    p.push_phase(vec![
        work(40, vec![access(1, 5, false)]),
        work(40, vec![]),
        work(40, vec![]),
    ]);
    assert!(lint_program(&p.record()).is_clean());
}

#[test]
fn e007_causality_violation() {
    // Thread 0 writes element 9 (owned by thread 2) while thread 1 reads
    // or writes it in the same barrier epoch: concurrent under the
    // collapsed vector clock, so the §3.2 translation does not preserve
    // causality.
    for second_writes in [false, true] {
        let mut p = PhaseProgram::new(3);
        p.push_phase(vec![
            work(100, vec![access(2, 9, true)]),
            work(100, vec![access(2, 9, second_writes)]),
            work(100, vec![]),
        ]);
        let ts = translate(&p.record(), Default::default()).unwrap();
        let report = lint_set(&ts);
        assert_fires_exactly_once(&report, Code::E007CausalityViolation);
        assert!(report.diagnostics[0].message.contains("epoch 0"));
    }
}

#[test]
fn e007_barrier_separated_accesses_are_ordered() {
    let mut p = PhaseProgram::new(3);
    // Same element, but the write and the read are in different epochs:
    // the barrier provides the happens-before edge, so no E007.
    p.push_phase(vec![
        work(100, vec![access(2, 3, true)]),
        work(100, vec![]),
        work(100, vec![]),
    ]);
    p.push_phase(vec![
        work(40, vec![]),
        work(40, vec![access(2, 3, false)]),
        work(40, vec![]),
    ]);
    let ts = translate(&p.record(), Default::default()).unwrap();
    assert!(lint_set(&ts).is_clean());
}

#[test]
fn e008_param_out_of_range() {
    let params = extrap_core::SimParams {
        mips_ratio: 0.0,
        ..Default::default()
    };
    let report = lint_params(&params);
    assert_fires_exactly_once(&report, Code::E008ParamOutOfRange);
}

#[test]
fn e008_reports_every_violation_not_just_the_first() {
    let mut params = extrap_core::SimParams {
        mips_ratio: -1.0,
        ..Default::default()
    };
    params.network.contention.alpha = f64::NAN;
    params.barrier.algorithm = extrap_core::BarrierAlgorithm::Tree { arity: 1 };
    let report = lint_params(&params);
    assert_eq!(report.with_code(Code::E008ParamOutOfRange).len(), 3);
}

#[test]
fn e009_misplaced_thread() {
    let mut ts = clean_set();
    // One of thread 1's records claims to belong to thread 0.
    ts.threads[1].records[1].thread = ThreadId(0);
    let report = lint_set(&ts);
    assert_fires_exactly_once(&report, Code::E009MisplacedThread);
}

#[test]
fn w001_marker_mismatch() {
    let mut pt = clean_program();
    // Thread 0 passes phase marker 1; thread 1 passes marker 2.
    let t_end = pt.records.last().unwrap().time;
    pt.records.push(TraceRecord {
        time: t_end,
        thread: ThreadId(0),
        kind: EventKind::Marker { id: 1 },
    });
    pt.records.push(TraceRecord {
        time: t_end,
        thread: ThreadId(1),
        kind: EventKind::Marker { id: 2 },
    });
    let report = lint_program(&pt);
    // The trailing markers also unbalance the thread frames (W003); only
    // the marker disagreement itself must be W001, exactly once.
    assert_eq!(report.with_code(Code::W001MarkerMismatch).len(), 1);
    assert!(!report.has_errors());
}

#[test]
fn w002_self_remote_access() {
    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        work(100, vec![access(0, 4, false)]),
        work(100, vec![]),
    ]);
    let report = lint_program(&p.record());
    assert_fires_exactly_once(&report, Code::W002SelfRemoteAccess);
}

#[test]
fn w003_missing_thread_frame() {
    let mut pt = ProgramTrace::new(2);
    pt.records.push(TraceRecord {
        time: TimeNs::ZERO,
        thread: ThreadId(0),
        kind: EventKind::ThreadBegin,
    });
    pt.records.push(TraceRecord {
        time: TimeNs(10),
        thread: ThreadId(0),
        kind: EventKind::ThreadEnd,
    });
    // Thread 1 never appears.
    let report = lint_program(&pt);
    assert_fires_exactly_once(&report, Code::W003MissingThreadFrame);
    assert_eq!(report.diagnostics[0].span.thread, Some(ThreadId(1)));
}

#[test]
fn w004_suspicious_param_combination() {
    let mut params = extrap_core::SimParams::default();
    params.network.contention.alpha = 0.0; // enabled, but a no-op
    let report = lint_params(&params);
    assert_fires_exactly_once(&report, Code::W004ParamSuspicious);
}
