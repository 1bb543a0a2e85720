//! The streaming lint path must be **byte-identical** (text and JSON
//! renderers) to the whole-trace path — on the shipped example traces,
//! and on every corruption class from the fixture battery re-encoded to
//! bytes.  Also pins the streaming memory bound: resident analysis
//! state must grow neither with the record count nor with the number of
//! barrier epochs, and reused tables must stay counted.

use extrap_lint::{
    lint_program, lint_program_stream, lint_set, lint_set_stream, lint_trace_file, render_json,
    render_text, Report, StreamLinter,
};
use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId, TimeNs};
use extrap_trace::stream::{ProgramStream, SetStream, SliceSource};
use extrap_trace::{
    format, translate, EventKind, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace, TraceRecord,
    TraceSet,
};
use std::path::PathBuf;

/// Deliberately awkward window/chunk sizes so every comparison crosses
/// refill and chunk boundaries mid-record.
const GEOMETRIES: &[(usize, usize)] = &[(7, 3), (64, 1), (4096, 4096)];

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/traces")
        .join(name)
}

fn assert_same_renders(whole: &Report, stream: &Report, what: &str) {
    assert_eq!(
        render_text(whole),
        render_text(stream),
        "text render differs: {what}"
    );
    assert_eq!(
        render_json(whole),
        render_json(stream),
        "json render differs: {what}"
    );
}

fn check_program_bytes(bytes: &[u8], what: &str) {
    let whole = lint_program(&format::decode_program_raw(bytes).unwrap());
    for &(window, chunk) in GEOMETRIES {
        let mut s = ProgramStream::with_options(SliceSource(bytes), window, chunk).unwrap();
        let stream = lint_program_stream(&mut s).unwrap();
        assert_same_renders(
            &whole,
            &stream,
            &format!("{what} (window {window}, chunk {chunk})"),
        );
    }
}

fn check_set_bytes(bytes: &[u8], what: &str) {
    let whole = lint_set(&format::decode_set_raw(bytes).unwrap());
    for &(window, chunk) in GEOMETRIES {
        let mut s = SetStream::with_options(SliceSource(bytes), window, chunk).unwrap();
        let stream = lint_set_stream(&mut s).unwrap();
        assert_same_renders(
            &whole,
            &stream,
            &format!("{what} (window {window}, chunk {chunk})"),
        );
    }
}

fn check_program(pt: &ProgramTrace, what: &str) {
    check_program_bytes(&format::encode_program(pt), what);
}

fn check_set(ts: &TraceSet, what: &str) {
    check_set_bytes(&format::encode_set(ts), what);
}

// ---- fixture-battery corruptions (mirrors tests/corrupted_fixtures.rs) ----

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

fn clean_program() -> ProgramTrace {
    let mut p = PhaseProgram::new(2);
    p.push_uniform_phase(DurationNs(100));
    p.push_uniform_phase(DurationNs(40));
    p.record()
}

fn clean_set() -> TraceSet {
    translate(&clean_program(), Default::default()).unwrap()
}

#[test]
fn example_traces_lint_identically() {
    for name in ["grid4.xtrp", "corrupt_time.xtrp"] {
        let bytes = std::fs::read(example(name)).unwrap();
        check_program_bytes(&bytes, name);
    }
    let bytes = std::fs::read(example("grid4.xtps")).unwrap();
    check_set_bytes(&bytes, "grid4.xtps");
}

#[test]
fn lint_trace_file_matches_whole_trace_path() {
    for name in ["grid4.xtrp", "corrupt_time.xtrp"] {
        let bytes = std::fs::read(example(name)).unwrap();
        let whole = lint_program(&format::decode_program_raw(&bytes).unwrap());
        let report = lint_trace_file(example(name)).unwrap().unwrap();
        assert_same_renders(&whole, &report, name);
    }
    let bytes = std::fs::read(example("grid4.xtps")).unwrap();
    let whole = lint_set(&format::decode_set_raw(&bytes).unwrap());
    let report = lint_trace_file(example("grid4.xtps")).unwrap().unwrap();
    assert_same_renders(&whole, &report, "grid4.xtps");
    // Not a trace: the caller gets None, not an error.
    assert!(lint_trace_file(example("cm5.cfg")).unwrap().is_none());
}

#[test]
fn corrupted_program_fixtures_lint_identically() {
    check_program(&clean_program(), "clean program");

    let mut e001 = clean_program();
    e001.records[2].time = TimeNs::ZERO;
    check_program(&e001, "e001 global time regression");

    let mut e003 = clean_program();
    let t = e003.records[2].time;
    e003.records.insert(
        3,
        TraceRecord {
            time: t,
            thread: ThreadId(9),
            kind: EventKind::Marker { id: 7 },
        },
    );
    check_program(&e003, "e003 bad thread id");

    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        work(100, vec![access(9, 5, false)]),
        work(100, vec![]),
    ]);
    check_program(&p.record(), "e006 dangling owner");

    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        work(100, vec![access(2, 5, false)]),
        work(100, vec![access(0, 5, false)]),
        work(100, vec![]),
    ]);
    check_program(&p.record(), "e006 inconsistent ownership");

    let mut p = PhaseProgram::new(3);
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
    check_program(&p.record(), "e006 redistribution (clean)");

    let mut w001 = clean_program();
    let t_end = w001.records.last().unwrap().time;
    for (thread, id) in [(0, 1), (1, 2)] {
        w001.records.push(TraceRecord {
            time: t_end,
            thread: ThreadId(thread),
            kind: EventKind::Marker { id },
        });
    }
    check_program(&w001, "w001 marker mismatch");

    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        work(100, vec![access(0, 4, false)]),
        work(100, vec![]),
    ]);
    check_program(&p.record(), "w002 self remote access");

    let mut w003 = ProgramTrace::new(2);
    w003.records.push(TraceRecord {
        time: TimeNs::ZERO,
        thread: ThreadId(0),
        kind: EventKind::ThreadBegin,
    });
    w003.records.push(TraceRecord {
        time: TimeNs(10),
        thread: ThreadId(0),
        kind: EventKind::ThreadEnd,
    });
    check_program(&w003, "w003 missing frame");
}

#[test]
fn corrupted_set_fixtures_lint_identically() {
    check_set(&clean_set(), "clean set");

    let mut e002 = clean_set();
    let last = e002.threads[1].records.len() - 1;
    e002.threads[1].records[last].time = TimeNs::ZERO;
    check_set(&e002, "e002 thread time regression");

    let mut e004 = clean_set();
    let pos = e004.threads[1]
        .records
        .iter()
        .position(
            |r| matches!(r.kind, EventKind::BarrierExit { barrier } if barrier == BarrierId(0)),
        )
        .unwrap();
    e004.threads[1].records.remove(pos);
    check_set(&e004, "e004 unmatched barrier");

    let mut e005 = clean_set();
    e005.threads[1].records.retain(
        |r| !matches!(r.kind, EventKind::BarrierEnter { barrier } | EventKind::BarrierExit { barrier } if barrier == BarrierId(1)),
    );
    check_set(&e005, "e005 barrier mismatch");

    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        work(100, vec![access(2, 9, true)]),
        work(100, vec![access(2, 9, false)]),
        work(100, vec![]),
    ]);
    let e007 = translate(&p.record(), Default::default()).unwrap();
    check_set(&e007, "e007 causality violation");

    let mut p = PhaseProgram::new(3);
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
    let ordered = translate(&p.record(), Default::default()).unwrap();
    check_set(&ordered, "e007 barrier-separated (clean)");

    let mut e009 = clean_set();
    e009.threads[1].records[1].thread = ThreadId(0);
    check_set(&e009, "e009 misplaced thread");
}

/// Builds a program whose record count scales with `reads` while its
/// *structure* (threads, barriers, distinct elements) stays fixed — the
/// shape under which streaming lint memory must stay flat.
fn wide_program(reads: usize) -> ProgramTrace {
    let threads = 4usize;
    let mut p = PhaseProgram::new(threads);
    for _ in 0..3 {
        let phase: Vec<PhaseWork> = (0..threads)
            .map(|t| {
                let owner = ((t + 1) % threads) as u32;
                // Every access targets the element named after its owner,
                // so ownership stays consistent and no diagnostics fire.
                work(
                    100,
                    (0..reads).map(|_| access(owner, owner, false)).collect(),
                )
            })
            .collect();
        p.push_phase(phase);
    }
    p.record()
}

#[test]
fn streaming_memory_is_bounded_by_structure_not_records() {
    let probe = |pt: &ProgramTrace| -> (usize, usize) {
        let mut lt = StreamLinter::for_program(pt.n_threads);
        for r in &pt.records {
            lt.record(r);
        }
        let peak = lt.peak_resident_bytes();
        let report = lt.finish();
        assert!(report.is_clean(), "probe trace must lint clean");
        (peak, pt.records.len())
    };
    let (small_peak, small_len) = probe(&wide_program(20));
    let (big_peak, big_len) = probe(&wide_program(220));
    assert!(
        big_len >= small_len * 9,
        "probe traces must differ by ~10x in record count"
    );
    // Equal structure => equal resident state; allow slack for the
    // collection growth policies, but nothing near the 10x data growth.
    assert!(
        big_peak <= small_peak * 2,
        "streaming lint state grew with record count: {small_peak} -> {big_peak} \
         bytes for {small_len} -> {big_len} records"
    );
}

/// Builds a program whose barrier-epoch count scales with `epochs` while
/// its threads and the elements each epoch touches stay fixed: every
/// thread reads four elements its neighbour owns and writes one of its
/// own there, so the trace lints clean and each epoch holds 40 cells.
fn long_program(epochs: usize) -> ProgramTrace {
    let threads = 8u32;
    let mut p = PhaseProgram::new(threads as usize);
    for _ in 0..epochs {
        let phase: Vec<PhaseWork> = (0..threads)
            .map(|t| {
                let owner = (t + 1) % threads;
                let mut accesses: Vec<PhaseAccess> = (0..4)
                    .map(|k| access(owner, owner * 64 + k, false))
                    .collect();
                accesses.push(access(owner, owner * 64 + 8 + t, true));
                for (i, a) in accesses.iter_mut().enumerate() {
                    a.after = DurationNs(10 * (i as u64 + 1));
                }
                work(100, accesses)
            })
            .collect();
        p.push_phase(phase);
    }
    p.record()
}

#[test]
fn streaming_memory_is_bounded_by_live_epochs_not_epoch_count() {
    let probe = |pt: &ProgramTrace| -> usize {
        let mut lt = StreamLinter::for_program(pt.n_threads);
        for r in &pt.records {
            lt.record(r);
        }
        let peak = lt.peak_resident_bytes();
        assert!(lt.finish().is_clean(), "probe trace must lint clean");
        peak
    };
    let (short, long) = (long_program(12), long_program(120));
    assert!(long.records.len() >= short.records.len() * 9);
    let (small_peak, big_peak) = (probe(&short), probe(&long));
    // Pruned epochs' tables are reused, so ten times the epochs must not
    // mean ten times the tables.
    assert!(
        big_peak <= small_peak * 2,
        "streaming lint state grew with epoch count: {small_peak} -> {big_peak} bytes \
         for 12 -> 120 epochs"
    );
}

#[test]
fn reused_tables_stay_counted_at_their_capacity() {
    // One wide epoch (every thread touches 256 elements), then narrow
    // ones: the wide epoch's table is cleared and reused, and its
    // capacity must stay in `resident_bytes` rather than vanish.
    let threads = 4u32;
    let mut p = PhaseProgram::new(threads as usize);
    p.push_phase(
        (0..threads)
            .map(|t| {
                let owner = (t + 1) % threads;
                let accesses = (0..256)
                    .map(|k| PhaseAccess {
                        after: DurationNs(k as u64),
                        ..access(owner, owner * 1024 + k, false)
                    })
                    .collect();
                work(1_000, accesses)
            })
            .collect(),
    );
    for _ in 0..8 {
        p.push_uniform_phase(DurationNs(100));
    }
    let pt = p.record();
    // The last thread's first barrier enter prunes the wide epoch.
    let prune = pt
        .records
        .iter()
        .position(|r| {
            r.thread == ThreadId(threads - 1) && matches!(r.kind, EventKind::BarrierEnter { .. })
        })
        .unwrap();
    let mut lt = StreamLinter::for_program(pt.n_threads);
    let mut wide = 0;
    for (i, r) in pt.records.iter().enumerate() {
        if i == prune {
            wide = lt.resident_bytes();
        }
        lt.record(r);
    }
    let after = lt.resident_bytes();
    let narrow = {
        let mut lt = StreamLinter::for_program(pt.n_threads);
        for r in &clean_program().records {
            lt.record(r);
        }
        lt.peak_resident_bytes()
    };
    assert!(
        wide > narrow * 4,
        "the wide epoch must show in resident state: {wide} vs {narrow}"
    );
    assert!(
        after >= wide,
        "reused tables must keep counting: {wide} bytes while epoch 0 was live, \
         {after} after it was pruned"
    );
    assert!(lt.finish().is_clean());
}
