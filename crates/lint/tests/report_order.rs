//! Report order across prune boundaries: `E006` and `E007` must come out
//! in the same order whether a race is decided when its epoch is pruned
//! (every thread has left it) or at the end of the stream, and never in
//! the order of any hash table.
//!
//! The trace has 72 threads and six barrier epochs with races in each.
//! Thread 1 stops entering barriers after the third, so epochs 0–2 are
//! decided as the stream leaves them and epochs 3–5 only when it ends;
//! while stuck it joins epoch 3's races below their other participants.
//! Racy elements are sparse high ids touched in descending order, next
//! to low ids, so neither insertion order nor any hash order matches
//! the numeric order the report uses.  The set shape carries the same
//! races (its epochs restart per segment and are never pruned).
//!
//! The goldens under `tests/golden/` were rendered by the earlier
//! implementation of these checks, which kept `(epoch, element)`-keyed
//! ordered maps, and must not change.

use extrap_lint::{
    lint_program, lint_program_stream, lint_set, lint_set_stream, render_json, render_text, Code,
    Report,
};
use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId};
use extrap_trace::stream::{ProgramStream, SetStream, SliceSource};
use extrap_trace::{
    format, translate, EventKind, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace, TraceRecord,
    TraceSet,
};

const THREADS: usize = 72;
const EPOCHS: usize = 6;
/// The thread that stops entering barriers, and the first barrier it
/// skips: epochs from `LAG_FROM` on stay live until the stream ends.
const LAGGER: usize = 1;
const LAG_FROM: usize = 3;

/// The `k`-th racy element of `epoch`: high, sparse, and descending in
/// `k` (the order the accesses arrive in).
fn racy_element(epoch: usize, k: usize) -> u32 {
    0xF000_0000 - (k as u32) * 0x0100_0000 - (epoch as u32) * 0x1_0001
}

fn access(owner: usize, element: u32, write: bool) -> (usize, ElementId, bool) {
    (owner, ElementId(element), write)
}

/// Per-thread access lists of one epoch, in the order each thread
/// issues them.
fn epoch_accesses(epoch: usize) -> Vec<Vec<(usize, ElementId, bool)>> {
    let mut per_thread: Vec<Vec<(usize, ElementId, bool)>> = vec![Vec::new(); THREADS];
    // Four racy elements: one writer, two readers, one owner nobody
    // else names.  Lower threads run first, so ids arrive descending.
    for k in 0..4 {
        let writer = (5 * epoch + 17 * k) % THREADS;
        let owner = (writer + 50) % THREADS;
        let element = racy_element(epoch, k);
        per_thread[writer].push(access(owner, element, true));
        for reader in [(writer + 1 + epoch) % THREADS, (writer + 30 + k) % THREADS] {
            per_thread[reader].push(access(owner, element, false));
        }
    }
    // Low ids after the high ones: a clean shared read, a race between
    // two writers, and a lone writer (one participant: no race).
    for t in (0..THREADS).step_by(9) {
        per_thread[t].push(access(THREADS - 3, 0x0001_0000 + epoch as u32, false));
    }
    let low = 1 + epoch as u32;
    per_thread[(epoch + 4) % THREADS].push(access(THREADS / 2, low, true));
    per_thread[(epoch + 40) % THREADS].push(access(THREADS / 2, low, true));
    per_thread[(epoch + 8) % THREADS].push(access(THREADS / 2, 0x00FF_0000 + low, true));
    // Epochs 1 and 4: an access naming a second owner (E006).
    if epoch == 1 || epoch == 4 {
        let writer = (5 * epoch) % THREADS;
        per_thread[(writer + 7) % THREADS].push(access(
            (writer + 51) % THREADS,
            racy_element(epoch, 0),
            false,
        ));
    }
    // Epoch 2: every thread reads one element thread 3 writes.
    if epoch == 2 {
        for (t, accesses) in per_thread.iter_mut().enumerate() {
            accesses.push(access(THREADS - 2, 0x7FFF_FFFF, t == 3));
        }
    }
    // Stuck in epoch `LAG_FROM`, the lagging thread reads that epoch's
    // racy elements again in every later phase, and in the last one
    // writes one: it arrives after the other writer but comes first in
    // view order, so it is the writer the report names.
    if epoch > LAG_FROM {
        for k in 0..4 {
            let owner = (5 * LAG_FROM + 17 * k + 50) % THREADS;
            let write = epoch == EPOCHS - 1 && k == 1;
            per_thread[LAGGER].push(access(owner, racy_element(LAG_FROM, k), write));
        }
    }
    per_thread
}

fn raw_program() -> ProgramTrace {
    let mut p = PhaseProgram::new(THREADS);
    for epoch in 0..EPOCHS {
        let phase = epoch_accesses(epoch)
            .into_iter()
            .map(|list| PhaseWork {
                compute: DurationNs(1_000),
                accesses: list
                    .into_iter()
                    .enumerate()
                    .map(|(i, (owner, element, write))| PhaseAccess {
                        after: DurationNs(10 * (i as u64 + 1)),
                        owner: ThreadId::from_index(owner),
                        element,
                        declared_bytes: 8,
                        actual_bytes: 8,
                        write,
                    })
                    .collect(),
            })
            .collect();
        p.push_phase(phase);
    }
    p.record()
}

/// Drops the lagging thread's barrier records from `LAG_FROM` on.
fn lag(records: &mut Vec<TraceRecord>) {
    records.retain(|r| {
        r.thread.index() != LAGGER
            || !matches!(
                r.kind,
                EventKind::BarrierEnter { barrier } | EventKind::BarrierExit { barrier }
                    if barrier >= BarrierId::from_index(LAG_FROM)
            )
    });
}

fn program() -> ProgramTrace {
    let mut pt = raw_program();
    lag(&mut pt.records);
    pt
}

fn set() -> TraceSet {
    let mut ts = translate(&raw_program(), Default::default()).unwrap();
    lag(&mut ts.threads[LAGGER].records);
    ts
}

fn assert_golden(actual: &str, golden: &str, what: &str) {
    assert!(
        actual == golden,
        "{what} differs from its golden:\n--- actual\n{actual}\n--- golden\n{golden}"
    );
}

fn assert_renders(report: &Report, text: &str, json: &str, what: &str) {
    assert_golden(&render_text(report), text, &format!("{what} text"));
    assert_golden(
        &format!("{}\n", render_json(report)),
        json,
        &format!("{what} json"),
    );
}

/// Epochs of the `E007` diagnostics, in report order.
fn race_epochs(report: &Report) -> Vec<usize> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::E007CausalityViolation)
        .map(|d| {
            let tail = d.message.split("barrier epoch ").nth(1).unwrap();
            tail.split(' ').next().unwrap().parse().unwrap()
        })
        .collect()
}

#[test]
fn program_report_order_matches_golden() {
    let text = include_str!("golden/report_order_program.txt");
    let json = include_str!("golden/report_order_program.json");
    let pt = program();
    let whole = lint_program(&pt);
    // Races on both sides of the lagging thread's epoch: some decided
    // by pruning, some at end of stream.
    let epochs = race_epochs(&whole);
    assert!(epochs.iter().any(|&e| e < LAG_FROM) && epochs.iter().any(|&e| e > LAG_FROM));
    assert!(whole
        .diagnostics
        .iter()
        .any(|d| d.code == Code::E006DanglingElement));
    assert_renders(&whole, text, json, "whole program");
    let bytes = format::encode_program(&pt);
    for (window, chunk) in [(7, 3), (4096, 4096)] {
        let mut s = ProgramStream::with_options(SliceSource(&bytes), window, chunk).unwrap();
        let report = lint_program_stream(&mut s).unwrap();
        assert_renders(
            &report,
            text,
            json,
            &format!("streamed program ({window}/{chunk})"),
        );
    }
}

#[test]
fn set_report_order_matches_golden() {
    let text = include_str!("golden/report_order_set.txt");
    let json = include_str!("golden/report_order_set.json");
    let ts = set();
    let whole = lint_set(&ts);
    assert!(race_epochs(&whole).len() >= 4 * EPOCHS);
    assert_renders(&whole, text, json, "whole set");
    let bytes = format::encode_set(&ts);
    for (window, chunk) in [(7, 3), (4096, 4096)] {
        let mut s = SetStream::with_options(SliceSource(&bytes), window, chunk).unwrap();
        let report = lint_set_stream(&mut s).unwrap();
        assert_renders(
            &report,
            text,
            json,
            &format!("streamed set ({window}/{chunk})"),
        );
    }
}
