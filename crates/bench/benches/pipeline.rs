//! The out-of-core streaming pipeline, end to end: a synthetic program
//! trace on disk → chunked [`ProgramStream`] over a [`FileSource`] →
//! epoch-translate ([`translate_stream`]) straight into an
//! [`IncrementalCompiler`] → one extrapolation run.  Reported as
//! MB/s over the on-disk trace bytes, plus the streaming machinery's
//! peak resident bytes for the small and huge inputs.
//!
//! The memory rows are the point of this target: the huge input holds
//! the program *structure* (threads, per-epoch work) fixed and scales
//! the record count ~10x by adding barrier epochs — exactly the
//! multi-GB long-running-program shape — and the bench hard-asserts
//! the machinery peak stays flat (< 1.5x).  The timing rows feed the
//! usual `check_bench_regression.py` gate via `BENCH_pipeline.json`.
//!
//! `--scale huge` multiplies both inputs' epoch counts by 10 (the
//! "small" file is then itself 10x-records), keeping the flatness
//! probe meaningful at any scale.

use extrap_bench::harness::{Harness, Throughput};
use extrap_core::{machine, Extrapolator, IncrementalCompiler};
use extrap_time::{outln, DurationNs, ElementId, ThreadId};
use extrap_trace::builder::{PhaseAccess, PhaseProgram, PhaseWork};
use extrap_trace::stream::ProgramStream;
use extrap_trace::{translate_stream, ProgramTrace, SpillSink};
use std::hint::black_box;
use std::path::PathBuf;

const THREADS: usize = 16;
const BASE_EPOCHS: usize = 48;

/// A phase-structured program whose record count scales with `epochs`
/// while its per-epoch structure (threads, accesses, elements) stays
/// fixed — the shape under which the translate machinery's residency
/// must stay flat.
fn synthetic(epochs: usize) -> ProgramTrace {
    let mut p = PhaseProgram::new(THREADS);
    for e in 0..epochs {
        let phase: Vec<PhaseWork> = (0..THREADS)
            .map(|t| {
                let owner = (t + 1) % THREADS;
                PhaseWork {
                    compute: DurationNs::from_us(40.0 + (t % 4) as f64),
                    accesses: vec![
                        PhaseAccess {
                            after: DurationNs::from_us(10.0),
                            owner: ThreadId::from_index(owner),
                            element: ElementId(owner as u32),
                            declared_bytes: 256,
                            actual_bytes: 64,
                            write: false,
                        },
                        PhaseAccess {
                            after: DurationNs::from_us(25.0),
                            owner: ThreadId::from_index(owner),
                            element: ElementId(owner as u32),
                            declared_bytes: 256,
                            actual_bytes: 64,
                            write: e % 2 == 0,
                        },
                    ],
                }
            })
            .collect();
        p.push_phase(phase);
    }
    p.record()
}

/// Writes `trace` to a bench-private temp file, returning its path and
/// on-disk size.
fn write_temp(trace: &ProgramTrace, tag: &str) -> (PathBuf, u64) {
    let path = std::env::temp_dir().join(format!(
        "extrap-bench-pipeline-{}-{tag}.xtrp",
        std::process::id()
    ));
    extrap_trace::writer::write_program_file(&path, trace).expect("write synthetic trace");
    let len = std::fs::metadata(&path)
        .expect("stat synthetic trace")
        .len();
    (path, len)
}

/// One full pipeline pass over the on-disk trace: stream → fused
/// translate+compile → one extrapolation.  Returns (predicted
/// makespan ns, machinery peak resident bytes).
fn run_pipeline(path: &PathBuf) -> (u64, usize) {
    let mut stream = ProgramStream::open(path).expect("open trace stream");
    let mut compiler = IncrementalCompiler::new(stream.n_threads());
    let stats = translate_stream(&mut stream, Default::default(), &mut compiler)
        .expect("streaming compile");
    let program = compiler.finish().expect("streaming compile");
    let pred = Extrapolator::new(machine::default_distributed())
        .run(&program)
        .expect("extrapolate");
    (pred.exec_time().0, stats.peak_resident_bytes)
}

fn main() {
    // `--scale huge` multiplies the base epoch count by 10 (see the
    // module doc).
    let (mut h, mult) = Harness::from_args("pipeline", |spec| {
        let mult = spec.enumerated("--scale", "small, huge", |v| match v {
            "small" => Some(1),
            "huge" => Some(10),
            _ => None,
        })?;
        Ok(mult.unwrap_or(1))
    });
    let small_trace = synthetic(BASE_EPOCHS * mult);
    let huge_trace = synthetic(BASE_EPOCHS * mult * 10);
    let (small_path, small_bytes) = write_temp(&small_trace, "small");
    let (huge_path, huge_bytes) = write_temp(&huge_trace, "huge");
    outln!(
        "pipeline inputs: small {} records ({small_bytes} B), huge {} records ({huge_bytes} B)",
        small_trace.records.len(),
        huge_trace.records.len()
    );

    // The flatness gate, first and unconditionally: 10x the records
    // through the same structure must not grow the streaming
    // machinery's peak residency.  (The compiled program — the
    // pipeline's *product* — necessarily grows; the claim is about the
    // translate/compile machinery, as for the PR-4 lint probe.)
    let (small_pred, small_peak) = run_pipeline(&small_path);
    let (huge_pred, huge_peak) = run_pipeline(&huge_path);
    outln!(
        "machinery peak resident: small {small_peak} B, huge {huge_peak} B \
         ({:.2}x for 10x records)",
        huge_peak as f64 / small_peak.max(1) as f64
    );
    assert!(
        (huge_peak as f64) < small_peak as f64 * 1.5,
        "streaming pipeline residency grew with record count: \
         {small_peak} -> {huge_peak} bytes for 10x records"
    );

    // Throughput over the on-disk bytes, small and huge.
    h.bench_throughput("pipeline_stream", Throughput::Bytes(small_bytes), || {
        black_box(run_pipeline(&small_path))
    });
    h.bench_throughput(
        "pipeline_stream_huge",
        Throughput::Bytes(huge_bytes),
        || black_box(run_pipeline(&huge_path)),
    );

    // The translate-to-disk path of `extrap translate`: spill/merge
    // through a budget so tight every batch spills, then replay into an
    // output set file.
    let out = std::env::temp_dir().join(format!(
        "extrap-bench-pipeline-{}-out.xtps",
        std::process::id()
    ));
    h.bench_throughput(
        "pipeline_spill_translate",
        Throughput::Bytes(small_bytes),
        || {
            let mut stream = ProgramStream::open(&small_path).expect("open trace stream");
            let mut sink = SpillSink::new(stream.n_threads(), 4 << 10);
            extrap_trace::translate_stream(&mut stream, Default::default(), &mut sink)
                .expect("streaming translate");
            let spilled = sink.spill_count();
            sink.write_set_file(&out).expect("write set file");
            assert!(spilled > 0, "a 4 KiB budget must force spills");
            black_box(spilled)
        },
    );

    // The residency numbers as rows, so the committed baseline pins
    // them and `check_bench_regression.py` flags growth beyond 2x.
    // (Values are bytes, not nanoseconds; the gate only ratios them.)
    h.record_samples("pipeline_peak_resident_small", &[small_peak as f64], None);
    h.record_samples("pipeline_peak_resident_huge", &[huge_peak as f64], None);
    h.finish();

    // Predictions sanity: both inputs extrapolated to something.
    assert!(small_pred > 0 && huge_pred > small_pred);
    let _ = std::fs::remove_file(&small_path);
    let _ = std::fs::remove_file(&huge_path);
    let _ = std::fs::remove_file(&out);
}
