//! Property test: the out-of-core streaming pipeline is byte- and
//! metric-identical to the whole-trace path across random programs ×
//! stream chunk/window geometries × spill budgets (including a budget
//! so small every batch spills).
//!
//! Three equivalences are checked per case:
//! * spill/merge translate (`translate_stream` into a [`SpillSink`],
//!   replayed to an `XTPS` file) produces exactly the bytes
//!   `encode_set(translate(whole_trace))` produces;
//! * translating straight into an [`IncrementalCompiler`] and a
//!   [`PhaseFold`] produces a [`CompiledProgram`] equal to compiling
//!   the whole-trace set, under any translate options;
//! * compiling the translated set from a chunked stream
//!   ([`compile_set_stream`], and the front door
//!   [`compile_trace_stream`] with the same phase profiles) produces
//!   the same program — and, spot checked, the same extrapolated
//!   prediction.  The front door over the raw trace (default translate
//!   options, how the daemon and the CLI ingest a capture) matches the
//!   whole-trace path too.
//!
//! Driven by `SplitMix64::cases` instead of `proptest` (crates.io is
//! unreachable in the build environment).

use extrap_core::processor::IncrementalCompiler;
use extrap_core::{compile_set_stream, compile_trace_stream, machine, CompiledProgram};
use extrap_time::{DurationNs, ElementId, SplitMix64, ThreadId};
use extrap_trace::stream::{ProgramStream, SetStream, SliceSource, TraceStream};
use extrap_trace::{
    format, translate, translate_stream, PhaseAccess, PhaseFold, PhaseProgram, PhaseWork,
    ProgramTrace, SpillSink, TraceRecord, TranslateOptions,
};

const CASES: u64 = 96;

/// A random phase-structured program: 1–5 threads, 1–12 barrier
/// epochs, skewed per-thread compute, 0–3 remote accesses per thread
/// per phase (ordered offsets, random owner/element/size/direction).
fn random_program(rng: &mut SplitMix64) -> ProgramTrace {
    let threads = rng.range(1, 6) as usize;
    let phases = rng.range(1, 13) as usize;
    let mut p = PhaseProgram::new(threads);
    for _ in 0..phases {
        let work: Vec<PhaseWork> = (0..threads)
            .map(|_| {
                let compute = rng.range(1_000, 50_000);
                let n_acc = rng.range(0, 4) as usize;
                let mut offsets: Vec<u64> = (0..n_acc).map(|_| rng.range(0, compute + 1)).collect();
                offsets.sort_unstable();
                let accesses = offsets
                    .into_iter()
                    .map(|after| PhaseAccess {
                        after: DurationNs(after),
                        owner: ThreadId::from_index(rng.range(0, threads as u64) as usize),
                        element: ElementId(rng.range(0, 8) as u32),
                        declared_bytes: rng.range(8, 4096) as u32,
                        actual_bytes: rng.range(1, 256) as u32,
                        write: rng.next_u64().is_multiple_of(2),
                    })
                    .collect();
                PhaseWork {
                    compute: DurationNs(compute),
                    accesses,
                }
            })
            .collect();
        p.push_phase(work);
    }
    p.record()
}

fn random_options(rng: &mut SplitMix64) -> TranslateOptions {
    TranslateOptions {
        event_overhead: DurationNs(rng.range(0, 3) * 500),
        switch_overhead: DurationNs(rng.range(0, 3) * 700),
    }
}

/// A spill budget per case: a third of the cases use 0 (every batch
/// spills), a third a tiny budget around one batch, a third unbounded.
fn random_budget(rng: &mut SplitMix64) -> usize {
    match rng.below(3) {
        0 => 0,
        1 => rng.range(64, 2048) as usize,
        _ => usize::MAX,
    }
}

#[test]
fn streaming_pipeline_matches_whole_trace_path() {
    let out =
        std::env::temp_dir().join(format!("extrap-pipeline-prop-{}.xtps", std::process::id()));
    for (case, mut rng) in SplitMix64::cases(0x51_7EA4, CASES).enumerate() {
        let pt = random_program(&mut rng);
        let opts = random_options(&mut rng);
        let window = rng.range(32, 4096) as usize;
        let chunk = rng.range(1, 64) as usize;
        let budget = random_budget(&mut rng);
        let what = format!(
            "case {case}: {} threads, {} records, window {window}, chunk {chunk}, budget {budget}",
            pt.n_threads,
            pt.records.len()
        );

        // The whole-trace reference.
        let expected_set = translate(&pt, opts).unwrap();
        let expected_bytes = format::encode_set(&expected_set);
        let expected_program = CompiledProgram::compile(&expected_set).unwrap();
        let raw = format::encode_program(&pt);

        // Spill/merge translate to disk: byte-identical output file.
        let mut stream = ProgramStream::with_options(SliceSource(&raw), window, chunk).unwrap();
        let mut sink = SpillSink::new(stream.n_threads(), budget);
        translate_stream(&mut stream, opts, &mut sink).unwrap();
        if budget == 0 && !pt.records.is_empty() {
            assert!(
                sink.spill_count() > 0,
                "budget 0 must spill every batch ({what})"
            );
        }
        sink.write_set_file(&out).unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            expected_bytes,
            "spilled set file differs from whole-trace bytes ({what})"
        );

        // Translate straight into the compiler and the phase fold:
        // equal program, all records seen.
        let mut stream = ProgramStream::with_options(SliceSource(&raw), window, chunk).unwrap();
        let mut compiler = IncrementalCompiler::new(stream.n_threads());
        let mut fold = PhaseFold::default();
        let mut sink = |t: usize, rec: TraceRecord| {
            fold.record(t, &rec);
            compiler.emit_record(t, &rec)
        };
        let stats = translate_stream(&mut stream, opts, &mut sink).unwrap();
        let program = compiler.finish().unwrap();
        assert_eq!(program, expected_program, "fused compile differs ({what})");
        assert_eq!(stats.records, pt.records.len() as u64, "{what}");

        // Set-stream compile over the translated bytes: equal program.
        let mut stream =
            SetStream::with_options(SliceSource(&expected_bytes), window, chunk).unwrap();
        let from_set = compile_set_stream(&mut stream).unwrap();
        assert_eq!(
            from_set, expected_program,
            "set-stream compile differs ({what})"
        );
        let stream = SetStream::with_options(SliceSource(&expected_bytes), window, chunk).unwrap();
        let mut set_fold = PhaseFold::default();
        let from_set =
            compile_trace_stream(TraceStream::Set(stream), |t, r| set_fold.record(t, r)).unwrap();
        assert_eq!(
            from_set, expected_program,
            "profiling walk differs ({what})"
        );
        assert_eq!(
            set_fold.into_profiles(),
            fold.into_profiles(),
            "phase profiles differ ({what})"
        );

        // The front door over the raw bytes translates with default
        // options: equal to the whole-trace path under those options.
        let default_set = translate(&pt, TranslateOptions::default()).unwrap();
        let stream = ProgramStream::with_options(SliceSource(&raw), window, chunk).unwrap();
        let mut raw_fold = PhaseFold::default();
        let from_raw =
            compile_trace_stream(TraceStream::Program(stream), |t, r| raw_fold.record(t, r))
                .unwrap();
        assert_eq!(
            from_raw,
            CompiledProgram::compile(&default_set).unwrap(),
            "front-door compile of the raw trace differs ({what})"
        );
        let mut default_fold = PhaseFold::default();
        for (t, thread) in default_set.threads.iter().enumerate() {
            for rec in &thread.records {
                default_fold.record(t, rec);
            }
        }
        assert_eq!(
            raw_fold.into_profiles(),
            default_fold.into_profiles(),
            "front-door phase profiles of the raw trace differ ({what})"
        );

        // Spot-check metric identity end to end: the streamed program
        // extrapolates to the identical prediction.
        if case % 16 == 0 {
            let params = machine::default_distributed();
            let whole = extrap_core::Extrapolator::new(params.clone())
                .run(&expected_set)
                .unwrap();
            let streamed = extrap_core::Extrapolator::new(params)
                .run(&program)
                .unwrap();
            assert_eq!(
                whole.exec_time(),
                streamed.exec_time(),
                "prediction differs ({what})"
            );
            assert_eq!(whole.predicted, streamed.predicted, "{what}");
        }
    }
    let _ = std::fs::remove_file(&out);
}
