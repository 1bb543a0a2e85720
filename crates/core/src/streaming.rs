//! Out-of-core compilation: the one walk from a trace image of either
//! shape to a [`CompiledProgram`], without holding a decoded trace or
//! a translated set.
//!
//! [`compile_trace_stream`] is the front door the daemon's `SubmitTrace`
//! and every CLI reader share: a raw trace (`XTRP`) is translated with
//! default [`TranslateOptions`] straight into the
//! [`IncrementalCompiler`]; a translated set (`XTPS`) is checked record
//! by record by the [`SetCheck`] machine `TraceSet::validate` drives, so
//! a corrupt file reports the same first error either way.  The compile
//! fold is the one [`CompiledProgram::compile`] runs, so the program is
//! identical by construction.  A caller closure sees every translated
//! record in the same pass (how the marker-phase profiles ride along).
//! Resident state is the decode window and the translate or check
//! machinery, plus the compiled program itself, the walk's product.

use crate::processor::{CompiledProgram, IncrementalCompiler};
use extrap_trace::stream::{ChunkSource, SetChunk, SetStream, TraceStream};
use extrap_trace::{translate_stream, SetCheck, TraceError, TraceRecord, TranslateOptions};

/// Compiles a trace image of either shape in one pass, handing every
/// translated record (with its thread index) to `also` as well:
/// [`CompiledProgram::compile`] of the default translation of a raw
/// trace, or of the decoded set.
pub fn compile_trace_stream<S: ChunkSource>(
    stream: TraceStream<S>,
    mut also: impl FnMut(usize, &TraceRecord),
) -> Result<CompiledProgram, TraceError> {
    match stream {
        TraceStream::Program(mut stream) => {
            let mut compiler = IncrementalCompiler::new(stream.n_threads());
            let mut sink = |t: usize, rec: TraceRecord| {
                compiler.emit_record(t, &rec)?;
                also(t, &rec);
                Ok(())
            };
            translate_stream(&mut stream, TranslateOptions::default(), &mut sink)?;
            compiler.finish()
        }
        TraceStream::Set(mut stream) => walk_set(&mut stream, also),
    }
}

/// Compiles an already-translated trace-set stream in one pass.
///
/// Equivalent to [`CompiledProgram::compile`] on the fully decoded set:
/// the set's invariants are checked record-by-record by the same
/// [`SetCheck`] machine `TraceSet::validate` drives, so an invalid file
/// fails with the identical first error, and a valid one compiles to
/// the identical program.  Per-thread state grows one segment at a
/// time, so a header that declares more threads than the file holds
/// costs nothing before the stream reports the truncation.
pub fn compile_set_stream<S: ChunkSource>(
    stream: &mut SetStream<S>,
) -> Result<CompiledProgram, TraceError> {
    walk_set(stream, |_, _| {})
}

/// The set walk: checks, compiles, and hands each checked record to
/// `also` (a no-op closure compiles away).
fn walk_set<S: ChunkSource>(
    stream: &mut SetStream<S>,
    mut also: impl FnMut(usize, &TraceRecord),
) -> Result<CompiledProgram, TraceError> {
    let mut compiler = IncrementalCompiler::new(0);
    let mut check = SetCheck::default();
    let mut position = 0;
    while let Some(chunk) = stream.next_chunk()? {
        match chunk {
            SetChunk::Thread {
                position: p,
                thread,
                ..
            } => {
                check.begin_thread(p, thread)?;
                compiler.push_thread();
                position = p;
            }
            SetChunk::Records(recs) => {
                for rec in recs {
                    check.record(rec)?;
                    compiler.emit_record(position, rec)?;
                    also(position, rec);
                }
            }
        }
    }
    check.finish()?;
    compiler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::{BarrierId, DurationNs, ThreadId, TimeNs};
    use extrap_trace::stream::{ProgramStream, SliceSource};
    use extrap_trace::{format, translate, PhaseFold};
    use extrap_trace::{EventKind, PhaseProgram, PhaseWork, TraceSet};

    fn skewed_program(phases: usize) -> extrap_trace::ProgramTrace {
        let mut p = PhaseProgram::new(3);
        for i in 0..phases {
            p.push_phase(vec![
                PhaseWork {
                    compute: DurationNs(100 + 17 * i as u64),
                    accesses: vec![],
                },
                PhaseWork {
                    compute: DurationNs(250),
                    accesses: vec![],
                },
                PhaseWork {
                    compute: DurationNs(40 + 3 * i as u64),
                    accesses: vec![],
                },
            ]);
        }
        p.record()
    }

    /// Compiles `pt`'s encoded bytes through the front door, the way
    /// the daemon ingests an `XTRP` payload, counting the translated
    /// records the closure sees.
    fn translate_compile(pt: &extrap_trace::ProgramTrace) -> (CompiledProgram, usize) {
        let bytes = format::encode_program(pt);
        let stream = TraceStream::new(SliceSource(&bytes)).unwrap();
        let mut seen = 0;
        let program = compile_trace_stream(stream, |_, _| seen += 1).unwrap();
        (program, seen)
    }

    #[test]
    fn program_stream_compiles_identically() {
        let pt = skewed_program(5);
        let set = translate(&pt, TranslateOptions::default()).unwrap();
        let expected = CompiledProgram::compile(&set).unwrap();
        let (program, seen) = translate_compile(&pt);
        assert_eq!(program, expected);
        let translated: usize = set.threads.iter().map(|t| t.records.len()).sum();
        assert_eq!(seen, translated);
    }

    #[test]
    fn set_stream_compiles_identically() {
        let pt = skewed_program(4);
        let set = translate(&pt, TranslateOptions::default()).unwrap();
        let expected = CompiledProgram::compile(&set).unwrap();
        let bytes = format::encode_set(&set);
        let mut stream = SetStream::new(SliceSource(&bytes)).unwrap();
        let program = compile_set_stream(&mut stream).unwrap();
        assert_eq!(program, expected);

        // The front door compiles the same program from the set and
        // from the raw trace, and folds every record of every thread.
        let mut fold = PhaseFold::default();
        for (t, thread) in set.threads.iter().enumerate() {
            for rec in &thread.records {
                fold.record(t, rec);
            }
        }
        let expected_profiles = fold.into_profiles();
        let raw = format::encode_program(&pt);
        for image in [&bytes, &raw] {
            let mut fold = PhaseFold::default();
            let stream = TraceStream::new(SliceSource(image)).unwrap();
            let program = compile_trace_stream(stream, |t, r| fold.record(t, r)).unwrap();
            assert_eq!(program, expected);
            let profiles = fold.into_profiles();
            assert_eq!(profiles, expected_profiles);
            assert_eq!(profiles[&extrap_trace::phases::PRELUDE].barriers, 3 * 4);
        }
    }

    /// The machinery-residency probe (mirroring the streaming-lint
    /// probe): growing the record count ~10x by adding epochs — same
    /// per-epoch structure — must not grow the translate machinery's
    /// peak residency.  The compiled program (the output) does grow;
    /// that is not what `TranslateStats` measures.
    #[test]
    fn streaming_residency_is_bounded_by_structure_not_records() {
        let probe = |phases: usize| -> (usize, usize) {
            let pt = skewed_program(phases);
            let bytes = format::encode_program(&pt);
            let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
            let mut compiler = IncrementalCompiler::new(stream.n_threads());
            let stats = translate_stream(&mut stream, Default::default(), &mut compiler).unwrap();
            assert_eq!(stats.records, pt.records.len() as u64);
            (stats.peak_resident_bytes, pt.records.len())
        };
        let (small_peak, small_len) = probe(30);
        let (big_peak, big_len) = probe(300);
        assert!(
            big_len >= small_len * 9,
            "probe traces must differ by ~10x in record count"
        );
        assert!(
            (big_peak as f64) < small_peak as f64 * 1.5,
            "streaming pipeline residency grew with record count: \
             {small_peak} -> {big_peak} bytes for {small_len} -> {big_len} records"
        );
    }

    fn shift_barriers(set: &mut TraceSet, t: usize) {
        for rec in &mut set.threads[t].records {
            if let EventKind::BarrierEnter { barrier } = &mut rec.kind {
                *barrier = BarrierId(barrier.0 + 7);
            }
        }
    }

    fn regress_last(set: &mut TraceSet, t: usize) {
        let last = set.threads[t].records.last_mut().unwrap();
        last.time = TimeNs(0);
    }

    /// Every set-level `TraceError`, plus two sets carrying two
    /// corruptions each (the earlier one in file order wins), through
    /// every set reader.  The expected strings are the ones these
    /// readers printed when each still held its own copy of the checks.
    #[test]
    fn set_errors_agree_across_every_set_reader() {
        const MISMATCH_T1: &str = "T1 passes a different barrier sequence than thread 0 \
                                   (program is not deterministically data-parallel)";
        type Corrupt = fn(&mut TraceSet);
        let cases: [(&str, Corrupt, &str); 7] = [
            (
                "misplaced position",
                |s| s.threads[1].thread = ThreadId(2),
                "trace at position 1 contains records of T2",
            ),
            (
                "foreign record thread",
                |s| s.threads[1].records[2].thread = ThreadId(0),
                "trace at position 1 contains records of T0",
            ),
            (
                "per-thread clock regression",
                |s| regress_last(s, 2),
                "timestamp regression in T2 at record 5",
            ),
            (
                "barrier mismatch",
                |s| shift_barriers(s, 2),
                "T2 passes a different barrier sequence than thread 0 \
                 (program is not deterministically data-parallel)",
            ),
            (
                "missing barrier",
                |s| {
                    let recs = &mut s.threads[1].records;
                    let enter = recs
                        .iter()
                        .position(|r| matches!(r.kind, EventKind::BarrierEnter { .. }))
                        .unwrap();
                    recs.remove(enter);
                },
                MISMATCH_T1,
            ),
            (
                "regression before mismatch",
                |s| {
                    shift_barriers(s, 1);
                    regress_last(s, 1);
                },
                "timestamp regression in T1 at record 5",
            ),
            (
                "mismatch before later misplacement",
                |s| {
                    shift_barriers(s, 1);
                    s.threads[2].thread = ThreadId(0);
                },
                MISMATCH_T1,
            ),
        ];
        for (name, corrupt, expected) in cases {
            let mut set = translate(&skewed_program(2), TranslateOptions::default()).unwrap();
            corrupt(&mut set);
            let bytes = format::encode_set(&set);
            let stream = || SetStream::new(SliceSource(&bytes)).unwrap();
            let errors = [
                set.validate().unwrap_err(),
                CompiledProgram::compile(&set).unwrap_err(),
                compile_set_stream(&mut stream()).unwrap_err(),
                compile_trace_stream(TraceStream::Set(stream()), |_, _| {}).unwrap_err(),
                format::decode_set(&bytes).unwrap_err(),
            ];
            for e in &errors {
                assert_eq!(e.to_string(), expected, "{name}");
            }
        }
    }

    /// An access owner outside the thread range is a typed error on
    /// every path to a program, from a raw trace and from a set alike,
    /// so it never reaches the engine (which indexes threads by owner).
    #[test]
    fn out_of_range_owner_fails_every_compile_path() {
        // Two threads; thread 0 reads an element owned by T7.
        let set_bytes = include_bytes!("../../../examples/traces/bad_owner.xtps");
        let raw_bytes = include_bytes!("../../../examples/traces/bad_owner.xtrp");
        let set = format::decode_set(set_bytes).unwrap();
        let front_door = |bytes: &[u8]| {
            let stream = TraceStream::new(SliceSource(bytes)).unwrap();
            compile_trace_stream(stream, |_, _| {}).unwrap_err()
        };
        let errors = [
            CompiledProgram::compile(&set).unwrap_err(),
            compile_set_stream(&mut SetStream::new(SliceSource(set_bytes)).unwrap()).unwrap_err(),
            front_door(set_bytes),
            front_door(raw_bytes),
        ];
        for e in errors {
            assert_eq!(
                e.to_string(),
                "record 1 references T7 but the trace has 2 threads"
            );
        }
    }

    #[test]
    fn set_stream_does_not_trust_the_declared_thread_count() {
        // A bare 10-byte header declaring the most threads a header may
        // and no segments.
        let mut bytes = format::encode_set(&extrap_trace::TraceSet { threads: vec![] });
        bytes[6..10].copy_from_slice(&(format::MAX_THREADS as u32).to_le_bytes());
        let whole = format::decode_set(&bytes).unwrap_err();
        let mut stream = SetStream::new(SliceSource(&bytes)).unwrap();
        assert_eq!(stream.n_threads(), format::MAX_THREADS);
        let streamed = compile_set_stream(&mut stream).unwrap_err();
        assert_eq!(streamed.to_string(), whole.to_string());
        assert_eq!(
            streamed.to_string(),
            "malformed trace: truncated while reading thread id"
        );
        // Past the cap, both readers refuse the header itself.
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let whole = format::decode_set(&bytes).unwrap_err();
        let streamed = SetStream::new(SliceSource(&bytes)).err().unwrap();
        assert_eq!(streamed.to_string(), whole.to_string());
        assert!(whole.to_string().contains("4294967295 threads"), "{whole}");
    }
}
