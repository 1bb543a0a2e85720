//! Out-of-core trace→program compilation: one-pass pipelines that fold
//! a chunked trace stream straight into a [`CompiledProgram`].
//!
//! The whole-trace path materializes three containers on the way to a
//! simulation — `ProgramTrace` → `TraceSet` → `CompiledProgram` — so
//! trace size, not simulation cost, bounds the inputs a host can
//! extrapolate.  These entry points keep only the streaming machinery
//! resident (decode window + epoch translator + per-thread fold state,
//! O(threads + live-epoch)) plus the compiled program itself, which is
//! the pipeline's product:
//!
//! * [`compile_program_stream`] — raw 1-processor trace (`XTRP`) in,
//!   compiled program out, translation fused in ([`EpochTranslator`]
//!   feeding an [`IncrementalCompiler`]); nothing intermediate is held.
//! * [`compile_set_stream`] — already-translated set (`XTPS`) in,
//!   compiled program out, checked by the same [`SetCheck`] machine
//!   `TraceSet::validate` drives (so a corrupt file reports the same
//!   first error either way).
//!
//! Both produce programs byte-identical to the whole-trace path by
//! construction: the per-record fold is shared (see
//! [`IncrementalCompiler`]), and `extrap_trace::translate` is itself an
//! adapter over the same epoch translator.
//!
//! [`EpochTranslator`]: extrap_trace::EpochTranslator

use crate::processor::{CompiledProgram, IncrementalCompiler};
use extrap_trace::stream::{ChunkSource, ProgramStream, SetChunk, SetStream};
use extrap_trace::{translate_stream, SetCheck, TraceError, TranslateOptions, TranslateStats};

/// Translates and compiles a raw program-trace stream in one pass.
///
/// Equivalent to `translate(&stream.read_to_end()?, options)` followed
/// by [`CompiledProgram::compile`], without ever holding the
/// `ProgramTrace` or the `TraceSet`.  The returned [`TranslateStats`]
/// carry the translate machinery's peak residency (the part this
/// pipeline bounds; the compiled program is the output and scales with
/// program structure).
pub fn compile_program_stream<S: ChunkSource>(
    stream: &mut ProgramStream<S>,
    options: TranslateOptions,
) -> Result<(CompiledProgram, TranslateStats), TraceError> {
    let mut compiler = IncrementalCompiler::new(stream.n_threads());
    let stats = translate_stream(stream, options, &mut compiler)?;
    Ok((compiler.finish(), stats))
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
                }
            }
        }
    }
    check.finish()?;
    Ok(compiler.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::{BarrierId, DurationNs, ThreadId, TimeNs};
    use extrap_trace::reader::read_set_file;
    use extrap_trace::stream::SliceSource;
    use extrap_trace::{format, translate, EventKind, PhaseProgram, PhaseWork, TraceSet};

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

    #[test]
    fn program_stream_compiles_identically() {
        let pt = skewed_program(5);
        let opts = TranslateOptions::default();
        let expected = CompiledProgram::compile(&translate(&pt, opts).unwrap()).unwrap();
        let bytes = format::encode_program(&pt);
        let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
        let (program, stats) = compile_program_stream(&mut stream, opts).unwrap();
        assert_eq!(program, expected);
        assert_eq!(stats.records, pt.records.len() as u64);
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
            let (_, stats) = compile_program_stream(&mut stream, Default::default()).unwrap();
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
        let dir = std::env::temp_dir().join(format!("extrap-set-parity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (name, corrupt, expected)) in cases.into_iter().enumerate() {
            let mut set = translate(&skewed_program(2), TranslateOptions::default()).unwrap();
            corrupt(&mut set);
            let bytes = format::encode_set(&set);
            let path = dir.join(format!("case{i}.xtps"));
            std::fs::write(&path, &bytes).unwrap();
            let mut stream = SetStream::new(SliceSource(&bytes)).unwrap();
            let errors = [
                set.validate().unwrap_err(),
                CompiledProgram::compile(&set).unwrap_err(),
                compile_set_stream(&mut stream).unwrap_err(),
                format::decode_set(&bytes).unwrap_err(),
            ];
            for e in &errors {
                assert_eq!(e.to_string(), expected, "{name}");
            }
            let filed = read_set_file(&path).unwrap_err();
            assert_eq!(
                filed.to_string(),
                format!("{}: {expected}", path.display()),
                "{name}"
            );
            assert!(matches!(filed, TraceError::InFile { .. }), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
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
