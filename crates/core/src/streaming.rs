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
//!   compiled program out, enforcing exactly the invariants
//!   `TraceSet::validate` enforces (and in the same order, so a corrupt
//!   file reports the same first error either way).
//!
//! Both produce programs byte-identical to the whole-trace path by
//! construction: the per-record fold is shared (see
//! [`IncrementalCompiler`]), and `extrap_trace::translate` is itself an
//! adapter over the same epoch translator.
//!
//! [`EpochTranslator`]: extrap_trace::EpochTranslator

use crate::processor::{CompiledProgram, IncrementalCompiler};
use extrap_time::{BarrierId, ThreadId, TimeNs};
use extrap_trace::stream::{ChunkSource, ProgramStream, SetChunk, SetStream};
use extrap_trace::{translate_stream, EventKind, TraceError, TranslateOptions, TranslateStats};

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
/// the structural invariants (`TraceSet::validate`) are enforced
/// record-by-record in the same order, so an invalid file fails with
/// the identical first error, and a valid one compiles to the identical
/// program.  Per-thread state grows one segment at a time, so a header
/// that declares more threads than the file holds costs nothing before
/// the stream reports the truncation.
pub fn compile_set_stream<S: ChunkSource>(
    stream: &mut SetStream<S>,
) -> Result<CompiledProgram, TraceError> {
    let mut compiler = IncrementalCompiler::new(0);
    // `TraceSet::validate` state, maintained streamingly: thread 0's
    // barrier sequence is the reference every later segment is compared
    // against when it ends.
    let mut reference: Vec<BarrierId> = Vec::new();
    let mut seq: Vec<BarrierId> = Vec::new();
    let mut segment: Option<(usize, ThreadId)> = None;
    let mut prev = TimeNs::ZERO;
    let mut rec_idx = 0usize;
    loop {
        match stream.next_chunk()? {
            None => break,
            Some(SetChunk::Thread {
                position, thread, ..
            }) => {
                end_segment(&mut segment, &mut reference, &mut seq)?;
                if thread.index() != position {
                    return Err(TraceError::MisplacedThread { position, thread });
                }
                compiler.push_thread();
                segment = Some((position, thread));
                prev = TimeNs::ZERO;
                rec_idx = 0;
            }
            Some(SetChunk::Records(recs)) => {
                let Some((position, thread)) = segment else {
                    return Err(TraceError::Format {
                        detail: "records before any segment header".to_string(),
                    });
                };
                for rec in recs {
                    if rec.time < prev {
                        return Err(TraceError::ThreadTimeRegression {
                            thread,
                            record: rec_idx,
                        });
                    }
                    prev = rec.time;
                    if rec.thread != thread {
                        return Err(TraceError::MisplacedThread {
                            position,
                            thread: rec.thread,
                        });
                    }
                    if let EventKind::BarrierEnter { barrier } = rec.kind {
                        seq.push(barrier);
                    }
                    compiler.emit_record(position, rec)?;
                    rec_idx += 1;
                }
            }
        }
    }
    end_segment(&mut segment, &mut reference, &mut seq)?;
    Ok(compiler.finish())
}

/// Closes out the current segment: thread 0's barrier sequence becomes
/// the reference, every later thread's must match it.
fn end_segment(
    segment: &mut Option<(usize, ThreadId)>,
    reference: &mut Vec<BarrierId>,
    seq: &mut Vec<BarrierId>,
) -> Result<(), TraceError> {
    let Some((position, thread)) = segment.take() else {
        return Ok(());
    };
    if position == 0 {
        *reference = std::mem::take(seq);
    } else if seq != reference {
        return Err(TraceError::BarrierMismatch {
            thread,
            reference: ThreadId(0),
        });
    }
    seq.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::DurationNs;
    use extrap_trace::stream::SliceSource;
    use extrap_trace::{format, translate, PhaseProgram, PhaseWork};

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

    #[test]
    fn set_stream_rejects_what_validate_rejects() {
        let pt = skewed_program(2);
        let mut set = translate(&pt, TranslateOptions::default()).unwrap();
        // Corrupt thread 2's barrier sequence.
        for rec in &mut set.threads[2].records {
            if let EventKind::BarrierEnter { barrier } = &mut rec.kind {
                *barrier = BarrierId(barrier.0 + 7);
            }
        }
        let whole = CompiledProgram::compile(&set).unwrap_err();
        let bytes = format::encode_set(&set);
        let mut stream = SetStream::new(SliceSource(&bytes)).unwrap();
        let streamed = compile_set_stream(&mut stream).unwrap_err();
        assert_eq!(whole.to_string(), streamed.to_string());
        assert!(matches!(streamed, TraceError::BarrierMismatch { .. }));
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
