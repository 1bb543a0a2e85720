//! `trace-ingest`: one op takes one fresh program-trace file through
//! everything a user does with it short of simulating: streaming lint,
//! out-of-core translate through a spilling sink into a set file, a
//! set-stream compile of that file, and the static bounds analysis as a
//! first answer.  No simulation runs.

use crate::gen::{self, Rng, Shape};
use crate::spans::{median_ms, SpanId, Tracer};
use crate::{Bench, Config, Metric, Pass, ScratchDir, Size, Traced};
use extrap_core::processor::Op;
use extrap_core::{compile_set_stream, machine, CompiledProgram, SimParams};
use extrap_trace::{ProgramStream, SetStream, SpillSink};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

/// In-memory budget of the spilling sink, as a share of the file's
/// translated records: every op spills, into the run files of about a
/// tenth of the threads.  Each spilled thread costs a file create, its
/// writes, a read-back and an unlink; a tighter budget makes all
/// threads spill, and that file churn slows this host's ext4 for
/// minutes afterwards (see the README).
const SPILL_BUDGET_SHARE: f64 = 0.9;

pub(crate) struct TraceIngest;

struct File {
    path: PathBuf,
    bytes: u64,
    threads: usize,
    /// Hash and length of `encode_set(translate(..))` of the whole trace.
    set_digest: (u64, usize),
    /// Digest of `CompiledProgram::compile` of the whole trace.
    program_digest: u64,
    /// The spilling sink's budget for this file, bytes.
    spill_budget: usize,
}

pub(crate) struct State {
    dir: ScratchDir,
    files: Vec<File>,
    /// The generated traces, kept from set-up until the references are
    /// computed.
    traces: Vec<extrap_trace::ProgramTrace>,
    order: Vec<usize>,
    params: SimParams,
}

/// The corpus composition: 16 to 128 threads, six files per width,
/// with the record target, access density and the program's details
/// drawn from the seed.
fn shapes(size: Size, rng: &mut Rng) -> Vec<Shape> {
    let (widths, accesses, records): (&[usize], &[usize], (f64, f64)) = match size {
        Size::Full => (
            &[16, 32, 64, 128],
            &[1, 2, 4, 6, 8, 10],
            (24_000.0, 56_000.0),
        ),
        Size::Tiny => (&[8, 16], &[1, 4], (1_000.0, 2_000.0)),
    };
    let mut out = Vec::new();
    for &threads in widths {
        let mut density = accesses.to_vec();
        rng.shuffle(&mut density);
        let sizes = gen::latin(rng, density.len(), records.0, records.1);
        out.extend(
            density
                .into_iter()
                .zip(sizes)
                .map(|(accesses, records)| Shape {
                    threads,
                    records: records as usize,
                    accesses,
                }),
        );
    }
    out
}

impl Bench for TraceIngest {
    type State = State;

    fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<State, String> {
        let dir = ScratchDir::new(cfg, "ingest")?;
        let mut rng = Rng::new(cfg.seed, 3);
        let mut files = Vec::new();
        let mut traces = Vec::new();
        for (i, shape) in shapes(cfg.size, &mut rng).into_iter().enumerate() {
            let span = tracer.begin("trace.generate_write", None, 0);
            let trace = gen::program(shape, &mut rng);
            let path = dir.0.join(format!("file-{i:02}.xtrp"));
            extrap_trace::writer::write_program_file(&path, &trace)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            tracer.end(span);
            let bytes = std::fs::metadata(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .len();
            files.push(File {
                path,
                bytes,
                threads: shape.threads,
                set_digest: (0, 0),
                program_digest: 0,
                spill_budget: 0,
            });
            traces.push(trace);
        }
        let mut order: Vec<usize> = (0..files.len()).collect();
        rng.shuffle(&mut order);
        Ok(State {
            dir,
            files,
            traces,
            order,
            params: machine::default_distributed(),
        })
    }

    /// The whole-trace path: `translate`, `encode_set` and
    /// `CompiledProgram::compile` of each generated trace.
    fn references(cfg: &Config, state: &mut State) -> Result<(), String> {
        for (f, trace) in state.files.iter_mut().zip(state.traces.drain(..)) {
            let set = extrap_trace::translate(&trace, Default::default())
                .map_err(|e| format!("{}: {e}", f.path.display()))?;
            let encoded = extrap_trace::format::encode_set(&set);
            f.set_digest = (digest(&encoded), encoded.len());
            let program = CompiledProgram::compile(&set).map_err(|e| e.to_string())?;
            f.program_digest = program_digest(&program);
            let translated = set.threads.iter().map(|t| t.records.len()).sum::<usize>()
                * std::mem::size_of::<extrap_trace::TraceRecord>();
            f.spill_budget = (translated as f64 * SPILL_BUDGET_SHARE) as usize;
        }
        if cfg.corrupt_reference {
            state.files[0].program_digest ^= 1;
        }
        Ok(())
    }

    fn measure(cfg: &Config, state: &mut State) -> Pass {
        let out = state.dir.0.join("out.xtps");
        let mut pass = Pass::default();
        let start = Instant::now();
        let mut i = 0;
        while !cfg.deadline_passed(start, pass.ops.len()) {
            let f = &state.files[state.order[i % state.order.len()]];
            i += 1;
            let t = Instant::now();
            let result = ingest(f, &out, state, &mut Tracer::disabled(), None, 0);
            let ns = t.elapsed().as_nanos() as u64;
            account(
                &mut pass,
                start,
                f,
                ns,
                result.and_then(|r| check(f, &out, &r)),
            );
        }
        pass
    }

    fn measure_traced(
        cfg: &Config,
        state: &mut State,
        mut tracer: Tracer,
    ) -> Result<Traced, String> {
        let out = state.dir.0.join("out.xtps");
        let mut pass = Pass::default();
        let (mut spills, mut peak) = (vec![0u64; state.files.len()], 0usize);
        let mut without_decode = Vec::new();
        let start = Instant::now();
        let mut i = 0;
        while !cfg.deadline_passed(start, pass.ops.len()) {
            let idx = state.order[i % state.order.len()];
            let f = &state.files[idx];
            i += 1;
            let op_id = i as u64;
            let op = tracer.begin("ingest.file", None, op_id);
            // Decode on its own: lint and translate each decode the
            // stream again inside their spans.
            let decode = tracer.begin("trace.decode", Some(op), op_id);
            let decoded = ProgramStream::open(&f.path).and_then(|mut s| s.read_to_end());
            let decode_ns = tracer.end(decode);
            let result = decoded
                .map_err(|e| e.to_string())
                .and_then(|_| ingest(f, &out, state, &mut tracer, Some(op), op_id));
            let ns = tracer.end(op);
            without_decode.push(ns.saturating_sub(decode_ns));
            if let Ok(r) = &result {
                spills[idx] = r.spills as u64;
                peak = peak.max(r.translate_peak);
            }
            account(
                &mut pass,
                start,
                f,
                ns,
                result.and_then(|r| check(f, &out, &r)),
            );
        }
        let layer = |name: &'static str, span: &str| Metric {
            name,
            value: median_ms(&tracer.durations(span)),
            unit: "ms",
        };
        let layers = vec![
            layer("trace.decode_ms", "trace.decode"),
            layer("lint.stream_ms", "lint.stream"),
            layer("trace.spill_translate_ms", "trace.spill_translate"),
            Metric {
                name: "trace.spills",
                value: spills.iter().sum::<u64>() as f64,
                unit: "count",
            },
            Metric {
                name: "trace.peak_resident_bytes",
                value: peak as f64,
                unit: "B",
            },
            layer("core.compile_ms", "core.compile"),
            layer("analyze.bounds_ms", "analyze.bounds"),
        ];
        let notes = vec![format!(
            "{} files, {:.1} MB on disk; trace.spills sums one pass over the corpus \
             (files not reached in the pass count 0)",
            state.files.len(),
            state.files.iter().map(|f| f.bytes).sum::<u64>() as f64 / 1e6
        )];
        Ok(Traced {
            untraced: None,
            pass,
            // The untraced op has no standalone decode.
            comparable_ms: median_ms(&without_decode),
            layers,
            tracer,
            notes,
        })
    }
}

/// What one op produced, for the output checks.
struct Ingested {
    lint_errors: usize,
    spills: usize,
    translate_peak: usize,
    program: CompiledProgram,
    span_ns: u64,
    upper_ns: u64,
}

/// The op: lint, spill-translate + set file, set-stream compile,
/// bounds.  Each call into a layer is its own span under `op`.
fn ingest(
    f: &File,
    out: &PathBuf,
    state: &State,
    tracer: &mut Tracer,
    op: Option<SpanId>,
    op_id: u64,
) -> Result<Ingested, String> {
    let err = |e: extrap_trace::TraceError| format!("{}: {e}", f.path.display());

    let span = tracer.begin("lint.stream", op, op_id);
    let mut stream = ProgramStream::open(&f.path).map_err(err)?;
    let report = extrap_lint::lint_program_stream(&mut stream).map_err(err)?;
    tracer.end(span);

    let span = tracer.begin("trace.spill_translate", op, op_id);
    let mut stream = ProgramStream::open(&f.path).map_err(err)?;
    let mut sink = SpillSink::new(stream.n_threads(), f.spill_budget);
    let stats =
        extrap_trace::translate_stream(&mut stream, Default::default(), &mut sink).map_err(err)?;
    let spills = sink.spill_count();
    sink.write_set_file(out).map_err(err)?;
    tracer.end(span);

    let span = tracer.begin("core.compile", op, op_id);
    let mut set = SetStream::open(out).map_err(err)?;
    let program = compile_set_stream(&mut set).map_err(err)?;
    tracer.end(span);

    let span = tracer.begin("analyze.bounds", op, op_id);
    let analysis = extrap_analyze::analyze(&program, &state.params)
        .map_err(|e| format!("{}: {e}", f.path.display()))?;
    tracer.end(span);

    Ok(Ingested {
        lint_errors: report.error_count(),
        spills,
        translate_peak: stats.peak_resident_bytes,
        program,
        span_ns: analysis.span.as_ns(),
        upper_ns: analysis.upper.as_ns(),
    })
}

/// Records one op; its bounds analysis is the one prediction it answers.
fn account(pass: &mut Pass, start: Instant, f: &File, ns: u64, outcome: Result<(), String>) {
    pass.record(start, ns, u32::from(outcome.is_ok()), f.bytes);
    if let Err(e) = outcome {
        pass.fail(e);
    }
}

/// The op's outputs against the whole-trace references.
fn check(f: &File, out: &PathBuf, r: &Ingested) -> Result<(), String> {
    let name = f.path.display();
    if r.lint_errors > 0 {
        return Err(format!("{name}: lint reported {} errors", r.lint_errors));
    }
    if r.spills == 0 {
        return Err(format!("{name}: the spill budget did not spill"));
    }
    let written = std::fs::read(out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    // Each op writes a fresh file: truncating a written one would make
    // ext4 flush it to disk on close.
    let _ = std::fs::remove_file(out);
    if (digest(&written), written.len()) != f.set_digest {
        return Err(format!(
            "{name}: spilled set file ({} B) differs from encode_set(translate(..)) ({} B)",
            written.len(),
            f.set_digest.1
        ));
    }
    if r.program.n_threads() != f.threads || program_digest(&r.program) != f.program_digest {
        return Err(format!(
            "{name}: set-stream compile differs from CompiledProgram::compile"
        ));
    }
    if r.span_ns > r.upper_ns {
        return Err(format!(
            "{name}: bounds inverted (span {} > upper {})",
            r.span_ns, r.upper_ns
        ));
    }
    Ok(())
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// A structural digest of a compiled program: every op of every thread,
/// field by field, plus the queue-occupancy estimate.
fn program_digest(p: &CompiledProgram) -> u64 {
    let mut h = DefaultHasher::new();
    p.peak_events().hash(&mut h);
    for t in p.threads() {
        (t.thread, t.predicted_records, t.ops.len()).hash(&mut h);
        for op in &t.ops {
            match *op {
                Op::Compute(d) => (0u8, d).hash(&mut h),
                Op::RemoteRead {
                    owner,
                    element,
                    declared_bytes,
                    actual_bytes,
                } => (1u8, owner, element, declared_bytes, actual_bytes).hash(&mut h),
                Op::RemoteWrite {
                    owner,
                    element,
                    declared_bytes,
                    actual_bytes,
                } => (2u8, owner, element, declared_bytes, actual_bytes).hash(&mut h),
                Op::Barrier(b) => (3u8, b).hash(&mut h),
                Op::End => 4u8.hash(&mut h),
            }
        }
    }
    h.finish()
}
