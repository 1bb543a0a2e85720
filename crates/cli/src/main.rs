#![forbid(unsafe_code)]
//! `extrap` — the ExtraP command-line tool.
//!
//! ```text
//! extrap trace     <bench> <threads> [--scale S] -o trace.xtrp
//! extrap translate trace.xtrp -o traces.xtps [--event-overhead US] [--switch-overhead US] \
//!                  [--mem-budget BYTES]     # out-of-core: spills past the budget
//! extrap simulate  FILE [--machine M | --params FILE] [--set KEY=VALUE]... \
//!                  [--check-bounds] [--predicted OUT]
//! extrap analyze   FILE|BENCH [--threads N] [--procs LIST] [--format text|json|csv]
//! extrap sweep     <bench>[,<bench>...] [--procs 1,2,...] [--jobs N] [--csv] [--check-bounds]
//! extrap serve     [--addr HOST:PORT] [--workers N] [--mem-budget-mb N] ...
//! extrap client    sweep|simulate|stats|shutdown [--addr HOST:PORT] ...
//! extrap check     [--scenarios] [--scenario NAME] [--replay CERT]   # model-check the
//!                  [--schedules N] [--seed N] [--max-steps N]        # concurrent core
//! extrap report    FILE                   # trace statistics
//! extrap stats     FILE [--phases]        # marker phases + the repr epoch plan
//! extrap lint      FILE|DIR... [--jobs N] [--format json] [--deny-warnings] [--allow CODE]...
//!                                         # includes the §5 determinism check (E007)
//! extrap lint      --fix FILE [--out FILE] [--dry-run]   # repair fixable diagnostics
//! extrap params    [--machine M]          # print a parameter file
//! extrap benches                          # list benchmarks
//! ```
//!
//! A trace `FILE` is a raw capture (`.xtrp`) or a translated set (`.xtps`).

mod remote;

use extrap_core::{
    machine, parallel_map, CompiledProgram, Extrapolator, Prediction, SharedTraceCache, SimParams,
    SimStrategy, SweepGrid,
};
use extrap_proto::PredictionSummary;
use extrap_time::{json_escape, out, outln, ArgSpec, DurationNs, ThreadId, TimeNs};
use extrap_trace::{
    PhaseFold, ThreadTrace, TraceRecord, TraceSet, TranslateOptions, TranslateSink,
};
use extrap_workloads::{Bench, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("extrap: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut it = args.into_iter();
    let cmd = it.next().unwrap_or_else(|| "help".to_string());
    let rest: Vec<String> = it.collect();
    match cmd.as_str() {
        "trace" => cmd_trace(rest),
        "translate" => cmd_translate(rest),
        "simulate" => cmd_simulate(rest),
        "analyze" => cmd_analyze(rest),
        "sweep" => cmd_sweep(rest),
        "serve" => remote::cmd_serve(rest),
        "client" => remote::cmd_client(rest),
        "report" => cmd_report(rest),
        "stats" => cmd_stats(rest),
        "timeline" => cmd_timeline(rest),
        "check" => cmd_check(rest),
        "lint" => cmd_lint(rest),
        "diff" => cmd_diff(rest),
        "params" => cmd_params(rest),
        "benches" => {
            for b in Bench::all() {
                outln!("{:10} {}", b.name(), b.description());
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            outln!(
                "usage:\n  extrap trace <bench> <threads> [--scale tiny|small|paper] -o FILE\n  \
                 extrap translate FILE -o FILE [--event-overhead US] [--switch-overhead US] \
                 [--mem-budget BYTES]\n  \
                 extrap simulate FILE [--machine distributed|shared|ideal|cm5] [--params FILE] \
                 [--set KEY=VALUE]... [--strategy exact|repr[:K[:TOL]]] [--check-bounds] \
                 [--predicted FILE]\n  \
                 extrap analyze FILE|BENCH [--threads N] [--procs 1,2,4,8,16,32] [--scale S] \
                 [--format text|json|csv] [--machine M] [--params FILE] [--set KEY=VALUE]...\n  \
                 extrap sweep <bench>[,<bench>...] [--procs 1,2,4,8,16,32] [--scale S] \
                 [--machine M] [--params FILE] [--set KEY=VALUE]... \
                 [--strategy exact|repr[:K[:TOL]]] \
                 [--jobs N] [--csv] [--check-bounds]\n  \
                 extrap serve [--addr HOST:PORT] [--workers N] [--sweep-workers N] \
                 [--mem-budget-mb N] [--max-inflight N] [--max-conn-inflight N] \
                 [--max-connections N] [--timeout-ms N] [--batch-window-ms N]\n  \
                 extrap client sweep <bench>[,...] [--addr HOST:PORT] [sweep flags] [--csv]\n  \
                 extrap client simulate FILE [--addr HOST:PORT] [simulate flags]\n  \
                 extrap client analyze FILE [--addr HOST:PORT] [--format text|json|csv] \
                 [analyze flags]\n  \
                 extrap client stats [FILE --phases] [--addr HOST:PORT]\n  \
                 extrap client shutdown [--addr HOST:PORT]\n  \
                 extrap report FILE\n  \
                 extrap stats FILE [--phases] [--max-clusters K] [--tolerance F]\n  \
                 extrap timeline FILE [--width N]\n  \
                 extrap check [--scenarios] [--scenario NAME] [--replay CERT] \
                 [--schedules N] [--seed N] [--max-steps N]\n  \
                 extrap lint FILE|DIR... [--machine M] [--format text|json] [--jobs N] \
                 [--deny-warnings] [--allow CODE]...\n  \
                 extrap lint --fix FILE [--out FILE] [--dry-run] | extrap lint --codes\n  \
                 extrap diff FILE <machineA> <machineB>\n  \
                 extrap params [--machine M]\n  extrap benches\n\n\
                 simulate, analyze, diff, stats, report and timeline take a raw \
                 (.xtrp) or translated (.xtps) trace FILE."
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `extrap help`")),
    }
}

/// Takes `--scale` off a spec (default: small).
fn take_scale(spec: &mut ArgSpec) -> Result<Scale, String> {
    Ok(spec
        .enumerated("--scale", Scale::VALID, Scale::parse)?
        .unwrap_or(Scale::Small))
}

fn machine_of(s: &str) -> Option<SimParams> {
    match s {
        "distributed" => Some(machine::default_distributed()),
        "shared" => Some(machine::shared_memory()),
        "ideal" => Some(machine::ideal()),
        "cm5" => Some(machine::cm5()),
        _ => None,
    }
}

fn parse_machine(s: Option<String>) -> Result<SimParams, String> {
    match s {
        None => Ok(machine::default_distributed()),
        Some(name) => machine_of(&name)
            .ok_or_else(|| format!("unknown machine {name:?} (distributed|shared|ideal|cm5)")),
    }
}

/// Takes a `--flag US` time off a spec: finite, non-negative
/// microseconds (absent: zero).
fn take_us(spec: &mut ArgSpec, flag: &str) -> Result<DurationNs, String> {
    match spec.parsed::<f64>(flag)? {
        None => Ok(DurationNs::ZERO),
        Some(us) if us.is_finite() && us >= 0.0 => Ok(DurationNs::from_us(us)),
        Some(us) => Err(format!(
            "{}: bad {flag} value {us}: a time must be finite and >= 0",
            spec.cmd()
        )),
    }
}

/// Parses a thread count a benchmark can be captured at: 1 to
/// [`MAX_THREADS`](extrap_trace::format::MAX_THREADS).
fn parse_threads(text: &str) -> Result<usize, String> {
    let max = extrap_trace::format::MAX_THREADS;
    match text.trim().parse::<usize>() {
        Ok(n @ 1..) if n <= max => Ok(n),
        Ok(n) => Err(format!("{n} is outside 1..={max}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Parses a comma-separated `--procs` list of thread counts.
fn parse_procs(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|p| parse_threads(p).map_err(|e| format!("bad --procs entry {p:?}: {e}")))
        .collect()
}

fn cmd_trace(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "trace", args);
    let scale = take_scale(&mut spec)?;
    let out = spec.value("-o")?;
    let [bench_name, threads] = spec.finish_exact("extrap trace <bench> <threads> -o FILE")?;
    let out: PathBuf = out.ok_or("trace: -o FILE is required")?.into();
    let bench = Bench::parse(&bench_name)?;
    let threads = parse_threads(&threads).map_err(|e| format!("bad thread count: {e}"))?;
    let trace = bench.trace(threads, scale);
    extrap_trace::writer::write_program_file(&out, &trace).map_err(|e| e.to_string())?;
    outln!(
        "wrote {} events for {} threads to {}",
        trace.records.len(),
        trace.n_threads,
        out.display()
    );
    Ok(())
}

/// Default in-memory budget for `translate`'s spill sink: 64 MiB.
const DEFAULT_MEM_BUDGET: usize = 64 << 20;

/// `extrap translate`: epoch-translates the chunked input stream into
/// per-thread runs, holding at most `--mem-budget` translated bytes in
/// memory and spilling the rest, then replays the runs into the output
/// set file.
fn cmd_translate(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "translate", args);
    let out = spec.value("-o")?;
    let options = TranslateOptions {
        event_overhead: take_us(&mut spec, "--event-overhead")?,
        switch_overhead: take_us(&mut spec, "--switch-overhead")?,
    };
    let mem_budget = spec
        .parsed::<usize>("--mem-budget")?
        .unwrap_or(DEFAULT_MEM_BUDGET);
    let [input] = spec.finish_exact("extrap translate FILE -o FILE [--mem-budget BYTES]")?;
    let out: PathBuf = out.ok_or("translate: -o FILE is required")?.into();
    let mut stream =
        extrap_trace::stream::ProgramStream::open(&input).map_err(ingest_error(&input))?;
    let n_threads = stream.n_threads();
    let mut sink = MakespanSink {
        inner: extrap_trace::SpillSink::new(n_threads, mem_budget),
        makespan: TimeNs::ZERO,
    };
    extrap_trace::translate_stream(&mut stream, options, &mut sink)
        .map_err(ingest_error(&input))?;
    let makespan = sink.makespan;
    sink.inner.write_set_file(&out).map_err(|e| e.to_string())?;
    outln!("translated {n_threads} threads; idealized parallel makespan {makespan}");
    Ok(())
}

/// Takes the `--params`/`--machine`/`--set`/`--strategy` family off a
/// spec — the parameter-loading protocol every simulating subcommand
/// (local or remote) shares.  The range rules run once, on the final
/// parameters, so an override can repair a file; a violation the file
/// itself carries names the file.
fn load_params(spec: &mut ArgSpec) -> Result<SimParams, String> {
    let file = spec.value("--params")?;
    let mut params = if let Some(file) = &file {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        SimParams::from_config_text_unvalidated(&text).map_err(|e| format!("{file}: {e}"))?
    } else {
        spec.enumerated("--machine", "distributed, shared, ideal, cm5", machine_of)?
            .unwrap_or_else(machine::default_distributed)
    };
    let file_violations = params.violations();
    for kv in spec.values("--set")? {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| format!("--set expects KEY=VALUE, got {kv:?}"))?;
        let key = key.trim();
        params
            .set(key, value.trim())
            .map_err(|e| format!("--set {key}: {e}"))?;
    }
    if let Some(strategy) = spec.enumerated("--strategy", SimStrategy::VALID, SimStrategy::parse)? {
        params.strategy = strategy;
    }
    match (params.validate(), file) {
        (Err(e), Some(file)) if file_violations.contains(&e) => Err(format!("{file}: {e}")),
        (result, _) => result.map(|()| params),
    }
}

/// The `--check-bounds` verdict on one prediction: its static
/// work/span envelope must hold it, or the run fails naming `what`.
fn check_bounds(
    what: &str,
    program: &CompiledProgram,
    params: &SimParams,
    pred: &Prediction,
) -> Result<(), String> {
    extrap_analyze::verify_prediction(program, params, pred)
        .map_err(|violation| format!("bounds check: {what}: {violation}"))
}

/// Renders an ingest error of the trace file `path`, naming the file
/// once (errors the stream already attributed keep their path).
fn ingest_error(path: &str) -> impl Fn(extrap_trace::TraceError) -> String + '_ {
    move |e| e.in_file(path).to_string()
}

/// Compiles a raw or translated trace file in one pass through the
/// front door, handing every translated record to `also` — the one way
/// `simulate`, `analyze`, `diff`, `stats`, `report` and `timeline` load
/// their input.
fn load_program(
    path: &str,
    also: impl FnMut(usize, &TraceRecord),
) -> Result<CompiledProgram, String> {
    let stream = extrap_trace::TraceStream::open(path).map_err(ingest_error(path))?;
    extrap_core::compile_trace_stream(stream, also).map_err(ingest_error(path))
}

/// A [`TranslateSink`] adapter that tracks the translated makespan (the
/// maximum emitted timestamp) on the way through to `inner`, so
/// `translate` can report it without re-reading its output.
struct MakespanSink<S> {
    inner: S,
    makespan: TimeNs,
}

impl<S: TranslateSink> TranslateSink for MakespanSink<S> {
    fn emit(&mut self, thread: usize, rec: TraceRecord) -> Result<(), extrap_trace::TraceError> {
        if rec.time > self.makespan {
            self.makespan = rec.time;
        }
        self.inner.emit(thread, rec)
    }
}

fn cmd_simulate(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "simulate", args);
    let params = load_params(&mut spec)?;
    let bounds = spec.switch("--check-bounds");
    let predicted_out = spec.value("--predicted")?;
    let [input] = spec.finish_exact("extrap simulate FILE [--machine M]")?;
    let program = load_program(&input, |_, _| {})?;
    let pred = Extrapolator::new(params.clone())
        .run(&program)
        .map_err(|e| e.to_string())?;
    if bounds {
        check_bounds(&input, &program, &params, &pred)?;
    }
    print_prediction(&PredictionSummary::from(&pred));
    if let Some(path) = predicted_out {
        extrap_trace::writer::write_set_file(&path, &pred.predicted).map_err(|e| e.to_string())?;
        outln!("predicted trace written to {path}");
    }
    Ok(())
}

/// Prints one prediction's metrics: the `simulate` report, local and
/// served alike (a served job returns exactly the summary).  The derived
/// figures repeat `Prediction`'s float expressions on the summary's
/// integers, so the report prints the bytes it printed from `Prediction`.
pub(crate) fn print_prediction(p: &PredictionSummary) {
    let ms = |ns: u64| DurationNs(ns).as_us() / 1_000.0;
    let compute: u64 = p.per_thread.iter().map(|b| b.compute_ns).sum();
    let comm: u64 = p
        .per_thread
        .iter()
        .map(|b| b.send_overhead_ns + b.remote_wait_ns + b.service_ns)
        .sum();
    let mean_factor = match p.messages {
        0 => 1.0,
        n => p.contention_factor_sum / n as f64,
    };
    let span = p.exec_time_ns as f64 * p.n_procs.max(1) as f64;
    let utilization = if span == 0.0 {
        1.0
    } else {
        compute as f64 / span
    };
    let comp_comm = match comm {
        0 => f64::INFINITY,
        c => compute as f64 / c as f64,
    };
    outln!(
        "predicted execution time: {:.3} ms",
        TimeNs(p.exec_time_ns).as_ms()
    );
    outln!("processors:               {}", p.n_procs);
    outln!("barriers completed:       {}", p.barriers);
    outln!("messages / bytes:         {} / {}", p.messages, p.bytes);
    outln!("mean contention factor:   {mean_factor:.3}");
    outln!("utilization:              {:.1}%", utilization * 100.0);
    outln!("comp/comm ratio:          {comp_comm:.2}");
    outln!("-- per-thread breakdown (ms) --");
    outln!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "thread",
        "compute",
        "send",
        "service",
        "rem-wait",
        "bar-wait",
        "end"
    );
    for (i, b) in p.per_thread.iter().enumerate() {
        outln!(
            "{:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            i,
            ms(b.compute_ns),
            ms(b.send_overhead_ns),
            ms(b.service_ns),
            ms(b.remote_wait_ns),
            ms(b.barrier_wait_ns),
            TimeNs(b.end_time_ns).as_ms(),
        );
    }
}

/// `extrap analyze`: static work/span bound analysis — per-epoch work
/// and load imbalance, the contention-free critical path, and
/// closed-form exec-time/speedup bounds, all without running the
/// simulator.  The positional is sniffed: an existing file is read as a
/// raw or translated trace; anything else resolves as a benchmark name,
/// which additionally produces bound *curves* over `--procs`.
fn cmd_analyze(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "analyze", args);
    let params = load_params(&mut spec)?;
    let scale = take_scale(&mut spec)?;
    let format = spec
        .enumerated("--format", "text, json, csv", extrap_analyze::Format::parse)?
        .unwrap_or(extrap_analyze::Format::Text);
    let threads = match spec.value("--threads")? {
        Some(t) => parse_threads(&t).map_err(|e| format!("analyze: bad --threads: {e}"))?,
        None => 8,
    };
    let procs_arg = spec.value("--procs")?;
    let [input] = spec.finish_exact(
        "extrap analyze FILE|BENCH [--threads N] [--procs LIST] [--scale S] \
         [--format text|json|csv] [--machine M | --params FILE]",
    )?;

    let (label, program, curve) = if std::path::Path::new(&input).is_file() {
        if procs_arg.is_some() {
            return Err(
                "analyze: --procs curves need a benchmark name (a trace file has a \
                 fixed thread count)"
                    .to_string(),
            );
        }
        (input.clone(), load_program(&input, |_, _| {})?, Vec::new())
    } else {
        let bench = Bench::parse(&input)?;
        let procs: Vec<usize> = match procs_arg {
            None => vec![1, 2, 4, 8, 16, 32],
            Some(list) => parse_procs(&list)?,
        };
        let compile_at = |n: usize| -> Result<CompiledProgram, String> {
            let set = extrap_trace::translate(&bench.trace(n, scale), Default::default())
                .map_err(|e| e.to_string())?;
            CompiledProgram::compile(&set).map_err(|e| e.to_string())
        };
        let mut curve = Vec::with_capacity(procs.len());
        for &n in &procs {
            let analysis =
                extrap_analyze::analyze(&compile_at(n)?, &params).map_err(|e| e.to_string())?;
            curve.push(extrap_analyze::CurvePoint { n, analysis });
        }
        let label = format!("{}/{}", bench.name(), scale.name());
        (label, compile_at(threads)?, curve)
    };
    let analysis = extrap_analyze::analyze(&program, &params).map_err(|e| e.to_string())?;
    out!(
        "{}",
        extrap_analyze::render(&label, &analysis, &curve, format)
    );
    Ok(())
}

/// A fully parsed sweep request, shared by the local `sweep` command
/// and `client sweep` (which ships it over the wire instead of running
/// it in-process).
pub(crate) struct SweepRequest {
    pub(crate) benches: Vec<Bench>,
    pub(crate) procs: Vec<usize>,
    pub(crate) scale: Scale,
    pub(crate) params: SimParams,
    pub(crate) jobs: usize,
    pub(crate) csv: bool,
}

/// Parses the sweep flag family plus the bench-list positional.  The
/// usage string adapts to the wrapping subcommand via `spec.cmd()`.
pub(crate) fn parse_sweep_request(mut spec: ArgSpec) -> Result<SweepRequest, String> {
    let params = load_params(&mut spec)?;
    let scale = take_scale(&mut spec)?;
    let procs: Vec<usize> = match spec.value("--procs")? {
        None => vec![1, 2, 4, 8, 16, 32],
        Some(list) => parse_procs(&list)?,
    };
    let jobs = spec
        .positive("--jobs")?
        .unwrap_or_else(extrap_core::sweep::default_workers);
    let csv = spec.switch("--csv");
    let usage = format!("extrap {} <bench>[,<bench>...] [--procs LIST]", spec.cmd());
    let [bench_list] = spec.finish_exact(&usage)?;
    let benches: Vec<Bench> = bench_list
        .split(',')
        .map(Bench::parse)
        .collect::<Result<_, _>>()?;
    Ok(SweepRequest {
        benches,
        procs,
        scale,
        params,
        jobs,
        csv,
    })
}

/// Prints sweep rows (`(bench, procs, time_ms)` in grid order) in the
/// CSV or aligned-table form — identical for local and served sweeps.
pub(crate) fn render_sweep_rows(rows: &[(String, usize, f64)], procs: &[usize], csv: bool) {
    if csv {
        outln!("bench,procs,time_ms");
        for (bench, n, ms) in rows {
            outln!("{bench},{n},{ms:.6}");
        }
    } else {
        out!("{:>10}", "bench");
        for &n in procs {
            out!(" {n:>10}");
        }
        outln!("   [ms across P]");
        for chunk in rows.chunks(procs.len()) {
            out!("{:>10}", chunk[0].0);
            for (_, _, ms) in chunk {
                out!(" {ms:>10.3}");
            }
            outln!();
        }
    }
}

/// `extrap sweep`: extrapolate a benchmark × processor-count grid in
/// parallel through the sweep engine and print one row per benchmark.
fn cmd_sweep(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "sweep", args);
    let bounds = spec.switch("--check-bounds");
    let req = parse_sweep_request(spec)?;

    // The sweep report only prints times, so skip the predicted traces.
    let mut params = req.params;
    params.record_mode = extrap_core::RecordMode::MetricsOnly;
    let grid = SweepGrid::new()
        .workloads(req.benches.iter().copied())
        .procs(req.procs.iter().copied())
        .params(params)
        .jobs();
    let cache = SharedTraceCache::new();
    let source = |(bench, n): &(Bench, usize)| {
        extrap_trace::translate(&bench.trace(*n, req.scale), Default::default())
    };
    let preds: Vec<Prediction> = extrap_core::sweep(&grid, req.jobs, &cache, source)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    if bounds {
        // Every trace is resident, so each lookup is a cache hit.
        let verdicts = parallel_map(&grid, req.jobs, |i, job| {
            let (bench, n) = job.key;
            let cached = cache
                .get_or_translate(job.key, || source(&job.key))
                .map_err(|e| e.to_string())?;
            check_bounds(
                &format!("{}/{n}", bench.name()),
                cached.program(),
                &job.params,
                &preds[i],
            )
        });
        verdicts.into_iter().collect::<Result<(), String>>()?;
    }

    let mut rows = Vec::new();
    for (job, pred) in grid.iter().zip(&preds) {
        rows.push((
            job.key.0.name().to_string(),
            job.key.1,
            pred.exec_time().as_ms(),
        ));
    }
    render_sweep_rows(&rows, &req.procs, req.csv);
    if !req.csv {
        outln!(
            "({} jobs, {} workers, {} translations)",
            grid.len(),
            req.jobs,
            cache.translations()
        );
    }
    Ok(())
}

fn cmd_report(args: Vec<String>) -> Result<(), String> {
    let [input] = ArgSpec::new("extrap", "report", args).finish_exact("extrap report FILE")?;
    let mut fold = PhaseFold::default();
    let n_threads = load_program(&input, |t, rec| fold.record(t, rec))?.n_threads();
    let stats = fold.into_stats(n_threads);
    outln!("threads:           {n_threads}");
    outln!("makespan:          {:.3} ms", stats.makespan().as_ms());
    outln!("barriers:          {}", stats.barriers());
    outln!("remote accesses:   {}", stats.total_remote_accesses());
    outln!("declared bytes:    {}", stats.total_declared_bytes());
    outln!("actual bytes:      {}", stats.total_actual_bytes());
    outln!(
        "total compute:     {:.3} ms",
        stats.total_compute().as_us() / 1_000.0
    );
    outln!("utilization:       {:.1}%", stats.utilization() * 100.0);
    Ok(())
}

/// Takes the `stats` epoch-section flags off a spec: `Some((K, TOL))`
/// under `--phases` (defaults: the `--strategy repr` knobs), else
/// `None`.  Shared by `extrap stats` and `extrap client stats`.
fn take_epoch_flags(spec: &mut ArgSpec) -> Result<Option<(u32, f64)>, String> {
    let phases = spec.switch("--phases");
    let max_clusters = match spec.positive("--max-clusters")? {
        Some(k) => u32::try_from(k).map_err(|_| format!("--max-clusters {k} is too large"))?,
        None => SimStrategy::DEFAULT_MAX_CLUSTERS,
    };
    let tolerance = spec
        .parsed::<f64>("--tolerance")?
        .unwrap_or(SimStrategy::DEFAULT_TOLERANCE);
    Ok(phases.then_some((max_clusters, tolerance)))
}

/// `extrap stats`: phase-level statistics of a trace — the
/// marker-delimited phase profiles, plus (with `--phases`) the
/// barrier-epoch plan `--strategy repr:K:TOL` builds, so repetition can
/// be inspected before opting in.
fn cmd_stats(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "stats", args);
    let epochs = take_epoch_flags(&mut spec)?;
    let [input] =
        spec.finish_exact("extrap stats FILE [--phases] [--max-clusters K] [--tolerance F]")?;
    let mut fold = PhaseFold::default();
    let program = load_program(&input, |t, rec| fold.record(t, rec))?;
    let profiles = fold.into_profiles();
    let epochs = epochs.map(|(k, tol)| (&program, k, tol));
    out!("{}", extrap_core::render_stats_report(&profiles, epochs));
    Ok(())
}

fn cmd_timeline(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "timeline", args);
    let width = spec.parsed::<usize>("--width")?.unwrap_or(100);
    let [input] = spec.finish_exact("extrap timeline FILE [--width N]")?;
    let mut threads: Vec<Vec<TraceRecord>> = Vec::new();
    let n_threads = load_program(&input, |t, rec| {
        if threads.len() <= t {
            threads.resize_with(t + 1, Vec::new);
        }
        threads[t].push(*rec);
    })?
    .n_threads();
    threads.resize_with(n_threads, Vec::new);
    let set = TraceSet {
        threads: (threads.into_iter().enumerate())
            .map(|(t, records)| ThreadTrace {
                thread: ThreadId::from_index(t),
                records,
            })
            .collect(),
    };
    out!("{}", extrap_trace::timeline::render(&set, width));
    Ok(())
}

/// `extrap check`: drive the `extrap-check` model checker over the
/// built-in concurrency scenarios: `--scenarios` lists them,
/// `--scenario NAME` checks one, the default checks all production
/// scenarios, and `--replay CERT` re-executes a failure certificate
/// step for step.  Trace files are checked by `extrap lint` (the §5
/// determinism condition is its `E007`).
fn cmd_check(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "check", args);
    let list = spec.switch("--scenarios");
    let scenario = spec.value("--scenario")?;
    let replay_cert = spec.value("--replay")?;
    let schedules = spec.positive("--schedules")?;
    let seed = spec.parsed::<u64>("--seed")?;
    let max_steps = spec.positive("--max-steps")?;
    if let Some(file) = spec.finish()?.first() {
        return Err(format!(
            "check: takes no trace file (got {file:?}); the SS5 determinism check is \
             `extrap lint FILE` (E007).  usage: extrap check [--scenarios] \
             [--scenario NAME] [--replay CERT] [--schedules N] [--seed N] [--max-steps N]"
        ));
    }

    let config = extrap_check::CheckConfig {
        max_schedules: schedules.unwrap_or(1_000),
        seed: seed.unwrap_or(1),
        max_steps: max_steps.unwrap_or(50_000),
    };

    if list {
        for s in extrap_check::scenarios::all_scenarios() {
            outln!("{:18} {}", s.name, s.about);
        }
        return Ok(());
    }

    if let Some(cert) = replay_cert {
        let cert: extrap_check::Certificate = cert
            .parse()
            .map_err(|e| format!("check: bad certificate: {e}"))?;
        let scenario = extrap_check::scenarios::find(&cert.scenario)
            .ok_or_else(|| format!("check: unknown scenario {:?} in certificate", cert.scenario))?;
        let outcome = extrap_check::replay(&scenario, &cert, config.max_steps);
        match outcome.status {
            extrap_check::RunStatus::Failed(f) => {
                outln!("replay of {cert} reproduces the failure:");
                outln!("  {:?}: {}", f.kind, f.message);
                Err("failure reproduced (this is what the certificate records)".to_string())
            }
            _ => {
                outln!("replay of {cert} completed cleanly: no failure at this schedule");
                Ok(())
            }
        }
    } else {
        let to_check: Vec<extrap_check::Scenario> = match scenario {
            Some(name) => vec![extrap_check::scenarios::find(&name)
                .ok_or_else(|| format!("check: unknown scenario {name:?}; try --scenarios"))?],
            None => extrap_check::scenarios::scenarios(),
        };
        let mut failed = false;
        for s in &to_check {
            let report = extrap_check::check_scenario(s, &config);
            out!("{}", report.render());
            failed |= !report.passed();
        }
        if failed {
            Err("model check failed; replay the certificate above to debug".to_string())
        } else {
            Ok(())
        }
    }
}

/// `extrap lint`: run the static verification passes over trace files
/// and/or parameter configs *before* spending simulation time on them.
///
/// Inputs are sniffed by content: the `XTRP`/`XTPS` magic selects the
/// program-trace or trace-set linter (decoded **raw** through the
/// streaming reader, so a corrupted file is inspected in full instead
/// of failing at the first broken invariant); anything else is parsed
/// as a `key = value` parameter file.  Directories are recursed for
/// `.xtrp`/`.xtps`/`.cfg` files; the expanded list is path-sorted so
/// the output is deterministic regardless of worker count.  Files are
/// linted in parallel (`--jobs N`).  `--machine M` additionally lints a
/// named preset.  Exits nonzero when any error-severity diagnostic
/// survives `--allow CODE` filtering, or — under `--deny-warnings` — any
/// warning does.
///
/// `--fix` switches to repair mode: see [`cmd_lint_fix`].
fn cmd_lint(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "lint", args);
    if spec.switch("--codes") {
        let leftovers = spec.finish()?;
        if !leftovers.is_empty() {
            return Err("lint: --codes takes no other arguments".to_string());
        }
        for code in extrap_lint::Code::all() {
            outln!(
                "{} [{}] {}{}",
                code.as_str(),
                code.severity().label(),
                code.title(),
                if code.fixable() { " (fixable)" } else { "" }
            );
        }
        return Ok(());
    }
    let json = spec
        .enumerated("--format", "text, json", |v| match v {
            "text" => Some(false),
            "json" => Some(true),
            _ => None,
        })?
        .unwrap_or(false);
    let machine = spec.value("--machine")?;
    let jobs = spec
        .positive("--jobs")?
        .unwrap_or_else(extrap_core::sweep::default_workers);
    let deny_warnings = spec.switch("--deny-warnings");
    let allow: Vec<extrap_lint::Code> = spec
        .values("--allow")?
        .iter()
        .map(|s| {
            extrap_lint::Code::parse(s)
                .ok_or_else(|| format!("--allow: unknown code {s:?} (see `extrap lint --codes`)"))
        })
        .collect::<Result<_, _>>()?;
    let fix = spec.switch("--fix");
    let dry_run = spec.switch("--dry-run");
    let out_path = spec.value("--out")?;
    if !fix && (dry_run || out_path.is_some()) {
        return Err("lint: --dry-run/--out only make sense with --fix".to_string());
    }
    if fix {
        if json {
            return Err("lint: --fix supports text output only".to_string());
        }
        if machine.is_some() {
            return Err("lint: --fix repairs trace files; drop --machine".to_string());
        }
        let [input] = spec.finish_exact("extrap lint --fix FILE [--out FILE] [--dry-run]")?;
        return cmd_lint_fix(&input, out_path, dry_run, &allow, deny_warnings);
    }
    let inputs = spec.finish()?;
    if inputs.is_empty() && machine.is_none() {
        return Err(
            "usage: extrap lint FILE|DIR... [--machine M] [--format text|json]".to_string(),
        );
    }

    let files = expand_lint_inputs(&inputs)?;

    // (label, report) per linted input: the machine preset first
    // (serially), then every file in path order.
    let mut reports: Vec<(String, extrap_lint::Report)> = Vec::new();
    if let Some(name) = machine {
        let params = parse_machine(Some(name.clone()))?;
        reports.push((
            format!("machine:{name}"),
            apply_allow(extrap_lint::lint_params(&params), &allow),
        ));
    }
    let results = parallel_map(&files, jobs, |_i, path| lint_one(path));
    for (path, result) in files.iter().zip(results) {
        reports.push((path.clone(), apply_allow(result?, &allow)));
    }

    let errors: usize = reports.iter().map(|(_, r)| r.error_count()).sum();
    let warnings: usize = reports.iter().map(|(_, r)| r.warning_count()).sum();
    if json {
        let mut out = String::from("{\"files\":[");
        for (i, (label, report)) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"path\":\"");
            out.push_str(&json_escape(label));
            out.push_str("\",");
            // Splice the per-report object's fields into this file entry.
            out.push_str(&extrap_lint::render_json(report)[1..]);
        }
        out.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
        outln!("{out}");
    } else {
        for (label, report) in &reports {
            outln!("{label}:");
            out!("{}", extrap_lint::render_text(report));
        }
    }
    if errors > 0 {
        Err(format!(
            "lint found {errors} error{}",
            if errors == 1 { "" } else { "s" }
        ))
    } else if deny_warnings && warnings > 0 {
        Err(format!(
            "lint found {warnings} warning{} (--deny-warnings)",
            if warnings == 1 { "" } else { "s" }
        ))
    } else {
        Ok(())
    }
}

/// Lints one input file: binary traces go through the streaming linter
/// (bounded memory); anything else is treated as UTF-8 parameter config
/// text.
fn lint_one(path: &str) -> Result<extrap_lint::Report, String> {
    match extrap_lint::lint_trace_file(path) {
        Ok(Some(report)) => Ok(report),
        Ok(None) => {
            let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            let text = String::from_utf8(data)
                .map_err(|_| format!("{path}: not a trace file and not UTF-8 config text"))?;
            let params = SimParams::from_config_text_unvalidated(&text)
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(extrap_lint::lint_params(&params))
        }
        // Trace errors off the streaming linter already carry the path.
        Err(e) => Err(e.to_string()),
    }
}

/// Expands lint inputs: files pass through as given (whatever their
/// extension — content sniffing decides how to lint them), directories
/// are recursed for `.xtrp`/`.xtps`/`.cfg` files.  The result is
/// sorted and deduplicated so output order is deterministic.
fn expand_lint_inputs(args: &[String]) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for arg in args {
        let path = std::path::Path::new(arg);
        if path.is_dir() {
            collect_trace_files(path, &mut files)?;
        } else {
            files.push(arg.clone());
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn collect_trace_files(dir: &std::path::Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_trace_files(&path, out)?;
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("xtrp" | "xtps" | "cfg")
        ) {
            out.push(path.to_string_lossy().into_owned());
        }
    }
    Ok(())
}

/// Drops diagnostics whose code the user `--allow`ed.
fn apply_allow(report: extrap_lint::Report, allow: &[extrap_lint::Code]) -> extrap_lint::Report {
    if allow.is_empty() {
        return report;
    }
    extrap_lint::Report {
        diagnostics: report
            .diagnostics
            .into_iter()
            .filter(|d| !allow.contains(&d.code))
            .collect(),
    }
}

/// `extrap lint --fix`: mechanically repair the fixable diagnostics in
/// one binary trace file (`E001`/`E002` timestamp dips, `E003` bad
/// thread ids, `E006` dangling owners, `W003` missing frames), then
/// **re-lint the repaired trace and refuse to write unless it is
/// error-free** — unfixable corruption (`E004`, `E005`, `E007`,
/// `E009`) never silently produces a "fixed" file that still lies.
/// `--dry-run` reports the repairs without writing; `--out FILE`
/// redirects the output (default: in place).
fn cmd_lint_fix(
    input: &str,
    out_path: Option<String>,
    dry_run: bool,
    allow: &[extrap_lint::Code],
    deny_warnings: bool,
) -> Result<(), String> {
    use extrap_lint::Severity;

    enum Fixed {
        Program(extrap_trace::ProgramTrace),
        Set(extrap_trace::TraceSet),
    }
    let stream = extrap_trace::TraceStream::open(input).map_err(|e| e.to_string())?;
    let (fixed, notes, report) = match stream {
        extrap_trace::TraceStream::Program(mut stream) => {
            let out = extrap_lint::fix_program(&stream.read_to_end().map_err(|e| e.to_string())?);
            let report = extrap_lint::lint_program(&out.value);
            (Fixed::Program(out.value), out.notes, report)
        }
        extrap_trace::TraceStream::Set(mut stream) => {
            let out = extrap_lint::fix_set(&stream.read_to_end().map_err(|e| e.to_string())?);
            let report = extrap_lint::lint_set(&out.value);
            (Fixed::Set(out.value), out.notes, report)
        }
    };
    let report = apply_allow(report, allow);

    outln!("{input}:");
    for note in &notes {
        outln!("fix[{}]: {}", note.code, note.detail);
    }
    // Whatever survives the fixer is by definition beyond mechanical
    // repair; say so explicitly next to each remaining error.
    let mut shown = report.clone();
    for d in &mut shown.diagnostics {
        if d.code.severity() == Severity::Error {
            d.message.push_str(" [unfixable]");
        }
    }
    out!("{}", extrap_lint::render_text(&shown));

    let errors = report.error_count();
    if errors > 0 {
        return Err(format!(
            "lint --fix: {errors} unfixable error{} remain; not writing",
            if errors == 1 { "" } else { "s" }
        ));
    }
    let dest = out_path.unwrap_or_else(|| input.to_string());
    if dry_run {
        outln!(
            "dry run: {} repair{} would be written to {dest}",
            notes.len(),
            if notes.len() == 1 { "" } else { "s" }
        );
    } else {
        match &fixed {
            Fixed::Program(trace) => extrap_trace::writer::write_program_file(&dest, trace),
            Fixed::Set(set) => extrap_trace::writer::write_set_file(&dest, set),
        }
        .map_err(|e| format!("{dest}: {e}"))?;
        // Belt and braces: the file on disk must re-lint error-free.
        let back = lint_one(&dest)?;
        if apply_allow(back, allow).has_errors() {
            return Err(format!("lint --fix: {dest} fails re-lint after writing"));
        }
        outln!(
            "wrote fixed trace to {dest} ({} repair{})",
            notes.len(),
            if notes.len() == 1 { "" } else { "s" }
        );
    }
    let warnings = report.warning_count();
    if deny_warnings && warnings > 0 {
        return Err(format!(
            "lint found {warnings} warning{} (--deny-warnings)",
            if warnings == 1 { "" } else { "s" }
        ));
    }
    Ok(())
}

fn cmd_diff(args: Vec<String>) -> Result<(), String> {
    let [input, ma, mb] = ArgSpec::new("extrap", "diff", args)
        .finish_exact("extrap diff FILE <machineA> <machineB>")?;
    let program = load_program(&input, |_, _| {})?;
    let pa = parse_machine(Some(ma.clone()))?;
    let pb = parse_machine(Some(mb.clone()))?;
    let a = Extrapolator::new(pa)
        .run(&program)
        .map_err(|e| e.to_string())?;
    let b = Extrapolator::new(pb)
        .run(&program)
        .map_err(|e| e.to_string())?;
    outln!(
        "{}: {:.3} ms    {}: {:.3} ms",
        ma,
        a.exec_time().as_ms(),
        mb,
        b.exec_time().as_ms()
    );
    out!("{}", extrap_core::diff(&a, &b).render(&ma, &mb));
    Ok(())
}

fn cmd_params(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "params", args);
    let params = spec
        .enumerated("--machine", "distributed, shared, ideal, cm5", machine_of)?
        .unwrap_or_else(machine::default_distributed);
    let leftovers = spec.finish()?;
    if !leftovers.is_empty() {
        return Err("usage: extrap params [--machine M]".to_string());
    }
    out!("{}", params.to_config_text());
    Ok(())
}
