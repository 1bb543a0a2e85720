//! The repository benchmark: three workloads that measure what a user
//! of ExtraP-rs pays in host time, end to end and layer by layer.
//!
//! * `whatif-sweep` — many what-if questions against warm, captured
//!   paper traces (simulation-bound; nothing is ingested per question);
//! * `trace-ingest` — fresh synthetic trace files taken through lint,
//!   out-of-core translate, set-stream compile and static bounds (no
//!   simulation);
//! * `serve-closed` — two closed-loop clients against an in-process
//!   `extrap-serve` daemon (wire, admission, queueing, cache churn).
//!
//! An untraced run reports the end-to-end metrics.  A traced run
//! (`--trace 1`) times the benchmark's calls into each layer's public
//! functions, keeps the spans in memory, writes them out at the end,
//! and reports the per-layer metrics.  See `perfbench/README.md`.

pub mod gen;
pub mod host;
mod ingest;
mod serve;
pub mod spans;
mod whatif;

use spans::Tracer;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm what-if sweeps over captured paper traces.
    WhatifSweep,
    /// Simulation-free ingest of fresh trace files.
    TraceIngest,
    /// Closed-loop clients against the serving daemon.
    ServeClosed,
}

impl Workload {
    /// Every workload, in the order a traced run measures them.
    pub const ALL: [Workload; 3] = [
        Workload::WhatifSweep,
        Workload::TraceIngest,
        Workload::ServeClosed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WhatifSweep => "whatif-sweep",
            Workload::TraceIngest => "trace-ingest",
            Workload::ServeClosed => "serve-closed",
        }
    }

    /// Inverse of [`name`](Workload::name).
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is the benchmark proper, `Tiny` a seconds-long
/// smoke run of the same code paths for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Minimal inputs.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of one measured pass, in seconds.
    pub seconds: f64,
    /// Input size.
    pub size: Size,
    /// How many times an untraced run performs its set-up (`setup_s` is
    /// the median); the last set-up is the one measured.
    pub setups: usize,
    /// Perturb one reference result before measuring, so the output
    /// checks must report failed ops.  Test hook.
    pub corrupt_reference: bool,
    /// Directory for generated files, spill runs and the span dump.
    pub out_dir: PathBuf,
}

impl Config {
    /// A configuration with the benchmark's defaults.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Config {
        Config {
            workload,
            seed,
            seconds,
            size: Size::Full,
            // Capture takes seconds; the other set-ups take tens of
            // milliseconds and need more repetitions for a steady median.
            setups: if workload == Workload::WhatifSweep {
                3
            } else {
                21
            },
            corrupt_reference: false,
            out_dir: PathBuf::from(".bench_out"),
        }
    }

    /// Ops a measured pass runs at least, whatever `seconds` says, so
    /// the 90th percentile has at least ten samples beyond it.
    pub(crate) fn min_ops(&self) -> usize {
        match self.size {
            Size::Full => 100,
            Size::Tiny => 10,
        }
    }

    fn deadline_passed(&self, start: Instant, ops: usize) -> bool {
        ops >= self.min_ops() && start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured passes.
    pub attempted: u64,
    /// Ops whose output check failed or that returned an error.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub report: String,
}

impl Outcome {
    /// True when every op's output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a non-finite value is a bug
            // in the metric's definition and prints as null.
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// One measured op.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpRecord {
    /// Completion time, seconds since the pass started.
    pub end_s: f64,
    /// Latency, nanoseconds.
    pub ns: u64,
    /// Predictions the op answered (simulated or bounded).
    pub predictions: u32,
    /// Program-trace bytes the op took in.
    pub trace_bytes: u64,
}

/// The raw numbers of one measured pass, from which the end-to-end
/// metrics are derived the same way for every workload.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The ops, in completion order.
    pub ops: Vec<OpRecord>,
    /// Whether ops overlap (the two-client workload).  Throughput then
    /// divides by wall time; otherwise by the summed op latency, which
    /// leaves the benchmark's own output checks out.
    pub concurrent: bool,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Failure messages (first few only).
    pub errors: Vec<String>,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Records an op that started `ns` nanoseconds ago in a pass that
    /// started at `start`.
    fn record(&mut self, start: Instant, ns: u64, predictions: u32, trace_bytes: u64) {
        self.ops.push(OpRecord {
            end_s: start.elapsed().as_secs_f64(),
            ns,
            predictions,
            trace_bytes,
        });
    }

    /// `op_ms`, `op_p90_ms` and the three throughput metrics, over the
    /// whole pass.
    fn metrics(&self) -> Vec<Metric> {
        let mut ms: Vec<f64> = self.ops.iter().map(|o| o.ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        let timed_s = if self.concurrent {
            self.ops.iter().map(|o| o.end_s).fold(0.0, f64::max)
        } else {
            self.ops.iter().map(|o| o.ns as f64 / 1e9).sum()
        }
        .max(1e-9);
        let predictions: f64 = self.ops.iter().map(|o| f64::from(o.predictions)).sum();
        let bytes: f64 = self.ops.iter().map(|o| o.trace_bytes as f64).sum();
        vec![
            Metric {
                name: "op_ms",
                value: spans::median_sorted(&ms),
                unit: "ms",
            },
            Metric {
                name: "op_p90_ms",
                value: spans::percentile_sorted(&ms, 0.90),
                unit: "ms",
            },
            Metric {
                name: "predictions_per_s",
                value: predictions / timed_s,
                unit: "1/s",
            },
            Metric {
                name: "ingest_mb_per_s",
                value: bytes / 1e6 / timed_s,
                unit: "MB/s",
            },
            Metric {
                name: "requests_per_s",
                value: ms.len() as f64 / timed_s,
                unit: "1/s",
            },
        ]
    }

    fn summary(&self) -> String {
        let m = self.metrics();
        let get = |n: &str| m.iter().find(|x| x.name == n).map_or(0.0, |x| x.value);
        format!(
            "ops {:6}  op_ms {:8.3}  op_p90_ms {:8.3}  predictions/s {:10.1}  MB/s {:8.2}  requests/s {:9.1}",
            self.ops.len(),
            get("op_ms"),
            get("op_p90_ms"),
            get("predictions_per_s"),
            get("ingest_mb_per_s"),
            get("requests_per_s"),
        )
    }
}

/// A workload's traced pass: per-layer metrics plus the spans behind
/// them.
pub struct Traced {
    /// An untraced pass on the same set-up, run just before, when asked
    /// for: the baseline of the tracing overhead.
    pub untraced: Option<Pass>,
    /// The pass's own end-to-end numbers (tracing on).  A traced op may
    /// do more than the untraced one (layer calls split apart).
    pub pass: Pass,
    /// Median time, in the traced pass, of exactly the work one
    /// untraced op does: compared with the untraced `op_ms`, it is the
    /// tracing overhead.
    pub comparable_ms: f64,
    /// Per-layer metrics of this workload's layers.
    pub layers: Vec<Metric>,
    /// Spans recorded from set-up to the end of the pass.
    pub tracer: Tracer,
    /// Extra lines for the report.
    pub notes: Vec<String>,
}

/// The operations every workload provides.  `State` is what set-up
/// builds and the measured passes use.
trait Bench {
    type State;
    /// Builds the inputs, timed as `setup_s`; spans go to `tracer`.
    fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<Self::State, String>;
    /// Computes the output-check references (not part of `setup_s`).
    fn references(cfg: &Config, state: &mut Self::State) -> Result<(), String>;
    /// One untraced measured pass.
    fn measure(cfg: &Config, state: &mut Self::State) -> Pass;
    /// One traced measured pass.
    fn measure_traced(
        cfg: &Config,
        state: &mut Self::State,
        tracer: Tracer,
    ) -> Result<Traced, String>;
}

/// Runs `cfg.workload` untraced and returns its end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::WhatifSweep => run_untraced::<whatif::WhatifSweep>(cfg),
        Workload::TraceIngest => run_untraced::<ingest::TraceIngest>(cfg),
        Workload::ServeClosed => run_untraced::<serve::ServeClosed>(cfg),
    }
}

fn run_untraced<B: Bench>(cfg: &Config) -> Result<Outcome, String> {
    prepare_out_dir(cfg)?;
    let mut setup_s = Vec::with_capacity(cfg.setups.max(1));
    let mut state = None;
    for _ in 0..cfg.setups.max(1) {
        // The previous set-up's state is released first, so peak memory
        // reflects one set-up, not several.
        drop(state.take());
        let t = Instant::now();
        let built = B::setup(cfg, &mut Tracer::disabled())?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(built);
    }
    let mut state = state.expect("at least one set-up ran");
    B::references(cfg, &mut state)?;
    let pass = B::measure(cfg, &mut state);
    drop(state);
    let peak_rss_mib = host::peak_rss_kib().map_or(0.0, |k| k as f64 / 1024.0);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{} seed {} | set-ups {:?} s",
        cfg.workload.name(),
        cfg.seed,
        setup_s
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    let _ = writeln!(report, "{}", pass.summary());
    for e in &pass.errors {
        let _ = writeln!(report, "FAILED: {e}");
    }
    setup_s.sort_by(f64::total_cmp);
    let mut metrics = vec![
        Metric {
            name: "setup_s",
            value: spans::median_sorted(&setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mib,
            unit: "MiB",
        },
    ];
    metrics.extend(pass.metrics());
    Ok(Outcome {
        attempted: pass.ops.len() as u64,
        failed: pass.failed,
        metrics,
        report,
    })
}

/// The traced run: every workload's layers are measured (so every
/// per-layer metric is reported whichever workload is named), and the
/// named workload also gets an untraced pass on the same set-up, so the
/// tracing overhead shows side by side.  The other workloads' traced
/// passes last half as long.
pub fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    prepare_out_dir(cfg)?;
    let mut outcome = Outcome::default();
    let mut all_spans = Tracer::disabled();
    for w in Workload::ALL {
        let named = w == cfg.workload;
        let wcfg = Config {
            workload: w,
            seconds: if named {
                cfg.seconds
            } else {
                cfg.seconds / 2.0
            },
            ..cfg.clone()
        };
        let traced = trace_workload(&wcfg, named)?;
        let untraced = &traced.untraced;
        let _ = writeln!(outcome.report, "== {} (traced) ==", w.name());
        if let Some(u) = untraced {
            let _ = writeln!(outcome.report, "untraced {}", u.summary());
        }
        let _ = writeln!(outcome.report, "traced   {}", traced.pass.summary());
        if let Some(u) = untraced {
            let op_ms = u.metrics()[0].value;
            let _ = writeln!(
                outcome.report,
                "tracing overhead: the untraced op's work takes {:.3} ms traced vs op_ms {op_ms:.3} untraced ({:+.1}%)",
                traced.comparable_ms,
                (traced.comparable_ms / op_ms - 1.0) * 100.0
            );
        }
        outcome.report.push_str(&traced.tracer.self_time_table());
        for n in &traced.notes {
            let _ = writeln!(outcome.report, "note: {n}");
        }
        for e in &traced.pass.errors {
            let _ = writeln!(outcome.report, "FAILED: {e}");
        }
        if let Some(u) = untraced {
            outcome.attempted += u.ops.len() as u64;
            outcome.failed += u.failed;
        }
        outcome.attempted += traced.pass.ops.len() as u64;
        outcome.failed += traced.pass.failed;
        outcome.metrics.extend(traced.layers);
        all_spans.absorb(traced.tracer);
    }
    let path = cfg.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    all_spans
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(
        outcome.report,
        "{} spans written to {}",
        all_spans.len(),
        path.display()
    );
    Ok(outcome)
}

/// One workload's traced pass, on a set-up of its own; with
/// `with_untraced`, an untraced pass on the same set-up runs first.
pub fn trace_workload(cfg: &Config, with_untraced: bool) -> Result<Traced, String> {
    prepare_out_dir(cfg)?;
    match cfg.workload {
        Workload::WhatifSweep => traced_pass::<whatif::WhatifSweep>(cfg, with_untraced),
        Workload::TraceIngest => traced_pass::<ingest::TraceIngest>(cfg, with_untraced),
        Workload::ServeClosed => traced_pass::<serve::ServeClosed>(cfg, with_untraced),
    }
}

fn traced_pass<B: Bench>(cfg: &Config, with_untraced: bool) -> Result<Traced, String> {
    let mut tracer = Tracer::new();
    let mut state = B::setup(cfg, &mut tracer)?;
    B::references(cfg, &mut state)?;
    let untraced = with_untraced.then(|| B::measure(cfg, &mut state));
    let mut traced = B::measure_traced(cfg, &mut state, tracer)?;
    traced.untraced = untraced;
    Ok(traced)
}

fn prepare_out_dir(cfg: &Config) -> Result<(), String> {
    let tmp = cfg.out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    Ok(())
}

/// A per-process scratch directory under `out_dir`, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(cfg: &Config, tag: &str) -> Result<ScratchDir, String> {
        let dir = cfg.out_dir.join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
