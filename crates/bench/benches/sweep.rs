//! The parallel sweep engine on the Figure-4 grid (all 7 benchmarks ×
//! 6 processor counts, translation included): serial vs worker-pool
//! wall clock, plus the warm-cache (extrapolation-only) comparison.
//!
//! Run with `cargo bench --bench sweep`; the trailing summary prints the
//! measured parallel speedup.

use extrap_bench::harness::{Harness, Throughput};
use extrap_core::{machine, sweep, RecordMode, SharedTraceCache, SweepGrid};
use extrap_time::{outln, DurationNs, ElementId, ThreadId};
use extrap_trace::{translate, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace};
use extrap_workloads::{Bench, Scale};
use std::hint::black_box;
use std::time::Instant;

const PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn fig4_grid(record_mode: RecordMode) -> Vec<extrap_core::SweepJob<(Bench, usize)>> {
    let mut params = machine::default_distributed();
    params.record_mode = record_mode;
    SweepGrid::new()
        .workloads(Bench::all())
        .procs(PROCS)
        .params(params)
        .jobs()
}

fn run_grid_mode(
    workers: usize,
    cache: &SharedTraceCache<(Bench, usize)>,
    record_mode: RecordMode,
    scale: Scale,
) -> usize {
    let jobs = fig4_grid(record_mode);
    let results = sweep(&jobs, workers, cache, |(bench, n)| {
        translate(&bench.trace(*n, scale), Default::default())
    });
    results.iter().filter(|r| r.is_ok()).count()
}

fn run_grid(workers: usize, cache: &SharedTraceCache<(Bench, usize)>, scale: Scale) -> usize {
    run_grid_mode(workers, cache, RecordMode::Full, scale)
}

/// The wide lint shape: 128 threads, 64 barrier epochs and 8 remote
/// accesses per thread and epoch — six reads of elements their owner
/// shares with every reader, two writes to the writer's own element of
/// that owner — so every live epoch holds ~1k cells and the trace lints
/// clean.  Elements are `owner * 256 + slot`, so ownership is
/// consistent by construction.
fn wide_lint_program() -> ProgramTrace {
    const THREADS: usize = 128;
    let mut p = PhaseProgram::new(THREADS);
    for epoch in 0..64 {
        let phase = (0..THREADS)
            .map(|t| PhaseWork {
                compute: DurationNs(100_000 + 1_000 * (t % 7) as u64),
                accesses: (0..8)
                    .map(|k| {
                        let owner = (t + 1 + (epoch * 7 + k * 13) % (THREADS - 1)) % THREADS;
                        let write = k >= 6;
                        let slot = if write { 64 + t } else { (t + k + epoch) % 64 };
                        PhaseAccess {
                            after: DurationNs(10_000 * (k as u64 + 1)),
                            owner: ThreadId::from_index(owner),
                            element: ElementId((owner * 256 + slot) as u32),
                            declared_bytes: 64,
                            actual_bytes: 64,
                            write,
                        }
                    })
                    .collect(),
            })
            .collect();
        p.push_phase(phase);
    }
    p.record()
}

fn timed(label: &str, runs: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = Instant::now();
        let ok = black_box(f());
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(ok, 42, "all Fig-4 jobs must succeed");
        best = best.min(secs);
    }
    outln!("{label:40} {best:>10.3} s");
    best
}

fn main() {
    // `cargo bench --bench sweep -- --workers N` overrides the pool size
    // (useful for scaling curves); default is all available cores.
    // `--scale tiny|small|paper` selects the problem scale — `paper` is
    // the nightly trajectory entry (`BENCH_sweep_paper.json`).
    let (mut h, (workers, scale)) = Harness::from_args("sweep", |spec| {
        let workers = spec
            .positive("--workers")?
            .unwrap_or_else(extrap_core::sweep::default_workers);
        let scale = spec
            .enumerated("--scale", Scale::VALID, Scale::parse)?
            .unwrap_or_default();
        Ok((workers, scale))
    });
    outln!(
        "## sweep — Fig-4 grid (7 benchmarks x {} proc counts, {scale:?} scale)",
        PROCS.len()
    );
    outln!(
        "workers: {workers} (available parallelism: {})",
        extrap_core::sweep::default_workers()
    );

    // Cold cache: translation + extrapolation both ride the pool.
    let serial_cold = timed("cold cache, 1 worker", 3, || {
        run_grid(1, &SharedTraceCache::new(), scale)
    });
    let parallel_cold = timed(&format!("cold cache, {workers} workers"), 3, || {
        run_grid(workers, &SharedTraceCache::new(), scale)
    });

    // Warm cache: pure extrapolation fan-out over the shared traces.
    let warm = SharedTraceCache::new();
    run_grid(1, &warm, scale);
    let serial_warm = timed("warm cache, 1 worker", 5, || run_grid(1, &warm, scale));
    let parallel_warm = timed(&format!("warm cache, {workers} workers"), 5, || {
        run_grid(workers, &warm, scale)
    });

    outln!(
        "speedup: cold {:.2}x, warm {:.2}x at {workers} workers",
        serial_cold / parallel_cold,
        serial_warm / parallel_warm
    );

    // The harness-based rows, for the uniform report format (and the
    // `--json` trajectory file the CI regression gate reads).
    let warm2 = SharedTraceCache::new();
    run_grid(1, &warm2, scale);
    h.bench("fig4_grid_warm_serial", || run_grid(1, &warm2, scale));
    h.bench("fig4_grid_warm_pool", || run_grid(workers, &warm2, scale));
    h.bench("fig4_grid_warm_serial_metrics_only", || {
        run_grid_mode(1, &warm2, RecordMode::MetricsOnly, scale)
    });
    h.bench("fig4_grid_warm_pool_metrics_only", || {
        run_grid_mode(workers, &warm2, RecordMode::MetricsOnly, scale)
    });

    // Streaming lint: the chunked-reader + incremental-pass hot path
    // behind `extrap lint`, over an in-memory Fig-4-sized program trace
    // and the wide shape.
    for (name, trace) in [
        ("lint_stream", Bench::Grid.trace(8, scale)),
        ("lint_stream_wide", wide_lint_program()),
    ] {
        let bytes = extrap_trace::format::encode_program(&trace);
        h.bench_throughput(name, Throughput::Bytes(bytes.len() as u64), || {
            use extrap_trace::stream::{ProgramStream, SliceSource};
            let mut s = ProgramStream::new(SliceSource(&bytes)).unwrap();
            let report = extrap_lint::lint_program_stream(&mut s).unwrap();
            assert!(report.is_clean(), "{name}: the bench trace must lint clean");
            report.diagnostics.len()
        });
    }
    h.finish();
}
