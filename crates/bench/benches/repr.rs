//! Representative-region simulation vs exact replay: the warm-cache
//! sweep over the repetition-heavy benchmarks (Mgrid, Poisson, Grid,
//! Sparse, Sort) × 6 processor counts, once per strategy.
//!
//! The caches are primed first, so the timed region is extrapolation
//! only — exactly the work `Strategy = repr` is meant to collapse.  The
//! trailing summary prints the measured exact/repr speedup; the
//! `--json` trajectory rows feed the CI regression gate
//! (`BENCH_repr.json`) and the nightly paper-scale run.
//!
//! Run with `cargo bench --bench repr [-- --scale paper] [--workers N]`.

use extrap_bench::harness::Harness;
use extrap_core::{machine, sweep, RecordMode, SharedTraceCache, SimStrategy, SweepGrid};
use extrap_time::outln;
use extrap_trace::translate;
use extrap_workloads::{Bench, Scale};
use std::hint::black_box;
use std::time::Instant;

const PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The sweep population: every benchmark with barrier-epoch repetition
/// to exploit, plus Poisson (which falls back — its cost is the honest
/// price of the fallback check).
const BENCHES: [Bench; 5] = [
    Bench::Mgrid,
    Bench::Poisson,
    Bench::Grid,
    Bench::Sparse,
    Bench::Sort,
];

fn grid(benches: &[Bench], strategy: SimStrategy) -> Vec<extrap_core::SweepJob<(Bench, usize)>> {
    let mut params = machine::default_distributed();
    params.record_mode = RecordMode::MetricsOnly;
    params.strategy = strategy;
    SweepGrid::new()
        .workloads(benches.to_vec())
        .procs(PROCS)
        .params(params)
        .jobs()
}

fn run_grid(
    workers: usize,
    cache: &SharedTraceCache<(Bench, usize)>,
    benches: &[Bench],
    strategy: SimStrategy,
    scale: Scale,
) -> usize {
    let jobs = grid(benches, strategy);
    let results = sweep(&jobs, workers, cache, |(bench, n)| {
        translate(&bench.trace(*n, scale), Default::default())
    });
    results.iter().filter(|r| r.is_ok()).count()
}

fn timed(label: &str, runs: usize, expect: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = Instant::now();
        let ok = black_box(f());
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(ok, expect, "all jobs must succeed");
        best = best.min(secs);
    }
    outln!("{label:40} {best:>10.3} s");
    best
}

fn main() {
    // `--benches mgrid,poisson` restricts the population (the nightly
    // paper-scale job measures the iterative pair on its own).
    let (mut h, (workers, scale, benches)) = Harness::from_args("repr", |spec| {
        let workers = spec
            .positive("--workers")?
            .unwrap_or_else(extrap_core::sweep::default_workers);
        let scale = spec
            .enumerated("--scale", Scale::VALID, Scale::parse)?
            .unwrap_or_default();
        let benches: Vec<Bench> = match spec.value("--benches")? {
            None => BENCHES.to_vec(),
            Some(list) => list
                .split(',')
                .map(Bench::parse)
                .collect::<Result<_, _>>()?,
        };
        Ok((workers, scale, benches))
    });
    outln!(
        "## repr — representative vs exact sweep ({} benchmarks x {} proc counts, {scale:?} scale)",
        benches.len(),
        PROCS.len()
    );
    outln!("workers: {workers}");

    // Prime translations (and, for repr, the memoized cluster plans) so
    // the timed region is pure simulation.
    let warm = SharedTraceCache::new();
    let expect = benches.len() * PROCS.len();
    run_grid(1, &warm, &benches, SimStrategy::Exact, scale);
    run_grid(1, &warm, &benches, SimStrategy::representative(), scale);

    let exact = timed("warm cache, exact, 1 worker", 5, expect, || {
        run_grid(1, &warm, &benches, SimStrategy::Exact, scale)
    });
    let repr = timed("warm cache, repr, 1 worker", 5, expect, || {
        run_grid(1, &warm, &benches, SimStrategy::representative(), scale)
    });
    outln!(
        "speedup: repr {:.2}x over exact (serial, warm)",
        exact / repr
    );

    h.bench("repr_grid_warm_exact_serial", || {
        run_grid(1, &warm, &benches, SimStrategy::Exact, scale)
    });
    h.bench("repr_grid_warm_repr_serial", || {
        run_grid(1, &warm, &benches, SimStrategy::representative(), scale)
    });
    h.bench("repr_grid_warm_repr_pool", || {
        run_grid(
            workers,
            &warm,
            &benches,
            SimStrategy::representative(),
            scale,
        )
    });
    h.finish();
}
