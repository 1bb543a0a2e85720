//! End-to-end tests of representative-region simulation
//! (`Strategy = repr`): fallback byte-identity on non-repeating
//! benchmarks, composition accuracy on synthetic periodic traces, and
//! determinism of repr sweeps across worker counts.

use perf_extrap::prelude::*;

fn with_strategy(strategy: SimStrategy) -> SimParams {
    let mut params = machine::default_distributed();
    params.strategy = strategy;
    params
}

/// The default translation of a 1-processor trace, compiled.
fn compiled(trace: &ProgramTrace) -> CompiledProgram {
    CompiledProgram::compile(&translate(trace, Default::default()).unwrap()).unwrap()
}

/// Full structural equality of two predictions (`Prediction` carries a
/// trace, so it doesn't implement `PartialEq` itself).
fn assert_identical(a: &Prediction, b: &Prediction, context: &str) {
    assert_eq!(a.n_threads, b.n_threads, "{context}: n_threads");
    assert_eq!(a.n_procs, b.n_procs, "{context}: n_procs");
    assert_eq!(a.per_thread, b.per_thread, "{context}: per-thread stats");
    assert_eq!(a.network, b.network, "{context}: network stats");
    assert_eq!(a.barriers, b.barriers, "{context}: barriers");
    assert_eq!(
        a.events_dispatched, b.events_dispatched,
        "{context}: events"
    );
    assert_eq!(a.predicted, b.predicted, "{context}: predicted trace");
}

#[test]
fn non_repeating_benchmarks_fall_back_byte_identically() {
    // Embar has too few epochs to amortize anything; Cyclic's epochs
    // form a geometric series (compute halves every epoch), so no two
    // cluster together.  Both must take the exact path — including the
    // materialized predicted trace.
    for bench in [Bench::Embar, Bench::Cyclic] {
        for n in [4usize, 8] {
            let traces = compiled(&bench.trace(n, Scale::Tiny));
            let exact = Extrapolator::new(with_strategy(SimStrategy::Exact))
                .run(&traces)
                .unwrap();
            let repr = Extrapolator::new(with_strategy(SimStrategy::representative()))
                .run(&traces)
                .unwrap();
            assert_identical(&exact, &repr, &format!("{} n={n}", bench.name()));
        }
    }
}

/// A synthetic periodic program: `period` distinct SplitMix64-drawn
/// phase durations repeated `reps` times.
fn periodic_trace(n_threads: usize, period: usize, reps: usize, seed: u64) -> CompiledProgram {
    let mut state = seed;
    let pattern: Vec<DurationNs> = (0..period)
        .map(|_| DurationNs(200_000 + splitmix64(&mut state) % 2_000_000))
        .collect();
    let mut p = PhaseProgram::new(n_threads);
    for _ in 0..reps {
        for &d in &pattern {
            p.push_uniform_phase(d);
        }
    }
    compiled(&p.record())
}

#[test]
fn periodic_synthetic_traces_compose_within_declared_tolerance() {
    for (threads, period, reps, seed) in [
        (4usize, 3usize, 12usize, 1u64),
        (8, 5, 10, 2),
        (2, 1, 40, 3),
    ] {
        let traces = periodic_trace(threads, period, reps, seed);
        let exact = Extrapolator::new(with_strategy(SimStrategy::Exact))
            .run(&traces)
            .unwrap();
        let repr = Extrapolator::new(with_strategy(SimStrategy::representative()))
            .run(&traces)
            .unwrap();

        let (e, r) = (
            exact.exec_time().as_ns() as f64,
            repr.exec_time().as_ns() as f64,
        );
        let err = (r - e).abs() / e;
        assert!(
            err <= 0.05,
            "period={period} reps={reps}: {err:.4} relative error exceeds the declared tolerance"
        );
        assert!(
            repr.events_dispatched < exact.events_dispatched,
            "period={period}: representative run must dispatch fewer events"
        );
        // Workload metrics compose exactly when the pattern repeats
        // perfectly: identical epochs have identical representatives.
        assert_eq!(exact.network.messages, repr.network.messages);
        let exact_compute: DurationNs = exact.per_thread.iter().map(|t| t.compute).sum();
        let repr_compute: DurationNs = repr.per_thread.iter().map(|t| t.compute).sum();
        assert_eq!(exact_compute, repr_compute, "period={period}");
    }
}

#[test]
fn repr_sweeps_are_byte_identical_across_worker_counts() {
    let jobs: Vec<SweepJob<usize>> = [1usize, 4, 8, 16]
        .into_iter()
        .map(|n| SweepJob {
            key: n,
            params: with_strategy(SimStrategy::representative()),
        })
        .collect();
    let run = |workers: usize| -> Vec<Prediction> {
        let cache = SharedTraceCache::new();
        sweep(&jobs, workers, &cache, |&n| {
            translate(&Bench::Mgrid.trace(n, Scale::Small), Default::default())
        })
        .into_iter()
        .map(|r| r.unwrap())
        .collect()
    };
    let serial = run(1);
    let pooled = run(8);
    // Covers cluster-weight determinism too: composed metrics are a
    // weighted sum, so any weight difference shows up in the bytes.
    for ((s, p), &n) in serial.iter().zip(&pooled).zip(&[1usize, 4, 8, 16]) {
        assert_identical(s, p, &format!("mgrid n={n}"));
    }
    // And the strategy must actually engage on Mgrid (it repeats).
    let exact = run_exact();
    assert!(
        serial[3].events_dispatched < exact.events_dispatched,
        "Mgrid at small scale must use the representative path"
    );
}

fn run_exact() -> Prediction {
    let traces = compiled(&Bench::Mgrid.trace(16, Scale::Small));
    Extrapolator::new(with_strategy(SimStrategy::Exact))
        .run(&traces)
        .unwrap()
}
