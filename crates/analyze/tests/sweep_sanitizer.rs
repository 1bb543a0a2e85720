//! The bounds sanitizer sees every sweep result, representative
//! strategy included — whether clustering engages or the job falls back
//! to the exact path.
//!
//! Lives in its own integration-test binary because the sanitizer hook
//! is process-global: the checker installed here rejects *every*
//! result, which would trip any other test sharing the process.

use extrap_core::sweep::{sweep, SharedTraceCache, SweepJob};
use extrap_core::{machine, sanitizer, CompiledProgram, ReprPlan, SimStrategy};
use extrap_trace::{TraceError, TraceSet};
use extrap_workloads::{Bench, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};

const THREADS: usize = 4;

fn translate(bench: Bench) -> Result<TraceSet, TraceError> {
    extrap_trace::translate(&bench.trace(THREADS, Scale::Small), Default::default())
}

/// Whether representative clustering engages on `bench` (a plan exists)
/// or the job falls back to the exact path.
fn clusters(bench: Bench) -> bool {
    let program = CompiledProgram::compile(&translate(bench).expect("translate")).expect("compile");
    ReprPlan::from_program(
        &program,
        SimStrategy::DEFAULT_MAX_CLUSTERS,
        SimStrategy::DEFAULT_TOLERANCE,
    )
    .is_some()
}

/// Runs one representative-strategy sweep job on `bench` and returns
/// the panic message it raised, if any.
fn repr_sweep_panic(bench: Bench) -> Option<String> {
    let mut params = machine::default_distributed();
    params.strategy = SimStrategy::representative();
    let jobs = vec![SweepJob {
        key: (bench.name(), THREADS),
        params,
    }];
    let cache = SharedTraceCache::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        sweep(&jobs, 1, &cache, |_| translate(bench))
    }));
    let payload = outcome.err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string()),
    )
}

#[test]
fn repr_sweep_jobs_pass_through_the_sanitizer() {
    assert!(clusters(Bench::Grid), "Grid must exercise the plan path");
    assert!(!clusters(Bench::Embar), "Embar must exercise the fallback");

    sanitizer::install(|_, _, _| Err("every result is rejected".to_string()));
    sanitizer::set_enabled(true);
    for bench in [Bench::Grid, Bench::Embar] {
        let msg = repr_sweep_panic(bench)
            .unwrap_or_else(|| panic!("{bench:?}: repr sweep job skipped the sanitizer"));
        assert!(
            msg.contains("bounds sanitizer"),
            "{bench:?}: unexpected panic message: {msg}"
        );
    }
    sanitizer::set_enabled(false);
}
