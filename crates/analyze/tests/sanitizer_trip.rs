//! Sanitizer end-to-end: installed and enabled, honest simulations pass
//! through silently while a deliberately corrupted cost model panics.
//!
//! Lives in its own integration-test binary because the sanitizer hook
//! is process-global: the tests here run in one process that *expects*
//! the hook installed, without racing the envelope tests.

use extrap_core::{machine, sanitizer, CompiledProgram, Extrapolator};
use extrap_workloads::{Bench, Scale};

fn grid_program(n: usize) -> CompiledProgram {
    let set = extrap_trace::translate(&Bench::all()[3].trace(n, Scale::Small), Default::default())
        .expect("translate");
    CompiledProgram::compile(&set).expect("compile")
}

#[test]
fn honest_results_pass_and_corrupted_cost_model_trips() {
    extrap_analyze::install_sanitizer();
    assert!(sanitizer::is_active());

    // Honest engine + honest parameters: every strategy sails through.
    let program = grid_program(4);
    let mut params = machine::default_distributed();
    Extrapolator::new(params.clone())
        .run(&program)
        .expect("exact under sanitizer");
    params.strategy = extrap_core::SimStrategy::Representative {
        max_clusters: extrap_core::SimStrategy::DEFAULT_MAX_CLUSTERS,
        tolerance: extrap_core::SimStrategy::DEFAULT_TOLERANCE,
    };
    Extrapolator::new(params.clone())
        .run(&program)
        .expect("representative under sanitizer");

    // Corrupted cost model: the result was produced under a 50x slower
    // processor, but is presented as a run of the honest parameters.
    // Its exec time escapes the honest envelope and must panic.
    let mut corrupted = machine::default_distributed();
    corrupted.mips_ratio *= 50.0;
    sanitizer::set_enabled(false);
    let bogus = Extrapolator::new(corrupted.clone())
        .run(&program)
        .expect("corrupted run");
    sanitizer::set_enabled(true);
    let honest = machine::default_distributed();
    let trip = std::panic::catch_unwind(|| {
        sanitizer::check(&program, &honest, &bogus);
    });
    let err = trip.expect_err("corrupted cost model must trip the sanitizer");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".to_string());
    assert!(
        msg.contains("bounds sanitizer"),
        "unexpected panic message: {msg}"
    );

    // Disabling makes `check` a no-op even for wild results.  Kept in
    // the same (single) test because the enable flag is process-global.
    let mut wild = Extrapolator::new(honest.clone())
        .run(&program)
        .expect("simulate");
    for b in &mut wild.per_thread {
        b.end_time = extrap_time::TimeNs(u64::MAX / 2);
    }
    sanitizer::set_enabled(false);
    sanitizer::check(&program, &honest, &wild);
    assert!(!sanitizer::is_active());
}
