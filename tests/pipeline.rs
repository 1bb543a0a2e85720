//! End-to-end pipeline tests: run every benchmark on the instrumented
//! uniprocessor runtime, translate, extrapolate, and sanity-check the
//! predicted metrics.

use perf_extrap::prelude::*;

#[test]
fn every_benchmark_flows_through_the_full_pipeline() {
    for bench in Bench::all() {
        for n in [1usize, 4, 8] {
            let measured = bench.trace(n, Scale::Tiny);
            measured.validate().unwrap();
            let traces = translate(&measured, TranslateOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            traces.validate().unwrap();
            let pred = Extrapolator::new(machine::default_distributed())
                .run(&traces)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            assert_eq!(pred.n_threads, n, "{}", bench.name());
            assert!(
                pred.exec_time() >= traces.makespan(),
                "{}: a real machine cannot beat the ideal makespan ({} < {})",
                bench.name(),
                pred.exec_time(),
                traces.makespan()
            );
            pred.predicted.validate().unwrap();
            assert_eq!(pred.predicted.makespan(), pred.exec_time());
        }
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let run_once = || {
        let measured = Bench::Sparse.trace(4, Scale::Tiny);
        let traces = translate(&measured, TranslateOptions::default()).unwrap();
        let pred = Extrapolator::new(machine::cm5()).run(&traces).unwrap();
        (measured, pred.exec_time(), pred.predicted)
    };
    let (m1, t1, p1) = run_once();
    let (m2, t2, p2) = run_once();
    assert_eq!(m1, m2, "uniprocessor traces must be bit-identical");
    assert_eq!(t1, t2);
    assert_eq!(p1, p2);
}

#[test]
fn trace_files_round_trip_through_disk() {
    let dir = std::env::temp_dir().join("extrap-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();

    let measured = Bench::Cyclic.trace(4, Scale::Tiny);
    let program_path = dir.join("cyclic.xtrp");
    perf_extrap::trace::writer::write_program_file(&program_path, &measured).unwrap();
    let bytes = std::fs::read(&program_path).unwrap();
    let back = perf_extrap::trace::format::decode_program(&bytes).unwrap();
    assert_eq!(measured, back);

    let traces = translate(&measured, TranslateOptions::default()).unwrap();
    let set_path = dir.join("cyclic.xtps");
    perf_extrap::trace::writer::write_set_file(&set_path, &traces).unwrap();
    let bytes = std::fs::read(&set_path).unwrap();
    let back = perf_extrap::trace::format::decode_set(&bytes).unwrap();
    assert_eq!(traces, back);

    // Predictions from the on-disk copy match the in-memory one.
    let a = Extrapolator::new(machine::cm5())
        .run(&traces)
        .unwrap()
        .exec_time();
    let b = Extrapolator::new(machine::cm5())
        .run(&back)
        .unwrap()
        .exec_time();
    assert_eq!(a, b);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn translation_intrusion_compensation_shrinks_times() {
    // Charging a recording overhead on the runtime and compensating it in
    // translation recovers (approximately) the uncompensated timing.
    let clean = Program::new(4).run(|ctx| {
        ctx.charge(DurationNs::from_us(100.0));
        ctx.barrier();
    });
    let noisy_program = Program::new(4).with_event_overhead(DurationNs::from_us(5.0));
    let noisy = noisy_program.run(|ctx| {
        ctx.charge(DurationNs::from_us(100.0));
        ctx.barrier();
    });

    let clean_set = translate(&clean, TranslateOptions::default()).unwrap();
    let uncompensated = translate(&noisy, TranslateOptions::default()).unwrap();
    let compensated = translate(
        &noisy,
        TranslateOptions {
            event_overhead: DurationNs::from_us(5.0),
            switch_overhead: DurationNs::ZERO,
        },
    )
    .unwrap();

    assert!(uncompensated.makespan() > clean_set.makespan());
    assert_eq!(compensated.makespan(), clean_set.makespan());
}

#[test]
fn config_files_drive_the_simulation() {
    let text = machine::cm5().to_config_text();
    let parsed = SimParams::from_config_text(&text).unwrap();
    let traces = translate(
        &Bench::Embar.trace(4, Scale::Tiny),
        TranslateOptions::default(),
    )
    .unwrap();
    let a = Extrapolator::new(machine::cm5())
        .run(&traces)
        .unwrap()
        .exec_time();
    let b = Extrapolator::new(parsed.clone())
        .run(&traces)
        .unwrap()
        .exec_time();
    assert_eq!(a, b);
}
