//! Micro-benchmarks of the static work/span bound analyzer: whole-suite
//! `analyze` cost (the `extrap analyze` hot path), envelope construction
//! with representative-region composition, and the per-prediction
//! `verify_prediction` call `--check-bounds` makes.

use extrap_bench::harness::Harness;
use extrap_bench::ring_traces;
use extrap_core::{machine, CompiledProgram, Extrapolator, RecordMode};
use extrap_workloads::{Bench, Scale};
use std::hint::black_box;

fn main() {
    let (mut h, ()) = Harness::from_args("analyze", |_| Ok(()));

    let mut params = machine::default_distributed();
    params.record_mode = RecordMode::MetricsOnly;

    // The full benchmark suite at 16 processors — what `extrap-exp
    // bounds` and the CLI's curve sweeps analyze repeatedly.
    let suite: Vec<(String, CompiledProgram)> = Bench::all()
        .into_iter()
        .map(|b| {
            let set = extrap_trace::translate(&b.trace(16, Scale::Tiny), Default::default())
                .expect("translate");
            (
                b.name().to_string(),
                CompiledProgram::compile(&set).expect("compile"),
            )
        })
        .collect();

    {
        let params = params.clone();
        let suite = &suite;
        h.bench("analyze_suite_16p", move || {
            let mut total = 0u64;
            for (_, program) in suite.iter() {
                let analysis = extrap_analyze::analyze(program, &params).expect("supported");
                total = total.wrapping_add(analysis.upper.as_ns());
            }
            black_box(total)
        });
    }

    // A large synthetic program: analysis cost scales with ops, so pin
    // the per-op rate on a trace an order of magnitude past the suite.
    let big = CompiledProgram::compile(&ring_traces(32, 256, 10.0, 256)).expect("compile");
    {
        let params = params.clone();
        let big = &big;
        h.bench("analyze_ring_32t_256p", move || {
            black_box(extrap_analyze::analyze(big, &params).expect("supported"))
        });
    }

    // Envelope + verification — the exact per-prediction overhead
    // `--check-bounds` adds to every simulation it checks.
    {
        let set = extrap_trace::translate(&Bench::Grid.trace(8, Scale::Tiny), Default::default())
            .expect("translate");
        let program = CompiledProgram::compile(&set).expect("compile");
        let prediction = Extrapolator::new(params.clone())
            .run(&program)
            .expect("simulate");
        let params2 = params.clone();
        let prog = &program;
        h.bench("envelope_grid_8p", move || {
            black_box(extrap_analyze::envelope(prog, &params2).expect("supported"))
        });
        let params3 = params.clone();
        let prog = &program;
        h.bench("verify_prediction_grid_8p", move || {
            extrap_analyze::verify_prediction(prog, &params3, &prediction).expect("inside");
            black_box(prediction.exec_time().as_ns())
        });
    }

    h.finish();
}
