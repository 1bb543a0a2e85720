//! Quickstart: write a small data-parallel program, measure it on "one
//! processor", and predict its execution on three different target
//! machines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use perf_extrap::prelude::*;

fn main() {
    let n_threads = 8;
    let n_elems = 64;

    // A distributed dot-product-ish kernel: every thread combines its
    // local elements, then reads its right neighbour's partial, twice.
    let values =
        Collection::<f64>::build(Distribution::block_1d(n_elems, n_threads), |i| i.0 as f64);
    let partials = Collection::<f64>::build(Distribution::block_1d(n_threads, n_threads), |_| 0.0);

    let program = Program::new(n_threads);
    let measured: ProgramTrace = program.run(|ctx| {
        let me = ctx.id();
        let my_slot = Index2(me.index(), 0);
        // Local phase.
        let mut acc = 0.0;
        for idx in values.local_indices(me) {
            acc += values.read(ctx, idx, |v| v * v);
            ctx.charge_flops(2);
        }
        partials.write(ctx, my_slot, |p| *p = acc);
        ctx.barrier();
        // Neighbour-combining phases (remote element reads).
        for _ in 0..2 {
            let right = (me.index() + 1) % ctx.n_threads();
            let theirs = partials.read(ctx, Index2(right, 0), |p| *p);
            ctx.charge_flops(1);
            partials.write(ctx, my_slot, |p| *p += theirs * 0.5);
            ctx.barrier();
        }
    });

    println!(
        "measured {} events from {} threads on one processor",
        measured.records.len(),
        measured.n_threads
    );

    // Translate the 1-processor trace into idealized per-thread traces.
    let traces = translate(&measured, TranslateOptions::default()).unwrap();
    let stats = TraceStats::from_set(&traces);
    println!(
        "idealized parallel makespan: {:.3} ms ({} barriers, {} remote accesses)",
        stats.makespan().as_ms(),
        stats.barriers(),
        stats.total_remote_accesses()
    );

    // Compile once, then extrapolate to different target environments —
    // no further measurement needed.
    let program = CompiledProgram::compile(&traces).unwrap();
    for (name, params) in [
        (
            "distributed memory (20 MB/s)",
            machine::default_distributed(),
        ),
        ("shared memory", machine::shared_memory()),
        ("CM-5 (Table 3 parameters)", machine::cm5()),
        ("ideal machine", machine::ideal()),
    ] {
        let pred = Extrapolator::new(params).run(&program).unwrap();
        println!(
            "{name:30} -> {:>9.3} ms  (utilization {:>5.1}%, comp/comm {:.1})",
            pred.exec_time().as_ms(),
            pred.utilization() * 100.0,
            pred.comp_comm_ratio()
        );
    }
}
