//! The §4.1 performance-debugging walk-through, replayed.
//!
//! *Grid*'s speedup levels off after four processors on the distributed
//! machine.  Why?  All of the following investigation happens with ONE
//! single-processor measurement and re-parameterized simulations — the
//! paper's core pitch.
//!
//! ```text
//! cargo run --release --example performance_debugging
//! ```

use perf_extrap::prelude::*;

fn main() {
    let scale = Scale::Small;
    let procs = [1usize, 2, 4, 8, 16, 32];

    // One measurement per processor count (the paper's workflow: traces
    // come from cheap uniprocessor runs).
    println!("measuring Grid on one processor ...");
    let traces: Vec<TraceSet> = procs
        .iter()
        .map(|&n| translate(&Bench::Grid.trace(n, scale), TranslateOptions::default()).unwrap())
        .collect();
    let programs: Vec<CompiledProgram> = traces
        .iter()
        .map(|ts| CompiledProgram::compile(ts).unwrap())
        .collect();

    let speedups = |params: &SimParams| -> Vec<f64> {
        let session = Extrapolator::new(params.clone());
        let base = session.run(&programs[0]).unwrap().exec_time();
        programs
            .iter()
            .map(|program| session.run(program).unwrap().speedup_vs(base))
            .collect()
    };
    let show = |label: &str, s: &[f64]| {
        print!("{label:32}");
        for v in s {
            print!(" {v:>7.2}");
        }
        println!();
    };

    print!("{:32}", "");
    for p in procs {
        print!(" {:>7}", format!("P={p}"));
    }
    println!();

    // Step 1: the baseline distributed machine.
    let base = machine::default_distributed();
    show("baseline (20 MB/s)", &speedups(&base));

    // Step 2: maybe it's bandwidth?  Extrapolate 200 MB/s links.
    let mut high_bw = base.clone();
    high_bw.comm = high_bw.comm.with_bandwidth_mbps(200.0);
    show("what if 200 MB/s?", &speedups(&high_bw));

    // Step 3: the ideal environment bounds what's achievable.
    show("ideal (zero cost)", &speedups(&machine::ideal()));

    // Step 4: the trace statistics point at the real problem — barely
    // any barriers, but an enormous declared transfer volume.
    let stats = TraceStats::from_set(&traces[5]);
    println!(
        "\ntrace statistics (32 threads): {} barriers; declared transfer {} bytes, \
         actual transfer {} bytes ({}x inflation!)\n",
        stats.barriers(),
        stats.total_declared_bytes(),
        stats.total_actual_bytes(),
        stats.total_declared_bytes() / stats.total_actual_bytes().max(1),
    );

    // Step 5: simulate with the *actual* transferred sizes.
    let mut actual = base.clone();
    actual.size_mode = SizeMode::Actual;
    show("actual message sizes", &speedups(&actual));

    // Step 6: with the size bug gone, start-up overhead is next.
    let mut tuned = actual.clone();
    tuned.comm = tuned.comm.with_startup_us(10.0);
    show("actual sizes + 10us startup", &speedups(&tuned));

    println!(
        "\nAlso visible: no improvement from 4 to 8 processors — the (BLOCK,BLOCK)\n\
         distribution uses a floor(sqrt(N))^2 thread grid, so at 8 processors four\n\
         of them never receive any elements (the paper's idle-processor artifact)."
    );
}
