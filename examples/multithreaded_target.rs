//! The paper's future-work extension (§6), implemented: extrapolate an
//! n-thread, 1-processor run to an n-thread, **m-processor** target
//! (`m <= n`), where several threads share each processor, context
//! switches cost time, and messages between co-located threads bypass
//! the interconnect.
//!
//! ```text
//! cargo run --release --example multithreaded_target
//! ```

use perf_extrap::prelude::*;

fn main() {
    let n_threads = 16;
    let trace = Bench::Cyclic.trace(n_threads, Scale::Small);
    let traces = translate(&trace, TranslateOptions::default()).unwrap();

    println!(
        "Cyclic with {n_threads} threads, extrapolated onto m processors\n\
         (block vs cyclic thread placement):\n"
    );
    println!(
        "{:>6} {:>14} {:>14} {:>16}",
        "m", "block [ms]", "cyclic [ms]", "1-per-proc [ms]"
    );
    let full = Extrapolator::new(machine::default_distributed())
        .run(&traces)
        .unwrap()
        .exec_time()
        .as_ms();
    for m in [1usize, 2, 4, 8, 16] {
        let time_with = |mapping: ThreadMapping| {
            let mut params = machine::default_distributed();
            params.multithread = MultithreadParams {
                mapping,
                switch_cost: DurationNs::from_us(10.0),
            };
            Extrapolator::new(params)
                .run(&traces)
                .unwrap()
                .exec_time()
                .as_ms()
        };
        let block = time_with(ThreadMapping::Block { procs: m });
        let cyclic = time_with(ThreadMapping::Cyclic { procs: m });
        let one_per = if m == n_threads {
            format!("{full:>16.3}")
        } else {
            format!("{:>16}", "-")
        };
        println!("{m:>6} {block:>14.3} {cyclic:>14.3} {one_per}");
    }

    println!(
        "\nBlock placement keeps neighbouring threads on the same processor, so\n\
         Cyclic's distance-2^l exchanges stay local at shallow levels; cyclic\n\
         placement scatters them across the machine.  Extrapolation quantifies\n\
         the difference before the multithreaded runtime even exists — the\n\
         paper's §6 scenario."
    );
}
