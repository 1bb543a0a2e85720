//! Automatic scalability analysis from extrapolated predictions:
//! speedup, parallel efficiency, and the Karp–Flatt experimentally
//! determined serial fraction for every benchmark — without touching a
//! parallel machine.
//!
//! ```text
//! cargo run --release --example scalability_analysis
//! ```

use perf_extrap::prelude::*;

fn main() {
    let session = Extrapolator::new(machine::default_distributed());
    let procs = [1usize, 2, 4, 8, 16, 32];

    for bench in Bench::all() {
        let samples: Vec<(usize, TimeNs)> = procs
            .iter()
            .map(|&n| {
                let ts =
                    translate(&bench.trace(n, Scale::Small), TranslateOptions::default()).unwrap();
                (n, session.run(&ts).unwrap().exec_time())
            })
            .collect();
        let analysis = Scalability::from_times(samples);
        println!("== {} ==", bench.name());
        print!("{}", analysis.render());
        println!(
            "   -> best at P={}, efficiency >= 50% through P={}, saturates: {}",
            analysis.best_procs(),
            analysis
                .max_procs_at_efficiency(0.5)
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into()),
            analysis.saturates()
        );
        if let Some(f) = analysis.mean_serial_fraction() {
            println!("      mean Karp-Flatt serial fraction: {f:.4}");
        }
        println!();
    }
    println!(
        "A rising Karp-Flatt fraction with processor count indicates growing\n\
         communication/synchronization overhead rather than an inherently\n\
         serial code section — compare Embar (flat, tiny) against Sort."
    );
}
