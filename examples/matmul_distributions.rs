//! The §4.2 validation study: choose a data distribution for Matmul by
//! extrapolation, and check the choice against a detailed link-level
//! simulation of the target (our stand-in for the paper's measured
//! CM-5).
//!
//! ```text
//! cargo run --release --example matmul_distributions
//! ```

use perf_extrap::prelude::*;
use perf_extrap::workloads::matmul;

fn main() {
    let n = 24;
    let procs = [4usize, 16, 32];
    let params = machine::cm5();
    let reference = RefMachine::new(params.clone());

    println!("Matmul {n}x{n}, CM-5 parameters (Table 3)\n");
    for p in procs {
        println!("-- {p} processors --");
        let mut rows = Vec::new();
        for dist in matmul::nine_distributions() {
            let (trace, _) = matmul::run(p, &matmul::MatmulConfig { n, dist });
            let ts = translate(&trace, TranslateOptions::default()).unwrap();
            let program = CompiledProgram::compile(&ts).unwrap();
            let predicted = Extrapolator::new(params.clone())
                .run(&program)
                .unwrap()
                .exec_time();
            let measured = reference.measure(&program).unwrap().exec_time();
            rows.push((
                format!("({},{})", dist.0.letter(), dist.1.letter()),
                predicted.as_ms(),
                measured.as_ms(),
            ));
        }
        println!(
            "{:8} {:>12} {:>12} {:>8}",
            "dist", "predicted", "measured", "err"
        );
        for (label, pred, meas) in &rows {
            println!(
                "{label:8} {pred:>9.3} ms {meas:>9.3} ms {:>7.1}%",
                (pred - meas) / meas * 100.0
            );
        }
        let best_pred = rows
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let best_meas = rows
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        println!(
            "extrapolation picks {}, the detailed simulation confirms {}\n",
            best_pred.0, best_meas.0
        );
    }
}
