//! "What if" exploration of runtime-system policies (§4.1, Fig. 8): how
//! should the target machine service remote data requests — interrupts,
//! polling (at which interval?), or only at waits — and how does the
//! answer depend on the program?
//!
//! ```text
//! cargo run --release --example whatif_policies
//! ```

use perf_extrap::prelude::*;

fn main() {
    let scale = Scale::Small;
    let procs = [2usize, 4, 8, 16, 32];
    let policies: Vec<(String, ServicePolicy)> = vec![
        ("no-interrupt".into(), ServicePolicy::NoInterrupt),
        ("interrupt".into(), ServicePolicy::Interrupt),
        ("poll 50us".into(), ServicePolicy::poll_us(50.0)),
        ("poll 100us".into(), ServicePolicy::poll_us(100.0)),
        ("poll 500us".into(), ServicePolicy::poll_us(500.0)),
        ("poll 2000us".into(), ServicePolicy::poll_us(2000.0)),
    ];

    for bench in [Bench::Cyclic, Bench::Grid] {
        println!("== {} (CommStartupTime = 100us) ==", bench.name());
        print!("{:16}", "policy");
        for p in procs {
            print!(" {:>10}", format!("P={p}"));
        }
        println!("  [ms]");
        let traces: Vec<TraceSet> = procs
            .iter()
            .map(|&n| translate(&bench.trace(n, scale), TranslateOptions::default()).unwrap())
            .collect();
        let mut best: Vec<(f64, String)> = vec![(f64::INFINITY, String::new()); procs.len()];
        for (label, policy) in &policies {
            let mut params = machine::default_distributed();
            params.comm = params.comm.with_startup_us(100.0);
            params.policy = *policy;
            let session = Extrapolator::new(params);
            print!("{label:16}");
            for (i, ts) in traces.iter().enumerate() {
                let t = session.run(ts).unwrap().exec_time().as_ms();
                if t < best[i].0 {
                    best[i] = (t, label.clone());
                }
                print!(" {t:>10.3}");
            }
            println!();
        }
        print!("{:16}", "best:");
        for (t, label) in &best {
            let _ = t;
            print!(" {label:>10}");
        }
        println!("\n");
    }

    println!(
        "The optimal policy is program- and scale-specific — exactly the kind of\n\
         application-specific runtime-system decision §4.1 argues extrapolation\n\
         lets you make without access to the target machine."
    );
}
