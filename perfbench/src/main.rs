//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  Generated
//! files, spill runs and the span dump go under `.bench_out`.

use perfbench::{Config, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(Config, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    format!("unknown workload {v:?} (whatif-sweep|trace-ingest|serve-closed)")
                })?)
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cfg = Config::new(
        workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
    );
    Ok((cfg, trace.ok_or("--trace is required")?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, traced) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Spill runs go under the output directory, not the system temp
    // directory.  Set before any thread starts.
    std::env::set_var("TMPDIR", cfg.out_dir.join("tmp"));
    let result = if traced {
        perfbench::run_traced(&cfg)
    } else {
        perfbench::run(&cfg)
    };
    match result {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
