#![forbid(unsafe_code)]
//! `extrap-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! extrap-exp [--scale tiny|small|paper] [--jobs N] [--out DIR] \
//!            [--strategy exact|repr[:K[:TOL]]] \
//!            [table1|table2|table3|fig4|...|fig9|repr|bounds|scale|all]
//! ```
//!
//! `--jobs N` sets the sweep worker count (default: all available
//! cores); `--jobs 1` is the serial baseline and every other value
//! produces byte-identical output.  `--strategy` forces the epoch
//! coverage strategy (repr changes predictions within its tolerance);
//! the opt-in `repr` target prints the exact-vs-representative
//! validation table and ignores the flag.  The opt-in `scale` target
//! runs the bounds sandwich and the exact-vs-repr check at 256 and 1024
//! threads.

use extrap_core::SimStrategy;
use extrap_exp::experiments::{self, fig9_ranking, ExpError, Harness};
use extrap_exp::series::{render_csv, render_table, Series};
use extrap_workloads::Scale;
use std::path::{Path, PathBuf};

fn main() {
    let mut scale = Scale::Small;
    let mut jobs = extrap_core::sweep::default_workers();
    let mut strategy: Option<SimStrategy> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = match v.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?} (tiny|small|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--jobs" => {
                let v = args.next().unwrap_or_default();
                jobs = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--jobs needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--strategy" => {
                let v = args.next().unwrap_or_default();
                strategy = match SimStrategy::parse(&v) {
                    Some(s) => Some(s),
                    None => {
                        eprintln!("unknown strategy {v:?} (valid: {})", SimStrategy::VALID);
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                })));
            }
            "--help" | "-h" => {
                println!(
                    "usage: extrap-exp [--scale tiny|small|paper] [--jobs N] [--out DIR] \
                     [--strategy exact|repr[:K[:TOL]]] \
                     [table1|table2|table3|fig4|fig5|fig6|fig7|fig8|fig9|repr|bounds|scale|all]...\n\n\
                     `all` runs the tables and figures; repr, bounds and scale are opt-in:\n  \
                     repr    exact vs representative-region simulation over P = 1..32\n  \
                     bounds  simulated time inside its static [span, upper] envelope at P = 16\n  \
                     scale   both checks at P = 256 and 1024 threads"
                );
                return;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    let mut harness = Harness::new(scale, jobs);
    if let Some(s) = strategy {
        harness = harness.with_strategy(s);
    }
    if let Err(err) = run(&harness, &targets, &out_dir) {
        eprintln!("extrap-exp: {err}");
        std::process::exit(1);
    }
}

fn run(h: &Harness, targets: &[String], out_dir: &Option<PathBuf>) -> Result<(), ExpError> {
    let all = targets.iter().any(|t| t == "all");
    let want = |name: &str| all || targets.iter().any(|t| t == name);

    if want("table1") {
        println!("{}", experiments::table1());
    }
    if want("table2") {
        println!("{}", experiments::table2());
    }
    if want("table3") {
        println!("{}", experiments::table3());
    }
    if want("fig4") {
        let (speedups, times) = experiments::fig4(h)?;
        println!(
            "{}",
            render_table(
                "Figure 4 — speedup, all benchmarks (distributed memory)",
                "x",
                &speedups
            )
        );
        println!(
            "{}",
            render_table("Figure 4 — execution time, all benchmarks", "ms", &times)
        );
        dump(out_dir, "fig4_speedup", &speedups);
        dump(out_dir, "fig4_time", &times);
    }
    if want("fig5") {
        let (times, speedups) = experiments::fig5(h)?;
        println!(
            "{}",
            render_table(
                "Figure 5 — Grid, comparison of different extrapolations",
                "ms",
                &times
            )
        );
        println!(
            "{}",
            render_table("Figure 5 — Grid speedups", "x", &speedups)
        );
        dump(out_dir, "fig5_time", &times);
        dump(out_dir, "fig5_speedup", &speedups);
    }
    if want("fig6") {
        let (embar, cyclic, sort, mgrid, poisson) = experiments::fig6(h)?;
        println!(
            "{}",
            render_table(
                "Figure 6(i) — Embar execution time vs MipsRatio",
                "ms",
                &embar
            )
        );
        println!(
            "{}",
            render_table("Figure 6(ii) — Cyclic speedup vs MipsRatio", "x", &cyclic)
        );
        println!(
            "{}",
            render_table("Figure 6(iii) — Sort speedup vs MipsRatio", "x", &sort)
        );
        println!(
            "{}",
            render_table("Figure 6(iv) — Mgrid speedup vs MipsRatio", "x", &mgrid)
        );
        println!(
            "{}",
            render_table("Figure 6(+) — Poisson speedup vs MipsRatio", "x", &poisson)
        );
        dump(out_dir, "fig6_embar_time", &embar);
        dump(out_dir, "fig6_cyclic_speedup", &cyclic);
        dump(out_dir, "fig6_sort_speedup", &sort);
        dump(out_dir, "fig6_mgrid_speedup", &mgrid);
        dump(out_dir, "fig6_poisson_speedup", &poisson);
    }
    if want("fig7") {
        let series = experiments::fig7(h)?;
        println!(
            "{}",
            render_table(
                "Figure 7 — Mgrid time: MipsRatio x CommStartupTime",
                "ms",
                &series
            )
        );
        for s in &series {
            println!(
                "  minimum execution time for {:28} at P={}",
                s.label,
                s.argmin().unwrap()
            );
        }
        println!();
        dump(out_dir, "fig7_mgrid_time", &series);
    }
    if want("fig8") {
        let (cyclic, grid) = experiments::fig8(h)?;
        println!(
            "{}",
            render_table(
                "Figure 8 — Cyclic, remote-request service policies",
                "ms",
                &cyclic
            )
        );
        println!(
            "{}",
            render_table(
                "Figure 8 — Grid, remote-request service policies",
                "ms",
                &grid
            )
        );
        dump(out_dir, "fig8_cyclic", &cyclic);
        dump(out_dir, "fig8_grid", &grid);
    }
    if targets.iter().any(|t| t == "scalability") {
        use extrap_workloads::Bench;
        let params = extrap_core::machine::default_distributed();
        for bench in Bench::all() {
            let analysis = experiments::scalability(h, bench, &params)?;
            println!("## Scalability — {} (distributed memory)", bench.name());
            print!("{}", analysis.render());
            println!(
                "  best P = {}; efficiency >= 50% up to P = {}; saturates: {}\n",
                analysis.best_procs(),
                analysis
                    .max_procs_at_efficiency(0.5)
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
                analysis.saturates()
            );
        }
    }
    if targets.iter().any(|t| t == "ablations") {
        let barriers = experiments::ablation_barriers(h)?;
        println!(
            "{}",
            render_table(
                "Ablation — barrier algorithms, all benchmarks at P=32 \
                 (columns = Table 2 order)",
                "ms",
                &barriers
            )
        );
        dump(out_dir, "ablation_barriers", &barriers);
        let (rows, worst) = experiments::ablation_contention(h)?;
        println!("## Ablation — analytic vs link-level contention (P=16, CM-5)");
        println!(
            "{:10} {:>14} {:>14} {:>8}",
            "benchmark", "analytic [ms]", "link [ms]", "ratio"
        );
        for (name, a, d) in &rows {
            println!("{name:10} {a:>14.3} {d:>14.3} {:>8.2}", d / a);
        }
        println!("  worst link/analytic ratio: {worst:.2}\n");
    }
    if targets.iter().any(|t| t == "multithread") {
        use extrap_workloads::Bench;
        for bench in [Bench::Cyclic, Bench::Grid, Bench::Embar] {
            let series = experiments::multithread_sweep(h, bench)?;
            println!(
                "{}",
                render_table(
                    &format!(
                        "Multithreaded extrapolation — {} on m processors",
                        bench.name()
                    ),
                    "ms",
                    &series
                )
            );
        }
    }
    if targets.iter().any(|t| t == "repr") {
        let rows = experiments::repr_validation(h, &experiments::PROCS)?;
        println!("## Representative-region validation — exact vs repr over P = 1..32");
        print!("{}", experiments::render_repr_validation(&rows));
        println!();
    }
    if targets.iter().any(|t| t == "bounds") {
        let rows = experiments::bounds_tightness(h, 16)?;
        println!("## Static-bounds tightness — simulated time inside [span, upper] at P = 16");
        print!("{}", experiments::render_bounds_tightness(&rows));
        println!();
    }
    if targets.iter().any(|t| t == "scale") {
        let procs = experiments::SCALE_PROCS.map(|n| n.to_string()).join(", ");
        let mut rows = Vec::new();
        for n in experiments::SCALE_PROCS {
            rows.extend(experiments::bounds_tightness(h, n)?);
        }
        println!("## Scale — simulated time inside [span, upper] at P = {procs}");
        print!("{}", experiments::render_bounds_tightness(&rows));
        println!();
        let rows = experiments::repr_validation(h, &experiments::SCALE_PROCS)?;
        println!("## Scale — exact vs repr over P = {procs}");
        print!("{}", experiments::render_repr_validation(&rows));
        println!();
    }
    if want("fig9") {
        let (pred, meas) = experiments::fig9(h)?;
        println!(
            "{}",
            render_table(
                "Figure 9 — Matmul predicted times (ExtraP, CM-5 params)",
                "ms",
                &pred
            )
        );
        println!(
            "{}",
            render_table(
                "Figure 9 — Matmul measured times (link-level reference machine)",
                "ms",
                &meas
            )
        );
        println!("## Figure 9 — best-distribution agreement");
        for (procs, p, m, within) in fig9_ranking(&pred, &meas) {
            println!(
                "  P={procs:2}: predicted best {p}, measured best {m} \
                 (predicted choice within {:.1}% of optimum)",
                within * 100.0
            );
        }
        println!();
        dump(out_dir, "fig9_predicted", &pred);
        dump(out_dir, "fig9_measured", &meas);
    }
    Ok(())
}

fn dump(out_dir: &Option<PathBuf>, name: &str, series: &[Series]) {
    if let Some(dir) = out_dir {
        let path: &Path = dir.as_ref();
        std::fs::write(path.join(format!("{name}.csv")), render_csv(series))
            .expect("write CSV file");
    }
}
