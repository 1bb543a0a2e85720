#![forbid(unsafe_code)]
//! `extrap-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! extrap-exp [--scale tiny|small|paper] [--jobs N] [--out DIR] \
//!            [--strategy exact|repr[:K[:TOL]]] [TARGET]...
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
//!
//! The targets are listed by `extrap-exp --help`; none given means
//! `all`, the tables and figures.  Targets run in that listing's order,
//! whatever order they are named in.  An unknown flag or target, or an
//! `--out` directory that cannot be written, is an error naming it and
//! exits 1.

use extrap_core::SimStrategy;
use extrap_exp::experiments::{self, fig9_ranking, Harness};
use extrap_exp::series::{render_csv, render_table, Series};
use extrap_time::{out, outln, ArgSpec};
use extrap_workloads::{Bench, Scale};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

type Outcome = Result<(), Box<dyn Error>>;

/// Every target, in the order they run, and whether `all` runs it.
const TARGETS: [(&str, bool); 15] = [
    ("table1", true),
    ("table2", true),
    ("table3", true),
    ("fig4", true),
    ("fig5", true),
    ("fig6", true),
    ("fig7", true),
    ("fig8", true),
    ("scalability", false),
    ("ablations", false),
    ("multithread", false),
    ("repr", false),
    ("bounds", false),
    ("scale", false),
    ("fig9", true),
];

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("extrap-exp: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: Vec<String>) -> Outcome {
    let mut spec = ArgSpec::new("extrap-exp", "", args);
    let scale = spec
        .enumerated("--scale", Scale::VALID, Scale::parse)?
        .unwrap_or_default();
    let jobs = spec
        .positive("--jobs")?
        .unwrap_or_else(extrap_core::sweep::default_workers);
    let strategy = spec.enumerated("--strategy", SimStrategy::VALID, SimStrategy::parse)?;
    let out_dir = spec.value("--out")?.map(PathBuf::from);
    let listed: Vec<String> = TARGETS
        .iter()
        .map(|&(name, in_all)| format!("{name}{}", if in_all { "*" } else { "" }))
        .collect();
    spec.about(format!(
        "targets, in run order (none means all; all runs those marked *):\n  {}",
        listed.join(" ")
    ));
    let mut targets = spec.finish()?;
    if let Some(t) = targets
        .iter()
        .find(|t| *t != "all" && !TARGETS.iter().any(|(name, _)| name == t))
    {
        return Err(format!("unknown target {t:?}; try `extrap-exp --help`").into());
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create output directory {}: {e}", dir.display()))?;
    }
    let mut harness = Harness::new(scale, jobs);
    if let Some(s) = strategy {
        harness = harness.with_strategy(s);
    }
    let all = targets.iter().any(|t| t == "all");
    for (name, in_all) in TARGETS {
        if (all && in_all) || targets.iter().any(|t| t == name) {
            run_target(name, &harness, out_dir.as_deref())?;
        }
    }
    Ok(())
}

/// Prints one target (and, with `--out DIR`, writes its series as
/// `DIR/NAME.csv`).
fn run_target(name: &str, h: &Harness, out_dir: Option<&Path>) -> Outcome {
    let dump = |file: &str, series: &[Series]| -> Outcome {
        if let Some(dir) = out_dir {
            let path = dir.join(format!("{file}.csv"));
            std::fs::write(&path, render_csv(series))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(())
    };
    match name {
        "table1" => outln!("{}", experiments::table1()),
        "table2" => outln!("{}", experiments::table2()),
        "table3" => outln!("{}", experiments::table3()),
        "fig4" => {
            let (speedups, times) = experiments::fig4(h)?;
            outln!(
                "{}",
                render_table(
                    "Figure 4 — speedup, all benchmarks (distributed memory)",
                    "x",
                    &speedups
                )
            );
            outln!(
                "{}",
                render_table("Figure 4 — execution time, all benchmarks", "ms", &times)
            );
            dump("fig4_speedup", &speedups)?;
            dump("fig4_time", &times)?;
        }
        "fig5" => {
            let (times, speedups) = experiments::fig5(h)?;
            outln!(
                "{}",
                render_table(
                    "Figure 5 — Grid, comparison of different extrapolations",
                    "ms",
                    &times
                )
            );
            outln!(
                "{}",
                render_table("Figure 5 — Grid speedups", "x", &speedups)
            );
            dump("fig5_time", &times)?;
            dump("fig5_speedup", &speedups)?;
        }
        "fig6" => {
            let (embar, cyclic, sort, mgrid, poisson) = experiments::fig6(h)?;
            outln!(
                "{}",
                render_table(
                    "Figure 6(i) — Embar execution time vs MipsRatio",
                    "ms",
                    &embar
                )
            );
            outln!(
                "{}",
                render_table("Figure 6(ii) — Cyclic speedup vs MipsRatio", "x", &cyclic)
            );
            outln!(
                "{}",
                render_table("Figure 6(iii) — Sort speedup vs MipsRatio", "x", &sort)
            );
            outln!(
                "{}",
                render_table("Figure 6(iv) — Mgrid speedup vs MipsRatio", "x", &mgrid)
            );
            outln!(
                "{}",
                render_table("Figure 6(+) — Poisson speedup vs MipsRatio", "x", &poisson)
            );
            dump("fig6_embar_time", &embar)?;
            dump("fig6_cyclic_speedup", &cyclic)?;
            dump("fig6_sort_speedup", &sort)?;
            dump("fig6_mgrid_speedup", &mgrid)?;
            dump("fig6_poisson_speedup", &poisson)?;
        }
        "fig7" => {
            let series = experiments::fig7(h)?;
            outln!(
                "{}",
                render_table(
                    "Figure 7 — Mgrid time: MipsRatio x CommStartupTime",
                    "ms",
                    &series
                )
            );
            for s in &series {
                outln!(
                    "  minimum execution time for {:28} at P={}",
                    s.label,
                    s.argmin().unwrap()
                );
            }
            outln!();
            dump("fig7_mgrid_time", &series)?;
        }
        "fig8" => {
            let (cyclic, grid) = experiments::fig8(h)?;
            outln!(
                "{}",
                render_table(
                    "Figure 8 — Cyclic, remote-request service policies",
                    "ms",
                    &cyclic
                )
            );
            outln!(
                "{}",
                render_table(
                    "Figure 8 — Grid, remote-request service policies",
                    "ms",
                    &grid
                )
            );
            dump("fig8_cyclic", &cyclic)?;
            dump("fig8_grid", &grid)?;
        }
        "scalability" => {
            let params = extrap_core::machine::default_distributed();
            for bench in Bench::all() {
                let analysis = experiments::scalability(h, bench, &params)?;
                outln!("## Scalability — {} (distributed memory)", bench.name());
                out!("{}", analysis.render());
                outln!(
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
        "ablations" => {
            let barriers = experiments::ablation_barriers(h)?;
            outln!(
                "{}",
                render_table(
                    "Ablation — barrier algorithms, all benchmarks at P=32 \
                     (columns = Table 2 order)",
                    "ms",
                    &barriers
                )
            );
            dump("ablation_barriers", &barriers)?;
            let (rows, worst) = experiments::ablation_contention(h)?;
            outln!("## Ablation — analytic vs link-level contention (P=16, CM-5)");
            outln!(
                "{:10} {:>14} {:>14} {:>8}",
                "benchmark",
                "analytic [ms]",
                "link [ms]",
                "ratio"
            );
            for (name, a, d) in &rows {
                outln!("{name:10} {a:>14.3} {d:>14.3} {:>8.2}", d / a);
            }
            outln!("  worst link/analytic ratio: {worst:.2}\n");
        }
        "multithread" => {
            for bench in [Bench::Cyclic, Bench::Grid, Bench::Embar] {
                let series = experiments::multithread_sweep(h, bench)?;
                outln!(
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
        "repr" => {
            let rows = experiments::repr_validation(h, &experiments::PROCS)?;
            outln!("## Representative-region validation — exact vs repr over P = 1..32");
            out!("{}", experiments::render_repr_validation(&rows));
            outln!();
        }
        "bounds" => {
            let rows = experiments::bounds_tightness(h, 16)?;
            outln!("## Static-bounds tightness — simulated time inside [span, upper] at P = 16");
            out!("{}", experiments::render_bounds_tightness(&rows));
            outln!();
        }
        "scale" => {
            let procs = experiments::SCALE_PROCS.map(|n| n.to_string()).join(", ");
            let mut rows = Vec::new();
            for n in experiments::SCALE_PROCS {
                rows.extend(experiments::bounds_tightness(h, n)?);
            }
            outln!("## Scale — simulated time inside [span, upper] at P = {procs}");
            out!("{}", experiments::render_bounds_tightness(&rows));
            outln!();
            let rows = experiments::repr_validation(h, &experiments::SCALE_PROCS)?;
            outln!("## Scale — exact vs repr over P = {procs}");
            out!("{}", experiments::render_repr_validation(&rows));
            outln!();
        }
        "fig9" => {
            let (pred, meas) = experiments::fig9(h)?;
            outln!(
                "{}",
                render_table(
                    "Figure 9 — Matmul predicted times (ExtraP, CM-5 params)",
                    "ms",
                    &pred
                )
            );
            outln!(
                "{}",
                render_table(
                    "Figure 9 — Matmul measured times (link-level reference machine)",
                    "ms",
                    &meas
                )
            );
            outln!("## Figure 9 — best-distribution agreement");
            for (procs, p, m, within) in fig9_ranking(&pred, &meas) {
                outln!(
                    "  P={procs:2}: predicted best {p}, measured best {m} \
                     (predicted choice within {:.1}% of optimum)",
                    within * 100.0
                );
            }
            outln!();
            dump("fig9_predicted", &pred)?;
            dump("fig9_measured", &meas)?;
        }
        other => unreachable!("{other} is not in TARGETS"),
    }
    Ok(())
}
