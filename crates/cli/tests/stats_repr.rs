//! `extrap stats --phases` must print the plan `--strategy repr`
//! builds: the fallback exactly when `ReprPlan::from_program` declines,
//! and otherwise the plan's own epoch count, clusters, weights and
//! representative epochs.

use extrap_core::{CompiledProgram, ReprPlan, SimStrategy};
use extrap_workloads::{Bench, Scale};
use std::process::Command;

/// The `-- barrier epochs --` section of `extrap stats FILE --phases`.
fn epoch_section(set: &extrap_trace::TraceSet, name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("extrap-stats-repr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.xtps"));
    extrap_trace::writer::write_set_file(&path, set).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_extrap"))
        .args(["stats", path.to_str().unwrap(), "--phases"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{name}: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let (_, section) = text
        .split_once("-- barrier epochs --\n")
        .unwrap_or_else(|| panic!("{name}: no epoch section in\n{text}"));
    section.to_string()
}

fn check(bench: Bench, scale: Scale, n: usize) {
    let name = format!("{}-{scale:?}-{n}", bench.name());
    let set = extrap_trace::translate(&bench.trace(n, scale), Default::default()).unwrap();
    let program = CompiledProgram::compile(&set).unwrap();
    let plan = ReprPlan::from_program(
        &program,
        SimStrategy::DEFAULT_MAX_CLUSTERS,
        SimStrategy::DEFAULT_TOLERANCE,
    );
    let section = epoch_section(&set, &name);
    let Some(plan) = plan else {
        assert!(
            section.contains("back to exact simulation"),
            "{name}: repr falls back, stats must say so:\n{section}"
        );
        return;
    };
    let mut lines = section.lines();
    let header = format!(
        "{} epochs in {} clusters",
        plan.n_epochs(),
        plan.clusters().len()
    );
    assert!(
        lines.next().is_some_and(|l| l.starts_with(&header)),
        "{name}: expected {header:?}:\n{section}"
    );
    // Column header, then one row per cluster: index, weight, rep, ...
    let rows: Vec<(u64, usize)> = lines
        .skip(1)
        .map(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            (cols[1].parse().unwrap(), cols[2].parse().unwrap())
        })
        .collect();
    let expected: Vec<(u64, usize)> = plan
        .clusters()
        .iter()
        .map(|c| (c.weight, c.rep_epoch))
        .collect();
    assert_eq!(rows, expected, "{name}: (weight, rep) per cluster");
}

#[test]
fn stats_epoch_section_is_the_repr_plan_at_tiny_scale() {
    for bench in Bench::all() {
        for n in [1, 4, 16] {
            check(bench, Scale::Tiny, n);
        }
    }
}

#[test]
fn stats_epoch_section_is_the_repr_plan_at_small_scale() {
    for bench in Bench::all() {
        for n in [1, 4, 16] {
            check(bench, Scale::Small, n);
        }
    }
}
