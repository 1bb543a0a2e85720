//! `SimParams::validate` and `lint_params` must agree on every
//! parameter set: both read the one rule list `SimParams::violations`.

use extrap_core::{
    machine, BarrierAlgorithm, ServicePolicy, SimParams, SimStrategy, ThreadMapping, Topology,
};
use extrap_lint::{lint_params, Code};
use extrap_time::DurationNs;

type Edit = fn(&mut SimParams);

/// Each rule violated alone, in `violations` order.
const SINGLE: [(&str, Edit); 8] = [
    ("zero MipsRatio", |p| p.mips_ratio = 0.0),
    ("zero poll interval", |p| {
        p.policy = ServicePolicy::Poll {
            interval: DurationNs::ZERO,
        }
    }),
    ("unary tree barrier", |p| {
        p.barrier.algorithm = BarrierAlgorithm::Tree { arity: 1 }
    }),
    ("unary fat tree", |p| {
        p.network.topology = Topology::FatTree { arity: 1 }
    }),
    ("repr with no clusters", |p| {
        p.strategy = SimStrategy::Representative {
            max_clusters: 0,
            tolerance: 0.05,
        }
    }),
    ("repr with negative tolerance", |p| {
        p.strategy = SimStrategy::Representative {
            max_clusters: 4,
            tolerance: -1.0,
        }
    }),
    ("NaN contention alpha", |p| {
        p.network.contention.alpha = f64::NAN
    }),
    ("block mapping onto no processors", |p| {
        p.multithread.mapping = ThreadMapping::Block { procs: 0 }
    }),
];

fn presets() -> Vec<(&'static str, SimParams)> {
    vec![
        ("default", SimParams::default()),
        ("distributed", machine::default_distributed()),
        ("shared", machine::shared_memory()),
        ("ideal", machine::ideal()),
        ("cm5", machine::cm5()),
    ]
}

fn e008_messages(p: &SimParams) -> Vec<String> {
    lint_params(p)
        .diagnostics
        .into_iter()
        .filter(|d| d.code == Code::E008ParamOutOfRange)
        .map(|d| d.message)
        .collect()
}

fn assert_agree(name: &str, p: &SimParams) {
    let report = lint_params(p);
    assert_eq!(
        p.validate().is_err(),
        report.has_errors(),
        "{name}: validate and lint disagree"
    );
    let e008 = e008_messages(p);
    assert_eq!(
        p.validate().err(),
        e008.first().cloned(),
        "{name}: the first E008 is the validate() error"
    );
    assert_eq!(e008, p.violations(), "{name}: one E008 per violation");
}

#[test]
fn every_preset_is_valid_under_both() {
    for (name, p) in presets() {
        assert!(p.validate().is_ok(), "{name}");
        assert_agree(name, &p);
    }
}

#[test]
fn each_rule_alone_fails_both() {
    for (name, edit) in SINGLE {
        for (preset, base) in presets() {
            let mut p = base;
            edit(&mut p);
            assert_eq!(p.violations().len(), 1, "{name} on {preset}");
            assert_agree(&format!("{name} on {preset}"), &p);
        }
    }
}

#[test]
fn pairs_report_both_in_rule_order() {
    for (i, (a, edit_a)) in SINGLE.iter().enumerate() {
        for (b, edit_b) in &SINGLE[i + 1..] {
            let mut p = SimParams::default();
            edit_a(&mut p);
            edit_b(&mut p);
            let name = format!("{a} + {b}");
            // The two repr rules share one field: the later edit wins.
            let expected = if a.starts_with("repr") && b.starts_with("repr") {
                1
            } else {
                2
            };
            assert_eq!(p.violations().len(), expected, "{name}");
            assert_agree(&name, &p);
        }
    }
}
