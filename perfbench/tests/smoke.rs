//! Tiny-size smoke runs of every workload: the metric set and units,
//! the output checks, and the traced run's span accounting.

use perfbench::{Config, Outcome, Size, Workload};
use std::path::PathBuf;
use std::process::Command;

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("predictions_per_s", "1/s"),
    ("ingest_mb_per_s", "MB/s"),
    ("requests_per_s", "1/s"),
];

const PER_LAYER: [(&str, &str); 29] = [
    ("pcpp.capture_s", "s"),
    ("pcpp.sys_share", "ratio"),
    ("pcpp.records", "count"),
    ("core.simulate_ms", "ms"),
    ("core.sweep_overhead_ms", "ms"),
    ("core.sweep_parallel_eff", "ratio"),
    ("core.cache_translations", "count"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("trace.decode_ms", "ms"),
    ("lint.stream_ms", "ms"),
    ("trace.spill_translate_ms", "ms"),
    ("trace.spills", "count"),
    ("trace.peak_resident_bytes", "B"),
    ("core.compile_ms", "ms"),
    ("analyze.bounds_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("proto.codec_us", "us"),
    ("serve.jobs_done", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.evictions", "count"),
    ("serve.sweep_batches", "count"),
    ("serve.coalesced_sweeps", "count"),
    ("serve.translations", "count"),
    ("serve.busy", "count"),
    ("serve.resident_bytes", "B"),
];

fn tiny(workload: Workload, seed: u64, tag: &str) -> Config {
    let mut cfg = Config::new(workload, seed, 0.2);
    cfg.size = Size::Tiny;
    cfg.setups = 1;
    cfg.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}-{seed}", workload.name()));
    cfg
}

fn assert_metrics(outcome: &Outcome, expected: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, expected);
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_on_two_seeds() {
    for w in Workload::ALL {
        for seed in [1, 2] {
            let outcome = perfbench::run(&tiny(w, seed, "e2e")).expect("run");
            assert_metrics(&outcome, &END_TO_END);
            assert!(outcome.correct(), "{}:\n{}", w.name(), outcome.report);
            assert_eq!(outcome.failed, 0);
            let json = outcome.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert!(json.contains("\"setup_s\": {\"value\": "), "{json}");
            for m in &outcome.metrics {
                assert!(m.value > 0.0, "{} on {} is {}", m.name, w.name(), m.value);
            }
        }
    }
}

#[test]
fn a_wrong_reference_is_reported_as_failed_ops() {
    for w in Workload::ALL {
        let mut cfg = tiny(w, 3, "wrong");
        cfg.corrupt_reference = true;
        let outcome = perfbench::run(&cfg).expect("a failed check must not end the run");
        assert!(
            outcome.failed > 0,
            "{} missed the wrong reference",
            w.name()
        );
        assert!(!outcome.correct());
        assert_metrics(&outcome, &END_TO_END);
        assert!(outcome.to_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn traced_run_reports_every_layer_and_self_times_fit_the_op_wall() {
    for w in Workload::ALL {
        let traced = perfbench::trace_workload(&tiny(w, 4, "layers"), false).expect("traced pass");
        let own: u64 = traced.tracer.op_self_times().values().sum();
        let wall = traced.tracer.op_wall_ns();
        assert!(wall > 0, "{} recorded no op spans", w.name());
        assert!(
            own <= wall,
            "{}: self times {own} ns > op wall {wall} ns",
            w.name()
        );
        assert_eq!(traced.pass.failed, 0, "{:?}", traced.pass.errors);
    }
    let cfg = tiny(Workload::TraceIngest, 4, "layers-all");
    let outcome = perfbench::run_traced(&cfg).expect("traced run");
    assert_metrics(&outcome, &PER_LAYER);
    assert!(outcome.correct(), "{}", outcome.report);
    assert_eq!(
        outcome.metric("core.cache_translations").unwrap().value,
        0.0
    );
    assert!(outcome.metric("trace.spills").unwrap().value > 0.0);
    let spans = cfg.out_dir.join("spans-trace-ingest-seed4.jsonl");
    let dump = std::fs::read_to_string(&spans).expect("span dump");
    assert!(dump.lines().count() > 10);
    assert!(dump.contains("\"name\": \"lint.stream\""));
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // `serve-closed` runs on demand and in every traced run, but is not
    // a gated workload: its throughput is bimodal on a 2-vCPU host.
    for w in [Workload::WhatifSweep, Workload::TraceIngest] {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    assert!(!json.contains("\"name\": \"serve-closed\""));
}

#[test]
fn the_binary_rejects_bad_arguments_without_a_result() {
    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty());
}
