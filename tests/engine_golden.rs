//! Identity golden for the simulation engine: every Table 2 benchmark at
//! `Scale::Tiny` on 4 and 8 threads, under every service policy, on every
//! topology, with linear-by-messages, hardware and tree barriers.  Each
//! run is pinned to one line of `tests/fixtures/engine_golden.txt`: the
//! predicted execution time, the full per-thread breakdown, the network
//! statistics (`factor_sum` as raw f64 bits), the barrier count, the
//! events dispatched, and an FNV-1a hash of the serialized
//! `RecordMode::Full` predicted trace.
//!
//! Engine refactors (event queue, message bookkeeping, barrier buffers)
//! must keep every line byte-identical.  A deliberate model change
//! regenerates the fixture with
//! `EXTRAP_BLESS=1 cargo test --test engine_golden`.

use perf_extrap::models::CompiledProgram;
use perf_extrap::prelude::*;
use perf_extrap::trace::format::encode_set;
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/engine_golden.txt")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn policies() -> [(&'static str, ServicePolicy); 3] {
    [
        ("interrupt", ServicePolicy::Interrupt),
        ("no-interrupt", ServicePolicy::NoInterrupt),
        ("poll", ServicePolicy::poll_us(20.0)),
    ]
}

fn topologies() -> [Topology; 5] {
    [
        Topology::Bus,
        Topology::Crossbar,
        Topology::Mesh2D,
        Topology::Hypercube,
        Topology::FatTree { arity: 4 },
    ]
}

fn barriers() -> [(&'static str, BarrierAlgorithm, bool); 3] {
    [
        ("linear-msgs", BarrierAlgorithm::Linear, true),
        ("hardware", BarrierAlgorithm::Hardware, false),
        ("tree", BarrierAlgorithm::Tree { arity: 2 }, false),
    ]
}

/// One fixture line for one run.
fn golden_line(label: &str, pred: &Prediction) -> String {
    let mut line = format!("{label} exec={}", pred.exec_time().as_ns());
    line.push_str(" threads=");
    for (i, t) in pred.per_thread.iter().enumerate() {
        if i > 0 {
            line.push(';');
        }
        let _ = write!(
            line,
            "{},{},{},{},{},{},{},{},{}",
            t.compute.as_ns(),
            t.service.as_ns(),
            t.send_overhead.as_ns(),
            t.remote_wait.as_ns(),
            t.barrier_wait.as_ns(),
            t.sched_wait.as_ns(),
            t.end_time.as_ns(),
            t.remote_reads,
            t.remote_writes
        );
    }
    let net = &pred.network;
    let _ = write!(
        line,
        " net={},{},{},{:016x} barriers={} events={}",
        net.messages,
        net.bytes,
        net.max_in_flight,
        net.factor_sum.to_bits(),
        pred.barriers,
        pred.events_dispatched
    );
    let _ = write!(line, " trace={:016x}", fnv1a(&encode_set(&pred.predicted)));
    line
}

fn render_all() -> String {
    let mut out = String::new();
    for bench in Bench::all() {
        for n in [4usize, 8] {
            let measured = bench.trace(n, Scale::Tiny);
            let traces = translate(&measured, TranslateOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            let program = CompiledProgram::compile(&traces).unwrap();
            for (pname, policy) in policies() {
                for topology in topologies() {
                    for (bname, algorithm, by_msgs) in barriers() {
                        let mut params = machine::default_distributed();
                        params.policy = policy;
                        params.network.topology = topology;
                        params.barrier.algorithm = algorithm;
                        params.barrier.by_msgs = by_msgs;
                        let pred = Extrapolator::new(params)
                            .run(&program)
                            .unwrap_or_else(|e| panic!("{} n={n}: {e}", bench.name()));
                        let label = format!(
                            "{} n={n} {pname} {} {bname}",
                            bench.name(),
                            topology.config_name()
                        );
                        out.push_str(&golden_line(&label, &pred));
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

#[test]
fn engine_outputs_match_the_identity_golden() {
    let got = render_all();
    let path = fixture_path();
    if std::env::var_os("EXTRAP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with EXTRAP_BLESS=1)", path.display()));
    let mismatches: Vec<(&str, &str)> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} golden line(s) differ; first:\n want {}\n  got {}",
        mismatches.len(),
        mismatches[0].0,
        mismatches[0].1
    );
    assert_eq!(want.lines().count(), got.lines().count(), "run count");
}
