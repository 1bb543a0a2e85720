//! Micro-benchmarks of the pipeline kernels: trace recording,
//! translation, encoding, and raw simulator event throughput.

use extrap_bench::harness::{Harness, Throughput};
use extrap_bench::{predict, ring_program, ring_traces};
use extrap_core::network::NetworkState;
use extrap_core::{
    machine, run_with_network, CompiledProgram, Extrapolator, RecordMode, SimScratch,
};
use extrap_time::{DurationNs, SplitMix64, TimeNs};
use std::hint::black_box;

/// Schedules every timestamp in `times`, then drains the queue; the raw
/// event-queue hot loop.
fn drain(times: &[u64]) -> u64 {
    let mut eng: extrap_sim::Engine<u64> = extrap_sim::Engine::new();
    for (i, &t) in times.iter().enumerate() {
        eng.schedule(TimeNs(t), i as u64);
    }
    let mut count = 0u64;
    while eng.next().is_some() {
        count += 1;
    }
    count
}

fn main() {
    let (mut h, ()) = Harness::from_args("kernels", |_| Ok(()));

    h.bench("pcpp_runtime_8_threads_64_phases", || {
        let trace = pcpp_rt::Program::new(8)
            .with_work_model(pcpp_rt::WorkModel::unit())
            .run(|ctx| {
                for _ in 0..64 {
                    ctx.charge(DurationNs(1_000));
                    ctx.barrier();
                }
            });
        black_box(trace.records.len())
    });

    // A turn handoff that woke every parked thread would make this row
    // quadratic in the thread count (seconds, not milliseconds).
    h.bench("pcpp_runtime_256_threads_8_phases", || {
        let trace = pcpp_rt::Program::new(256)
            .with_work_model(pcpp_rt::WorkModel::unit())
            .run(|ctx| {
                for _ in 0..8 {
                    ctx.charge(DurationNs(1_000));
                    ctx.barrier();
                }
            });
        black_box(trace.records.len())
    });

    {
        let trace = ring_program(32, 64, 10.0, 256);
        h.bench_throughput(
            "translate_32t_64p",
            Throughput::Elements(trace.records.len() as u64),
            || black_box(extrap_trace::translate(&trace, Default::default()).unwrap()),
        );

        let encoded = extrap_trace::format::encode_program(&trace);
        h.bench_throughput(
            "encode_program",
            Throughput::Bytes(encoded.len() as u64),
            || black_box(extrap_trace::format::encode_program(&trace).len()),
        );
        h.bench_throughput(
            "decode_program",
            Throughput::Bytes(encoded.len() as u64),
            || black_box(extrap_trace::format::decode_program(&encoded).unwrap()),
        );
    }

    for &n in &[4usize, 16, 32] {
        let ts = ring_traces(n, 32, 20.0, 1_024);
        let params = machine::default_distributed();
        let events = predict(&params, &ts).events_dispatched;
        h.bench_throughput(
            &format!("extrapolate_ring_{n}t"),
            Throughput::Elements(events),
            || black_box(predict(&params, &ts).exec_time()),
        );
    }

    // The sweep hot path in isolation: compile once, replay with reused
    // scratch buffers, metrics only.
    {
        let ts = ring_traces(32, 32, 20.0, 1_024);
        let program = CompiledProgram::compile(&ts).unwrap();
        let events = Extrapolator::new(machine::default_distributed())
            .run(&program)
            .unwrap()
            .events_dispatched;
        let mut params = machine::default_distributed();
        params.record_mode = RecordMode::MetricsOnly;
        let mut scratch = SimScratch::default();
        h.bench_throughput(
            "run_compiled_scratch_ring_32t",
            Throughput::Elements(events),
            || {
                // The network exactly as the engine's exact path builds it.
                let n_procs = params
                    .multithread
                    .mapping
                    .n_procs(program.n_threads().max(1));
                let net = NetworkState::new(n_procs, params.network, params.comm.byte_transfer);
                let pred = run_with_network(&program, &params, net, &mut scratch).unwrap();
                black_box(pred.exec_time())
            },
        );
    }

    // The raw event queue over three timestamp shapes: uniform, skewed
    // (almost everything near-term, a sparse far-future tail) and
    // clustered (tight equal-time bursts separated by long gaps).
    let uniform: Vec<u64> = (0..10_000u64).map(|i| i % 977).collect();
    let skewed: Vec<u64> = {
        let mut rng = SplitMix64::new(0x5eed_cafe);
        (0..10_000)
            .map(|_| {
                if rng.below(100) == 0 {
                    1_000_000 + rng.below(1_000_000_000)
                } else {
                    rng.below(1_000)
                }
            })
            .collect()
    };
    let clustered: Vec<u64> = (0..10_000u64).map(|i| (i / 100) * 1_000_000).collect();

    h.bench("event_queue_10k", || black_box(drain(&uniform)));
    h.bench("event_queue_skewed_10k", || black_box(drain(&skewed)));
    h.bench("event_queue_clustered_10k", || black_box(drain(&clustered)));

    h.finish();
}
