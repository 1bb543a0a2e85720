//! Ablations of the design choices DESIGN.md calls out: barrier
//! algorithm substitution, analytic vs link-level contention, poll
//! interval, declared vs actual transfer sizes, and the multithreaded
//! (m < n) extension.

use extrap_bench::harness::Harness;
use extrap_bench::ring_traces;
use extrap_core::{
    machine, BarrierAlgorithm, CompiledProgram, Extrapolator, MultithreadParams, ServicePolicy,
    SizeMode, ThreadMapping,
};
use std::hint::black_box;

fn main() {
    let (mut h, ()) = Harness::from_args("ablations", |_| Ok(()));

    {
        let ts = ring_traces(32, 16, 20.0, 256);
        for (name, algorithm) in [
            ("barrier_algorithm/linear", BarrierAlgorithm::Linear),
            (
                "barrier_algorithm/tree4",
                BarrierAlgorithm::Tree { arity: 4 },
            ),
            ("barrier_algorithm/hardware", BarrierAlgorithm::Hardware),
        ] {
            let mut params = machine::default_distributed();
            params.barrier.algorithm = algorithm;
            if algorithm != BarrierAlgorithm::Linear {
                params.barrier.by_msgs = false;
            }
            h.bench(name, || {
                black_box(
                    Extrapolator::new(params.clone())
                        .run(&ts)
                        .unwrap()
                        .exec_time(),
                )
            });
        }
    }

    {
        let ts = ring_traces(16, 16, 20.0, 4_096);
        let params = machine::cm5();
        let refmachine = extrap_refsim::RefMachine::new(params.clone());
        h.bench("contention_model/analytic", || {
            black_box(
                Extrapolator::new(params.clone())
                    .run(&ts)
                    .unwrap()
                    .exec_time(),
            )
        });
        h.bench("contention_model/link_level", || {
            let program = CompiledProgram::compile(&ts).unwrap();
            black_box(refmachine.measure(&program).unwrap().exec_time())
        });
    }

    {
        let ts = ring_traces(16, 16, 100.0, 1_024);
        for us in [10.0, 100.0, 1000.0] {
            let mut params = machine::default_distributed();
            params.policy = ServicePolicy::poll_us(us);
            h.bench(&format!("poll_interval/{us}us"), || {
                black_box(
                    Extrapolator::new(params.clone())
                        .run(&ts)
                        .unwrap()
                        .exec_time(),
                )
            });
        }
    }

    {
        let ts = ring_traces(16, 16, 20.0, 65_536);
        for (name, mode) in [
            ("size_mode/declared", SizeMode::Declared),
            ("size_mode/actual", SizeMode::Actual),
        ] {
            let mut params = machine::default_distributed();
            params.size_mode = mode;
            h.bench(name, || {
                black_box(
                    Extrapolator::new(params.clone())
                        .run(&ts)
                        .unwrap()
                        .exec_time(),
                )
            });
        }
    }

    {
        let ts = ring_traces(16, 16, 50.0, 1_024);
        for (name, mapping) in [
            ("thread_mapping/one_per_proc", ThreadMapping::OnePerProc),
            ("thread_mapping/block_4", ThreadMapping::Block { procs: 4 }),
            (
                "thread_mapping/cyclic_4",
                ThreadMapping::Cyclic { procs: 4 },
            ),
        ] {
            let mut params = machine::default_distributed();
            params.multithread = MultithreadParams {
                mapping,
                ..MultithreadParams::default()
            };
            h.bench(name, || {
                black_box(
                    Extrapolator::new(params.clone())
                        .run(&ts)
                        .unwrap()
                        .exec_time(),
                )
            });
        }
    }

    h.finish();
}
