//! One benchmark per paper table/figure: how long regenerating each
//! result costs.  The workload traces are built once outside the timing
//! loops; what is measured is the extrapolation itself — the quantity
//! the paper sells ("the ability of extrapolation to predict the results
//! very quickly").

use extrap_bench::harness::Harness;
use extrap_bench::{predict, suite_traces};
use extrap_core::{machine, CompiledProgram, ServicePolicy, SizeMode};
use extrap_trace::translate;
use extrap_workloads::{matmul, Bench, Scale};
use std::hint::black_box;

fn main() {
    let (mut h, ()) = Harness::from_args("figures", |_| Ok(()));

    h.bench("table1_barrier_params", || {
        black_box(extrap_core::BarrierParams::default())
    });
    h.bench("table3_cm5_preset", || black_box(machine::cm5()));

    {
        let traces = suite_traces(32);
        let params = machine::default_distributed();
        h.bench("fig4_suite_extrapolation_p32", || {
            for (_, ts) in &traces {
                black_box(predict(&params, ts).exec_time());
            }
        });
    }

    {
        let grid = translate(&Bench::Grid.trace(16, Scale::Tiny), Default::default()).unwrap();
        let mut variants = vec![machine::default_distributed(), machine::ideal()];
        let mut actual = machine::default_distributed();
        actual.size_mode = SizeMode::Actual;
        variants.push(actual);
        h.bench("fig5_grid_variants_p16", || {
            for params in &variants {
                black_box(predict(params, &grid).exec_time());
            }
        });
    }

    {
        let mgrid = translate(&Bench::Mgrid.trace(16, Scale::Tiny), Default::default()).unwrap();
        h.bench("fig6_mgrid_mips_sweep_p16", || {
            for ratio in [2.0, 1.0, 0.5] {
                let mut params = machine::default_distributed();
                params.mips_ratio = ratio;
                black_box(predict(&params, &mgrid).exec_time());
            }
        });
    }

    {
        let mgrid = translate(&Bench::Mgrid.trace(8, Scale::Tiny), Default::default()).unwrap();
        h.bench("fig7_mgrid_startup_sweep_p8", || {
            for startup in [5.0, 100.0, 200.0] {
                let mut params = machine::default_distributed();
                params.comm = params.comm.with_startup_us(startup);
                black_box(predict(&params, &mgrid).exec_time());
            }
        });
    }

    {
        let cyclic = translate(&Bench::Cyclic.trace(16, Scale::Tiny), Default::default()).unwrap();
        let policies = [
            ServicePolicy::NoInterrupt,
            ServicePolicy::Interrupt,
            ServicePolicy::poll_us(100.0),
        ];
        h.bench("fig8_cyclic_policies_p16", || {
            for policy in policies {
                let mut params = machine::default_distributed();
                params.comm = params.comm.with_startup_us(100.0);
                params.policy = policy;
                black_box(predict(&params, &cyclic).exec_time());
            }
        });
    }

    {
        let cfg = matmul::MatmulConfig {
            n: 12,
            dist: (pcpp_rt::Dist1::Block, pcpp_rt::Dist1::Block),
        };
        let ts = translate(&matmul::run(16, &cfg).0, Default::default()).unwrap();
        let params = machine::cm5();
        let refmachine = extrap_refsim::RefMachine::new(params.clone());
        h.bench("fig9_matmul_predicted_p16", || {
            black_box(predict(&params, &ts).exec_time())
        });
        h.bench("fig9_matmul_measured_p16", || {
            let program = CompiledProgram::compile(&ts).unwrap();
            black_box(refmachine.measure(&program).unwrap().exec_time())
        });
    }

    h.finish();
}
