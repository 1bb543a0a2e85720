//! Exact-arithmetic tests tying docs/MODELS.md to the implementation:
//! every term of the remote-access and barrier equations is pinned on a
//! hand-computed scenario.

use extrap_core::{
    machine, BarrierAlgorithm, CommParams, CompiledProgram, Extrapolator, ServicePolicy, SimParams,
    Topology,
};
use extrap_time::{DurationNs, ElementId, ThreadId, TimeNs};
use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork};

/// S=10, B=0.1/byte, C=2, V=3, R=1 (µs); crossbar with H=0.5; no
/// contention; free hardware barrier; NoInterrupt.
fn pinned_params() -> SimParams {
    let mut p = machine::ideal();
    p.policy = ServicePolicy::NoInterrupt;
    p.comm = CommParams {
        startup: DurationNs::from_us(10.0),
        byte_transfer: DurationNs::from_us(0.1),
        construct: DurationNs::from_us(2.0),
        service: DurationNs::from_us(3.0),
        receive: DurationNs::from_us(1.0),
        request_bytes: 16,
        reply_header_bytes: 8,
    };
    p.network.topology = Topology::Crossbar;
    p.network.hop = DurationNs::from_us(0.5);
    p.network.contention.enabled = false;
    p.barrier.algorithm = BarrierAlgorithm::Hardware;
    p
}

/// Thread 0 computes 100µs with a 1000-byte remote read at 50µs from
/// thread 1, which computes only 30µs and is already waiting.
fn scenario() -> CompiledProgram {
    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs::from_us(100.0),
            accesses: vec![PhaseAccess {
                after: DurationNs::from_us(50.0),
                owner: ThreadId(1),
                element: ElementId(0),
                declared_bytes: 1_000,
                actual_bytes: 1_000,
                write: false,
            }],
        },
        PhaseWork {
            compute: DurationNs::from_us(30.0),
            accesses: vec![],
        },
    ]);
    compiled(&p)
}

/// The default translation of `p`, compiled for the engine.
fn compiled(p: &PhaseProgram) -> CompiledProgram {
    let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
    CompiledProgram::compile(&ts).unwrap()
}

#[test]
fn remote_read_equation_is_exact() {
    // Hand computation (µs):
    //   issue             = 50
    //   depart request    = 50 + C(2) + S(10)                    = 62
    //   wire request      = H(0.5) + 16 B × 0.1                  = 2.1
    //   arrive at owner   = 64.1 (owner already waiting => immediate)
    //   depart reply      = 64.1 + R(1) + V(3) + C(2) + S(10)    = 80.1
    //   wire reply        = 0.5 + (1000+8) × 0.1                 = 101.3
    //   arrive at reader  = 181.4
    //   resume            = 181.4 + R(1)                         = 182.4
    //   remaining compute = 50 → barrier entry at 232.4
    //   hardware barrier, zero cost → exec = 232.4
    let pred = Extrapolator::new(pinned_params()).run(&scenario()).unwrap();
    assert_eq!(pred.exec_time(), TimeNs::from_us(232.4));
    // The reader's wait: resume(182.4) − issue(50).
    assert_eq!(pred.per_thread[0].remote_wait, DurationNs::from_us(132.4));
    // Reader paid C+S once; owner paid C+S for the reply.
    assert_eq!(pred.per_thread[0].send_overhead, DurationNs::from_us(12.0));
    assert_eq!(pred.per_thread[1].send_overhead, DurationNs::from_us(12.0));
    // Owner's service: R + V.
    assert_eq!(pred.per_thread[1].service, DurationNs::from_us(4.0));
    // Exactly two network messages (request + reply), 16 + 1008 bytes.
    assert_eq!(pred.network.messages, 2);
    assert_eq!(pred.network.bytes, 16 + 1_008);
}

#[test]
fn declared_vs_actual_term_only_changes_the_reply_payload() {
    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs::from_us(100.0),
            accesses: vec![PhaseAccess {
                after: DurationNs::from_us(50.0),
                owner: ThreadId(1),
                element: ElementId(0),
                declared_bytes: 1_000,
                actual_bytes: 100,
                write: false,
            }],
        },
        PhaseWork {
            compute: DurationNs::from_us(30.0),
            accesses: vec![],
        },
    ]);
    let ts = compiled(&p);
    let declared = Extrapolator::new(pinned_params())
        .run(&ts)
        .unwrap()
        .exec_time();
    let mut actual_params = pinned_params();
    actual_params.size_mode = extrap_core::SizeMode::Actual;
    let actual = Extrapolator::new(actual_params.clone())
        .run(&ts)
        .unwrap()
        .exec_time();
    // Payload shrinks by 900 bytes => reply wire time shrinks by 90µs.
    assert_eq!(declared.since(actual), DurationNs::from_us(90.0));
}

#[test]
fn contention_factor_term_multiplies_wire_time() {
    // Two simultaneous 1000-byte transfers on a crossbar with alpha=0.8,
    // P=4: the second sees factor 1 + 0.8·(1/4) = 1.2.
    let mut p = PhaseProgram::new(4);
    let mk_access = |owner: u32| PhaseAccess {
        after: DurationNs::ZERO,
        owner: ThreadId(owner),
        element: ElementId(0),
        declared_bytes: 1_000,
        actual_bytes: 1_000,
        write: false,
    };
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs::from_us(10.0),
            accesses: vec![mk_access(2)],
        },
        PhaseWork {
            compute: DurationNs::from_us(10.0),
            accesses: vec![mk_access(3)],
        },
        PhaseWork {
            compute: DurationNs::from_us(10.0),
            accesses: vec![],
        },
        PhaseWork {
            compute: DurationNs::from_us(10.0),
            accesses: vec![],
        },
    ]);
    let ts = compiled(&p);
    let mut params = pinned_params();
    params.network.contention.enabled = true;
    params.network.contention.alpha = 0.8;
    let with = Extrapolator::new(params.clone()).run(&ts).unwrap();
    params.network.contention.enabled = false;
    let without = Extrapolator::new(params.clone()).run(&ts).unwrap();
    assert!(with.exec_time() > without.exec_time());
    assert!(with.network.mean_factor() > 1.0);
    assert!(without.network.mean_factor() == 1.0);
}

#[test]
fn linear_message_barrier_equation_is_exact() {
    // 2 threads, both enter at 100µs (uniform phase).  Table-1-style
    // params: E=5, X=5, K=0 (immediate observation), M=10, msg 128B.
    // Comm: C=2, S=10; crossbar wire = 0.5 + 128×0.1 = 13.3.
    //   slave entry done   = 105; arrive msg departs 105+12 = 117
    //   arrives at master  = 130.3
    //   master entry done  = 105; observes at 130.3; lowers at 140.3
    //   release departs    = 140.3 + 12 = 152.3; arrives 165.6
    //   slave resumes      = 165.6 + R(1) + X(5) = 171.6
    //   master resumes     = 152.3 + X(5) = 157.3
    // exec = 171.6 (thread end immediately after).
    let mut p = PhaseProgram::new(2);
    p.push_uniform_phase(DurationNs::from_us(100.0));
    let ts = compiled(&p);
    let mut params = pinned_params();
    params.barrier.algorithm = BarrierAlgorithm::Linear;
    params.barrier.by_msgs = true;
    params.barrier.msg_size = 128;
    params.barrier.entry = DurationNs::from_us(5.0);
    params.barrier.exit = DurationNs::from_us(5.0);
    params.barrier.check = DurationNs::ZERO;
    params.barrier.exit_check = DurationNs::ZERO;
    params.barrier.model = DurationNs::from_us(10.0);
    let pred = Extrapolator::new(params.clone()).run(&ts).unwrap();
    assert_eq!(pred.exec_time(), TimeNs::from_us(171.6));
    assert_eq!(pred.per_thread[0].end_time, TimeNs::from_us(157.3));
    assert_eq!(pred.per_thread[1].end_time, TimeNs::from_us(171.6));
}

#[test]
fn mips_ratio_term_scales_only_compute() {
    // Same scenario, ratio 0.5: compute deltas halve (50→25, 50→25),
    // message terms unchanged.
    //   issue 25; depart 37; arrive 39.1; owner waiting (its 30µs
    //   compute halves to 15); reply departs 55.1; arrives 156.4;
    //   resume 157.4; entry at 182.4.
    let mut params = pinned_params();
    params.mips_ratio = 0.5;
    let pred = Extrapolator::new(params.clone()).run(&scenario()).unwrap();
    assert_eq!(pred.exec_time(), TimeNs::from_us(182.4));
}
