//! Behavioural tests of the trace-driven engine: service policies,
//! barrier protocols, multithreaded scheduling, and failure modes.

use extrap_core::{
    machine, BarrierAlgorithm, ExtrapError, Extrapolator, MultithreadParams, ServicePolicy,
    SimParams, ThreadMapping,
};
use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId, TimeNs};
use extrap_trace::{
    EventKind, PhaseAccess, PhaseProgram, PhaseWork, ThreadTrace, TraceRecord, TraceSet,
};

/// Two threads; thread 0 reads from thread 1 early while thread 1
/// computes for a long time.  The request's service time depends
/// entirely on the policy.
fn requester_vs_busy_owner() -> TraceSet {
    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs::from_us(20.0),
            accesses: vec![PhaseAccess {
                after: DurationNs::from_us(10.0),
                owner: ThreadId(1),
                element: ElementId(0),
                declared_bytes: 64,
                actual_bytes: 64,
                write: false,
            }],
        },
        PhaseWork {
            compute: DurationNs::from_us(2_000.0),
            accesses: vec![],
        },
    ]);
    extrap_trace::translate(&p.record(), Default::default()).unwrap()
}

/// A zero-cost parameter set except for what each test enables.
fn quiet_params() -> SimParams {
    let mut p = machine::ideal();
    p.policy = ServicePolicy::NoInterrupt;
    p
}

#[test]
fn no_interrupt_blocks_until_the_owners_segment_ends() {
    let ts = requester_vs_busy_owner();
    let pred = Extrapolator::new(quiet_params()).run(&ts).unwrap();
    // Thread 0 waits from 10us until thread 1 finishes at 2000us.
    let wait = pred.per_thread[0].remote_wait;
    assert!(
        (wait.as_us() - 1_990.0).abs() < 1.0,
        "expected ~1990us wait, got {wait}"
    );
}

#[test]
fn interrupt_services_immediately() {
    let ts = requester_vs_busy_owner();
    let mut params = quiet_params();
    params.policy = ServicePolicy::Interrupt;
    let pred = Extrapolator::new(params.clone()).run(&ts).unwrap();
    assert_eq!(pred.per_thread[0].remote_wait, DurationNs::ZERO);
    // Thread 1's end time is unchanged (zero-cost service).
    assert_eq!(pred.per_thread[1].end_time, TimeNs::from_us(2_000.0));
}

#[test]
fn poll_services_at_the_next_tick() {
    let ts = requester_vs_busy_owner();
    let mut params = quiet_params();
    params.policy = ServicePolicy::poll_us(100.0);
    let pred = Extrapolator::new(params.clone()).run(&ts).unwrap();
    // Request arrives at 10us; owner's first poll tick is at 100us.
    let wait = pred.per_thread[0].remote_wait;
    assert!(
        (wait.as_us() - 90.0).abs() < 1.0,
        "expected ~90us wait, got {wait}"
    );
}

#[test]
fn poll_interval_bounds_the_service_delay() {
    let ts = requester_vs_busy_owner();
    for interval in [50.0, 200.0, 700.0] {
        let mut params = quiet_params();
        params.policy = ServicePolicy::poll_us(interval);
        let pred = Extrapolator::new(params.clone()).run(&ts).unwrap();
        let wait = pred.per_thread[0].remote_wait.as_us();
        assert!(
            wait <= interval + 1.0,
            "interval {interval}: wait {wait} exceeds one tick"
        );
    }
}

#[test]
fn interrupt_extends_the_owners_computation_by_service_costs() {
    let ts = requester_vs_busy_owner();
    let mut params = quiet_params();
    params.policy = ServicePolicy::Interrupt;
    params.comm.service = DurationNs::from_us(7.0);
    params.comm.receive = DurationNs::from_us(3.0);
    let pred = Extrapolator::new(params.clone()).run(&ts).unwrap();
    // Thread 1 absorbs 10us of service into its 2000us segment.
    assert_eq!(pred.per_thread[1].end_time, TimeNs::from_us(2_010.0));
    assert_eq!(pred.per_thread[1].service, DurationNs::from_us(10.0));
}

#[test]
fn waiting_threads_service_requests_in_every_policy() {
    // Thread 1 reaches the barrier first, then must serve thread 0's
    // late request: extrapolation cannot deadlock.
    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs::from_us(1_000.0),
            accesses: vec![PhaseAccess {
                after: DurationNs::from_us(900.0),
                owner: ThreadId(1),
                element: ElementId(0),
                declared_bytes: 64,
                actual_bytes: 64,
                write: false,
            }],
        },
        PhaseWork {
            compute: DurationNs::from_us(10.0),
            accesses: vec![],
        },
    ]);
    let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
    for policy in [
        ServicePolicy::NoInterrupt,
        ServicePolicy::Interrupt,
        ServicePolicy::poll_us(100.0),
    ] {
        let mut params = machine::default_distributed();
        params.policy = policy;
        let pred = Extrapolator::new(params.clone()).run(&ts).unwrap();
        assert!(pred.exec_time() > TimeNs::ZERO);
    }
}

#[test]
fn barrier_message_mode_charges_linear_release_cost() {
    let n = 16;
    let mut p = PhaseProgram::new(n);
    p.push_uniform_phase(DurationNs::from_us(10.0));
    let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();

    let mut msg_params = machine::ideal();
    msg_params.barrier.by_msgs = true;
    msg_params.barrier.algorithm = BarrierAlgorithm::Linear;
    msg_params.comm.startup = DurationNs::from_us(10.0);
    msg_params.comm.construct = DurationNs::from_us(1.0);

    let mut hw_params = msg_params.clone();
    hw_params.barrier.by_msgs = false;
    hw_params.barrier.algorithm = BarrierAlgorithm::Hardware;
    hw_params.barrier.hardware_latency = DurationNs::from_us(5.0);

    let linear = Extrapolator::new(msg_params.clone())
        .run(&ts)
        .unwrap()
        .exec_time();
    let hardware = Extrapolator::new(hw_params.clone())
        .run(&ts)
        .unwrap()
        .exec_time();
    // Linear release alone is (n-1) * 11us of sequential sends.
    assert!(
        linear.as_us() - hardware.as_us() > 100.0,
        "linear {linear} vs hardware {hardware}"
    );
}

#[test]
fn multithreaded_mapping_serializes_colocated_compute() {
    // 4 threads of pure compute; on 2 processors the work halves, on 1
    // it fully serializes.
    let mut p = PhaseProgram::new(4);
    p.push_uniform_phase(DurationNs::from_us(100.0));
    let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
    let time_on = |m: usize| {
        let mut params = machine::ideal();
        params.multithread = MultithreadParams {
            mapping: ThreadMapping::Block { procs: m },
            switch_cost: DurationNs::ZERO,
        };
        Extrapolator::new(params.clone())
            .run(&ts)
            .unwrap()
            .exec_time()
    };
    assert_eq!(time_on(4), TimeNs::from_us(100.0));
    assert_eq!(time_on(2), TimeNs::from_us(200.0));
    assert_eq!(time_on(1), TimeNs::from_us(400.0));
}

#[test]
fn context_switch_cost_is_charged_between_threads() {
    let mut p = PhaseProgram::new(2);
    p.push_uniform_phase(DurationNs::from_us(100.0));
    let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
    let mut params = machine::ideal();
    params.multithread = MultithreadParams {
        mapping: ThreadMapping::Block { procs: 1 },
        switch_cost: DurationNs::from_us(25.0),
    };
    let pred = Extrapolator::new(params.clone()).run(&ts).unwrap();
    // Thread 0 runs (100us), switch (25us), thread 1 runs (100us) and
    // releases the barrier at 225us; resuming each thread to retire its
    // final op costs one more switch each: 225 + 25 + 25.
    assert_eq!(pred.exec_time(), TimeNs::from_us(275.0));
    // Thread 1 queued 100us at program start and 25us at barrier resume.
    assert_eq!(pred.per_thread[1].sched_wait, DurationNs::from_us(125.0));
}

#[test]
fn colocated_remote_access_bypasses_the_network() {
    // Threads 0 and 1 on one processor: their exchange must not pay
    // wire costs.
    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs::from_us(50.0),
            accesses: vec![PhaseAccess {
                after: DurationNs::from_us(25.0),
                owner: ThreadId(1),
                element: ElementId(0),
                declared_bytes: 1_000_000,
                actual_bytes: 1_000_000,
                write: false,
            }],
        },
        PhaseWork {
            compute: DurationNs::from_us(50.0),
            accesses: vec![],
        },
    ]);
    let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
    let mut params = machine::default_distributed();
    params.multithread.mapping = ThreadMapping::Block { procs: 1 };
    params.multithread.switch_cost = DurationNs::ZERO;
    let colocated = Extrapolator::new(params.clone()).run(&ts).unwrap();
    let flat = Extrapolator::new(machine::default_distributed())
        .run(&ts)
        .unwrap();
    // A megabyte at 20MB/s costs ~50ms on the wire; co-located it's free.
    assert!(
        colocated.exec_time().as_ms() < 5.0,
        "colocated {}",
        colocated.exec_time()
    );
    assert!(flat.exec_time().as_ms() > 40.0, "flat {}", flat.exec_time());
}

#[test]
fn mismatched_barrier_sequences_are_rejected() {
    let mk = |barrier: u32, thread: u32| ThreadTrace {
        thread: ThreadId(thread),
        records: vec![
            TraceRecord {
                time: TimeNs(0),
                thread: ThreadId(thread),
                kind: EventKind::ThreadBegin,
            },
            TraceRecord {
                time: TimeNs(10),
                thread: ThreadId(thread),
                kind: EventKind::BarrierEnter {
                    barrier: BarrierId(barrier),
                },
            },
            TraceRecord {
                time: TimeNs(10),
                thread: ThreadId(thread),
                kind: EventKind::BarrierExit {
                    barrier: BarrierId(barrier),
                },
            },
            TraceRecord {
                time: TimeNs(20),
                thread: ThreadId(thread),
                kind: EventKind::ThreadEnd,
            },
        ],
    };
    let ts = TraceSet {
        threads: vec![mk(0, 0), mk(1, 1)],
    };
    let err = Extrapolator::new(machine::ideal()).run(&ts).unwrap_err();
    assert!(matches!(err, ExtrapError::Trace(_)), "{err}");
}

#[test]
fn empty_trace_set_predicts_empty() {
    let ts = TraceSet { threads: vec![] };
    let pred = Extrapolator::new(machine::ideal()).run(&ts).unwrap();
    assert_eq!(pred.exec_time(), TimeNs::ZERO);
    assert_eq!(pred.n_threads, 0);
}

#[test]
fn remote_write_is_one_way() {
    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        PhaseWork {
            compute: DurationNs::from_us(10.0),
            accesses: vec![PhaseAccess {
                after: DurationNs::from_us(5.0),
                owner: ThreadId(1),
                element: ElementId(0),
                declared_bytes: 1_024,
                actual_bytes: 1_024,
                write: true,
            }],
        },
        PhaseWork {
            compute: DurationNs::from_us(10.0),
            accesses: vec![],
        },
    ]);
    let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
    let pred = Extrapolator::new(machine::cm5()).run(&ts).unwrap();
    // Exactly one data message crosses the network (no reply) besides
    // nothing else: hardware barrier mode sends no messages.
    assert_eq!(pred.network.messages, 1);
    assert_eq!(pred.per_thread[0].remote_wait, DurationNs::ZERO);
    assert_eq!(pred.per_thread[0].remote_writes, 1);
}

#[test]
fn prediction_breakdown_accounts_for_the_whole_makespan() {
    // For a single-threaded run: end = compute + send + service + waits.
    let mut p = PhaseProgram::new(1);
    p.push_uniform_phase(DurationNs::from_us(100.0));
    p.push_uniform_phase(DurationNs::from_us(50.0));
    let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
    let pred = Extrapolator::new(machine::default_distributed())
        .run(&ts)
        .unwrap();
    let b = &pred.per_thread[0];
    let accounted =
        b.compute + b.send_overhead + b.service + b.remote_wait + b.barrier_wait + b.sched_wait;
    assert_eq!(
        b.end_time.as_ns(),
        accounted.as_ns(),
        "breakdown {b:?} must sum to the end time"
    );
}
