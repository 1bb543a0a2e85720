//! Equivalence guarantees of the hot-path machinery: a compiled program
//! replayed through reused scratch buffers must be indistinguishable
//! from a fresh `Extrapolator::run`, and `RecordMode::MetricsOnly` must
//! change nothing but the predicted trace.

use extrap_core::network::NetworkState;
use extrap_core::{
    machine, run_with_network, sweep::CachedTrace, CompiledProgram, ExtrapError, Extrapolator,
    Prediction, RecordMode, ServicePolicy, SimParams, SimScratch,
};
use extrap_time::{DurationNs, ElementId, ThreadId};
use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork, TraceSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread (tests run in parallel).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn count_allocation() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A communicating workload: every thread reads from its right
/// neighbour, computes, and synchronizes — twice.
fn ring(n: usize) -> TraceSet {
    let mut p = PhaseProgram::new(n);
    for round in 0..2 {
        let works = (0..n)
            .map(|t| PhaseWork {
                compute: DurationNs::from_us(50.0 + (t as f64) * 3.0 + (round as f64)),
                accesses: vec![PhaseAccess {
                    after: DurationNs::from_us(10.0),
                    owner: ThreadId(((t + 1) % n) as u32),
                    element: ElementId(t as u32),
                    declared_bytes: 1024,
                    actual_bytes: 128,
                    write: round % 2 == 1,
                }],
            })
            .collect();
        p.push_phase(works);
    }
    extrap_trace::translate(&p.record(), Default::default()).unwrap()
}

fn param_grid() -> Vec<SimParams> {
    let mut poll = machine::cm5();
    poll.policy = ServicePolicy::poll_us(25.0);
    let mut slow = machine::default_distributed();
    slow.mips_ratio = 2.5;
    let mut fast = machine::default_distributed();
    fast.mips_ratio = 0.41;
    vec![machine::ideal(), machine::cm5(), poll, slow, fast]
}

/// One exact run through the caller's recycled scratch buffers, on the
/// flat network the session's exact path builds.
fn run_in(
    params: &SimParams,
    program: &CompiledProgram,
    scratch: &mut SimScratch,
) -> Result<Prediction, ExtrapError> {
    let n_procs = params
        .multithread
        .mapping
        .n_procs(program.n_threads().max(1));
    let net = NetworkState::new(n_procs, params.network, params.comm.byte_transfer);
    run_with_network(program, params, net, scratch)
}

#[test]
fn scratch_reuse_does_not_leak_state_between_runs() {
    // One scratch across different programs, sizes, and parameter sets —
    // every run must match its fresh-buffer twin.
    let mut scratch = SimScratch::default();
    for n in [2usize, 8, 3] {
        let ts = ring(n);
        let program = CompiledProgram::compile(&ts).unwrap();
        for params in param_grid() {
            let fresh = Extrapolator::new(params.clone()).run(&program).unwrap();
            let reused = run_in(&params, &program, &mut scratch).unwrap();
            assert_eq!(fresh.per_thread, reused.per_thread);
            assert_eq!(fresh.predicted, reused.predicted);
            assert_eq!(fresh.events_dispatched, reused.events_dispatched);
        }
    }
}

#[test]
fn scratch_reused_from_a_large_run_matches_fresh_scratch_on_a_small_one() {
    // A large run leaves recycled message slots, barrier state and
    // barrier-action buffers behind in the scratch; the small run that
    // follows, under a different policy and barrier protocol, must not
    // see any of it.
    let large = CompiledProgram::compile(&ring(32)).unwrap();
    let small = CompiledProgram::compile(&ring(3)).unwrap();
    let mut large_params = machine::default_distributed();
    large_params.policy = ServicePolicy::NoInterrupt;
    let mut poll = machine::default_distributed();
    poll.policy = ServicePolicy::poll_us(7.0);
    let mut scratch = SimScratch::default();
    for small_params in [machine::cm5(), poll, machine::default_distributed()] {
        for (program, params) in [(&large, &large_params), (&small, &small_params)] {
            let fresh = Extrapolator::new(params.clone()).run(program).unwrap();
            let reused = run_in(params, program, &mut scratch).unwrap();
            assert_eq!(fresh.per_thread, reused.per_thread);
            assert_eq!(fresh.predicted, reused.predicted);
            assert_eq!(fresh.events_dispatched, reused.events_dispatched);
            assert_eq!(fresh.barriers, reused.barriers);
            assert_eq!(fresh.network, reused.network);
        }
    }
}

#[test]
fn warmed_scratch_runs_allocate_only_their_result() {
    // Once a scratch has seen a program, replaying it allocates nothing
    // but the returned per-thread breakdown: message slots, barrier state
    // and barrier actions are all recycled.
    let program = CompiledProgram::compile(&ring(16)).unwrap();
    let mut scratch = SimScratch::default();
    for mut params in param_grid() {
        params.record_mode = RecordMode::MetricsOnly;
        run_in(&params, &program, &mut scratch).unwrap();
        let before = allocations();
        let prediction = run_in(&params, &program, &mut scratch);
        assert_eq!(allocations() - before, 1, "only `per_thread` allocates");
        assert!(prediction.is_ok());
    }
}

#[test]
fn metrics_only_changes_nothing_but_the_predicted_trace() {
    let ts = ring(5);
    let program = CompiledProgram::compile(&ts).unwrap();
    for mut params in param_grid() {
        let full = Extrapolator::new(params.clone()).run(&program).unwrap();
        params.record_mode = RecordMode::MetricsOnly;
        let lean = Extrapolator::new(params).run(&program).unwrap();
        assert_eq!(
            full.per_thread, lean.per_thread,
            "metrics must be identical"
        );
        assert_eq!(full.exec_time(), lean.exec_time());
        assert_eq!(full.events_dispatched, lean.events_dispatched);
        assert_eq!(full.barriers, lean.barriers);
        assert_eq!(full.network, lean.network);
        assert!(lean.predicted.threads.is_empty(), "no predicted trace");
        assert!(!full.predicted.threads.is_empty());
    }
}

#[test]
fn full_mode_reserves_exact_predicted_capacity() {
    let ts = ring(4);
    let program = CompiledProgram::compile(&ts).unwrap();
    let pred = Extrapolator::new(machine::cm5()).run(&program).unwrap();
    for (ct, tt) in program.threads().iter().zip(&pred.predicted.threads) {
        assert_eq!(
            ct.predicted_records,
            tt.records.len(),
            "compiler-counted capacity must equal the emitted record count"
        );
    }
}

#[test]
fn record_mode_round_trips_through_config_text() {
    let p = SimParams {
        record_mode: RecordMode::MetricsOnly,
        ..Default::default()
    };
    let text = p.to_config_text();
    assert!(text.contains("RecordMode = metrics-only"));
    let back = SimParams::from_config_text(&text).unwrap();
    assert_eq!(back, p);
}

#[test]
fn cached_trace_holds_only_its_program() {
    let program = CompiledProgram::compile(&ring(3)).unwrap();
    let cached = CachedTrace::new(program.clone());
    assert_eq!(cached.program(), &program);
    assert_eq!(cached.n_threads(), 3);
    assert_eq!(cached.resident_bytes(), cached.program().resident_bytes());
}
