//! The extrapolation session.
//!
//! [`Extrapolator`] holds what one prediction needs — the target
//! machine's [`SimParams`].  A what-if question the paper poses is an
//! edit to a preset's fields:
//!
//! ```
//! use extrap_core::{machine, Extrapolator, ServicePolicy};
//! use extrap_trace::PhaseProgram;
//! use extrap_time::DurationNs;
//!
//! let mut p = PhaseProgram::new(4);
//! p.push_uniform_phase(DurationNs::from_us(100.0));
//!
//! let mut params = machine::cm5();
//! params.policy = ServicePolicy::Interrupt;
//! params.mips_ratio = 0.5;
//! let prediction = Extrapolator::new(params).run(&p.record()).unwrap();
//! assert_eq!(prediction.n_procs, 4);
//! ```
//!
//! [`Extrapolator::run`] is the one in-process entry point to the
//! pipeline of Figure 2 (measured 1-processor trace → translation →
//! trace-driven simulation → predicted metrics), and the
//! [`sweep`](mod@crate::sweep) engine runs whole grids of sessions in
//! parallel through the same strategy dispatch.

use crate::engine::{self, ExtrapError, SimScratch};
use crate::metrics::Prediction;
use crate::params::SimParams;
use crate::processor::CompiledProgram;
use crate::repr::ReprPlan;
use extrap_trace::{ProgramTrace, TraceSet, TranslateOptions};

/// The one input a [`run`](Extrapolator::run) call extrapolates, at
/// whatever pipeline stage the caller happens to hold it.
///
/// This is the job-oriented face of the session API: in-process
/// callers, the `extrap` CLI, and the `extrap-serve` daemon all funnel
/// through the same `run(input)` request shape.  The common cases
/// convert implicitly (`&TraceSet`, `&CompiledProgram`, `&ProgramTrace`
/// all `Into<RunInput>`); the sweep hot path names its variant
/// explicitly to thread a scratch buffer through.
pub enum RunInput<'a> {
    /// Already-translated per-thread traces (simulated directly).
    Traces(&'a TraceSet),
    /// An already-compiled program (compile once with
    /// [`CompiledProgram::compile`], replay under many sessions).
    Compiled(&'a CompiledProgram),
    /// A compiled program replayed through the caller's recycled
    /// scratch buffers — the sweep hot path.
    CompiledScratch {
        /// The compiled program to replay.
        program: &'a CompiledProgram,
        /// Reused simulation buffers (one per worker, typically).
        scratch: &'a mut SimScratch,
    },
    /// A raw 1-processor program trace; translated with default
    /// [`TranslateOptions`] first.
    Program(&'a ProgramTrace),
}

impl<'a> From<&'a TraceSet> for RunInput<'a> {
    fn from(traces: &'a TraceSet) -> RunInput<'a> {
        RunInput::Traces(traces)
    }
}

impl<'a> From<&'a CompiledProgram> for RunInput<'a> {
    fn from(program: &'a CompiledProgram) -> RunInput<'a> {
        RunInput::Compiled(program)
    }
}

impl<'a> From<&'a ProgramTrace> for RunInput<'a> {
    fn from(trace: &'a ProgramTrace) -> RunInput<'a> {
        RunInput::Program(trace)
    }
}

/// A configured extrapolation session: target-machine parameters,
/// applied to as many traces as you like.
#[derive(Clone, Debug, Default)]
pub struct Extrapolator {
    params: SimParams,
}

impl Extrapolator {
    /// Starts a session targeting the machine described by `params`
    /// (usually one of the [`machine`](crate::machine) presets).
    pub fn new(params: SimParams) -> Extrapolator {
        Extrapolator { params }
    }

    /// The session's current parameter set.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Extrapolates one [`RunInput`] — translated traces, a compiled
    /// program (with or without caller-provided scratch buffers), or a
    /// raw 1-processor program trace.
    ///
    /// This is the only in-process entry point.  `&TraceSet`,
    /// `&CompiledProgram`, and `&ProgramTrace` convert implicitly;
    /// whatever the input, it is compiled (translated first, if raw)
    /// and handed to the engine's single strategy dispatch, with a
    /// representative plan built fresh for this run when the strategy
    /// asks for one.
    pub fn run<'a>(&self, input: impl Into<RunInput<'a>>) -> Result<Prediction, ExtrapError> {
        let compiled;
        let (program, scratch) = match input.into() {
            RunInput::Traces(traces) => {
                compiled = CompiledProgram::compile(traces)?;
                (&compiled, None)
            }
            RunInput::Program(trace) => {
                let set = extrap_trace::translate(trace, TranslateOptions::default())?;
                compiled = CompiledProgram::compile(&set)?;
                (&compiled, None)
            }
            RunInput::Compiled(program) => (program, None),
            RunInput::CompiledScratch { program, scratch } => (program, Some(scratch)),
        };
        let mut fresh = SimScratch::default();
        engine::simulate(
            program,
            &self.params,
            |max_clusters, tolerance| ReprPlan::from_program(program, max_clusters, tolerance),
            scratch.unwrap_or(&mut fresh),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine;
    use crate::params::{BarrierAlgorithm, ServicePolicy, SizeMode};
    use extrap_time::{DurationNs, ElementId, ThreadId, TimeNs};
    use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork, TraceSet};

    fn predict(ts: &TraceSet, params: &SimParams) -> Result<Prediction, ExtrapError> {
        Extrapolator::new(params.clone()).run(ts)
    }

    fn program() -> ProgramTrace {
        let mut p = PhaseProgram::new(4);
        p.push_uniform_phase(DurationNs::from_us(50.0));
        p.push_uniform_phase(DurationNs::from_us(50.0));
        p.record()
    }

    #[test]
    fn all_run_input_forms_agree() {
        use crate::processor::CompiledProgram;
        let pt = program();
        let ts = extrap_trace::translate(&pt, TranslateOptions::default()).unwrap();
        let compiled = CompiledProgram::compile(&ts).unwrap();
        let session = Extrapolator::new(machine::cm5());
        let via_traces = session.run(&ts).unwrap();
        let via_program = session.run(&pt).unwrap();
        let via_compiled = session.run(&compiled).unwrap();
        let mut scratch = SimScratch::default();
        let via_scratch = session
            .run(RunInput::CompiledScratch {
                program: &compiled,
                scratch: &mut scratch,
            })
            .unwrap();
        for p in [&via_program, &via_compiled, &via_scratch] {
            assert_eq!(via_traces.exec_time(), p.exec_time());
            assert_eq!(via_traces.per_thread, p.per_thread);
        }
    }

    /// n threads, `phases` uniform compute phases of `us` microseconds.
    fn uniform(n: usize, phases: usize, us: f64) -> TraceSet {
        let mut p = PhaseProgram::new(n);
        for _ in 0..phases {
            p.push_uniform_phase(DurationNs::from_us(us));
        }
        extrap_trace::translate(&p.record(), Default::default()).unwrap()
    }

    /// Neighbor exchange: every thread reads one element from its right
    /// neighbor each phase.
    fn ring(n: usize, phases: usize, us: f64, declared: u32, actual: u32) -> TraceSet {
        let mut p = PhaseProgram::new(n);
        for _ in 0..phases {
            let work = (0..n)
                .map(|t| PhaseWork {
                    compute: DurationNs::from_us(us),
                    accesses: vec![PhaseAccess {
                        after: DurationNs::from_us(us / 2.0),
                        owner: ThreadId::from_index((t + 1) % n),
                        element: ElementId::from_index(t),
                        declared_bytes: declared,
                        actual_bytes: actual,
                        write: false,
                    }],
                })
                .collect();
            p.push_phase(work);
        }
        extrap_trace::translate(&p.record(), Default::default()).unwrap()
    }

    #[test]
    fn ideal_machine_reproduces_translated_makespan() {
        let ts = uniform(4, 3, 100.0);
        let pred = predict(&ts, &machine::ideal()).unwrap();
        assert_eq!(pred.exec_time(), ts.makespan());
        assert_eq!(pred.barriers, 3);
        assert_eq!(pred.n_procs, 4);
    }

    #[test]
    fn mips_ratio_scales_pure_compute_exactly() {
        let ts = uniform(2, 2, 100.0);
        let mut params = machine::ideal();
        params.mips_ratio = 2.0;
        let slow = predict(&ts, &params).unwrap();
        params.mips_ratio = 0.5;
        let fast = predict(&ts, &params).unwrap();
        assert_eq!(slow.exec_time(), TimeNs::from_us(400.0));
        assert_eq!(fast.exec_time(), TimeNs::from_us(100.0));
    }

    #[test]
    fn barrier_costs_accumulate_per_phase() {
        let ts = uniform(2, 10, 10.0);
        let mut params = machine::ideal();
        params.barrier.algorithm = BarrierAlgorithm::Hardware;
        params.barrier.hardware_latency = DurationNs::from_us(3.0);
        let pred = predict(&ts, &params).unwrap();
        // 10 phases of 10us compute + 10 barriers of 3us latency.
        assert_eq!(pred.exec_time(), TimeNs::from_us(130.0));
        assert_eq!(pred.barriers, 10);
    }

    #[test]
    fn remote_reads_cost_time_and_are_counted() {
        let ts = ring(4, 2, 100.0, 1024, 1024);
        let ideal = predict(&ts, &machine::ideal()).unwrap();
        let dist = predict(&ts, &machine::default_distributed()).unwrap();
        assert!(dist.exec_time() > ideal.exec_time());
        let reads: u64 = dist.per_thread.iter().map(|t| t.remote_reads).sum();
        assert_eq!(reads, 8);
        assert!(dist.network.messages >= 16, "requests + replies at least");
        assert!(dist.total_remote_wait() > DurationNs::ZERO);
    }

    #[test]
    fn size_mode_changes_transfer_cost() {
        // Declared size is 100x the actual size; with a slow network the
        // declared-mode prediction must be slower.
        let ts = ring(4, 2, 50.0, 100_000, 1_000);
        let mut params = machine::default_distributed();
        params.size_mode = SizeMode::Declared;
        let declared = predict(&ts, &params).unwrap();
        params.size_mode = SizeMode::Actual;
        let actual = predict(&ts, &params).unwrap();
        assert!(
            declared.exec_time() > actual.exec_time(),
            "declared {} vs actual {}",
            declared.exec_time(),
            actual.exec_time()
        );
    }

    #[test]
    fn more_bandwidth_is_never_slower() {
        let ts = ring(8, 3, 20.0, 65_536, 65_536);
        let mut slow_p = machine::default_distributed();
        slow_p.comm = slow_p.comm.with_bandwidth_mbps(5.0);
        let mut fast_p = machine::default_distributed();
        fast_p.comm = fast_p.comm.with_bandwidth_mbps(200.0);
        let slow = predict(&ts, &slow_p).unwrap();
        let fast = predict(&ts, &fast_p).unwrap();
        assert!(fast.exec_time() <= slow.exec_time());
    }

    #[test]
    fn all_policies_complete_and_order_sanely() {
        let ts = ring(4, 3, 100.0, 4_096, 4_096);
        let mut params = machine::default_distributed();
        let mut times = Vec::new();
        for policy in [
            ServicePolicy::NoInterrupt,
            ServicePolicy::Interrupt,
            ServicePolicy::poll_us(100.0),
        ] {
            params.policy = policy;
            let pred = predict(&ts, &params).unwrap();
            times.push(pred.exec_time());
        }
        // No-interrupt can never beat interrupt on this communication-
        // bound pattern: requests to busy threads wait longer.
        assert!(
            times[1] <= times[0],
            "interrupt {} vs no-interrupt {}",
            times[1],
            times[0]
        );
    }

    #[test]
    fn predicted_trace_is_valid_and_matches_exec_time() {
        let ts = ring(4, 2, 100.0, 1024, 1024);
        let pred = predict(&ts, &machine::cm5()).unwrap();
        pred.predicted.validate().unwrap();
        assert_eq!(pred.predicted.makespan(), pred.exec_time());
        // Same barrier structure as the input.
        assert_eq!(
            pred.predicted.threads[0].barrier_sequence(),
            ts.threads[0].barrier_sequence()
        );
    }

    #[test]
    fn extrapolation_is_deterministic() {
        let ts = ring(8, 4, 30.0, 8_192, 8_192);
        let params = machine::default_distributed();
        let a = predict(&ts, &params).unwrap();
        let b = predict(&ts, &params).unwrap();
        assert_eq!(a.exec_time(), b.exec_time());
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.per_thread, b.per_thread);
    }

    #[test]
    fn single_thread_run_works() {
        let ts = uniform(1, 2, 10.0);
        let pred = predict(&ts, &machine::default_distributed()).unwrap();
        assert!(pred.exec_time() >= TimeNs::from_us(20.0));
        assert_eq!(pred.n_procs, 1);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let ts = uniform(1, 1, 1.0);
        let mut params = SimParams::default();
        params.mips_ratio = -1.0;
        assert!(matches!(predict(&ts, &params), Err(ExtrapError::Params(_))));
    }

    #[test]
    fn remote_writes_are_nonblocking_but_cost_send_overhead() {
        let mut p = PhaseProgram::new(2);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs::from_us(100.0),
                accesses: vec![PhaseAccess {
                    after: DurationNs::from_us(50.0),
                    owner: ThreadId(1),
                    element: ElementId(0),
                    declared_bytes: 4_096,
                    actual_bytes: 4_096,
                    write: true,
                }],
            },
            PhaseWork {
                compute: DurationNs::from_us(100.0),
                accesses: vec![],
            },
        ]);
        let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
        let pred = predict(&ts, &machine::default_distributed()).unwrap();
        let writes: u64 = pred.per_thread.iter().map(|t| t.remote_writes).sum();
        assert_eq!(writes, 1);
        assert!(pred.per_thread[0].send_overhead > DurationNs::ZERO);
        assert_eq!(pred.per_thread[0].remote_wait, DurationNs::ZERO);
    }
}
