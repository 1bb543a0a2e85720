//! The builder-style extrapolation session.
//!
//! [`Extrapolator`] bundles everything one prediction needs — the target
//! machine's [`SimParams`] plus the [`TranslateOptions`] used when raw
//! 1-processor traces must first be translated — behind a fluent builder,
//! so call sites read as the what-if questions the paper poses:
//!
//! ```
//! use extrap_core::{machine, Extrapolator, ServicePolicy};
//! use extrap_trace::PhaseProgram;
//! use extrap_time::DurationNs;
//!
//! let mut p = PhaseProgram::new(4);
//! p.push_uniform_phase(DurationNs::from_us(100.0));
//!
//! let prediction = Extrapolator::new(machine::cm5())
//!     .policy(ServicePolicy::Interrupt)
//!     .mips_ratio(0.5)
//!     .run_program(&p.record())
//!     .unwrap();
//! assert_eq!(prediction.n_procs, 4);
//! ```
//!
//! The free functions [`extrapolate`](crate::extrapolate()) and
//! [`extrapolate_program`](crate::extrapolate_program()) remain as thin
//! wrappers over this type, and the [`sweep`](crate::sweep) engine runs
//! whole grids of sessions in parallel.

use crate::engine::{self, ExtrapError, SimScratch};
use crate::metrics::Prediction;
use crate::params::{
    BarrierParams, CommParams, RecordMode, ServicePolicy, SimParams, SimStrategy, SizeMode,
};
use crate::processor::CompiledProgram;
use extrap_trace::{ProgramTrace, TraceSet, TranslateOptions};

/// The one input a [`run`](Extrapolator::run) call extrapolates, at
/// whatever pipeline stage the caller happens to hold it.
///
/// This is the job-oriented face of the session API: every entry point
/// that used to be its own `run*` method is now a variant, so in-process
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
    /// A raw 1-processor program trace; translated with the session's
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

/// A configured extrapolation session: target-machine parameters plus
/// translation options, applied to as many traces as you like.
#[derive(Clone, Debug, Default)]
pub struct Extrapolator {
    params: SimParams,
    translate: TranslateOptions,
}

impl Extrapolator {
    /// Starts a session targeting the machine described by `params`
    /// (usually one of the [`machine`](crate::machine) presets).
    pub fn new(params: SimParams) -> Extrapolator {
        Extrapolator {
            params,
            translate: TranslateOptions::default(),
        }
    }

    /// Sets the intrusion-compensation options used by
    /// [`run_program`](Extrapolator::run_program).
    pub fn translate_options(mut self, options: TranslateOptions) -> Extrapolator {
        self.translate = options;
        self
    }

    /// Sets the remote-request service policy.
    pub fn policy(mut self, policy: ServicePolicy) -> Extrapolator {
        self.params.policy = policy;
        self
    }

    /// Sets which recorded access size the communication model charges.
    pub fn size_mode(mut self, mode: SizeMode) -> Extrapolator {
        self.params.size_mode = mode;
        self
    }

    /// Sets the `MipsRatio` compute-speed scaling factor.
    pub fn mips_ratio(mut self, ratio: f64) -> Extrapolator {
        self.params.mips_ratio = ratio;
        self
    }

    /// Sets whether the predicted trace is materialized
    /// ([`RecordMode::MetricsOnly`] skips it; metrics stay identical).
    pub fn record_mode(mut self, mode: RecordMode) -> Extrapolator {
        self.params.record_mode = mode;
        self
    }

    /// Sets the epoch coverage strategy: exact replay of every barrier
    /// epoch, or representative-region simulation
    /// ([`SimStrategy::Representative`]) that clusters repeating epochs,
    /// simulates one representative per cluster, and composes full-run
    /// metrics from cluster weights — falling back to exact output when
    /// the trace does not repeat.
    pub fn strategy(mut self, strategy: SimStrategy) -> Extrapolator {
        self.params.strategy = strategy;
        self
    }

    /// Replaces the remote data access model parameters.
    pub fn comm(mut self, comm: CommParams) -> Extrapolator {
        self.params.comm = comm;
        self
    }

    /// Replaces the barrier model parameters.
    pub fn barrier(mut self, barrier: BarrierParams) -> Extrapolator {
        self.params.barrier = barrier;
        self
    }

    /// Applies an arbitrary edit to the parameter set — the escape hatch
    /// for fields without a dedicated builder method.
    pub fn with_params(mut self, edit: impl FnOnce(&mut SimParams)) -> Extrapolator {
        edit(&mut self.params);
        self
    }

    /// The session's current parameter set.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// The session's translation options.
    pub fn translation(&self) -> TranslateOptions {
        self.translate
    }

    /// Extrapolates one [`RunInput`] — translated traces, a compiled
    /// program (with or without caller-provided scratch buffers), or a
    /// raw 1-processor program trace.
    ///
    /// This is the session API's single entry point; the former
    /// `run_compiled` / `run_compiled_scratch` / `run_program` methods
    /// survive as thin wrappers over it.  `&TraceSet`,
    /// `&CompiledProgram`, and `&ProgramTrace` convert implicitly, so
    /// pre-redesign `run(&traces)` call sites compile unchanged.
    pub fn run<'a>(&self, input: impl Into<RunInput<'a>>) -> Result<Prediction, ExtrapError> {
        match input.into() {
            RunInput::Traces(traces) => engine::run(traces, &self.params),
            RunInput::Compiled(program) => engine::run_compiled(program, &self.params),
            RunInput::CompiledScratch { program, scratch } => {
                engine::run_compiled_scratch(program, &self.params, scratch)
            }
            RunInput::Program(trace) => {
                let set = extrap_trace::translate(trace, self.translate)?;
                engine::run(&set, &self.params)
            }
        }
    }

    /// Extrapolates an already-compiled program.
    ///
    /// Deprecated-by-doc: prefer `run(&program)` (or
    /// [`RunInput::Compiled`]); this wrapper remains for migration only.
    pub fn run_compiled(&self, program: &CompiledProgram) -> Result<Prediction, ExtrapError> {
        self.run(program)
    }

    /// Like [`run_compiled`](Extrapolator::run_compiled), reusing the
    /// caller's scratch buffers.
    ///
    /// Deprecated-by-doc: prefer `run(RunInput::CompiledScratch { .. })`;
    /// this wrapper remains for migration only.
    pub fn run_compiled_scratch(
        &self,
        program: &CompiledProgram,
        scratch: &mut SimScratch,
    ) -> Result<Prediction, ExtrapError> {
        self.run(RunInput::CompiledScratch { program, scratch })
    }

    /// Translates a raw 1-processor program trace with the session's
    /// [`TranslateOptions`] and extrapolates it.
    ///
    /// Deprecated-by-doc: prefer `run(&trace)` (or
    /// [`RunInput::Program`]); this wrapper remains for migration only.
    pub fn run_program(&self, trace: &ProgramTrace) -> Result<Prediction, ExtrapError> {
        self.run(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine;
    use extrap_time::DurationNs;
    use extrap_trace::PhaseProgram;

    fn program() -> ProgramTrace {
        let mut p = PhaseProgram::new(4);
        p.push_uniform_phase(DurationNs::from_us(50.0));
        p.push_uniform_phase(DurationNs::from_us(50.0));
        p.record()
    }

    #[test]
    fn builder_matches_hand_built_params() {
        let pt = program();
        let mut params = machine::cm5();
        params.policy = ServicePolicy::NoInterrupt;
        params.mips_ratio = 2.0;
        let by_hand = crate::extrapolate_program(&pt, TranslateOptions::default(), &params)
            .unwrap()
            .exec_time();
        let by_builder = Extrapolator::new(machine::cm5())
            .policy(ServicePolicy::NoInterrupt)
            .mips_ratio(2.0)
            .run_program(&pt)
            .unwrap()
            .exec_time();
        assert_eq!(by_hand, by_builder);
    }

    #[test]
    fn translate_options_flow_into_run_program() {
        let noisy = pt_with_overhead();
        let compensated = Extrapolator::new(machine::ideal())
            .translate_options(TranslateOptions {
                event_overhead: DurationNs::from_us(5.0),
                switch_overhead: DurationNs::ZERO,
            })
            .run_program(&noisy)
            .unwrap();
        let raw = Extrapolator::new(machine::ideal())
            .run_program(&noisy)
            .unwrap();
        assert!(compensated.exec_time() < raw.exec_time());
    }

    fn pt_with_overhead() -> ProgramTrace {
        // A phase program records zero overhead itself; emulate intrusion
        // by declaring it at translation time on a padded program.
        let mut p = PhaseProgram::new(2);
        for _ in 0..4 {
            p.push_uniform_phase(DurationNs::from_us(100.0));
        }
        p.record()
    }

    #[test]
    fn with_params_edits_arbitrary_fields() {
        let session = Extrapolator::new(machine::default_distributed())
            .with_params(|p| p.barrier.msg_size = 99);
        assert_eq!(session.params().barrier.msg_size, 99);
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
        // The deprecated-doc'd wrappers stay behaviour-identical.
        assert_eq!(
            session.run_compiled(&compiled).unwrap().exec_time(),
            via_compiled.exec_time()
        );
        assert_eq!(
            session.run_program(&pt).unwrap().exec_time(),
            via_program.exec_time()
        );
    }

    #[test]
    fn run_equals_free_function() {
        let pt = program();
        let ts = extrap_trace::translate(&pt, TranslateOptions::default()).unwrap();
        let params = machine::default_distributed();
        let a = Extrapolator::new(params.clone()).run(&ts).unwrap();
        let b = crate::extrapolate(&ts, &params).unwrap();
        assert_eq!(a.exec_time(), b.exec_time());
        assert_eq!(a.predicted, b.predicted);
    }
}
