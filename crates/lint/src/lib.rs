#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # extrap-lint — static trace/model verification
//!
//! The extrapolation pipeline trusts its inputs: a corrupted trace or a
//! nonsensical machine description does not crash the simulator, it
//! produces confidently wrong predictions.  This crate closes that gap
//! with a registry of **static passes** run over traces and parameter
//! sets *before* simulation:
//!
//! * [`passes::WellFormedness`] — monotone timestamps, valid thread
//!   ids, matched barrier entry/exit, balanced phase markers, remote
//!   accesses referencing valid and consistently-owned elements;
//! * [`passes::TranslationSoundness`] — cross-thread barrier agreement
//!   (static deadlock detection) and a vector-clock happens-before
//!   check that the §3.2 translation preserves causality (the §5
//!   determinism analysis as a race detector);
//! * [`passes::ModelSanity`] — parameter ranges and
//!   topology/contention consistency on [`SimParams`].
//!
//! Findings are [`Diagnostic`]s with **stable codes** (`E001`–`E009`,
//! `W001`–`W004`; see [`Code`]), rendered as compiler-style text or
//! JSON ([`render`]).  The `extrap lint` subcommand drives this crate
//! from the command line; [`validate_set`] plugs it into
//! [`SharedTraceCache`]'s opt-in validate-on-translate hook.
//!
//! [`SharedTraceCache`]: extrap_core::SharedTraceCache

pub mod diag;
pub mod fix;
pub mod passes;
pub mod render;
pub mod stream;

pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use fix::{fix_program, fix_set, FixNote, FixOutcome};
pub use passes::{ModelSanity, Pass, Target, TranslationSoundness, WellFormedness};
pub use render::{render_json, render_text, summary_line};
pub use stream::{
    lint_program_stream, lint_set_stream, lint_trace_file, SoundnessStream, StreamLinter,
    WellFormedStream,
};

use extrap_core::SimParams;
use extrap_trace::{ProgramTrace, TraceSet};

/// A configured sequence of lint passes.
///
/// [`Linter::new`] registers the full default registry; [`with_pass`]
/// appends custom passes.  Every pass sees every target and contributes
/// to one combined [`Report`], so a single run diagnoses everything at
/// once rather than stopping at the first problem (the difference
/// between this crate and the `validate()` methods it subsumes).
///
/// [`with_pass`]: Linter::with_pass
pub struct Linter {
    passes: Vec<Box<dyn Pass>>,
}

impl Linter {
    /// A linter with the default pass registry.
    pub fn new() -> Linter {
        Linter {
            passes: vec![
                Box::new(WellFormedness),
                Box::new(TranslationSoundness),
                Box::new(ModelSanity),
            ],
        }
    }

    /// Appends a custom pass to the registry.
    pub fn with_pass(mut self, pass: Box<dyn Pass>) -> Linter {
        self.passes.push(pass);
        self
    }

    /// The registered pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass over one target.
    pub fn run(&self, target: &Target<'_>) -> Report {
        let mut report = Report::new();
        for pass in &self.passes {
            pass.run(target, &mut report);
        }
        report
    }

    /// Lints a 1-processor program trace.
    pub fn lint_program(&self, trace: &ProgramTrace) -> Report {
        self.run(&Target::Program(trace))
    }

    /// Lints a translated trace set.
    pub fn lint_set(&self, set: &TraceSet) -> Report {
        self.run(&Target::Set(set))
    }

    /// Lints a simulation parameter set.
    pub fn lint_params(&self, params: &SimParams) -> Report {
        self.run(&Target::Params(params))
    }
}

impl Default for Linter {
    fn default() -> Linter {
        Linter::new()
    }
}

/// Lints a program trace with the default registry.
pub fn lint_program(trace: &ProgramTrace) -> Report {
    Linter::new().lint_program(trace)
}

/// Lints a trace set with the default registry.
pub fn lint_set(set: &TraceSet) -> Report {
    Linter::new().lint_set(set)
}

/// Lints a parameter set with the default registry.
pub fn lint_params(params: &SimParams) -> Report {
    Linter::new().lint_params(params)
}

/// Validate-on-translate adapter for trace sets, matching the
/// [`extrap_core::TraceValidator`] hook signature (install with
/// [`extrap_core::SharedTraceCache::with_validator`]): `Err` with the
/// rendered error diagnostics when the default registry finds any.
/// Warnings do not fail the check.
pub fn validate_set(set: &TraceSet) -> Result<(), String> {
    let report = lint_set(set);
    if report.has_errors() {
        Err(render::render_errors(&report))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::DurationNs;
    use extrap_trace::{translate, PhaseProgram};

    fn clean_program(n: usize) -> ProgramTrace {
        let mut p = PhaseProgram::new(n);
        p.push_uniform_phase(DurationNs::from_us(100.0));
        p.push_uniform_phase(DurationNs::from_us(40.0));
        p.record()
    }

    #[test]
    fn default_registry_runs_all_passes() {
        let names = Linter::new().pass_names();
        assert_eq!(
            names,
            ["well-formedness", "translation-soundness", "model-sanity"]
        );
    }

    #[test]
    fn clean_inputs_lint_clean() {
        let pt = clean_program(4);
        assert!(lint_program(&pt).is_clean());
        let ts = translate(&pt, Default::default()).unwrap();
        assert!(lint_set(&ts).is_clean());
        assert!(lint_params(&SimParams::default()).is_clean());
    }

    #[test]
    fn validators_pass_clean_and_reject_corrupt() {
        let ts = translate(&clean_program(2), Default::default()).unwrap();
        assert!(validate_set(&ts).is_ok());

        // Drop thread 1's barriers: a static deadlock (E005).
        let mut bad = ts.clone();
        bad.threads[1].records.retain(|r| !r.kind.is_sync());
        let detail = validate_set(&bad).unwrap_err();
        assert!(detail.contains("E005"), "got: {detail}");
    }

    #[test]
    fn custom_pass_extends_registry() {
        struct Nag;
        impl Pass for Nag {
            fn name(&self) -> &'static str {
                "nag"
            }
            fn run(&self, _target: &Target<'_>, report: &mut Report) {
                report.push(Code::W004ParamSuspicious, Span::none(), "nag");
            }
        }
        let linter = Linter::new().with_pass(Box::new(Nag));
        let report = linter.lint_params(&SimParams::default());
        assert_eq!(report.warning_count(), 1);
    }
}
