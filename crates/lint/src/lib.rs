#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # extrap-lint — static trace/model verification
//!
//! The extrapolation pipeline trusts its inputs: a corrupted trace or a
//! nonsensical machine description does not crash the simulator, it
//! produces confidently wrong predictions.  This crate closes that gap
//! with static checks run over traces and parameter sets *before*
//! simulation:
//!
//! * **well-formedness** — monotone timestamps, valid thread ids,
//!   matched barrier entry/exit, balanced phase markers, remote
//!   accesses referencing valid and consistently-owned elements;
//! * **translation soundness** — cross-thread barrier agreement
//!   (static deadlock detection) and a vector-clock happens-before
//!   check that the §3.2 translation preserves causality (the §5
//!   determinism analysis as a race detector);
//! * **parameter sanity** — every range rule of
//!   [`SimParams::violations`] as an `E008`, plus the
//!   suspicious-but-legal combinations as `W004`.
//!
//! Both trace families are incremental machines behind one
//! [`StreamLinter`] ([`stream`]); the whole-trace entry points
//! ([`lint_program`], [`lint_set`]) feed it an in-memory trace, so they
//! and the chunked drivers report byte-identically by construction.
//!
//! Findings are [`Diagnostic`]s with **stable codes** (`E001`–`E009`,
//! `W001`–`W004`; see [`Code`]), rendered as compiler-style text or
//! JSON ([`render`]).  The `extrap lint` subcommand drives this crate
//! from the command line; [`validate_set`] is the gate `extrap-exp`
//! runs over every trace it translates.

pub mod diag;
pub mod fix;
pub mod render;
pub mod stream;

pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use fix::{fix_program, fix_set, FixNote, FixOutcome};
pub use render::{render_json, render_text, summary_line};
pub use stream::{lint_program_stream, lint_set_stream, lint_trace_file, StreamLinter};

use extrap_core::{ServicePolicy, SimParams, Topology};
use extrap_trace::{ProgramTrace, TraceSet};

/// Lints a 1-processor program trace.
pub fn lint_program(trace: &ProgramTrace) -> Report {
    let mut lt = StreamLinter::for_program(trace.n_threads);
    for r in &trace.records {
        lt.record(r);
    }
    lt.finish()
}

/// Lints a translated trace set.
pub fn lint_set(set: &TraceSet) -> Report {
    let mut lt = StreamLinter::for_set(set.n_threads());
    for (i, t) in set.threads.iter().enumerate() {
        lt.begin_thread(i, t.thread);
        for r in &t.records {
            lt.record(r);
        }
    }
    lt.finish()
}

/// Lints a parameter set: one `E008` per [`SimParams::violations`]
/// entry (every violation, not just the first, so a config file full of
/// typos is diagnosed in one run), then the `W004` warnings for
/// combinations that parse and validate but almost certainly do not
/// model what the user intended.
pub fn lint_params(p: &SimParams) -> Report {
    let mut report = Report::new();
    for violation in p.violations() {
        report.push(Code::E008ParamOutOfRange, Span::none(), violation);
    }
    let mut warn = |msg: String| report.push(Code::W004ParamSuspicious, Span::none(), msg);
    if p.network.contention.enabled && p.network.contention.alpha == 0.0 {
        warn(
            "contention is enabled but ContentionAlpha = 0 makes it a no-op; \
             disable contention or set a positive alpha"
                .to_string(),
        );
    }
    if p.network.topology == Topology::Bus && !p.network.contention.enabled {
        warn(
            "bus topology with contention disabled models an infinitely scalable \
             shared medium; enable contention for a meaningful bus"
                .to_string(),
        );
    }
    if p.barrier.by_msgs && p.barrier.msg_size == 0 {
        warn(
            "BarrierByMsgs is on but BarrierMsgSize = 0; barrier messages cost \
             startup only, which is rarely intended"
                .to_string(),
        );
    }
    if let ServicePolicy::Poll { interval } = p.policy {
        let per_message = p.comm.receive + p.comm.service;
        if !per_message.is_zero() && interval < per_message {
            warn(format!(
                "poll interval ({} us) is shorter than per-message handling time \
                 ({} us); the processor would spend every chunk servicing messages",
                interval.as_us(),
                per_message.as_us()
            ));
        }
    }
    report
}

/// The trace-set gate: `Err` with the rendered error diagnostics when
/// [`lint_set`] finds any.  Warnings do not fail the check.
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
}
