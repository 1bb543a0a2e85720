//! Diagnostics: stable codes, severities, spans, and the report container.
//!
//! Codes are **stable identifiers**: once shipped, a code never changes
//! meaning, so scripts can match on `E005` forever.  Errors (`E0xx`)
//! mean the input cannot be trusted by the extrapolation pipeline;
//! warnings (`W0xx`) flag suspicious-but-legal constructs.

use extrap_time::ThreadId;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but not fatal; extrapolation proceeds.
    Warning,
    /// The input violates an invariant the pipeline relies on.
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Every diagnostic the linter can emit, by stable code.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Code {
    /// Global timestamps go backwards in a 1-processor program trace.
    E001GlobalTimeRegression,
    /// Per-thread timestamps go backwards in a translated trace.
    E002ThreadTimeRegression,
    /// A record references a thread id outside `0..n_threads`.
    E003BadThreadId,
    /// Barrier entry/exit protocol violated within one thread (exit
    /// without entry, nested entry, mismatched ids, entry never exited).
    E004BarrierProtocol,
    /// Threads disagree on the barrier sequence — with global barriers
    /// this is a static deadlock (some thread waits forever).
    E005BarrierMismatch,
    /// A remote access references an element whose owner is out of range
    /// or inconsistent with other accesses to the same element.
    E006DanglingElement,
    /// A remote write is concurrent (same barrier epoch, no
    /// happens-before edge) with another thread's access to the same
    /// element — translation does not preserve causality (§5).
    E007CausalityViolation,
    /// A simulation parameter is out of its legal range.
    E008ParamOutOfRange,
    /// A thread trace is stored at the wrong position in a trace set.
    E009MisplacedThread,
    /// Threads disagree on the phase-marker sequence.
    W001MarkerMismatch,
    /// A thread remote-accesses an element it owns itself.
    W002SelfRemoteAccess,
    /// A thread's event stream is missing its begin/end frame.
    W003MissingThreadFrame,
    /// A parameter combination is legal but probably not intended.
    W004ParamSuspicious,
}

impl Code {
    /// The stable code string (`E001`, `W004`, …).
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::E001GlobalTimeRegression => "E001",
            Code::E002ThreadTimeRegression => "E002",
            Code::E003BadThreadId => "E003",
            Code::E004BarrierProtocol => "E004",
            Code::E005BarrierMismatch => "E005",
            Code::E006DanglingElement => "E006",
            Code::E007CausalityViolation => "E007",
            Code::E008ParamOutOfRange => "E008",
            Code::E009MisplacedThread => "E009",
            Code::W001MarkerMismatch => "W001",
            Code::W002SelfRemoteAccess => "W002",
            Code::W003MissingThreadFrame => "W003",
            Code::W004ParamSuspicious => "W004",
        }
    }

    /// The severity class encoded in the code's first letter.
    pub fn severity(&self) -> Severity {
        if self.as_str().starts_with('E') {
            Severity::Error
        } else {
            Severity::Warning
        }
    }

    /// A short human title for the code (used by `--explain`-style docs).
    pub fn title(&self) -> &'static str {
        match self {
            Code::E001GlobalTimeRegression => "global timestamp regression",
            Code::E002ThreadTimeRegression => "per-thread timestamp regression",
            Code::E003BadThreadId => "thread id out of range",
            Code::E004BarrierProtocol => "barrier protocol violation",
            Code::E005BarrierMismatch => "cross-thread barrier mismatch (static deadlock)",
            Code::E006DanglingElement => "dangling element reference",
            Code::E007CausalityViolation => "causality violation",
            Code::E008ParamOutOfRange => "parameter out of range",
            Code::E009MisplacedThread => "misplaced thread trace",
            Code::W001MarkerMismatch => "phase-marker mismatch",
            Code::W002SelfRemoteAccess => "remote access to own element",
            Code::W003MissingThreadFrame => "missing thread begin/end frame",
            Code::W004ParamSuspicious => "suspicious parameter combination",
        }
    }

    /// Parses a stable code string (`E001`, `w003`, …), case-insensitively.
    pub fn parse(s: &str) -> Option<Code> {
        Code::all()
            .iter()
            .copied()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// True when `extrap lint --fix` can mechanically repair this
    /// diagnostic (see [`crate::fix`]).  The rest are unfixable: the
    /// trace records evidence of a real program defect (`E004`, `E005`,
    /// `E007`) or an ambiguity with no safe resolution (`E009`), and
    /// parameter diagnostics (`E008`, `W004`) have no trace to rewrite.
    pub fn fixable(&self) -> bool {
        matches!(
            self,
            Code::E001GlobalTimeRegression
                | Code::E002ThreadTimeRegression
                | Code::E003BadThreadId
                | Code::E006DanglingElement
                | Code::W003MissingThreadFrame
        )
    }

    /// Every code, in code order (for docs and exhaustive tests).
    pub fn all() -> &'static [Code] {
        &[
            Code::E001GlobalTimeRegression,
            Code::E002ThreadTimeRegression,
            Code::E003BadThreadId,
            Code::E004BarrierProtocol,
            Code::E005BarrierMismatch,
            Code::E006DanglingElement,
            Code::E007CausalityViolation,
            Code::E008ParamOutOfRange,
            Code::E009MisplacedThread,
            Code::W001MarkerMismatch,
            Code::W002SelfRemoteAccess,
            Code::W003MissingThreadFrame,
            Code::W004ParamSuspicious,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the input a diagnostic points.
///
/// Trace "source locations" are record indices: for program traces the
/// index is into the global stream, for trace sets it is into the named
/// thread's stream.  Parameter diagnostics carry neither.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// The thread involved, if any.
    pub thread: Option<ThreadId>,
    /// The record index the diagnostic anchors to, if any.
    pub record: Option<usize>,
}

impl Span {
    /// A span with no location (whole-input diagnostics).
    pub fn none() -> Span {
        Span::default()
    }

    /// A span naming only a thread.
    pub fn thread(thread: ThreadId) -> Span {
        Span {
            thread: Some(thread),
            record: None,
        }
    }

    /// A span naming a thread and a record index within its stream.
    pub fn at(thread: ThreadId, record: usize) -> Span {
        Span {
            thread: Some(thread),
            record: Some(record),
        }
    }

    /// A span naming only a record index (global program stream).
    pub fn record(record: usize) -> Span {
        Span {
            thread: None,
            record: Some(record),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.thread, self.record) {
            (Some(t), Some(r)) => write!(f, "{t}, record {r}"),
            (Some(t), None) => write!(f, "{t}"),
            (None, Some(r)) => write!(f, "record {r}"),
            (None, None) => Ok(()),
        }
    }
}

/// One finding: a code, where it points, and a rendered message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Location in the input.
    pub span: Span,
    /// Human-readable description of this specific instance.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.code.severity().label(),
            self.code,
            self.message
        )?;
        let loc = self.span.to_string();
        if !loc.is_empty() {
            write!(f, " ({loc})")?;
        }
        Ok(())
    }
}

/// The outcome of a lint run: all diagnostics, in emission order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Report {
    /// Everything the checks found.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic::new(code, span, message));
    }

    /// Merges another report's diagnostics into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True when at least one error was found.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// True when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics carrying the given code.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_classified() {
        assert_eq!(Code::E005BarrierMismatch.as_str(), "E005");
        assert_eq!(Code::E005BarrierMismatch.severity(), Severity::Error);
        assert_eq!(Code::W002SelfRemoteAccess.severity(), Severity::Warning);
        for c in Code::all() {
            assert_eq!(c.severity() == Severity::Error, c.as_str().starts_with('E'));
            assert!(!c.title().is_empty());
        }
    }

    #[test]
    fn report_counts_by_severity() {
        let mut r = Report::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Code::W001MarkerMismatch, Span::none(), "w");
        assert!(!r.is_clean() && !r.has_errors());
        r.push(Code::E001GlobalTimeRegression, Span::record(3), "e");
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
    }

    #[test]
    fn diagnostic_display_includes_code_and_span() {
        let d = Diagnostic::new(
            Code::E004BarrierProtocol,
            Span::at(ThreadId(1), 5),
            "exit without entry",
        );
        assert_eq!(
            d.to_string(),
            "error[E004]: exit without entry (T1, record 5)"
        );
    }
}
