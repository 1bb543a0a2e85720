//! Report renderers: human text and machine JSON.
//!
//! The JSON form is hand-rolled (the build container has no serde); it
//! emits one object per diagnostic plus summary counts, with full string
//! escaping, so `extrap lint --format json` can feed CI tooling.

use crate::diag::{Diagnostic, Report};
use extrap_time::json_escape;
use std::fmt::Write;

/// Renders the report as compiler-style text, one line per diagnostic,
/// followed by a summary line.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(out, "{d}");
    }
    let _ = writeln!(out, "{}", summary_line(report));
    out
}

/// The one-line summary (`3 errors, 1 warning` / `clean`).
pub fn summary_line(report: &Report) -> String {
    if report.is_clean() {
        return "clean: no diagnostics".to_string();
    }
    let (e, w) = (report.error_count(), report.warning_count());
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    match (e, w) {
        (0, w) => format!("{w} warning{}", plural(w)),
        (e, 0) => format!("{e} error{}", plural(e)),
        (e, w) => format!("{e} error{}, {w} warning{}", plural(e), plural(w)),
    }
}

/// A compact summary of the errors only — the rejection detail of
/// [`crate::validate_set`], which callers carry as the
/// `TraceError::Validation` message.
pub(crate) fn render_errors(report: &Report) -> String {
    let lines: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.code.severity() == crate::diag::Severity::Error)
        .map(|d| d.to_string())
        .collect();
    lines.join("; ")
}

/// Renders the report as a single JSON object:
///
/// ```json
/// {"diagnostics":[{"code":"E004","severity":"error","message":"…",
///   "thread":1,"record":5}],"errors":1,"warnings":0}
/// ```
///
/// `thread`/`record` are `null` when the diagnostic has no location.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_diagnostic_json(&mut out, d);
    }
    let _ = write!(
        out,
        "],\"errors\":{},\"warnings\":{}}}",
        report.error_count(),
        report.warning_count()
    );
    out
}

fn write_diagnostic_json(out: &mut String, d: &Diagnostic) {
    out.push_str("{\"code\":\"");
    out.push_str(d.code.as_str());
    out.push_str("\",\"severity\":\"");
    out.push_str(d.code.severity().label());
    out.push_str("\",\"message\":\"");
    out.push_str(&json_escape(&d.message));
    out.push_str("\",\"thread\":");
    match d.span.thread {
        Some(t) => {
            let _ = write!(out, "{}", t.index());
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"record\":");
    match d.span.record {
        Some(r) => {
            let _ = write!(out, "{r}");
        }
        None => out.push_str("null"),
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Code, Span};
    use extrap_time::ThreadId;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(
            Code::E004BarrierProtocol,
            Span::at(ThreadId(1), 5),
            "barrier 2 exited without entry",
        );
        r.push(
            Code::W002SelfRemoteAccess,
            Span::thread(ThreadId(0)),
            "thread reads \"its own\" element",
        );
        r
    }

    #[test]
    fn text_renders_one_line_per_diagnostic_plus_summary() {
        let text = render_text(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("error[E004]:"));
        assert!(lines[1].starts_with("warning[W002]:"));
        assert_eq!(lines[2], "1 error, 1 warning");
    }

    #[test]
    fn clean_report_summary() {
        assert_eq!(summary_line(&Report::new()), "clean: no diagnostics");
        assert!(render_errors(&Report::new()).is_empty());
    }

    #[test]
    fn errors_only_summary_drops_warnings() {
        let s = render_errors(&sample());
        assert!(s.contains("E004"));
        assert!(!s.contains("W002"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let json = render_json(&sample());
        assert!(json.contains("\"code\":\"E004\""));
        assert!(json.contains("\"thread\":1,\"record\":5"));
        assert!(json.contains("\"thread\":0,\"record\":null"));
        assert!(json.contains("\\\"its own\\\""));
        assert!(json.ends_with("\"errors\":1,\"warnings\":1}"));
    }

    #[test]
    fn json_of_empty_report_is_well_formed() {
        assert_eq!(
            render_json(&Report::new()),
            "{\"diagnostics\":[],\"errors\":0,\"warnings\":0}"
        );
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut r = Report::new();
        r.push(Code::E008ParamOutOfRange, Span::none(), "a\nb\u{1}c");
        let json = render_json(&r);
        assert!(json.contains("a\\nb\\u0001c"));
    }
}
