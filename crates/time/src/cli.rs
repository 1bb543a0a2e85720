//! The command-line front end every binary and bench target shares:
//! declarative flag parsing ([`ArgSpec`]), the stdout writer behind
//! [`out!`](crate::out)/[`outln!`](crate::outln), and [`json_escape`]
//! for hand-rolled JSON output.
//!
//! A command builds an [`ArgSpec`], pulls its flags out by name, and
//! finishes with [`ArgSpec::finish`]/[`ArgSpec::finish_exact`] to
//! collect positionals.  Finishing rejects any flag-looking token that
//! no one claimed with an error that names it, so a typo like
//! `--shceduler` can neither become a positional argument nor be
//! ignored.
//!
//! Taking a flag also *registers* it, so by finish time the spec knows
//! the command's complete flag set.  `--help`/`-h` (stripped at
//! construction) turns [`finish`](ArgSpec::finish) into a generated
//! help listing of exactly those flags — help can never drift from the
//! parser because they are the same declaration.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};

/// `print!` for command output; see [`print_out`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::print_out(format_args!($($arg)*))
    };
}

/// `println!` for command output; see [`print_out`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::print_out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::print_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Set once stdout's reader has closed the pipe.
static STDOUT_GONE: AtomicBool = AtomicBool::new(false);

/// Writes command output to stdout.  A reader that closed the pipe
/// early (`extrap simulate FILE | head -c1`) has all it wanted, so on a
/// broken pipe this output and all later output is dropped, rather than
/// raising the panic `print!` would.  The command still runs to the
/// end: it writes its files, and its verdict sets the exit status.
pub fn print_out(args: fmt::Arguments) {
    use std::io::Write as _;
    if STDOUT_GONE.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
        STDOUT_GONE.store(true, Ordering::Relaxed);
    }
}

/// `s` as the body of a JSON string literal, escaped per RFC 8259
/// (quotes, backslash, control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One registered flag: what the command asked for while parsing.
struct FlagInfo {
    flag: String,
    takes_value: bool,
    /// Accepted spellings, for enumerated flags (`"text, json, csv"`).
    valid: Option<String>,
}

/// The argument cursor for one command invocation.
pub struct ArgSpec {
    program: String,
    cmd: &'static str,
    args: Vec<String>,
    help: bool,
    about: Option<String>,
    flags: Vec<FlagInfo>,
}

impl ArgSpec {
    /// Wraps a command's raw arguments.  `program` is how the user runs
    /// it (`"extrap"`, `"extrap-exp"`); `cmd` is the subcommand named in
    /// diagnostics (`"sweep"`, `"client sweep"`), or empty for a
    /// program without subcommands.  A program with subcommands points
    /// users at `PROGRAM help`, any other at `PROGRAM --help`.
    /// `--help`/`-h` anywhere in `args` is claimed here; the spec then
    /// renders generated help at finish time instead of parsing
    /// positionals.
    pub fn new(program: impl Into<String>, cmd: &'static str, args: Vec<String>) -> ArgSpec {
        let mut args = args;
        let before = args.len();
        args.retain(|a| a != "--help" && a != "-h");
        ArgSpec {
            program: program.into(),
            cmd,
            help: args.len() != before,
            args,
            about: None,
            flags: Vec::new(),
        }
    }

    /// Replaces the closing paragraph of the generated help (for
    /// subcommands, a pointer to the program's full usage).
    pub fn about(&mut self, text: String) {
        self.about = Some(text);
    }

    /// The subcommand name this spec reports in errors.
    pub fn cmd(&self) -> &'static str {
        self.cmd
    }

    /// `message`, attributed to the subcommand when there is one.
    fn error(&self, message: String) -> String {
        if self.cmd.is_empty() {
            message
        } else {
            format!("{}: {message}", self.cmd)
        }
    }

    fn register(&mut self, flag: &str, takes_value: bool) {
        if !self.flags.iter().any(|f| f.flag == flag) {
            self.flags.push(FlagInfo {
                flag: flag.to_string(),
                takes_value,
                valid: None,
            });
        }
    }

    /// Takes `--flag VALUE`; a second occurrence is an error naming
    /// the flag.
    pub fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let value = self.take_value(flag)?;
        if value.is_some() && self.args.iter().any(|a| a == flag) {
            return Err(self.error(format!("{flag} given more than once")));
        }
        Ok(value)
    }

    /// Takes every occurrence of `--flag VALUE`, in order.
    pub fn values(&mut self, flag: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        while let Some(v) = self.take_value(flag)? {
            out.push(v);
        }
        Ok(out)
    }

    /// Takes the first occurrence of `--flag VALUE`.
    fn take_value(&mut self, flag: &str) -> Result<Option<String>, String> {
        self.register(flag, true);
        if let Some(pos) = self.args.iter().position(|a| a == flag) {
            if pos + 1 >= self.args.len() {
                return Err(self.error(format!("{flag} needs a value")));
            }
            let value = self.args.remove(pos + 1);
            self.args.remove(pos);
            Ok(Some(value))
        } else {
            Ok(None)
        }
    }

    /// Takes a boolean `--flag`; returns whether it was present.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.register(flag, false);
        if let Some(pos) = self.args.iter().position(|a| a == flag) {
            self.args.remove(pos);
            true
        } else {
            false
        }
    }

    /// Takes `--flag VALUE` and parses it, attributing parse failures
    /// to the flag and subcommand.
    pub fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: fmt::Display,
    {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| self.error(format!("bad {flag} value {v:?}: {e}"))),
        }
    }

    /// Takes an enum-valued `--flag VALUE` where `parse` maps accepted
    /// spellings (including attached-parameter forms like `repr:32` or
    /// `tree:4`) to the enum.  A value `parse` rejects produces one
    /// uniform error listing the `valid` spellings, so commands stop
    /// hand-rolling value syntax and diverging diagnostics.
    pub fn enumerated<T>(
        &mut self,
        flag: &str,
        valid: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let taken = self.value(flag);
        if let Some(info) = self.flags.iter_mut().find(|f| f.flag == flag) {
            info.valid = Some(valid.to_string());
        }
        match taken? {
            None => Ok(None),
            Some(v) => parse(&v)
                .map(Some)
                .ok_or_else(|| self.error(format!("bad {flag} value {v:?} (valid: {valid})"))),
        }
    }

    /// Takes `--flag N` requiring `N >= 1` (worker counts and friends).
    pub fn positive(&mut self, flag: &str) -> Result<Option<usize>, String> {
        match self.parsed::<usize>(flag)? {
            Some(0) => Err(self.error(format!("{flag} needs a positive integer"))),
            other => Ok(other),
        }
    }

    /// The command that prints full usage.
    fn usage_hint(&self) -> String {
        if self.cmd.is_empty() {
            format!("{} --help", self.program)
        } else {
            format!("{} help", self.program)
        }
    }

    /// The generated `--help` text: the command's registered flags, in
    /// registration (i.e. declaration) order, then the closing
    /// paragraph.
    fn render_help(&self) -> String {
        let mut out = if self.cmd.is_empty() {
            format!("usage: {} — flags:\n", self.program)
        } else {
            format!("usage: {} {} — flags:\n", self.program, self.cmd)
        };
        for f in &self.flags {
            match (&f.valid, f.takes_value) {
                (Some(valid), _) => {
                    let _ = writeln!(out, "  {} VALUE   (one of: {valid})", f.flag);
                }
                (None, true) => {
                    let _ = writeln!(out, "  {} VALUE", f.flag);
                }
                (None, false) => {
                    let _ = writeln!(out, "  {}", f.flag);
                }
            }
        }
        match &self.about {
            Some(about) => out.push_str(about),
            None if !self.cmd.is_empty() => {
                let _ = write!(out, "run `{}` for full usage lines", self.usage_hint());
            }
            None => {
                out.pop();
            }
        }
        out
    }

    /// The remaining positional arguments, after rejecting any
    /// unclaimed flag-looking token by name.  If `--help` was passed,
    /// prints the generated flag listing and exits successfully — by
    /// this point every flag the command understands is registered.
    pub fn finish(self) -> Result<Vec<String>, String> {
        if self.help {
            outln!("{}", self.render_help());
            std::process::exit(0);
        }
        if let Some(flag) = self.args.iter().find(|a| a.starts_with('-') && a.len() > 1) {
            let hint = self.usage_hint();
            return Err(self.error(format!("unknown flag {flag:?}; try `{hint}`")));
        }
        Ok(self.args)
    }

    /// Exactly `N` positionals, or the given usage line.
    pub fn finish_exact<const N: usize>(self, usage: &str) -> Result<[String; N], String> {
        self.finish()?
            .try_into()
            .map_err(|_| format!("usage: {usage}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(args: &[&str]) -> ArgSpec {
        ArgSpec::new("prog", "demo", args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn value_and_switch_and_positionals() {
        let mut s = spec(&["input.xtps", "--jobs", "4", "--csv"]);
        assert_eq!(s.value("--jobs").unwrap().as_deref(), Some("4"));
        assert!(s.switch("--csv"));
        assert!(!s.switch("--csv"));
        assert_eq!(s.finish().unwrap(), vec!["input.xtps".to_string()]);
    }

    #[test]
    fn values_takes_every_occurrence_in_order() {
        let mut s = spec(&["--set", "a=1", "x", "--set", "b=2"]);
        assert_eq!(s.values("--set").unwrap(), vec!["a=1", "b=2"]);
        assert_eq!(s.finish().unwrap(), vec!["x".to_string()]);
    }

    #[test]
    fn missing_value_names_the_subcommand() {
        let mut s = spec(&["--jobs"]);
        assert_eq!(s.value("--jobs").unwrap_err(), "demo: --jobs needs a value");
        // A repeated single-value flag is named as such, not as unknown.
        let mut s = spec(&["--scale", "tiny", "--scale", "small"]);
        assert_eq!(
            s.value("--scale").unwrap_err(),
            "demo: --scale given more than once"
        );
    }

    #[test]
    fn unknown_flag_is_rejected_by_name() {
        let s = spec(&["file", "--shceduler", "heap"]);
        assert_eq!(
            s.finish().unwrap_err(),
            "demo: unknown flag \"--shceduler\"; try `prog help`"
        );
        // A program without subcommands points at its own `--help`.
        let s = ArgSpec::new("tool", "", vec!["--sclae".to_string()]);
        assert_eq!(
            s.finish().unwrap_err(),
            "unknown flag \"--sclae\"; try `tool --help`"
        );
    }

    #[test]
    fn parsed_attributes_failures() {
        let mut s = spec(&["--jobs", "many"]);
        let err = s.parsed::<usize>("--jobs").unwrap_err();
        assert!(err.contains("demo") && err.contains("--jobs"), "{err}");
        let mut s = spec(&["--jobs", "0"]);
        assert!(s.positive("--jobs").unwrap_err().contains("positive"));
    }

    #[test]
    fn enumerated_parses_attached_parameters() {
        #[derive(Debug, PartialEq)]
        enum Mode {
            Plain,
            Sized(u32),
        }
        let parse = |v: &str| match v {
            "plain" => Some(Mode::Plain),
            other => other.strip_prefix("sized:")?.parse().ok().map(Mode::Sized),
        };
        let mut s = spec(&["--mode", "sized:32"]);
        assert_eq!(
            s.enumerated("--mode", "plain, sized:N", parse).unwrap(),
            Some(Mode::Sized(32))
        );
        let mut s = spec(&["--mode", "sized:many"]);
        let err = s.enumerated("--mode", "plain, sized:N", parse).unwrap_err();
        assert_eq!(
            err,
            "demo: bad --mode value \"sized:many\" (valid: plain, sized:N)"
        );
        let mut s = spec(&[]);
        assert_eq!(
            s.enumerated("--mode", "plain, sized:N", parse).unwrap(),
            None
        );
    }

    #[test]
    fn help_is_stripped_and_lists_every_taken_flag() {
        let mut s = spec(&["--help", "file"]);
        assert!(s.help, "--help must be claimed at construction");
        let _ = s.value("--jobs");
        let _ = s.enumerated("--format", "text, json", |_| Some(()));
        s.switch("--csv");
        let help = s.render_help();
        assert!(help.starts_with("usage: prog demo — flags:\n"), "{help}");
        assert!(help.contains("--jobs VALUE"), "{help}");
        assert!(
            help.contains("--format VALUE   (one of: text, json)"),
            "{help}"
        );
        assert!(help.contains("  --csv\n"), "{help}");
        assert!(help.ends_with("run `prog help` for full usage lines"));
        // `-h` is equivalent and never reaches positional parsing.
        let s = spec(&["-h"]);
        assert!(s.help);
    }

    #[test]
    fn about_closes_the_help() {
        let mut s = ArgSpec::new("tool", "", vec!["-h".to_string()]);
        s.switch("--quick");
        assert_eq!(s.render_help(), "usage: tool — flags:\n  --quick");
        s.about("targets: a, b".to_string());
        assert_eq!(
            s.render_help(),
            "usage: tool — flags:\n  --quick\ntargets: a, b"
        );
    }

    #[test]
    fn finish_exact_reports_usage() {
        let s = spec(&["a", "b"]);
        assert_eq!(
            s.finish_exact::<1>("extrap demo FILE").unwrap_err(),
            "usage: extrap demo FILE"
        );
    }

    #[test]
    fn json_escape_follows_rfc_8259() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a \"q\" \\ b"), "a \\\"q\\\" \\\\ b");
        assert_eq!(json_escape("l1\nl2\r\t\u{1}"), "l1\\nl2\\r\\t\\u0001");
    }
}
