//! Declarative flag parsing shared by every `extrap` subcommand.
//!
//! Each subcommand builds an [`ArgSpec`], pulls its flags out by name,
//! and finishes with [`ArgSpec::finish`]/[`ArgSpec::finish_exact`] to
//! collect positionals.  Finishing rejects any flag-looking token that
//! no one claimed with an error that names the subcommand — previously
//! a typo like `--shceduler` silently became a positional argument and
//! surfaced as a confusing usage error (or worse, was ignored).
//!
//! Taking a flag also *registers* it, so by finish time the spec knows
//! the subcommand's complete flag set.  `--help`/`-h` (stripped at
//! construction) turns [`finish`](ArgSpec::finish) into a generated
//! help listing of exactly those flags — help can never drift from the
//! parser because they are the same declaration.

/// One registered flag: what the subcommand asked for while parsing.
struct FlagInfo {
    flag: String,
    takes_value: bool,
    /// Accepted spellings, for enumerated flags (`"text, json, csv"`).
    valid: Option<String>,
}

/// The argument cursor for one subcommand invocation.
pub struct ArgSpec {
    cmd: &'static str,
    args: Vec<String>,
    help: bool,
    flags: Vec<FlagInfo>,
}

impl ArgSpec {
    /// Wraps a subcommand's raw arguments.  `cmd` is the name used in
    /// diagnostics (`"sweep"`, `"client sweep"`, ...).  `--help`/`-h`
    /// anywhere in `args` is claimed here; the spec then renders
    /// generated help at finish time instead of parsing positionals.
    pub fn new(cmd: &'static str, args: Vec<String>) -> ArgSpec {
        let mut args = args;
        let before = args.len();
        args.retain(|a| a != "--help" && a != "-h");
        ArgSpec {
            cmd,
            help: args.len() != before,
            args,
            flags: Vec::new(),
        }
    }

    /// The subcommand name this spec reports in errors.
    pub fn cmd(&self) -> &'static str {
        self.cmd
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

    /// Takes `--flag VALUE` (at most one occurrence).
    pub fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        self.register(flag, true);
        if let Some(pos) = self.args.iter().position(|a| a == flag) {
            if pos + 1 >= self.args.len() {
                return Err(format!("{}: {flag} needs a value", self.cmd));
            }
            let value = self.args.remove(pos + 1);
            self.args.remove(pos);
            Ok(Some(value))
        } else {
            Ok(None)
        }
    }

    /// Takes every occurrence of `--flag VALUE`, in order.
    pub fn values(&mut self, flag: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        while let Some(v) = self.value(flag)? {
            out.push(v);
        }
        Ok(out)
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
        T::Err: std::fmt::Display,
    {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| format!("{}: bad {flag} value {v:?}: {e}", self.cmd)),
        }
    }

    /// Takes an enum-valued `--flag VALUE` where `parse` maps accepted
    /// spellings (including attached-parameter forms like `repr:32` or
    /// `tree:4`) to the enum.  A value `parse` rejects produces one
    /// uniform error listing the `valid` spellings, so subcommands stop
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
                .ok_or_else(|| format!("{}: bad {flag} value {v:?} (valid: {valid})", self.cmd)),
        }
    }

    /// Takes `--flag N` requiring `N >= 1` (worker counts and friends).
    pub fn positive(&mut self, flag: &str) -> Result<Option<usize>, String> {
        match self.parsed::<usize>(flag)? {
            Some(0) => Err(format!("{}: {flag} needs a positive integer", self.cmd)),
            other => Ok(other),
        }
    }

    /// The generated `--help` text: the subcommand's registered flags,
    /// in registration (i.e. declaration) order.
    fn render_help(&self) -> String {
        let mut out = format!("usage: extrap {} — flags:\n", self.cmd);
        for f in &self.flags {
            match (&f.valid, f.takes_value) {
                (Some(valid), _) => {
                    out.push_str(&format!("  {} VALUE   (one of: {valid})\n", f.flag))
                }
                (None, true) => out.push_str(&format!("  {} VALUE\n", f.flag)),
                (None, false) => out.push_str(&format!("  {}\n", f.flag)),
            }
        }
        out.push_str("run `extrap help` for full usage lines");
        out
    }

    /// The remaining positional arguments, after rejecting any
    /// unclaimed flag-looking token by name.  If `--help` was passed,
    /// prints the generated flag listing and exits successfully — by
    /// this point every flag the subcommand understands is registered.
    pub fn finish(self) -> Result<Vec<String>, String> {
        if self.help {
            outln!("{}", self.render_help());
            std::process::exit(0);
        }
        if let Some(flag) = self.args.iter().find(|a| a.starts_with('-') && a.len() > 1) {
            return Err(format!(
                "{}: unknown flag {flag:?}; try `extrap help`",
                self.cmd
            ));
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
        ArgSpec::new("demo", args.iter().map(|s| s.to_string()).collect())
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
    }

    #[test]
    fn unknown_flag_is_rejected_by_name() {
        let s = spec(&["file", "--shceduler", "heap"]);
        let err = s.finish().unwrap_err();
        assert!(
            err.starts_with("demo: unknown flag \"--shceduler\""),
            "{err}"
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
        assert!(help.contains("--jobs VALUE"), "{help}");
        assert!(
            help.contains("--format VALUE   (one of: text, json)"),
            "{help}"
        );
        assert!(help.contains("  --csv\n"), "{help}");
        // `-h` is equivalent and never reaches positional parsing.
        let s = spec(&["-h"]);
        assert!(s.help);
    }

    #[test]
    fn finish_exact_reports_usage() {
        let s = spec(&["a", "b"]);
        assert_eq!(
            s.finish_exact::<1>("extrap demo FILE").unwrap_err(),
            "usage: extrap demo FILE"
        );
    }
}
