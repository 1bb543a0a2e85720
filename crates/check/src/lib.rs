#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `extrap-check`: a deterministic schedule-exploration model checker
//! for the pipeline's concurrent core.
//!
//! The simulator's concurrency surface — the shared trace cache, the
//! cancellable sweep pool, the serving daemon's job table — synchronizes
//! exclusively through [`pcpp_rt::sync`].  Under the `model-check`
//! feature those primitives grow a *checked* backend
//! ([`pcpp_rt::chk`]): every lock, condvar and checker-visible atomic
//! operation yields to a cooperative scheduler, so one execution of a
//! scenario is fully described by the sequence of thread ids chosen at
//! each scheduling point.  This crate is the
//! *driver* on top of that runtime: it re-executes a scenario once per
//! schedule, steering each run down a different interleaving, and
//! reports the first schedule (if any) that deadlocks, loses a wakeup,
//! misuses a lock, trips an assertion, or livelocks.
//!
//! Exploration is a depth-first search over schedule prefixes with two
//! classic reductions:
//!
//! * **sleep sets** (Godefroid-style partial-order reduction): once a
//!   thread's continuation from a state has been explored, sibling
//!   branches put it to sleep until a dependent operation runs, so
//!   commuting interleavings are enumerated once;
//! * **iterated preemption bounding** (the CHESS strategy): the search
//!   ladders the involuntary-context-switch budget through
//!   [`BOUND_LADDER`] — most concurrency bugs need only a couple of
//!   preemptions, so shallow rungs find them in seconds while the final
//!   unbounded rung keeps the search complete when the budget allows.
//!
//! Every schedule is a pure function of the SplitMix64 `seed` and the
//! decision string, so a failure is reported as a replayable
//! [`Certificate`] (`scenario:seed:d0.d1.d2...`): feeding it back
//! through [`replay`] — or `extrap check --replay CERT` — reproduces
//! the failing execution byte-identically, turning "flaky hang" into a
//! deterministic unit test.

mod explorer;
pub mod scenarios;

use std::fmt;
use std::str::FromStr;

use pcpp_rt::chk::run_scenario;
pub use pcpp_rt::chk::{
    Candidate, Choice, Failure, FailureKind, Handle, Op, RunOutcome, RunSpec, RunStatus,
};

/// The iterated preemption-bound ladder: shallow rungs catch most bugs
/// cheaply, the final `None` rung makes the search complete (given
/// schedule budget).  Non-preemptive context switches — the previous
/// thread blocked or finished — are always free, so even the `Some(0)`
/// rung explores every "who runs after a block" ordering.
pub const BOUND_LADDER: [Option<u32>; 4] = [Some(0), Some(1), Some(2), None];

/// Exploration knobs, shared by the CLI and the checked test suites.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Total schedule budget across the whole [`BOUND_LADDER`].
    pub max_schedules: usize,
    /// Seed for the deterministic per-depth candidate ordering.  Part
    /// of the certificate: replay requires the same seed.
    pub seed: u64,
    /// Per-run transition budget before a run is declared a livelock.
    pub max_steps: usize,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            max_schedules: 1000,
            seed: 1,
            max_steps: 20_000,
        }
    }
}

/// A bounded concurrency scenario: a setup closure that spawns model
/// threads through the [`Handle`], starts the schedule with
/// [`Handle::go`], and asserts terminal-state invariants when `go`
/// reports a clean completion.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Stable name, used in certificates and `--scenario` selection.
    pub name: &'static str,
    /// One-line description for `extrap check --scenarios`.
    pub about: &'static str,
    /// The scenario body, run once per explored schedule.
    pub run: fn(&Handle),
}

/// A replayable failure certificate: `scenario:seed:d0.d1.d2...`.
///
/// The decision string is the chosen thread id at every scheduling
/// point of the failing run; replaying it under the same seed
/// reproduces the execution exactly (the runtime flags any divergence
/// as [`FailureKind::ReplayDivergence`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The scenario that failed.
    pub scenario: String,
    /// The ordering seed the exploration ran under.
    pub seed: u64,
    /// The chosen thread id at every scheduling point.
    pub decisions: Vec<u32>,
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:", self.scenario, self.seed)?;
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl FromStr for Certificate {
    type Err = String;

    fn from_str(s: &str) -> Result<Certificate, String> {
        let mut parts = s.splitn(3, ':');
        let (Some(scenario), Some(seed), Some(decisions)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "certificate `{s}` is not of the form scenario:seed:d0.d1.d2"
            ));
        };
        if scenario.is_empty() {
            return Err(format!("certificate `{s}` has an empty scenario name"));
        }
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("certificate seed `{seed}` is not a u64"))?;
        let decisions = if decisions.is_empty() {
            Vec::new()
        } else {
            decisions
                .split('.')
                .map(|d| {
                    d.parse::<u32>()
                        .map_err(|_| format!("certificate decision `{d}` is not a thread id"))
                })
                .collect::<Result<Vec<u32>, String>>()?
        };
        Ok(Certificate {
            scenario: scenario.to_string(),
            seed,
            decisions,
        })
    }
}

/// The first failing schedule a check found, with everything needed to
/// reproduce and understand it.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// The failure class.
    pub kind: FailureKind,
    /// The runtime's diagnostic for the failing state.
    pub message: String,
    /// The replayable certificate of the failing schedule.
    pub certificate: Certificate,
    /// The failing schedule rendered one scheduling decision per line.
    pub trace: Vec<String>,
}

/// The result of checking one scenario.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The scenario checked.
    pub scenario: &'static str,
    /// Schedules executed across all ladder rungs.
    pub schedules: usize,
    /// Whether the final unbounded rung exhausted its (sleep-set
    /// reduced) search space within the schedule budget — i.e. the pass
    /// is a proof for this scenario, not a sample.
    pub exhaustive: bool,
    /// The first failing schedule, if any.
    pub failure: Option<FailureReport>,
}

impl CheckReport {
    /// Whether no explored schedule failed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Human-readable summary: one line on success, the certificate and
    /// the tail of the failing schedule otherwise.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.failure {
            None => {
                let coverage = if self.exhaustive {
                    "exhaustive under partial-order reduction"
                } else {
                    "schedule budget reached"
                };
                out.push_str(&format!(
                    "scenario {}: ok ({} schedules, {coverage})\n",
                    self.scenario, self.schedules
                ));
            }
            Some(f) => {
                out.push_str(&format!(
                    "scenario {}: FAILED ({}) after {} schedules\n",
                    self.scenario, f.kind, self.schedules
                ));
                out.push_str(&format!("  {}\n", f.message));
                out.push_str(&format!("  certificate: {}\n", f.certificate));
                out.push_str(&format!(
                    "  replay: extrap check --replay '{}'\n",
                    f.certificate
                ));
                let tail = f.trace.len().saturating_sub(20);
                if tail > 0 {
                    out.push_str(&format!("  ... {tail} earlier steps elided ...\n"));
                }
                for line in &f.trace[tail..] {
                    out.push_str(&format!("  {line}\n"));
                }
            }
        }
        out
    }
}

/// Renders a run's decision sequence, one scheduling point per line:
/// the chosen thread, its operation, and the alternatives that were
/// also selectable.
fn render_trace(outcome: &RunOutcome) -> Vec<String> {
    outcome
        .choices
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let alts: Vec<String> = c
                .selectable
                .iter()
                .filter(|cand| cand.tid != c.chosen)
                .map(|cand| format!("T{}", cand.tid))
                .collect();
            let alts = if alts.is_empty() {
                String::new()
            } else {
                format!("   (also selectable: {})", alts.join(" "))
            };
            format!("step {i:>4}: T{} {}{alts}", c.chosen, c.chosen_op)
        })
        .collect()
}

/// Explores `scenario` under `config`, laddering the preemption bound
/// through [`BOUND_LADDER`] with one shared schedule budget, and
/// reports the first failing schedule (or that none was found).
pub fn check_scenario(scenario: &Scenario, config: &CheckConfig) -> CheckReport {
    let mut budget = config.max_schedules.max(1);
    let mut schedules = 0;
    let mut exhaustive = false;
    for bound in BOUND_LADDER {
        let exploration = explorer::explore(
            |spec| run_scenario(spec, scenario.run),
            config.seed,
            bound,
            config.max_steps,
            &mut budget,
        );
        schedules += exploration.schedules;
        if let Some(outcome) = exploration.failure {
            let RunStatus::Failed(failure) = &outcome.status else {
                unreachable!("explorer only surfaces failed outcomes");
            };
            return CheckReport {
                scenario: scenario.name,
                schedules,
                exhaustive: false,
                failure: Some(FailureReport {
                    kind: failure.kind,
                    message: failure.message.clone(),
                    certificate: Certificate {
                        scenario: scenario.name.to_string(),
                        seed: config.seed,
                        decisions: outcome.decisions(),
                    },
                    trace: render_trace(&outcome),
                }),
            };
        }
        if bound.is_none() && exploration.exhausted {
            exhaustive = true;
        }
        if budget == 0 {
            break;
        }
    }
    CheckReport {
        scenario: scenario.name,
        schedules,
        exhaustive,
        failure: None,
    }
}

/// Re-executes the schedule a certificate describes (under an unbounded
/// preemption budget — the prefix steers every choice) and returns the
/// resulting outcome.  On a genuine certificate this reproduces the
/// original failure; a diverging scenario surfaces as
/// [`FailureKind::ReplayDivergence`].
pub fn replay(scenario: &Scenario, certificate: &Certificate, max_steps: usize) -> RunOutcome {
    run_scenario(
        RunSpec {
            seed: certificate.seed,
            prefix: certificate.decisions.clone(),
            extra_sleep: Vec::new(),
            bound: None,
            max_steps,
        },
        scenario.run,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_round_trips_through_display() {
        let cert = Certificate {
            scenario: "job-table".to_string(),
            seed: 42,
            decisions: vec![0, 2, 1, 1],
        };
        let text = cert.to_string();
        assert_eq!(text, "job-table:42:0.2.1.1");
        assert_eq!(text.parse::<Certificate>().unwrap(), cert);
    }

    #[test]
    fn empty_decision_string_parses() {
        let cert: Certificate = "demo:7:".parse().unwrap();
        assert_eq!(cert.decisions, Vec::<u32>::new());
        assert_eq!(cert.to_string(), "demo:7:");
    }

    #[test]
    fn malformed_certificates_are_rejected() {
        assert!("no-colons".parse::<Certificate>().is_err());
        assert!("name:notanumber:0.1".parse::<Certificate>().is_err());
        assert!("name:1:0.x".parse::<Certificate>().is_err());
        assert!(":1:0".parse::<Certificate>().is_err());
    }
}
