//! Simulation parameters.
//!
//! Every knob the paper exposes is here, in the paper's own units
//! (microseconds), grouped by the model that consumes it.  `SimParams`
//! composes the three models plus the multithreading extension and can be
//! round-tripped through a simple `key = value` text form (see
//! [`SimParams::to_config_text`] / [`SimParams::from_config_text`] /
//! [`SimParams::set`]).  One ordered list of keys drives all three, so
//! each key is spelled once and each value kind parses and prints in
//! one place.

use crate::multithread::{MultithreadParams, ThreadMapping};
use crate::network::topology::Topology;
use extrap_time::DurationNs;
use std::fmt::Write;

/// How the owner thread services incoming remote-data requests (§3.3.1).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum ServicePolicy {
    /// Messages are processed only when the thread waits — for a barrier
    /// release or a remote data access reply — or at compute-phase
    /// boundaries.
    #[default]
    NoInterrupt,
    /// A message arrival interrupts the owner's computation; after the
    /// message is processed the computation resumes.
    Interrupt,
    /// Computation is split into chunks of `interval`; at the end of each
    /// chunk the thread processes messages received during that time.
    Poll {
        /// Polling interval.
        interval: DurationNs,
    },
}

impl ServicePolicy {
    /// A polling policy with the interval given in microseconds.
    pub fn poll_us(interval_us: f64) -> ServicePolicy {
        ServicePolicy::Poll {
            interval: DurationNs::from_us(interval_us),
        }
    }
}

/// Which recorded transfer size drives the communication model (§4.1's
/// Grid investigation: declared whole-element size vs actual bytes).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SizeMode {
    /// Use the compiler-declared (whole collection element) size — the
    /// paper's original measurement abstraction.
    #[default]
    Declared,
    /// Use the actual number of bytes the access requires.
    Actual,
}

/// Whether a run materializes the full predicted event trace or only the
/// scalar metrics.
///
/// Building `Prediction::predicted` costs one `TraceRecord` push per
/// simulated event per thread; sweep grids that only read `exec_time`
/// and the per-thread breakdowns pay that allocation for nothing, so
/// they run `MetricsOnly`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecordMode {
    /// Build the full predicted trace (the paper's `PI₂ᵖ`) with exact
    /// capacity pre-reservation from the compiled program's stats.
    #[default]
    Full,
    /// Skip the predicted trace entirely; `Prediction::predicted` comes
    /// back empty.  Timing and metrics are bit-identical to `Full`.
    MetricsOnly,
}

/// Remote data access model parameters (§3.3.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CommParams {
    /// `CommStartupTime`: fixed software overhead to send any message.
    pub startup: DurationNs,
    /// `ByteTransferTime`: per-byte network transfer time (inverse
    /// bandwidth).
    pub byte_transfer: DurationNs,
    /// `MsgConstructTime`: cost of assembling a message (header packing,
    /// buffer management) before the startup cost.
    pub construct: DurationNs,
    /// Cost for the owner to service one remote request (lookup + copy
    /// initiation), excluding the reply's construct/startup costs.
    pub service: DurationNs,
    /// Receive-side handling overhead per message (dequeue from the NI
    /// receive queue).
    pub receive: DurationNs,
    /// Size of a remote-read *request* message in bytes (headers only).
    pub request_bytes: u32,
    /// Extra header bytes added to every reply in addition to the data.
    pub reply_header_bytes: u32,
}

impl Default for CommParams {
    fn default() -> CommParams {
        // The Fig. 4 environment: modest bandwidth (20 MB/s) and
        // relatively high communication overheads.
        CommParams {
            startup: DurationNs::from_us(100.0),
            byte_transfer: DurationNs::from_us(0.05),
            construct: DurationNs::from_us(5.0),
            service: DurationNs::from_us(5.0),
            receive: DurationNs::from_us(2.0),
            request_bytes: 16,
            reply_header_bytes: 8,
        }
    }
}

impl CommParams {
    /// Sets the bandwidth in MB/s (converted to `ByteTransferTime`).
    pub fn with_bandwidth_mbps(mut self, mbps: f64) -> CommParams {
        self.byte_transfer = DurationNs::from_us(extrap_time::mbps_to_us_per_byte(mbps));
        self
    }

    /// Sets `CommStartupTime` in microseconds.
    pub fn with_startup_us(mut self, us: f64) -> CommParams {
        self.startup = DurationNs::from_us(us);
        self
    }

    /// A zero-cost communication system (the "ideal execution environment"
    /// of §4.1).
    pub fn free() -> CommParams {
        CommParams {
            startup: DurationNs::ZERO,
            byte_transfer: DurationNs::ZERO,
            construct: DurationNs::ZERO,
            service: DurationNs::ZERO,
            receive: DurationNs::ZERO,
            request_bytes: 0,
            reply_header_bytes: 0,
        }
    }
}

/// Analytic network contention model parameters (§3.3.2): remote access
/// delay expressions involve the intensity of concurrent use of the
/// interconnect, tracked from simulation state.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ContentionParams {
    /// Master switch.
    pub enabled: bool,
    /// Delay growth per unit of excess concurrent load: a message's wire
    /// time is multiplied by `1 + alpha * excess / capacity` where
    /// `excess` is the number of other messages in flight and `capacity`
    /// is the topology's concurrency capacity.
    pub alpha: f64,
}

impl Default for ContentionParams {
    fn default() -> ContentionParams {
        ContentionParams {
            enabled: true,
            alpha: 0.5,
        }
    }
}

/// Interconnection network parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NetworkParams {
    /// Topology used for hop counts and contention capacity.
    pub topology: Topology,
    /// Per-hop switch latency.
    pub hop: DurationNs,
    /// Contention model.
    pub contention: ContentionParams,
}

impl Default for NetworkParams {
    fn default() -> NetworkParams {
        NetworkParams {
            topology: Topology::FatTree { arity: 4 },
            hop: DurationNs::from_us(0.5),
            contention: ContentionParams::default(),
        }
    }
}

/// Barrier algorithm choice.  The paper's model is the linear
/// master–slave algorithm; logarithmic and hardware barriers are the
/// substitutions §3.3.3 mentions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BarrierAlgorithm {
    /// Linear master–slave: every slave messages thread 0; thread 0
    /// releases every slave.  Upper bound on synchronization time.
    #[default]
    Linear,
    /// Logarithmic combining tree with the given fan-in.
    Tree {
        /// Fan-in of the combining tree (≥ 2).
        arity: u32,
    },
    /// A dedicated hardware barrier with a fixed latency (e.g. the CM-5
    /// control network), modelled as `release = last entry + latency`.
    Hardware,
}

/// Barrier model parameters — Table 1 of the paper, plus the algorithm
/// selector and the hardware-barrier latency.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BarrierParams {
    /// `EntryTime`: time for each thread to enter a barrier.
    pub entry: DurationNs,
    /// `ExitTime`: time for each thread to come out of the barrier after
    /// it has been lowered.
    pub exit: DurationNs,
    /// `CheckTime`: delay incurred by the master thread every time it
    /// checks if all the threads have reached the barrier.
    pub check: DurationNs,
    /// `ExitCheckTime`: delay incurred by a slave thread every time it
    /// checks to see if the master has released the barrier.
    pub exit_check: DurationNs,
    /// `ModelTime`: time taken by the master thread to start lowering the
    /// barrier after all the slaves have reached the barrier.
    pub model: DurationNs,
    /// `BarrierByMsgs`: when true, actual messages are used for barrier
    /// synchronization and their transfer time contributes to the barrier
    /// time.
    pub by_msgs: bool,
    /// `BarrierMsgSize`: size of a message used for barrier
    /// synchronization.
    pub msg_size: u32,
    /// Algorithm (linear per the paper; tree/hardware as substitutions).
    pub algorithm: BarrierAlgorithm,
    /// Latency of the hardware barrier (only used by
    /// [`BarrierAlgorithm::Hardware`]).
    pub hardware_latency: DurationNs,
}

impl Default for BarrierParams {
    fn default() -> BarrierParams {
        // Exactly the example column of Table 1.
        BarrierParams {
            entry: DurationNs::from_us(5.0),
            exit: DurationNs::from_us(5.0),
            check: DurationNs::from_us(2.0),
            exit_check: DurationNs::from_us(2.0),
            model: DurationNs::from_us(10.0),
            by_msgs: true,
            msg_size: 128,
            algorithm: BarrierAlgorithm::Linear,
            hardware_latency: DurationNs::from_us(1.0),
        }
    }
}

impl BarrierParams {
    /// A zero-cost barrier (ideal synchronization).
    pub fn free() -> BarrierParams {
        BarrierParams {
            entry: DurationNs::ZERO,
            exit: DurationNs::ZERO,
            check: DurationNs::ZERO,
            exit_check: DurationNs::ZERO,
            model: DurationNs::ZERO,
            by_msgs: false,
            msg_size: 0,
            algorithm: BarrierAlgorithm::Hardware,
            hardware_latency: DurationNs::ZERO,
        }
    }
}

/// How the simulator covers the trace's barrier epochs.
///
/// `Exact` replays every epoch — the paper's simulator.  `Representative`
/// clusters repeating epochs by workload signature (SimPoint applied to
/// barrier phases), simulates one representative per cluster, and
/// composes full-run metrics from the cluster weights.  When clustering
/// finds no exploitable repetition the run silently falls back to the
/// exact path, so `Representative` is always safe to request.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum SimStrategy {
    /// Simulate every barrier epoch (full fidelity).
    #[default]
    Exact,
    /// Simulate one representative epoch per signature cluster and
    /// weight-compose the metrics; falls back to [`SimStrategy::Exact`]
    /// when the trace does not repeat.
    Representative {
        /// Clustering gives up (and the run falls back to exact) when
        /// the epochs need more than this many clusters.
        max_clusters: u32,
        /// Mean relative signature-distance threshold for two epochs
        /// to share a cluster (0 = identical only).
        tolerance: f64,
    },
}

impl SimStrategy {
    /// Default cluster-count bound of `repr` without an explicit `:K`.
    /// Sized for multigrid-style programs, whose per-level epochs are
    /// relatively distinct: Mgrid at paper scale needs ~57 clusters.
    pub const DEFAULT_MAX_CLUSTERS: u32 = 64;
    /// Default join tolerance of `repr` without an explicit `:K:TOL`.
    pub const DEFAULT_TOLERANCE: f64 = 0.05;
    /// The accepted spellings, for error messages.
    pub const VALID: &'static str = "exact, repr, repr:K, repr:K:TOL";

    /// The representative strategy with default knobs.
    pub fn representative() -> SimStrategy {
        SimStrategy::Representative {
            max_clusters: SimStrategy::DEFAULT_MAX_CLUSTERS,
            tolerance: SimStrategy::DEFAULT_TOLERANCE,
        }
    }

    /// Parses `exact`, `repr`, `repr:K`, or `repr:K:TOL`.
    pub fn parse(s: &str) -> Option<SimStrategy> {
        match s {
            "exact" => Some(SimStrategy::Exact),
            "repr" => Some(SimStrategy::representative()),
            other => {
                let rest = other.strip_prefix("repr:")?;
                let (k, tol) = match rest.split_once(':') {
                    Some((k, t)) => (k, Some(t)),
                    None => (rest, None),
                };
                let max_clusters = k.parse().ok()?;
                let tolerance = match tol {
                    Some(t) => t.parse().ok()?,
                    None => SimStrategy::DEFAULT_TOLERANCE,
                };
                Some(SimStrategy::Representative {
                    max_clusters,
                    tolerance,
                })
            }
        }
    }

    /// The canonical spelling ([`parse`](SimStrategy::parse) inverse).
    pub fn label(&self) -> String {
        match self {
            SimStrategy::Exact => "exact".to_string(),
            SimStrategy::Representative {
                max_clusters,
                tolerance,
            } => format!("repr:{max_clusters}:{tolerance}"),
        }
    }
}

/// The complete parameter set for one extrapolation run.
#[derive(Clone, PartialEq, Debug)]
pub struct SimParams {
    /// `MipsRatio`: computation times measured on the host are multiplied
    /// by this factor (1.0 = unchanged, 2.0 = target is 2× slower, 0.5 =
    /// target is 2× faster; Sun 4 → CM-5 is 1.1360 / 2.7645 ≈ 0.41).
    pub mips_ratio: f64,
    /// Remote-request service policy.
    pub policy: ServicePolicy,
    /// Which recorded access size the communication model uses.
    pub size_mode: SizeMode,
    /// Whether to materialize the predicted trace or only the metrics.
    pub record_mode: RecordMode,
    /// Epoch coverage strategy: exact replay or representative-region
    /// simulation with weighted metric composition.
    pub strategy: SimStrategy,
    /// Remote data access model parameters.
    pub comm: CommParams,
    /// Network parameters.
    pub network: NetworkParams,
    /// Barrier model parameters.
    pub barrier: BarrierParams,
    /// Multithreading extension (threads per processor).
    pub multithread: MultithreadParams,
}

impl Default for SimParams {
    fn default() -> SimParams {
        SimParams {
            mips_ratio: 1.0,
            policy: ServicePolicy::default(),
            size_mode: SizeMode::default(),
            record_mode: RecordMode::default(),
            strategy: SimStrategy::Exact,
            comm: CommParams::default(),
            network: NetworkParams::default(),
            barrier: BarrierParams::default(),
            multithread: MultithreadParams::default(),
        }
    }
}

impl SimParams {
    /// Every range rule this parameter set breaks, in a fixed order —
    /// the one statement of what a valid parameter set is.
    /// [`validate`](SimParams::validate) reports the first; `extrap lint`
    /// reports each as an `E008`.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !(self.mips_ratio.is_finite() && self.mips_ratio > 0.0) {
            out.push(format!(
                "MipsRatio must be positive and finite, got {}",
                self.mips_ratio
            ));
        }
        if let ServicePolicy::Poll { interval } = self.policy {
            if interval.is_zero() {
                out.push("poll interval must be nonzero".to_string());
            }
        }
        if let BarrierAlgorithm::Tree { arity } = self.barrier.algorithm {
            if arity < 2 {
                out.push(format!("tree barrier arity must be >= 2, got {arity}"));
            }
        }
        if let Topology::FatTree { arity } = self.network.topology {
            if arity < 2 {
                out.push(format!("fat-tree topology arity must be >= 2, got {arity}"));
            }
        }
        if let SimStrategy::Representative {
            max_clusters,
            tolerance,
        } = self.strategy
        {
            if max_clusters == 0 {
                out.push("representative max_clusters must be >= 1".to_string());
            }
            if !(tolerance.is_finite() && tolerance >= 0.0) {
                out.push(format!(
                    "representative tolerance must be non-negative, got {tolerance}"
                ));
            }
        }
        let alpha = self.network.contention.alpha;
        if !(alpha.is_finite() && alpha >= 0.0) {
            out.push(format!(
                "ContentionAlpha must be non-negative and finite, got {alpha}"
            ));
        }
        if let Err(detail) = self.multithread.validate() {
            out.push(detail);
        }
        out
    }

    /// Validates ranges: `Err` with the first of
    /// [`violations`](SimParams::violations).
    pub fn validate(&self) -> Result<(), String> {
        match self.violations().into_iter().next() {
            Some(first) => Err(first),
            None => Ok(()),
        }
    }

    /// Serializes to the `key = value` config text form: every key, one
    /// line each, in a fixed order.
    pub fn to_config_text(&self) -> String {
        // The field accessors reach through `&mut`; render a copy.
        let mut p = self.clone();
        let mut s = String::from("# ExtraP-rs simulation parameters\n");
        for (key, field) in KEYS {
            let _ = writeln!(s, "{key} = {}", field.render(&mut p));
        }
        s
    }

    /// Parses the `key = value` config text form.  Unknown keys are
    /// errors; omitted keys keep their defaults.
    pub fn from_config_text(text: &str) -> Result<SimParams, String> {
        let p = SimParams::from_config_text_unvalidated(text)?;
        p.validate()?;
        Ok(p)
    }

    /// Parses the config text form **without** running [`validate`].
    ///
    /// Syntax errors (malformed lines, unknown keys, unparsable values)
    /// are still rejected, but semantically out-of-range values (zero
    /// `MipsRatio`, negative contention alpha, …) parse successfully —
    /// this is the entry point for `extrap-lint`, which wants to report
    /// every range violation as a diagnostic rather than stop at the
    /// first.
    ///
    /// [`validate`]: SimParams::validate
    pub fn from_config_text_unvalidated(text: &str) -> Result<SimParams, String> {
        let mut p = SimParams::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at_line = |e: String| format!("line {}: {e}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at_line("expected key = value".to_string()))?;
            p.set(key.trim(), value.trim()).map_err(at_line)?;
        }
        Ok(p)
    }

    /// Sets one key from its config-text value, exactly as a
    /// `key = value` line does.  Like the parser, it applies no range
    /// rules: those are [`violations`](SimParams::violations).
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let (_, field) = KEYS
            .iter()
            .find(|(k, _)| *k == key)
            .ok_or_else(|| format!("unknown key {key:?}"))?;
        field.parse(self, key, value)
    }
}

/// The `key = value` format: every key in rendered order, paired with
/// the [`SimParams`] field it sets.  The only place keys are spelled.
#[rustfmt::skip]
const KEYS: &[(&str, Field)] = &[
    ("MipsRatio", Field::Float(|p| &mut p.mips_ratio)),
    ("Policy", Field::Policy(|p| &mut p.policy)),
    ("SizeMode", Field::SizeMode(|p| &mut p.size_mode)),
    ("RecordMode", Field::RecordMode(|p| &mut p.record_mode)),
    ("Strategy", Field::Strategy(|p| &mut p.strategy)),
    ("CommStartupTime", Field::Us(|p| &mut p.comm.startup)),
    ("ByteTransferTime", Field::Us(|p| &mut p.comm.byte_transfer)),
    ("MsgConstructTime", Field::Us(|p| &mut p.comm.construct)),
    ("ServiceTime", Field::Us(|p| &mut p.comm.service)),
    ("ReceiveTime", Field::Us(|p| &mut p.comm.receive)),
    ("RequestBytes", Field::Int(|p| &mut p.comm.request_bytes)),
    ("ReplyHeaderBytes", Field::Int(|p| &mut p.comm.reply_header_bytes)),
    ("Topology", Field::Topology(|p| &mut p.network.topology)),
    ("HopTime", Field::Us(|p| &mut p.network.hop)),
    ("Contention", Field::OnOff(|p| &mut p.network.contention.enabled)),
    ("ContentionAlpha", Field::Float(|p| &mut p.network.contention.alpha)),
    ("BarrierEntryTime", Field::Us(|p| &mut p.barrier.entry)),
    ("BarrierExitTime", Field::Us(|p| &mut p.barrier.exit)),
    ("BarrierCheckTime", Field::Us(|p| &mut p.barrier.check)),
    ("BarrierExitCheckTime", Field::Us(|p| &mut p.barrier.exit_check)),
    ("BarrierModelTime", Field::Us(|p| &mut p.barrier.model)),
    ("BarrierByMsgs", Field::Bit(|p| &mut p.barrier.by_msgs)),
    ("BarrierMsgSize", Field::Int(|p| &mut p.barrier.msg_size)),
    ("BarrierAlgorithm", Field::Barrier(|p| &mut p.barrier.algorithm)),
    ("BarrierHardwareLatency", Field::Us(|p| &mut p.barrier.hardware_latency)),
    ("ThreadMapping", Field::Mapping(|p| &mut p.multithread.mapping)),
    ("SwitchCost", Field::Us(|p| &mut p.multithread.switch_cost)),
];

/// One key's value: the variant is its kind (how the text parses and
/// prints), the function reaches its [`SimParams`] field.
#[derive(Clone, Copy)]
enum Field {
    /// Microseconds, held as integer nanoseconds.
    Us(fn(&mut SimParams) -> &mut DurationNs),
    Float(fn(&mut SimParams) -> &mut f64),
    Int(fn(&mut SimParams) -> &mut u32),
    /// A flag printed `0`/`1`; any nonzero integer reads as set.
    Bit(fn(&mut SimParams) -> &mut bool),
    /// A flag printed `on`/`off`; `1`/`true` and `0`/`false` also read.
    OnOff(fn(&mut SimParams) -> &mut bool),
    Policy(fn(&mut SimParams) -> &mut ServicePolicy),
    SizeMode(fn(&mut SimParams) -> &mut SizeMode),
    RecordMode(fn(&mut SimParams) -> &mut RecordMode),
    Strategy(fn(&mut SimParams) -> &mut SimStrategy),
    Topology(fn(&mut SimParams) -> &mut Topology),
    Barrier(fn(&mut SimParams) -> &mut BarrierAlgorithm),
    Mapping(fn(&mut SimParams) -> &mut ThreadMapping),
}

impl Field {
    /// The field's value as config text.
    fn render(self, p: &mut SimParams) -> String {
        match self {
            Field::Us(f) => f(p).as_us().to_string(),
            Field::Float(f) => f(p).to_string(),
            Field::Int(f) => f(p).to_string(),
            Field::Bit(f) => u8::from(*f(p)).to_string(),
            Field::OnOff(f) => (if *f(p) { "on" } else { "off" }).to_string(),
            Field::Policy(f) => match *f(p) {
                ServicePolicy::NoInterrupt => "no-interrupt".to_string(),
                ServicePolicy::Interrupt => "interrupt".to_string(),
                ServicePolicy::Poll { interval } => format!("poll:{}", interval.as_us()),
            },
            Field::SizeMode(f) => match *f(p) {
                SizeMode::Declared => "declared".to_string(),
                SizeMode::Actual => "actual".to_string(),
            },
            Field::RecordMode(f) => match *f(p) {
                RecordMode::Full => "full".to_string(),
                RecordMode::MetricsOnly => "metrics-only".to_string(),
            },
            Field::Strategy(f) => f(p).label(),
            Field::Topology(f) => f(p).config_name(),
            Field::Barrier(f) => match *f(p) {
                BarrierAlgorithm::Linear => "linear".to_string(),
                BarrierAlgorithm::Tree { arity } => format!("tree:{arity}"),
                BarrierAlgorithm::Hardware => "hardware".to_string(),
            },
            Field::Mapping(f) => match *f(p) {
                ThreadMapping::OnePerProc => "one-per-proc".to_string(),
                ThreadMapping::Block { procs } => format!("block:{procs}"),
                ThreadMapping::Cyclic { procs } => format!("cyclic:{procs}"),
            },
        }
    }

    /// Parses `value` into the field of `p`; `key` names it in errors.
    fn parse(self, p: &mut SimParams, key: &str, value: &str) -> Result<(), String> {
        // A time below zero or not finite has no `DurationNs`.
        let us = |v: &str| match v.parse::<f64>() {
            Ok(us) if us.is_finite() && us >= 0.0 => Ok(DurationNs::from_us(us)),
            Ok(_) => Err(format!("bad number {v:?}: a time must be finite and >= 0")),
            Err(e) => Err(format!("bad number {v:?}: {e}")),
        };
        let int = |v: &str| {
            v.parse::<u32>()
                .map_err(|e| format!("bad integer {v:?}: {e}"))
        };
        let bad = |what: &str| Err(format!("bad {what} {value:?}"));
        match self {
            Field::Us(f) => *f(p) = us(value)?,
            Field::Float(f) => *f(p) = value.parse().map_err(|e| format!("bad {key}: {e}"))?,
            Field::Int(f) => *f(p) = int(value)?,
            Field::Bit(f) => *f(p) = int(value)? != 0,
            Field::OnOff(f) => {
                *f(p) = match value {
                    "on" | "1" | "true" => true,
                    "off" | "0" | "false" => false,
                    _ => return bad("contention flag"),
                }
            }
            Field::Policy(f) => {
                *f(p) = match value {
                    "no-interrupt" => ServicePolicy::NoInterrupt,
                    "interrupt" => ServicePolicy::Interrupt,
                    other => match other.strip_prefix("poll:") {
                        Some(interval) => ServicePolicy::Poll {
                            interval: us(interval)?,
                        },
                        None => return bad("policy"),
                    },
                }
            }
            Field::SizeMode(f) => {
                *f(p) = match value {
                    "declared" => SizeMode::Declared,
                    "actual" => SizeMode::Actual,
                    _ => return bad("size mode"),
                }
            }
            Field::RecordMode(f) => {
                *f(p) = match value {
                    "full" => RecordMode::Full,
                    "metrics-only" => RecordMode::MetricsOnly,
                    _ => return bad("record mode"),
                }
            }
            Field::Strategy(f) => {
                *f(p) = SimStrategy::parse(value).ok_or_else(|| {
                    format!("bad strategy {value:?} (valid: {})", SimStrategy::VALID)
                })?
            }
            Field::Topology(f) => match Topology::parse_config_name(value) {
                Some(topology) => *f(p) = topology,
                None => return bad("topology"),
            },
            Field::Barrier(f) => {
                *f(p) = match value {
                    "linear" => BarrierAlgorithm::Linear,
                    "hardware" => BarrierAlgorithm::Hardware,
                    other => match other.strip_prefix("tree:").and_then(|a| a.parse().ok()) {
                        Some(arity) => BarrierAlgorithm::Tree { arity },
                        None => return bad("barrier algorithm"),
                    },
                }
            }
            Field::Mapping(f) => {
                let procs = |prefix: &str| value.strip_prefix(prefix)?.parse().ok();
                *f(p) = if value == "one-per-proc" {
                    ThreadMapping::OnePerProc
                } else if let Some(procs) = procs("block:") {
                    ThreadMapping::Block { procs }
                } else if let Some(procs) = procs("cyclic:") {
                    ThreadMapping::Cyclic { procs }
                } else {
                    return bad("thread mapping");
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::SplitMix64;

    fn coin(rng: &mut SplitMix64) -> bool {
        rng.below(2) == 1
    }

    fn time(rng: &mut SplitMix64) -> DurationNs {
        DurationNs(rng.below(10_000_000_000))
    }

    /// An in-range parameter set drawing every field, so that over a few
    /// hundred draws every enum variant appears.
    fn random_params(rng: &mut SplitMix64) -> SimParams {
        let small = |rng: &mut SplitMix64| 2 + rng.below(14) as u32;
        SimParams {
            mips_ratio: 0.01 + rng.next_f64() * 4.0,
            policy: match rng.below(3) {
                0 => ServicePolicy::NoInterrupt,
                1 => ServicePolicy::Interrupt,
                _ => ServicePolicy::Poll {
                    interval: DurationNs(1 + rng.below(1_000_000)),
                },
            },
            size_mode: if coin(rng) {
                SizeMode::Declared
            } else {
                SizeMode::Actual
            },
            record_mode: if coin(rng) {
                RecordMode::Full
            } else {
                RecordMode::MetricsOnly
            },
            strategy: if coin(rng) {
                SimStrategy::Exact
            } else {
                SimStrategy::Representative {
                    max_clusters: 1 + rng.below(200) as u32,
                    tolerance: rng.next_f64(),
                }
            },
            comm: CommParams {
                startup: time(rng),
                byte_transfer: time(rng),
                construct: time(rng),
                service: time(rng),
                receive: time(rng),
                request_bytes: rng.next_u64() as u32,
                reply_header_bytes: rng.next_u64() as u32,
            },
            network: NetworkParams {
                topology: match rng.below(5) {
                    0 => Topology::Bus,
                    1 => Topology::Crossbar,
                    2 => Topology::Mesh2D,
                    3 => Topology::Hypercube,
                    _ => Topology::FatTree { arity: small(rng) },
                },
                hop: time(rng),
                contention: ContentionParams {
                    enabled: coin(rng),
                    alpha: rng.next_f64() * 2.0,
                },
            },
            barrier: BarrierParams {
                entry: time(rng),
                exit: time(rng),
                check: time(rng),
                exit_check: time(rng),
                model: time(rng),
                by_msgs: coin(rng),
                msg_size: rng.next_u64() as u32,
                algorithm: match rng.below(3) {
                    0 => BarrierAlgorithm::Linear,
                    1 => BarrierAlgorithm::Tree { arity: small(rng) },
                    _ => BarrierAlgorithm::Hardware,
                },
                hardware_latency: time(rng),
            },
            multithread: MultithreadParams {
                mapping: match rng.below(3) {
                    0 => ThreadMapping::OnePerProc,
                    1 => ThreadMapping::Block {
                        procs: 1 + rng.below(256) as usize,
                    },
                    _ => ThreadMapping::Cyclic {
                        procs: 1 + rng.below(256) as usize,
                    },
                },
                switch_cost: time(rng),
            },
        }
    }

    #[test]
    fn codec_round_trips_random_params() {
        let mut rng = SplitMix64::new(0x5EED_C0DE);
        let keys: Vec<&str> = KEYS.iter().map(|(k, _)| *k).collect();
        let distinct: std::collections::BTreeSet<&str> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "a key is listed twice");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let p = random_params(&mut rng);
            let text = p.to_config_text();
            assert_eq!(
                SimParams::from_config_text(&text).as_ref(),
                Ok(&p),
                "{text}"
            );
            // Every key exactly once, in list order, after the header.
            let mut lines = text.lines();
            assert_eq!(lines.next(), Some("# ExtraP-rs simulation parameters"));
            let pairs: Vec<(&str, &str)> = lines.map(|l| l.split_once(" = ").unwrap()).collect();
            let rendered: Vec<&str> = pairs.iter().map(|(k, _)| *k).collect();
            assert_eq!(rendered, keys);
            // Replaying every line through `set` rebuilds the same set.
            let mut q = SimParams::default();
            for (key, value) in &pairs {
                q.set(key, value).unwrap();
                let variant = value.split(':').next().unwrap();
                seen.insert((key.to_string(), variant.to_string()));
            }
            assert_eq!(q, p);
        }
        // Every variant of every enum-valued key came up.
        let variants = |key: &str| seen.iter().filter(|(k, _)| *k == key).count();
        for (key, n) in [
            ("Policy", 3),
            ("SizeMode", 2),
            ("RecordMode", 2),
            ("Strategy", 2),
            ("Topology", 5),
            ("Contention", 2),
            ("BarrierByMsgs", 2),
            ("BarrierAlgorithm", 3),
            ("ThreadMapping", 3),
        ] {
            assert_eq!(variants(key), n, "{key}");
        }
    }

    #[test]
    fn set_errors_carry_no_line_and_parse_errors_do() {
        let mut p = SimParams::default();
        assert_eq!(
            p.set("HopTime", "abc"),
            Err("bad number \"abc\": invalid float literal".to_string())
        );
        assert_eq!(
            p.set("Bogus", "1"),
            Err("unknown key \"Bogus\"".to_string())
        );
        assert_eq!(p, SimParams::default());
        assert_eq!(
            SimParams::from_config_text("MipsRatio = 1\nThreadMapping = ring:4\n"),
            Err("line 2: bad thread mapping \"ring:4\"".to_string())
        );
        assert_eq!(
            SimParams::from_config_text("SwitchCost = x\n"),
            Err("line 1: bad number \"x\": invalid float literal".to_string())
        );
    }

    #[test]
    fn times_below_zero_are_parse_errors() {
        for v in ["-1", "NaN", "inf"] {
            assert_eq!(
                SimParams::default().set("HopTime", v),
                Err(format!("bad number {v:?}: a time must be finite and >= 0"))
            );
        }
    }

    #[test]
    fn parser_leaves_range_rules_to_violations() {
        let p = SimParams::from_config_text_unvalidated("Topology = fattree:1\n").unwrap();
        assert_eq!(p.network.topology, Topology::FatTree { arity: 1 });
        assert_eq!(
            p.violations(),
            vec!["fat-tree topology arity must be >= 2, got 1".to_string()]
        );
    }

    #[test]
    fn defaults_match_table_1() {
        let b = BarrierParams::default();
        assert_eq!(b.entry, DurationNs::from_us(5.0));
        assert_eq!(b.exit, DurationNs::from_us(5.0));
        assert_eq!(b.check, DurationNs::from_us(2.0));
        assert_eq!(b.exit_check, DurationNs::from_us(2.0));
        assert_eq!(b.model, DurationNs::from_us(10.0));
        assert!(b.by_msgs);
        assert_eq!(b.msg_size, 128);
    }

    #[test]
    fn config_text_round_trips() {
        let mut p = SimParams::default();
        p.mips_ratio = 0.41;
        p.policy = ServicePolicy::poll_us(100.0);
        p.size_mode = SizeMode::Actual;
        p.comm = p.comm.with_bandwidth_mbps(200.0).with_startup_us(10.0);
        p.network.topology = Topology::Mesh2D;
        p.barrier.algorithm = BarrierAlgorithm::Tree { arity: 4 };
        p.barrier.by_msgs = false;
        p.strategy = SimStrategy::Representative {
            max_clusters: 32,
            tolerance: 0.125,
        };
        let text = p.to_config_text();
        let back = SimParams::from_config_text(&text).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn strategy_spellings() {
        assert_eq!(SimStrategy::parse("exact"), Some(SimStrategy::Exact));
        assert_eq!(
            SimStrategy::parse("repr"),
            Some(SimStrategy::representative())
        );
        assert_eq!(
            SimStrategy::parse("repr:32"),
            Some(SimStrategy::Representative {
                max_clusters: 32,
                tolerance: SimStrategy::DEFAULT_TOLERANCE,
            })
        );
        assert_eq!(
            SimStrategy::parse("repr:8:0.1"),
            Some(SimStrategy::Representative {
                max_clusters: 8,
                tolerance: 0.1,
            })
        );
        assert_eq!(SimStrategy::parse("repr:"), None);
        assert_eq!(SimStrategy::parse("approximate"), None);
        for s in ["exact", "repr:16:0.05", "repr:8:0.1"] {
            assert_eq!(SimStrategy::parse(s).unwrap().label(), s);
        }
    }

    #[test]
    fn strategy_validation() {
        let mut p = SimParams::default();
        p.strategy = SimStrategy::Representative {
            max_clusters: 0,
            tolerance: 0.05,
        };
        assert!(p.validate().is_err());
        p.strategy = SimStrategy::Representative {
            max_clusters: 4,
            tolerance: f64::NAN,
        };
        assert!(p.validate().is_err());
        p.strategy = SimStrategy::representative();
        assert!(p.validate().is_ok());
    }

    #[test]
    fn unknown_key_rejected() {
        assert!(SimParams::from_config_text("Bogus = 1\n").is_err());
    }

    #[test]
    fn removed_scheduler_key_is_an_unknown_key() {
        // The event-queue backend is no longer configurable; old params
        // files that still name it fail loudly at the offending line.
        let err =
            SimParams::from_config_text("MipsRatio = 0.5\nScheduler = calendar\n").unwrap_err();
        assert_eq!(err, "line 2: unknown key \"Scheduler\"");
    }

    #[test]
    fn malformed_line_rejected() {
        assert!(SimParams::from_config_text("MipsRatio 1.0\n").is_err());
        assert!(SimParams::from_config_text("MipsRatio = abc\n").is_err());
    }

    #[test]
    fn empty_config_is_defaults() {
        let p = SimParams::from_config_text("# nothing\n\n").unwrap();
        assert_eq!(p, SimParams::default());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut p = SimParams::default();
        p.mips_ratio = 0.0;
        assert!(p.validate().is_err());

        let mut p = SimParams::default();
        p.policy = ServicePolicy::Poll {
            interval: DurationNs::ZERO,
        };
        assert!(p.validate().is_err());

        let mut p = SimParams::default();
        p.barrier.algorithm = BarrierAlgorithm::Tree { arity: 1 };
        assert!(p.validate().is_err());

        let mut p = SimParams::default();
        p.network.contention.alpha = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn unvalidated_parse_accepts_out_of_range_values() {
        // Validation rejects MipsRatio = 0 …
        assert!(SimParams::from_config_text("MipsRatio = 0\n").is_err());
        // … but the lenient parse hands it over for linting.
        let p = SimParams::from_config_text_unvalidated("MipsRatio = 0\n").unwrap();
        assert_eq!(p.mips_ratio, 0.0);
        assert!(p.validate().is_err());
        // Syntax errors stay errors in both forms.
        assert!(SimParams::from_config_text_unvalidated("Bogus = 1\n").is_err());
    }

    #[test]
    fn free_params_are_zero_cost() {
        let c = CommParams::free();
        assert!(c.startup.is_zero() && c.byte_transfer.is_zero() && c.construct.is_zero());
        let b = BarrierParams::free();
        assert!(b.entry.is_zero() && b.model.is_zero() && !b.by_msgs);
    }
}
