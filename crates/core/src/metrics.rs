//! Predicted performance metrics (§2: metrics are derived from the
//! predicted performance information `PI₂ᵖ`).

use crate::network::NetworkStats;
use extrap_time::{DurationNs, TimeNs};
use extrap_trace::TraceSet;

/// Per-thread (≡ per-processor when one thread runs per processor)
/// breakdown of where predicted time goes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcBreakdown {
    /// Scaled computation time.
    pub compute: DurationNs,
    /// Time spent servicing other threads' remote requests.
    pub service: DurationNs,
    /// Message construction + startup overhead paid by this thread.
    pub send_overhead: DurationNs,
    /// Time blocked waiting for remote-read replies.
    pub remote_wait: DurationNs,
    /// Time waiting inside barriers (entry to exit).
    pub barrier_wait: DurationNs,
    /// Time waiting for the processor (multithreaded extrapolation only).
    pub sched_wait: DurationNs,
    /// The thread's predicted completion time.
    pub end_time: TimeNs,
    /// Remote reads issued.
    pub remote_reads: u64,
    /// Remote writes issued.
    pub remote_writes: u64,
}

impl ProcBreakdown {
    /// Communication-related time (send overhead + remote wait + service).
    pub fn comm_time(&self) -> DurationNs {
        self.send_overhead + self.remote_wait + self.service
    }
}

/// The result of one extrapolation run: the predicted performance
/// information and metrics for the target environment.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Threads in the program.
    pub n_threads: usize,
    /// Processors of the target machine.
    pub n_procs: usize,
    /// Per-thread time breakdown.
    pub per_thread: Vec<ProcBreakdown>,
    /// Interconnect statistics.
    pub network: NetworkStats,
    /// Barriers completed.
    pub barriers: usize,
    /// Simulator events dispatched (extrapolation cost metric).
    pub events_dispatched: u64,
    /// The extrapolated (predicted) event trace, timestamped in target
    /// time — the `PI₂ᵖ` of Figure 1.
    pub predicted: TraceSet,
}

impl Prediction {
    /// An empty prediction (zero threads).
    pub fn empty() -> Prediction {
        Prediction {
            n_threads: 0,
            n_procs: 0,
            per_thread: Vec::new(),
            network: NetworkStats::default(),
            barriers: 0,
            events_dispatched: 0,
            predicted: TraceSet { threads: vec![] },
        }
    }

    /// Predicted program execution time: the latest thread completion.
    pub fn exec_time(&self) -> TimeNs {
        self.per_thread
            .iter()
            .map(|t| t.end_time)
            .max()
            .unwrap_or(TimeNs::ZERO)
    }

    /// Speedup relative to a baseline (typically the predicted 1-processor
    /// time of the same problem).
    pub fn speedup_vs(&self, baseline: TimeNs) -> f64 {
        let t = self.exec_time().as_ns();
        if t == 0 {
            return f64::INFINITY;
        }
        baseline.as_ns() as f64 / t as f64
    }

    /// Total computation across threads.
    pub fn total_compute(&self) -> DurationNs {
        self.per_thread.iter().map(|t| t.compute).sum()
    }

    /// Total communication time across threads (send + wait + service).
    pub fn total_comm(&self) -> DurationNs {
        self.per_thread.iter().map(|t| t.comm_time()).sum()
    }

    /// Computation / communication ratio (∞ when there is no
    /// communication).
    pub fn comp_comm_ratio(&self) -> f64 {
        let comm = self.total_comm().as_ns();
        if comm == 0 {
            return f64::INFINITY;
        }
        self.total_compute().as_ns() as f64 / comm as f64
    }

    /// Mean processor utilization: compute time over `procs × makespan`.
    pub fn utilization(&self) -> f64 {
        let span = self.exec_time().as_ns() as f64 * self.n_procs.max(1) as f64;
        if span == 0.0 {
            return 1.0;
        }
        self.total_compute().as_ns() as f64 / span
    }

    /// Total remote-reply wait across threads.
    pub fn total_remote_wait(&self) -> DurationNs {
        self.per_thread.iter().map(|t| t.remote_wait).sum()
    }
}

/// Speedup of `time` relative to `baseline` (free function for building
/// series in the experiment harness).
pub fn speedup(baseline: TimeNs, time: TimeNs) -> f64 {
    if time.as_ns() == 0 {
        return f64::INFINITY;
    }
    baseline.as_ns() as f64 / time.as_ns() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(ends: &[u64]) -> Prediction {
        Prediction {
            n_threads: ends.len(),
            n_procs: ends.len(),
            per_thread: ends
                .iter()
                .map(|&e| ProcBreakdown {
                    compute: DurationNs(e / 2),
                    end_time: TimeNs(e),
                    ..ProcBreakdown::default()
                })
                .collect(),
            network: NetworkStats::default(),
            barriers: 0,
            events_dispatched: 0,
            predicted: TraceSet { threads: vec![] },
        }
    }

    #[test]
    fn exec_time_is_max_end() {
        assert_eq!(pred(&[10, 30, 20]).exec_time(), TimeNs(30));
        assert_eq!(Prediction::empty().exec_time(), TimeNs::ZERO);
    }

    #[test]
    fn speedup_ratio() {
        let p = pred(&[50]);
        assert!((p.speedup_vs(TimeNs(100)) - 2.0).abs() < 1e-12);
        assert_eq!(speedup(TimeNs(100), TimeNs(25)), 4.0);
        assert_eq!(speedup(TimeNs(100), TimeNs::ZERO), f64::INFINITY);
    }

    #[test]
    fn utilization_of_balanced_halves() {
        // Each thread computes half its end time.
        let p = pred(&[100, 100]);
        assert!((p.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn comp_comm_ratio_infinite_without_comm() {
        assert_eq!(pred(&[10]).comp_comm_ratio(), f64::INFINITY);
    }

    #[test]
    fn breakdown_comm_time_sums_parts() {
        let b = ProcBreakdown {
            send_overhead: DurationNs(5),
            remote_wait: DurationNs(7),
            service: DurationNs(11),
            ..ProcBreakdown::default()
        };
        assert_eq!(b.comm_time(), DurationNs(23));
    }
}
