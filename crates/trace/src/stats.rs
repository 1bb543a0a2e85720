//! Trace statistics for performance diagnosis.
//!
//! The paper's debugging walk-through (§4.1) leans on exactly these
//! numbers: "trace statistics indicated that *Grid* does not have enough
//! barriers (only 650)", per-access transfer sizes, and the computation /
//! communication balance.

use crate::event::TraceSet;
use crate::phases::PhaseFold;
use extrap_time::{DurationNs, ThreadId, TimeNs};

/// Per-thread summary numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadStats {
    /// Total events recorded by the thread.
    pub events: usize,
    /// Barriers the thread passed.
    pub barriers: usize,
    /// Remote element reads issued.
    pub remote_reads: usize,
    /// Remote element writes issued.
    pub remote_writes: usize,
    /// Sum of declared (whole-element) transfer sizes, in bytes.
    pub declared_bytes: u64,
    /// Sum of actual transfer sizes, in bytes.
    pub actual_bytes: u64,
    /// Time spent computing (deltas between a resume point and the next
    /// blocking event).
    pub compute: DurationNs,
    /// Time spent inside barriers (enter → exit gaps).
    pub barrier_wait: DurationNs,
    /// The thread's completion time.
    pub end_time: TimeNs,
}

/// Whole-trace summary: per-thread stats plus aggregates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// One entry per thread.
    pub per_thread: Vec<ThreadStats>,
}

impl TraceStats {
    /// Computes stats for a whole translated trace set (an adapter over
    /// [`PhaseFold`], the fold behind the marker-phase profiles too).
    pub fn from_set(set: &TraceSet) -> TraceStats {
        PhaseFold::from_set(set).into_stats(set.threads.len())
    }

    /// Stats for one thread.
    pub fn thread(&self, t: ThreadId) -> &ThreadStats {
        &self.per_thread[t.index()]
    }

    /// Total remote accesses (reads + writes) across threads.
    pub fn total_remote_accesses(&self) -> usize {
        self.per_thread
            .iter()
            .map(|t| t.remote_reads + t.remote_writes)
            .sum()
    }

    /// Barriers passed per thread (identical across threads for valid
    /// data-parallel traces; returns thread 0's count).
    pub fn barriers(&self) -> usize {
        self.per_thread.first().map(|t| t.barriers).unwrap_or(0)
    }

    /// Total declared transfer volume in bytes.
    pub fn total_declared_bytes(&self) -> u64 {
        self.per_thread.iter().map(|t| t.declared_bytes).sum()
    }

    /// Total actual transfer volume in bytes.
    pub fn total_actual_bytes(&self) -> u64 {
        self.per_thread.iter().map(|t| t.actual_bytes).sum()
    }

    /// Sum of per-thread compute time.
    pub fn total_compute(&self) -> DurationNs {
        self.per_thread.iter().map(|t| t.compute).sum()
    }

    /// The latest thread completion time.
    pub fn makespan(&self) -> TimeNs {
        self.per_thread
            .iter()
            .map(|t| t.end_time)
            .max()
            .unwrap_or(TimeNs::ZERO)
    }

    /// Mean processor utilization in the idealized trace: compute time
    /// divided by (makespan × threads).
    pub fn utilization(&self) -> f64 {
        let span = self.makespan().as_ns() as f64 * self.per_thread.len() as f64;
        if span == 0.0 {
            return 1.0;
        }
        self.total_compute().as_ns() as f64 / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{PhaseAccess, PhaseProgram, PhaseWork};
    use crate::translate::translate;
    use extrap_time::ElementId;

    fn skewed_set() -> TraceSet {
        let mut p = PhaseProgram::new(2);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(100),
                accesses: vec![PhaseAccess {
                    after: DurationNs(10),
                    owner: ThreadId(1),
                    element: ElementId(0),
                    declared_bytes: 1000,
                    actual_bytes: 16,
                    write: false,
                }],
            },
            PhaseWork {
                compute: DurationNs(300),
                accesses: vec![],
            },
        ]);
        translate(&p.record(), Default::default()).unwrap()
    }

    #[test]
    fn per_thread_breakdown() {
        let stats = TraceStats::from_set(&skewed_set());
        let t0 = stats.thread(ThreadId(0));
        let t1 = stats.thread(ThreadId(1));
        assert_eq!(t0.barriers, 1);
        assert_eq!(t0.remote_reads, 1);
        assert_eq!(t0.declared_bytes, 1000);
        assert_eq!(t0.actual_bytes, 16);
        assert_eq!(t0.compute, DurationNs(100));
        // Thread 0 waits 200ns for thread 1 at the barrier.
        assert_eq!(t0.barrier_wait, DurationNs(200));
        assert_eq!(t1.barrier_wait, DurationNs(0));
        assert_eq!(t1.compute, DurationNs(300));
    }

    #[test]
    fn aggregates() {
        let stats = TraceStats::from_set(&skewed_set());
        assert_eq!(stats.total_remote_accesses(), 1);
        assert_eq!(stats.barriers(), 1);
        assert_eq!(stats.total_declared_bytes(), 1000);
        assert_eq!(stats.total_actual_bytes(), 16);
        assert_eq!(stats.makespan(), TimeNs(300));
        assert_eq!(stats.total_compute(), DurationNs(400));
        // 400 compute over 2 threads * 300 span.
        assert!((stats.utilization() - 400.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats() {
        let stats = TraceStats::from_set(&TraceSet { threads: vec![] });
        assert_eq!(stats.barriers(), 0);
        assert_eq!(stats.makespan(), TimeNs::ZERO);
        assert_eq!(stats.utilization(), 1.0);
    }
}
