//! Linear master–slave release-time computation for the
//! `BarrierByMsgs = 0` case (shared-memory flag barrier).
//!
//! Without messages the protocol runs through shared flags: slaves set an
//! arrival flag (visible at `entry_done`), the master polls the flags
//! every `CheckTime`, waits `ModelTime`, then sets the release flag that
//! slaves poll every `ExitCheckTime`.

use super::quantize;
use crate::params::BarrierParams;
use extrap_time::TimeNs;

/// Replaces each thread's entry-complete time with its resume time
/// (thread 0 is the master).
pub fn resume_times(p: &BarrierParams, times: &mut [TimeNs]) {
    let master_ready = times[0];
    let last = *times.iter().max().expect("empty barrier");
    // Master observes the last arrival on its CheckTime grid.
    let observed = quantize(master_ready, last, p.check);
    let lower = observed + p.model;
    for (i, t) in times.iter_mut().enumerate() {
        *t = if i == 0 {
            lower + p.exit
        } else {
            // Each slave notices the lowered flag on its own
            // ExitCheckTime grid, anchored at its wait start.
            quantize(*t, lower, p.exit_check) + p.exit
        };
    }
}

/// Alias used by the coordinator for clarity at the call site.
pub use resume_times as resume_times_no_msgs;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BarrierAlgorithm;
    use extrap_time::DurationNs;

    fn p() -> BarrierParams {
        BarrierParams {
            entry: DurationNs(0),
            exit: DurationNs(5),
            check: DurationNs(10),
            exit_check: DurationNs(4),
            model: DurationNs(50),
            by_msgs: false,
            msg_size: 0,
            algorithm: BarrierAlgorithm::Linear,
            hardware_latency: DurationNs::ZERO,
        }
    }

    #[test]
    fn master_quantizes_last_arrival() {
        // Master ready at 100, last at 133 -> observed on 10-grid: 140.
        let mut r = [TimeNs(100), TimeNs(133)];
        resume_times(&p(), &mut r);
        // lower = 140 + 50 = 190. master: 190+5=195.
        assert_eq!(r[0], TimeNs(195));
        // slave anchored at 133: 190 -> grid 133+4k >= 190 -> 193; +5 = 198.
        assert_eq!(r[1], TimeNs(198));
    }

    #[test]
    fn simultaneous_arrivals_release_immediately() {
        let mut params = p();
        params.check = DurationNs::ZERO;
        params.exit_check = DurationNs::ZERO;
        let mut r = [TimeNs(100); 3];
        resume_times(&params, &mut r);
        assert!(r.iter().all(|&t| t == TimeNs(155)));
    }

    #[test]
    fn all_resumes_at_or_after_lowering() {
        let mut r = [TimeNs(10), TimeNs(500), TimeNs(20), TimeNs(499)];
        resume_times(&p(), &mut r);
        let lower = quantize(TimeNs(10), TimeNs(500), DurationNs(10)) + DurationNs(50);
        for &t in &r {
            assert!(t >= lower);
        }
    }
}
