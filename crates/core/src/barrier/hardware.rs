//! Hardware barrier: a dedicated synchronization network (e.g. the CM-5
//! control network) lowers the barrier a fixed latency after the last
//! arrival; every thread observes it simultaneously.

use crate::params::BarrierParams;
use extrap_time::TimeNs;

/// Replaces each thread's entry-complete time with its resume time.
pub fn resume_times(p: &BarrierParams, times: &mut [TimeNs]) {
    let last = *times.iter().max().expect("empty barrier");
    let release = last + p.hardware_latency;
    times.fill(release + p.exit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BarrierAlgorithm;
    use extrap_time::DurationNs;

    #[test]
    fn release_is_uniform() {
        let p = BarrierParams {
            entry: DurationNs::ZERO,
            exit: DurationNs(3),
            check: DurationNs(99),
            exit_check: DurationNs(99),
            model: DurationNs(99),
            by_msgs: false,
            msg_size: 0,
            algorithm: BarrierAlgorithm::Hardware,
            hardware_latency: DurationNs(11),
        };
        let mut r = [TimeNs(5), TimeNs(70), TimeNs(40)];
        resume_times(&p, &mut r);
        assert_eq!(r, [TimeNs(84); 3]);
    }
}
