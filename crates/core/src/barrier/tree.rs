//! Logarithmic combining-tree barrier (analytic approximation).
//!
//! Arrivals combine up a `k`-ary tree and the release fans back down, so
//! synchronization costs grow with `ceil(log_k n)` message rounds instead
//! of the linear algorithm's `n` sends.  The model is analytic: each
//! level costs one message construction + startup + wire time (one hop +
//! message bytes); contention is not applied to barrier traffic in this
//! variant (the combining pattern is designed to avoid hot spots).

use super::quantize;
use crate::params::{BarrierParams, CommParams};
use extrap_time::{DurationNs, TimeNs};

/// Number of combining levels for `n` participants with fan-in `arity`.
pub fn levels(n: usize, arity: u32) -> u32 {
    let arity = arity.max(2) as u64;
    let mut levels = 0u32;
    let mut span = 1u64;
    while span < n as u64 {
        span = span.saturating_mul(arity);
        levels += 1;
    }
    levels
}

/// Replaces each thread's entry-complete time with its resume time.
pub fn resume_times(p: &BarrierParams, comm: &CommParams, arity: u32, times: &mut [TimeNs]) {
    let n = times.len();
    let last = *times.iter().max().expect("empty barrier");
    let depth = levels(n, arity);
    let per_level: DurationNs = if p.by_msgs {
        comm.construct + comm.startup + comm.byte_transfer * u64::from(p.msg_size)
    } else {
        // Flag-based combining still costs a check per level.
        p.check
    };
    let up = per_level * u64::from(depth);
    let root_ready = last + up;
    let lower = quantize(times[0], root_ready, p.check) + p.model;
    let down = per_level * u64::from(depth);
    for t in times.iter_mut() {
        let seen = quantize(*t, lower + down, p.exit_check);
        *t = seen + p.exit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BarrierAlgorithm;

    #[test]
    fn level_counts() {
        assert_eq!(levels(1, 2), 0);
        assert_eq!(levels(2, 2), 1);
        assert_eq!(levels(8, 2), 3);
        assert_eq!(levels(9, 2), 4);
        assert_eq!(levels(16, 4), 2);
        assert_eq!(levels(17, 4), 3);
    }

    fn p(by_msgs: bool) -> BarrierParams {
        BarrierParams {
            entry: DurationNs::ZERO,
            exit: DurationNs(1),
            check: DurationNs::ZERO,
            exit_check: DurationNs::ZERO,
            model: DurationNs(10),
            by_msgs,
            msg_size: 100,
            algorithm: BarrierAlgorithm::Tree { arity: 2 },
            hardware_latency: DurationNs::ZERO,
        }
    }

    fn comm() -> CommParams {
        CommParams {
            construct: DurationNs(2),
            startup: DurationNs(3),
            byte_transfer: DurationNs(1),
            ..CommParams::free()
        }
    }

    #[test]
    fn tree_scales_logarithmically() {
        // 4 threads, arity 2 -> 2 levels; per level = 2+3+100 = 105.
        let mut r = [TimeNs(0); 4];
        resume_times(&p(true), &comm(), 2, &mut r);
        // up 210, lower = 210+10 = 220, down 210, +exit 1 = 431.
        assert_eq!(r, [TimeNs(431); 4]);
    }

    #[test]
    fn tree_cost_grows_with_depth_not_thread_count() {
        // 32 threads, arity 2 -> 5 levels; up 525 + model 10 + down 525
        // + exit 1 = 1061.  Doubling the thread count adds one level
        // (210ns), not 32 more sequential sends.
        let mut r32 = [TimeNs(0); 32];
        resume_times(&p(true), &comm(), 2, &mut r32);
        assert_eq!(r32[0], TimeNs(1_061));
        let mut r64 = [TimeNs(0); 64];
        resume_times(&p(true), &comm(), 2, &mut r64);
        assert_eq!(r64[0].since(r32[0]), DurationNs(210));
    }
}
