//! Comparing two predictions — the heart of the "what if" workflow: run
//! the extrapolation twice with different parameters and see exactly
//! where the time moved.

use crate::metrics::Prediction;
use extrap_time::DurationNs;
use std::fmt::Write as _;

/// A signed nanosecond delta (`b − a`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaNs(pub i128);

impl DeltaNs {
    fn between(a: DurationNs, b: DurationNs) -> DeltaNs {
        DeltaNs(b.as_ns() as i128 - a.as_ns() as i128)
    }

    /// Delta in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

/// Where the time moved between two predictions of the same program.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictionDiff {
    /// Execution-time change (`b − a`).
    pub exec_time: DeltaNs,
    /// Change in total compute across threads.
    pub compute: DeltaNs,
    /// Change in total send overhead.
    pub send_overhead: DeltaNs,
    /// Change in total service time.
    pub service: DeltaNs,
    /// Change in total remote wait.
    pub remote_wait: DeltaNs,
    /// Change in total barrier wait.
    pub barrier_wait: DeltaNs,
    /// Change in total scheduler wait.
    pub sched_wait: DeltaNs,
    /// Message count change.
    pub messages: i128,
    /// Network byte change.
    pub bytes: i128,
}

/// Computes `b − a` for two predictions of the same traced program.
///
/// # Panics
/// Panics if the predictions have different thread counts (they would
/// not be comparable).
pub fn diff(a: &Prediction, b: &Prediction) -> PredictionDiff {
    assert_eq!(
        a.n_threads, b.n_threads,
        "predictions of different programs are not comparable"
    );
    let total = |p: &Prediction, f: fn(&crate::metrics::ProcBreakdown) -> DurationNs| {
        p.per_thread.iter().map(f).sum::<DurationNs>()
    };
    PredictionDiff {
        exec_time: DeltaNs(b.exec_time().as_ns() as i128 - a.exec_time().as_ns() as i128),
        compute: DeltaNs::between(total(a, |t| t.compute), total(b, |t| t.compute)),
        send_overhead: DeltaNs::between(
            total(a, |t| t.send_overhead),
            total(b, |t| t.send_overhead),
        ),
        service: DeltaNs::between(total(a, |t| t.service), total(b, |t| t.service)),
        remote_wait: DeltaNs::between(total(a, |t| t.remote_wait), total(b, |t| t.remote_wait)),
        barrier_wait: DeltaNs::between(total(a, |t| t.barrier_wait), total(b, |t| t.barrier_wait)),
        sched_wait: DeltaNs::between(total(a, |t| t.sched_wait), total(b, |t| t.sched_wait)),
        messages: b.network.messages as i128 - a.network.messages as i128,
        bytes: b.network.bytes as i128 - a.network.bytes as i128,
    }
}

impl PredictionDiff {
    /// Renders the diff as a small report (positive = B spends more).
    pub fn render(&self, label_a: &str, label_b: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "prediction diff: {label_b} - {label_a}");
        let rows = [
            ("exec time", self.exec_time),
            ("compute", self.compute),
            ("send overhead", self.send_overhead),
            ("service", self.service),
            ("remote wait", self.remote_wait),
            ("barrier wait", self.barrier_wait),
            ("sched wait", self.sched_wait),
        ];
        for (name, d) in rows {
            let _ = writeln!(out, "  {name:14} {:>+12.3} ms", d.as_ms());
        }
        let _ = writeln!(out, "  {:14} {:>+12}", "messages", self.messages);
        let _ = writeln!(out, "  {:14} {:>+12}", "bytes", self.bytes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{machine, Extrapolator};
    use extrap_time::{DurationNs, ElementId, ThreadId};
    use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork};

    fn traced() -> extrap_trace::TraceSet {
        let mut p = PhaseProgram::new(4);
        for _ in 0..3 {
            let work = (0..4)
                .map(|t| PhaseWork {
                    compute: DurationNs::from_us(100.0),
                    accesses: vec![PhaseAccess {
                        after: DurationNs::from_us(50.0),
                        owner: ThreadId::from_index((t + 1) % 4),
                        element: ElementId::from_index(t),
                        declared_bytes: 8_192,
                        actual_bytes: 8_192,
                        write: false,
                    }],
                })
                .collect();
            p.push_phase(work);
        }
        extrap_trace::translate(&p.record(), Default::default()).unwrap()
    }

    #[test]
    fn identical_predictions_diff_to_zero() {
        let ts = traced();
        let a = Extrapolator::new(machine::cm5()).run(&ts).unwrap();
        let b = Extrapolator::new(machine::cm5()).run(&ts).unwrap();
        let d = diff(&a, &b);
        assert_eq!(d.exec_time, DeltaNs(0));
        assert_eq!(d.messages, 0);
    }

    #[test]
    fn slower_network_shows_up_as_remote_wait() {
        let ts = traced();
        let fast = Extrapolator::new(machine::cm5()).run(&ts).unwrap();
        let mut slow_params = machine::cm5();
        slow_params.comm = slow_params.comm.with_bandwidth_mbps(1.0);
        let slow = Extrapolator::new(slow_params.clone()).run(&ts).unwrap();
        let d = diff(&fast, &slow);
        assert!(d.exec_time.0 > 0, "slower network, longer run");
        // Remote wait grows, and more than any other overhead category.
        assert!(d.remote_wait.0 > 0);
        for other in [d.send_overhead, d.service, d.barrier_wait, d.sched_wait] {
            assert!(
                other.0.abs() < d.remote_wait.0,
                "{other:?} vs {:?}",
                d.remote_wait
            );
        }
    }

    #[test]
    fn render_mentions_labels_and_signs() {
        let ts = traced();
        let a = Extrapolator::new(machine::cm5()).run(&ts).unwrap();
        let mut p2 = machine::cm5();
        p2.mips_ratio = 2.0;
        let b = Extrapolator::new(p2.clone()).run(&ts).unwrap();
        let text = diff(&a, &b).render("cm5", "cm5-slow-cpu");
        assert!(text.contains("cm5-slow-cpu - cm5"));
        assert!(text.contains('+'), "{text}");
    }

    #[test]
    #[should_panic(expected = "not comparable")]
    fn different_programs_are_rejected() {
        let ts = traced();
        let mut p2 = PhaseProgram::new(2);
        p2.push_uniform_phase(DurationNs(100));
        let ts2 = extrap_trace::translate(&p2.record(), Default::default()).unwrap();
        let a = Extrapolator::new(machine::cm5()).run(&ts).unwrap();
        let b = Extrapolator::new(machine::cm5()).run(&ts2).unwrap();
        let _ = diff(&a, &b);
    }
}
