//! The reference machine: the trace-driven engine with the link-level
//! network substituted.

use crate::link::{LinkNetwork, LinkParams};
use extrap_core::{CompiledProgram, ExtrapError, Prediction, SimParams, SimScratch};

/// A target machine simulated at link level — the "measured" side of the
/// validation experiments.
#[derive(Clone, Debug)]
pub struct RefMachine {
    /// The machine's model parameters (same structure as extrapolation
    /// parameters, so an identical machine description drives both
    /// simulators).
    pub params: SimParams,
    /// Link-level detail parameters.
    pub link: LinkParams,
}

impl RefMachine {
    /// Builds a reference machine from extrapolation parameters with
    /// default link detail.
    pub fn new(params: SimParams) -> RefMachine {
        RefMachine {
            params,
            link: LinkParams::default(),
        }
    }

    /// "Measures" the program on this machine (runs the detailed
    /// simulation over the compiled translated traces).
    pub fn measure(&self, program: &CompiledProgram) -> Result<Prediction, ExtrapError> {
        let n_procs = self
            .params
            .multithread
            .mapping
            .n_procs(program.n_threads().max(1));
        let net = LinkNetwork::new(
            n_procs,
            self.params.network,
            self.params.comm.byte_transfer,
            self.link,
        );
        extrap_core::run_with_network(program, &self.params, net, &mut SimScratch::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_core::{machine, Extrapolator};
    use extrap_time::{DurationNs, ElementId, ThreadId};
    use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork, TraceSet};

    fn ring(n: usize, phases: usize, us: f64, bytes: u32) -> TraceSet {
        let mut p = PhaseProgram::new(n);
        for _ in 0..phases {
            let work = (0..n)
                .map(|t| PhaseWork {
                    compute: DurationNs::from_us(us),
                    accesses: vec![PhaseAccess {
                        after: DurationNs::from_us(us / 2.0),
                        owner: ThreadId::from_index((t + 1) % n),
                        element: ElementId::from_index(t),
                        declared_bytes: bytes,
                        actual_bytes: bytes,
                        write: false,
                    }],
                })
                .collect();
            p.push_phase(work);
        }
        extrap_trace::translate(&p.record(), Default::default()).unwrap()
    }

    #[test]
    fn reference_measurement_completes_and_is_deterministic() {
        let ts = ring(8, 3, 50.0, 4_096);
        let program = CompiledProgram::compile(&ts).unwrap();
        let m = RefMachine::new(machine::cm5());
        let a = m.measure(&program).unwrap();
        let b = m.measure(&program).unwrap();
        assert_eq!(a.exec_time(), b.exec_time());
        assert!(a.exec_time().as_ns() > 0);
        a.predicted.validate().unwrap();
    }

    #[test]
    fn metrics_only_changes_nothing_but_the_predicted_trace() {
        // The record-mode split applies to the link-level simulator too:
        // "measured" sides of validation runs only consume exec_time().
        let program = CompiledProgram::compile(&ring(8, 3, 50.0, 4_096)).unwrap();
        let full = RefMachine::new(machine::cm5()).measure(&program).unwrap();
        let mut params = machine::cm5();
        params.record_mode = extrap_core::RecordMode::MetricsOnly;
        let lean = RefMachine::new(params).measure(&program).unwrap();
        assert_eq!(full.exec_time(), lean.exec_time());
        assert_eq!(full.per_thread, lean.per_thread);
        assert_eq!(full.barriers, lean.barriers);
        assert_eq!(full.network, lean.network);
        assert!(lean.predicted.threads.is_empty(), "no predicted trace");
        assert!(!full.predicted.threads.is_empty());
    }

    #[test]
    fn link_level_and_analytic_agree_on_order_of_magnitude() {
        // The two simulators model the same machine; on a lightly loaded
        // pattern their predictions should be close (within 2x), since
        // contention is mild.
        let program = CompiledProgram::compile(&ring(4, 3, 200.0, 1_024)).unwrap();
        let params = machine::cm5();
        let high = Extrapolator::new(params.clone())
            .run(&program)
            .unwrap()
            .exec_time();
        let refm = RefMachine::new(params)
            .measure(&program)
            .unwrap()
            .exec_time();
        let ratio = refm.as_ns() as f64 / high.as_ns() as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "analytic {high} vs link-level {refm} (ratio {ratio})"
        );
    }

    #[test]
    fn link_level_penalizes_hot_spots_harder() {
        // All-to-one fan-in: every thread reads from thread 0 each phase.
        let n = 8;
        let mut p = PhaseProgram::new(n);
        for _ in 0..2 {
            let work = (0..n)
                .map(|t| PhaseWork {
                    compute: DurationNs::from_us(20.0),
                    accesses: if t == 0 {
                        vec![]
                    } else {
                        vec![PhaseAccess {
                            after: DurationNs::from_us(10.0),
                            owner: ThreadId(0),
                            element: ElementId(0),
                            declared_bytes: 16_384,
                            actual_bytes: 16_384,
                            write: false,
                        }]
                    },
                })
                .collect();
            p.push_phase(work);
        }
        let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
        let program = CompiledProgram::compile(&ts).unwrap();
        let params = machine::cm5();
        let analytic = Extrapolator::new(params.clone())
            .run(&program)
            .unwrap()
            .exec_time();
        let linklevel = RefMachine::new(params)
            .measure(&program)
            .unwrap()
            .exec_time();
        // Fan-in serializes at thread 0's ingress; the detailed model
        // must not be faster than the analytic one here.
        assert!(
            linklevel.as_ns() >= analytic.as_ns() * 9 / 10,
            "analytic {analytic} link {linklevel}"
        );
    }
}
