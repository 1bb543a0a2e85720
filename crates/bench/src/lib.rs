#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Shared fixtures and the std-only timing harness for the bench
//! targets.

pub mod harness;

use extrap_core::{CompiledProgram, Extrapolator, Prediction, SimParams};
use extrap_time::{DurationNs, ElementId, ThreadId};
use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace, TraceSet};
use extrap_workloads::{Bench, Scale};

/// A synthetic neighbour-exchange program: `n` threads, `phases` phases
/// of `us` µs compute with one remote read of `bytes` each.
pub fn ring_program(n: usize, phases: usize, us: f64, bytes: u32) -> ProgramTrace {
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
    p.record()
}

/// The translated form of [`ring_program`].
pub fn ring_traces(n: usize, phases: usize, us: f64, bytes: u32) -> TraceSet {
    extrap_trace::translate(&ring_program(n, phases, us, bytes), Default::default())
        .expect("ring program translates")
}

/// Compiles `traces` and extrapolates them onto `params`: one whole
/// prediction from translated traces, compile included.
pub fn predict(params: &SimParams, traces: &TraceSet) -> Prediction {
    let program = CompiledProgram::compile(traces).expect("fixture compiles");
    Extrapolator::new(params.clone())
        .run(&program)
        .expect("fixture extrapolates")
}

/// Tiny-scale translated traces of the full benchmark suite at `procs`.
pub fn suite_traces(procs: usize) -> Vec<(&'static str, TraceSet)> {
    Bench::all()
        .into_iter()
        .map(|b| {
            let ts = extrap_trace::translate(&b.trace(procs, Scale::Tiny), Default::default())
                .expect("suite trace translates");
            (b.name(), ts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let ts = ring_traces(4, 2, 10.0, 64);
        assert_eq!(ts.n_threads(), 4);
        assert_eq!(suite_traces(2).len(), 7);
    }
}
