#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # perf-extrap — ExtraP-rs umbrella crate
//!
//! A Rust reproduction of *Performance Extrapolation of Parallel Programs*
//! (K. Shanmugam, A. D. Malony, B. Mohr — ICPP 1995 / CIS-TR-95-14).
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`time`] — fixed-point simulation time and ids,
//! * [`trace`] — high-level event traces and the §3.2 translation algorithm,
//! * [`sim`] — the deterministic discrete-event kernel,
//! * [`rt`] — the pC++-style object-parallel runtime (1-processor,
//!   non-preemptive, instrumented),
//! * [`models`] — the ExtraP processor / remote-access / barrier models and
//!   the trace-driven extrapolation engine,
//! * [`refsim`] — the link-level reference machine ("measured" ground truth),
//! * [`workloads`] — the pC++ benchmark suite plus Matmul.
//!
//! ## Quickstart
//!
//! ```
//! use perf_extrap::prelude::*;
//!
//! // 1. Run a 4-thread program on "one processor" and record its trace.
//! let program = Program::new(4);
//! let coll = Collection::<f64>::build(Distribution::block_1d(16, 4), |i| i.0 as f64);
//! let measured = program.run(|ctx| {
//!     let mut acc = 0.0;
//!     for idx in coll.local_indices(ctx.id()) {
//!         acc += coll.read(ctx, idx, |v| *v);
//!         ctx.charge_flops(1);
//!     }
//!     ctx.barrier();
//! });
//!
//! // 2. Translate to idealized per-thread traces.
//! let traces = translate(&measured, TranslateOptions::default()).unwrap();
//!
//! // 3. Extrapolate to a 4-processor CM-5.
//! let prediction = Extrapolator::new(machine::cm5()).run(&traces).unwrap();
//! assert!(prediction.exec_time() > TimeNs::ZERO);
//! ```
//!
//! Whole parameter grids run in parallel through the
//! [`sweep`](models::sweep) engine — see `examples/sweep.rs`.

pub use extrap_core as models;
pub use extrap_refsim as refsim;
pub use extrap_sim as sim;
pub use extrap_time as time;
pub use extrap_trace as trace;
pub use extrap_workloads as workloads;
pub use pcpp_rt as rt;

/// The most common imports in one place.
pub mod prelude {
    pub use extrap_core::{
        extrapolate_clustered, machine, parallel_map, sweep, BarrierAlgorithm, BarrierParams,
        ClusterParams, CommParams, CompiledProgram, Extrapolator, MultithreadParams, NetworkParams,
        Prediction, ProcBreakdown, ReprPlan, RunInput, Scalability, ServicePolicy,
        SharedTraceCache, SimParams, SimStrategy, SizeMode, SweepError, SweepGrid, SweepJob,
        ThreadMapping, Topology,
    };
    pub use extrap_refsim::RefMachine;
    pub use extrap_time::{BarrierId, DurationNs, ElementId, ProcId, ThreadId, TimeNs};
    pub use extrap_trace::{
        phase_profiles, splitmix64, translate, PhaseProgram, ProgramTrace, ThreadTrace, TraceSet,
        TraceStats, TranslateOptions,
    };
    pub use extrap_workloads::{Bench, Scale};
    pub use pcpp_rt::{
        Collection, Collectives, Dist1, Distribution, Index2, Program, ThreadCtx, WorkModel,
    };
}
