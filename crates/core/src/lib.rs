#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # extrap-core — the ExtraP performance-extrapolation models
//!
//! This crate is the paper's primary contribution (§3.3): a trace-driven
//! simulation that takes the *translated* per-thread traces of an
//! *n*-thread program (produced by `extrap-trace` from a 1-processor
//! measurement) and predicts the program's execution on an *n*-processor
//! target machine described by three composable models:
//!
//! * the **processor model** ([`processor`]) — computation-time scaling by
//!   `MipsRatio` and the remote-request **service policy** (no-interrupt,
//!   interrupt, or polling);
//! * the **remote data access model** ([`network`]) — request/reply
//!   messages with start-up, per-byte, and construction costs over a
//!   parameterized interconnect topology with analytic contention;
//! * the **barrier model** ([`barrier`]) — a linear master–slave barrier
//!   with the Table 1 cost parameters (tree and hardware variants are
//!   provided as the paper's "easily substituted" alternatives).
//!
//! The one entry point is the [`Extrapolator`] session and its
//! [`run`](Extrapolator::run) method.  Machine presets (including the
//! paper's CM-5 parameter set, Table 3) live in [`machine`]; a what-if
//! question edits a preset's [`SimParams`] fields before the session
//! starts.  Whole parameter grids run in parallel through the
//! [`sweep`](mod@sweep) engine.

// Parameter sets are built by mutating a preset/default — that is the
// intended API style ("take the CM-5 and change MipsRatio").
#![allow(clippy::field_reassign_with_default)]

pub mod barrier;
pub mod cluster;
pub mod compare;
pub mod engine;
pub mod machine;
pub mod metrics;
pub mod multithread;
pub mod network;
pub mod params;
pub mod processor;
pub mod repr;
pub mod scalability;
pub mod session;
pub mod streaming;
pub mod sweep;

pub use cluster::{extrapolate_clustered, ClusterParams, ClusteredNetwork};
pub use compare::{diff, DeltaNs, PredictionDiff};
pub use engine::{run_with_network, ExtrapError, SimScratch};
pub use metrics::{Prediction, ProcBreakdown};
pub use multithread::{MultithreadParams, ThreadMapping};
pub use network::state::NetModel;
pub use network::topology::Topology;
pub use params::{
    BarrierAlgorithm, BarrierParams, CommParams, ContentionParams, NetworkParams, RecordMode,
    ServicePolicy, SimParams, SimStrategy, SizeMode,
};
pub use processor::{CompiledProgram, CompiledThread, IncrementalCompiler};
pub use repr::{render_stats_report, ReprCluster, ReprPlan};
pub use scalability::{Scalability, ScalePoint};
pub use session::{Extrapolator, RunInput};
pub use streaming::{compile_set_stream, compile_trace_stream};
pub use sweep::{
    parallel_map, parallel_map_with, sweep, sweep_cancellable, CachedTrace, CancelToken,
    SharedTraceCache, SweepError, SweepGrid, SweepJob,
};
