#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # extrap-proto — the extrapolation-service protocol
//!
//! The job-oriented request/response layer every ExtraP-rs surface
//! speaks: the `extrap` CLI, the `extrap-serve` daemon, and in-process
//! callers all submit the same [`Request`] values and consume the same
//! [`Response`] values, instead of each growing its own ad-hoc API over
//! the `Extrapolator`'s entry points.
//!
//! On the wire, values travel as length-prefixed binary frames (see
//! [`wire`]): a 4-byte magic, a `u32` payload length, then a versioned
//! tagged little-endian payload.  The codec is std-only and declares
//! each layout once — one field list per struct, one `tag => Variant`
//! list per message, which both encode and decode walk.  It is fully
//! deterministic: encode∘decode is the identity on bytes, which the
//! protocol property tests check with randomized values, and
//! `tests/golden.rs` pins the exact payload of every variant.
//!
//! The request set mirrors the session workflow the paper's economics
//! suggest (translate/compile once, answer many what-if questions):
//!
//! * [`Request::SubmitTrace`] — upload a trace once, get a [`TraceId`];
//! * [`Request::Simulate`] — one prediction of a submitted trace under
//!   one parameter set (a job; results are fetched by [`JobId`]);
//! * [`Request::Sweep`] — a benchmark × processor grid under one
//!   parameter set (also a job; compatible sweeps are batched
//!   server-side into shared grids);
//! * [`Request::FetchResult`] — poll/wait for a job's outcome;
//! * [`Request::Evict`] / [`Request::Stats`] / [`Request::Shutdown`] —
//!   cache and lifecycle management.

pub mod wire;

use extrap_core::{Prediction, ProcBreakdown};

pub use wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ProtoError, FRAME_MAGIC, MAX_FRAME_LEN, PROTO_VERSION,
};

/// Identifies a trace submitted to (and resident in) a server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies an accepted job (simulate or sweep) on a server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// A client request.
///
/// Parameter sets travel as `SimParams` config text (the same
/// `key = value` form `extrap params` prints and `--params` files use),
/// so the wire format never chases the parameter struct: unknown keys
/// are rejected by the same parser everywhere.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Upload a trace file image (`XTRP` program trace or `XTPS`
    /// translated set; the server sniffs the magic, translating program
    /// traces with default options).  Responds [`Response::Submitted`].
    SubmitTrace {
        /// Caller's label for the trace (diagnostics only).
        name: String,
        /// The trace file bytes, exactly as stored on disk.
        payload: Vec<u8>,
    },
    /// Extrapolate a submitted trace under one parameter set.
    /// Responds [`Response::Accepted`]; fetch the
    /// [`Response::Prediction`] with [`Request::FetchResult`].
    Simulate {
        /// The trace to replay.
        trace: TraceId,
        /// Parameter set as config text (empty = defaults).
        params: String,
    },
    /// Extrapolate a named-benchmark grid under one parameter set.
    /// Responds [`Response::Accepted`]; fetch the
    /// [`Response::SweepRows`] with [`Request::FetchResult`].
    Sweep(SweepSpec),
    /// Poll for a job's result, waiting server-side up to `wait_ms`
    /// before answering [`Response::Pending`].  Results are consumed by
    /// the fetch that delivers them.
    FetchResult {
        /// The job to poll.
        job: JobId,
        /// Longest the server may hold the request open (milliseconds).
        wait_ms: u32,
    },
    /// Drop a submitted trace. Responds [`Response::Evicted`].
    Evict {
        /// The trace to drop.
        trace: TraceId,
    },
    /// Server statistics. Responds [`Response::Stats`].
    Stats,
    /// Begin graceful shutdown: in-flight jobs drain, new work is
    /// refused. Responds [`Response::Bye`].
    Shutdown,
    /// The `extrap stats` report of a submitted trace — marker phases
    /// plus (with `phases`) the barrier-epoch cluster table.  Answered
    /// synchronously with [`Response::Phases`], whose text is
    /// byte-identical to the local `extrap stats` output (both sides
    /// call the same renderer).
    Phases {
        /// The trace to profile.
        trace: TraceId,
        /// Include the barrier-epoch cluster table (`--phases`).
        phases: bool,
        /// Cluster budget (`--max-clusters`).
        max_clusters: u32,
        /// Signature-distance tolerance (`--tolerance`).
        tolerance: f64,
    },
    /// Static work/span bound analysis of a submitted trace under one
    /// parameter set — no simulation runs.  Answered synchronously with
    /// [`Response::Analyzed`].
    Analyze {
        /// The trace to analyze.
        trace: TraceId,
        /// Parameter set as config text (empty = defaults).
        params: String,
        /// Render format (`text` | `json` | `csv`).
        format: String,
    },
}

/// The grid one [`Request::Sweep`] asks for — the wire form of
/// `extrap sweep <benches> --procs ... --scale ...`.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Benchmark names (see `extrap benches`).
    pub benches: Vec<String>,
    /// Processor counts.
    pub procs: Vec<u32>,
    /// Problem scale (`tiny` | `small` | `paper`).
    pub scale: String,
    /// Parameter set as config text (empty = defaults).
    pub params: String,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A trace was stored.
    Submitted {
        /// Handle for later [`Request::Simulate`] / [`Request::Evict`].
        trace: TraceId,
        /// Threads in the (translated) trace.
        n_threads: u32,
        /// What the resident entry is charged against the memory budget.
        resident_bytes: u64,
    },
    /// A job was queued.
    Accepted {
        /// Handle for [`Request::FetchResult`].
        job: JobId,
    },
    /// The job exists but has not finished inside the fetch's wait.
    Pending {
        /// The polled job.
        job: JobId,
    },
    /// A finished [`Request::Simulate`] job's metrics.
    Prediction(PredictionSummary),
    /// A finished [`Request::Sweep`] job's grid, in job order
    /// (`benches` major, `procs` minor — the same order `extrap sweep`
    /// prints).
    SweepRows(Vec<SweepRow>),
    /// A trace was dropped.
    Evicted {
        /// Bytes the entry was holding.
        freed_bytes: u64,
    },
    /// Server statistics.
    Stats(ServerStats),
    /// The request failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Acknowledges [`Request::Shutdown`].
    Bye,
    /// A [`Request::Phases`] report, rendered server-side by the same
    /// code path as local `extrap stats`.
    Phases {
        /// The rendered report.
        text: String,
    },
    /// A [`Request::Analyze`] result, rendered server-side by the same
    /// code path as local `extrap analyze`.
    Analyzed {
        /// The rendered analysis in the requested format.
        rendered: String,
    },
}

/// Machine-readable failure classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed or semantically invalid.
    BadRequest,
    /// The referenced trace is not resident (never submitted, or
    /// evicted under memory pressure).
    UnknownTrace,
    /// The referenced job does not exist (never accepted, or its result
    /// was already fetched).
    UnknownJob,
    /// The server is at capacity; retry later (backpressure).
    Busy,
    /// The job or request exceeded its deadline.
    Timeout,
    /// The server is draining and refuses new work.
    ShuttingDown,
    /// The pipeline failed internally (simulation error, poisoned
    /// state); detail carries the rendered cause.
    Internal,
}

impl ErrorCode {
    /// Each code's stable wire byte and display name, stated once.
    const ROWS: [(ErrorCode, u8, &'static str); 7] = [
        (ErrorCode::BadRequest, 1, "bad-request"),
        (ErrorCode::UnknownTrace, 2, "unknown-trace"),
        (ErrorCode::UnknownJob, 3, "unknown-job"),
        (ErrorCode::Busy, 4, "busy"),
        (ErrorCode::Timeout, 5, "timeout"),
        (ErrorCode::ShuttingDown, 6, "shutting-down"),
        (ErrorCode::Internal, 7, "internal"),
    ];

    fn row(self) -> &'static (ErrorCode, u8, &'static str) {
        Self::ROWS
            .iter()
            .find(|row| row.0 == self)
            .expect("every code has a row")
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.row().2)
    }
}

/// One sweep grid point: `(bench, procs)` and its predicted execution
/// time in exact integer nanoseconds, so clients can re-derive any
/// float rendering (CSV milliseconds included) byte-identically to the
/// in-process pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepRow {
    /// Benchmark name.
    pub bench: String,
    /// Processor count.
    pub procs: u32,
    /// Predicted execution time, integer nanoseconds.
    pub exec_time_ns: u64,
}

/// Per-thread slice of a [`PredictionSummary`], all times in exact
/// integer nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct BreakdownRow {
    /// Scaled computation time.
    pub compute_ns: u64,
    /// Message construction + startup overhead.
    pub send_overhead_ns: u64,
    /// Time servicing other threads' remote requests.
    pub service_ns: u64,
    /// Time blocked on remote-read replies.
    pub remote_wait_ns: u64,
    /// Time waiting inside barriers.
    pub barrier_wait_ns: u64,
    /// Predicted completion time.
    pub end_time_ns: u64,
}

/// The scalar metrics of one prediction — everything `extrap simulate`
/// prints, without the (potentially huge) predicted trace.  Service
/// jobs run `RecordMode::MetricsOnly`, so this is also exactly what the
/// server computes.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictionSummary {
    /// Threads in the program.
    pub n_threads: u32,
    /// Processors of the target machine.
    pub n_procs: u32,
    /// Predicted execution time, integer nanoseconds.
    pub exec_time_ns: u64,
    /// Barriers completed.
    pub barriers: u64,
    /// Messages injected into the interconnect.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Sum of contention delay factors over all messages (mean factor
    /// = `contention_factor_sum / messages`); transported as exact
    /// `f64` bits.
    pub contention_factor_sum: f64,
    /// Simulator events dispatched (extrapolation cost metric).
    pub events_dispatched: u64,
    /// Per-thread time breakdown.
    pub per_thread: Vec<BreakdownRow>,
}

impl From<&Prediction> for PredictionSummary {
    fn from(p: &Prediction) -> PredictionSummary {
        PredictionSummary {
            n_threads: p.n_threads as u32,
            n_procs: p.n_procs as u32,
            exec_time_ns: p.exec_time().as_ns(),
            barriers: p.barriers as u64,
            messages: p.network.messages,
            bytes: p.network.bytes,
            contention_factor_sum: p.network.factor_sum,
            events_dispatched: p.events_dispatched,
            per_thread: p.per_thread.iter().map(BreakdownRow::from).collect(),
        }
    }
}

impl From<&ProcBreakdown> for BreakdownRow {
    fn from(b: &ProcBreakdown) -> BreakdownRow {
        BreakdownRow {
            compute_ns: b.compute.0,
            send_overhead_ns: b.send_overhead.0,
            service_ns: b.service.0,
            remote_wait_ns: b.remote_wait.0,
            barrier_wait_ns: b.barrier_wait.0,
            end_time_ns: b.end_time.0,
        }
    }
}

/// Counters one [`Response::Stats`] reports.  All cumulative unless
/// noted; gauges are point-in-time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Currently open connections (gauge).
    pub active_connections: u32,
    /// Requests handled.
    pub requests: u64,
    /// Jobs waiting or running (gauge).
    pub jobs_inflight: u32,
    /// Jobs completed successfully.
    pub jobs_done: u64,
    /// Jobs completed with an error.
    pub jobs_failed: u64,
    /// Sweep batches executed (each covers ≥ 1 coalesced sweep job).
    pub sweep_batches: u64,
    /// Sweep jobs that rode a batch started by another job.
    pub coalesced_sweeps: u64,
    /// Submitted traces currently resident (gauge).
    pub traces_resident: u32,
    /// Bytes resident across submitted traces and the sweep cache
    /// (gauge).
    pub resident_bytes: u64,
    /// Configured memory budget in bytes (0 = unlimited).
    pub mem_budget_bytes: u64,
    /// Entries evicted (LRU budget sweeps + explicit evicts).
    pub evictions: u64,
    /// Trace translations run by the sweep cache.
    pub translations: u64,
}
