//! Shared server state: the resident-trace store, the job table and
//! work queue, and the [`Session`] dispatcher every surface (TCP
//! connections and in-process callers alike) routes requests through.

use crate::ServeConfig;
use extrap_core::sweep::CachedTrace;
use extrap_core::{
    compile_trace_stream, machine, CancelToken, RecordMode, SharedTraceCache, SimParams,
};
use extrap_proto::{
    ErrorCode, JobId, PredictionSummary, Request, Response, ServerStats, SweepRow, SweepSpec,
    TraceId,
};
use extrap_trace::stream::{SliceSource, TraceStream};
use extrap_trace::{PhaseFold, PhaseProfile};
use extrap_workloads::{Bench, Scale};
use pcpp_rt::sync::{AtomicFlag, Condvar, Instant, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sweep-cache key: `(benchmark, n_procs, scale)`.  Unlike the CLI's
/// per-invocation cache, the server's cache persists across requests
/// that may use different problem scales, so the scale is part of the
/// identity.
pub(crate) type SweepKey = (Bench, usize, Scale);

/// Decodes wire parameter text (empty = the CLI's default machine) and
/// forces `MetricsOnly`: service jobs only ever report scalar metrics,
/// so recording predicted traces would be pure memory burn.
fn parse_params(text: &str) -> Result<SimParams, String> {
    let mut params = if text.is_empty() {
        machine::default_distributed()
    } else {
        SimParams::from_config_text(text)?
    };
    params.record_mode = RecordMode::MetricsOnly;
    Ok(params)
}

fn err(code: ErrorCode, detail: impl Into<String>) -> Response {
    Response::Error {
        code,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Work items
// ---------------------------------------------------------------------

/// An admitted simulate job, with its trace resolved at admission so a
/// later eviction cannot fail a queued job.
pub(crate) struct SimWork {
    pub(crate) job: JobId,
    pub(crate) trace: Arc<CachedTrace>,
    pub(crate) params: SimParams,
}

/// An admitted sweep job.  `compat` is the canonical parameter text;
/// two sweeps coalesce into one batch iff their `(scale, compat)`
/// pairs match (canonical text round-trips through the parser, so equal
/// text means equal parameters).
pub(crate) struct SweepWork {
    pub(crate) job: JobId,
    pub(crate) benches: Vec<Bench>,
    pub(crate) procs: Vec<u32>,
    pub(crate) scale: Scale,
    pub(crate) params: SimParams,
    pub(crate) compat: String,
}

pub(crate) enum Work {
    Simulate(SimWork),
    Sweep(SweepWork),
}

/// A queue entry: the work plus the deadline after which it fails with
/// `Timeout` instead of running.
pub(crate) struct QueuedWork {
    pub(crate) work: Work,
    pub(crate) deadline: Instant,
}

impl QueuedWork {
    fn job(&self) -> JobId {
        match &self.work {
            Work::Simulate(s) => s.job,
            Work::Sweep(s) => s.job,
        }
    }
}

// ---------------------------------------------------------------------
// Job table
// ---------------------------------------------------------------------

/// A finished job's deliverable.
pub(crate) enum JobPayload {
    Prediction(PredictionSummary),
    Rows(Vec<SweepRow>),
}

pub(crate) type JobOutcome = Result<JobPayload, (ErrorCode, String)>;

enum JobState {
    Queued,
    Running,
    Done(JobOutcome),
}

struct JobEntry {
    state: JobState,
    /// The owning session's unfetched-jobs gauge (per-connection
    /// backpressure); decremented when the result is consumed.
    owner_unfetched: Arc<AtomicU32>,
    /// Cleared when the owning session hangs up: results completed for
    /// a dead owner are dropped instead of parked forever.
    owner_alive: Arc<AtomicBool>,
}

#[derive(Default)]
struct JobTable {
    queue: VecDeque<QueuedWork>,
    entries: HashMap<JobId, JobEntry>,
    /// Jobs queued or running — the global backpressure gauge.
    inflight: usize,
    /// Jobs currently executing on a worker.
    running: usize,
}

// ---------------------------------------------------------------------
// Trace store
// ---------------------------------------------------------------------

struct StoredTrace {
    /// The label the client submitted under (synchronous renders print it).
    name: String,
    /// The marker-phase profiles of the submitted trace, folded once at
    /// submit for `Phases` reports.
    profiles: Arc<BTreeMap<u32, PhaseProfile>>,
    cached: Arc<CachedTrace>,
    last_used: u64,
}

impl StoredTrace {
    /// What the memory budget charges for this trace: its compiled
    /// program plus the marker-phase profiles.
    fn resident_bytes(&self) -> usize {
        self.cached.resident_bytes()
            + self.profiles.len() * std::mem::size_of::<(u32, PhaseProfile)>()
    }
}

#[derive(Default)]
struct TraceStore {
    entries: HashMap<TraceId, StoredTrace>,
    clock: u64,
}

impl TraceStore {
    fn resident_bytes(&self) -> usize {
        self.entries.values().map(StoredTrace::resident_bytes).sum()
    }
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    active_connections: AtomicU32,
    requests: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    sweep_batches: AtomicU64,
    coalesced_sweeps: AtomicU64,
    store_evictions: AtomicU64,
    submit_translations: AtomicU64,
}

// ---------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------

/// The shared heart of a server: every connection thread, worker
/// thread, and in-process [`Session`] holds the same `Arc<Service>`.
///
/// All blocking coordination (job table, work/done condvars, the drain
/// flag) goes through [`pcpp_rt::sync`], so the whole submit → execute
/// → fetch → drain protocol is visible to the `extrap-check` model
/// checker; see its `job-table` scenario.
pub struct Service {
    config: ServeConfig,
    started: Instant,
    shutting_down: AtomicFlag,
    cancel: CancelToken,
    next_trace: AtomicU64,
    next_job: AtomicU64,
    store: Mutex<TraceStore>,
    sweep_cache: SharedTraceCache<SweepKey>,
    table: Mutex<JobTable>,
    /// Wakes workers when work is queued (or shutdown begins).
    work_cv: Condvar,
    /// Wakes `FetchResult` waiters when a job completes.
    done_cv: Condvar,
    counters: Counters,
}

impl Service {
    pub(crate) fn new(config: ServeConfig) -> Service {
        Service {
            config,
            started: Instant::now(),
            shutting_down: AtomicFlag::new(false),
            cancel: CancelToken::new(),
            next_trace: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
            store: Mutex::new(TraceStore::default()),
            sweep_cache: SharedTraceCache::new(),
            table: Mutex::new(JobTable::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            counters: Counters::default(),
        }
    }

    /// Builds a standalone service for in-process use: scenario tests
    /// and embedders that drive [`Session`]s and
    /// [`run_worker`](Service::run_worker) directly, with no TCP
    /// surface.  The `extrap-check` job-table scenario model-checks the
    /// service through exactly this entry point.
    pub fn new_in_process(config: ServeConfig) -> Arc<Service> {
        Arc::new(Service::new(config))
    }

    /// Runs one worker loop on the calling thread until the service
    /// drains — the in-process equivalent of a [`crate::Server`] worker
    /// thread.
    pub fn run_worker(self: &Arc<Service>) {
        crate::worker::run(self);
    }

    /// Opens a session — the in-process equivalent of connecting.
    pub fn session(self: &Arc<Service>) -> Session {
        Session {
            service: Arc::clone(self),
            unfetched: Arc::new(AtomicU32::new(0)),
            alive: Arc::new(AtomicBool::new(true)),
            jobs: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn config(&self) -> &ServeConfig {
        &self.config
    }

    pub(crate) fn sweep_cache(&self) -> &SharedTraceCache<SweepKey> {
        &self.sweep_cache
    }

    pub(crate) fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Flips the drain flag and wakes everyone blocked on state.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true);
        let _guard = self.table.lock();
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Whether [`begin_shutdown`](Service::begin_shutdown) has run.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load()
    }

    /// Whether the drain is complete: shutting down with nothing queued
    /// or running.  Results may still be parked for their owners.
    pub fn drained(&self) -> bool {
        if !self.is_shutting_down() {
            return false;
        }
        let table = self.table.lock();
        table.queue.is_empty() && table.running == 0
    }

    // -- connection accounting (TCP surface only) ---------------------

    /// Admits a connection unless at the limit; counts it if admitted.
    pub(crate) fn try_open_conn(&self) -> bool {
        let c = &self.counters;
        loop {
            let active = c.active_connections.load(Ordering::Relaxed);
            if active as usize >= self.config.max_connections {
                return false;
            }
            if c.active_connections
                .compare_exchange(active, active + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                c.connections.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
    }

    pub(crate) fn conn_closed(&self) {
        self.counters
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    }

    // -- worker-side queue operations ---------------------------------

    /// Blocks for the next queue item; `None` once the server is
    /// shutting down and the queue has drained.
    pub(crate) fn next_work(&self) -> Option<QueuedWork> {
        let mut table = self.table.lock();
        loop {
            if let Some(qw) = table.queue.pop_front() {
                table.running += 1;
                if let Some(e) = table.entries.get_mut(&qw.job()) {
                    e.state = JobState::Running;
                }
                return Some(qw);
            }
            if self.is_shutting_down() {
                return None;
            }
            self.work_cv.wait(&mut table);
        }
    }

    /// Pulls every queued sweep compatible with `(scale, compat)`
    /// out of the queue (marking them running), leaving everything else
    /// in order — the coalescing step of a batch.
    pub(crate) fn drain_compatible(&self, scale: Scale, compat: &str) -> Vec<QueuedWork> {
        let mut table = self.table.lock();
        let mut kept = VecDeque::with_capacity(table.queue.len());
        let mut out = Vec::new();
        while let Some(qw) = table.queue.pop_front() {
            match &qw.work {
                Work::Sweep(s) if s.scale == scale && s.compat == compat => {
                    table.running += 1;
                    if let Some(e) = table.entries.get_mut(&s.job) {
                        e.state = JobState::Running;
                    }
                    out.push(qw);
                }
                _ => kept.push_back(qw),
            }
        }
        table.queue = kept;
        out
    }

    /// Records one executed sweep batch covering `members` jobs.
    pub(crate) fn count_sweep_batch(&self, members: usize) {
        self.counters.sweep_batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .coalesced_sweeps
            .fetch_add(members.saturating_sub(1) as u64, Ordering::Relaxed);
    }

    /// Lands a job's outcome and wakes fetchers.  Results whose owner
    /// already hung up are dropped on the floor.
    pub(crate) fn complete(&self, job: JobId, outcome: JobOutcome) {
        match &outcome {
            Ok(_) => self.counters.jobs_done.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.counters.jobs_failed.fetch_add(1, Ordering::Relaxed),
        };
        let mut table = self.table.lock();
        table.inflight = table.inflight.saturating_sub(1);
        table.running = table.running.saturating_sub(1);
        if let Some(e) = table.entries.get_mut(&job) {
            if e.owner_alive.load(Ordering::Relaxed) {
                e.state = JobState::Done(outcome);
            } else {
                e.owner_unfetched.fetch_sub(1, Ordering::Relaxed);
                table.entries.remove(&job);
            }
        }
        drop(table);
        self.done_cv.notify_all();
    }

    // -- memory budget ------------------------------------------------

    /// Brings resident memory (submitted traces + the sweep cache) back
    /// under the configured budget.  Sweep-cache entries are
    /// recomputable from benchmark generators, so they go first; only
    /// then are least-recently-used submitted traces dropped (their
    /// next use fails with `UnknownTrace` and the client resubmits).
    pub(crate) fn enforce_budget(&self) {
        let budget = self.config.mem_budget_bytes;
        if budget == 0 {
            return;
        }
        let store_bytes = self.store.lock().resident_bytes();
        self.sweep_cache
            .evict_to_budget(budget.saturating_sub(store_bytes));
        let cache_bytes = self.sweep_cache.resident_bytes();
        let mut store = self.store.lock();
        let mut total = cache_bytes + store.resident_bytes();
        while total > budget {
            let victim = store
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| *id);
            let Some(id) = victim else { break };
            let freed = store
                .entries
                .remove(&id)
                .map(|e| e.resident_bytes())
                .unwrap_or(0);
            total = total.saturating_sub(freed);
            self.counters
                .store_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resolves a submitted trace, refreshing its LRU stamp, and reads
    /// what the caller needs off it (shared handles, so the work runs
    /// outside the store lock).
    fn touch_trace<T>(&self, id: TraceId, read: impl FnOnce(&StoredTrace) -> T) -> Option<T> {
        let mut store = self.store.lock();
        store.clock += 1;
        let stamp = store.clock;
        let e = store.entries.get_mut(&id)?;
        e.last_used = stamp;
        Some(read(e))
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        let (traces_resident, store_bytes) = {
            let store = self.store.lock();
            (store.entries.len(), store.resident_bytes())
        };
        let inflight = self.table.lock().inflight;
        let c = &self.counters;
        ServerStats {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            connections: c.connections.load(Ordering::Relaxed),
            active_connections: c.active_connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            jobs_inflight: inflight as u32,
            jobs_done: c.jobs_done.load(Ordering::Relaxed),
            jobs_failed: c.jobs_failed.load(Ordering::Relaxed),
            sweep_batches: c.sweep_batches.load(Ordering::Relaxed),
            coalesced_sweeps: c.coalesced_sweeps.load(Ordering::Relaxed),
            traces_resident: traces_resident as u32,
            resident_bytes: (store_bytes + self.sweep_cache.resident_bytes()) as u64,
            mem_budget_bytes: self.config.mem_budget_bytes as u64,
            evictions: c.store_evictions.load(Ordering::Relaxed)
                + self.sweep_cache.evictions() as u64,
            translations: c.submit_translations.load(Ordering::Relaxed)
                + self.sweep_cache.translations() as u64,
        }
    }
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// One client's view of a [`Service`]: admission, per-connection
/// backpressure, and result delivery.  A TCP connection owns exactly
/// one; in-process callers get one from [`Service::session`].  Dropping
/// a session releases its parked results and lets in-flight jobs
/// discard theirs on completion.
pub struct Session {
    service: Arc<Service>,
    unfetched: Arc<AtomicU32>,
    alive: Arc<AtomicBool>,
    jobs: Mutex<Vec<JobId>>,
}

impl Session {
    /// Dispatches one request to its handler — the single entry point
    /// the wire loop and in-process callers share.
    pub fn handle(&self, req: Request) -> Response {
        self.service
            .counters
            .requests
            .fetch_add(1, Ordering::Relaxed);
        match req {
            Request::SubmitTrace { name, payload } => self.submit(name, payload),
            Request::Simulate { trace, params } => self.simulate(trace, &params),
            Request::Sweep(spec) => self.sweep(spec),
            Request::FetchResult { job, wait_ms } => self.fetch(job, wait_ms),
            Request::Evict { trace } => self.evict(trace),
            Request::Stats => Response::Stats(self.service.stats()),
            Request::Phases {
                trace,
                phases,
                max_clusters,
                tolerance,
            } => self.phases(trace, phases.then_some((max_clusters, tolerance))),
            Request::Analyze {
                trace,
                params,
                format,
            } => self.analyze(trace, &params, &format),
            Request::Shutdown => {
                self.service.begin_shutdown();
                Response::Bye
            }
        }
    }

    /// Whether this session still has jobs it has not fetched.
    pub fn has_unfetched(&self) -> bool {
        self.unfetched.load(Ordering::Relaxed) > 0
    }

    fn submit(&self, name: String, payload: Vec<u8>) -> Response {
        if self.service.is_shutting_down() {
            return err(ErrorCode::ShuttingDown, "server is draining");
        }
        // One streaming pass over the payload yields the compiled program
        // and the marker-phase profiles, the only things that outlive
        // this call: admission peak memory is the payload plus the
        // program, never a decoded trace or translated set.  It is the
        // front door local ingest runs, so a corrupt payload draws the
        // error text a local reader prints.
        let mut fold = PhaseFold::default();
        let built = TraceStream::new(SliceSource(&payload)).and_then(|stream| {
            if matches!(stream, TraceStream::Program(_)) {
                self.service
                    .counters
                    .submit_translations
                    .fetch_add(1, Ordering::Relaxed);
            }
            compile_trace_stream(stream, |t, rec| fold.record(t, rec))
        });
        let program = match built {
            Ok(program) => program,
            Err(e) => return err(ErrorCode::BadRequest, e.to_string()),
        };
        let profiles = fold.into_profiles();
        let id = TraceId(self.service.next_trace.fetch_add(1, Ordering::Relaxed) + 1);
        let mut stored = StoredTrace {
            name,
            profiles: Arc::new(profiles),
            cached: Arc::new(CachedTrace::new(program)),
            last_used: 0,
        };
        let n_threads = stored.cached.n_threads() as u32;
        let resident_bytes = stored.resident_bytes() as u64;
        {
            let mut store = self.service.store.lock();
            store.clock += 1;
            stored.last_used = store.clock;
            store.entries.insert(id, stored);
        }
        self.service.enforce_budget();
        Response::Submitted {
            trace: id,
            n_threads,
            resident_bytes,
        }
    }

    fn simulate(&self, trace: TraceId, params_text: &str) -> Response {
        if self.service.is_shutting_down() {
            return err(ErrorCode::ShuttingDown, "server is draining");
        }
        let params = match parse_params(params_text) {
            Ok(p) => p,
            Err(detail) => return err(ErrorCode::BadRequest, detail),
        };
        let Some(cached) = self.service.touch_trace(trace, |e| Arc::clone(&e.cached)) else {
            return err(
                ErrorCode::UnknownTrace,
                format!("trace #{} is not resident (submit it again)", trace.0),
            );
        };
        self.admit(|job| {
            Work::Simulate(SimWork {
                job,
                trace: cached,
                params,
            })
        })
    }

    fn sweep(&self, spec: SweepSpec) -> Response {
        if self.service.is_shutting_down() {
            return err(ErrorCode::ShuttingDown, "server is draining");
        }
        if spec.benches.is_empty() {
            return err(ErrorCode::BadRequest, "sweep needs at least one benchmark");
        }
        let max = extrap_trace::format::MAX_THREADS;
        if spec.procs.is_empty() || spec.procs.iter().any(|&p| p == 0 || p as usize > max) {
            return err(
                ErrorCode::BadRequest,
                format!("sweep needs a non-empty list of processor counts in 1..={max}"),
            );
        }
        let benches = match spec.benches.iter().map(|name| Bench::parse(name)).collect() {
            Ok(benches) => benches,
            Err(detail) => return err(ErrorCode::BadRequest, detail),
        };
        // An empty wire scale is the CLI's default.
        let scale = match spec.scale.as_str() {
            "" => Some(Scale::default()),
            name => Scale::parse(name),
        };
        let Some(scale) = scale else {
            return err(
                ErrorCode::BadRequest,
                format!("unknown scale {:?} (tiny|small|paper)", spec.scale),
            );
        };
        let params = match parse_params(&spec.params) {
            Ok(p) => p,
            Err(detail) => return err(ErrorCode::BadRequest, detail),
        };
        let compat = params.to_config_text();
        self.admit(|job| {
            Work::Sweep(SweepWork {
                job,
                benches,
                procs: spec.procs,
                scale,
                params,
                compat,
            })
        })
    }

    /// Queues validated work under both backpressure bounds.
    fn admit(&self, make: impl FnOnce(JobId) -> Work) -> Response {
        let config = self.service.config();
        if self.unfetched.load(Ordering::Relaxed) as usize >= config.max_inflight_per_conn {
            return err(
                ErrorCode::Busy,
                "connection has too many unfetched jobs; fetch some results first",
            );
        }
        let mut table = self.service.table.lock();
        if table.inflight >= config.max_inflight_jobs {
            return err(ErrorCode::Busy, "server job queue is full; retry shortly");
        }
        let job = JobId(self.service.next_job.fetch_add(1, Ordering::Relaxed) + 1);
        table.entries.insert(
            job,
            JobEntry {
                state: JobState::Queued,
                owner_unfetched: Arc::clone(&self.unfetched),
                owner_alive: Arc::clone(&self.alive),
            },
        );
        table.queue.push_back(QueuedWork {
            work: make(job),
            deadline: Instant::now() + config.request_timeout,
        });
        table.inflight += 1;
        self.unfetched.fetch_add(1, Ordering::Relaxed);
        self.jobs.lock().push(job);
        drop(table);
        self.service.work_cv.notify_one();
        Response::Accepted { job }
    }

    fn fetch(&self, job: JobId, wait_ms: u32) -> Response {
        let wait =
            Duration::from_millis(u64::from(wait_ms)).min(self.service.config().request_timeout);
        let deadline = Instant::now() + wait;
        let mut table = self.service.table.lock();
        loop {
            match table.entries.get(&job) {
                None => {
                    return err(
                        ErrorCode::UnknownJob,
                        format!("job #{} does not exist (or was already fetched)", job.0),
                    )
                }
                Some(e) if matches!(e.state, JobState::Done(_)) => break,
                Some(_) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Response::Pending { job };
                    }
                    self.service
                        .done_cv
                        .wait_timeout(&mut table, deadline.saturating_duration_since(now));
                }
            }
        }
        let entry = table.entries.remove(&job).expect("checked above");
        entry.owner_unfetched.fetch_sub(1, Ordering::Relaxed);
        match entry.state {
            JobState::Done(Ok(JobPayload::Prediction(p))) => Response::Prediction(p),
            JobState::Done(Ok(JobPayload::Rows(rows))) => Response::SweepRows(rows),
            JobState::Done(Err((code, detail))) => Response::Error { code, detail },
            JobState::Queued | JobState::Running => unreachable!("loop exits only on Done"),
        }
    }

    fn evict(&self, id: TraceId) -> Response {
        let mut store = self.service.store.lock();
        match store.entries.remove(&id) {
            Some(e) => {
                self.service
                    .counters
                    .store_evictions
                    .fetch_add(1, Ordering::Relaxed);
                Response::Evicted {
                    freed_bytes: e.resident_bytes() as u64,
                }
            }
            None => err(
                ErrorCode::UnknownTrace,
                format!("trace #{} is not resident", id.0),
            ),
        }
    }

    /// `Phases`: the phase/epoch statistics report, rendered server-side
    /// through the same formatter `extrap stats` uses locally, so the
    /// remote text is byte-identical.  Synchronous — the report is a
    /// cheap pass over an already-resident trace (at most one repr
    /// plan), so it skips the job queue like `Stats` does.
    fn phases(&self, trace: TraceId, epochs: Option<(u32, f64)>) -> Response {
        let Some((profiles, cached)) = self
            .service
            .touch_trace(trace, |e| (Arc::clone(&e.profiles), Arc::clone(&e.cached)))
        else {
            return err(
                ErrorCode::UnknownTrace,
                format!("trace #{} is not resident (submit it again)", trace.0),
            );
        };
        Response::Phases {
            text: extrap_core::render_stats_report(
                &profiles,
                epochs.map(|(k, tol)| (cached.program(), k, tol)),
            ),
        }
    }

    /// `Analyze`: the static work/span bound report for a resident
    /// trace, rendered server-side through the `extrap analyze`
    /// formatter.  Synchronous for the same reason as
    /// [`phases`](Session::phases): closed-form analysis costs one pass
    /// over the compiled program, not a simulation.
    fn analyze(&self, trace: TraceId, params_text: &str, format_text: &str) -> Response {
        let params = match parse_params(params_text) {
            Ok(p) => p,
            Err(detail) => return err(ErrorCode::BadRequest, detail),
        };
        let format_text = if format_text.is_empty() {
            "text"
        } else {
            format_text
        };
        let Some(format) = extrap_analyze::Format::parse(format_text) else {
            return err(
                ErrorCode::BadRequest,
                format!("unknown analyze format {format_text:?} (text|json|csv)"),
            );
        };
        let Some((name, cached)) = self
            .service
            .touch_trace(trace, |e| (e.name.clone(), Arc::clone(&e.cached)))
        else {
            return err(
                ErrorCode::UnknownTrace,
                format!("trace #{} is not resident (submit it again)", trace.0),
            );
        };
        match extrap_analyze::analyze(cached.program(), &params) {
            Ok(analysis) => Response::Analyzed {
                rendered: extrap_analyze::render(&name, &analysis, &[], format),
            },
            Err(e) => err(ErrorCode::BadRequest, e.to_string()),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Relaxed);
        let ids = std::mem::take(&mut *self.jobs.lock());
        let mut table = self.service.table.lock();
        for id in ids {
            if matches!(
                table.entries.get(&id).map(|e| &e.state),
                Some(JobState::Done(_))
            ) {
                table.entries.remove(&id);
            }
        }
    }
}
