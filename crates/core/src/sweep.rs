//! The parallel sweep engine.
//!
//! The paper's economics are that **one** 1-processor trace is cheap to
//! re-simulate under *many* `(machine × policy × P)` parameter sets, so
//! sweep-style pipelines dominate real use: every figure of §4 is a grid
//! of extrapolations over the same handful of traces.  This module turns
//! such grids into a declarative job list executed across a fixed worker
//! pool:
//!
//! * [`SweepGrid`] — a cartesian builder producing `(workload, n_procs,
//!   SimParams)` jobs in a deterministic order;
//! * [`SharedTraceCache`] — a concurrent, share-by-`&self` memo table
//!   that translates **and compiles** each `(workload, n)` trace exactly
//!   once (single-flight: two workers never build the same
//!   [`CachedTrace`] twice), so a P×params grid compiles P programs, not
//!   P×|params|;
//! * [`sweep`] / [`parallel_map`] / [`parallel_map_with`] — scoped worker
//!   threads over `std::sync::mpsc`, with results collected **by job
//!   index**, never by completion order, so the output is bit-identical
//!   to the serial loop (`workers = 1` *is* the serial loop).  The
//!   `_with` variant gives each worker a private scratch value; the sweep
//!   engine uses it to recycle one [`SimScratch`] of simulation buffers
//!   per worker across all of its jobs.
//!
//! The build container has no crates.io access, so the pool is plain
//! `std::thread::scope` + `std::sync::mpsc` and the cache synchronizes
//! through `pcpp_rt::sync` (std underneath) rather than the
//! crossbeam/parking_lot equivalents.  Going through `pcpp_rt::sync`
//! also puts every lock, condvar, and cancellation flag under the
//! `extrap-check` model checker's control in checked builds; the
//! interfaces are shaped so other backends could be swapped in without
//! touching callers.
//!
//! ```
//! use extrap_core::sweep::{sweep, SharedTraceCache, SweepGrid};
//! use extrap_core::machine;
//! use extrap_trace::{translate, PhaseProgram};
//! use extrap_time::DurationNs;
//!
//! let jobs = SweepGrid::new()
//!     .workloads(["uniform"])
//!     .procs([1, 2, 4])
//!     .param_sets([machine::cm5(), machine::ideal()])
//!     .jobs();
//! let cache = SharedTraceCache::new();
//! let results = sweep(&jobs, 4, &cache, |&(_, n)| {
//!     let mut p = PhaseProgram::new(n);
//!     p.push_uniform_phase(DurationNs::from_us(100.0));
//!     translate(&p.record(), Default::default())
//! });
//! assert_eq!(results.len(), 6);
//! assert_eq!(cache.translations(), 3); // one per distinct (workload, n)
//! ```

use crate::engine::{self, ExtrapError, SimScratch};
use crate::metrics::Prediction;
use crate::params::SimParams;
use crate::processor::CompiledProgram;
use crate::repr::ReprPlan;
use extrap_trace::{TraceError, TraceSet};
use pcpp_rt::sync::{AtomicFlag, Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

// ---------------------------------------------------------------------
// Concurrent trace cache
// ---------------------------------------------------------------------

/// One cache entry: a compiled program and its memoized
/// representative-region plans.
///
/// Compilation is parameter-independent (see [`CompiledProgram`]), so
/// the cache builds the entry once per key and every parameter set of
/// the grid replays the same `Arc<CachedTrace>`.  The translated
/// [`TraceSet`] the program came from is dropped once compiled: every
/// simulation path (exact and representative) reads only the program.
#[derive(Debug)]
pub struct CachedTrace {
    program: CompiledProgram,
    /// Representative-region plans, memoized per strategy knob pair
    /// `(max_clusters, tolerance.to_bits())`.  A plan depends only on
    /// the compiled program and those knobs, so the whole sweep — every
    /// parameter set, every worker — shares one clustering per trace,
    /// which also makes `repr` output trivially byte-stable across
    /// worker counts.  `None` records "clustering declined".
    repr_plans: ReprPlanMemo,
}

/// Memoized representative-region plans keyed by strategy knobs
/// (`tolerance` stored as its bit pattern for hashability).
type ReprPlanMemo = RwLock<HashMap<(u32, u64), Option<Arc<ReprPlan>>>>;

impl CachedTrace {
    /// Wraps a compiled program, with no representative plans yet.
    pub fn new(program: CompiledProgram) -> CachedTrace {
        CachedTrace {
            program,
            repr_plans: RwLock::new(HashMap::new()),
        }
    }

    /// The representative-region plan for the given strategy knobs,
    /// computed on first request and shared thereafter.  `None` means
    /// clustering found no exploitable repetition — simulate exactly.
    pub fn repr_plan(&self, max_clusters: u32, tolerance: f64) -> Option<Arc<ReprPlan>> {
        let key = (max_clusters, tolerance.to_bits());
        if let Some(plan) = self.repr_plans.read().get(&key) {
            return plan.clone();
        }
        // Racing computations produce identical plans (the clustering
        // is deterministic); first writer wins, duplicates are dropped.
        let plan = ReprPlan::from_program(&self.program, max_clusters, tolerance).map(Arc::new);
        self.repr_plans.write().entry(key).or_insert(plan).clone()
    }

    /// The compiled per-thread op scripts.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Number of threads in the program.
    pub fn n_threads(&self) -> usize {
        self.program.n_threads()
    }

    /// Approximate heap footprint of the compiled scripts in bytes —
    /// what a cache memory budget is charged for holding this entry.
    pub fn resident_bytes(&self) -> usize {
        self.program.resident_bytes()
    }
}

/// A memoized translation outcome.  A failure is memoized as the typed
/// error the build returned; every later hit resurfaces the same
/// failure, variant and all.
///
/// The slot also carries the entry's last-touch stamp (a value drawn
/// from the cache's logical clock on every hit), which is what the LRU
/// eviction sweep orders entries by.
///
/// Single-flight is hand-rolled over a [`Mutex`] + [`Condvar`] state
/// machine rather than `std::sync::OnceLock` so the model checker can
/// suspend a builder while a loser is parked: `OnceLock::get_or_init`
/// blocks losers *inside* std, invisible to (and unschedulable by) the
/// checked backend.
#[derive(Debug)]
struct CacheSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
    last_used: AtomicU64,
}

/// Lifecycle of a slot's value: the first requester flips `Empty` →
/// `Building` and runs the translation; racers wait on the condvar
/// until `Ready` lands.  A builder that panics marks the slot
/// `Ready(Err(..))` on the way out so parked losers never hang.
#[derive(Debug)]
enum SlotState {
    Empty,
    Building,
    Ready(Built),
}

/// What a slot's build produced.
type Built = Result<Arc<CachedTrace>, ExtrapError>;

impl Default for CacheSlot {
    fn default() -> CacheSlot {
        CacheSlot {
            state: Mutex::new(SlotState::Empty),
            ready: Condvar::new(),
            last_used: AtomicU64::new(0),
        }
    }
}

impl CacheSlot {
    /// The completed value, or `None` while empty or still translating.
    fn get(&self) -> Option<Built> {
        match &*self.state.lock() {
            SlotState::Ready(v) => Some(v.clone()),
            _ => None,
        }
    }

    /// Single-flight initialization: the first caller runs `build`, all
    /// concurrent callers block until its value lands, every later
    /// caller gets the memoized value.
    fn get_or_init(&self, build: impl FnOnce() -> Built) -> Built {
        {
            let mut st = self.state.lock();
            loop {
                match &*st {
                    SlotState::Ready(v) => return v.clone(),
                    SlotState::Building => self.ready.wait(&mut st),
                    SlotState::Empty => {
                        *st = SlotState::Building;
                        break;
                    }
                }
            }
        }
        // If `build` unwinds, poison the slot instead of leaving losers
        // parked on a Building state nobody will ever finish.
        struct Finish<'a> {
            slot: &'a CacheSlot,
            value: Option<Built>,
        }
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                let value = self.value.take().unwrap_or_else(|| {
                    Err(ExtrapError::Trace(TraceError::Format {
                        detail: "trace translation panicked".to_string(),
                    }))
                });
                *self.slot.state.lock() = SlotState::Ready(value);
                self.slot.ready.notify_all();
            }
        }
        let mut finish = Finish {
            slot: self,
            value: None,
        };
        let value = build();
        finish.value = Some(value.clone());
        value
    }
}

type SlotRef = Arc<CacheSlot>;

/// A concurrent translate-once trace cache, shared by `&self`.
///
/// Workers race for the same `(workload, n)` all the time — a Fig-4 grid
/// asks for every benchmark's trace at six processor counts under one
/// parameter set per series.  Each distinct key is translated (and its
/// program compiled) exactly once: the per-key cache slot makes
/// initialization single-flight (losers of the race block until the
/// winner's value lands), and the outer [`RwLock`] is held only to look
/// up or insert the slot, never during translation.
pub struct SharedTraceCache<K = (&'static str, usize)> {
    entries: RwLock<HashMap<K, SlotRef>>,
    translations: AtomicUsize,
    evictions: AtomicUsize,
    clock: AtomicU64,
}

impl<K: Eq + Hash + Clone> SharedTraceCache<K> {
    /// An empty cache.
    pub fn new() -> SharedTraceCache<K> {
        SharedTraceCache {
            entries: RwLock::new(HashMap::new()),
            translations: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
        }
    }

    /// The compiled trace for `key`, building it on the first request
    /// (all concurrent requesters share that one run): `translate`, then
    /// compilation.  The translated set is dropped once compiled.
    pub fn get_or_translate(
        &self,
        key: K,
        translate: impl FnOnce() -> Result<TraceSet, TraceError>,
    ) -> Result<Arc<CachedTrace>, ExtrapError> {
        let slot = self.slot(key);
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        slot.get_or_init(|| {
            self.translations.fetch_add(1, Ordering::Relaxed);
            let program = CompiledProgram::compile(&translate()?)?;
            Ok(Arc::new(CachedTrace::new(program)))
        })
    }

    /// Looks up or inserts the per-key slot; never blocks on translation.
    fn slot(&self, key: K) -> SlotRef {
        if let Some(slot) = self.entries.read().get(&key) {
            return Arc::clone(slot);
        }
        let mut map = self.entries.write();
        Arc::clone(map.entry(key).or_default())
    }

    /// How many translations actually ran (cache misses).
    pub fn translations(&self) -> usize {
        self.translations.load(Ordering::Relaxed)
    }

    /// How many entries have been evicted ([`evict`](Self::evict) and
    /// [`evict_to_budget`](Self::evict_to_budget) combined).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total resident bytes of every *completed* entry (in-flight
    /// translations are not yet accounted; memoized errors count as
    /// their message).  This is the probe a memory budget compares
    /// against.
    pub fn resident_bytes(&self) -> usize {
        self.entries
            .read()
            .values()
            .map(|slot| slot_bytes(slot))
            .sum()
    }

    /// Drops one entry, returning the bytes it was holding (`None` if
    /// the key is absent or its translation is still in flight — an
    /// in-flight entry cannot be evicted out from under its builders).
    /// Workers already holding the entry's `Arc` keep it alive until
    /// they finish; eviction only forgets the cache's own reference, so
    /// the next request for the key re-translates.
    pub fn evict(&self, key: &K) -> Option<usize> {
        let mut map = self.entries.write();
        let slot = map.get(key)?;
        let _completed = slot.get()?;
        let bytes = slot_bytes(slot);
        map.remove(key);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Some(bytes)
    }

    /// Evicts least-recently-used completed entries until the resident
    /// footprint is at or under `budget_bytes`, returning `(entries
    /// evicted, bytes freed)`.  In-flight entries are skipped, so a
    /// cache whose live translations alone exceed the budget simply
    /// frees what it can.
    pub fn evict_to_budget(&self, budget_bytes: usize) -> (usize, usize) {
        let mut map = self.entries.write();
        let mut resident: usize = map.values().map(|s| slot_bytes(s)).sum();
        let (mut evicted, mut freed) = (0usize, 0usize);
        while resident > budget_bytes {
            let victim = map
                .iter()
                .filter(|(_, slot)| slot.get().is_some())
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            let bytes = map.remove(&key).map(|s| slot_bytes(&s)).unwrap_or(0);
            resident -= bytes;
            freed += bytes;
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        (evicted, freed)
    }

    /// How many distinct keys have been requested.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash + Clone> Default for SharedTraceCache<K> {
    fn default() -> Self {
        SharedTraceCache::new()
    }
}

/// Resident footprint of one slot: the cached trace's bytes for
/// successes, the error value for memoized errors, zero while the
/// translation is still in flight.
fn slot_bytes(slot: &CacheSlot) -> usize {
    match &*slot.state.lock() {
        SlotState::Ready(Ok(ct)) => std::mem::size_of::<CacheSlot>() + ct.resident_bytes(),
        SlotState::Ready(Err(e)) => std::mem::size_of::<CacheSlot>() + std::mem::size_of_val(e),
        _ => 0,
    }
}

impl<K: Eq + Hash + Clone> fmt::Debug for SharedTraceCache<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedTraceCache")
            .field("keys", &self.len())
            .field("translations", &self.translations())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Deterministic parallel map
// ---------------------------------------------------------------------

/// Applies `f` to every item across `workers` scoped threads, returning
/// results **in item order** regardless of completion order.
///
/// Work is handed out through a shared atomic cursor in contiguous
/// range claims of `claim_chunk` items — one `fetch_add` buys a whole
/// run of jobs, so cursor contention stays flat as worker counts and
/// grid sizes grow, while the chunk cap keeps stragglers from
/// serializing a long tail.  Results travel back over an `mpsc` channel
/// tagged with their index, so ordering is unaffected by chunking.
/// `workers <= 1` degenerates to the plain serial loop on the calling
/// thread, which is the determinism baseline: parallel output is
/// defined to be whatever the serial loop produces.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, workers, || (), |_scratch, i, t| f(i, t))
}

/// [`parallel_map`] with a per-worker scratch value.
///
/// Each worker thread builds one `S` via `scratch` when it starts and
/// threads it through every job it picks up, so per-job state (buffers,
/// arenas, simulator scratch) is allocated once per *worker* rather than
/// once per *item*.  `scratch` must not influence results — the output
/// contract is still "whatever the serial loop produces", and the serial
/// path uses a single scratch for all items.
pub fn parallel_map_with<T, R, S, F>(
    items: &[T],
    workers: usize,
    scratch: impl Fn() -> S + Sync,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        let mut s = scratch();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut s, i, t))
            .collect();
    }
    let chunk = claim_chunk(items.len(), workers);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            let scratch = &scratch;
            s.spawn(move || {
                let mut sc = scratch();
                'claims: loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    for (i, item) in items[start..end].iter().enumerate() {
                        let i = start + i;
                        // The receiver outlives the workers unless a
                        // sibling panicked; stop quietly in that case and
                        // let the scope propagate the panic.
                        if tx.send((i, f(&mut sc, i, item))).is_err() {
                            break 'claims;
                        }
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index was dispatched exactly once"))
        .collect()
}

/// The contiguous range size one cursor claim hands a worker: about
/// eight claims per worker over the whole grid, clamped to `[1, 64]`.
///
/// Eight claims apiece keeps the tail balanced — a worker stuck on a
/// slow chunk strands at most ~1/8 of its fair share — while cutting
/// `fetch_add` traffic by the chunk factor.  Small grids (like the 42-job
/// Fig-4 grid on a many-core host) get chunk 1, i.e. exactly the old
/// job-at-a-time behaviour.
fn claim_chunk(items: usize, workers: usize) -> usize {
    (items / (workers.max(1) * 8)).clamp(1, 64)
}

// ---------------------------------------------------------------------
// Jobs and grids
// ---------------------------------------------------------------------

/// One extrapolation job: which trace ([`SweepJob::key`], conventionally
/// `(workload, n_procs)`) under which parameter set.
#[derive(Clone, Debug)]
pub struct SweepJob<K> {
    /// Identity of the translated trace this job replays.
    pub key: K,
    /// Target-machine parameters for this job.
    pub params: SimParams,
}

/// A sweep failure, carrying the failing job's key for context.
#[derive(Debug)]
pub struct SweepError<K> {
    /// Key of the job that failed.
    pub key: K,
    /// The underlying pipeline error.
    pub error: ExtrapError,
}

impl<K: fmt::Debug> fmt::Display for SweepError<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep job {:?}: {}", self.key, self.error)
    }
}

impl<K: fmt::Debug> std::error::Error for SweepError<K> {}

/// Cartesian grid builder: `workloads × param_sets × procs`, flattened
/// into [`SweepJob`]s in exactly that (deterministic) nesting order —
/// jobs `[i * procs.len() .. (i + 1) * procs.len()]` are series `i`'s
/// points, matching how the experiment harness slices results back into
/// per-series rows.
#[derive(Clone, Debug)]
pub struct SweepGrid<W> {
    workloads: Vec<W>,
    procs: Vec<usize>,
    params: Vec<SimParams>,
}

impl<W: Clone> SweepGrid<W> {
    /// An empty grid.
    pub fn new() -> SweepGrid<W> {
        SweepGrid {
            workloads: Vec::new(),
            procs: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Sets the workloads axis.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = W>) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// Sets the processor-count axis.
    pub fn procs(mut self, procs: impl IntoIterator<Item = usize>) -> Self {
        self.procs = procs.into_iter().collect();
        self
    }

    /// Sets the parameter axis to a single set.
    pub fn params(self, params: SimParams) -> Self {
        self.param_sets([params])
    }

    /// Sets the parameter axis.
    pub fn param_sets(mut self, params: impl IntoIterator<Item = SimParams>) -> Self {
        self.params = params.into_iter().collect();
        self
    }

    /// Flattens the grid into jobs keyed by `(workload, n_procs)`.
    pub fn jobs(self) -> Vec<SweepJob<(W, usize)>> {
        let mut out =
            Vec::with_capacity(self.workloads.len() * self.params.len() * self.procs.len());
        for w in &self.workloads {
            for p in &self.params {
                for &n in &self.procs {
                    out.push(SweepJob {
                        key: (w.clone(), n),
                        params: p.clone(),
                    });
                }
            }
        }
        out
    }
}

impl<W: Clone> Default for SweepGrid<W> {
    fn default() -> Self {
        SweepGrid::new()
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Runs every job across `workers` threads, translating each distinct
/// key at most once through `cache` via `source`.
///
/// Results come back **indexed by job position**: `results[i]` is job
/// `i`'s prediction no matter which worker finished first, so output is
/// bit-identical to the `workers = 1` serial loop (extrapolation itself
/// is deterministic; the only nondeterminism a thread pool could add is
/// ordering, and that is removed here).
pub fn sweep<K, F>(
    jobs: &[SweepJob<K>],
    workers: usize,
    cache: &SharedTraceCache<K>,
    source: F,
) -> Vec<Result<Prediction, SweepError<K>>>
where
    K: Eq + Hash + Clone + Send + Sync,
    F: Fn(&K) -> Result<TraceSet, TraceError> + Sync,
{
    sweep_cancellable(jobs, workers, cache, source, &CancelToken::new())
}

/// A shared cooperative cancellation flag.
///
/// Workers check it between jobs, never mid-simulation, so cancelling a
/// sweep lets in-flight predictions finish (they stay deterministic)
/// while every not-yet-started job comes back as
/// [`ExtrapError::Cancelled`].  Cloning shares the flag.  The flag is a
/// checker-visible [`AtomicFlag`], so `extrap-check` explores every
/// placement of a cancel relative to the sweep's job claims.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicFlag>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load()
    }
}

/// [`sweep`] with cooperative cancellation: jobs not yet started when
/// `cancel` fires fail with [`ExtrapError::Cancelled`] (carrying their
/// key); jobs already simulating run to completion, so every returned
/// `Ok` prediction is exactly what the uncancelled sweep would have
/// produced.  The `extrap-serve` daemon drains in-flight work through
/// this on forced shutdown.
pub fn sweep_cancellable<K, F>(
    jobs: &[SweepJob<K>],
    workers: usize,
    cache: &SharedTraceCache<K>,
    source: F,
    cancel: &CancelToken,
) -> Vec<Result<Prediction, SweepError<K>>>
where
    K: Eq + Hash + Clone + Send + Sync,
    F: Fn(&K) -> Result<TraceSet, TraceError> + Sync,
{
    parallel_map_with(jobs, workers, SimScratch::default, |scratch, _, job| {
        let fail = |error| SweepError {
            key: job.key.clone(),
            error,
        };
        if cancel.is_cancelled() {
            return Err(fail(ExtrapError::Cancelled));
        }
        let cached = cache
            .get_or_translate(job.key.clone(), || source(&job.key))
            .map_err(fail)?;
        // The same strategy dispatch as `Extrapolator::run`, but through
        // the entry's memoized plan: clustering runs once per trace and
        // is shared by every parameter set and worker touching it.
        engine::simulate(
            cached.program(),
            &job.params,
            |max_clusters, tolerance| cached.repr_plan(max_clusters, tolerance),
            scratch,
        )
        .map_err(fail)
    })
}

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism (1 if it cannot be queried).
/// [`parallel_map_with`] separately clamps the pool to the item count,
/// so tiny grids do not spawn idle threads.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine;
    use extrap_time::DurationNs;
    use extrap_trace::{translate, PhaseProgram};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn uniform(n: usize) -> Result<TraceSet, TraceError> {
        let mut p = PhaseProgram::new(n);
        p.push_uniform_phase(DurationNs::from_us(100.0));
        p.push_uniform_phase(DurationNs::from_us(40.0));
        translate(&p.record(), Default::default())
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = parallel_map(&items, 8, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_order_across_chunk_sizes() {
        // Large enough that range claims exceed one job (4096/(4*8) =
        // 128, clamped to 64) and don't divide the item count evenly.
        let items: Vec<usize> = (0..4097).collect();
        let got = parallel_map(&items, 4, |i, &x| {
            assert_eq!(i, x);
            x + 1
        });
        assert_eq!(got, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn claim_chunk_scales_with_grid_and_workers() {
        assert_eq!(claim_chunk(42, 32), 1, "Fig-4 grid stays job-at-a-time");
        assert_eq!(claim_chunk(0, 8), 1);
        assert_eq!(claim_chunk(10_000, 8), 64, "big grids hit the cap");
        assert_eq!(claim_chunk(640, 8), 10, "~8 claims per worker");
        assert_eq!(claim_chunk(100, 0), 12, "degenerate worker count");
    }

    #[test]
    fn parallel_map_with_one_worker_is_the_serial_loop() {
        let items = [3usize, 1, 4, 1, 5];
        assert_eq!(
            parallel_map(&items, 1, |i, &x| (i, x)),
            items.iter().copied().enumerate().collect::<Vec<_>>()
        );
    }

    #[test]
    fn cache_translates_each_key_exactly_once_under_contention() {
        // 8 threads all demand the same two keys at the same instant; the
        // single-flight slot must run each translation exactly once.
        let cache: SharedTraceCache<(&'static str, usize)> = SharedTraceCache::new();
        let calls = AtomicUsize::new(0);
        let gate = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let cache = &cache;
                let calls = &calls;
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    for round in 0..10 {
                        let key = ("contended", (t + round) % 2 + 2);
                        let ts = cache
                            .get_or_translate(key, || {
                                calls.fetch_add(1, Ordering::Relaxed);
                                uniform(key.1)
                            })
                            .unwrap();
                        assert_eq!(ts.n_threads(), key.1);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 2, "one translation per key");
        assert_eq!(cache.translations(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_memoizes_errors() {
        let cache: SharedTraceCache<u32> = SharedTraceCache::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            let err = cache.get_or_translate(7, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(TraceError::Validation {
                    detail: "synthetic".into(),
                })
            });
            // Every hit returns the typed error, not a re-wrapped message.
            match err {
                Err(ExtrapError::Trace(TraceError::Validation { detail })) => {
                    assert_eq!(detail, "synthetic")
                }
                other => panic!("expected the memoized validation error, got {other:?}"),
            }
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "failures are memoized too"
        );
    }

    #[test]
    fn a_panicking_build_is_memoized_as_a_typed_error() {
        let cache: SharedTraceCache<u32> = SharedTraceCache::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_translate(1, || panic!("synthetic build panic"))
        }));
        assert!(unwound.is_err());
        match cache.get_or_translate(1, || unreachable!("the panic is memoized")) {
            Err(ExtrapError::Trace(TraceError::Format { detail })) => {
                assert_eq!(detail, "trace translation panicked")
            }
            other => panic!("expected the memoized panic error, got {other:?}"),
        }
    }

    #[test]
    fn grid_order_is_workload_params_procs() {
        let jobs = SweepGrid::new()
            .workloads(["a", "b"])
            .procs([1, 2])
            .param_sets([machine::ideal(), machine::cm5()])
            .jobs();
        let keys: Vec<(&str, usize)> = jobs.iter().map(|j| j.key).collect();
        assert_eq!(
            keys,
            [
                ("a", 1),
                ("a", 2),
                ("a", 1),
                ("a", 2),
                ("b", 1),
                ("b", 2),
                ("b", 1),
                ("b", 2),
            ]
        );
        assert_eq!(jobs[0].params.mips_ratio, machine::ideal().mips_ratio);
        assert_eq!(jobs[2].params.mips_ratio, machine::cm5().mips_ratio);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let jobs = SweepGrid::new()
            .workloads(["uniform"])
            .procs([1, 2, 4, 8])
            .param_sets([
                machine::ideal(),
                machine::cm5(),
                machine::default_distributed(),
            ])
            .jobs();
        let run = |workers| {
            let cache = SharedTraceCache::new();
            sweep(&jobs, workers, &cache, |&(_, n)| uniform(n))
        };
        let serial = run(1);
        for workers in [2, 4, 8] {
            let parallel = run(workers);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.exec_time(), b.exec_time());
                assert_eq!(a.predicted, b.predicted);
                assert_eq!(a.per_thread, b.per_thread);
            }
        }
    }

    #[test]
    fn sweep_shares_translations_across_param_sets() {
        let jobs = SweepGrid::new()
            .workloads(["u"])
            .procs([2, 4])
            .param_sets([machine::ideal(), machine::cm5(), machine::shared_memory()])
            .jobs();
        let cache = SharedTraceCache::new();
        let results = sweep(&jobs, 4, &cache, |&(_, n)| uniform(n));
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(cache.translations(), 2, "2 keys, 3 param sets each");
    }

    #[test]
    fn eviction_frees_lru_entries_and_retranslates_on_demand() {
        let cache: SharedTraceCache<usize> = SharedTraceCache::new();
        for n in [2usize, 4, 8] {
            cache.get_or_translate(n, || uniform(n)).unwrap();
        }
        assert_eq!(cache.len(), 3);
        let full = cache.resident_bytes();
        assert!(full > 0, "completed entries are accounted");

        // Touch 2 so 4 becomes the LRU victim.
        cache.get_or_translate(2, || uniform(2)).unwrap();
        let bytes_4 = {
            // Evicting a present key reports its footprint...
            let b = cache.evict(&4).expect("4 is resident");
            assert!(b > 0);
            b
        };
        // ...and the key re-translates on the next request.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        cache.get_or_translate(4, || uniform(4)).unwrap();
        assert_eq!(cache.translations(), 4, "4 was rebuilt after eviction");
        assert!(cache.resident_bytes() >= full - bytes_4);

        // A budget of zero clears everything; the cache stays usable.
        let (evicted, freed) = cache.evict_to_budget(0);
        assert_eq!(evicted, 3);
        assert!(freed > 0);
        assert_eq!(cache.resident_bytes(), 0);
        assert!(cache.is_empty());
        cache.get_or_translate(2, || uniform(2)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evict_to_budget_drops_least_recently_used_first() {
        let cache: SharedTraceCache<usize> = SharedTraceCache::new();
        for n in [2usize, 4, 8] {
            cache.get_or_translate(n, || uniform(n)).unwrap();
        }
        // Refresh 2: eviction order must now be 4, then 8, then 2.
        cache.get_or_translate(2, || uniform(2)).unwrap();
        let target = cache.resident_bytes() - 1;
        let (evicted, _) = cache.evict_to_budget(target);
        assert_eq!(evicted, 1);
        assert!(cache.evict(&4).is_none(), "4 was the LRU victim");
        assert!(cache.evict(&2).is_some(), "2 was refreshed and survives");
    }

    #[test]
    fn cancelled_sweep_fails_pending_jobs_with_cancelled() {
        let jobs = SweepGrid::new()
            .workloads(["uniform"])
            .procs([1, 2, 4, 8])
            .params(machine::ideal())
            .jobs();
        let cache = SharedTraceCache::new();
        let cancel = CancelToken::new();
        cancel.cancel();
        let results = sweep_cancellable(&jobs, 2, &cache, |&(_, n)| uniform(n), &cancel);
        assert_eq!(results.len(), jobs.len());
        for r in &results {
            assert!(matches!(
                r.as_ref().unwrap_err().error,
                ExtrapError::Cancelled
            ));
        }
        assert_eq!(cache.translations(), 0, "no work after cancellation");
    }

    #[test]
    fn sweep_errors_carry_the_failing_key() {
        let jobs = vec![
            SweepJob {
                key: ("ok", 2usize),
                params: machine::ideal(),
            },
            SweepJob {
                key: ("broken", 2usize),
                params: machine::ideal(),
            },
        ];
        let cache = SharedTraceCache::new();
        let results = sweep(&jobs, 2, &cache, |&(name, n)| {
            if name == "broken" {
                Err(TraceError::Format {
                    detail: "no such workload".into(),
                })
            } else {
                uniform(n)
            }
        });
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.key, ("broken", 2));
        assert!(err.to_string().contains("broken"));
    }
}
