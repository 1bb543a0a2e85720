//! The bounded scenarios the checker ships: each targets one concurrent
//! protocol of the real pipeline, spawning 2–3 model threads over the
//! actual production types (no mocks) and asserting terminal-state
//! invariants that must hold in *every* interleaving.
//!
//! Scenario bodies follow one shape: set up shared state on the
//! controller, spawn the racing threads through the [`Handle`], start
//! the schedule with [`Handle::go`], and — only when `go` reports a
//! clean completion — assert the terminal invariants.  Mid-run safety
//! (no deadlock, no lost wakeup, no lock misuse, no assertion failure
//! on any thread) is the runtime's job.

use crate::{Handle, Scenario};
use extrap_core::sweep::{sweep_cancellable, CancelToken, SharedTraceCache, SweepGrid};
use extrap_core::{machine, ExtrapError, RecordMode};
use extrap_proto::{JobId, Request, Response, SweepRow, SweepSpec};
use extrap_serve::{ServeConfig, Service};
use extrap_time::DurationNs;
use extrap_trace::{translate, PhaseProgram, TraceError, TraceSet};
use pcpp_rt::sync::{AtomicFlag, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// The production scenarios `extrap check` runs by default.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "cache-single-flight",
            about: "SharedTraceCache: concurrent misses share one translation while \
                    evict/evict_to_budget race them",
            run: cache_single_flight,
        },
        Scenario {
            name: "cancel-mid-sweep",
            about: "sweep_cancellable vs CancelToken::cancel: every job ends Cancelled \
                    or completed, never hung",
            run: cancel_mid_sweep,
        },
        Scenario {
            name: "job-table",
            about: "serve JobTable: submit, coalesce, long-poll fetch and drain across \
                    a worker and two clients",
            run: job_table,
        },
    ]
}

/// Every scenario, including `demo-lost-wakeup` — a deliberately buggy
/// producer/consumer kept out of the default suite so the default run
/// stays green; CI and the tests use it to prove the checker *fails*
/// when it should.
pub fn all_scenarios() -> Vec<Scenario> {
    let mut all = scenarios();
    all.push(Scenario {
        name: "demo-lost-wakeup",
        about: "(deliberately buggy) push without notify: the checker must find the \
                lost wakeup",
        run: demo_lost_wakeup,
    });
    all
}

/// Looks a scenario up by name (including the demo).
pub fn find(name: &str) -> Option<Scenario> {
    all_scenarios().into_iter().find(|s| s.name == name)
}

/// A two-phase uniform trace program — the smallest input the whole
/// pipeline accepts.
fn tiny_set(n_threads: usize) -> Result<TraceSet, TraceError> {
    let mut p = PhaseProgram::new(n_threads);
    p.push_uniform_phase(DurationNs::from_us(150.0));
    p.push_uniform_phase(DurationNs::from_us(60.0));
    translate(&p.record(), Default::default())
}

// ---------------------------------------------------------------------
// cache-single-flight
// ---------------------------------------------------------------------

/// Two threads miss on the same key while a third evicts: the cache's
/// slot state machine must keep translation single-flight (the
/// `building` flag proves no overlap), both requesters must get a
/// usable trace, and the terminal translation count must stay within
/// the miss/evict/re-miss envelope.
fn cache_single_flight(h: &Handle) {
    let cache: Arc<SharedTraceCache<u32>> = Arc::new(SharedTraceCache::new());
    let building = Arc::new(AtomicFlag::new(false));

    for _ in 0..2 {
        let cache = Arc::clone(&cache);
        let building = Arc::clone(&building);
        h.spawn(move || {
            let cached = cache
                .get_or_translate(7, || {
                    assert!(
                        !building.swap(true),
                        "single-flight violated: two threads translating key 7 at once"
                    );
                    let set = tiny_set(2);
                    building.store(false);
                    set
                })
                .expect("translation of a valid trace succeeds");
            assert_eq!(cached.n_threads(), 2);
        });
    }
    {
        let cache = Arc::clone(&cache);
        h.spawn(move || {
            let _ = cache.evict(&7);
            let _ = cache.evict_to_budget(0);
        });
    }

    if h.go() {
        let translations = cache.translations();
        assert!(
            (1..=2).contains(&translations),
            "expected 1..=2 translations (miss shared, or evict forced one rebuild), \
             got {translations}"
        );
    }
}

// ---------------------------------------------------------------------
// cancel-mid-sweep
// ---------------------------------------------------------------------

/// One thread runs a two-job sweep while another fires the
/// [`CancelToken`]: in every interleaving each job must end as a
/// completed prediction or `ExtrapError::Cancelled` — never anything
/// else, and (enforced by the runtime) never a hang.
fn cancel_mid_sweep(h: &Handle) {
    let mut params = machine::ideal();
    params.record_mode = RecordMode::MetricsOnly;
    let jobs = SweepGrid::new()
        .workloads(["uniform"])
        .procs([1, 2])
        .params(params)
        .jobs();
    let cancel = CancelToken::new();

    {
        let cancel = cancel.clone();
        h.spawn(move || {
            let cache: SharedTraceCache<(&'static str, usize)> = SharedTraceCache::new();
            let results = sweep_cancellable(&jobs, 1, &cache, |&(_, n)| tiny_set(n), &cancel);
            assert_eq!(results.len(), 2, "every job reports an outcome");
            for r in &results {
                match r {
                    Ok(_) => {}
                    Err(e) => assert!(
                        matches!(e.error, ExtrapError::Cancelled),
                        "cancelled sweep may only fail with Cancelled, got: {e}"
                    ),
                }
            }
        });
    }
    h.spawn(move || cancel.cancel());

    h.go();
}

// ---------------------------------------------------------------------
// job-table
// ---------------------------------------------------------------------

fn accepted(response: Response) -> JobId {
    match response {
        Response::Accepted { job } => job,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

fn sweep_rows(response: Response) -> Vec<SweepRow> {
    match response {
        Response::SweepRows(rows) => rows,
        other => panic!("expected SweepRows, got {other:?}"),
    }
}

/// The serving core end to end, in process: one worker and two clients
/// race submit → (coalesce) → long-poll fetch → drain.  Client 1
/// uploads a trace and simulates it; client 2 submits two identical
/// sweeps (which may or may not coalesce depending on the schedule) and
/// requires byte-identical rows either way; whichever client finishes
/// last initiates shutdown.  In every interleaving all three jobs must
/// complete — a fetch answering `Pending` here means a wakeup was lost
/// (the long-poll timeout only fires at quiescence under the virtual
/// clock).
fn job_table(h: &Handle) {
    let service = Service::new_in_process(ServeConfig {
        addr: String::new(),
        workers: 1,
        sweep_workers: 1,
        mem_budget_bytes: 0,
        max_inflight_jobs: 16,
        max_inflight_per_conn: 8,
        max_connections: 8,
        request_timeout: Duration::from_secs(30),
        batch_window: Duration::ZERO,
    });
    let payload = extrap_trace::format::encode_set(&tiny_set(2).expect("tiny set translates"));
    let c1_done = Arc::new(AtomicFlag::new(false));
    let c2_done = Arc::new(AtomicFlag::new(false));

    {
        let service = Arc::clone(&service);
        h.spawn(move || service.run_worker());
    }
    {
        let service = Arc::clone(&service);
        let (mine, other) = (Arc::clone(&c1_done), Arc::clone(&c2_done));
        h.spawn(move || {
            let session = service.session();
            let trace = match session.handle(Request::SubmitTrace {
                name: "chk".to_string(),
                payload,
            }) {
                Response::Submitted {
                    trace, n_threads, ..
                } => {
                    assert_eq!(n_threads, 2);
                    trace
                }
                other => panic!("expected Submitted, got {other:?}"),
            };
            let job = accepted(session.handle(Request::Simulate {
                trace,
                params: String::new(),
            }));
            match session.handle(Request::FetchResult {
                job,
                wait_ms: 10_000,
            }) {
                Response::Prediction(_) => {}
                other => panic!("simulate fetch must deliver the prediction, got {other:?}"),
            }
            mine.store(true);
            if other.load() {
                assert_eq!(session.handle(Request::Shutdown), Response::Bye);
            }
        });
    }
    {
        let service = Arc::clone(&service);
        let (mine, other) = (Arc::clone(&c2_done), Arc::clone(&c1_done));
        h.spawn(move || {
            let session = service.session();
            let spec = SweepSpec {
                benches: vec!["poisson".to_string()],
                procs: vec![1, 2],
                scale: "tiny".to_string(),
                params: String::new(),
            };
            let first = accepted(session.handle(Request::Sweep(spec.clone())));
            let second = accepted(session.handle(Request::Sweep(spec)));
            let rows_a = sweep_rows(session.handle(Request::FetchResult {
                job: first,
                wait_ms: 10_000,
            }));
            let rows_b = sweep_rows(session.handle(Request::FetchResult {
                job: second,
                wait_ms: 10_000,
            }));
            assert_eq!(
                rows_a, rows_b,
                "identical sweeps must produce identical rows whether or not they \
                 coalesced"
            );
            mine.store(true);
            if other.load() {
                assert_eq!(session.handle(Request::Shutdown), Response::Bye);
            }
        });
    }

    if h.go() {
        assert!(service.drained(), "worker exited with work still queued");
        let stats = match service.session().handle(Request::Stats) {
            Response::Stats(stats) => stats,
            other => panic!("expected Stats, got {other:?}"),
        };
        assert_eq!(stats.jobs_done, 3, "sim + two sweeps all complete");
        assert_eq!(stats.jobs_failed, 0);
        assert_eq!(
            stats.sweep_batches + stats.coalesced_sweeps,
            2,
            "two sweep jobs ran as separate batches or one coalesced batch"
        );
    }
}

// ---------------------------------------------------------------------
// demo-lost-wakeup
// ---------------------------------------------------------------------

/// The canonical lost wakeup, on purpose: the producer pushes without
/// notifying, so any schedule that parks the consumer first strands it
/// forever.  The checker must report `LostWakeup` with a replayable
/// certificate — tests and the CI mutation gate assert exactly that.
fn demo_lost_wakeup(h: &Handle) {
    let shared = Arc::new((Mutex::new(VecDeque::<u32>::new()), Condvar::new()));

    {
        let shared = Arc::clone(&shared);
        h.spawn(move || {
            let (queue, _notify) = &*shared;
            queue.lock().push_back(1);
            // BUG (deliberate): no notify_one() after the push.
        });
    }
    {
        let shared = Arc::clone(&shared);
        h.spawn(move || {
            let (queue, notify) = &*shared;
            let mut q = queue.lock();
            while q.is_empty() {
                notify.wait(&mut q);
            }
            assert_eq!(q.pop_front(), Some(1));
        });
    }

    h.go();
}
