//! The worker pool: pops admitted jobs off the queue and executes them,
//! coalescing compatible sweeps into one shared grid per batch.
//!
//! A job's compute runs under `catch_unwind`: a panic (an engine bug a
//! submitted trace or parameter set reaches) fails that job — or every
//! live member of its coalesced batch — with `Internal`, and the worker
//! goes on serving.

use crate::state::{JobPayload, Service, SimWork, SweepKey, SweepWork, Work};
use extrap_core::sweep::{sweep_cancellable, SweepJob};
use extrap_core::{ExtrapError, Extrapolator};
use extrap_proto::{ErrorCode, JobId, PredictionSummary, SweepRow};
use extrap_workloads::Bench;
use pcpp_rt::sync::Instant;
use std::collections::hash_map::{Entry, HashMap};
use std::panic::AssertUnwindSafe;

/// One worker thread's life: execute jobs until shutdown drains the
/// queue.
pub(crate) fn run(service: &Service) {
    while let Some(qw) = service.next_work() {
        match qw.work {
            Work::Simulate(sim) => run_simulate(service, sim, qw.deadline),
            Work::Sweep(first) => run_sweep_batch(service, first, qw.deadline),
        }
    }
}

/// Fails a job with `Timeout` if its deadline passed while it was
/// queued; returns whether it did.
fn expired(service: &Service, job: JobId, deadline: Instant) -> bool {
    if Instant::now() > deadline {
        service.complete(
            job,
            Err((
                ErrorCode::Timeout,
                "job exceeded the request timeout while queued".to_string(),
            )),
        );
        true
    } else {
        false
    }
}

fn run_simulate(service: &Service, sim: SimWork, deadline: Instant) {
    if expired(service, sim.job, deadline) {
        return;
    }
    let outcome =
        isolate(|| Extrapolator::new(sim.params).run(sim.trace.program())).and_then(|run| {
            run.map(|p| JobPayload::Prediction(PredictionSummary::from(&p)))
                .map_err(|e| (ErrorCode::Internal, e.to_string()))
        });
    service.complete(sim.job, outcome);
}

/// Runs a job's compute, turning a panic into the `Internal` failure
/// the job completes with.
fn isolate<R>(compute: impl FnOnce() -> R) -> Result<R, (ErrorCode, String)> {
    std::panic::catch_unwind(AssertUnwindSafe(compute)).map_err(|payload| {
        let msg = match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => match payload.downcast::<&'static str>() {
                Ok(msg) => msg.to_string(),
                Err(_) => "non-string panic payload".to_string(),
            },
        };
        (ErrorCode::Internal, format!("job panicked: {msg}"))
    })
}

/// Executes one sweep batch: linger for `batch_window` so concurrent
/// compatible sweeps can join, union the members' grids (deduped), run
/// the whole thing through one `sweep_cancellable` call, then hand each
/// member its own slice of the shared results.
fn run_sweep_batch(service: &Service, first: SweepWork, first_deadline: Instant) {
    let window = service.config().batch_window;
    if !window.is_zero() && !service.is_shutting_down() {
        std::thread::sleep(window);
    }
    let (scale, compat) = (first.scale, first.compat.clone());
    let mut batch = vec![(first, first_deadline)];
    for qw in service.drain_compatible(scale, &compat) {
        if let Work::Sweep(s) = qw.work {
            batch.push((s, qw.deadline));
        }
    }
    service.count_sweep_batch(batch.len());

    let mut live: Vec<SweepWork> = Vec::with_capacity(batch.len());
    for (s, deadline) in batch {
        if !expired(service, s.job, deadline) {
            live.push(s);
        }
    }
    if live.is_empty() {
        return;
    }

    // Union grid in first-seen order, deduped: a point requested by
    // five coalesced sweeps simulates once and fans out five times.
    let mut index: HashMap<(Bench, usize), usize> = HashMap::new();
    let mut jobs: Vec<SweepJob<SweepKey>> = Vec::new();
    for s in &live {
        for &b in &s.benches {
            for &n in &s.procs {
                if let Entry::Vacant(e) = index.entry((b, n as usize)) {
                    jobs.push(SweepJob {
                        key: (b, n as usize, scale),
                        params: s.params.clone(),
                    });
                    e.insert(jobs.len() - 1);
                }
            }
        }
    }

    let results = isolate(|| {
        sweep_cancellable(
            &jobs,
            service.config().sweep_workers,
            service.sweep_cache(),
            |(bench, n, scale)| {
                extrap_trace::translate(&bench.trace(*n, *scale), Default::default())
            },
            service.cancel_token(),
        )
    });

    // Exact integer nanoseconds per grid point; clients re-derive any
    // float rendering from these, byte-identically to the in-process
    // pipeline.  A panic fails every point, so every live member.
    let points: Vec<Result<u64, (ErrorCode, String)>> = match results {
        Ok(results) => results
            .iter()
            .map(|r| match r {
                Ok(p) => Ok(p.exec_time().as_ns()),
                Err(e) => Err(match e.error {
                    ExtrapError::Cancelled => (ErrorCode::ShuttingDown, e.to_string()),
                    _ => (ErrorCode::Internal, e.to_string()),
                }),
            })
            .collect(),
        Err(panicked) => vec![Err(panicked); jobs.len()],
    };

    for s in &live {
        let mut rows = Vec::with_capacity(s.benches.len() * s.procs.len());
        let mut failure: Option<(ErrorCode, String)> = None;
        'member: for b in &s.benches {
            for &n in &s.procs {
                let i = index[&(*b, n as usize)];
                match &points[i] {
                    Ok(ns) => rows.push(SweepRow {
                        bench: b.name().to_string(),
                        procs: n,
                        exec_time_ns: *ns,
                    }),
                    Err(e) => {
                        failure = Some(e.clone());
                        break 'member;
                    }
                }
            }
        }
        let outcome = match failure {
            None => Ok(JobPayload::Rows(rows)),
            Some(e) => Err(e),
        };
        service.complete(s.job, outcome);
    }
    service.enforce_budget();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use extrap_proto::{Request, Response, SweepSpec};
    use extrap_time::DurationNs;
    use std::sync::Arc;

    fn panicked(detail: &str) -> Result<(), (ErrorCode, String)> {
        Err((ErrorCode::Internal, format!("job panicked: {detail}")))
    }

    #[test]
    fn isolate_names_every_panic_payload() {
        assert_eq!(isolate(|| 7), Ok(7));
        let owned = isolate(|| std::panic::panic_any(String::from("owned message")));
        assert_eq!(owned, panicked("owned message"));
        let literal = isolate(|| std::panic::panic_any("static message"));
        assert_eq!(literal, panicked("static message"));
        let other = isolate(|| std::panic::panic_any(42_u32));
        assert_eq!(other, panicked("non-string panic payload"));
    }

    /// An admitted simulate and sweep each complete with an `isolate`d
    /// panic; the real worker loop then serves the next simulate and
    /// sweep, and the job counters balance.
    #[test]
    fn a_panicking_job_fails_alone_and_the_worker_keeps_serving() {
        let service = Service::new_in_process(ServeConfig {
            workers: 1,
            sweep_workers: 1,
            batch_window: std::time::Duration::ZERO,
            ..ServeConfig::default()
        });
        let session = service.session();
        let mut program = extrap_trace::PhaseProgram::new(2);
        program.push_uniform_phase(DurationNs::from_us(100.0));
        let set = extrap_trace::translate(&program.record(), Default::default()).unwrap();
        let trace = match session.handle(Request::SubmitTrace {
            name: "tiny".into(),
            payload: extrap_trace::format::encode_set(&set),
        }) {
            Response::Submitted { trace, .. } => trace,
            other => panic!("submit failed: {other:?}"),
        };
        let admit = |req| match session.handle(req) {
            Response::Accepted { job } => job,
            other => panic!("expected Accepted, got {other:?}"),
        };
        let simulate = || {
            admit(Request::Simulate {
                trace,
                params: String::new(),
            })
        };
        let sweep = || {
            admit(Request::Sweep(SweepSpec {
                benches: vec!["embar".into()],
                procs: vec![2],
                scale: "tiny".into(),
                params: String::new(),
            }))
        };
        // Long enough for a tiny job, short enough that a job nobody
        // completes fails the test instead of hanging it.
        let fetch = |job| {
            session.handle(Request::FetchResult {
                job,
                wait_ms: 10_000,
            })
        };

        // Stand in for the worker: take each admitted job off the queue
        // and complete it with a compute that panics.
        let failing = [simulate(), sweep()];
        for expected in failing {
            let job = match service.next_work().expect("the job is queued").work {
                Work::Simulate(sim) => sim.job,
                Work::Sweep(sw) => sw.job,
            };
            assert_eq!(job, expected);
            service.complete(job, isolate(|| panic!("injected job failure")));
        }
        for job in failing {
            let detail = "job panicked: injected job failure".to_string();
            let code = ErrorCode::Internal;
            assert_eq!(fetch(job), Response::Error { code, detail });
        }

        let worker = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.run_worker())
        };
        let served = fetch(simulate());
        assert!(matches!(served, Response::Prediction(_)), "{served:?}");
        let served = fetch(sweep());
        assert!(
            matches!(served, Response::SweepRows(ref rows) if rows.len() == 1),
            "{served:?}"
        );

        let stats = service.stats();
        assert_eq!((stats.jobs_done, stats.jobs_failed), (2, 2));
        assert_eq!(stats.jobs_inflight, 0);
        session.handle(Request::Shutdown);
        worker.join().expect("the worker thread survived every job");
    }
}
