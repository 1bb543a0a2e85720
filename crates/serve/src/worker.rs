//! The worker pool: pops admitted jobs off the queue and executes them,
//! coalescing compatible sweeps into one shared grid per batch.
//!
//! A job's compute runs under `catch_unwind`: a panic (the bounds
//! sanitizer tripping, or any engine bug a submitted trace reaches)
//! fails that job — or every live member of its coalesced batch — with
//! `Internal`, and the worker goes on serving.

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
