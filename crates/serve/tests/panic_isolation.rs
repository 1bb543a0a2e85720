//! Worker panic isolation: a job whose compute panics completes with
//! `Internal` instead of killing its worker.  The bounds sanitizer is
//! process-global, so this scenario lives in its own test binary.

use extrap_proto::{ErrorCode, JobId, Request, Response, SweepSpec};
use extrap_serve::{ServeConfig, Service, Session};
use extrap_time::DurationNs;
use std::sync::Arc;

/// Long enough for a tiny job, short enough that a job nobody will ever
/// complete fails the test instead of hanging it.
const WAIT_MS: u32 = 10_000;

fn accepted(resp: Response) -> JobId {
    match resp {
        Response::Accepted { job } => job,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

fn fetch(session: &Session, job: JobId) -> Response {
    session.handle(Request::FetchResult {
        job,
        wait_ms: WAIT_MS,
    })
}

fn simulate(session: &Session, trace: extrap_proto::TraceId) -> JobId {
    accepted(session.handle(Request::Simulate {
        trace,
        params: String::new(),
    }))
}

fn sweep(session: &Session) -> JobId {
    accepted(session.handle(Request::Sweep(SweepSpec {
        benches: vec!["embar".into()],
        procs: vec![2],
        scale: "tiny".into(),
        params: String::new(),
    })))
}

fn assert_panicked(resp: Response) {
    match resp {
        Response::Error { code, detail } => {
            assert_eq!(code, ErrorCode::Internal, "{detail}");
            assert!(detail.starts_with("job panicked: "), "{detail}");
            assert!(detail.contains("rejected by test checker"), "{detail}");
        }
        other => panic!("expected an Internal error within {WAIT_MS} ms, got {other:?}"),
    }
}

#[test]
fn a_panicking_job_fails_alone_and_the_worker_keeps_serving() {
    let config = ServeConfig {
        workers: 1,
        sweep_workers: 1,
        batch_window: std::time::Duration::ZERO,
        ..ServeConfig::default()
    };
    let service = Service::new_in_process(config);
    let worker = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.run_worker())
    };
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

    extrap_core::sanitizer::install(|_, _, _| Err("rejected by test checker".to_string()));
    extrap_core::sanitizer::set_enabled(true);
    let job = simulate(&session, trace);
    assert_panicked(fetch(&session, job));
    let job = sweep(&session);
    assert_panicked(fetch(&session, job));

    extrap_core::sanitizer::set_enabled(false);
    let job = simulate(&session, trace);
    assert!(
        matches!(fetch(&session, job), Response::Prediction(_)),
        "the same worker serves the next simulate"
    );
    let job = sweep(&session);
    assert!(
        matches!(fetch(&session, job), Response::SweepRows(ref rows) if rows.len() == 1),
        "the same worker serves the next sweep"
    );

    let stats = service.stats();
    assert_eq!((stats.jobs_done, stats.jobs_failed), (2, 2));
    assert_eq!(stats.jobs_inflight, 0);
    session.handle(Request::Shutdown);
    worker.join().expect("the worker thread survived every job");
}
