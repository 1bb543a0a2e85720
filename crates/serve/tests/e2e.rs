//! End-to-end serving tests: a real daemon on an ephemeral port, driven
//! through the real [`Client`] — the same code path `extrap client` and
//! the load generator use.

use extrap_core::{
    machine, CompiledProgram, Extrapolator, RecordMode, SharedTraceCache, SweepGrid,
};
use extrap_proto::{ErrorCode, JobId, Request, Response, SweepSpec};
use extrap_serve::client::{Client, ClientError};
use extrap_serve::{ServeConfig, Server};
use extrap_time::{DurationNs, TimeNs};
use extrap_workloads::{Bench, Scale};

fn start(config: ServeConfig) -> Server {
    Server::start(config.with_addr("127.0.0.1:0")).expect("start server")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string()).expect("connect")
}

fn spec(benches: &[&str], procs: &[u32], scale: &str) -> SweepSpec {
    SweepSpec {
        benches: benches.iter().map(|s| s.to_string()).collect(),
        procs: procs.to_vec(),
        scale: scale.to_string(),
        params: String::new(),
    }
}

/// A tiny translated trace set as wire bytes (`XTPS` image).
fn tiny_set_bytes(n_threads: usize) -> Vec<u8> {
    let mut p = extrap_trace::PhaseProgram::new(n_threads);
    p.push_uniform_phase(DurationNs::from_us(150.0));
    p.push_uniform_phase(DurationNs::from_us(60.0));
    let set = extrap_trace::translate(&p.record(), Default::default()).expect("translate");
    extrap_trace::format::encode_set(&set)
}

#[test]
fn served_sweep_csv_is_byte_identical_to_in_process_sweep() {
    let server = start(ServeConfig::default());
    let mut client = connect(&server);
    let benches = ["poisson", "grid"];
    let procs = [1u32, 2, 4, 8];
    let rows = client
        .sweep(spec(&benches, &procs, "tiny"))
        .expect("served sweep");

    // Render exactly like `extrap sweep --csv` does.
    let mut served = String::from("bench,procs,time_ms\n");
    for r in &rows {
        let ms = TimeNs(r.exec_time_ns).as_ms();
        served.push_str(&format!("{},{},{ms:.6}\n", r.bench, r.procs));
    }

    // The reference is the same pipeline cmd_sweep runs in-process.
    let mut params = machine::default_distributed();
    params.record_mode = RecordMode::MetricsOnly;
    let grid = SweepGrid::new()
        .workloads(benches.iter().map(|name| Bench::parse(name).unwrap()))
        .procs(procs.iter().map(|&n| n as usize))
        .params(params)
        .jobs();
    let cache = SharedTraceCache::new();
    let results = extrap_core::sweep(&grid, 4, &cache, |(bench, n)| {
        extrap_trace::translate(&bench.trace(*n, Scale::Tiny), Default::default())
    });
    let mut local = String::from("bench,procs,time_ms\n");
    for (job, result) in grid.iter().zip(results) {
        let ms = result.expect("local sweep").exec_time().as_ms();
        local.push_str(&format!("{},{},{ms:.6}\n", job.key.0.name(), job.key.1));
    }

    assert_eq!(served, local, "served CSV must match in-process CSV");
    server.shutdown_and_join();
}

#[test]
fn submit_and_simulate_matches_in_process_extrapolator() {
    let server = start(ServeConfig::default());
    let mut client = connect(&server);
    let bytes = tiny_set_bytes(4);
    let (trace, n_threads, resident) = client.submit_trace("tiny", bytes.clone()).unwrap();
    assert_eq!(n_threads, 4);
    assert!(resident > 0);

    let served = client.simulate(trace, "").unwrap();

    let set = extrap_trace::format::decode_set(&bytes).unwrap();
    let mut params = machine::default_distributed();
    params.record_mode = RecordMode::MetricsOnly;
    let local = Extrapolator::new(params)
        .run(&CompiledProgram::compile(&set).unwrap())
        .unwrap();

    assert_eq!(served.exec_time_ns, local.exec_time().as_ns());
    assert_eq!(served.n_procs as usize, local.n_procs);
    assert_eq!(served.barriers, local.barriers as u64);
    assert_eq!(served.messages, local.network.messages);
    assert_eq!(served.per_thread.len(), local.per_thread.len());
    for (row, b) in served.per_thread.iter().zip(&local.per_thread) {
        assert_eq!(row.end_time_ns, b.end_time.0);
        assert_eq!(row.barrier_wait_ns, b.barrier_wait.0);
    }
    server.shutdown_and_join();
}

#[test]
fn submitting_a_program_trace_translates_server_side() {
    let server = start(ServeConfig::default());
    let mut client = connect(&server);
    let trace = Bench::Poisson.trace(2, Scale::Tiny);
    let bytes = extrap_trace::format::encode_program(&trace);
    let (id, n_threads, _) = client.submit_trace("poisson-xtrp", bytes).unwrap();
    assert_eq!(n_threads, 2);
    let pred = client.simulate(id, "").unwrap();
    assert!(pred.exec_time_ns > 0);
    let stats = client.stats().unwrap();
    assert!(stats.translations >= 1, "XTRP submit runs a translation");
    server.shutdown_and_join();
}

#[test]
fn bad_requests_are_rejected_with_typed_errors() {
    let server = start(ServeConfig::default());
    let mut client = connect(&server);

    let e = client.sweep(spec(&["nonesuch"], &[1], "")).unwrap_err();
    assert!(
        matches!(e, ClientError::Server { code: ErrorCode::BadRequest, ref detail } if detail.contains("nonesuch")),
        "got {e:?}"
    );

    let e = client
        .sweep(spec(&["poisson"], &[1], "galactic"))
        .unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // Thread counts past the capture cap are refused at admission, before
    // any worker starts a capture.
    let over = extrap_trace::format::MAX_THREADS as u32 + 1;
    for procs in [&[][..], &[0], &[4, over]] {
        let e = client.sweep(spec(&["sort"], procs, "tiny")).unwrap_err();
        assert!(
            matches!(e, ClientError::Server { code: ErrorCode::BadRequest, ref detail } if detail.contains("processor counts")),
            "{procs:?}: got {e:?}"
        );
    }

    let e = client.simulate(extrap_proto::TraceId(999), "").unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::UnknownTrace,
            ..
        }
    ));

    let e = client
        .submit_trace("garbage", b"not a trace".to_vec())
        .unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // Fetching a never-issued job is UnknownJob, not a hang.
    match client
        .round(&Request::FetchResult {
            job: JobId(424242),
            wait_ms: 0,
        })
        .unwrap_err()
    {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected server error, got {other:?}"),
    }
    server.shutdown_and_join();
}

#[test]
fn evicted_traces_are_gone_and_reported() {
    let server = start(ServeConfig::default());
    let mut client = connect(&server);
    let (id, _, resident) = client.submit_trace("t", tiny_set_bytes(2)).unwrap();
    let freed = client.evict(id).unwrap();
    assert_eq!(freed, resident);
    let e = client.simulate(id, "").unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::UnknownTrace,
            ..
        }
    ));
    let e = client.evict(id).unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::UnknownTrace,
            ..
        }
    ));
    server.shutdown_and_join();
}

#[test]
fn memory_budget_evicts_lru_submitted_traces() {
    // A budget small enough that the second submit must push out the
    // first (each tiny set is a few KiB).
    let config = ServeConfig {
        mem_budget_bytes: 1,
        ..ServeConfig::default()
    };
    let server = start(config);
    let mut client = connect(&server);
    let (first, _, _) = client.submit_trace("first", tiny_set_bytes(2)).unwrap();
    let _ = client.submit_trace("second", tiny_set_bytes(3)).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.evictions >= 1, "budget of 1 byte must evict");
    assert!(stats.traces_resident <= 1);
    let e = client.simulate(first, "").unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::UnknownTrace,
            ..
        }
    ));
    server.shutdown_and_join();
}

#[test]
fn concurrent_identical_sweeps_coalesce_and_agree() {
    let config = ServeConfig {
        batch_window: std::time::Duration::from_millis(30),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = start(config);
    let addr = server.local_addr().to_string();

    const CLIENTS: usize = 12;
    let rows: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut c = Client::connect(&addr).unwrap();
                    c.sweep(spec(&["poisson"], &[1, 2, 4], "tiny")).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &rows[1..] {
        assert_eq!(r, &rows[0], "coalesced and solo sweeps must agree");
    }

    let mut client = connect(&server);
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.sweep_batches + stats.coalesced_sweeps,
        CLIENTS as u64,
        "every sweep either started a batch or rode one"
    );
    assert_eq!(stats.jobs_done, CLIENTS as u64);
    assert_eq!(stats.jobs_failed, 0);
    server.shutdown_and_join();
}

#[test]
fn shutdown_drains_then_refuses_new_work() {
    let server = start(ServeConfig::default());
    let mut a = connect(&server);
    let mut b = connect(&server);

    // A job accepted before the drain still completes and delivers.
    let accepted = match a
        .round(&Request::Sweep(spec(&["poisson"], &[1, 2], "tiny")))
        .unwrap()
    {
        Response::Accepted { job } => job,
        other => panic!("expected Accepted, got {other:?}"),
    };
    b.shutdown().expect("shutdown handshake");

    // New work is refused while the drain runs.
    let e = b.sweep(spec(&["poisson"], &[1], "tiny")).unwrap_err();
    assert!(
        matches!(
            e,
            ClientError::Server {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ),
        "got {e:?}"
    );

    // ...but the pre-drain job's result is still fetchable.
    let mut rows = None;
    for _ in 0..100 {
        match a
            .round(&Request::FetchResult {
                job: accepted,
                wait_ms: 500,
            })
            .unwrap()
        {
            Response::Pending { .. } => continue,
            Response::SweepRows(r) => {
                rows = Some(r);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(rows.expect("drained result").len(), 2);
    drop(a);
    drop(b);
    server.join();
}

#[test]
fn served_phases_report_is_byte_identical_to_local_stats() {
    let server = start(ServeConfig::default());
    let mut client = connect(&server);
    // Grid and Mgrid repeat their barrier epochs (the repr plan
    // engages); Embar does not (the report states the fallback).
    for (bench, engages) in [
        (Bench::Grid, true),
        (Bench::Mgrid, true),
        (Bench::Embar, false),
    ] {
        let raw = bench.trace(4, Scale::Tiny);
        let set = extrap_trace::translate(&raw, Default::default()).expect("translate");
        let set_bytes = extrap_trace::format::encode_set(&set);
        // The local side is what `extrap stats` runs over the set file.
        let stream =
            extrap_trace::stream::TraceStream::new(extrap_trace::stream::SliceSource(&set_bytes))
                .expect("set header");
        let mut fold = extrap_trace::PhaseFold::default();
        let program = extrap_core::compile_trace_stream(stream, |t, rec| fold.record(t, rec))
            .expect("compile");
        let profiles = fold.into_profiles();
        let (set_trace, set_threads, set_resident) =
            client.submit_trace(bench.name(), set_bytes).unwrap();
        // The raw trace, translated by the daemon, is the same trace.
        let raw_bytes = extrap_trace::format::encode_program(&raw);
        let (raw_trace, raw_threads, raw_resident) =
            client.submit_trace(bench.name(), raw_bytes).unwrap();
        assert_eq!(set_threads, 4);
        assert_eq!(raw_threads, set_threads, "{}", bench.name());
        assert_eq!(raw_resident, set_resident, "{}", bench.name());
        // The daemon keeps the compiled program and the marker-phase
        // profiles, never the translated set.
        let resident_bytes = set_resident as usize;
        assert!(resident_bytes >= program.resident_bytes());
        assert!(
            resident_bytes < program.resident_bytes() + set.resident_bytes(),
            "{}: {resident_bytes} bytes charged, set alone is {}",
            bench.name(),
            set.resident_bytes()
        );

        for epochs in [None, Some((64, 0.05))] {
            let local = extrap_core::render_stats_report(
                &profiles,
                epochs.map(|(k, tol)| (&program, k, tol)),
            );
            for (trace, what) in [(set_trace, "XTPS"), (raw_trace, "XTRP")] {
                let served = client.phases(trace, epochs).unwrap();
                assert_eq!(
                    served,
                    local,
                    "{} {what} {epochs:?}: served text must match local",
                    bench.name()
                );
            }
        }
        let report = client.phases(set_trace, Some((64, 0.05))).unwrap();
        assert_eq!(
            report.contains("falls back"),
            !engages,
            "{}:\n{report}",
            bench.name()
        );
    }
    server.shutdown_and_join();
}

#[test]
fn served_analyze_is_byte_identical_to_local_render() {
    let server = start(ServeConfig::default());
    let mut client = connect(&server);
    let set = extrap_trace::translate(&Bench::Grid.trace(4, Scale::Tiny), Default::default())
        .expect("translate");
    let bytes = extrap_trace::format::encode_set(&set);
    let (trace, _, _) = client.submit_trace("grid-tiny", bytes).unwrap();

    let program = extrap_core::CompiledProgram::compile(&set).expect("compile");
    let mut params = machine::default_distributed();
    params.record_mode = RecordMode::MetricsOnly;
    let analysis = extrap_analyze::analyze(&program, &params).expect("analyze");

    for (format, name) in [
        (extrap_analyze::Format::Text, "text"),
        (extrap_analyze::Format::Json, "json"),
        (extrap_analyze::Format::Csv, "csv"),
    ] {
        let local = extrap_analyze::render("grid-tiny", &analysis, &[], format);
        let served = client.analyze(trace, "", name).unwrap();
        assert_eq!(served, local, "{name}: served render must match local");
    }
    // Empty format defaults to text.
    assert_eq!(
        client.analyze(trace, "", "").unwrap(),
        extrap_analyze::render("grid-tiny", &analysis, &[], extrap_analyze::Format::Text)
    );

    // Typed errors: bad format, then unknown trace.
    let e = client.analyze(trace, "", "yaml").unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    client.evict(trace).unwrap();
    let e = client.analyze(trace, "", "text").unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::UnknownTrace,
            ..
        }
    ));
    let e = client.phases(trace, Some((64, 0.05))).unwrap_err();
    assert!(matches!(
        e,
        ClientError::Server {
            code: ErrorCode::UnknownTrace,
            ..
        }
    ));
    server.shutdown_and_join();
}

/// Every corrupt `SubmitTrace` payload draws `BadRequest` with the
/// exact `detail` a local reader prints: the set corruptions each set
/// reader rejects, the program traces the translator rejects, and
/// images that are neither.  The strings are pinned verbatim so a
/// change to the ingest path cannot reword them.
#[test]
fn corrupt_payloads_are_rejected_with_pinned_details() {
    use extrap_time::{BarrierId, ThreadId};
    use extrap_trace::{format, EventKind, ProgramTrace, TraceRecord, TraceSet};

    let set_with = |corrupt: fn(&mut TraceSet)| {
        let mut p = extrap_trace::PhaseProgram::new(3);
        p.push_uniform_phase(DurationNs(100));
        p.push_uniform_phase(DurationNs(250));
        let mut set = extrap_trace::translate(&p.record(), Default::default()).expect("translate");
        corrupt(&mut set);
        format::encode_set(&set)
    };
    let program = |n_threads: usize, recs: &[(u64, u32, EventKind)]| {
        let mut pt = ProgramTrace::new(n_threads);
        pt.records = recs
            .iter()
            .map(|&(time, thread, kind)| TraceRecord {
                time: TimeNs(time),
                thread: ThreadId(thread),
                kind,
            })
            .collect();
        format::encode_program(&pt)
    };
    let enter = EventKind::BarrierEnter {
        barrier: BarrierId(0),
    };
    let exit = EventKind::BarrierExit {
        barrier: BarrierId(0),
    };
    let (begin, end) = (EventKind::ThreadBegin, EventKind::ThreadEnd);
    let mut truncated = set_with(|_| {});
    truncated.truncate(truncated.len() - 7);
    let mut unknown_magic = set_with(|_| {});
    unknown_magic[..4].copy_from_slice(b"XTPQ");

    let mut trailing = set_with(|_| {});
    trailing.extend_from_slice(&[0, 1, 2]);

    let cases: [(&str, Vec<u8>, &str); 16] = [
        (
            "misplaced position",
            set_with(|s| s.threads[1].thread = ThreadId(2)),
            "trace at position 1 contains records of T2",
        ),
        (
            "foreign record",
            set_with(|s| s.threads[1].records[2].thread = ThreadId(0)),
            "trace at position 1 contains records of T0",
        ),
        (
            "clock regression",
            set_with(|s| s.threads[2].records.last_mut().unwrap().time = TimeNs(0)),
            "timestamp regression in T2 at record 5",
        ),
        (
            "barrier mismatch",
            set_with(|s| {
                for rec in &mut s.threads[2].records {
                    if let EventKind::BarrierEnter { barrier } = &mut rec.kind {
                        *barrier = BarrierId(barrier.0 + 7);
                    }
                }
            }),
            "T2 passes a different barrier sequence than thread 0 \
             (program is not deterministically data-parallel)",
        ),
        (
            "truncated segment",
            truncated,
            "malformed trace: truncated while reading record header",
        ),
        (
            "trailing bytes",
            trailing,
            "malformed trace: 3 trailing bytes after records",
        ),
        (
            "thread out of range",
            program(1, &[(0, 0, begin), (1, 3, begin)]),
            "record 1 references T3 but the trace has 1 threads",
        ),
        (
            "set owner out of range",
            include_bytes!("../../../examples/traces/bad_owner.xtps").to_vec(),
            "record 1 references T7 but the trace has 2 threads",
        ),
        (
            "program owner out of range",
            include_bytes!("../../../examples/traces/bad_owner.xtrp").to_vec(),
            "record 1 references T7 but the trace has 2 threads",
        ),
        (
            "global regression",
            program(1, &[(5, 0, begin), (3, 0, end)]),
            "global timestamp regression at record 1",
        ),
        (
            "exit without entry",
            program(1, &[(0, 0, begin), (5, 0, exit)]),
            "barrier protocol violation in T0: exited B0 without entering it",
        ),
        (
            "never exited",
            program(1, &[(0, 0, begin), (5, 0, enter), (6, 0, end)]),
            "barrier protocol violation in T0: never exited B0",
        ),
        (
            "unknown magic",
            unknown_magic,
            "not a trace image (expected XTRP or XTPS magic)",
        ),
        (
            "short image",
            b"XT".to_vec(),
            "not a trace image (expected XTRP or XTPS magic)",
        ),
        (
            "bare magic",
            b"XTPS".to_vec(),
            "malformed trace: truncated while reading file header",
        ),
        (
            "bare program magic",
            b"XTRP".to_vec(),
            "malformed trace: truncated while reading file header",
        ),
    ];

    let server = start(ServeConfig::default());
    let mut client = connect(&server);
    let mut wrong = Vec::new();
    for (name, payload, expected) in cases {
        match client.submit_trace(name, payload) {
            Err(ClientError::Server {
                code: ErrorCode::BadRequest,
                detail,
            }) if detail == expected => {}
            other => wrong.push(format!("{name}: {other:?}")),
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    server.shutdown_and_join();
}
