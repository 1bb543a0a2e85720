//! Golden wire bytes: one fixed value of every `Request` and `Response`
//! variant (and every `ErrorCode`) is pinned to its exact payload hex in
//! `tests/fixtures/wire_golden.txt`, followed by the decode error text of
//! every truncation of that payload.
//!
//! The round-trip property tests cannot see two fields swapped on both
//! the encode and the decode side; this fixture can, because each field
//! of each fixed value carries a distinct byte pattern.  A deliberate
//! wire change (which also bumps `PROTO_VERSION`) regenerates the
//! fixture with `EXTRAP_BLESS=1 cargo test -p extrap-proto --test golden`.

use extrap_proto::{
    decode_request, decode_response, encode_request, encode_response, BreakdownRow, ErrorCode,
    JobId, PredictionSummary, Request, Response, ServerStats, SweepRow, SweepSpec, TraceId,
};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_golden.txt")
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "SubmitTrace",
            Request::SubmitTrace {
                name: "grid4".into(),
                payload: vec![0x58, 0x54, 0x52, 0x50, 0x00, 0xff],
            },
        ),
        (
            "Simulate",
            Request::Simulate {
                trace: TraceId(0x0102_0304_0506_0708),
                params: "MipsRatio = 2".into(),
            },
        ),
        (
            "Sweep",
            Request::Sweep(SweepSpec {
                benches: vec!["embar".into(), "grid".into()],
                procs: vec![1, 2, 0x0403_0201],
                scale: "tiny".into(),
                params: "Policy = poll".into(),
            }),
        ),
        (
            "FetchResult",
            Request::FetchResult {
                job: JobId(0x1112_1314_1516_1718),
                wait_ms: 0x2122_2324,
            },
        ),
        (
            "Evict",
            Request::Evict {
                trace: TraceId(0x3132_3334_3536_3738),
            },
        ),
        ("Stats", Request::Stats),
        ("Shutdown", Request::Shutdown),
        (
            "Phases",
            Request::Phases {
                trace: TraceId(0x4142_4344_4546_4748),
                phases: true,
                max_clusters: 0x5152_5354,
                tolerance: 0.125,
            },
        ),
        (
            "Analyze",
            Request::Analyze {
                trace: TraceId(0x6162_6364_6566_6768),
                params: "SizeMode = actual".into(),
                format: "json".into(),
            },
        ),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    let mut out = vec![
        (
            "Submitted",
            Response::Submitted {
                trace: TraceId(0x0102_0304_0506_0708),
                n_threads: 0x1112_1314,
                resident_bytes: 0x2122_2324_2526_2728,
            },
        ),
        (
            "Accepted",
            Response::Accepted {
                job: JobId(0x3132_3334_3536_3738),
            },
        ),
        (
            "Pending",
            Response::Pending {
                job: JobId(0x4142_4344_4546_4748),
            },
        ),
        (
            "Prediction",
            Response::Prediction(PredictionSummary {
                n_threads: 2,
                n_procs: 4,
                exec_time_ns: 0x0a0b_0c0d,
                barriers: 3,
                messages: 5,
                bytes: 0x0600,
                contention_factor_sum: 1.5,
                events_dispatched: 0x0700,
                per_thread: vec![
                    BreakdownRow {
                        compute_ns: 0x11,
                        send_overhead_ns: 0x12,
                        service_ns: 0x13,
                        remote_wait_ns: 0x14,
                        barrier_wait_ns: 0x15,
                        end_time_ns: 0x16,
                    },
                    BreakdownRow {
                        compute_ns: 0x21,
                        send_overhead_ns: 0x22,
                        service_ns: 0x23,
                        remote_wait_ns: 0x24,
                        barrier_wait_ns: 0x25,
                        end_time_ns: 0x26,
                    },
                ],
            }),
        ),
        (
            "SweepRows",
            Response::SweepRows(vec![
                SweepRow {
                    bench: "embar".into(),
                    procs: 1,
                    exec_time_ns: 0x0101_0101_0101,
                },
                SweepRow {
                    bench: "grid".into(),
                    procs: 4,
                    exec_time_ns: 0x0202_0202,
                },
            ]),
        ),
        (
            "Evicted",
            Response::Evicted {
                freed_bytes: 0x5152_5354_5556_5758,
            },
        ),
        (
            "Stats",
            Response::Stats(ServerStats {
                uptime_ms: 0x01,
                connections: 0x02,
                active_connections: 0x03,
                requests: 0x04,
                jobs_inflight: 0x05,
                jobs_done: 0x06,
                jobs_failed: 0x07,
                sweep_batches: 0x08,
                coalesced_sweeps: 0x09,
                traces_resident: 0x0a,
                resident_bytes: 0x0b,
                mem_budget_bytes: 0x0c,
                evictions: 0x0d,
                translations: 0x0e,
            }),
        ),
        ("Bye", Response::Bye),
        (
            "Phases",
            Response::Phases {
                text: "phase 1\n".into(),
            },
        ),
        (
            "Analyzed",
            Response::Analyzed {
                rendered: "{}".into(),
            },
        ),
    ];
    let codes = [
        ("Error/bad-request", ErrorCode::BadRequest),
        ("Error/unknown-trace", ErrorCode::UnknownTrace),
        ("Error/unknown-job", ErrorCode::UnknownJob),
        ("Error/busy", ErrorCode::Busy),
        ("Error/timeout", ErrorCode::Timeout),
        ("Error/shutting-down", ErrorCode::ShuttingDown),
        ("Error/internal", ErrorCode::Internal),
    ];
    for (label, code) in codes {
        out.push((
            label,
            Response::Error {
                code,
                detail: format!("{code}: why"),
            },
        ));
    }
    out
}

/// One fixture block: the payload hex, then the error of each cut.
fn block<E: std::fmt::Display, T>(
    out: &mut String,
    label: &str,
    wire: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
    let _ = writeln!(out, "{label} {hex}");
    for cut in 0..wire.len() {
        match decode(&wire[..cut]) {
            Ok(_) => panic!("{label}: truncation to {cut}/{} parsed", wire.len()),
            Err(e) => {
                let _ = writeln!(out, "  cut {cut}: {e}");
            }
        }
    }
}

fn render_all() -> String {
    let mut out = String::new();
    for (label, req) in requests() {
        let wire = encode_request(&req);
        assert_eq!(decode_request(&wire).unwrap(), req, "request {label}");
        block(&mut out, &format!("request {label}"), &wire, decode_request);
    }
    for (label, rsp) in responses() {
        let wire = encode_response(&rsp);
        assert_eq!(decode_response(&wire).unwrap(), rsp, "response {label}");
        block(
            &mut out,
            &format!("response {label}"),
            &wire,
            decode_response,
        );
    }
    out
}

#[test]
fn wire_bytes_and_truncation_errors_match_the_golden() {
    let got = render_all();
    let path = fixture_path();
    if std::env::var_os("EXTRAP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with EXTRAP_BLESS=1)", path.display()));
    let mismatches: Vec<(&str, &str)> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .take(5)
        .collect();
    assert!(
        mismatches.is_empty() && want.lines().count() == got.lines().count(),
        "wire golden drifted ({} vs {} lines); first mismatches (want, got): {mismatches:#?}",
        want.lines().count(),
        got.lines().count()
    );
}
