//! Protocol round-trip property tests: randomized `Request`/`Response`
//! values survive encode → decode → re-encode bit-identically, and
//! truncated or corrupted frames are rejected — never misparsed.
//!
//! Randomness comes from a seeded `SplitMix64`, so every run checks the
//! same cases and a failure seed reproduces exactly.

use extrap_proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    BreakdownRow, ErrorCode, JobId, PredictionSummary, ProtoError, Request, Response, ServerStats,
    SweepRow, SweepSpec, TraceId, FRAME_MAGIC, MAX_FRAME_LEN, PROTO_VERSION,
};
use extrap_time::SplitMix64;

/// An arbitrary f64 bit pattern — including NaNs, infinities, and
/// subnormals; the wire carries exact bits, so all must survive.
fn f64_bits(rng: &mut SplitMix64) -> f64 {
    f64::from_bits(rng.next_u64())
}

/// An arbitrary non-NaN f64 — for fields in `PartialEq`-asserted
/// values, where NaN would break the equality check rather than the
/// codec (see `nan_tolerance_survives_exactly` for the NaN case).
fn f64_non_nan(rng: &mut SplitMix64) -> f64 {
    loop {
        let v = f64_bits(rng);
        if !v.is_nan() {
            return v;
        }
    }
}

/// A string over a small alphabet plus some non-ASCII, length 0..32.
fn string(rng: &mut SplitMix64) -> String {
    const ALPHABET: &[char] = &['a', 'Z', '0', ' ', ',', '=', '\n', '"', 'é', '√', '\u{0}'];
    let len = rng.below(32) as usize;
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn bytes(rng: &mut SplitMix64) -> Vec<u8> {
    let len = rng.below(64) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_spec(rng: &mut SplitMix64) -> SweepSpec {
    SweepSpec {
        benches: (0..rng.below(5)).map(|_| string(rng)).collect(),
        procs: (0..rng.below(8)).map(|_| rng.next_u64() as u32).collect(),
        scale: string(rng),
        params: string(rng),
    }
}

fn random_request(rng: &mut SplitMix64) -> Request {
    match rng.below(9) {
        0 => Request::SubmitTrace {
            name: string(rng),
            payload: bytes(rng),
        },
        1 => Request::Simulate {
            trace: TraceId(rng.next_u64()),
            params: string(rng),
        },
        2 => Request::Sweep(random_spec(rng)),
        3 => Request::FetchResult {
            job: JobId(rng.next_u64()),
            wait_ms: rng.next_u64() as u32,
        },
        4 => Request::Evict {
            trace: TraceId(rng.next_u64()),
        },
        5 => Request::Stats,
        6 => Request::Phases {
            trace: TraceId(rng.next_u64()),
            phases: rng.below(2) == 1,
            max_clusters: rng.next_u64() as u32,
            tolerance: f64_non_nan(rng),
        },
        7 => Request::Analyze {
            trace: TraceId(rng.next_u64()),
            params: string(rng),
            format: string(rng),
        },
        _ => Request::Shutdown,
    }
}

fn random_summary(rng: &mut SplitMix64) -> PredictionSummary {
    PredictionSummary {
        n_threads: rng.next_u64() as u32,
        n_procs: rng.next_u64() as u32,
        exec_time_ns: rng.next_u64(),
        barriers: rng.next_u64(),
        messages: rng.next_u64(),
        bytes: rng.next_u64(),
        contention_factor_sum: f64_bits(rng),
        events_dispatched: rng.next_u64(),
        per_thread: (0..rng.below(6))
            .map(|_| BreakdownRow {
                compute_ns: rng.next_u64(),
                send_overhead_ns: rng.next_u64(),
                service_ns: rng.next_u64(),
                remote_wait_ns: rng.next_u64(),
                barrier_wait_ns: rng.next_u64(),
                end_time_ns: rng.next_u64(),
            })
            .collect(),
    }
}

fn random_error_code(rng: &mut SplitMix64) -> ErrorCode {
    [
        ErrorCode::BadRequest,
        ErrorCode::UnknownTrace,
        ErrorCode::UnknownJob,
        ErrorCode::Busy,
        ErrorCode::Timeout,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ][rng.below(7) as usize]
}

fn random_response(rng: &mut SplitMix64) -> Response {
    match rng.below(11) {
        0 => Response::Submitted {
            trace: TraceId(rng.next_u64()),
            n_threads: rng.next_u64() as u32,
            resident_bytes: rng.next_u64(),
        },
        1 => Response::Accepted {
            job: JobId(rng.next_u64()),
        },
        2 => Response::Pending {
            job: JobId(rng.next_u64()),
        },
        3 => Response::Prediction(random_summary(rng)),
        4 => Response::SweepRows(
            (0..rng.below(10))
                .map(|_| SweepRow {
                    bench: string(rng),
                    procs: rng.next_u64() as u32,
                    exec_time_ns: rng.next_u64(),
                })
                .collect(),
        ),
        5 => Response::Evicted {
            freed_bytes: rng.next_u64(),
        },
        6 => Response::Stats(ServerStats {
            uptime_ms: rng.next_u64(),
            connections: rng.next_u64(),
            active_connections: rng.next_u64() as u32,
            requests: rng.next_u64(),
            jobs_inflight: rng.next_u64() as u32,
            jobs_done: rng.next_u64(),
            jobs_failed: rng.next_u64(),
            sweep_batches: rng.next_u64(),
            coalesced_sweeps: rng.next_u64(),
            traces_resident: rng.next_u64() as u32,
            resident_bytes: rng.next_u64(),
            mem_budget_bytes: rng.next_u64(),
            evictions: rng.next_u64(),
            translations: rng.next_u64(),
        }),
        7 => Response::Error {
            code: random_error_code(rng),
            detail: string(rng),
        },
        8 => Response::Phases { text: string(rng) },
        9 => Response::Analyzed {
            rendered: string(rng),
        },
        _ => Response::Bye,
    }
}

#[test]
fn random_requests_roundtrip_bit_identically() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for i in 0..500 {
        let req = random_request(&mut rng);
        let wire = encode_request(&req);
        let back = decode_request(&wire).unwrap_or_else(|e| panic!("case {i}: {e}\n{req:?}"));
        assert_eq!(back, req, "case {i}: decode changed the value");
        assert_eq!(
            encode_request(&back),
            wire,
            "case {i}: re-encode changed the bytes"
        );
    }
}

#[test]
fn random_responses_roundtrip_bit_identically() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for i in 0..500 {
        let rsp = random_response(&mut rng);
        let wire = encode_response(&rsp);
        let back = decode_response(&wire).unwrap_or_else(|e| panic!("case {i}: {e}\n{rsp:?}"));
        // `Response` contains raw f64 bits; PartialEq would call NaN !=
        // NaN, so compare the canonical wire image instead (Debug on
        // the side for diagnostics).
        assert_eq!(
            encode_response(&back),
            wire,
            "case {i}: re-encode changed the bytes\n{rsp:?}"
        );
    }
}

#[test]
fn nan_contention_sum_survives_exactly() {
    let mut summary = random_summary(&mut SplitMix64::new(7));
    summary.contention_factor_sum = f64::from_bits(0x7ff8_dead_beef_0001);
    let wire = encode_response(&Response::Prediction(summary));
    match decode_response(&wire).unwrap() {
        Response::Prediction(p) => {
            assert_eq!(p.contention_factor_sum.to_bits(), 0x7ff8_dead_beef_0001)
        }
        other => panic!("expected Prediction, got {other:?}"),
    }
}

#[test]
fn nan_tolerance_survives_exactly() {
    let req = Request::Phases {
        trace: TraceId(7),
        phases: true,
        max_clusters: 64,
        tolerance: f64::from_bits(0x7ff8_dead_beef_0002),
    };
    let wire = encode_request(&req);
    match decode_request(&wire).unwrap() {
        Request::Phases { tolerance, .. } => {
            assert_eq!(tolerance.to_bits(), 0x7ff8_dead_beef_0002)
        }
        other => panic!("expected Phases, got {other:?}"),
    }
    assert_eq!(encode_request(&decode_request(&wire).unwrap()), wire);
}

#[test]
fn every_truncation_of_a_payload_is_rejected() {
    let mut rng = SplitMix64::new(0x5eed_0003);
    for _ in 0..50 {
        let wire = encode_request(&random_request(&mut rng));
        for cut in 0..wire.len() {
            assert!(
                decode_request(&wire[..cut]).is_err(),
                "truncation to {cut}/{} bytes must not parse",
                wire.len()
            );
        }
        let wire = encode_response(&random_response(&mut rng));
        for cut in 0..wire.len() {
            assert!(
                decode_response(&wire[..cut]).is_err(),
                "truncation to {cut}/{} bytes must not parse",
                wire.len()
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut rng = SplitMix64::new(0x5eed_0004);
    for _ in 0..50 {
        let mut wire = encode_request(&random_request(&mut rng));
        wire.push(0);
        assert!(decode_request(&wire).is_err(), "trailing byte must reject");
        let mut wire = encode_response(&random_response(&mut rng));
        wire.push(0);
        assert!(decode_response(&wire).is_err(), "trailing byte must reject");
    }
}

#[test]
fn frames_roundtrip_and_truncated_frames_are_rejected() {
    let payload = encode_request(&Request::Stats);
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();
    assert_eq!(&buf[..4], &FRAME_MAGIC);

    // Full frame reads back; the stream then reports clean EOF.
    let mut r = &buf[..];
    assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), Some(payload));
    assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), None);

    // EOF anywhere inside a frame is an error, not a short read.
    for cut in 1..buf.len() {
        let mut r = &buf[..cut];
        assert!(
            read_frame(&mut r, MAX_FRAME_LEN).is_err(),
            "cut at {cut}/{} must error",
            buf.len()
        );
    }
}

#[test]
fn bad_magic_oversize_and_wrong_version_are_rejected() {
    let payload = encode_request(&Request::Stats);
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();

    let mut corrupted = buf.clone();
    corrupted[0] ^= 0xff;
    assert!(matches!(
        read_frame(&mut &corrupted[..], MAX_FRAME_LEN),
        Err(ProtoError::BadMagic)
    ));

    // A length field past the cap is refused before any allocation.
    let mut oversize = buf.clone();
    oversize[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_frame(&mut &oversize[..], MAX_FRAME_LEN),
        Err(ProtoError::TooLarge { len: u32::MAX, .. })
    ));

    // A future protocol revision is a Version error, not Malformed.
    let mut future = payload.clone();
    future[..2].copy_from_slice(&(PROTO_VERSION + 1).to_le_bytes());
    assert!(matches!(
        decode_request(&future),
        Err(ProtoError::Version { got }) if got == PROTO_VERSION + 1
    ));
}
