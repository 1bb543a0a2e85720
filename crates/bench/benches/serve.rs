//! Load generator for the `extrap-serve` daemon: hundreds of concurrent
//! clients replaying a submit → simulate → sweep → fetch session against
//! a real server on a loopback ephemeral port, through the real
//! [`Client`].  Per-request latencies are collected client-side and fed
//! to the harness, so the JSON baseline (`BENCH_serve.json`) rides the
//! same CI regression gate as the compute benches.
//!
//! Any failed request fails the whole run (`Busy` backpressure answers
//! are retried, as the protocol intends; everything else is a bug).
//!
//!     cargo bench -p extrap-bench --bench serve -- --clients 200
//!     cargo bench -p extrap-bench --bench serve -- --quick --json out.json

use extrap_bench::harness::Harness;
use extrap_proto::SweepSpec;
use extrap_serve::client::Client;
use extrap_serve::{ServeConfig, Server};
use extrap_time::{outln, DurationNs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Per-client latency record: one sample per request kind, in the order
/// the session issues them.
struct SessionSample {
    submit_ns: f64,
    simulate_ns: f64,
    sweep_ns: f64,
    session_ns: f64,
}

/// The trace image every client uploads: a small two-phase program,
/// translated, as `XTPS` bytes.
fn payload() -> Vec<u8> {
    let mut p = extrap_trace::PhaseProgram::new(4);
    p.push_uniform_phase(DurationNs::from_us(200.0));
    p.push_uniform_phase(DurationNs::from_us(80.0));
    let set = extrap_trace::translate(&p.record(), Default::default()).expect("translate");
    extrap_trace::format::encode_set(&set)
}

fn sweep_spec() -> SweepSpec {
    SweepSpec {
        benches: vec!["Poisson".to_string()],
        procs: vec![1, 2, 4],
        scale: "tiny".to_string(),
        params: String::new(),
    }
}

/// One client's session.  `Busy` answers retry with a short pause —
/// that is the protocol's documented backpressure contract — and the
/// retry count is reported so a pathological server can't hide behind
/// infinite patience.
fn run_session(
    addr: &str,
    start: &Barrier,
    image: &[u8],
    busy_retries: &AtomicU64,
) -> Result<SessionSample, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    start.wait();
    let session = Instant::now();

    let t = Instant::now();
    let (trace, _, _) = client
        .submit_trace("loadgen", image.to_vec())
        .map_err(|e| format!("submit: {e}"))?;
    let submit_ns = t.elapsed().as_nanos() as f64;

    let t = Instant::now();
    let simulate_ns = loop {
        match client.simulate(trace, "") {
            Ok(_) => break t.elapsed().as_nanos() as f64,
            Err(e) if e.is_busy() => {
                busy_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => return Err(format!("simulate: {e}")),
        }
    };

    let t = Instant::now();
    let sweep_ns = loop {
        match client.sweep(sweep_spec()) {
            Ok(rows) => {
                if rows.len() != 3 {
                    return Err(format!("sweep returned {} rows, expected 3", rows.len()));
                }
                break t.elapsed().as_nanos() as f64;
            }
            Err(e) if e.is_busy() => {
                busy_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => return Err(format!("sweep: {e}")),
        }
    };

    client.evict(trace).map_err(|e| format!("evict: {e}"))?;
    Ok(SessionSample {
        submit_ns,
        simulate_ns,
        sweep_ns,
        session_ns: session.elapsed().as_nanos() as f64,
    })
}

fn run_loadgen(h: &mut Harness, n_clients: usize) {
    let server = Server::start(ServeConfig::default().with_addr("127.0.0.1:0"))
        .expect("start loadgen server");
    let addr = server.local_addr().to_string();
    let image = payload();
    let start = Barrier::new(n_clients);
    let busy_retries = AtomicU64::new(0);

    let wall = Instant::now();
    let outcomes: Vec<Result<SessionSample, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|_| s.spawn(|| run_session(&addr, &start, &image, &busy_retries)))
            .collect();
        handles
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let wall_ns = wall.elapsed().as_nanos() as f64;

    let failures: Vec<&String> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    assert!(
        failures.is_empty(),
        "{} of {} clients failed; first: {}",
        failures.len(),
        n_clients,
        failures[0]
    );
    let samples: Vec<&SessionSample> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();

    let stats = server.service().stats();
    outln!(
        "{n_clients} clients, 0 failures, {} busy retries; server: {} requests, \
         {} jobs done, {} sweep batches (+{} coalesced), {} translations",
        busy_retries.load(Ordering::Relaxed),
        stats.requests,
        stats.jobs_done,
        stats.sweep_batches,
        stats.coalesced_sweeps,
        stats.translations,
    );
    assert_eq!(stats.jobs_failed, 0, "no server-side job may fail");

    let collect = |f: fn(&SessionSample) -> f64| samples.iter().map(|s| f(s)).collect::<Vec<_>>();
    h.record_samples("serve_submit_trace", &collect(|s| s.submit_ns), None);
    h.record_samples(
        "serve_simulate_roundtrip",
        &collect(|s| s.simulate_ns),
        None,
    );
    h.record_samples("serve_sweep_roundtrip", &collect(|s| s.sweep_ns), None);
    h.record_samples("serve_full_session", &collect(|s| s.session_ns), None);
    // Aggregate wall clock for the whole storm, one synthetic sample —
    // the headline number: how long 200 clients' sessions take end to
    // end.
    h.record_samples("serve_loadgen_wall", &[wall_ns], None);

    server.shutdown_and_join();
}

fn main() {
    let (mut h, clients) = Harness::from_args("serve", |spec| {
        Ok(spec.positive("--clients")?.unwrap_or(200))
    });
    run_loadgen(&mut h, clients);
    h.finish();
}
