//! `serve-closed`: two client threads, each holding one connection to an
//! in-process daemon and waiting for every reply before sending the
//! next request (how `extrap client` and scripts use it).  The seeded
//! mix is 80% `Simulate` on resident traces, 10% writes (`SubmitTrace`
//! of a fresh trace, `Evict` of an earlier one) and 10% tiny `Sweep`.

use crate::gen::{self, Rng, Shape};
use crate::spans::{median_ms, SpanId, Tracer};
use crate::{Bench, Config, Metric, OpRecord, Pass, Size, Traced};
use extrap_core::{
    CompiledProgram, Extrapolator, RecordMode, ServicePolicy, SimParams, SimStrategy,
};
use extrap_proto::{
    decode_request, decode_response, encode_request, encode_response, PredictionSummary, Request,
    Response, ServerStats, SweepRow, SweepSpec, TraceId,
};
use extrap_serve::client::Client;
use extrap_serve::{ServeConfig, Server};
use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Instant;

/// Load threads, one connection each.
const CLIENTS: usize = 2;
/// Longest one `FetchResult` may wait server-side.
const FETCH_WAIT_MS: u32 = 30_000;
/// Request/response pairs per client kept for the codec timing.
const CODEC_SAMPLES: usize = 256;

pub(crate) struct ServeClosed;

struct Resident {
    id: TraceId,
    program: CompiledProgram,
}

pub(crate) struct State {
    server: Option<Server>,
    addr: String,
    resident: Vec<Resident>,
    /// Parameter sets as the daemon parses them (metrics-only).
    params: Vec<SimParams>,
    /// The same sets as request text.
    params_text: Vec<String>,
    /// `expected[trace][set]`: the local prediction.
    expected: Vec<Vec<PredictionSummary>>,
    sweeps: Vec<(SweepSpec, Vec<SweepRow>)>,
    /// Fresh-trace uploads (`SubmitTrace` requests) and their widths.
    fresh: Vec<(Request, u32)>,
    /// Per client, the fresh traces it submitted and has not evicted.
    submitted: Vec<VecDeque<TraceId>>,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

/// What the daemon does with a `Simulate` request's parameter text.
fn parse_like_server(text: &str) -> Result<SimParams, String> {
    let mut p = SimParams::from_config_text(text)?;
    p.record_mode = RecordMode::MetricsOnly;
    Ok(p)
}

fn payload(trace: &extrap_trace::ProgramTrace) -> Vec<u8> {
    extrap_trace::format::encode_program(trace)
}

/// One request of the mix.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Simulate { trace: usize, set: usize },
    Sweep(usize),
    Submit(usize),
    Evict,
}

/// Client `c`'s request sequence, in blocks of twenty: sixteen
/// `Simulate`, two `Sweep`, one `SubmitTrace`, one `Evict`, shuffled.
fn schedule(seed: u64, c: usize, state: &State, blocks: usize) -> Vec<Kind> {
    let mut rng = Rng::new(seed, 10 + c as u64);
    let mut out = Vec::with_capacity(blocks * 20);
    for _ in 0..blocks {
        let mut block: Vec<Kind> = (0..16)
            .map(|_| Kind::Simulate {
                trace: rng.below(state.resident.len()),
                set: rng.below(state.params.len()),
            })
            .collect();
        block.push(Kind::Sweep(rng.below(state.sweeps.len())));
        block.push(Kind::Sweep(rng.below(state.sweeps.len())));
        block.push(Kind::Submit(rng.below(state.fresh.len())));
        block.push(Kind::Evict);
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

impl Bench for ServeClosed {
    type State = State;

    fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<State, String> {
        let mut rng = Rng::new(cfg.seed, 4);
        let (resident_shapes, fresh_shapes, procs, scale) = match cfg.size {
            Size::Full => (
                [
                    8usize, 8, 8, 16, 16, 16, 16, 32, 32, 32, 32, 64, 64, 64, 64, 64,
                ]
                .map(|threads| Shape {
                    threads,
                    records: 12_000,
                    accesses: 3,
                }),
                [16usize, 32, 64, 16, 32, 64].map(|threads| Shape {
                    threads,
                    records: 6_000,
                    accesses: 4,
                }),
                vec![2, 4, 8],
                "tiny",
            ),
            Size::Tiny => (
                [4usize; 16].map(|threads| Shape {
                    threads,
                    records: 400,
                    accesses: 2,
                }),
                [4usize; 6].map(|threads| Shape {
                    threads,
                    records: 400,
                    accesses: 2,
                }),
                vec![2],
                "tiny",
            ),
        };
        let mut params = gen::param_sets(&mut Rng::new(cfg.seed, 5));
        // The first interrupt and the first no-interrupt set ask for
        // representative-region simulation; the second of each
        // parameterizes the sweeps.  Picking by policy keeps the mix's
        // cost the same for every seed.
        let by_policy = |p: ServicePolicy| -> Vec<usize> {
            (0..params.len())
                .filter(|&i| params[i].policy == p)
                .collect()
        };
        let (interrupt, no_interrupt) = (
            by_policy(ServicePolicy::Interrupt),
            by_policy(ServicePolicy::NoInterrupt),
        );
        for (i, max_clusters) in [(interrupt[0], 8), (no_interrupt[0], 64)] {
            params[i].strategy = SimStrategy::Representative {
                max_clusters,
                tolerance: SimStrategy::DEFAULT_TOLERANCE,
            };
        }
        let sweep_sets = [interrupt[1], no_interrupt[1]];
        let params_text: Vec<String> = params.iter().map(SimParams::to_config_text).collect();
        let params = params_text
            .iter()
            .map(|t| parse_like_server(t))
            .collect::<Result<Vec<_>, _>>()?;

        let span = tracer.begin("serve.start", None, 0);
        let server = Server::start(ServeConfig::default().with_addr("127.0.0.1:0"))
            .map_err(|e| format!("starting the daemon: {e}"))?;
        tracer.end(span);
        let addr = server.local_addr().to_string();
        let mut state = State {
            server: Some(server),
            addr,
            resident: Vec::new(),
            params,
            params_text,
            expected: Vec::new(),
            sweeps: Vec::new(),
            fresh: Vec::new(),
            submitted: vec![VecDeque::new(); CLIENTS],
        };
        let mut client = Client::connect(&state.addr).map_err(|e| e.to_string())?;

        for (i, shape) in resident_shapes.into_iter().enumerate() {
            let trace = gen::program(shape, &mut rng);
            let span = tracer.begin("serve.submit", None, 0);
            let (id, _, _) = client
                .submit_trace(&format!("resident-{i}"), payload(&trace))
                .map_err(|e| format!("submitting resident trace {i}: {e}"))?;
            tracer.end(span);
            let set =
                extrap_trace::translate(&trace, Default::default()).map_err(|e| e.to_string())?;
            let program = CompiledProgram::compile(&set).map_err(|e| e.to_string())?;
            state.resident.push(Resident { id, program });
        }
        for (i, shape) in fresh_shapes.into_iter().enumerate() {
            let trace = gen::program(shape, &mut rng);
            state.fresh.push((
                Request::SubmitTrace {
                    name: format!("fresh-{i}"),
                    payload: payload(&trace),
                },
                shape.threads as u32,
            ));
        }
        // Each client starts with one fresh trace to evict.
        for c in 0..CLIENTS {
            let Request::SubmitTrace { name, payload } = &state.fresh[c].0 else {
                unreachable!("fresh holds uploads only")
            };
            let (id, _, _) = client
                .submit_trace(name, payload.clone())
                .map_err(|e| format!("submitting {name}: {e}"))?;
            state.submitted[c].push_back(id);
        }
        // Two tiny-scale sweeps, run once here so the daemon's sweep
        // cache is warm; their rows are what later sweeps must return.
        for (k, pair) in [["Grid", "Sort"], ["Cyclic", "Embar"]].iter().enumerate() {
            let spec = SweepSpec {
                benches: pair.iter().map(|b| b.to_string()).collect(),
                procs: procs.clone(),
                scale: scale.to_string(),
                params: state.params_text[sweep_sets[k]].clone(),
            };
            let span = tracer.begin("serve.sweep_warm", None, 0);
            let rows = client
                .sweep(spec.clone())
                .map_err(|e| format!("warming sweep {k}: {e}"))?;
            tracer.end(span);
            state.sweeps.push((spec, rows));
        }
        Ok(state)
    }

    /// The local side of the served-equals-local contract: every
    /// (resident trace, parameter set) pair through `Extrapolator::run`.
    fn references(cfg: &Config, state: &mut State) -> Result<(), String> {
        state.expected = state
            .resident
            .iter()
            .map(|r| {
                state
                    .params
                    .iter()
                    .map(|p| {
                        Extrapolator::new(p.clone())
                            .run(&r.program)
                            .map(|p| PredictionSummary::from(&p))
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;
        for (spec, rows) in &state.sweeps {
            if rows.len() != spec.benches.len() * spec.procs.len() {
                return Err(format!(
                    "warm-up sweep returned {} rows for a {}x{} grid",
                    rows.len(),
                    spec.benches.len(),
                    spec.procs.len()
                ));
            }
        }
        if cfg.corrupt_reference {
            // Every pair, so the first `Simulate` fails however short
            // the pass.
            for e in state.expected.iter_mut().flatten() {
                e.exec_time_ns += 1;
            }
        }
        Ok(())
    }

    fn measure(cfg: &Config, state: &mut State) -> Pass {
        run_clients(cfg, state, false).pass
    }

    fn measure_traced(
        cfg: &Config,
        state: &mut State,
        mut tracer: Tracer,
    ) -> Result<Traced, String> {
        let stats0 = stats(state)?;
        let mut run = run_clients(cfg, state, true);
        let stats1 = stats(state)?;
        for t in run.tracers.drain(..) {
            tracer.absorb(t);
        }

        // Standalone measurements, after the load has stopped.
        let mut run_ns = Vec::new();
        for &(trace, set) in run.simulated.iter().take(CODEC_SAMPLES) {
            let t = Instant::now();
            let p =
                Extrapolator::new(state.params[set].clone()).run(&state.resident[trace].program);
            run_ns.push(t.elapsed().as_nanos() as u64);
            std::hint::black_box(p.map_err(|e| e.to_string())?);
        }
        let mut codec_ns = Vec::new();
        for (req, rsp) in &run.frames {
            let t = Instant::now();
            let req_bytes = encode_request(req);
            let req_back = decode_request(&req_bytes).map_err(|e| e.to_string())?;
            let rsp_bytes = encode_response(rsp);
            let rsp_back = decode_response(&rsp_bytes).map_err(|e| e.to_string())?;
            codec_ns.push(t.elapsed().as_nanos() as u64);
            if req_back != *req || rsp_back != *rsp {
                run.pass
                    .fail("a wire frame did not survive encode/decode".into());
            }
        }

        let delta = |f: fn(&ServerStats) -> u64| (f(&stats1) - f(&stats0)) as f64;
        let count = |name: &'static str, value: f64| Metric {
            name,
            value,
            unit: "count",
        };
        let layer = |name: &'static str, span: &str| Metric {
            name,
            value: median_ms(&tracer.durations(span)),
            unit: "ms",
        };
        let layers = vec![
            layer("serve.admit_ms", "serve.admit"),
            layer("serve.wait_ms", "serve.wait"),
            layer("serve.submit_ms", "serve.submit_round_trip"),
            Metric {
                name: "serve.run_ms",
                value: median_ms(&run_ns),
                unit: "ms",
            },
            Metric {
                name: "proto.codec_us",
                value: median_ms(&codec_ns) * 1e3,
                unit: "us",
            },
            count("serve.jobs_done", delta(|s| s.jobs_done)),
            count("serve.jobs_failed", delta(|s| s.jobs_failed)),
            count("serve.evictions", delta(|s| s.evictions)),
            count("serve.sweep_batches", delta(|s| s.sweep_batches)),
            count("serve.coalesced_sweeps", delta(|s| s.coalesced_sweeps)),
            count("serve.translations", delta(|s| s.translations)),
            count("serve.busy", run.busy as f64),
            Metric {
                name: "serve.resident_bytes",
                value: stats1.resident_bytes as f64,
                unit: "B",
            },
        ];
        let notes = vec![format!(
            "serve.run_ms and proto.codec_us are standalone timings after the load \
             ({} local runs, {} frame pairs); {} of {} sweeps rode another's batch",
            run_ns.len(),
            codec_ns.len(),
            stats1.coalesced_sweeps - stats0.coalesced_sweeps,
            stats1.sweep_batches - stats0.sweep_batches + stats1.coalesced_sweeps
                - stats0.coalesced_sweeps
        )];
        let comparable_ms = run.pass.metrics()[0].value;
        Ok(Traced {
            untraced: None,
            pass: run.pass,
            comparable_ms,
            layers,
            tracer,
            notes,
        })
    }
}

fn stats(state: &State) -> Result<ServerStats, String> {
    Client::connect(&state.addr)
        .map_err(|e| e.to_string())?
        .stats()
        .map_err(|e| e.to_string())
}

/// The two clients' combined results.
#[derive(Default)]
struct Run {
    pass: Pass,
    tracers: Vec<Tracer>,
    busy: u64,
    /// `(trace, set)` of the `Simulate` requests, in client order.
    simulated: Vec<(usize, usize)>,
    /// Sampled request/response pairs.
    frames: Vec<(Request, Response)>,
}

/// One client's measured loop.
#[derive(Default)]
struct ClientRun {
    ops: Vec<OpRecord>,
    failures: Vec<String>,
    busy: u64,
    tracer: Tracer,
    simulated: Vec<(usize, usize)>,
    frames: Vec<(Request, Response)>,
    /// Fresh traces still resident at the end.
    submitted: VecDeque<TraceId>,
}

fn run_clients(cfg: &Config, state: &mut State, traced: bool) -> Run {
    // Enough blocks for any run; the loop stops on the clock.
    let blocks = ((cfg.seconds.max(1.0) * 4000.0) as usize / 20).max(10);
    let schedules: Vec<Vec<Kind>> = (0..CLIENTS)
        .map(|c| schedule(cfg.seed, c, state, blocks))
        .collect();
    let start = Barrier::new(CLIENTS);
    let clock = std::sync::OnceLock::new();
    let shared: &State = state;
    let results: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let (start, clock) = (&start, &clock);
                s.spawn(move || {
                    let mut client = match Client::connect(&shared.addr) {
                        Ok(c) => c,
                        Err(e) => {
                            return ClientRun {
                                failures: vec![format!("client {c}: connect: {e}")],
                                ..ClientRun::default()
                            }
                        }
                    };
                    start.wait();
                    let t0: &Instant = clock.get_or_init(Instant::now);
                    client_loop(cfg, shared, c, plan, &mut client, *t0, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut run = Run::default();
    run.pass.concurrent = true;
    for (c, r) in results.into_iter().enumerate() {
        run.pass.ops.extend(r.ops);
        for f in r.failures {
            run.pass.fail(f);
        }
        run.busy += r.busy;
        run.tracers.push(r.tracer);
        run.simulated.extend(r.simulated);
        run.frames.extend(r.frames);
        state.submitted[c] = r.submitted;
    }
    run.pass.ops.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    run
}

fn client_loop(
    cfg: &Config,
    state: &State,
    c: usize,
    plan: &[Kind],
    client: &mut Client,
    t0: Instant,
    traced: bool,
) -> ClientRun {
    let mut out = ClientRun {
        tracer: if traced {
            Tracer::new()
        } else {
            Tracer::disabled()
        },
        submitted: state.submitted[c].clone(),
        ..ClientRun::default()
    };
    let min_ops = cfg.min_ops() / CLIENTS;
    for (i, &kind) in plan.iter().enumerate() {
        if i >= min_ops && t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let op_id = ((c as u64) << 40) | (i as u64 + 1);
        let op = out.tracer.begin("serve.request", None, op_id);
        let t = Instant::now();
        let result = one_request(state, kind, client, &mut out, op, op_id);
        let ns = t.elapsed().as_nanos() as u64;
        out.tracer.end(op);
        let (predictions, trace_bytes) = result.as_ref().map_or((0, 0), |&done| done);
        out.ops.push(OpRecord {
            end_s: t0.elapsed().as_secs_f64(),
            ns,
            predictions,
            trace_bytes,
        });
        if let Err(e) = result {
            out.failures
                .push(format!("client {c} request {i} ({kind:?}): {e}"));
        }
    }
    out
}

/// Sends one request of the mix and checks its reply; returns the
/// predictions it answered and the trace bytes it uploaded.
fn one_request(
    state: &State,
    kind: Kind,
    client: &mut Client,
    out: &mut ClientRun,
    op: SpanId,
    op_id: u64,
) -> Result<(u32, u64), String> {
    match kind {
        Kind::Simulate { trace, set } => {
            let req = Request::Simulate {
                trace: state.resident[trace].id,
                params: state.params_text[set].clone(),
            };
            let rsp = job(client, &req, out, op, op_id)?;
            out.simulated.push((trace, set));
            sample(out, req, &rsp);
            match rsp {
                Response::Prediction(p) if p == state.expected[trace][set] => Ok((1, 0)),
                Response::Prediction(p) => Err(format!(
                    "served {} ns / {} events, local {} ns / {} events",
                    p.exec_time_ns,
                    p.events_dispatched,
                    state.expected[trace][set].exec_time_ns,
                    state.expected[trace][set].events_dispatched
                )),
                other => Err(format!("expected a prediction, got {other:?}")),
            }
        }
        Kind::Sweep(k) => {
            let (spec, want) = &state.sweeps[k];
            let req = Request::Sweep(spec.clone());
            let rsp = job(client, &req, out, op, op_id)?;
            sample(out, req, &rsp);
            match rsp {
                Response::SweepRows(rows) if rows == *want => Ok((rows.len() as u32, 0)),
                Response::SweepRows(rows) => Err(format!(
                    "sweep returned {} rows, the warm-up {}",
                    rows.len(),
                    want.len()
                )),
                other => Err(format!("expected sweep rows, got {other:?}")),
            }
        }
        Kind::Submit(f) => {
            let (req, threads) = &state.fresh[f];
            let span = out.tracer.begin("serve.submit_round_trip", Some(op), op_id);
            let rsp = round(client, req, out)?;
            out.tracer.end(span);
            let bytes = match req {
                Request::SubmitTrace { payload, .. } => payload.len() as u64,
                _ => 0,
            };
            match rsp {
                Response::Submitted {
                    trace, n_threads, ..
                } if n_threads == *threads => {
                    out.submitted.push_back(trace);
                    Ok((0, bytes))
                }
                other => Err(format!(
                    "expected Submitted ({threads} threads), got {other:?}"
                )),
            }
        }
        Kind::Evict => {
            let trace = out
                .submitted
                .pop_front()
                .ok_or("no fresh trace left to evict")?;
            let span = out.tracer.begin("serve.evict_round_trip", Some(op), op_id);
            let rsp = round(client, &Request::Evict { trace }, out)?;
            out.tracer.end(span);
            match rsp {
                Response::Evicted { freed_bytes } if freed_bytes > 0 => Ok((0, 0)),
                other => Err(format!("expected Evicted, got {other:?}")),
            }
        }
    }
}

/// One exchange; a `Busy` answer is counted and fails the op (a refused
/// request misses any latency limit).
fn round(client: &mut Client, req: &Request, out: &mut ClientRun) -> Result<Response, String> {
    match client.request(req) {
        Ok(Response::Error { code, detail }) => {
            if code == extrap_proto::ErrorCode::Busy {
                out.busy += 1;
            }
            Err(format!("server error [{code}]: {detail}"))
        }
        Ok(rsp) => Ok(rsp),
        Err(e) => Err(e.to_string()),
    }
}

/// A job request: admission (`Accepted`), then `FetchResult` until the
/// result lands.
fn job(
    client: &mut Client,
    req: &Request,
    out: &mut ClientRun,
    op: SpanId,
    op_id: u64,
) -> Result<Response, String> {
    let admit = out.tracer.begin("serve.admit", Some(op), op_id);
    let job = match round(client, req, out)? {
        Response::Accepted { job } => job,
        other => return Err(format!("expected Accepted, got {other:?}")),
    };
    out.tracer.end(admit);
    let wait = out.tracer.begin("serve.wait", Some(op), op_id);
    loop {
        match round(
            client,
            &Request::FetchResult {
                job,
                wait_ms: FETCH_WAIT_MS,
            },
            out,
        )? {
            Response::Pending { .. } => continue,
            rsp => {
                out.tracer.end(wait);
                return Ok(rsp);
            }
        }
    }
}

fn sample(out: &mut ClientRun, req: Request, rsp: &Response) {
    if out.tracer.is_enabled() && out.frames.len() < CODEC_SAMPLES {
        out.frames.push((req, rsp.clone()));
    }
}
