//! `whatif-sweep`: one what-if question is one captured trace under
//! eight parameter sets, answered from a warm trace cache through
//! `extrap_core::sweep` with two workers.  Simulation is nearly the
//! whole op; nothing is ingested per question.

use crate::gen::{self, Rng};
use crate::host::CpuTimes;
use crate::spans::{median_ms, Tracer};
use crate::{ms, Bench, Config, Metric, Pass, Size, Traced};
use extrap_core::sweep::{sweep, SharedTraceCache, SweepJob};
use extrap_core::{Extrapolator, ProcBreakdown};
use extrap_trace::TraceError;
use extrap_workloads::{Bench as Program, Scale};
use std::time::Instant;

/// Workers of the measured sweep (the box's two cores).
const SWEEP_WORKERS: usize = 2;

pub(crate) struct WhatifSweep;

/// What one prediction must reproduce.
#[derive(Clone, Debug, PartialEq)]
struct Expected {
    exec_ns: u64,
    per_thread: Vec<ProcBreakdown>,
    events: u64,
}

impl Expected {
    fn of(p: &extrap_core::Prediction) -> Expected {
        Expected {
            exec_ns: p.exec_time().as_ns(),
            per_thread: p.per_thread.clone(),
            events: p.events_dispatched,
        }
    }
}

struct Question {
    label: String,
    /// On-disk size of the captured program trace (`XTRP` bytes).
    trace_bytes: u64,
    jobs: Vec<SweepJob<usize>>,
    expected: Vec<Expected>,
}

pub(crate) struct State {
    cache: SharedTraceCache<usize>,
    questions: Vec<Question>,
    /// Question order of the measured passes (seeded).
    order: Vec<usize>,
    capture_ns: u64,
    capture_cpu: CpuTimes,
    records: u64,
}

/// The captured programs: the paper's seven at 8, 16 and 32 threads,
/// plus the four cheap ones at 64 threads, where `SchedulerKind::Auto`
/// picks the calendar queue.
fn programs(size: Size) -> Vec<(Program, usize, Scale)> {
    let (widths, wide, scale): (&[usize], &[Program], Scale) = match size {
        Size::Full => (
            &[8, 16, 32],
            &[
                Program::Embar,
                Program::Cyclic,
                Program::Poisson,
                Program::Sort,
            ],
            Scale::Paper,
        ),
        Size::Tiny => (&[4], &[Program::Grid], Scale::Tiny),
    };
    let wide_n = widths.last().copied().unwrap_or(4) * 2;
    let mut out = Vec::new();
    for &n in widths {
        out.extend(Program::all().into_iter().map(|b| (b, n, scale)));
    }
    out.extend(wide.iter().map(|&b| (b, wide_n, scale)));
    out
}

fn no_translation(_: &usize) -> Result<extrap_trace::TraceSet, TraceError> {
    Err(TraceError::Format {
        detail: "the measured sweep missed the warm trace cache".into(),
    })
}

impl Bench for WhatifSweep {
    type State = State;

    fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<State, String> {
        let params = gen::param_sets(&mut Rng::new(cfg.seed, 1));
        let cache = SharedTraceCache::new();
        let mut questions = Vec::new();
        let (mut capture_ns, mut records) = (0u64, 0u64);
        let mut capture_cpu = CpuTimes::default();
        // Capture runs one program at a time: pcpp's turn handoffs are
        // kernel-heavy, and concurrent captures made set-up time wander.
        for (key, (program, n, scale)) in programs(cfg.size).into_iter().enumerate() {
            let label = format!("{}/{n}", program.name());
            let cpu0 = CpuTimes::now();
            let span = tracer.begin("pcpp.capture", None, 0);
            let trace = program.trace(n, scale);
            capture_ns += tracer.end(span);
            let cpu = CpuTimes::now().since(cpu0);
            capture_cpu.user += cpu.user;
            capture_cpu.sys += cpu.sys;
            records += trace.records.len() as u64;
            let trace_bytes = extrap_trace::format::encode_program(&trace).len() as u64;
            let span = tracer.begin("core.translate_compile", None, 0);
            cache
                .get_or_translate(key, || extrap_trace::translate(&trace, Default::default()))
                .map_err(|e| format!("{label}: {e}"))?;
            tracer.end(span);
            let jobs = params
                .iter()
                .map(|p| SweepJob {
                    key,
                    params: p.clone(),
                })
                .collect();
            questions.push(Question {
                label,
                trace_bytes,
                jobs,
                expected: Vec::new(),
            });
        }
        let mut order: Vec<usize> = (0..questions.len()).collect();
        Rng::new(cfg.seed, 2).shuffle(&mut order);
        Ok(State {
            cache,
            questions,
            order,
            capture_ns,
            capture_cpu,
            records,
        })
    }

    /// The serial reference: every (trace, parameter set) pair through
    /// `Extrapolator::run`, one at a time.
    fn references(cfg: &Config, state: &mut State) -> Result<(), String> {
        for (key, q) in state.questions.iter_mut().enumerate() {
            let cached = state
                .cache
                .get_or_translate(key, || no_translation(&key))
                .map_err(|e| e.to_string())?;
            q.expected = q
                .jobs
                .iter()
                .map(|j| {
                    Extrapolator::new(j.params.clone())
                        .run(cached.program())
                        .map(|p| Expected::of(&p))
                        .map_err(|e| format!("{}: {e}", q.label))
                })
                .collect::<Result<_, _>>()?;
        }
        if cfg.corrupt_reference {
            state.questions[0].expected[0].exec_ns += 1;
        }
        Ok(())
    }

    fn measure(cfg: &Config, state: &mut State) -> Pass {
        let mut pass = Pass::default();
        let translations = state.cache.translations();
        let start = Instant::now();
        let mut i = 0;
        while !cfg.deadline_passed(start, pass.ops.len()) {
            let q = &state.questions[state.order[i % state.order.len()]];
            i += 1;
            let t = Instant::now();
            let results = sweep(&q.jobs, SWEEP_WORKERS, &state.cache, no_translation);
            let ns = t.elapsed().as_nanos() as u64;
            let answered = results.iter().filter(|r| r.is_ok()).count() as u32;
            pass.record(start, ns, answered, q.trace_bytes);
            if let Err(e) = check(q, &results) {
                pass.fail(e);
            }
        }
        check_no_translation(state, translations, &mut pass);
        pass
    }

    fn measure_traced(
        cfg: &Config,
        state: &mut State,
        mut tracer: Tracer,
    ) -> Result<Traced, String> {
        let mut pass = Pass::default();
        let translations = state.cache.translations();
        let (mut simulate_ns, mut sweep1_ns, mut sweep2_ns) = (Vec::new(), 0u64, 0u64);
        let mut events = 0u64;
        let start = Instant::now();
        let mut i = 0;
        while !cfg.deadline_passed(start, pass.ops.len()) {
            let key = state.order[i % state.order.len()];
            let q = &state.questions[key];
            i += 1;
            let op_id = i as u64;
            let op = tracer.begin("whatif.question", None, op_id);
            // The eight predictions one at a time, outside the sweep
            // engine: the simulation cost alone.
            let sim = tracer.begin("core.simulate", Some(op), op_id);
            let cached = state
                .cache
                .get_or_translate(key, || no_translation(&key))
                .map_err(|e| e.to_string())?;
            let mut serial = Vec::with_capacity(q.jobs.len());
            for j in &q.jobs {
                serial.push(Extrapolator::new(j.params.clone()).run(cached.program()));
            }
            simulate_ns.push(tracer.end(sim));
            let s1 = tracer.begin("core.sweep_1_worker", Some(op), op_id);
            let one = sweep(&q.jobs, 1, &state.cache, no_translation);
            sweep1_ns += tracer.end(s1);
            let s2 = tracer.begin("core.sweep_2_workers", Some(op), op_id);
            let two = sweep(&q.jobs, SWEEP_WORKERS, &state.cache, no_translation);
            sweep2_ns += tracer.end(s2);
            let ns = tracer.end(op);
            let answered = two.iter().filter(|r| r.is_ok()).count() as u32;
            pass.record(start, ns, answered, q.trace_bytes);
            events += serial
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|p| p.events_dispatched)
                .sum::<u64>();
            let serial: Vec<_> = serial
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect();
            let outcome = check(q, &serial)
                .and_then(|()| check(q, &one))
                .and_then(|()| check(q, &two));
            if let Err(e) = outcome {
                pass.fail(e);
            }
        }
        let translated = state.cache.translations() - translations;
        check_no_translation(state, translations, &mut pass);

        let questions = simulate_ns.len().max(1) as f64;
        let simulate_total: u64 = simulate_ns.iter().sum();
        let cycle_events: u64 = state
            .questions
            .iter()
            .flat_map(|q| &q.expected)
            .map(|e| e.events)
            .sum();
        let layers = vec![
            Metric {
                name: "pcpp.capture_s",
                value: state.capture_ns as f64 / 1e9,
                unit: "s",
            },
            Metric {
                name: "pcpp.sys_share",
                value: state.capture_cpu.sys_share(),
                unit: "ratio",
            },
            Metric {
                name: "pcpp.records",
                value: state.records as f64,
                unit: "count",
            },
            Metric {
                name: "core.simulate_ms",
                value: median_ms(&simulate_ns),
                unit: "ms",
            },
            Metric {
                name: "core.sweep_overhead_ms",
                value: ms(sweep1_ns) / questions - ms(simulate_total) / questions,
                unit: "ms",
            },
            Metric {
                name: "core.sweep_parallel_eff",
                value: simulate_total as f64 / (SWEEP_WORKERS as f64 * sweep2_ns.max(1) as f64),
                unit: "ratio",
            },
            Metric {
                name: "core.cache_translations",
                value: translated as f64,
                unit: "count",
            },
            Metric {
                name: "sim.events",
                value: cycle_events as f64,
                unit: "count",
            },
            Metric {
                name: "sim.ns_per_event",
                value: simulate_total as f64 / events.max(1) as f64,
                unit: "ns",
            },
        ];
        let (user_s, sys_s) = state.capture_cpu.seconds();
        let notes = vec![
            format!(
                "capture: {} programs, {} records, {:.2} s wall, {user_s:.2} s user + {sys_s:.2} s sys",
                state.questions.len(),
                state.records,
                state.capture_ns as f64 / 1e9
            ),
            format!(
                "sim.events counts one cycle over every question ({} predictions); \
                 core.translate_compile is the whole-trace adapter, timed in set-up",
                state.questions.len() * state.questions.first().map_or(0, |q| q.jobs.len())
            ),
        ];
        Ok(Traced {
            untraced: None,
            pass,
            // The untraced op is the two-worker sweep alone.
            comparable_ms: median_ms(&tracer.durations("core.sweep_2_workers")),
            layers,
            tracer,
            notes,
        })
    }
}

/// Every prediction of one question against the serial reference.
fn check<E: std::fmt::Display>(
    q: &Question,
    results: &[Result<extrap_core::Prediction, E>],
) -> Result<(), String> {
    if results.len() != q.expected.len() {
        return Err(format!(
            "{}: {} results for {} parameter sets",
            q.label,
            results.len(),
            q.expected.len()
        ));
    }
    for (i, (r, want)) in results.iter().zip(&q.expected).enumerate() {
        match r {
            Ok(p) if Expected::of(p) == *want => {}
            Ok(p) => {
                return Err(format!(
                    "{} set {i}: predicted {} ns / {} events, reference {} ns / {} events",
                    q.label,
                    p.exec_time().as_ns(),
                    p.events_dispatched,
                    want.exec_ns,
                    want.events
                ))
            }
            Err(e) => return Err(format!("{} set {i}: {e}", q.label)),
        }
    }
    Ok(())
}

fn check_no_translation(state: &State, before: usize, pass: &mut Pass) {
    let after = state.cache.translations();
    if after != before {
        pass.fail(format!(
            "the warm cache translated {} traces during measured ops",
            after - before
        ));
    }
}
