//! Property tests: the static envelope must sandwich simulated
//! execution time — `span ≤ T ≤ upper`, plus the speedup-bound
//! sandwich — for every paper benchmark and for randomized programs,
//! under both simulation strategies.

use extrap_analyze::{analyze, envelope, verify_prediction};
use extrap_core::sweep::{sweep, SharedTraceCache, SweepJob};
use extrap_core::{machine, CompiledProgram, Extrapolator, ReprPlan, SimParams, SimStrategy};
use extrap_time::{DurationNs, ElementId, SplitMix64, ThreadId};
use extrap_trace::builder::{PhaseAccess, PhaseProgram, PhaseWork};
use extrap_trace::TraceSet;
use extrap_workloads::matmul::{self, MatmulConfig};
use extrap_workloads::{Bench, Scale};

fn compile(set: &TraceSet) -> CompiledProgram {
    CompiledProgram::compile(set).expect("compile")
}

fn machines() -> Vec<(&'static str, SimParams)> {
    vec![
        ("distributed", machine::default_distributed()),
        ("shared", machine::shared_memory()),
        ("cm5", machine::cm5()),
    ]
}

fn strategy_matrix() -> Vec<(&'static str, SimStrategy)> {
    vec![
        ("exact", SimStrategy::Exact),
        (
            "repr",
            SimStrategy::Representative {
                max_clusters: SimStrategy::DEFAULT_MAX_CLUSTERS,
                tolerance: SimStrategy::DEFAULT_TOLERANCE,
            },
        ),
    ]
}

/// Asserts the full sandwich for one compiled program under one
/// parameter set: envelope containment (via `verify_prediction`, which
/// also checks MipsRatio monotonicity) plus the explicit
/// `span ≤ T ≤ upper` and speedup inequalities.
fn assert_sandwich(label: &str, program: &CompiledProgram, params: &SimParams) {
    let pred = Extrapolator::new(params.clone())
        .run(program)
        .expect("simulate");
    if let Err(violation) = verify_prediction(program, params, &pred) {
        panic!("{label}: {violation}");
    }
    // The explicit inequality restated against the *exact* analysis
    // (only when the result is an exact simulation — representative
    // compositions are bounded by their own composed envelope above).
    let is_exact_shape = match params.strategy {
        SimStrategy::Exact => true,
        SimStrategy::Representative {
            max_clusters,
            tolerance,
        } => extrap_core::ReprPlan::from_program(program, max_clusters, tolerance).is_none(),
    };
    if !is_exact_shape {
        return;
    }
    let Ok(a) = analyze(program, params) else {
        return;
    };
    let t = pred.exec_time();
    assert!(
        a.span <= t && t <= a.upper,
        "{label}: exec {} outside [span {}, upper {}]",
        t.as_ns(),
        a.span.as_ns(),
        a.upper.as_ns()
    );
    if t.as_ns() > 0 && a.total_work.as_ns() > 0 {
        let speedup = a.total_work.as_ns() as f64 / t.as_ns() as f64;
        assert!(
            a.speedup_lower() <= speedup + 1e-9 && speedup <= a.speedup_upper() + 1e-9,
            "{label}: speedup {speedup} outside [{}, {}]",
            a.speedup_lower(),
            a.speedup_upper()
        );
    }
}

#[test]
fn registry_benches_sandwich() {
    for bench in Bench::all() {
        for n in [1usize, 2, 4, 8] {
            let set = extrap_trace::translate(&bench.trace(n, Scale::Small), Default::default())
                .expect("translate");
            let program = compile(&set);
            for (mname, base) in machines() {
                for (sname, strategy) in strategy_matrix() {
                    let mut params = base.clone();
                    params.strategy = strategy;
                    let label = format!("{}/{n}t/{mname}/{sname}", bench.name());
                    assert_sandwich(&label, &program, &params);
                }
            }
        }
    }
}

fn bench_program(bench: Bench, n: usize) -> CompiledProgram {
    compile(
        &extrap_trace::translate(&bench.trace(n, Scale::Small), Default::default())
            .expect("translate"),
    )
}

/// A result produced under a 50x slower processor but presented as a
/// run of the honest parameters, or one with impossible thread end
/// times, fails verification (honest results of both strategies pass in
/// `registry_benches_sandwich`).
#[test]
fn corrupted_results_are_rejected() {
    let program = bench_program(Bench::Grid, 4);
    let honest = machine::default_distributed();
    let mut corrupted = honest.clone();
    corrupted.mips_ratio *= 50.0;
    let bogus = Extrapolator::new(corrupted)
        .run(&program)
        .expect("corrupted run");
    let violation = verify_prediction(&program, &honest, &bogus)
        .expect_err("a 50x MipsRatio result escapes the honest envelope");
    assert!(
        violation.contains("escapes its static exact envelope"),
        "{violation}"
    );

    let mut wild = Extrapolator::new(honest.clone())
        .run(&program)
        .expect("simulate");
    for b in &mut wild.per_thread {
        b.end_time = extrap_time::TimeNs(u64::MAX / 2);
    }
    assert!(verify_prediction(&program, &honest, &wild).is_err());
}

/// Representative sweep results verify against the cached program,
/// whether clustering engages (Grid has a plan) or the job falls back
/// to the exact path (Embar has none).
#[test]
fn repr_sweep_results_verify() {
    const THREADS: usize = 4;
    let has_plan = |bench| {
        let program = bench_program(bench, THREADS);
        ReprPlan::from_program(
            &program,
            SimStrategy::DEFAULT_MAX_CLUSTERS,
            SimStrategy::DEFAULT_TOLERANCE,
        )
        .is_some()
    };
    assert!(has_plan(Bench::Grid), "Grid must exercise the plan path");
    assert!(!has_plan(Bench::Embar), "Embar must exercise the fallback");

    let mut params = machine::default_distributed();
    params.strategy = SimStrategy::representative();
    let jobs: Vec<SweepJob<Bench>> = [Bench::Grid, Bench::Embar]
        .into_iter()
        .map(|key| SweepJob {
            key,
            params: params.clone(),
        })
        .collect();
    let cache = SharedTraceCache::new();
    let source = |bench: &Bench| {
        extrap_trace::translate(&bench.trace(THREADS, Scale::Small), Default::default())
    };
    let results = sweep(&jobs, 1, &cache, source);
    for (job, result) in jobs.iter().zip(results) {
        let pred = result.expect("sweep job");
        let cached = cache
            .get_or_translate(job.key, || source(&job.key))
            .expect("cached");
        if let Err(violation) = verify_prediction(cached.program(), &job.params, &pred) {
            panic!("{:?}: {violation}", job.key);
        }
    }
    assert_eq!(cache.translations(), 2, "verification reads the cache");
}

#[test]
fn matmul_sandwich() {
    for n in [1usize, 2, 4] {
        let (trace, _) = matmul::run(n, &MatmulConfig::default());
        let set = extrap_trace::translate(&trace, Default::default()).expect("translate");
        let program = compile(&set);
        for (mname, base) in machines() {
            for (sname, strategy) in strategy_matrix() {
                let mut params = base.clone();
                params.strategy = strategy;
                assert_sandwich(&format!("matmul/{n}t/{mname}/{sname}"), &program, &params);
            }
        }
    }
}

#[test]
fn mips_ratio_sweep_sandwich() {
    // The fig4-style axis: bounds must track the simulator across the
    // MipsRatio sweep, not just at the preset point.
    let set = extrap_trace::translate(&Bench::all()[3].trace(4, Scale::Small), Default::default())
        .expect("translate");
    let program = compile(&set);
    for ratio in [0.25, 0.5, 1.0, 2.0, 5.0, 10.0] {
        for (mname, base) in machines() {
            let mut params = base.clone();
            params.mips_ratio = ratio;
            assert_sandwich(&format!("grid/r{ratio}/{mname}"), &program, &params);
        }
    }
}

// ---------------------------------------------------------------------
// Randomized programs
// ---------------------------------------------------------------------

/// Builds a random phase-structured program: every thread performs the
/// same number of barrier-terminated phases (the analyzer's coverage),
/// with random per-phase compute and random remote reads/writes to
/// random owners at random transfer sizes.
fn random_program(rng: &mut SplitMix64) -> CompiledProgram {
    let n = 1 + rng.below(6) as usize;
    let n_phases = 1 + rng.below(8) as usize;
    let mut pp = PhaseProgram::new(n);
    let mut element = 0u32;
    for _ in 0..n_phases {
        let mut phase = Vec::with_capacity(n);
        for _ in 0..n {
            let compute = DurationNs(rng.below(5_000));
            let mut accesses = Vec::new();
            for _ in 0..rng.below(4) {
                let after = DurationNs(rng.below(compute.as_ns() + 1));
                let bytes = 1 + rng.below(4096) as u32;
                element += 1;
                accesses.push(PhaseAccess {
                    after,
                    owner: ThreadId(rng.below(n as u64) as u32),
                    element: ElementId(element),
                    declared_bytes: bytes,
                    actual_bytes: 1 + rng.below(u64::from(bytes)) as u32,
                    write: rng.below(2) == 0,
                });
            }
            accesses.sort_by_key(|a| a.after);
            phase.push(PhaseWork { compute, accesses });
        }
        pp.push_phase(phase);
    }
    let set = extrap_trace::translate(&pp.record(), Default::default()).expect("translate");
    compile(&set)
}

#[test]
fn random_programs_sandwich() {
    let mut rng = SplitMix64::new(0x5eed_1995_u64);
    for i in 0..60 {
        let program = random_program(&mut rng);
        for (mname, base) in machines() {
            for (sname, strategy) in strategy_matrix() {
                let mut params = base.clone();
                params.strategy = strategy;
                assert_sandwich(&format!("rand{i}/{mname}/{sname}"), &program, &params);
            }
        }
    }
}

#[test]
fn empty_and_degenerate_programs() {
    let set = TraceSet { threads: vec![] };
    let program = compile(&set);
    let params = machine::default_distributed();
    let a = analyze(&program, &params).expect("empty program analyzes");
    assert_eq!(a.span, extrap_time::TimeNs::ZERO);
    assert_eq!(a.upper, extrap_time::TimeNs::ZERO);
    assert!(envelope(&program, &params).is_some());
}
