//! Property-based tests of the extrapolation models over randomized
//! synthetic phase programs.
//!
//! crates.io is unreachable in the build environment, so instead of
//! `proptest` these drive each property over a fixed number of cases
//! drawn from `SplitMix64::cases`: same coverage style,
//! bit-reproducible failures.

use perf_extrap::prelude::*;
use perf_extrap::time::SplitMix64;

const CASES: u64 = 48;

/// One thread's work in one phase: compute ns + optional remote access
/// (owner offset, declared bytes).
type PhaseSpec = (u64, Option<(u32, u32)>);

/// A random phase-structured program description: threads in 1..=8,
/// 1..6 phases, per thread per phase compute in 1..500us and an optional
/// remote access (owner offset, bytes).
fn arb_program(rng: &mut SplitMix64) -> (usize, Vec<Vec<PhaseSpec>>) {
    let n = rng.range(1, 9) as usize;
    let n_phases = rng.range(1, 6) as usize;
    let phases = (0..n_phases)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let compute = rng.range(1_000, 500_000);
                    let access = if rng.below(100) < 50 {
                        Some((rng.range(1, 8) as u32, rng.range(1, 100_000) as u32))
                    } else {
                        None
                    };
                    (compute, access)
                })
                .collect()
        })
        .collect();
    (n, phases)
}

fn build_set(n: usize, phases: &[Vec<PhaseSpec>]) -> TraceSet {
    let mut p = PhaseProgram::new(n);
    for phase in phases {
        let work = phase
            .iter()
            .enumerate()
            .map(|(t, &(compute, access))| {
                let mut w = perf_extrap::trace::PhaseWork {
                    compute: DurationNs(compute),
                    accesses: vec![],
                };
                if let Some((owner_off, bytes)) = access {
                    let owner = (t + owner_off as usize) % n;
                    if owner != t {
                        w.accesses.push(perf_extrap::trace::PhaseAccess {
                            after: DurationNs(compute / 2),
                            owner: ThreadId::from_index(owner),
                            element: ElementId::from_index(t),
                            declared_bytes: bytes.max(1),
                            actual_bytes: (bytes / 4).max(1),
                            write: false,
                        });
                    }
                }
                w
            })
            .collect();
        p.push_phase(work);
    }
    translate(&p.record(), TranslateOptions::default()).unwrap()
}

/// [`build_set`], compiled for the engine.
fn build(n: usize, phases: &[Vec<PhaseSpec>]) -> CompiledProgram {
    CompiledProgram::compile(&build_set(n, phases)).unwrap()
}

#[test]
fn ideal_machine_reproduces_makespan() {
    for mut rng in SplitMix64::cases(0x1DEA, CASES) {
        let (n, phases) = arb_program(&mut rng);
        let set = build_set(n, &phases);
        let ts = CompiledProgram::compile(&set).unwrap();
        let pred = Extrapolator::new(machine::ideal()).run(&ts).unwrap();
        assert_eq!(pred.exec_time(), set.makespan());
    }
}

#[test]
fn predictions_never_beat_the_ideal_schedule() {
    for mut rng in SplitMix64::cases(0x00F1_0012, CASES) {
        let (n, phases) = arb_program(&mut rng);
        let set = build_set(n, &phases);
        let ts = CompiledProgram::compile(&set).unwrap();
        for params in [
            machine::default_distributed(),
            machine::shared_memory(),
            machine::cm5(),
        ] {
            let pred = Extrapolator::new(params.clone()).run(&ts).unwrap();
            let floor = set.makespan().as_ns() as f64 * params.mips_ratio;
            assert!(
                pred.exec_time().as_ns() as f64 >= floor * 0.999,
                "{:?} beat the scaled ideal: {} < {}",
                params.policy,
                pred.exec_time().as_ns(),
                floor
            );
        }
    }
}

#[test]
fn mips_ratio_exactly_scales_pure_compute() {
    for mut rng in SplitMix64::cases(0x5CA1E, CASES) {
        let (n, phases) = arb_program(&mut rng);
        // Strip accesses: pure compute programs scale exactly.
        let stripped: Vec<Vec<PhaseSpec>> = phases
            .iter()
            .map(|ph| ph.iter().map(|&(c, _)| (c, None)).collect())
            .collect();
        let set = build_set(n, &stripped);
        let ts = CompiledProgram::compile(&set).unwrap();
        let mut params = machine::ideal();
        params.mips_ratio = 2.0;
        let doubled = Extrapolator::new(params.clone())
            .run(&ts)
            .unwrap()
            .exec_time();
        assert_eq!(doubled.as_ns(), set.makespan().as_ns() * 2);
    }
}

#[test]
fn faster_networks_never_slow_programs_down() {
    for mut rng in SplitMix64::cases(0xBA2D, CASES) {
        let (n, phases) = arb_program(&mut rng);
        let ts = build(n, &phases);
        let slow = {
            let mut p = machine::default_distributed();
            p.comm = p.comm.with_bandwidth_mbps(5.0);
            Extrapolator::new(p.clone()).run(&ts).unwrap().exec_time()
        };
        let fast = {
            let mut p = machine::default_distributed();
            p.comm = p.comm.with_bandwidth_mbps(500.0);
            Extrapolator::new(p.clone()).run(&ts).unwrap().exec_time()
        };
        assert!(fast <= slow, "fast {fast} > slow {slow}");
    }
}

#[test]
fn actual_size_mode_never_loses_to_declared() {
    for mut rng in SplitMix64::cases(0x517E, CASES) {
        let (n, phases) = arb_program(&mut rng);
        // actual_bytes <= declared_bytes by construction.
        let ts = build(n, &phases);
        let mut declared = machine::default_distributed();
        declared.size_mode = SizeMode::Declared;
        let mut actual = machine::default_distributed();
        actual.size_mode = SizeMode::Actual;
        let td = Extrapolator::new(declared.clone())
            .run(&ts)
            .unwrap()
            .exec_time();
        let ta = Extrapolator::new(actual.clone())
            .run(&ts)
            .unwrap()
            .exec_time();
        assert!(ta <= td, "actual {ta} > declared {td}");
    }
}

#[test]
fn predicted_traces_are_valid_and_consistent() {
    for mut rng in SplitMix64::cases(0x7ACE, CASES) {
        let (n, phases) = arb_program(&mut rng);
        let set = build_set(n, &phases);
        let ts = CompiledProgram::compile(&set).unwrap();
        let pred = Extrapolator::new(machine::cm5()).run(&ts).unwrap();
        pred.predicted.validate().unwrap();
        assert_eq!(pred.predicted.makespan(), pred.exec_time());
        // Same barrier structure as the input.
        assert_eq!(
            pred.predicted.threads[0].barrier_sequence(),
            set.threads[0].barrier_sequence()
        );
        // Barrier count matches.
        assert_eq!(pred.barriers, set.threads[0].barrier_sequence().len());
    }
}

#[test]
fn extrapolation_is_deterministic() {
    for mut rng in SplitMix64::cases(0xDE7E, CASES) {
        let (n, phases) = arb_program(&mut rng);
        let ts = build(n, &phases);
        let params = machine::default_distributed();
        let a = Extrapolator::new(params.clone()).run(&ts).unwrap();
        let b = Extrapolator::new(params.clone()).run(&ts).unwrap();
        assert_eq!(a.exec_time(), b.exec_time());
        assert_eq!(a.predicted, b.predicted);
    }
}

#[test]
fn multithread_m_equals_n_matches_one_per_proc() {
    for mut rng in SplitMix64::cases(0x3EAD, CASES) {
        let (n, phases) = arb_program(&mut rng);
        let ts = build(n, &phases);
        let mut explicit = machine::default_distributed();
        explicit.multithread.mapping = ThreadMapping::Block { procs: n };
        let implicit = machine::default_distributed();
        let a = Extrapolator::new(explicit.clone())
            .run(&ts)
            .unwrap()
            .exec_time();
        let b = Extrapolator::new(implicit.clone())
            .run(&ts)
            .unwrap()
            .exec_time();
        assert_eq!(a, b);
    }
}

#[test]
fn reference_machine_also_completes() {
    for mut rng in SplitMix64::cases(0x2EF5, CASES) {
        let (n, phases) = arb_program(&mut rng);
        let program = build(n, &phases);
        let pred = RefMachine::new(machine::cm5()).measure(&program).unwrap();
        assert!(pred.exec_time() >= TimeNs::ZERO);
        pred.predicted.validate().unwrap();
    }
}
