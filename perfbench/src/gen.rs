//! Seeded input generators — the only place `--seed` enters.
//!
//! Inputs are *stratified*: the seed draws the details (timings,
//! owners, parameter values, orders), while the composition that sets
//! the amount of work (how many programs of which width, which policies
//! and topologies, the request mix) is fixed.  Two seeds therefore give
//! different inputs of the same cost, so run-to-run spread measures the
//! program, not the draw.

use extrap_core::{machine, RecordMode, ServicePolicy, SimParams, SimStrategy, Topology};
use extrap_time::{DurationNs, ElementId, ThreadId};
use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace};

/// SplitMix64, one independent stream per `(seed, stream)` pair.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `stream` under `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut state = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        // One step decorrelates neighbouring seeds.
        extrap_trace::phases::splitmix64(&mut state);
        Rng(state)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        extrap_trace::phases::splitmix64(&mut self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The cost-setting shape of one synthetic program.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Threads.
    pub threads: usize,
    /// Total records to aim for (epochs are derived from it).
    pub records: usize,
    /// Remote accesses per thread per epoch.
    pub accesses: usize,
}

/// A barrier-phased program of `shape`, its details drawn from `rng`:
/// per-thread compute and imbalance, owner skew towards one hot thread,
/// write share, element choice and transfer sizes.
pub fn program(shape: Shape, rng: &mut Rng) -> ProgramTrace {
    let n = shape.threads;
    let per_epoch = n * (shape.accesses + 2);
    let epochs = (shape.records / per_epoch).max(2);
    let skew = rng.range(0.1, 0.4);
    let write_share = rng.range(0.2, 0.4);
    let imbalance = rng.range(0.1, 0.3);
    let hot = rng.below(n);
    let mut p = PhaseProgram::new(n);
    for _ in 0..epochs {
        let phase = (0..n)
            .map(|t| {
                let compute_us = rng.range(40.0, 120.0) * (1.0 + imbalance * rng.unit());
                let compute = DurationNs::from_us(compute_us);
                let mut offsets: Vec<u64> = (0..shape.accesses)
                    .map(|_| rng.below(compute.as_ns() as usize) as u64)
                    .collect();
                offsets.sort_unstable();
                let accesses = offsets
                    .into_iter()
                    .map(|after| {
                        let owner = if rng.unit() < skew && hot != t {
                            hot
                        } else {
                            // Any thread but `t`: no self-accesses.
                            (t + 1 + rng.below(n - 1)) % n
                        };
                        let declared = [64u32, 256, 1024][rng.below(3)];
                        let write = rng.unit() < write_share;
                        // Elements are owner-partitioned, so every element
                        // has one owner.  Reads share 64 read-only
                        // elements per owner; each writer has an element
                        // of its own per owner, so no epoch races.
                        let element = if write { 64 + t } else { rng.below(64) };
                        PhaseAccess {
                            after: DurationNs(after),
                            owner: ThreadId::from_index(owner),
                            element: ElementId((owner * 256 + element) as u32),
                            declared_bytes: declared,
                            actual_bytes: declared / [1u32, 2, 4][rng.below(3)],
                            write,
                        }
                    })
                    .collect();
                PhaseWork { compute, accesses }
            })
            .collect();
        p.push_phase(phase);
    }
    p.record()
}

/// The eight parameter sets of one what-if question: a fixed mix of
/// service policies (three interrupt, three no-interrupt, two polling)
/// and topologies, with `MipsRatio` (0.5–2), comm start-up (20–120 µs)
/// and poll interval drawn from `rng`.  Exact strategy, metrics-only
/// recording.
pub fn param_sets(rng: &mut Rng) -> Vec<SimParams> {
    let mut policies = [0u8, 0, 0, 1, 1, 1, 2, 2];
    let mut topologies = [
        Topology::Mesh2D,
        Topology::Mesh2D,
        Topology::FatTree { arity: 4 },
        Topology::FatTree { arity: 4 },
        Topology::Hypercube,
        Topology::Hypercube,
        Topology::Crossbar,
        Topology::Bus,
    ];
    rng.shuffle(&mut policies);
    rng.shuffle(&mut topologies);
    let mips = latin(rng, policies.len(), 0.5f64.ln(), 2.0f64.ln());
    let startup = latin(rng, policies.len(), 20.0, 120.0);
    policies
        .iter()
        .zip(topologies)
        .enumerate()
        .map(|(i, (&policy, topology))| {
            let mut p = machine::default_distributed();
            p.mips_ratio = mips[i].exp();
            p.comm = p.comm.with_startup_us(startup[i]);
            p.policy = match policy {
                0 => ServicePolicy::Interrupt,
                1 => ServicePolicy::NoInterrupt,
                // Polls per unit of host compute are what a poll run
                // costs, so the interval scales with `MipsRatio`.
                _ => ServicePolicy::poll_us(p.mips_ratio * rng.range(180.0, 220.0)),
            };
            p.network.topology = topology;
            p.record_mode = RecordMode::MetricsOnly;
            p.strategy = SimStrategy::Exact;
            p
        })
        .collect()
}

/// `n` values of `[lo, hi)`, one from each of `n` equal strata, in a
/// random order (Latin hypercube sampling): every draw covers the range
/// evenly.
pub fn latin(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut strata: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut strata);
    strata
        .into_iter()
        .map(|k| lo + (hi - lo) * (k as f64 + rng.unit()) / n as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let shape = Shape {
            threads: 8,
            records: 2_000,
            accesses: 3,
        };
        let a = program(shape, &mut Rng::new(7, 1));
        let b = program(shape, &mut Rng::new(7, 1));
        let c = program(shape, &mut Rng::new(8, 1));
        assert_eq!(a.records, b.records);
        assert_ne!(a.records, c.records);
        assert_eq!(
            param_sets(&mut Rng::new(7, 2)),
            param_sets(&mut Rng::new(7, 2))
        );
    }

    #[test]
    fn generated_programs_translate_and_lint_clean() {
        let trace = program(
            Shape {
                threads: 16,
                records: 4_000,
                accesses: 4,
            },
            &mut Rng::new(3, 1),
        );
        let report = extrap_lint::lint_program(&trace);
        assert!(report.is_clean(), "{:?}", report.diagnostics.first());
        extrap_trace::translate(&trace, Default::default()).expect("translates");
    }

    #[test]
    fn param_sets_validate() {
        for p in param_sets(&mut Rng::new(11, 2)) {
            p.validate().expect("valid parameter set");
        }
    }
}
