//! **Embar** — the NAS "embarrassingly parallel" benchmark.
//!
//! Each thread generates uniform pseudo-random pairs, applies the
//! Marsaglia polar (Box–Muller) acceptance test to produce Gaussian
//! deviates, and tallies them into ten annular bins.  The only
//! communication is the final tally reduction — the benchmark should
//! speed up linearly on almost any machine, which is exactly what the
//! paper's Fig. 4 shows.

use crate::util::{seeded_rng, VecReduction};
use extrap_trace::ProgramTrace;
use pcpp_rt::sync::Mutex;
use pcpp_rt::Program;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct EmbarConfig {
    /// Total candidate pairs across all threads.
    pub pairs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmbarConfig {
    fn default() -> EmbarConfig {
        EmbarConfig {
            pairs: 50_000,
            seed: 271_828,
        }
    }
}

/// Result of the run (for verification).
#[derive(Clone, Debug, PartialEq)]
pub struct EmbarResult {
    /// Accepted (Gaussian) pair count.
    pub accepted: u64,
    /// Per-bin counts of `max(|x|, |y|)`.
    pub bins: [u64; 10],
    /// Sum of all deviates (checksum).
    pub sum_x: f64,
    /// Sum of squares (checksum).
    pub sum_y: f64,
}

/// Runs Embar on `n_threads` and returns the 1-processor trace plus the
/// numeric result.
pub fn run(n_threads: usize, config: &EmbarConfig) -> (ProgramTrace, EmbarResult) {
    let per_thread = config.pairs.div_ceil(n_threads as u64);
    // One combined tally reduction: 10 bins + sum_x + sum_y + accepted.
    let reduction = VecReduction::new(n_threads, 13);
    let bins_out: Mutex<[f64; 10]> = Mutex::new([0.0; 10]);
    let sums_out: Mutex<(f64, f64, f64)> = Mutex::new((0.0, 0.0, 0.0));
    let seed = config.seed;

    let trace = Program::new(n_threads).run(|ctx| {
        let mut rng = seeded_rng(seed ^ (0x1000 + ctx.id().0 as u64));
        let mut bins = [0u64; 10];
        let mut accepted = 0u64;
        let (mut sx, mut sy) = (0.0f64, 0.0f64);
        for _ in 0..per_thread {
            let a = 2.0 * rng.next_f64() - 1.0;
            let b = 2.0 * rng.next_f64() - 1.0;
            let t = a * a + b * b;
            // ~10 flops per candidate pair (NAS EP inner loop scale).
            ctx.charge_flops(10);
            if t <= 1.0 && t > 0.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                let (x, y) = (a * f, b * f);
                ctx.charge_flops(8);
                accepted += 1;
                sx += x;
                sy += y;
                let m = x.abs().max(y.abs());
                let bin = (m as usize).min(9);
                bins[bin] += 1;
            }
        }
        // One combined tally reduction (bins, checksums, accepted count).
        let mut partial = [0.0f64; 13];
        for (p, &b) in partial.iter_mut().zip(bins.iter()) {
            *p = b as f64;
        }
        partial[10] = sx;
        partial[11] = sy;
        partial[12] = accepted as f64;
        let totals = reduction.sum(ctx, &partial);
        if ctx.id().0 == 0 {
            let mut bins_total = [0.0f64; 10];
            bins_total.copy_from_slice(&totals[..10]);
            *bins_out.lock() = bins_total;
            *sums_out.lock() = (totals[10], totals[11], totals[12]);
        }
    });

    let totals = bins_out.into_inner();
    let (sum_x, sum_y, accepted) = sums_out.into_inner();
    let mut bins = [0u64; 10];
    for (b, t) in bins.iter_mut().zip(totals.iter()) {
        *b = *t as u64;
    }
    (
        trace,
        EmbarResult {
            accepted: accepted as u64,
            bins,
            sum_x,
            sum_y,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_rate_is_pi_over_four() {
        let cfg = EmbarConfig {
            pairs: 40_000,
            seed: 7,
        };
        let (_, res) = run(4, &cfg);
        let rate = res.accepted as f64 / cfg.pairs as f64;
        assert!(
            (rate - std::f64::consts::FRAC_PI_4).abs() < 0.02,
            "rate {rate}"
        );
    }

    #[test]
    fn bins_account_for_every_accepted_pair() {
        let (_, res) = run(2, &EmbarConfig::default());
        assert_eq!(res.bins.iter().sum::<u64>(), res.accepted);
        // Nearly all Gaussian maxima fall below 4.
        assert!(res.bins[0] + res.bins[1] + res.bins[2] + res.bins[3] > res.accepted * 99 / 100);
    }

    #[test]
    fn gaussian_checksums_are_centered() {
        let (_, res) = run(
            4,
            &EmbarConfig {
                pairs: 40_000,
                seed: 99,
            },
        );
        // Mean of the deviates should be near zero.
        assert!((res.sum_x / res.accepted as f64).abs() < 0.05);
        assert!((res.sum_y / res.accepted as f64).abs() < 0.05);
    }

    #[test]
    fn trace_is_communication_light() {
        let (trace, _) = run(4, &EmbarConfig::default());
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        // One vector reduction: 2 barriers.
        assert_eq!(stats.barriers(), 2);
        // Communication is a handful of scalars; compute dominates.
        let comm_bytes = stats.total_actual_bytes();
        assert!(comm_bytes < 10_000, "comm bytes {comm_bytes}");
        assert!(stats.total_compute().as_ns() > 1_000_000);
    }

    #[test]
    fn result_is_independent_of_thread_count_partitioning() {
        // Different thread counts repartition the pairs; totals must keep
        // the same acceptance statistics scale (not identical RNG
        // streams, but the same behaviour).
        let (_, r2) = run(2, &EmbarConfig::default());
        let (_, r4) = run(4, &EmbarConfig::default());
        let rate2 = r2.accepted as f64 / EmbarConfig::default().pairs as f64;
        let rate4 = r4.accepted as f64 / EmbarConfig::default().pairs as f64;
        assert!((rate2 - rate4).abs() < 0.03);
    }

    #[test]
    fn deterministic_trace() {
        let cfg = EmbarConfig::default();
        let (a, _) = run(3, &cfg);
        let (b, _) = run(3, &cfg);
        assert_eq!(a, b);
    }
}
