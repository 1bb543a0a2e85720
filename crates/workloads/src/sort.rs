//! **Sort** — the bitonic sort module.
//!
//! A block-bitonic sort: every thread sorts its local block, then the
//! bitonic merge network runs over the blocks — `log²(n)` merge-split
//! steps, each reading the partner thread's *whole block* (a large
//! remote element transfer) followed by a global barrier.  Thread count
//! must be a power of two, as in the pC++ module.

use crate::util::seeded_rng;
use extrap_trace::ProgramTrace;
use pcpp_rt::{Collection, Distribution, Index2, Program};

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct SortConfig {
    /// Total keys across all threads (fixed problem size, so processor
    /// scaling is strong scaling; must be divisible by the thread
    /// count).
    pub total_keys: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SortConfig {
    fn default() -> SortConfig {
        SortConfig {
            total_keys: 1 << 14,
            seed: 31_415,
        }
    }
}

/// Merge two sorted blocks and keep the requested half.
fn merge_split(mine: &[u32], other: &[u32], keep_low: bool) -> Vec<u32> {
    let b = mine.len();
    let mut merged = Vec::with_capacity(b * 2);
    let (mut i, mut j) = (0, 0);
    while i < mine.len() && j < other.len() {
        if mine[i] <= other[j] {
            merged.push(mine[i]);
            i += 1;
        } else {
            merged.push(other[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&mine[i..]);
    merged.extend_from_slice(&other[j..]);
    if keep_low {
        merged[..b].to_vec()
    } else {
        merged[b..].to_vec()
    }
}

/// Runs the bitonic sort; returns the trace and the concatenated sorted
/// keys.
///
/// # Panics
/// Panics unless `n_threads` is a power of two.
pub fn run(n_threads: usize, config: &SortConfig) -> (ProgramTrace, Vec<u32>) {
    assert!(
        n_threads.is_power_of_two(),
        "bitonic sort needs a power-of-two thread count"
    );
    assert!(
        config.total_keys.is_multiple_of(n_threads),
        "total keys must divide evenly across threads"
    );
    let b = config.total_keys / n_threads;
    let seed = config.seed;
    let blocks = Collection::<Vec<u32>>::build(Distribution::block_1d(n_threads, n_threads), |i| {
        let mut rng = seeded_rng(seed ^ ((i.0 as u64) << 20));
        (0..b).map(|_| rng.next_u64() as u32).collect()
    });
    let stages = n_threads.trailing_zeros();

    let trace = Program::new(n_threads).run(|ctx| {
        let id = ctx.id().index();
        let me = Index2(id, 0);
        // Local sort: ~B log B integer operations.
        blocks.write(ctx, me, |blk| blk.sort_unstable());
        let logb = (b.max(2) as f64).log2() as u64;
        ctx.charge_int_ops(b as u64 * logb);
        ctx.barrier();
        for k in 1..=stages {
            let ascending = (id >> k) & 1 == 0;
            for j in (0..k).rev() {
                let partner = id ^ (1usize << j);
                let lower = id & (1usize << j) == 0;
                let keep_low = lower == ascending;
                // Read the partner's whole block (large remote element),
                // compute the kept half, then barrier *before* writing so
                // the partner also sees the pre-step block.
                let other = blocks.get(ctx, Index2(partner, 0));
                let kept = blocks.read(ctx, me, |mine| merge_split(mine, &other, keep_low));
                ctx.charge_int_ops(2 * b as u64);
                ctx.barrier();
                blocks.write(ctx, me, |blk| *blk = kept);
                ctx.barrier();
            }
        }
    });

    let mut all = Vec::with_capacity(n_threads * b);
    for t in 0..n_threads {
        blocks.peek(Index2(t, 0), |blk| all.extend_from_slice(blk));
    }
    (trace, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checksum(v: &[u32]) -> u64 {
        v.iter().map(|&x| x as u64).sum()
    }

    #[test]
    fn sorts_globally() {
        for threads in [1, 2, 4, 8] {
            let cfg = SortConfig {
                total_keys: 256,
                seed: 5,
            };
            let (_, sorted) = run(threads, &cfg);
            assert_eq!(sorted.len(), 256);
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "threads {threads}");
        }
    }

    #[test]
    fn preserves_the_multiset() {
        let cfg = SortConfig {
            total_keys: 512,
            seed: 11,
        };
        // Reconstruct the expected input multiset (4 threads of 128).
        let mut expected: Vec<u32> = (0..4)
            .flat_map(|t| {
                let mut rng = seeded_rng(cfg.seed ^ ((t as u64) << 20));
                (0..128).map(|_| rng.next_u64() as u32).collect::<Vec<_>>()
            })
            .collect();
        let (_, sorted) = run(4, &cfg);
        assert_eq!(checksum(&sorted), checksum(&expected));
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let _ = run(3, &SortConfig::default());
    }

    #[test]
    fn trace_has_log_squared_stages() {
        let (trace, _) = run(
            8,
            &SortConfig {
                total_keys: 256,
                seed: 1,
            },
        );
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        // 1 post-local-sort barrier + (1+2+3) merge-split steps with two
        // barriers each (exchange phase, write phase).
        assert_eq!(stats.barriers(), 13);
        // Each step does one whole-block remote read per thread.
        let t0 = stats.thread(extrap_time::ThreadId(0));
        assert_eq!(t0.remote_reads, 6);
        // Block transfers are large: 32 keys * 4 bytes each.
        assert_eq!(t0.actual_bytes, 6 * 32 * 4);
    }

    #[test]
    fn merge_split_halves() {
        let lo = merge_split(&[1, 4, 7], &[2, 3, 9], true);
        let hi = merge_split(&[1, 4, 7], &[2, 3, 9], false);
        assert_eq!(lo, vec![1, 2, 3]);
        assert_eq!(hi, vec![4, 7, 9]);
    }
}
