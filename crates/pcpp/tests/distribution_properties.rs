//! Property tests of the distribution algebra: every (shape, attribute,
//! thread-count) combination must partition the index space, agree with
//! `local_indices`, and obey the pC++ thread-grid conventions.
//!
//! Driven by `SplitMix64::cases` instead of `proptest` (crates.io is
//! unreachable in the build environment).

use extrap_time::{SplitMix64, ThreadId};
use pcpp_rt::{Dist1, Distribution, Index2};

const CASES: u64 = 128;

fn dist1(rng: &mut SplitMix64) -> Dist1 {
    match rng.below(3) {
        0 => Dist1::Block,
        1 => Dist1::Cyclic,
        _ => Dist1::Whole,
    }
}

#[test]
fn ownership_partitions_every_index() {
    for mut rng in SplitMix64::cases(0x0B0E, CASES) {
        let (rows, cols) = (rng.range(1, 20) as usize, rng.range(1, 20) as usize);
        let (d0, d1) = (dist1(&mut rng), dist1(&mut rng));
        let n = rng.range(1, 33) as usize;
        let d = Distribution::new((rows, cols), (d0, d1), n);
        let mut counts = vec![0usize; n];
        for r in 0..rows {
            for c in 0..cols {
                let owner = d.owner(Index2(r, c));
                assert!(owner.index() < n, "{owner} out of range");
                counts[owner.index()] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), rows * cols);
        // local_indices agrees with owner().
        for t in 0..n {
            let t = ThreadId::from_index(t);
            let local: Vec<Index2> = d.local_indices(t).collect();
            assert_eq!(local.len(), counts[t.index()]);
            for idx in local {
                assert_eq!(d.owner(idx), t);
            }
        }
    }
}

#[test]
fn thread_grid_never_exceeds_thread_count() {
    for mut rng in SplitMix64::cases(0x61D5, CASES) {
        let (rows, cols) = (rng.range(1, 20) as usize, rng.range(1, 20) as usize);
        let (d0, d1) = (dist1(&mut rng), dist1(&mut rng));
        let n = rng.range(1, 33) as usize;
        let d = Distribution::new((rows, cols), (d0, d1), n);
        assert!(d.tgrid.0 * d.tgrid.1 <= n.max(1));
        assert!(d.busy_threads() <= n);
    }
}

#[test]
fn block_ownership_is_contiguous_per_thread() {
    for mut rng in SplitMix64::cases(0xB10C, CASES) {
        let rows = rng.range(1, 40) as usize;
        let n = rng.range(1, 17) as usize;
        let d = Distribution::block_1d(rows, n);
        for t in 0..n {
            let owned: Vec<usize> = d
                .local_indices(ThreadId::from_index(t))
                .map(|i| i.0)
                .collect();
            for w in owned.windows(2) {
                assert_eq!(w[1], w[0] + 1, "block must be contiguous");
            }
        }
    }
}

#[test]
fn cyclic_ownership_strides_by_thread_count() {
    for mut rng in SplitMix64::cases(0xC41C, CASES) {
        let rows = rng.range(1, 40) as usize;
        let n = rng.range(1, 17) as usize;
        let d = Distribution::cyclic_1d(rows, n);
        for i in 0..rows {
            assert_eq!(d.owner(Index2(i, 0)).index(), i % n);
        }
    }
}

#[test]
fn flat_is_a_bijection() {
    for mut rng in SplitMix64::cases(0xF1A7, CASES) {
        let (rows, cols) = (rng.range(1, 15) as usize, rng.range(1, 15) as usize);
        let d = Distribution::block_block(rows, cols, 4);
        let mut seen = vec![false; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let f = d.flat(Index2(r, c));
                assert!(!seen[f]);
                seen[f] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn block_block_busy_threads_is_floor_sqrt_squared() {
    for n in 1usize..33 {
        // A grid big enough that every grid position owns something.
        let side = 12usize; // divisible by 1,2,3,4,6; >= 5x5 blocks too
        let d = Distribution::block_block(side * 2, side * 2, n);
        let s = pcpp_rt::distribution::isqrt(n);
        assert_eq!(d.busy_threads(), s * s);
    }
}
