//! Shared helpers for the benchmark suite: the seeded data generator and
//! the master-combine reduction idiom.

use extrap_time::{SplitMix64, ThreadId};
use pcpp_rt::{Collection, Distribution, Index2, ThreadCtx};

/// The generator behind the Sparse, Sort and Embar data: SplitMix64 on
/// a scrambled seed, so every run is bit-reproducible regardless of
/// thread count.  The committed captures depend on this exact stream.
pub(crate) fn seeded_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
}

/// A scratch collection for global sum reductions: one partial slot per
/// thread plus a master-owned total slot.
///
/// The total lives in its own element (not slot 0) so that back-to-back
/// reductions are safe: the master only overwrites the total *after* the
/// barrier every reader has already passed, never while a slave still
/// needs the previous value.
pub struct Reduction {
    slots: Collection<f64>,
    total: Collection<f64>,
}

impl Reduction {
    /// One slot per thread, block-distributed so each thread owns its own
    /// slot; the total slot belongs to thread 0.
    pub fn new(n_threads: usize) -> Reduction {
        Reduction {
            slots: Collection::build(Distribution::block_1d(n_threads, n_threads), |_| 0.0),
            total: Collection::build(Distribution::block_1d(1, n_threads), |_| 0.0),
        }
    }

    /// The pC++ reduction idiom: every thread writes its partial locally,
    /// a barrier, thread 0 combines (reading each slave slot remotely)
    /// and writes the total, a second barrier, then every thread reads
    /// the total (remotely for all but thread 0).
    ///
    /// Costs 2 barriers + `2(n−1)` remote accesses, exactly like a
    /// master-combine reduction in the original runtime.
    pub fn sum(&self, ctx: &mut ThreadCtx<'_>, partial: f64) -> f64 {
        let me = ctx.id().index();
        let n = ctx.n_threads();
        self.slots.write(ctx, Index2(me, 0), |v| *v = partial);
        ctx.barrier();
        if me == 0 {
            let mut acc = 0.0;
            for t in 0..n {
                acc += self.slots.read(ctx, Index2(t, 0), |v| *v);
                ctx.charge_flops(1);
            }
            self.total.write(ctx, Index2(0, 0), |v| *v = acc);
        }
        ctx.barrier();
        self.total.read(ctx, Index2(0, 0), |v| *v)
    }
}

/// A vector-valued global sum reduction (one combine for a whole tally
/// array, like NAS EP's bin reduction).
pub struct VecReduction {
    slots: Collection<Vec<f64>>,
    total: Collection<Vec<f64>>,
}

impl VecReduction {
    /// One `width`-wide slot per thread plus the master-owned total.
    pub fn new(n_threads: usize, width: usize) -> VecReduction {
        VecReduction {
            slots: Collection::build(Distribution::block_1d(n_threads, n_threads), |_| {
                vec![0.0; width]
            }),
            total: Collection::build(Distribution::block_1d(1, n_threads), |_| vec![0.0; width]),
        }
    }

    /// Element-wise global sum with the same master-combine protocol as
    /// [`Reduction::sum`]: 2 barriers, `2(n−1)` remote vector transfers.
    pub fn sum(&self, ctx: &mut ThreadCtx<'_>, partial: &[f64]) -> Vec<f64> {
        let me = ctx.id().index();
        let n = ctx.n_threads();
        self.slots
            .write(ctx, Index2(me, 0), |v| v.copy_from_slice(partial));
        ctx.barrier();
        if me == 0 {
            let mut acc = vec![0.0; partial.len()];
            for t in 0..n {
                self.slots.read(ctx, Index2(t, 0), |v| {
                    for (a, b) in acc.iter_mut().zip(v) {
                        *a += b;
                    }
                });
                ctx.charge_flops(partial.len() as u64);
            }
            self.total
                .write(ctx, Index2(0, 0), |v| v.copy_from_slice(&acc));
        }
        ctx.barrier();
        self.total.read(ctx, Index2(0, 0), |v| v.clone())
    }
}

/// Owned index range of a block distribution (used by benchmarks that
/// track raw `Vec` state per thread rather than per element).
pub fn block_range(n_items: usize, n_threads: usize, thread: ThreadId) -> std::ops::Range<usize> {
    let per = n_items.div_ceil(n_threads);
    let lo = (thread.index() * per).min(n_items);
    let hi = (lo + per).min(n_items);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpp_rt::{Program, WorkModel};

    #[test]
    fn seeded_rng_draws_the_pinned_stream() {
        let mut rng = seeded_rng(7);
        assert_eq!(rng.next_u64(), 0xFC21_F96C_0210_F277);
        assert_eq!(rng.next_u64(), 0x23BB_6564_8644_C121);
    }

    #[test]
    fn reduction_sums_across_threads() {
        let n = 4;
        let red = Reduction::new(n);
        let result = pcpp_rt::sync::Mutex::new(Vec::new());
        Program::new(n)
            .with_work_model(WorkModel::unit())
            .run(|ctx| {
                let total = red.sum(ctx, (ctx.id().0 + 1) as f64);
                result.lock().push(total);
            });
        let results = result.into_inner();
        assert_eq!(results, vec![10.0; n]);
    }

    #[test]
    fn block_range_partitions() {
        let n = 10;
        let covered: usize = (0..3).map(|t| block_range(n, 3, ThreadId(t)).len()).sum();
        assert_eq!(covered, n);
        assert_eq!(block_range(10, 3, ThreadId(0)), 0..4);
        assert_eq!(block_range(10, 3, ThreadId(2)), 8..10);
    }
}
