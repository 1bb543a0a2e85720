//! **Sparse** — the NAS random sparse conjugate-gradient benchmark.
//!
//! Conjugate gradient on a randomly structured, symmetric, diagonally
//! dominant sparse matrix.  Each iteration's sparse mat-vec first
//! *gathers* the remote blocks of `p` (the random column pattern touches
//! nearly every block, so the gather is effectively an all-gather of
//! whole vector blocks — large remote element transfers), then the two
//! CG dot products run through master-combine reductions.  The mix of
//! bulk communication and frequent reductions gives *Sparse* its
//! middling speedup in Fig. 4.

use crate::util::{block_range, seeded_rng, Reduction};
use extrap_trace::ProgramTrace;
use pcpp_rt::{Collection, Distribution, Index2, Program};

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct SparseConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Off-diagonal nonzeros per row (approximate, before symmetrization).
    pub nnz_per_row: usize,
    /// CG iterations.
    pub iters: usize,
    /// RNG seed for the matrix structure.
    pub seed: u64,
}

impl Default for SparseConfig {
    fn default() -> SparseConfig {
        SparseConfig {
            n: 512,
            nnz_per_row: 8,
            iters: 8,
            seed: 1_618,
        }
    }
}

/// A sparse row: `(col, value)` pairs, diagonal included.
type SparseRow = Vec<(u32, f64)>;

/// Builds the symmetric positive-definite matrix deterministically.
pub fn build_matrix(config: &SparseConfig) -> Vec<SparseRow> {
    let n = config.n;
    let mut rng = seeded_rng(config.seed);
    let mut entries: Vec<std::collections::BTreeMap<u32, f64>> =
        vec![std::collections::BTreeMap::new(); n];
    for i in 0..n {
        for _ in 0..config.nnz_per_row {
            let j = rng.below(n as u64) as usize;
            if j == i {
                continue;
            }
            let v = -(0.1 + 0.9 * rng.next_f64());
            entries[i].insert(j as u32, v);
            entries[j].insert(i as u32, v);
        }
    }
    // Diagonal dominance makes the matrix SPD.
    (0..n)
        .map(|i| {
            let off: f64 = entries[i].values().map(|v| v.abs()).sum();
            let mut row: SparseRow = vec![(i as u32, off + 1.0)];
            row.extend(entries[i].iter().map(|(&c, &v)| (c, v)));
            row.sort_unstable_by_key(|e| e.0);
            row
        })
        .collect()
}

/// Right-hand side.
fn rhs(i: usize) -> f64 {
    1.0 + ((i as f64) * 0.61).cos() * 0.3
}

/// Runs CG; returns the trace and the solution vector.
pub fn run(n_threads: usize, config: &SparseConfig) -> (ProgramTrace, Vec<f64>) {
    let n = config.n;
    let per = n.div_ceil(n_threads);
    let matrix = build_matrix(config);
    // Per-thread state blocks: x, r, q, p, each one element per thread.
    let block_of = |init: &dyn Fn(usize) -> f64| {
        let vals: Vec<Vec<f64>> = (0..n_threads)
            .map(|t| {
                let lo = (t * per).min(n);
                let hi = (lo + per).min(n);
                (lo..hi).map(init).collect()
            })
            .collect();
        Collection::<Vec<f64>>::build(Distribution::block_1d(n_threads, n_threads), move |i| {
            vals[i.0].clone()
        })
    };
    let xs = block_of(&|_| 0.0);
    let rs = block_of(&rhs);
    let ps = block_of(&rhs);
    let qs = block_of(&|_| 0.0);
    let rows = Collection::<SparseRow>::build(Distribution::block_1d(n, n_threads), |i| {
        matrix[i.0].clone()
    });
    let red = Reduction::new(n_threads);
    let iters = config.iters;

    let trace = Program::new(n_threads).run(|ctx| {
        let me = ctx.id();
        let my = block_range(n, n_threads, me);
        let my_slot = Index2(me.index(), 0);
        let mut rr = {
            let mut acc = 0.0;
            rs.read(ctx, my_slot, |r| {
                for v in r {
                    acc += v * v;
                }
            });
            ctx.charge_flops(2 * my.len() as u64);
            red.sum(ctx, acc)
        };
        for _ in 0..iters {
            // Gather the full p vector: every remote block is one bulk
            // element transfer (the random pattern needs them all).
            let mut full_p = vec![0.0; n];
            for owner in 0..ctx.n_threads() {
                let lo = (owner * per).min(n);
                let hi = (lo + per).min(n);
                if lo == hi {
                    continue;
                }
                ps.read(ctx, Index2(owner, 0), |blk| {
                    full_p[lo..hi].copy_from_slice(blk);
                });
                ctx.charge_mem_ops((hi - lo) as u64 / 8);
            }
            // q = A p over the local rows.
            let mut q_local = Vec::with_capacity(my.len());
            for i in my.clone() {
                let (sum, nnz) = rows.read(ctx, Index2(i, 0), |row| {
                    let mut s = 0.0;
                    for &(c, v) in row {
                        s += v * full_p[c as usize];
                    }
                    (s, row.len())
                });
                ctx.charge_flops(2 * nnz as u64);
                q_local.push(sum);
            }
            qs.write(ctx, my_slot, |q| q.copy_from_slice(&q_local));
            ctx.barrier();
            // alpha = rr / (p . q)
            let mut pq = 0.0;
            ps.read(ctx, my_slot, |p| {
                for (a, b) in p.iter().zip(&q_local) {
                    pq += a * b;
                }
            });
            ctx.charge_flops(2 * my.len() as u64);
            let pq = red.sum(ctx, pq);
            let alpha = rr / pq;
            // x += alpha p ; r -= alpha q ; rr' = r . r
            let p_local = ps.read(ctx, my_slot, |p| p.clone());
            let mut rr_new = 0.0;
            xs.write(ctx, my_slot, |x| {
                for (xv, pv) in x.iter_mut().zip(&p_local) {
                    *xv += alpha * pv;
                }
            });
            rs.write(ctx, my_slot, |r| {
                for (rv, qv) in r.iter_mut().zip(&q_local) {
                    *rv -= alpha * qv;
                    rr_new += *rv * *rv;
                }
            });
            ctx.charge_flops(6 * my.len() as u64);
            let rr_next = red.sum(ctx, rr_new);
            let beta = rr_next / rr;
            rr = rr_next;
            // p = r + beta p
            let r_local = rs.read(ctx, my_slot, |r| r.clone());
            ps.write(ctx, my_slot, |p| {
                for (pv, rv) in p.iter_mut().zip(&r_local) {
                    *pv = rv + beta * *pv;
                }
            });
            ctx.charge_flops(2 * my.len() as u64);
            ctx.barrier();
        }
    });

    let mut solution = vec![0.0; n];
    for t in 0..n_threads {
        let lo = (t * per).min(n);
        let hi = (lo + per).min(n);
        xs.peek(Index2(t, 0), |blk| solution[lo..hi].copy_from_slice(blk));
    }
    (trace, solution)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative residual `‖b − Ax‖₂ / ‖b‖₂`.
    fn relative_residual(config: &SparseConfig, x: &[f64]) -> f64 {
        let matrix = build_matrix(config);
        let n = config.n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, row) in matrix.iter().enumerate().take(n) {
            let ax: f64 = row.iter().map(|&(c, v)| v * x[c as usize]).sum();
            let b = rhs(i);
            num += (b - ax) * (b - ax);
            den += b * b;
        }
        (num / den).sqrt()
    }

    #[test]
    fn matrix_is_symmetric_and_dominant() {
        let cfg = SparseConfig {
            n: 64,
            ..SparseConfig::default()
        };
        let m = build_matrix(&cfg);
        for (i, row) in m.iter().enumerate() {
            let diag = row.iter().find(|e| e.0 as usize == i).unwrap().1;
            let off: f64 = row
                .iter()
                .filter(|e| e.0 as usize != i)
                .map(|e| e.1.abs())
                .sum();
            assert!(diag > off, "row {i} not dominant");
            for &(c, v) in row {
                let back = m[c as usize]
                    .iter()
                    .find(|e| e.0 as usize == i)
                    .expect("symmetric entry");
                assert_eq!(back.1, v);
            }
        }
    }

    #[test]
    fn cg_reduces_the_residual() {
        let cfg = SparseConfig {
            n: 96,
            nnz_per_row: 3,
            iters: 12,
            seed: 5,
        };
        let (_, x) = run(4, &cfg);
        let rel = relative_residual(&cfg, &x);
        assert!(rel < 1e-4, "relative residual {rel}");
    }

    #[test]
    fn thread_count_invariant_numerics() {
        let cfg = SparseConfig {
            n: 64,
            nnz_per_row: 3,
            iters: 5,
            seed: 9,
        };
        let (_, a) = run(1, &cfg);
        let (_, b) = run(8, &cfg);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn gather_is_bulk_blocks_not_scalars() {
        let cfg = SparseConfig {
            n: 64,
            nnz_per_row: 3,
            iters: 2,
            seed: 5,
        };
        let (trace, _) = run(4, &cfg);
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        // Per iteration each thread reads 3 remote p-blocks; plus the
        // reduction traffic.  Far fewer events than one per nonzero.
        let remote = stats.total_remote_accesses();
        assert!(remote < 150, "expected bulk transfers, got {remote} events");
        // Blocks are 16 doubles = 128 bytes.
        let t1 = stats.thread(extrap_time::ThreadId(1));
        assert!(t1.actual_bytes >= 2 * 3 * 128, "bytes {}", t1.actual_bytes);
        // Initial rr reduction + per iteration: matvec barrier + two
        // reductions (2 barriers each) + closing barrier.
        assert_eq!(stats.barriers(), 2 + 6 * 2);
    }

    #[test]
    fn uneven_block_sizes_still_solve() {
        let cfg = SparseConfig {
            n: 50,
            nnz_per_row: 3,
            iters: 20,
            seed: 2,
        };
        let (_, x) = run(3, &cfg);
        assert!(relative_residual(&cfg, &x) < 1e-6);
    }
}
