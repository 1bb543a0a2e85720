//! The multithreading extension (§3.3.1 / §6): extrapolating an
//! *n*-thread, 1-processor run to an *n*-thread, *m*-processor target
//! with `m <= n`, where several threads share a processor.
//!
//! Thread-to-processor assignment is static (the pC++ runtime allocates
//! threads to processors once).  Compute segments of co-located threads
//! serialize on their processor, context switches cost
//! [`MultithreadParams::switch_cost`], and messages between co-located
//! threads bypass the interconnect.

use extrap_time::{DurationNs, ProcId, ThreadId};

/// Static thread-to-processor assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ThreadMapping {
    /// One thread per processor — the plain extrapolation of the paper's
    /// main experiments (`m = n`).
    #[default]
    OnePerProc,
    /// Contiguous blocks of threads per processor: with `procs = m`,
    /// thread `t` runs on processor `t / ceil(n/m)`.
    Block {
        /// Processor count `m`.
        procs: usize,
    },
    /// Round-robin assignment: thread `t` runs on processor `t % m`.
    Cyclic {
        /// Processor count `m`.
        procs: usize,
    },
}

impl ThreadMapping {
    /// Number of processors for a program of `n_threads` threads.
    pub fn n_procs(&self, n_threads: usize) -> usize {
        match *self {
            ThreadMapping::OnePerProc => n_threads,
            ThreadMapping::Block { procs } | ThreadMapping::Cyclic { procs } => {
                procs.min(n_threads).max(1)
            }
        }
    }

    /// The processor a thread runs on.
    pub fn proc_of(&self, thread: ThreadId, n_threads: usize) -> ProcId {
        let t = thread.index();
        debug_assert!(t < n_threads);
        match *self {
            ThreadMapping::OnePerProc => ProcId::from_index(t),
            ThreadMapping::Block { procs } => {
                let m = procs.min(n_threads).max(1);
                let per = n_threads.div_ceil(m);
                ProcId::from_index(t / per)
            }
            ThreadMapping::Cyclic { procs } => {
                let m = procs.min(n_threads).max(1);
                ProcId::from_index(t % m)
            }
        }
    }
}

/// Parameters of the multithreading extension.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MultithreadParams {
    /// Thread-to-processor mapping.
    pub mapping: ThreadMapping,
    /// Cost of a context switch when a processor changes the running
    /// thread.
    pub switch_cost: DurationNs,
}

impl Default for MultithreadParams {
    fn default() -> MultithreadParams {
        MultithreadParams {
            mapping: ThreadMapping::OnePerProc,
            switch_cost: DurationNs::from_us(10.0),
        }
    }
}

impl MultithreadParams {
    /// Validates the parameter set.
    pub fn validate(&self) -> Result<(), String> {
        match self.mapping {
            ThreadMapping::Block { procs } | ThreadMapping::Cyclic { procs } if procs == 0 => {
                Err("thread mapping needs at least one processor".to_string())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_per_proc_is_identity() {
        let m = ThreadMapping::OnePerProc;
        assert_eq!(m.n_procs(8), 8);
        for t in 0..8 {
            assert_eq!(m.proc_of(ThreadId::from_index(t), 8).index(), t);
        }
    }

    #[test]
    fn block_mapping_groups_contiguously() {
        let m = ThreadMapping::Block { procs: 2 };
        assert_eq!(m.n_procs(8), 2);
        let procs: Vec<usize> = (0..8)
            .map(|t| m.proc_of(ThreadId::from_index(t), 8).index())
            .collect();
        assert_eq!(procs, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn cyclic_mapping_round_robins() {
        let m = ThreadMapping::Cyclic { procs: 3 };
        let procs: Vec<usize> = (0..6)
            .map(|t| m.proc_of(ThreadId::from_index(t), 6).index())
            .collect();
        assert_eq!(procs, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn mapping_never_exceeds_thread_count() {
        let m = ThreadMapping::Block { procs: 100 };
        assert_eq!(m.n_procs(4), 4);
    }

    #[test]
    fn uneven_block_mapping_covers_all_procs_or_fewer() {
        let m = ThreadMapping::Block { procs: 3 };
        // 7 threads over 3 procs: ceil(7/3)=3 -> [0,0,0,1,1,1,2].
        let procs: Vec<usize> = (0..7)
            .map(|t| m.proc_of(ThreadId::from_index(t), 7).index())
            .collect();
        assert_eq!(procs, vec![0, 0, 0, 1, 1, 1, 2]);
    }

    #[test]
    fn zero_proc_mapping_rejected() {
        let p = MultithreadParams {
            mapping: ThreadMapping::Block { procs: 0 },
            switch_cost: DurationNs::ZERO,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn config_fragment_round_trips() {
        let mut p = crate::SimParams::default();
        p.multithread.mapping = ThreadMapping::Cyclic { procs: 4 };
        p.multithread.switch_cost = DurationNs::from_us(25.0);
        let text = p.to_config_text();
        assert!(text.ends_with("ThreadMapping = cyclic:4\nSwitchCost = 25\n"));
        assert_eq!(crate::SimParams::from_config_text(&text), Ok(p));
    }
}
