//! The clustering extension (§3.3.1): "representing remote accesses
//! generically by messages allows us to easily accommodate a
//! multi-clustered system with shared memory access within a cluster and
//! message passing between clusters."
//!
//! [`ClusteredNetwork`] wraps two communication regimes behind the same
//! [`NetModel`] interface the engine uses: messages between processors
//! of the same cluster move at shared-memory speed (cheap fixed latency
//! plus a fast per-byte copy cost, no interconnect involvement), while
//! messages between clusters traverse the normal network model.

use crate::network::state::{NetModel, NetworkState, NetworkStats};
use crate::params::NetworkParams;
use extrap_time::{DurationNs, ProcId, TimeNs};

/// Parameters of the intra-cluster (shared-memory) regime.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ClusterParams {
    /// Processors per cluster (cluster of processor `p` is `p / size`).
    pub cluster_size: usize,
    /// Fixed latency of an intra-cluster transfer (cache-line ping,
    /// lock handoff).
    pub intra_latency: DurationNs,
    /// Per-byte cost of an intra-cluster copy.
    pub intra_byte: DurationNs,
}

impl Default for ClusterParams {
    fn default() -> ClusterParams {
        ClusterParams {
            cluster_size: 4,
            intra_latency: DurationNs::from_us(1.0),
            // ~800 MB/s shared-memory copy.
            intra_byte: DurationNs::from_us(0.00125),
        }
    }
}

impl ClusterParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.cluster_size == 0 {
            return Err("cluster size must be at least 1".to_string());
        }
        Ok(())
    }

    /// The cluster a processor belongs to.
    pub fn cluster_of(&self, p: ProcId) -> usize {
        p.index() / self.cluster_size.max(1)
    }
}

/// A two-level network: shared memory inside clusters, the wrapped
/// interconnect between them.
#[derive(Clone, Debug)]
pub struct ClusteredNetwork {
    params: ClusterParams,
    inter: NetworkState,
    intra_stats: NetworkStats,
}

impl ClusteredNetwork {
    /// Builds the clustered network for `n_procs` processors; `network`
    /// and `byte_transfer` describe the inter-cluster interconnect.
    pub fn new(
        n_procs: usize,
        params: ClusterParams,
        network: NetworkParams,
        byte_transfer: DurationNs,
    ) -> ClusteredNetwork {
        // The inter-cluster network sees one endpoint per *cluster*; we
        // keep per-processor addressing but scale the contention
        // capacity by the cluster count via the processor count we hand
        // the inner model.
        ClusteredNetwork {
            params,
            inter: NetworkState::new(n_procs, network, byte_transfer),
            intra_stats: NetworkStats::default(),
        }
    }

    /// Statistics of intra-cluster (shared-memory) transfers only.
    pub fn intra_stats(&self) -> NetworkStats {
        self.intra_stats
    }
}

impl NetModel for ClusteredNetwork {
    fn inject(&mut self, now: TimeNs, src: ProcId, dst: ProcId, bytes: u32) -> TimeNs {
        if self.params.cluster_of(src) == self.params.cluster_of(dst) {
            self.intra_stats.messages += 1;
            self.intra_stats.bytes += u64::from(bytes);
            self.intra_stats.factor_sum += 1.0;
            if src == dst {
                return now;
            }
            now + self.params.intra_latency + self.params.intra_byte * u64::from(bytes)
        } else {
            self.inter.inject(now, src, dst, bytes)
        }
    }

    fn complete(&mut self, src: ProcId, dst: ProcId) {
        // Intra-cluster transfers never entered the interconnect, so
        // only inter-cluster completions are forwarded.
        if self.params.cluster_of(src) != self.params.cluster_of(dst) {
            self.inter.complete();
        }
    }

    fn stats(&self) -> NetworkStats {
        let a = self.intra_stats;
        let b = self.inter.stats();
        NetworkStats {
            messages: a.messages + b.messages,
            bytes: a.bytes + b.bytes,
            max_in_flight: b.max_in_flight,
            factor_sum: a.factor_sum + b.factor_sum,
        }
    }
}

/// Extrapolates onto a clustered machine: `params` describes the
/// inter-cluster regime (and everything else), `cluster` the
/// shared-memory islands.
pub fn extrapolate_clustered(
    traces: &extrap_trace::TraceSet,
    params: &crate::params::SimParams,
    cluster: ClusterParams,
) -> Result<crate::metrics::Prediction, crate::engine::ExtrapError> {
    cluster
        .validate()
        .map_err(crate::engine::ExtrapError::Params)?;
    let n_procs = params
        .multithread
        .mapping
        .n_procs(traces.n_threads().max(1));
    let net = ClusteredNetwork::new(n_procs, cluster, params.network, params.comm.byte_transfer);
    let program = crate::processor::CompiledProgram::compile(traces)?;
    crate::engine::run_with_network(&program, params, net, &mut Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::topology::Topology;
    use crate::params::ContentionParams;

    fn net() -> ClusteredNetwork {
        ClusteredNetwork::new(
            8,
            ClusterParams {
                cluster_size: 4,
                intra_latency: DurationNs(1_000),
                intra_byte: DurationNs(1),
            },
            NetworkParams {
                topology: Topology::Crossbar,
                hop: DurationNs(100_000),
                contention: ContentionParams::default(),
            },
            DurationNs(50),
        )
    }

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn cluster_membership() {
        let c = ClusterParams {
            cluster_size: 4,
            ..ClusterParams::default()
        };
        assert_eq!(c.cluster_of(p(0)), 0);
        assert_eq!(c.cluster_of(p(3)), 0);
        assert_eq!(c.cluster_of(p(4)), 1);
        assert_eq!(c.cluster_of(p(7)), 1);
    }

    #[test]
    fn intra_cluster_is_fast_inter_is_slow() {
        let mut n = net();
        let intra = n.inject(TimeNs(0), p(0), p(3), 100);
        let inter = n.inject(TimeNs(0), p(0), p(4), 100);
        assert_eq!(intra, TimeNs(1_000 + 100));
        assert!(
            inter.as_ns() > intra.as_ns() * 10,
            "intra {intra} inter {inter}"
        );
        assert_eq!(n.intra_stats().messages, 1);
        assert_eq!(n.inter.stats().messages, 1);
    }

    #[test]
    fn same_proc_is_instant() {
        let mut n = net();
        assert_eq!(n.inject(TimeNs(9), p(2), p(2), 1_000_000), TimeNs(9));
    }

    #[test]
    fn zero_cluster_size_rejected() {
        let c = ClusterParams {
            cluster_size: 0,
            ..ClusterParams::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn clustered_extrapolation_beats_flat_network_for_local_patterns() {
        use extrap_time::{ElementId, ThreadId};
        use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork};
        // Neighbour exchange: thread t reads from t+1; with block
        // clustering most exchanges stay inside a cluster.
        let n = 8;
        let mut prog = PhaseProgram::new(n);
        for _ in 0..4 {
            let work = (0..n)
                .map(|t| PhaseWork {
                    compute: extrap_time::DurationNs::from_us(100.0),
                    accesses: vec![PhaseAccess {
                        after: extrap_time::DurationNs::from_us(50.0),
                        owner: ThreadId::from_index((t + 1) % n),
                        element: ElementId::from_index(t),
                        declared_bytes: 8_192,
                        actual_bytes: 8_192,
                        write: false,
                    }],
                })
                .collect();
            prog.push_phase(work);
        }
        let ts = extrap_trace::translate(&prog.record(), Default::default()).unwrap();
        let params = crate::machine::default_distributed();
        let flat = crate::Extrapolator::new(params.clone())
            .run(&ts)
            .unwrap()
            .exec_time();
        let clustered = extrapolate_clustered(
            &ts,
            &params,
            ClusterParams {
                cluster_size: 4,
                ..ClusterParams::default()
            },
        )
        .unwrap()
        .exec_time();
        assert!(
            clustered < flat,
            "clustering should help: {clustered} vs flat {flat}"
        );
    }

    #[test]
    fn cluster_size_one_matches_flat_network() {
        use extrap_time::{ElementId, ThreadId};
        use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork};
        let n = 4;
        let mut prog = PhaseProgram::new(n);
        let work = (0..n)
            .map(|t| PhaseWork {
                compute: extrap_time::DurationNs::from_us(10.0),
                accesses: vec![PhaseAccess {
                    after: extrap_time::DurationNs::from_us(5.0),
                    owner: ThreadId::from_index((t + 2) % n),
                    element: ElementId::from_index(t),
                    declared_bytes: 512,
                    actual_bytes: 512,
                    write: false,
                }],
            })
            .collect();
        prog.push_phase(work);
        let ts = extrap_trace::translate(&prog.record(), Default::default()).unwrap();
        let params = crate::machine::default_distributed();
        let flat = crate::Extrapolator::new(params.clone())
            .run(&ts)
            .unwrap()
            .exec_time();
        let clustered = extrapolate_clustered(
            &ts,
            &params,
            ClusterParams {
                cluster_size: 1,
                ..ClusterParams::default()
            },
        )
        .unwrap()
        .exec_time();
        assert_eq!(clustered, flat);
    }
}
