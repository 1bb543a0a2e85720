//! Time-based network state: in-flight message tracking and wire-time
//! computation.

use crate::network::contention::delay_factor;
use crate::network::topology::{mesh_cols, mesh_hops, Topology};
use crate::params::NetworkParams;
use extrap_time::{DurationNs, ProcId, TimeNs};

/// Aggregate network statistics for a simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetworkStats {
    /// Messages injected.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Highest number of simultaneously in-flight messages.
    pub max_in_flight: usize,
    /// Sum of contention delay factors over all messages (mean factor =
    /// `factor_sum / messages`).
    pub factor_sum: f64,
}

impl NetworkStats {
    /// Mean contention delay factor across all messages (1.0 if none).
    pub fn mean_factor(&self) -> f64 {
        if self.messages == 0 {
            1.0
        } else {
            self.factor_sum / self.messages as f64
        }
    }
}

/// A pluggable interconnect model for the trace-driven engine.
///
/// The engine calls [`NetModel::inject`] when a message enters the
/// network (returning its arrival time at the destination's network
/// interface) and [`NetModel::complete`] when the arrival event fires.
/// `extrap-core` ships the paper's *analytic* contention model
/// ([`NetworkState`]); `extrap-refsim` substitutes a link-level
/// simulation through the same interface — the exact model swap §3.3.2
/// describes.
pub trait NetModel {
    /// Injects a `bytes`-payload message at `now`; returns its arrival
    /// time at `dst`.
    fn inject(&mut self, now: TimeNs, src: ProcId, dst: ProcId, bytes: u32) -> TimeNs;
    /// Marks a previously injected message as delivered.  The endpoints
    /// are repeated so layered models (e.g. clustering) can route the
    /// completion to the right sub-model.
    fn complete(&mut self, src: ProcId, dst: ProcId);
    /// Aggregate statistics so far.
    fn stats(&self) -> NetworkStats;
}

/// The interconnect's simulation state.
///
/// The engine calls [`NetworkState::inject`] when a message enters the
/// network and [`NetworkState::complete`] when its arrival event fires;
/// between the two the message contributes to the concurrent load that
/// slows other messages down.
#[derive(Clone, Debug)]
pub struct NetworkState {
    params: NetworkParams,
    byte_transfer: DurationNs,
    n_procs: usize,
    /// Mesh column count, computed once per run (meshes only).
    mesh_cols: usize,
    /// `topology.capacity(n_procs)`, computed once per run.
    capacity: f64,
    in_flight: usize,
    stats: NetworkStats,
}

impl NetworkState {
    /// Creates the network for `n_procs` processors.
    pub fn new(n_procs: usize, params: NetworkParams, byte_transfer: DurationNs) -> NetworkState {
        NetworkState {
            params,
            byte_transfer,
            n_procs,
            mesh_cols: mesh_cols(n_procs),
            capacity: params.topology.capacity(n_procs),
            in_flight: 0,
            stats: NetworkStats::default(),
        }
    }

    /// Injects a message of `bytes` payload from `src` to `dst` at `now`;
    /// returns its arrival time at the destination's network interface.
    ///
    /// Same-processor messages (multithreaded mode) bypass the wire
    /// entirely and arrive instantly.
    pub fn inject(&mut self, now: TimeNs, src: ProcId, dst: ProcId, bytes: u32) -> TimeNs {
        self.stats.messages += 1;
        self.stats.bytes += u64::from(bytes);
        if src == dst {
            self.stats.factor_sum += 1.0;
            return now;
        }
        let hops = match self.params.topology {
            Topology::Mesh2D => {
                debug_assert!(src.index() < self.n_procs && dst.index() < self.n_procs);
                mesh_hops(self.mesh_cols, src, dst)
            }
            topology => topology.hops(self.n_procs, src, dst),
        };
        let wire = self.params.hop * u64::from(hops) + self.byte_transfer * u64::from(bytes);
        let factor = delay_factor(&self.params.contention, self.capacity, self.in_flight);
        self.stats.factor_sum += factor;
        self.in_flight += 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.in_flight);
        now + wire.scale(factor)
    }

    /// Records that a previously injected (non-local) message has reached
    /// its destination.
    pub fn complete(&mut self) {
        debug_assert!(self.in_flight > 0, "complete() without matching inject()");
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Current number of in-flight messages.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Run statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }
}

impl NetModel for NetworkState {
    fn inject(&mut self, now: TimeNs, src: ProcId, dst: ProcId, bytes: u32) -> TimeNs {
        NetworkState::inject(self, now, src, dst, bytes)
    }

    fn complete(&mut self, _src: ProcId, _dst: ProcId) {
        NetworkState::complete(self)
    }

    fn stats(&self) -> NetworkStats {
        NetworkState::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::topology::Topology;
    use crate::params::ContentionParams;

    fn net(contention: bool) -> NetworkState {
        NetworkState::new(
            8,
            NetworkParams {
                topology: Topology::Crossbar,
                hop: DurationNs(1_000),
                contention: ContentionParams {
                    enabled: contention,
                    alpha: 0.8,
                },
            },
            DurationNs(10),
        )
    }

    fn p(i: usize) -> ProcId {
        ProcId::from_index(i)
    }

    #[test]
    fn wire_time_is_hops_plus_bytes() {
        let mut n = net(false);
        // crossbar: 1 hop (1000ns) + 100 bytes * 10ns = 2000ns.
        let arrival = n.inject(TimeNs(0), p(0), p(1), 100);
        assert_eq!(arrival, TimeNs(2_000));
    }

    #[test]
    fn local_messages_are_instant() {
        let mut n = net(true);
        let arrival = n.inject(TimeNs(5), p(2), p(2), 1_000_000);
        assert_eq!(arrival, TimeNs(5));
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn concurrent_load_slows_messages() {
        let mut n = net(true);
        let first = n.inject(TimeNs(0), p(0), p(1), 100);
        let second = n.inject(TimeNs(0), p(2), p(3), 100);
        assert_eq!(first, TimeNs(2_000));
        // One message in flight: factor = 1 + 0.8 * 1/8 = 1.1.
        assert_eq!(second, TimeNs(2_200));
        n.complete();
        n.complete();
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(true);
        n.inject(TimeNs(0), p(0), p(1), 100);
        n.inject(TimeNs(0), p(2), p(3), 50);
        assert_eq!(n.stats().messages, 2);
        assert_eq!(n.stats().bytes, 150);
        assert_eq!(n.stats().max_in_flight, 2);
        assert!(n.stats().mean_factor() > 1.0);
    }

    #[test]
    fn empty_stats_mean_factor_is_one() {
        assert_eq!(NetworkStats::default().mean_factor(), 1.0);
    }
}
