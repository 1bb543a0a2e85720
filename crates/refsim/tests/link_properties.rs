//! Property tests of the link-level network model.
//!
//! Driven by `SplitMix64::cases` instead of `proptest` (crates.io is
//! unreachable in the build environment).

use extrap_core::network::state::NetModel;
use extrap_core::{ContentionParams, NetworkParams, Topology};
use extrap_refsim::link::{LinkNetwork, LinkParams};
use extrap_refsim::route::{route, Link};
use extrap_time::{DurationNs, ProcId, SplitMix64, TimeNs};

const CASES: u64 = 64;

fn topology(rng: &mut SplitMix64) -> Topology {
    match rng.below(5) {
        0 => Topology::Bus,
        1 => Topology::Crossbar,
        2 => Topology::Mesh2D,
        3 => Topology::Hypercube,
        _ => Topology::FatTree {
            arity: rng.range(2, 5) as u32,
        },
    }
}

fn network(topology: Topology, n: usize) -> LinkNetwork {
    LinkNetwork::new(
        n,
        NetworkParams {
            topology,
            hop: DurationNs(200),
            contention: ContentionParams::default(),
        },
        DurationNs(5),
        LinkParams::default(),
    )
}

#[test]
fn routes_are_finite_and_terminate_at_ingress() {
    for mut rng in SplitMix64::cases(0x2077E, CASES) {
        let topology = topology(&mut rng);
        let n = rng.range(2, 33) as usize;
        let a = ProcId(rng.range(0, 33) as u32 % n as u32);
        let b = ProcId(rng.range(0, 33) as u32 % n as u32);
        let r = route(topology, n, a, b);
        if a == b {
            assert!(r.is_empty());
        } else {
            assert!(!r.is_empty());
            assert!(r.len() <= 2 * n + 2, "{topology:?}: route {r:?}");
            assert_eq!(*r.last().unwrap(), Link::Ingress(b.0));
        }
    }
}

#[test]
fn route_length_is_symmetric() {
    for mut rng in SplitMix64::cases(0x5EE5, CASES) {
        let topology = topology(&mut rng);
        let n = rng.range(2, 33) as usize;
        let a = ProcId(rng.range(0, 33) as u32 % n as u32);
        let b = ProcId(rng.range(0, 33) as u32 % n as u32);
        assert_eq!(
            route(topology, n, a, b).len(),
            route(topology, n, b, a).len()
        );
    }
}

#[test]
fn arrivals_are_never_earlier_than_injection() {
    for mut rng in SplitMix64::cases(0xA221, CASES) {
        let topology = topology(&mut rng);
        let n = rng.range(2, 17) as usize;
        let mut net = network(topology, n);
        let mut injected = 0u64;
        for _ in 0..rng.range(1, 40) {
            let src = ProcId(rng.range(0, 17) as u32 % n as u32);
            let dst = ProcId(rng.range(0, 17) as u32 % n as u32);
            let bytes = rng.range(1, 10_000) as u32;
            let now = TimeNs(rng.range(0, 50_000));
            let arrival = net.inject(now, src, dst, bytes);
            assert!(arrival >= now, "arrival {arrival} before injection {now}");
            injected += 1;
        }
        assert_eq!(NetModel::stats(&net).messages, injected);
    }
}

#[test]
fn sequential_messages_on_one_path_do_not_contend() {
    for mut rng in SplitMix64::cases(0x5E01, CASES) {
        let topology = topology(&mut rng);
        let n = rng.range(2, 17) as usize;
        // Messages spaced far apart in time find every link free: each
        // transfer takes exactly the unloaded time of the first.
        let mut net = network(topology, n);
        let src = ProcId(0);
        let dst = ProcId((n - 1) as u32);
        let first = net.inject(TimeNs(0), src, dst, 100).since(TimeNs(0));
        for i in 1..5u64 {
            let start = TimeNs(i * 10_000_000);
            let took = net.inject(start, src, dst, 100).since(start);
            assert_eq!(took, first);
        }
        assert_eq!(net.link_wait(), DurationNs::ZERO);
    }
}

#[test]
fn simultaneous_messages_through_one_bus_serialize() {
    for count in 2usize..10 {
        let mut net = network(Topology::Bus, 16);
        let mut arrivals = Vec::new();
        for i in 0..count {
            let src = ProcId((i % 8) as u32);
            let dst = ProcId((8 + i % 8) as u32);
            arrivals.push(net.inject(TimeNs(0), src, dst, 64));
        }
        // All distinct: the single bus admits one transfer at a time.
        let mut sorted = arrivals.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), arrivals.len());
        assert!(net.link_wait() > DurationNs::ZERO);
    }
}
