//! Interconnect topologies: hop counts and concurrency capacities.

use extrap_time::ProcId;

/// Supported interconnection network topologies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// A single shared medium; every message traverses one "hop" and the
    /// whole network is one contention domain.
    Bus,
    /// A full crossbar: one hop, contention only at endpoints.
    Crossbar,
    /// A 2-D mesh on the smallest near-square grid holding all
    /// processors; dimension-ordered (XY) routing.
    Mesh2D,
    /// A binary hypercube (processor count rounded up to a power of two);
    /// e-cube routing, hops = Hamming distance.
    Hypercube,
    /// A k-ary fat tree (the CM-5's data network is a 4-ary fat tree);
    /// hops = up to the least common ancestor and back down.
    FatTree {
        /// Tree arity (≥ 2).
        arity: u32,
    },
}

impl Default for Topology {
    fn default() -> Topology {
        Topology::FatTree { arity: 4 }
    }
}

impl Topology {
    /// Hop count between two processors in a machine of `n` processors.
    ///
    /// # Panics
    /// Panics if either processor is out of range.
    pub fn hops(&self, n: usize, a: ProcId, b: ProcId) -> u32 {
        assert!(a.index() < n && b.index() < n, "proc out of range");
        if a == b {
            return 0;
        }
        match *self {
            Topology::Bus | Topology::Crossbar => 1,
            Topology::Mesh2D => mesh_hops(mesh_cols(n), a, b),
            Topology::Hypercube => (a.index() ^ b.index()).count_ones(),
            Topology::FatTree { arity } => {
                let arity = arity.max(2) as usize;
                // Height of the lowest common ancestor: number of base-k
                // digit positions (from the leaves) that must be stripped
                // until the two leaf indices coincide.
                let mut x = a.index();
                let mut y = b.index();
                let mut up = 0u32;
                while x != y {
                    x /= arity;
                    y /= arity;
                    up += 1;
                }
                2 * up
            }
        }
    }

    /// The topology's concurrency capacity in a machine of `n` processors
    /// — how many messages can reasonably be in flight before contention
    /// delays grow.  Used to normalize the analytic contention factor.
    pub fn capacity(&self, n: usize) -> f64 {
        let n = n.max(1) as f64;
        match *self {
            Topology::Bus => 1.0,
            Topology::Crossbar => n,
            // Bisection-width style scaling.
            Topology::Mesh2D => n.sqrt(),
            Topology::Hypercube => n / 2.0,
            // A fat tree keeps full bisection bandwidth.
            Topology::FatTree { .. } => n,
        }
    }

    /// Stable name for config files.
    pub fn config_name(&self) -> String {
        match *self {
            Topology::Bus => "bus".to_string(),
            Topology::Crossbar => "crossbar".to_string(),
            Topology::Mesh2D => "mesh2d".to_string(),
            Topology::Hypercube => "hypercube".to_string(),
            Topology::FatTree { arity } => format!("fattree:{arity}"),
        }
    }

    /// Parses a config-file name.  Any arity parses; the range rule is
    /// [`SimParams::violations`](crate::SimParams::violations).
    pub fn parse_config_name(s: &str) -> Option<Topology> {
        match s {
            "bus" => Some(Topology::Bus),
            "crossbar" => Some(Topology::Crossbar),
            "mesh2d" => Some(Topology::Mesh2D),
            "hypercube" => Some(Topology::Hypercube),
            other => {
                let arity = other.strip_prefix("fattree:")?.parse().ok()?;
                Some(Topology::FatTree { arity })
            }
        }
    }
}

/// XY-routed hop count between two processors of a mesh with `cols`
/// columns ([`mesh_cols`] of the machine size).
pub(crate) fn mesh_hops(cols: usize, a: ProcId, b: ProcId) -> u32 {
    let (ax, ay) = (a.index() % cols, a.index() / cols);
    let (bx, by) = (b.index() % cols, b.index() / cols);
    (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
}

/// Number of columns of the near-square grid for an `n`-processor mesh.
pub fn mesh_cols(n: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let mut c = (n as f64).sqrt().ceil() as usize;
    if c == 0 {
        c = 1;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcId {
        ProcId::from_index(i)
    }

    #[test]
    fn self_hops_are_zero() {
        for t in [
            Topology::Bus,
            Topology::Crossbar,
            Topology::Mesh2D,
            Topology::Hypercube,
            Topology::FatTree { arity: 4 },
        ] {
            assert_eq!(t.hops(8, p(3), p(3)), 0);
        }
    }

    #[test]
    fn bus_and_crossbar_are_single_hop() {
        assert_eq!(Topology::Bus.hops(8, p(0), p(7)), 1);
        assert_eq!(Topology::Crossbar.hops(8, p(2), p(5)), 1);
    }

    #[test]
    fn mesh_uses_manhattan_distance() {
        // 16 procs -> 4x4 grid; proc 0 = (0,0), proc 15 = (3,3).
        assert_eq!(Topology::Mesh2D.hops(16, p(0), p(15)), 6);
        assert_eq!(Topology::Mesh2D.hops(16, p(0), p(3)), 3);
        assert_eq!(Topology::Mesh2D.hops(16, p(0), p(4)), 1); // (0,0)->(0,1)
    }

    #[test]
    fn hypercube_uses_hamming_distance() {
        assert_eq!(Topology::Hypercube.hops(8, p(0), p(7)), 3);
        assert_eq!(Topology::Hypercube.hops(8, p(5), p(6)), 2);
        assert_eq!(Topology::Hypercube.hops(8, p(1), p(0)), 1);
    }

    #[test]
    fn fattree_counts_up_and_down() {
        let ft = Topology::FatTree { arity: 4 };
        // Siblings under one leaf switch: up 1, down 1.
        assert_eq!(ft.hops(16, p(0), p(3)), 2);
        // Different leaf switches: up 2, down 2.
        assert_eq!(ft.hops(16, p(0), p(4)), 4);
        assert_eq!(ft.hops(16, p(0), p(15)), 4);
    }

    #[test]
    fn hops_are_symmetric() {
        let topos = [
            Topology::Bus,
            Topology::Crossbar,
            Topology::Mesh2D,
            Topology::Hypercube,
            Topology::FatTree { arity: 2 },
        ];
        for t in topos {
            for a in 0..12 {
                for b in 0..12 {
                    assert_eq!(
                        t.hops(12, p(a), p(b)),
                        t.hops(12, p(b), p(a)),
                        "{t:?} asymmetric between {a} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn capacities_scale_sensibly() {
        assert_eq!(Topology::Bus.capacity(32), 1.0);
        assert_eq!(Topology::Crossbar.capacity(32), 32.0);
        assert!((Topology::Mesh2D.capacity(16) - 4.0).abs() < 1e-12);
        assert_eq!(Topology::Hypercube.capacity(32), 16.0);
        assert_eq!(Topology::FatTree { arity: 4 }.capacity(32), 32.0);
    }

    #[test]
    fn config_names_round_trip() {
        for t in [
            Topology::Bus,
            Topology::Crossbar,
            Topology::Mesh2D,
            Topology::Hypercube,
            Topology::FatTree { arity: 4 },
            Topology::FatTree { arity: 2 },
        ] {
            assert_eq!(Topology::parse_config_name(&t.config_name()), Some(t));
        }
        assert_eq!(
            Topology::parse_config_name("fattree:1"),
            Some(Topology::FatTree { arity: 1 })
        );
        assert_eq!(Topology::parse_config_name("ring"), None);
    }
}
