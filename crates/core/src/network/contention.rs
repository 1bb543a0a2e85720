//! The analytic contention model.
//!
//! The paper deliberately does *not* simulate link allocation ("more
//! detailed simulation of contention would severely impact the speed of
//! performance extrapolation").  Instead, each message's wire time is
//! multiplied by a factor computed from the intensity of concurrent use
//! of the interconnect at injection time.

use crate::params::ContentionParams;

/// Computes the delay factor for a message injected while `in_flight`
/// *other* messages are traversing a network whose concurrency capacity
/// is `capacity` ([`Topology::capacity`] of the machine size).
///
/// `factor = 1 + alpha * in_flight / capacity` — linear in the excess
/// load, normalized by the topology's concurrency capacity, so a bus
/// saturates immediately while a fat tree absorbs `n` concurrent
/// messages before slowing down.
///
/// [`Topology::capacity`]: crate::network::Topology::capacity
pub fn delay_factor(params: &ContentionParams, capacity: f64, in_flight: usize) -> f64 {
    if !params.enabled || in_flight == 0 {
        return 1.0;
    }
    1.0 + params.alpha * in_flight as f64 / capacity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::topology::Topology;

    fn params(alpha: f64) -> ContentionParams {
        ContentionParams {
            enabled: true,
            alpha,
        }
    }

    #[test]
    fn no_load_means_no_delay() {
        assert_eq!(
            delay_factor(&params(0.5), Topology::Bus.capacity(8), 0),
            1.0
        );
    }

    #[test]
    fn disabled_model_is_unit_factor() {
        let p = ContentionParams {
            enabled: false,
            alpha: 10.0,
        };
        assert_eq!(delay_factor(&p, Topology::Bus.capacity(8), 100), 1.0);
    }

    #[test]
    fn factor_grows_linearly_with_load() {
        let p = params(0.5);
        let f1 = delay_factor(&p, Topology::Crossbar.capacity(8), 4);
        let f2 = delay_factor(&p, Topology::Crossbar.capacity(8), 8);
        assert!(f2 > f1);
        assert!((f1 - (1.0 + 0.5 * 4.0 / 8.0)).abs() < 1e-12);
        assert!((f2 - (1.0 + 0.5 * 8.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn bus_contends_harder_than_fat_tree() {
        let p = params(0.5);
        let bus = delay_factor(&p, Topology::Bus.capacity(32), 8);
        let ft = delay_factor(&p, Topology::FatTree { arity: 4 }.capacity(32), 8);
        assert!(bus > ft);
    }
}
