//! SplitMix64, the one seeded generator of the workspace.
//!
//! Repr medoid sampling, the Sparse/Sort/Embar workload data, the
//! model checker's schedule order keys and every property-test case
//! draw from [`splitmix64`], so a prediction, a capture or a failing
//! case is a pure function of its seed.

/// One SplitMix64 step: advances `state` and returns the next 64 bits.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: fast, full-period and trivially seedable.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose state starts at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// `n` independent generators, one per property-test case: case `i`
    /// starts at `seed ^ i * 0xA076_1D64_78BD_642F`.
    pub fn cases(seed: u64, n: u64) -> impl Iterator<Item = SplitMix64> {
        (0..n).map(move |case| SplitMix64::new(seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`; `bound` must be nonzero.
    ///
    /// Multiply-shift reduction: one draw, no rejection loop, and a bias
    /// far below anything a simulation or a test can observe.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform integer in `[lo, hi)`; the range must be nonempty.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn cases_known_answers() {
        let firsts: Vec<u64> = SplitMix64::cases(0x2A4D, 3)
            .map(|mut rng| rng.next_u64())
            .collect();
        assert_eq!(
            firsts,
            [
                0xF3DC_44CB_1ACB_BA90,
                0xC458_B748_3894_F2F7,
                0x7F90_7789_473E_3904
            ]
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!((5..8).contains(&r.range(5, 8)));
        }
    }

    #[test]
    fn below_hits_all_residues() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
