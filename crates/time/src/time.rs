//! Simulation time (`TimeNs`) and durations (`DurationNs`) in integer
//! nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, in nanoseconds since the start of
/// the simulation.
///
/// `TimeNs` is a transparent `u64` newtype: totally ordered, `Copy`, and
/// immune to floating-point drift.  Durations between points are
/// [`DurationNs`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeNs(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DurationNs(pub u64);

impl TimeNs {
    /// The origin of simulated time.
    pub const ZERO: TimeNs = TimeNs(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: TimeNs = TimeNs(u64::MAX);

    /// Builds a time from a microsecond quantity (the unit the paper uses
    /// for every model parameter).  Rounds to the nearest nanosecond.
    #[inline]
    pub fn from_us(us: f64) -> TimeNs {
        TimeNs(us_to_ns(us))
    }

    /// This time as fractional microseconds (for reporting only).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time as fractional milliseconds (for reporting only).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// The duration from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so that would indicate a simulator bug.
    #[inline]
    pub fn since(self, earlier: TimeNs) -> DurationNs {
        DurationNs(
            self.0
                .checked_sub(earlier.0)
                .expect("simulated time ran backwards"),
        )
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: TimeNs) -> DurationNs {
        DurationNs(self.0.saturating_sub(earlier.0))
    }
}

impl DurationNs {
    /// The empty duration.
    pub const ZERO: DurationNs = DurationNs(0);

    /// Builds a duration from microseconds, rounding to the nearest ns.
    #[inline]
    pub fn from_us(us: f64) -> DurationNs {
        DurationNs(us_to_ns(us))
    }

    /// This duration as fractional microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Raw nanoseconds.
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// True iff this is the zero duration.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales this duration by a non-negative factor, rounding to the
    /// nearest nanosecond.  This is how the *MipsRatio* processor-speed
    /// scaling of §3.3.1 is applied to inter-event compute times.
    ///
    /// # Panics
    /// Panics on negative or non-finite factors.
    #[inline]
    pub fn scale(self, factor: f64) -> DurationNs {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        DurationNs((self.0 as f64 * factor).round() as u64)
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: DurationNs) -> Option<DurationNs> {
        self.0.checked_sub(rhs.0).map(DurationNs)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: DurationNs) -> DurationNs {
        DurationNs(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, rhs: DurationNs) -> DurationNs {
        DurationNs(self.0.max(rhs.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, rhs: DurationNs) -> DurationNs {
        DurationNs(self.0.min(rhs.0))
    }
}

#[inline]
fn us_to_ns(us: f64) -> u64 {
    assert!(
        us.is_finite() && us >= 0.0,
        "time quantities must be finite and non-negative, got {us} us"
    );
    (us * 1_000.0).round() as u64
}

impl Add<DurationNs> for TimeNs {
    type Output = TimeNs;
    #[inline]
    fn add(self, rhs: DurationNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign<DurationNs> for TimeNs {
    #[inline]
    fn add_assign(&mut self, rhs: DurationNs) {
        self.0 += rhs.0;
    }
}

impl Sub<DurationNs> for TimeNs {
    type Output = TimeNs;
    #[inline]
    fn sub(self, rhs: DurationNs) -> TimeNs {
        TimeNs(self.0 - rhs.0)
    }
}

impl Add for DurationNs {
    type Output = DurationNs;
    #[inline]
    fn add(self, rhs: DurationNs) -> DurationNs {
        DurationNs(self.0 + rhs.0)
    }
}

impl AddAssign for DurationNs {
    #[inline]
    fn add_assign(&mut self, rhs: DurationNs) {
        self.0 += rhs.0;
    }
}

impl Sub for DurationNs {
    type Output = DurationNs;
    #[inline]
    fn sub(self, rhs: DurationNs) -> DurationNs {
        DurationNs(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for DurationNs {
    #[inline]
    fn sub_assign(&mut self, rhs: DurationNs) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for DurationNs {
    type Output = DurationNs;
    #[inline]
    fn mul(self, rhs: u64) -> DurationNs {
        DurationNs(self.0 * rhs)
    }
}

impl Div<u64> for DurationNs {
    type Output = DurationNs;
    #[inline]
    fn div(self, rhs: u64) -> DurationNs {
        DurationNs(self.0 / rhs)
    }
}

impl Sum for DurationNs {
    fn sum<I: Iterator<Item = DurationNs>>(iter: I) -> DurationNs {
        DurationNs(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Debug for DurationNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for DurationNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_us_round_trips_microseconds() {
        let t = TimeNs::from_us(5.0);
        assert_eq!(t.as_ns(), 5_000);
        assert!((t.as_us() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_us_rounds_to_nearest_ns() {
        assert_eq!(DurationNs::from_us(0.0005).as_ns(), 1); // 0.5ns -> 1
        assert_eq!(DurationNs::from_us(0.0004).as_ns(), 0);
        assert_eq!(DurationNs::from_us(0.118).as_ns(), 118);
    }

    #[test]
    fn time_plus_duration() {
        let t = TimeNs(100) + DurationNs(50);
        assert_eq!(t, TimeNs(150));
    }

    #[test]
    fn since_computes_gap() {
        assert_eq!(TimeNs(300).since(TimeNs(120)), DurationNs(180));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn since_panics_on_negative_gap() {
        let _ = TimeNs(10).since(TimeNs(20));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(TimeNs(10).saturating_since(TimeNs(20)), DurationNs::ZERO);
    }

    #[test]
    fn scale_applies_mips_ratio() {
        let d = DurationNs(1_000);
        assert_eq!(d.scale(0.41), DurationNs(410));
        assert_eq!(d.scale(2.0), DurationNs(2_000));
        assert_eq!(d.scale(1.0), d);
        assert_eq!(d.scale(0.0), DurationNs::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn scale_rejects_negative() {
        let _ = DurationNs(1).scale(-1.0);
    }

    #[test]
    fn duration_arithmetic() {
        assert_eq!(DurationNs(5) + DurationNs(7), DurationNs(12));
        assert_eq!(DurationNs(7) - DurationNs(5), DurationNs(2));
        assert_eq!(DurationNs(7) * 3, DurationNs(21));
        assert_eq!(DurationNs(7) / 2, DurationNs(3));
        assert_eq!(DurationNs(3).max(DurationNs(9)), DurationNs(9));
        assert_eq!(DurationNs(3).min(DurationNs(9)), DurationNs(3));
    }

    #[test]
    fn duration_sum() {
        let total: DurationNs = [DurationNs(1), DurationNs(2), DurationNs(3)]
            .into_iter()
            .sum();
        assert_eq!(total, DurationNs(6));
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", TimeNs(1_500)), "1.500us");
        assert_eq!(format!("{}", DurationNs(250)), "0.250us");
    }
}
