//! Simulated time.
//!
//! Simulated time is measured in integer nanoseconds. The paper's timing
//! parameters (50 ns per bus word, 750 ns cache/memory latency) are all
//! integral nanoseconds, so `u64` nanoseconds give exact, overflow-safe
//! arithmetic for simulations spanning centuries of simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and only ever moves forward inside the
/// kernel. Construct instants with [`SimTime::ZERO`] or
/// [`SimTime::from_nanos`], and offset them with [`SimDuration`] values or
/// plain `u64` nanosecond counts.
///
/// # Example
///
/// ```
/// use multicube_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_nanos(750);
/// assert_eq!(t.as_nanos(), 750);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Returns the number of nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "time ran backwards");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use multicube_sim::SimDuration;
///
/// let word = SimDuration::from_nanos(50);
/// assert_eq!((word + word).as_nanos(), 100);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Returns the duration in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl From<u64> for SimDuration {
    fn from(nanos: u64) -> Self {
        SimDuration(nanos)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_and_arithmetic() {
        let a = SimTime::from_nanos(100);
        let b = a + SimDuration::from_nanos(50);
        assert!(b > a);
        assert_eq!(b - a, SimDuration::from_nanos(50));
        assert_eq!(b.as_nanos(), 150);
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(SimDuration::from_nanos(7).as_nanos(), 7);
        assert_eq!(SimDuration::ZERO.as_nanos(), 0);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 10);
    }

    #[test]
    fn display_formats_nanoseconds() {
        assert_eq!(SimTime::from_nanos(42).to_string(), "42ns");
        assert_eq!(SimDuration::from_nanos(7).to_string(), "7ns");
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_nanos(1_500_000);
        assert!((t.as_millis_f64() - 1.5).abs() < 1e-12);
    }
}
