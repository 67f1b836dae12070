//! The virtual clock.
//!
//! Simulated time is measured in integer microseconds, which gives ample
//! resolution for the costs being modelled (per-tuple CPU costs are in the
//! hundreds of nanoseconds to microseconds range) while keeping ordering
//! exact — no floating-point comparison issues in the event queue.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant (or duration) of simulated time, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Build from fractional seconds (rounded to the nearest microsecond).
    pub fn from_secs_f64(secs: f64) -> SimTime {
        assert!(secs >= 0.0 && secs.is_finite(), "negative or NaN duration");
        SimTime((secs * 1e6).round() as u64)
    }

    /// Build from milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    /// Build from microseconds.
    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// The value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The value in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating subtraction (durations never go negative).
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(13));
        assert_eq!(a - b, SimTime::from_millis(7));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert!(b < a);
        assert_eq!(a.max(b), a);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_duration_rejected() {
        SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_renders_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }
}
