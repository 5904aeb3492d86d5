//! Virtual time: nanosecond-resolution instants and durations.
//!
//! All timing constants in the workspace (PCI setup cost, LANai cycle time,
//! watchdog intervals, …) are expressed as [`SimDuration`]s; the scheduler
//! hands out [`SimTime`] instants.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is a transparent newtype over `u64` ([C-NEWTYPE]): it cannot be
/// confused with a duration, and arithmetic against [`SimDuration`] is
/// explicit.
///
/// # Example
///
/// ```
/// use ftgm_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_us(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_nanos(3_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as (possibly fractional) microseconds.
    #[expect(
        clippy::float_arithmetic,
        reason = "a display conversion for tables and logs; no report serializes it"
    )]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time as (possibly fractional) seconds.
    #[expect(
        clippy::float_arithmetic,
        reason = "a display conversion for tables and logs; no report serializes it"
    )]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow: rhs is later than self"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime - SimDuration underflow"),
        )
    }
}

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use ftgm_sim::SimDuration;
///
/// let d = SimDuration::from_us(2) + SimDuration::from_nanos(500);
/// assert_eq!(d.as_nanos(), 2_500);
/// assert_eq!(d * 4, SimDuration::from_us(10));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond. Negative values clamp to zero.
    #[expect(
        clippy::float_arithmetic,
        reason = "reads a configured microsecond knob, rounded once to whole nanoseconds"
    )]
    pub fn from_us_f64(us: f64) -> Self {
        SimDuration((us * 1_000.0).round().max(0.0) as u64)
    }

    /// Duration taken to move `bytes` at `bytes_per_sec`, rounded up to a
    /// whole nanosecond. Zero-rate transfers are a programming error.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "transfer rate must be positive");
        // ns = bytes * 1e9 / rate, computed in u128 to avoid overflow.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as (possibly fractional) microseconds.
    #[expect(
        clippy::float_arithmetic,
        reason = "a display conversion for tables and logs; no report serializes it"
    )]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as (possibly fractional) seconds.
    #[expect(
        clippy::float_arithmetic,
        reason = "a display conversion for tables and logs; no report serializes it"
    )]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_duration_roundtrip() {
        let t = SimTime::from_nanos(1_500);
        assert_eq!(t.as_nanos(), 1_500);
        assert_eq!(t.as_micros_f64(), 1.5);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::ZERO + SimDuration::from_us(10) + SimDuration::from_nanos(1);
        assert_eq!(t.as_nanos(), 10_001);
    }

    #[test]
    fn subtract_times_gives_duration() {
        let a = SimTime::from_nanos(5_000);
        let b = SimTime::from_nanos(2_000);
        assert_eq!(a - b, SimDuration::from_nanos(3_000));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtract_later_time_panics() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        let _ = a - b;
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_nanos(1));
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(SimDuration::from_us(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_ms(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn for_bytes_rounds_up() {
        // 1 byte at 1 GB/s takes exactly 1ns.
        assert_eq!(
            SimDuration::for_bytes(1, 1_000_000_000).as_nanos(),
            1
        );
        // 1 byte at 3 GB/s takes ceil(1/3 ns) = 1ns.
        assert_eq!(
            SimDuration::for_bytes(1, 3_000_000_000).as_nanos(),
            1
        );
        // 4KB at 250 MB/s = 16384ns.
        assert_eq!(
            SimDuration::for_bytes(4096, 250_000_000).as_nanos(),
            16_384
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn for_bytes_zero_rate_panics() {
        let _ = SimDuration::for_bytes(1, 0);
    }

    #[test]
    fn from_us_f64_rounds() {
        assert_eq!(SimDuration::from_us_f64(0.3).as_nanos(), 300);
        assert_eq!(SimDuration::from_us_f64(-1.0).as_nanos(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", SimDuration::from_nanos(250)), "0.250us");
        assert_eq!(format!("{:?}", SimDuration::from_nanos(250)), "250ns");
    }

    #[test]
    fn mul_div_duration() {
        let d = SimDuration::from_us(3);
        assert_eq!(d * 2, SimDuration::from_us(6));
        assert_eq!(d / 3, SimDuration::from_us(1));
    }
}
