//! Simulation time, bandwidth and resource-timeline primitives.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// The convenient identity `1 GB/s = 1 byte/ns` makes nanoseconds the
/// natural unit for an SSD whose channels run at 1 GB/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// A time `ns` nanoseconds after start.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// A time `us` microseconds after start.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// A time `ms` milliseconds after start.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Duration from `earlier` to `self`, zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub for SimTime {
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        match self.0.checked_sub(rhs.0) {
            Some(ns) => ns,
            None => panic!("SimTime subtraction underflow"),
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A transfer rate. Stored as bytes per nanosecond (`= GB/s`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Builds a bandwidth from GB/s (`1 GB/s = 1 byte/ns`).
    ///
    /// ```
    /// use ecssd_trace::Bandwidth;
    /// let channel = Bandwidth::from_gbps(1.0);
    /// assert_eq!(channel.transfer_ns(4096), 4096); // one 4 KB page = 4.1 µs
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive and finite.
    pub fn from_gbps(gbps: f64) -> Self {
        assert!(gbps > 0.0 && gbps.is_finite(), "invalid bandwidth {gbps}");
        Bandwidth(gbps)
    }

    /// The rate in GB/s.
    pub fn as_gbps(self) -> f64 {
        self.0
    }

    /// Time to move `bytes` at this rate, in nanoseconds (rounded up, at
    /// least 1 ns for a nonzero transfer).
    pub fn transfer_ns(self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        ((bytes as f64 / self.0).ceil() as u64).max(1)
    }

    /// Scales the bandwidth by an efficiency factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn derate(self, factor: f64) -> Bandwidth {
        assert!(factor > 0.0 && factor <= 1.0, "invalid derating {factor}");
        Bandwidth(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.0)
    }
}

/// The busy timeline of one serialized resource (a bus, a die, a link, a
/// compute engine): work occupies it from the later of its issue time and
/// the end of the previous work, one piece after another.
///
/// ```
/// use ecssd_trace::{SimTime, Timeline};
/// let mut bus = Timeline::default();
/// assert_eq!(bus.occupy(SimTime::ZERO, 10), (SimTime::ZERO, SimTime::from_ns(10)));
/// // Issued at 4 ns, the second transfer waits for the first.
/// let (start, done) = bus.occupy(SimTime::from_ns(4), 10);
/// assert_eq!((start.as_ns(), done.as_ns()), (10, 20));
/// assert_eq!(bus.busy_ns(), 20);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeline {
    free_at: SimTime,
    busy_ns: u64,
}

impl Timeline {
    /// Occupies the resource for `dur` ns, starting no earlier than `issue`
    /// and no earlier than the previous occupation's end; returns the
    /// occupation's `(start, done)`.
    pub fn occupy(&mut self, issue: SimTime, dur: u64) -> (SimTime, SimTime) {
        let start = issue.max(self.free_at);
        let done = start + dur;
        self.free_at = done;
        self.busy_ns += dur;
        (start, done)
    }

    /// When the last occupation ends.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Accumulated busy time, ns.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Clears the busy total; the timeline keeps its position.
    pub fn reset_busy(&mut self) {
        self.busy_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_gbps_is_one_byte_per_ns() {
        let bw = Bandwidth::from_gbps(1.0);
        assert_eq!(bw.transfer_ns(4096), 4096);
    }

    #[test]
    fn transfer_rounds_up() {
        let bw = Bandwidth::from_gbps(3.0);
        assert_eq!(bw.transfer_ns(10), 4); // 3.33 -> 4
        assert_eq!(bw.transfer_ns(0), 0);
        assert_eq!(bw.transfer_ns(1), 1);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_us(2);
        assert_eq!(t.as_ns(), 2_000);
        assert_eq!((t + 500).as_ns(), 2_500);
        assert_eq!(t - SimTime::from_ns(500), 1_500);
        assert_eq!(t.max(SimTime::from_ms(1)), SimTime::from_ms(1));
        assert_eq!(SimTime::ZERO.saturating_since(t), 0);
        assert_eq!(t.saturating_since(SimTime::ZERO), 2_000);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_ns(1);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12ns");
        assert_eq!(SimTime::from_ns(1_200).to_string(), "1.200us");
        assert_eq!(SimTime::from_ms(2).to_string(), "2.000ms");
        assert_eq!(SimTime::from_ms(2_000).to_string(), "2.000s");
        assert_eq!(Bandwidth::from_gbps(12.8).to_string(), "12.80 GB/s");
    }

    #[test]
    fn timeline_serializes_and_keeps_its_place_across_a_reset() {
        let mut t = Timeline::default();
        assert_eq!(t.occupy(SimTime::from_ns(5), 3).0, SimTime::from_ns(5));
        assert_eq!(
            t.occupy(SimTime::ZERO, 4),
            (SimTime::from_ns(8), SimTime::from_ns(12))
        );
        assert_eq!((t.free_at(), t.busy_ns()), (SimTime::from_ns(12), 7));
        t.reset_busy();
        assert_eq!((t.free_at(), t.busy_ns()), (SimTime::from_ns(12), 0));
        // An idle gap is not busy time.
        t.occupy(SimTime::from_ns(20), 1);
        assert_eq!((t.free_at(), t.busy_ns()), (SimTime::from_ns(21), 1));
    }

    #[test]
    fn derate_scales() {
        let bw = Bandwidth::from_gbps(4.0).derate(0.5);
        assert_eq!(bw.as_gbps(), 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::from_gbps(0.0);
    }
}
