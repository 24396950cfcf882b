//! Simulation time: a virtual clock measured in whole seconds.
//!
//! The paper's datasets are bounded observation windows (11 days for the M2M
//! platform dataset, 22 days for the MNO dataset) and every analysis
//! aggregates per *day*. We therefore model time as seconds since the start
//! of the observation window ([`SimTime`]), with [`Day`] as the daily
//! aggregation key used by the devices-catalog.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of seconds in a simulated day.
pub const SECS_PER_DAY: u64 = 86_400;

/// A point in simulated time: seconds since the start of the observation
/// window.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the observation window.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw seconds since window start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates a time at the start of day `day` plus `secs_into_day`.
    pub const fn from_day_and_secs(day: u32, secs_into_day: u64) -> Self {
        SimTime(day as u64 * SECS_PER_DAY + secs_into_day)
    }

    /// Seconds since window start.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The day index this instant falls in (day 0 starts at second 0).
    pub const fn day(self) -> Day {
        Day((self.0 / SECS_PER_DAY) as u32)
    }

    /// Seconds elapsed since the start of the current day (`0..86_400`).
    pub const fn secs_into_day(self) -> u64 {
        self.0 % SECS_PER_DAY
    }

    /// Hour of day in `0..24`, used by diurnal traffic models.
    pub const fn hour_of_day(self) -> u32 {
        (self.secs_into_day() / 3_600) as u32
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / SECS_PER_DAY;
        let s = self.0 % SECS_PER_DAY;
        let (h, m, sec) = (s / 3600, (s % 3600) / 60, s % 60);
        write!(f, "d{d}+{h:02}:{m:02}:{sec:02}")
    }
}

/// A span of simulated time in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * SECS_PER_DAY)
    }

    /// Duration length in seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

/// A day index within the observation window (day 0 is the first day).
///
/// This is the aggregation key for the daily devices-catalog (§4.1): every
/// record a device produces during `[day * 86_400, (day + 1) * 86_400)` is
/// folded into that day's catalog entry.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Day(pub u32);

impl Day {
    /// Instant at the start of this day.
    pub const fn start(self) -> SimTime {
        SimTime(self.0 as u64 * SECS_PER_DAY)
    }

    /// Instant at the end of this day (start of the next).
    pub const fn end(self) -> SimTime {
        SimTime((self.0 as u64 + 1) * SECS_PER_DAY)
    }

    /// Iterator over all days in `0..count`.
    pub fn window(count: u32) -> impl Iterator<Item = Day> {
        (0..count).map(Day)
    }
}

impl fmt::Display for Day {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "day{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_boundaries() {
        assert_eq!(SimTime::from_secs(0).day(), Day(0));
        assert_eq!(SimTime::from_secs(SECS_PER_DAY - 1).day(), Day(0));
        assert_eq!(SimTime::from_secs(SECS_PER_DAY).day(), Day(1));
        assert_eq!(Day(3).start().as_secs(), 3 * SECS_PER_DAY);
        assert_eq!(Day(3).end(), Day(4).start());
    }

    #[test]
    fn hour_of_day() {
        assert_eq!(
            SimTime::from_day_and_secs(2, 3_600 * 13 + 59).hour_of_day(),
            13
        );
        assert_eq!(SimTime::from_day_and_secs(0, 0).hour_of_day(), 0);
        assert_eq!(
            SimTime::from_day_and_secs(0, SECS_PER_DAY - 1).hour_of_day(),
            23
        );
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(100) + SimDuration::from_mins(2);
        assert_eq!(t.as_secs(), 220);
        assert_eq!((t - SimTime::from_secs(20)).as_secs(), 200);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_day_and_secs(5, 3_661);
        assert_eq!(t.to_string(), "d5+01:01:01");
        assert_eq!(Day(7).to_string(), "day7");
    }

    #[test]
    fn window_iterates_every_day() {
        let days: Vec<Day> = Day::window(4).collect();
        assert_eq!(days, vec![Day(0), Day(1), Day(2), Day(3)]);
    }

    #[test]
    fn serde_roundtrip_is_transparent() {
        let t = SimTime::from_secs(12345);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, "12345");
        let back: SimTime = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
