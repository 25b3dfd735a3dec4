//! 802.11 timing constants, slot arithmetic, and the contention-window
//! ladder.
//!
//! Parameters are the IEEE 802.11-1999 DSSS PHY set, which is what ns-2
//! (and hence the paper) used: 20 µs slots, 10 µs SIFS, 50 µs DIFS,
//! CWmin = 31, CWmax = 1023, and a 192 µs PLCP preamble + header sent
//! before every frame. The channel bit rate in the paper's evaluation is
//! 2 Mb/s.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use airguard_sim::SimDuration;

/// A count of backoff slots.
///
/// Backoff values, penalties, and idle-slot observations are all measured
/// in slots; the newtype keeps them from mixing with byte counts and raw
/// microseconds.
///
/// ```
/// use airguard_mac::{MacTiming, Slots};
///
/// let timing = MacTiming::dsss_2mbps();
/// assert_eq!(Slots::new(3).to_duration(&timing).as_micros(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slots(u32);

impl Slots {
    /// Zero slots.
    pub const ZERO: Slots = Slots(0);

    /// Wraps a raw slot count.
    #[must_use]
    pub const fn new(count: u32) -> Self {
        Slots(count)
    }

    /// The raw slot count.
    #[must_use]
    pub const fn count(self) -> u32 {
        self.0
    }

    /// The on-air time these slots occupy.
    #[must_use]
    pub fn to_duration(self, timing: &MacTiming) -> SimDuration {
        timing.slot * u64::from(self.0)
    }

    /// `self - rhs`, clamped at zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: Slots) -> Slots {
        Slots(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Slots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} slots", self.0)
    }
}

impl Add for Slots {
    type Output = Slots;
    fn add(self, rhs: Slots) -> Slots {
        Slots(self.0 + rhs.0)
    }
}

impl AddAssign for Slots {
    fn add_assign(&mut self, rhs: Slots) {
        self.0 += rhs.0;
    }
}

impl Sub for Slots {
    type Output = Slots;
    fn sub(self, rhs: Slots) -> Slots {
        Slots(self.0 - rhs.0)
    }
}

/// Complete MAC/PHY timing parameter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacTiming {
    /// Backoff slot time.
    pub slot: SimDuration,
    /// Short interframe space (before CTS, DATA, ACK).
    pub sifs: SimDuration,
    /// DCF interframe space (idle time required before backoff countdown).
    pub difs: SimDuration,
    /// PLCP preamble + header prepended to every frame on air.
    pub plcp_overhead: SimDuration,
    /// Channel bit rate in bits per second.
    pub bit_rate: u64,
    /// Minimum contention window (CWmin), in slots.
    pub cw_min: u32,
    /// Maximum contention window (CWmax), in slots.
    pub cw_max: u32,
    /// Maximum number of transmission attempts before a packet is dropped.
    pub retry_limit: u8,
}

impl MacTiming {
    /// The paper's configuration: DSSS timing at a 2 Mb/s channel rate.
    #[must_use]
    pub fn dsss_2mbps() -> Self {
        MacTiming {
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            plcp_overhead: SimDuration::from_micros(192),
            bit_rate: 2_000_000,
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
        }
    }

    /// On-air time of a frame of `bytes` bytes: PLCP overhead plus the
    /// serialized bits at the channel rate, rounded up to a whole
    /// microsecond.
    #[must_use]
    pub fn air_time(&self, bytes: u32) -> SimDuration {
        let bits = u64::from(bytes) * 8;
        let micros = (bits * 1_000_000).div_ceil(self.bit_rate);
        self.plcp_overhead + SimDuration::from_micros(micros)
    }

    /// Contention window for the `attempt`-th transmission attempt
    /// (1-based), exactly as IEEE 802.11 computes it:
    /// `CW_i = min((CWmin+1)·2^(i−1) − 1, CWmax)`.
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is zero.
    #[must_use]
    pub fn cw_for_attempt(&self, attempt: u8) -> u32 {
        assert!(attempt >= 1, "attempts are 1-based");
        let exp = u32::from(attempt - 1).min(16);
        let cw = (self.cw_min + 1).saturating_mul(1 << exp).saturating_sub(1);
        cw.min(self.cw_max)
    }
}

impl Default for MacTiming {
    fn default() -> Self {
        MacTiming::dsss_2mbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsss_constants_match_standard() {
        let t = MacTiming::dsss_2mbps();
        assert_eq!(t.slot.as_micros(), 20);
        assert_eq!(t.sifs.as_micros(), 10);
        assert_eq!(t.difs.as_micros(), 50);
        // DIFS = SIFS + 2·slot for DSSS.
        assert_eq!(t.difs, t.sifs + t.slot * 2);
        assert_eq!(t.cw_min, 31);
        assert_eq!(t.cw_max, 1023);
    }

    #[test]
    fn air_time_examples() {
        let t = MacTiming::dsss_2mbps();
        // 20-byte RTS at 2 Mb/s: 192 + 80 µs.
        assert_eq!(t.air_time(20).as_micros(), 272);
        // 14-byte CTS/ACK: 192 + 56 µs.
        assert_eq!(t.air_time(14).as_micros(), 248);
        // 540-byte MPDU (512 payload + 28 header): 192 + 2160 µs.
        assert_eq!(t.air_time(540).as_micros(), 2352);
    }

    #[test]
    fn air_time_rounds_up() {
        let mut t = MacTiming::dsss_2mbps();
        t.bit_rate = 3_000_000; // 1 byte = 8/3 µs → rounds to 3
        assert_eq!(t.air_time(1), t.plcp_overhead + SimDuration::from_micros(3));
    }

    #[test]
    fn cw_ladder_doubles_and_caps() {
        let t = MacTiming::dsss_2mbps();
        assert_eq!(t.cw_for_attempt(1), 31);
        assert_eq!(t.cw_for_attempt(2), 63);
        assert_eq!(t.cw_for_attempt(3), 127);
        assert_eq!(t.cw_for_attempt(4), 255);
        assert_eq!(t.cw_for_attempt(5), 511);
        assert_eq!(t.cw_for_attempt(6), 1023);
        assert_eq!(t.cw_for_attempt(7), 1023, "capped at CWmax");
        assert_eq!(t.cw_for_attempt(30), 1023, "no overflow at huge attempts");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn cw_rejects_attempt_zero() {
        let _ = MacTiming::dsss_2mbps().cw_for_attempt(0);
    }

    #[test]
    fn slots_arithmetic() {
        let t = MacTiming::dsss_2mbps();
        let a = Slots::new(5);
        assert_eq!(a + Slots::new(2), Slots::new(7));
        assert_eq!(a - Slots::new(2), Slots::new(3));
        assert_eq!(a.saturating_sub(Slots::new(9)), Slots::ZERO);
        assert_eq!(Slots::new(4).to_duration(&t).as_micros(), 80);
        assert_eq!(format!("{a}"), "5 slots");
    }
}
