//! Closed-form timing analysis of a DCF exchange.
//!
//! Tests cross-validate the simulator against these expressions (a
//! single saturated sender must hit the analytic saturation throughput;
//! see `net/tests/{basic_access,asymmetry}.rs`). The model is exact for
//! one contention-free sender and a useful reference point everywhere
//! else.

use airguard_sim::SimDuration;

use crate::dcf::AccessMode;
use crate::frames::FrameKind;
use crate::timing::MacTiming;

/// Analytic description of one RTS/CTS/DATA/ACK exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeModel {
    /// Time on air for the four frames plus the three SIFS gaps.
    pub frames_time: SimDuration,
    /// DIFS preceding the backoff.
    pub difs: SimDuration,
    /// Duration of the *average* fresh backoff (CWmin/2 slots).
    pub mean_backoff: SimDuration,
}

impl ExchangeModel {
    /// Builds the model for `payload` bytes under `timing` with the
    /// four-way RTS/CTS handshake.
    ///
    /// `extended` selects the modified protocol's slightly larger frames
    /// (attempt byte in RTS, assignment bytes in CTS/ACK).
    #[must_use]
    pub fn new(timing: &MacTiming, payload: u32, extended: bool) -> Self {
        ExchangeModel::with_access(timing, payload, extended, AccessMode::RtsCts)
    }

    /// Builds the model for an explicit [`AccessMode`].
    #[must_use]
    pub fn with_access(
        timing: &MacTiming,
        payload: u32,
        extended: bool,
        access: AccessMode,
    ) -> Self {
        let ext_rts = u32::from(extended);
        let ext_resp = if extended { 2 } else { 0 };
        let rts = timing.air_time(FrameKind::Rts.base_bytes() + ext_rts);
        let cts = timing.air_time(FrameKind::Cts.base_bytes() + ext_resp);
        let ack = timing.air_time(FrameKind::Ack.base_bytes() + ext_resp);
        let frames_time = match access {
            AccessMode::RtsCts => {
                let data = timing.air_time(FrameKind::Data.base_bytes() + payload);
                rts + cts + data + ack + timing.sifs * 3
            }
            AccessMode::Basic => {
                // Under basic access the attempt byte rides in the DATA.
                let data = timing.air_time(FrameKind::Data.base_bytes() + payload + ext_rts);
                data + ack + timing.sifs
            }
        };
        // Mean of uniform [0, CWmin] is CWmin/2; keep microsecond
        // precision by scaling the slot.
        let mean_backoff =
            SimDuration::from_micros(timing.slot.as_micros() * u64::from(timing.cw_min) / 2);
        ExchangeModel {
            frames_time,
            difs: timing.difs,
            mean_backoff,
        }
    }

    /// Expected duration of one complete, collision-free exchange,
    /// including DIFS and the mean backoff.
    #[must_use]
    pub fn mean_exchange_time(&self) -> SimDuration {
        self.difs + self.mean_backoff + self.frames_time
    }

    /// Saturation throughput of a single sender, in bits per second:
    /// `payload_bits / mean_exchange_time`.
    #[must_use]
    pub fn saturation_bps(&self, payload: u32) -> f64 {
        f64::from(payload) * 8.0 / self.mean_exchange_time().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_exchange_takes_about_3_5_ms() {
        let timing = MacTiming::dsss_2mbps();
        let m = ExchangeModel::new(&timing, 512, false);
        // RTS 272 + CTS 248 + DATA 2352 + ACK 248 + 3·SIFS 30 = 3150 µs;
        // plus DIFS 50 + mean backoff 310 = 3510 µs.
        assert_eq!(m.frames_time.as_micros(), 3_150);
        assert_eq!(m.mean_exchange_time().as_micros(), 3_510);
    }

    #[test]
    fn saturation_is_about_1_17_mbps() {
        let timing = MacTiming::dsss_2mbps();
        let m = ExchangeModel::new(&timing, 512, false);
        let bps = m.saturation_bps(512);
        assert!((1.16e6..1.18e6).contains(&bps), "saturation {bps}");
    }

    #[test]
    fn extended_frames_cost_a_little_capacity() {
        let timing = MacTiming::dsss_2mbps();
        let base = ExchangeModel::new(&timing, 512, false).saturation_bps(512);
        let ext = ExchangeModel::new(&timing, 512, true).saturation_bps(512);
        assert!(ext < base);
        // ...but well under one percent: 5 extra bytes against 3.5 ms.
        assert!(base / ext < 1.01, "overhead ratio {}", base / ext);
    }

    #[test]
    fn basic_access_is_faster_for_large_payloads() {
        let timing = MacTiming::dsss_2mbps();
        let four_way = ExchangeModel::new(&timing, 512, false).saturation_bps(512);
        let basic =
            ExchangeModel::with_access(&timing, 512, false, AccessMode::Basic).saturation_bps(512);
        // Basic access skips 780 µs of handshake per exchange.
        assert!(basic > 1.15 * four_way, "basic {basic} vs 4-way {four_way}");
    }

    #[test]
    fn larger_payloads_are_more_efficient() {
        let timing = MacTiming::dsss_2mbps();
        let small = ExchangeModel::new(&timing, 128, false).saturation_bps(128);
        let big = ExchangeModel::new(&timing, 1024, false).saturation_bps(1024);
        assert!(big > 1.5 * small);
    }
}
