//! Causal span reconstruction over the typed event stream.
//!
//! The emitters thread an exchange id ([`crate::event::exchange_id`])
//! through every leg of the RTS→CTS→DATA→ACK handshake and through the
//! monitor observations it triggers. This module folds a flat
//! [`Record`] stream back into that causal structure:
//!
//! * [`ExchangeSpan`] — one handshake: which legs were observed and
//!   when (virtual µs), plus the monitor verdicts it drew;
//! * [`StationSpan`] — one station: first channel access, first
//!   penalty, first diagnosis, and the tallies between them.
//!
//! From station spans the detection-latency metrics fall out directly:
//! a misbehaving sender cheats from its first access, so
//! `first_penalty - first_access` is the monitor's reaction time and
//! `first_diagnosis - first_access` the diagnosis time (paper §4: W=5
//! window crossing THRESH). All times are virtual, so the derived
//! histograms obey the determinism contract (DESIGN.md §9).

use std::collections::BTreeMap;

use crate::event::{exchange_src, Category, ObsEvent, Record};
use crate::registry::Registry;

/// The sink category mask detection-latency runs need: the handshake
/// emissions that mark misbehavior onset and the monitor verdicts that
/// end the latency window. The runner folds spans into the registry
/// exactly when a run's sink carries both categories.
pub const DETECTION_OBSERVE_MASK: u32 = Category::MacTx.bit() | Category::Monitor.bit();

/// Histogram bucket upper bounds (virtual µs) for detection-latency
/// metrics: 1 ms to 30 s, roughly logarithmic. Chosen once and shared
/// by every cell so pooled histograms always have identical geometry.
pub const DETECTION_LATENCY_BOUNDS_US: [u64; 10] = [
    1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000, 30_000_000,
];

/// Registry name of the onset→first-`PenaltyAdded` latency histogram.
pub const PENALTY_LATENCY_HIST: &str = "obs.detect.penalty_latency_us";

/// Registry name of the onset→first-`DiagnosisFlagged` latency
/// histogram.
pub const DIAGNOSIS_LATENCY_HIST: &str = "obs.detect.diagnosis_latency_us";

/// One reconstructed RTS→CTS→DATA→ACK handshake.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangeSpan {
    /// Packed exchange id (see [`crate::event::exchange_id`]).
    pub xid: u64,
    /// Virtual time of the first event carrying this id.
    pub start_us: u64,
    /// Virtual time of the last event carrying this id.
    pub end_us: u64,
    /// When the sender put the (first) RTS on the air.
    pub rts_us: Option<u64>,
    /// When the receiver answered with a CTS.
    pub cts_us: Option<u64>,
    /// When the DATA frame went on the air.
    pub data_us: Option<u64>,
    /// When the sender decoded the completing ACK.
    pub ack_us: Option<u64>,
    /// Monitor penalties charged against this exchange's access.
    pub penalties: u64,
    /// Whether this exchange's access tripped a diagnosis.
    pub flagged: bool,
}

impl ExchangeSpan {
    /// The station that originated the exchange (packed in the id).
    #[must_use]
    pub fn src(&self) -> u32 {
        exchange_src(self.xid)
    }

    /// Whether every leg of the four-way handshake was observed.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.rts_us.is_some()
            && self.cts_us.is_some()
            && self.data_us.is_some()
            && self.ack_us.is_some()
    }

    /// Virtual duration from first to last observed leg.
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Per-station causal summary across all its exchanges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StationSpan {
    /// When the station first accessed the channel (RTS or Basic DATA).
    ///
    /// For a misbehaving sender this is its misbehavior onset: the
    /// scenario layer configures cheating from t=0, so the first
    /// access is the first cheated backoff.
    pub first_access_us: Option<u64>,
    /// When a monitor first charged this station a penalty.
    pub first_penalty_us: Option<u64>,
    /// When a monitor first flagged this station as misbehaving.
    pub first_diagnosis_us: Option<u64>,
    /// Total penalties charged against the station.
    pub penalties: u64,
    /// Total diagnosis flags raised against the station.
    pub diagnoses: u64,
    /// Distinct exchanges the station originated.
    pub exchanges: u64,
}

impl StationSpan {
    /// Virtual onset→first-penalty latency, when both ends observed.
    #[must_use]
    pub fn penalty_latency_us(&self) -> Option<u64> {
        Some(self.first_penalty_us?.saturating_sub(self.first_access_us?))
    }

    /// Virtual onset→first-diagnosis latency, when both ends observed.
    #[must_use]
    pub fn diagnosis_latency_us(&self) -> Option<u64> {
        Some(
            self.first_diagnosis_us?
                .saturating_sub(self.first_access_us?),
        )
    }
}

/// The reconstructed span structure of one event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSet {
    /// Exchange spans keyed by exchange id (BTreeMap: deterministic
    /// iteration).
    pub exchanges: BTreeMap<u64, ExchangeSpan>,
    /// Station spans keyed by originating station id.
    pub stations: BTreeMap<u32, StationSpan>,
}

impl SpanSet {
    /// Folds a record stream into exchange and station spans.
    ///
    /// Only events carrying an exchange id contribute; the stream may
    /// be category-filtered (e.g. `MacTx | Monitor` is enough for
    /// detection latency).
    #[must_use]
    pub fn from_records(records: &[Record]) -> SpanSet {
        let mut set = SpanSet::default();
        for record in records {
            let Some(xid) = record.event.xid() else {
                continue;
            };
            let t = record.time_us;
            let exchange = set.exchanges.entry(xid).or_insert_with(|| ExchangeSpan {
                xid,
                start_us: t,
                end_us: t,
                ..ExchangeSpan::default()
            });
            exchange.start_us = exchange.start_us.min(t);
            exchange.end_us = exchange.end_us.max(t);
            let src = exchange_src(xid);
            let station = set.stations.entry(src).or_default();
            match &record.event {
                ObsEvent::RtsTx { .. } => {
                    if exchange.rts_us.is_none() {
                        exchange.rts_us = Some(t);
                    }
                    if station.first_access_us.is_none() {
                        station.first_access_us = Some(t);
                    }
                }
                ObsEvent::CtsTx { .. } if exchange.cts_us.is_none() => {
                    exchange.cts_us = Some(t);
                }
                ObsEvent::DataTx { .. } => {
                    if exchange.data_us.is_none() {
                        exchange.data_us = Some(t);
                    }
                    if station.first_access_us.is_none() {
                        station.first_access_us = Some(t);
                    }
                }
                ObsEvent::AckRx { .. } if exchange.ack_us.is_none() => {
                    exchange.ack_us = Some(t);
                }
                ObsEvent::PenaltyAdded { .. } => {
                    exchange.penalties += 1;
                    station.penalties += 1;
                    if station.first_penalty_us.is_none() {
                        station.first_penalty_us = Some(t);
                    }
                }
                ObsEvent::DiagnosisFlagged { .. } => {
                    exchange.flagged = true;
                    station.diagnoses += 1;
                    if station.first_diagnosis_us.is_none() {
                        station.first_diagnosis_us = Some(t);
                    }
                }
                // CtsRx / AckTx / BackoffAssigned carry the id and
                // already widened the span window above.
                _ => {}
            }
        }
        for exchange in set.exchanges.values() {
            if let Some(station) = set.stations.get_mut(&exchange.src()) {
                station.exchanges += 1;
            }
        }
        set
    }

    /// Records every station's detection latencies into `registry` as
    /// the two shared-geometry histograms
    /// ([`PENALTY_LATENCY_HIST`], [`DIAGNOSIS_LATENCY_HIST`]).
    ///
    /// Stations that never drew a penalty (honest senders) or never
    /// crossed the diagnosis threshold contribute nothing — the
    /// histograms measure reaction time to *detected* misbehavior,
    /// while detection *rates* stay with the existing diagnosis
    /// metrics.
    pub fn record_detection_latencies(&self, registry: &Registry) {
        self.record_detection_latencies_for(registry, "window");
    }

    /// Like [`Self::record_detection_latencies`], but names the
    /// histograms after the deviation detector that produced the
    /// diagnoses (see [`detector_latency_hists`]), so a sweep that runs
    /// several detectors keeps their reaction-time distributions apart.
    pub fn record_detection_latencies_for(&self, registry: &Registry, detector: &str) {
        let (penalty_name, diagnosis_name) = detector_latency_hists(detector);
        let penalty = registry.histogram(&penalty_name, &DETECTION_LATENCY_BOUNDS_US);
        let diagnosis = registry.histogram(&diagnosis_name, &DETECTION_LATENCY_BOUNDS_US);
        for station in self.stations.values() {
            if let Some(latency) = station.penalty_latency_us() {
                penalty.record(latency);
            }
            if let Some(latency) = station.diagnosis_latency_us() {
                diagnosis.record(latency);
            }
        }
    }
}

/// The `(penalty, diagnosis)` histogram names for a detector kind.
///
/// The paper's window detector keeps the original unqualified names so
/// every report produced before detectors became pluggable still lines
/// up; the alternatives get an `obs.detect.<kind>.` prefix.
#[must_use]
pub fn detector_latency_hists(detector: &str) -> (String, String) {
    if detector == "window" {
        (
            PENALTY_LATENCY_HIST.to_owned(),
            DIAGNOSIS_LATENCY_HIST.to_owned(),
        )
    } else {
        (
            format!("obs.detect.{detector}.penalty_latency_us"),
            format!("obs.detect.{detector}.diagnosis_latency_us"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{exchange_id, ObsEvent, Record};

    fn rec(time_us: u64, node: u32, event: ObsEvent) -> Record {
        Record {
            time_us,
            node,
            event,
        }
    }

    /// One clean exchange from n1 to n2, observed end to end.
    fn clean_exchange(seq: u64, base_us: u64) -> Vec<Record> {
        let xid = exchange_id(1, seq);
        vec![
            rec(
                base_us,
                1,
                ObsEvent::RtsTx {
                    dst: 2,
                    seq,
                    attempt: 1,
                    xid,
                },
            ),
            rec(base_us + 10, 2, ObsEvent::CtsTx { dst: 1, xid }),
            rec(base_us + 20, 1, ObsEvent::CtsRx { src: 2, seq, xid }),
            rec(
                base_us + 30,
                1,
                ObsEvent::DataTx {
                    dst: 2,
                    seq,
                    attempt: 1,
                    xid,
                },
            ),
            rec(base_us + 40, 2, ObsEvent::AckTx { dst: 1, xid }),
            rec(base_us + 50, 1, ObsEvent::AckRx { src: 2, seq, xid }),
        ]
    }

    #[test]
    fn exchange_span_reassembles_the_handshake() {
        let records = clean_exchange(3, 100);
        let set = SpanSet::from_records(&records);
        assert_eq!(set.exchanges.len(), 1);
        let span = &set.exchanges[&exchange_id(1, 3)];
        assert!(span.complete());
        assert_eq!(span.src(), 1);
        assert_eq!(span.start_us, 100);
        assert_eq!(span.end_us, 150);
        assert_eq!(span.duration_us(), 50);
        assert_eq!(span.rts_us, Some(100));
        assert_eq!(span.cts_us, Some(110));
        assert_eq!(span.data_us, Some(130));
        assert_eq!(span.ack_us, Some(150));
        assert_eq!(set.stations[&1].exchanges, 1);
        assert_eq!(set.stations[&1].first_access_us, Some(100));
    }

    #[test]
    fn interleaved_exchanges_stay_separate() {
        let mut records = clean_exchange(0, 0);
        records.extend(clean_exchange(1, 25));
        records.sort_by_key(|r| r.time_us);
        let set = SpanSet::from_records(&records);
        assert_eq!(set.exchanges.len(), 2);
        assert!(set.exchanges[&exchange_id(1, 0)].complete());
        assert!(set.exchanges[&exchange_id(1, 1)].complete());
        assert_eq!(set.stations[&1].exchanges, 2);
    }

    #[test]
    fn detection_latency_is_onset_to_first_monitor_verdict() {
        let xid = exchange_id(5, 0);
        let records = vec![
            rec(
                1_000,
                5,
                ObsEvent::RtsTx {
                    dst: 0,
                    seq: 0,
                    attempt: 1,
                    xid,
                },
            ),
            rec(
                4_000,
                0,
                ObsEvent::PenaltyAdded {
                    src: 5,
                    penalty_slots: 3.0,
                    assigned_slots: 10.0,
                    observed_slots: 7.0,
                    xid,
                },
            ),
            rec(
                9_000,
                0,
                ObsEvent::PenaltyAdded {
                    src: 5,
                    penalty_slots: 2.0,
                    assigned_slots: 9.0,
                    observed_slots: 7.0,
                    xid: exchange_id(5, 1),
                },
            ),
            rec(
                21_000,
                0,
                ObsEvent::DiagnosisFlagged {
                    src: 5,
                    window_sum: 7.5,
                    xid: exchange_id(5, 2),
                },
            ),
        ];
        let set = SpanSet::from_records(&records);
        let station = &set.stations[&5];
        assert_eq!(station.penalty_latency_us(), Some(3_000));
        assert_eq!(station.diagnosis_latency_us(), Some(20_000));
        assert_eq!(station.penalties, 2);
        assert_eq!(station.diagnoses, 1);

        let registry = Registry::new();
        set.record_detection_latencies(&registry);
        let snap = registry.snapshot();
        let penalty = &snap.histograms[PENALTY_LATENCY_HIST];
        assert_eq!(penalty.total, 1);
        assert_eq!(penalty.sum, 3_000);
        let diagnosis = &snap.histograms[DIAGNOSIS_LATENCY_HIST];
        assert_eq!(diagnosis.total, 1);
        assert_eq!(diagnosis.sum, 20_000);
    }

    #[test]
    fn honest_stations_contribute_no_latency_samples() {
        let records = clean_exchange(0, 0);
        let set = SpanSet::from_records(&records);
        assert_eq!(set.stations[&1].penalty_latency_us(), None);
        let registry = Registry::new();
        set.record_detection_latencies(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.histograms[PENALTY_LATENCY_HIST].total, 0);
        assert_eq!(snap.histograms[DIAGNOSIS_LATENCY_HIST].total, 0);
    }

    #[test]
    fn detector_latency_hist_names_keep_the_window_legacy_names() {
        assert_eq!(
            detector_latency_hists("window"),
            (
                PENALTY_LATENCY_HIST.to_owned(),
                DIAGNOSIS_LATENCY_HIST.to_owned()
            )
        );
        assert_eq!(
            detector_latency_hists("cusum"),
            (
                "obs.detect.cusum.penalty_latency_us".to_owned(),
                "obs.detect.cusum.diagnosis_latency_us".to_owned()
            )
        );
        assert_eq!(
            detector_latency_hists("cw").0,
            "obs.detect.cw.penalty_latency_us"
        );
    }

    #[test]
    fn recording_for_a_detector_uses_the_qualified_names() {
        let mut records = clean_exchange(7, 0);
        records.push(rec(
            3_000,
            2,
            ObsEvent::PenaltyAdded {
                src: 1,
                penalty_slots: 4.0,
                assigned_slots: 10.0,
                observed_slots: 6.0,
                xid: exchange_id(1, 7),
            },
        ));
        let set = SpanSet::from_records(&records);
        let registry = Registry::new();
        set.record_detection_latencies_for(&registry, "cusum");
        let snap = registry.snapshot();
        assert_eq!(
            snap.histograms["obs.detect.cusum.penalty_latency_us"].total,
            1
        );
        assert!(!snap.histograms.contains_key(PENALTY_LATENCY_HIST));
    }

    #[test]
    fn events_without_an_xid_are_ignored() {
        let records = vec![
            rec(0, 1, ObsEvent::BackoffDrawn { dst: 2, slots: 9 }),
            rec(5, 1, ObsEvent::Deferred { response: false }),
        ];
        let set = SpanSet::from_records(&records);
        assert!(set.exchanges.is_empty());
        assert!(set.stations.is_empty());
    }
}
