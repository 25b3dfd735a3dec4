//! Exporters: JSONL event streams and per-run summary reports.
//!
//! Determinism contract (DESIGN.md §9): exports contain virtual time
//! only — never wall-clock time — and all maps serialise in `BTreeMap`
//! key order, so two runs with the same seed produce byte-identical
//! output.

use std::collections::BTreeMap;

use crate::event::{ObsEvent, Record, NO_NODE};
use crate::json::{u64_array, JsonObject};
use crate::registry::{HistogramSnapshot, RegistrySnapshot};

/// FNV-1a 64-bit hash of `bytes` — the workspace's one implementation,
/// behind config digests, RNG stream keys, checkpoint footers, and the
/// live station→shard map. Every one of those is persisted or compared
/// across runs, so the function's output must never change.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv1a`] of `bytes`, as a fixed-width hex string.
///
/// Used to fingerprint the run configuration (`Debug` rendering of the
/// config struct) so reports from different configs never compare equal
/// by accident.
#[must_use]
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// Deterministic per-run report: configuration digest, seed, virtual
/// elapsed time, and a snapshot of every registered metric.
///
/// `to_json` renders a single line suitable for `.report.jsonl` files;
/// byte-identical across same-seed runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Scenario or binary label, e.g. `"fig4"`.
    pub label: String,
    /// Master seed the run used.
    pub seed: u64,
    /// [`fnv1a_hex`] digest of the run configuration.
    pub config_digest: String,
    /// Virtual time elapsed, microseconds.
    pub elapsed_us: u64,
    /// Wall-clock time spent producing this summary, microseconds.
    ///
    /// Zero when the summary was rehydrated from a result cache rather
    /// than simulated, so cached and simulated cells are
    /// distinguishable programmatically. Deliberately *excluded* from
    /// [`RunSummary::to_json`]: the determinism contract (DESIGN.md §9)
    /// forbids wall-clock time in exports, and report lines must stay
    /// byte-identical across reruns and worker counts.
    pub wall_elapsed_us: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RunSummary {
    /// A summary with no metrics yet.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        config_digest: impl Into<String>,
        elapsed_us: u64,
    ) -> Self {
        RunSummary {
            label: label.into(),
            seed,
            config_digest: config_digest.into(),
            elapsed_us,
            wall_elapsed_us: 0,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Stamps the wall-clock cost of producing this summary.
    #[must_use]
    pub fn with_wall_elapsed(mut self, wall_elapsed_us: u64) -> Self {
        self.wall_elapsed_us = wall_elapsed_us;
        self
    }

    /// Merges a registry snapshot's metrics into the summary.
    #[must_use]
    pub fn with_metrics(mut self, snapshot: RegistrySnapshot) -> Self {
        self.counters.extend(snapshot.counters);
        self.histograms.extend(snapshot.histograms);
        self
    }

    /// Single-line JSON rendering, deterministic field and key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters.u64(name, *value);
        }
        let mut histograms = JsonObject::new();
        for (name, snap) in &self.histograms {
            let mut h = JsonObject::new();
            h.raw("bounds", &u64_array(&snap.bounds))
                .raw("counts", &u64_array(&snap.counts))
                .u64("total", snap.total)
                .u64("sum", snap.sum);
            histograms.raw(name, &h.finish());
        }
        let mut obj = JsonObject::new();
        obj.str("label", &self.label)
            .u64("seed", self.seed)
            .str("config_digest", &self.config_digest)
            .u64("elapsed_us", self.elapsed_us)
            .raw("counters", &counters.finish())
            .raw("histograms", &histograms.finish());
        obj.finish()
    }
}

/// Pools per-run summaries into one aggregate [`RunSummary`] under
/// `label` (the experiment engine emits one pooled line per grid
/// point).
///
/// Semantics: counters sum per name; histograms with identical bounds
/// sum element-wise, while a name whose bounds disagree across parts is
/// dropped (pooling incompatible geometries would misstate the data);
/// virtual elapsed time sums; `seed` is 0 (an aggregate has no seed);
/// `config_digest` is kept when every part agrees and is `"mixed"`
/// otherwise.
#[must_use]
pub fn aggregate_summaries(label: impl Into<String>, parts: &[RunSummary]) -> RunSummary {
    let mut agg = RunSummary::new(
        label,
        0,
        match parts.first() {
            Some(first) if parts.iter().all(|p| p.config_digest == first.config_digest) => {
                first.config_digest.clone()
            }
            Some(_) => "mixed".to_owned(),
            None => String::new(),
        },
        parts.iter().map(|p| p.elapsed_us).sum(),
    )
    .with_wall_elapsed(parts.iter().map(|p| p.wall_elapsed_us).sum());
    for part in parts {
        for (name, value) in &part.counters {
            *agg.counters.entry(name.clone()).or_insert(0) += value;
        }
    }
    let mut dropped: Vec<String> = Vec::new();
    for part in parts {
        for (name, h) in &part.histograms {
            match agg.histograms.get_mut(name) {
                None => {
                    if !dropped.contains(name) {
                        agg.histograms.insert(name.clone(), h.clone());
                    }
                }
                Some(acc) if acc.bounds == h.bounds => {
                    for (a, c) in acc.counts.iter_mut().zip(&h.counts) {
                        *a += c;
                    }
                    acc.total += h.total;
                    acc.sum += h.sum;
                }
                Some(_) => {
                    agg.histograms.remove(name);
                    dropped.push(name.clone());
                }
            }
        }
    }
    agg
}

/// Serialises one [`Record`] as a single JSONL line.
///
/// Schema: `t_us` (virtual time), `node` (absent for records carrying
/// [`NO_NODE`]), `cat` (category name), `event` (variant name), then
/// the variant's own fields flattened.
#[must_use]
pub fn record_to_json(record: &Record) -> String {
    let mut obj = JsonObject::new();
    obj.u64("t_us", record.time_us);
    if record.node != NO_NODE {
        obj.u64("node", u64::from(record.node));
    }
    obj.str("cat", record.event.category().name())
        .str("event", record.event.kind());
    match &record.event {
        ObsEvent::RtsTx {
            dst,
            seq,
            attempt,
            xid,
        }
        | ObsEvent::DataTx {
            dst,
            seq,
            attempt,
            xid,
        } => {
            obj.u64("dst", u64::from(*dst))
                .u64("seq", *seq)
                .u64("attempt", u64::from(*attempt))
                .u64("xid", *xid);
        }
        ObsEvent::CtsTx { dst, xid } | ObsEvent::AckTx { dst, xid } => {
            obj.u64("dst", u64::from(*dst)).u64("xid", *xid);
        }
        ObsEvent::CtsRx { src, seq, xid } | ObsEvent::AckRx { src, seq, xid } => {
            obj.u64("src", u64::from(*src))
                .u64("seq", *seq)
                .u64("xid", *xid);
        }
        ObsEvent::RtsIgnored { src }
        | ObsEvent::AckSuppressed { src }
        | ObsEvent::ProbeDropped { src } => {
            obj.u64("src", u64::from(*src));
        }
        ObsEvent::BackoffDrawn { dst, slots } => {
            obj.u64("dst", u64::from(*dst))
                .u64("slots", u64::from(*slots));
        }
        ObsEvent::Retry {
            ack,
            attempt,
            slots,
        } => {
            obj.bool("ack", *ack)
                .u64("attempt", u64::from(*attempt))
                .u64("slots", u64::from(*slots));
        }
        ObsEvent::PacketDropped { seq, attempts } => {
            obj.u64("seq", *seq).u64("attempts", u64::from(*attempts));
        }
        ObsEvent::Deferred { response } => {
            obj.bool("response", *response);
        }
        ObsEvent::BackoffAssigned {
            src,
            assigned_slots,
            observed_slots,
            xid,
        } => {
            obj.u64("src", u64::from(*src))
                .f64("assigned_slots", *assigned_slots)
                .f64("observed_slots", *observed_slots)
                .u64("xid", *xid);
        }
        ObsEvent::PenaltyAdded {
            src,
            penalty_slots,
            assigned_slots,
            observed_slots,
            xid,
        } => {
            obj.u64("src", u64::from(*src))
                .f64("penalty_slots", *penalty_slots)
                .f64("assigned_slots", *assigned_slots)
                .f64("observed_slots", *observed_slots)
                .u64("xid", *xid);
        }
        ObsEvent::DiagnosisFlagged {
            src,
            window_sum,
            xid,
        } => {
            obj.u64("src", u64::from(*src))
                .f64("window_sum", *window_sum)
                .u64("xid", *xid);
        }
        ObsEvent::Collision {
            victim_tx,
            culprit_tx,
        } => {
            obj.u64("victim_tx", *victim_tx);
            if let Some(culprit) = culprit_tx {
                obj.u64("culprit_tx", *culprit);
            }
        }
        ObsEvent::Decode { tx, clean } => {
            obj.u64("tx", *tx).bool("clean", *clean);
        }
        ObsEvent::FaultFrameLost { listener, tx } => {
            obj.u64("listener", u64::from(*listener)).u64("tx", *tx);
        }
        ObsEvent::FaultCorruptedBackoff {
            listener,
            original_slots,
            corrupted_slots,
        } => {
            obj.u64("listener", u64::from(*listener))
                .u64("original_slots", u64::from(*original_slots))
                .u64("corrupted_slots", u64::from(*corrupted_slots));
        }
        ObsEvent::FaultCorruptedAttempt {
            listener,
            original,
            corrupted,
        } => {
            obj.u64("listener", u64::from(*listener))
                .u64("original", u64::from(*original))
                .u64("corrupted", u64::from(*corrupted));
        }
        ObsEvent::FaultNodeDown { cold } => {
            obj.bool("cold", *cold);
        }
        ObsEvent::FaultNodeUp { downtime_us } => {
            obj.u64("downtime_us", *downtime_us);
        }
        ObsEvent::LiveShedDropped { shard, station } => {
            obj.u64("shard", u64::from(*shard))
                .u64("station", u64::from(*station));
        }
        ObsEvent::LiveDegraded {
            shard,
            sample_every,
        } => {
            obj.u64("shard", u64::from(*shard))
                .u64("sample_every", u64::from(*sample_every));
        }
        ObsEvent::LiveQuarantined { source, record } => {
            obj.u64("source", u64::from(*source)).u64("record", *record);
        }
        ObsEvent::LiveSourceReopened {
            source,
            attempt,
            backoff_ms,
        } => {
            obj.u64("source", u64::from(*source))
                .u64("attempt", u64::from(*attempt))
                .u64("backoff_ms", *backoff_ms);
        }
        ObsEvent::LiveCheckpointWritten { consumed, stations } => {
            obj.u64("consumed", *consumed).u64("stations", *stations);
        }
        ObsEvent::LiveShardQuarantined { shard, stalled_ms } => {
            obj.u64("shard", u64::from(*shard))
                .u64("stalled_ms", *stalled_ms);
        }
    }
    obj.finish()
}

/// Serialises records as JSONL: one JSON object per line, trailing
/// newline included when non-empty.
#[must_use]
pub fn records_to_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record_to_json(record));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{
        aggregate_summaries, fnv1a, fnv1a_hex, record_to_json, records_to_jsonl, RunSummary,
    };
    use crate::event::{ObsEvent, Record, NO_NODE};
    use crate::registry::Registry;

    #[test]
    fn fnv_digest_is_stable_and_hex() {
        let d = fnv1a_hex(b"airguard");
        assert_eq!(d.len(), 16);
        assert_eq!(d, fnv1a_hex(b"airguard"));
        assert_ne!(d, fnv1a_hex(b"airguarD"));
    }

    #[test]
    fn fnv1a_matches_the_published_64_bit_test_vectors() {
        // Known answers from the FNV reference test suite; every cache
        // key, stream key, and shard assignment depends on these.
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn record_json_flattens_typed_fields() {
        let line = record_to_json(&Record {
            time_us: 120,
            node: 2,
            event: ObsEvent::PenaltyAdded {
                src: 1,
                penalty_slots: 3.5,
                assigned_slots: 10.0,
                observed_slots: 3.0,
                xid: crate::event::exchange_id(1, 9),
            },
        });
        assert_eq!(
            line,
            "{\"t_us\":120,\"node\":2,\"cat\":\"monitor\",\"event\":\"penalty_added\",\
             \"src\":1,\"penalty_slots\":3.5,\"assigned_slots\":10,\"observed_slots\":3,\
             \"xid\":1099511627785}"
        );
    }

    #[test]
    fn no_node_records_omit_the_node_field() {
        let line = record_to_json(&Record {
            time_us: 0,
            node: NO_NODE,
            event: ObsEvent::LiveQuarantined {
                source: 0,
                record: 7,
            },
        });
        assert!(!line.contains("\"node\""));
        assert!(line.contains("\"cat\":\"live\""));
    }

    #[test]
    fn jsonl_is_one_line_per_record() {
        let records = vec![
            Record {
                time_us: 1,
                node: 0,
                event: ObsEvent::CtsTx { dst: 1, xid: 7 },
            },
            Record {
                time_us: 2,
                node: 1,
                event: ObsEvent::AckRx {
                    src: 0,
                    seq: 4,
                    xid: 4,
                },
            },
        ];
        let out = records_to_jsonl(&records);
        assert_eq!(out.lines().count(), 2);
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn aggregation_pools_counters_and_histograms() {
        let mut a = RunSummary::new("fig4/pm=50", 1, "d1", 100);
        a.counters.insert("mac.rts_tx".into(), 3);
        a.histograms.insert(
            "h".into(),
            crate::registry::HistogramSnapshot {
                bounds: vec![1, 4],
                counts: vec![1, 0, 2],
                total: 3,
                sum: 9,
            },
        );
        let mut b = RunSummary::new("fig4/pm=50", 2, "d1", 50);
        b.counters.insert("mac.rts_tx".into(), 4);
        b.counters.insert("mac.acks".into(), 7);
        b.histograms.insert(
            "h".into(),
            crate::registry::HistogramSnapshot {
                bounds: vec![1, 4],
                counts: vec![0, 1, 1],
                total: 2,
                sum: 6,
            },
        );
        let agg = aggregate_summaries("fig4/pm=50/pooled", &[a, b]);
        assert_eq!(agg.label, "fig4/pm=50/pooled");
        assert_eq!(agg.seed, 0);
        assert_eq!(agg.config_digest, "d1");
        assert_eq!(agg.elapsed_us, 150);
        assert_eq!(agg.counters["mac.rts_tx"], 7);
        assert_eq!(agg.counters["mac.acks"], 7);
        let h = &agg.histograms["h"];
        assert_eq!(h.counts, vec![1, 1, 3]);
        assert_eq!(h.total, 5);
        assert_eq!(h.sum, 15);
    }

    #[test]
    fn aggregation_drops_mismatched_histograms_and_mixed_digests() {
        let mut a = RunSummary::new("x", 1, "d1", 0);
        a.histograms.insert(
            "h".into(),
            crate::registry::HistogramSnapshot {
                bounds: vec![1],
                counts: vec![1, 1],
                total: 2,
                sum: 2,
            },
        );
        let mut b = RunSummary::new("x", 2, "d2", 0);
        b.histograms.insert(
            "h".into(),
            crate::registry::HistogramSnapshot {
                bounds: vec![2],
                counts: vec![0, 1],
                total: 1,
                sum: 3,
            },
        );
        let agg = aggregate_summaries("x/pooled", &[a.clone(), b]);
        assert_eq!(agg.config_digest, "mixed");
        assert!(
            !agg.histograms.contains_key("h"),
            "mismatched bounds must drop the histogram"
        );
        // Once dropped, a later part with the same name must not
        // resurrect it with partial data.
        let mut c = RunSummary::new("x", 3, "d1", 0);
        c.histograms.insert(
            "h".into(),
            crate::registry::HistogramSnapshot {
                bounds: vec![2],
                counts: vec![0, 1],
                total: 1,
                sum: 3,
            },
        );
        let mut b2 = RunSummary::new("x", 2, "d2", 0);
        b2.histograms.insert(
            "h".into(),
            crate::registry::HistogramSnapshot {
                bounds: vec![2],
                counts: vec![0, 1],
                total: 1,
                sum: 3,
            },
        );
        let agg = aggregate_summaries("x/pooled", &[a, b2, c]);
        assert!(!agg.histograms.contains_key("h"));
        assert!(aggregate_summaries("e", &[]).config_digest.is_empty());
    }

    #[test]
    fn summary_json_is_deterministic_and_ordered() {
        let reg = Registry::new();
        reg.counter("z.second").add(2);
        reg.counter("a.first").add(1);
        reg.histogram("h.dev", &[1, 4]).record(3);
        let summary =
            RunSummary::new("fig4", 7, fnv1a_hex(b"cfg"), 2_000_000).with_metrics(reg.snapshot());
        let json = summary.to_json();
        assert_eq!(json, summary.to_json());
        let a = json.find("a.first").expect("a.first present");
        let z = json.find("z.second").expect("z.second present");
        assert!(a < z, "counters must serialise in name order");
        assert!(json.contains("\"seed\":7"));
        assert!(json.contains("\"elapsed_us\":2000000"));
        assert!(json.contains("\"bounds\":[1,4]"));
    }
}
