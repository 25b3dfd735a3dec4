//! Determinism regression: the same seeded scenario, run twice, must
//! produce byte-identical event traces and identical reports.
//!
//! This is the runtime complement to the static rules `airguard-lint`
//! enforces (no wall clocks, no ambient RNG, no hash-ordered iteration
//! in simulation crates): if any nondeterminism slips past the lexical
//! rules — an unseeded source, an order-sensitive container behind a
//! type alias — the trace digests diverge here.

use airguard_net::{
    BurstLoss, ClockDrift, Corruption, CrashEvent, FaultPlan, Protocol, ScenarioConfig,
    StandardScenario,
};
use airguard_obs::{record_to_json, Record};
use airguard_sim::SimDuration;

/// FNV-1a over every record's JSONL line: time, node, category, kind
/// and every field, exchange ids included. A local copy, so a change to
/// the shared hash cannot mask a change to the stream.
fn digest(records: &[Record]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for record in records {
        for &b in record_to_json(record).as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig::new(StandardScenario::TwoFlow)
        .protocol(Protocol::Correct)
        .n_senders(4)
        .misbehavior_percent(50.0)
        .sim_time_secs(2)
        .seed(seed)
}

#[test]
fn same_seed_replays_to_identical_trace_digest() {
    let cfg = scenario(42);
    let (r1, s1) = cfg.run_observed();
    let (r2, s2) = cfg.run_observed();
    let (t1, t2) = (s1.records(), s2.records());

    assert!(!t1.is_empty(), "traced run recorded no events");
    assert_eq!(t1.len(), t2.len(), "trace lengths diverged");
    assert_eq!(digest(&t1), digest(&t2), "trace digests diverged");

    assert_eq!(r1.events, r2.events);
    assert_eq!(r1.throughput.total_bytes(), r2.throughput.total_bytes());
    assert_eq!(r1.tally, r2.tally);
    assert_eq!(r1.counters, r2.counters);
}

#[test]
fn same_seed_replays_to_byte_identical_run_report() {
    // The exported run summary — config digest, counters, histograms —
    // must serialize byte-for-byte identically across replays; this is
    // what makes the JSONL reports diffable between CI runs.
    let cfg = scenario(42);
    let j1 = cfg.run().summary.to_json();
    let j2 = cfg.run().summary.to_json();
    assert_eq!(j1, j2, "run-report snapshots diverged");
    assert!(
        j1.contains("\"counters\":{") && j1.contains("mac.rts_sent"),
        "summary must embed the counter snapshot: {j1}"
    );
}

#[test]
fn every_fault_injector_combination_replays_byte_identically() {
    // The fault layer draws from its own "fault.*" seed streams, so each
    // injector — alone or composed — must leave the run as replayable as
    // the unfaulted baseline: same seed + same plan => byte-identical
    // summary JSON. A zero-intensity plan must normalize away entirely
    // and reproduce the baseline bytes (DESIGN.md §12's zero-cost rule).
    let burst = BurstLoss {
        p_enter: 0.02,
        p_exit: 0.25,
        loss_good: 0.01,
        loss_bad: 0.3,
    };
    let churn = CrashEvent {
        node: 1,
        at: SimDuration::from_millis(500),
        down_for: SimDuration::from_millis(200),
        preserve_monitor: false,
    };
    let corruption = Corruption {
        backoff_prob: 0.02,
        backoff_max_delta: 8,
        attempt_prob: 0.02,
        attempt_max_delta: 2,
    };
    let drift = ClockDrift {
        per_mille: 10,
        nodes: Vec::new(),
    };
    let combos: [(&str, FaultPlan); 5] = [
        (
            "burst-loss only",
            FaultPlan {
                burst_loss: Some(burst),
                ..FaultPlan::default()
            },
        ),
        (
            "churn only",
            FaultPlan {
                churn: vec![churn],
                ..FaultPlan::default()
            },
        ),
        (
            "corruption only",
            FaultPlan {
                corruption: Some(corruption),
                ..FaultPlan::default()
            },
        ),
        (
            "drift only",
            FaultPlan {
                clock_drift: Some(drift.clone()),
                ..FaultPlan::default()
            },
        ),
        (
            "all injectors",
            FaultPlan {
                burst_loss: Some(burst),
                churn: vec![churn],
                corruption: Some(corruption),
                clock_drift: Some(drift),
            },
        ),
    ];

    let baseline = scenario(42).run().summary.to_json();
    for (name, plan) in combos {
        let cfg = scenario(42).fault(plan).expect("valid plan");
        let j1 = cfg.run().summary.to_json();
        let j2 = cfg.run().summary.to_json();
        assert_eq!(j1, j2, "{name}: faulted replay diverged");
        assert_ne!(
            j1, baseline,
            "{name}: injector left no trace on the run at all"
        );
    }

    // A complete but all-zero plan is indistinguishable from no plan.
    let inert = FaultPlan {
        burst_loss: Some(BurstLoss {
            p_enter: 0.0,
            p_exit: 0.25,
            loss_good: 0.0,
            loss_bad: 0.0,
        }),
        churn: Vec::new(),
        corruption: Some(Corruption {
            backoff_prob: 0.0,
            backoff_max_delta: 8,
            attempt_prob: 0.0,
            attempt_max_delta: 2,
        }),
        clock_drift: Some(ClockDrift {
            per_mille: 0,
            nodes: Vec::new(),
        }),
    };
    let zero = scenario(42).fault(inert).expect("inert plan is valid");
    assert_eq!(
        zero.run().summary.to_json(),
        baseline,
        "zero-intensity plan must be byte-identical to the unfaulted baseline"
    );
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the digest actually discriminates: two seeds
    // giving identical traces would mean the seed is ignored.
    let (_, s1) = scenario(1).run_observed();
    let (_, s2) = scenario(2).run_observed();
    assert_ne!(
        digest(&s1.records()),
        digest(&s2.records()),
        "seed does not influence the run"
    );
}
