//! The simulation runner: the event loop that connects MACs, the medium,
//! reception trackers, traffic, and metrics.
//!
//! The runner owns one [`Scheduler`] and dispatches five event kinds:
//!
//! * `Traffic` — a CBR generator enqueues a packet and re-arms itself;
//! * `MacTimer` — a timer the MAC armed fires;
//! * `TxEnd` — a node's own transmission leaves the air;
//! * `RxStart` / `RxEnd` — a transmission's leading/trailing edge reaches
//!   a listener, as sampled by the [`Medium`].
//!
//! MAC effects are applied inline: `StartTx` samples listener outcomes
//! from the medium and schedules their arrival events; timer effects
//! update the per-node timer table; delivery/classification effects feed
//! the metric accumulators. Inputs generated while applying effects (e.g.
//! the busy edge caused by a node's own transmission) are queued and
//! processed before the next scheduler pop, so the system is always
//! consistent at each instant.

use std::collections::VecDeque;

use airguard_core::monitor::MonitorReport;
use airguard_core::PairStats;
use airguard_fault::FaultPlan;
use airguard_mac::dcf::MacCounters;
use airguard_mac::{ClockDriftState, FrameRef, Mac, MacConfig, MacEffect, MacInput, TimerKind};
use airguard_metrics::{jain_index, DelayAccount, DiagnosisTally, ThroughputAccount, TimeBinned};
use airguard_obs::{
    fnv1a_hex, Category, Counter, EventSink, Histogram, ObsEvent, Phase, PhaseProfiler, Registry,
    RunSummary, SpanSet,
};
use airguard_phy::reception::DecodeOutcome;
use airguard_phy::{Dbm, Fading, ListenerOutcome, Medium, PhyConfig, RxTracker, TransmissionId};
use airguard_sim::trace::emit;
use airguard_sim::{EventId, MasterSeed, NodeId, Scheduler, SimDuration, SimTime};

use crate::faults::FaultRuntime;
use crate::node_policy::NodePolicy;
use crate::topology::Topology;
use crate::traffic::CbrState;

/// Global knobs of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Radio configuration.
    pub phy: PhyConfig,
    /// MAC configuration shared by all nodes.
    pub mac: MacConfig,
    /// Simulated time to run.
    pub horizon: SimDuration,
    /// Bin width of the diagnosis time series (Fig. 8 uses 1 s).
    pub diag_bin: SimDuration,
    /// Temporal behaviour of the shadowing deviate (the paper redraws
    /// per transmission).
    pub fading: Fading,
    /// Master seed for all randomness in the run.
    // lint:allow(digest-completeness) — the seed is the cache key's second component, deliberately excluded from the identity
    pub seed: MasterSeed,
    /// Deterministic fault-injection plan, if any. `None` (the default)
    /// leaves every fault hook inert and keeps the config digest — and
    /// therefore every cached artifact — byte-identical to builds that
    /// predate fault injection.
    pub fault: Option<FaultPlan>,
    /// Use the spatial medium (position-keyed pair sampling over a tile
    /// index) instead of the legacy dense medium. Spatial sampling draws
    /// different random streams, so the flag enters the identity — but
    /// only when set, keeping every pre-existing digest byte-identical.
    pub spatial: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            phy: PhyConfig::paper_default(),
            mac: MacConfig::default(),
            horizon: SimDuration::from_secs(50),
            diag_bin: SimDuration::from_secs(1),
            fading: Fading::PerTransmission,
            seed: MasterSeed::new(1),
            fault: None,
            spatial: false,
        }
    }
}

impl SimulationConfig {
    /// The canonical, *seed-independent* identity of this
    /// configuration: every field that shapes the run, enumerated
    /// explicitly so the digest-completeness lint can verify that no
    /// field is silently dropped. The seed is deliberately absent —
    /// it is the cache key's second component, never part of the
    /// identity (see `ScenarioConfig::identity`, which embeds this
    /// string so the two digest paths can never diverge).
    #[must_use]
    pub fn identity(&self) -> String {
        let mut id = format!(
            "phy={:?}|mac={:?}|horizon={:?}|diag_bin={:?}|fading={:?}|fault={:?}",
            self.phy, self.mac, self.horizon, self.diag_bin, self.fading, self.fault
        );
        // Appended only when set so legacy digests stay byte-identical
        // (same pattern as `ScenarioConfig::identity`'s observe_mask).
        if self.spatial {
            id.push_str("|spatial=true");
        }
        id
    }

    /// FNV-1a digest of [`Self::identity`]: the fingerprint stamped
    /// into every [`RunSummary`], shared by same-config runs
    /// regardless of seed.
    #[must_use]
    pub fn config_digest(&self) -> String {
        fnv1a_hex(self.identity().as_bytes())
    }
}

/// Execution limits for [`Simulation::run_budgeted`].
///
/// An unlimited budget (the default) reproduces [`Simulation::run`]
/// exactly. A bounded budget turns a runaway run into an `Err` instead
/// of a hang: `max_events` caps the virtual event count, and
/// `deadline_exceeded` is an external probe — typically a wall-clock
/// check installed by the experiment engine — polled every 1024 events.
/// The probe is shared (`Arc`) so one budget can be cloned across the
/// shard workers of a single run.
#[derive(Default, Clone)]
pub struct RunBudget {
    /// Maximum scheduler events to process before the watchdog trips.
    pub max_events: Option<u64>,
    /// External deadline probe; returning `true` trips the watchdog.
    pub deadline_exceeded: Option<std::sync::Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl RunBudget {
    /// A budget that never trips.
    #[must_use]
    pub fn unlimited() -> Self {
        RunBudget::default()
    }
}

impl std::fmt::Debug for RunBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunBudget")
            .field("max_events", &self.max_events)
            .field("deadline_exceeded", &self.deadline_exceeded.is_some())
            .finish()
    }
}

#[derive(Debug)]
enum Event {
    Traffic {
        flow: usize,
    },
    MacTimer {
        node: usize,
        kind: TimerKind,
    },
    TxEnd {
        node: usize,
    },
    RxStart {
        listener: usize,
        tx: TransmissionId,
        power: Dbm,
        receivable: bool,
    },
    RxEnd {
        listener: usize,
        tx: TransmissionId,
        /// Shared handle: every listener's arrival event points at the
        /// same allocation as the transmitter's `on_air` slot.
        frame: FrameRef,
    },
    /// Injected fault: the node's MAC dies. Physics (frames already on
    /// the air) continue; protocol state freezes until the restart.
    NodeCrash {
        node: usize,
        preserve_monitor: bool,
    },
    /// Injected fault: the node's MAC reboots after a crash window.
    NodeRestart {
        node: usize,
    },
}

struct SimNode {
    mac: Mac<NodePolicy>,
    tracker: RxTracker,
    /// Pending timer event per [`TimerKind`], densely indexed by
    /// [`TimerKind::index`]. A flat array: timer churn is the runner's
    /// most frequent map operation.
    timers: [Option<EventId>; TimerKind::COUNT],
}

/// Identity mapping of a sharded sub-simulation back to the full run:
/// `node_ids[local]` is the local node's global id, `flow_ids[local]`
/// the local flow's global index. Both drive seed-stream derivation and
/// report labeling, so a component simulated alone produces exactly the
/// node ids, traffic jitter, and MAC streams it would inside the
/// monolithic spatial run.
#[derive(Debug, Clone)]
pub(crate) struct ShardScope {
    pub(crate) node_ids: Vec<u32>,
    pub(crate) flow_ids: Vec<usize>,
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated time covered.
    pub elapsed: SimDuration,
    /// Per-flow delivery accounting.
    pub throughput: ThroughputAccount,
    /// Per-packet diagnosis outcomes vs ground truth.
    pub tally: DiagnosisTally,
    /// Diagnosis outcomes of misbehaving senders over time (Fig. 8).
    pub series: TimeBinned,
    /// Per-sender MAC delay (enqueue to ACK) of acknowledged packets.
    pub delays: DelayAccount,
    /// Senders of measured flows.
    pub measured_senders: Vec<NodeId>,
    /// Measured (src, dst) flow pairs.
    pub measured_flows: Vec<(NodeId, NodeId)>,
    /// Ground-truth misbehaving nodes.
    pub misbehaving: Vec<NodeId>,
    /// Per-node MAC counters (indexed by node id).
    pub counters: Vec<MacCounters>,
    /// Monitor reports of modified-protocol nodes.
    pub monitors: Vec<(NodeId, MonitorReport)>,
    /// Per-node receiver-assignment violations detected by the §4.4
    /// `g` check (modified-protocol nodes with verification enabled).
    pub receiver_violations: Vec<(NodeId, u64)>,
    /// Third-party observation reports (nodes with the observer
    /// extension enabled).
    pub observers: Vec<(NodeId, Vec<PairStats>)>,
    /// Total scheduler events processed.
    pub events: u64,
    /// Deterministic telemetry summary (config digest, seed, virtual
    /// time, counter and histogram snapshot); `summary.to_json()` is
    /// the exportable per-run report line.
    pub summary: RunSummary,
}

impl RunReport {
    /// The diagnosis tally (correct-diagnosis % and misdiagnosis %).
    #[must_use]
    pub fn diagnosis(&self) -> &DiagnosisTally {
        &self.tally
    }

    /// Mean throughput of misbehaving measured senders, bit/s ("MSB").
    #[must_use]
    pub fn msb_throughput_bps(&self) -> f64 {
        let msb: Vec<NodeId> = self
            .measured_senders
            .iter()
            .copied()
            .filter(|s| self.misbehaving.contains(s))
            .collect();
        self.throughput
            .mean_sender_throughput_bps(&msb, self.elapsed)
    }

    /// Mean throughput of well-behaved measured senders, bit/s ("AVG").
    #[must_use]
    pub fn avg_throughput_bps(&self) -> f64 {
        let wb: Vec<NodeId> = self
            .measured_senders
            .iter()
            .copied()
            .filter(|s| !self.misbehaving.contains(s))
            .collect();
        self.throughput
            .mean_sender_throughput_bps(&wb, self.elapsed)
    }

    /// Mean MAC delay (ms) of misbehaving measured senders.
    #[must_use]
    pub fn msb_delay_ms(&self) -> f64 {
        let msb: Vec<NodeId> = self
            .measured_senders
            .iter()
            .copied()
            .filter(|s| self.misbehaving.contains(s))
            .collect();
        self.delays.mean_ms_over(&msb)
    }

    /// Mean MAC delay (ms) of well-behaved measured senders.
    #[must_use]
    pub fn avg_delay_ms(&self) -> f64 {
        let wb: Vec<NodeId> = self
            .measured_senders
            .iter()
            .copied()
            .filter(|s| !self.misbehaving.contains(s))
            .collect();
        self.delays.mean_ms_over(&wb)
    }

    /// Jain's fairness index over the measured flows.
    #[must_use]
    pub fn fairness_index(&self) -> f64 {
        let t = self
            .throughput
            .flow_throughputs_bps(&self.measured_flows, self.elapsed);
        jain_index(&t)
    }
}

/// One wired-up simulation, ready to run.
pub struct Simulation {
    cfg: SimulationConfig,
    sched: Scheduler<Event>,
    medium: Medium,
    nodes: Vec<SimNode>,
    cbr: Vec<CbrState>,
    misbehaving: Vec<NodeId>,
    measured_senders: Vec<NodeId>,
    measured_flows: Vec<(NodeId, NodeId)>,
    throughput: ThroughputAccount,
    tally: DiagnosisTally,
    series: TimeBinned,
    delays: DelayAccount,
    sink: EventSink,
    registry: Registry,
    deviation_hist: Histogram,
    diagnosis_flags: Counter,
    pending: VecDeque<(usize, MacInput)>,
    /// Reused MAC-effect buffer (see [`Mac::handle_into`]).
    fx_scratch: Vec<MacEffect>,
    /// Reused listener-outcome buffer (see [`Medium::sample_tx`]).
    listeners_scratch: Vec<ListenerOutcome>,
    /// Mutable fault-injection state (inert when no plan is set).
    faults: FaultRuntime,
    /// Hot-loop phase timers; disabled by default (one relaxed load
    /// per scope, see [`PhaseProfiler`]).
    profiler: PhaseProfiler,
    /// Global node id per local index (identity for unscoped runs).
    node_ids: Vec<u32>,
    /// Local index of each flow's source node.
    cbr_src_local: Vec<usize>,
}

impl Simulation {
    /// Wires up a simulation over `topology` (taken by value — the
    /// runner owns the positions), with `policies[i]` the policy of node
    /// `i` and `misbehaving` the ground-truth cheater set.
    ///
    /// # Panics
    ///
    /// Panics if `policies` does not have one entry per topology node.
    #[must_use]
    pub fn new(
        cfg: SimulationConfig,
        topology: Topology,
        policies: Vec<NodePolicy>,
        misbehaving: Vec<NodeId>,
    ) -> Self {
        Simulation::new_scoped(cfg, topology, policies, misbehaving, None)
    }

    /// Like [`Simulation::new`], but over one component of a sharded
    /// run: `scope` maps local node/flow indices back to their global
    /// identities so seed streams, reports, and traces are those of the
    /// monolithic run restricted to this component.
    pub(crate) fn new_scoped(
        cfg: SimulationConfig,
        topology: Topology,
        policies: Vec<NodePolicy>,
        misbehaving: Vec<NodeId>,
        scope: Option<ShardScope>,
    ) -> Self {
        assert_eq!(
            policies.len(),
            topology.node_count(),
            "one policy per node required"
        );
        let (node_ids, flow_ids) = match scope {
            Some(s) => (s.node_ids, s.flow_ids),
            None => (
                (0..topology.node_count() as u32).collect(),
                (0..topology.flows.len()).collect(),
            ),
        };
        assert_eq!(node_ids.len(), topology.node_count(), "one id per node");
        assert_eq!(flow_ids.len(), topology.flows.len(), "one id per flow");
        let local_of: std::collections::BTreeMap<u32, usize> = node_ids
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, local))
            .collect();
        let cbr_src_local: Vec<usize> = topology
            .flows
            .iter()
            .map(|f| local_of[&f.src.value()])
            .collect();
        let measured_senders = topology.measured_senders();
        let measured_flows = topology.measured_flow_pairs();
        let mut medium = if cfg.spatial {
            Medium::new_spatial(
                cfg.phy,
                topology.positions,
                node_ids.clone(),
                cfg.seed,
                true,
            )
        } else {
            Medium::new(cfg.phy, topology.positions, cfg.seed.stream("phy", 0))
        };
        medium.set_fading(cfg.fading);
        let mut nodes: Vec<SimNode> = policies
            .into_iter()
            .enumerate()
            .map(|(i, policy)| SimNode {
                mac: Mac::new(
                    NodeId::new(node_ids[i]),
                    cfg.mac.clone(),
                    policy,
                    cfg.seed.stream("mac", u64::from(node_ids[i])),
                ),
                tracker: RxTracker::new(cfg.phy.capture),
                timers: [None; TimerKind::COUNT],
            })
            .collect();
        let mut sched = Scheduler::new();
        let cbr: Vec<CbrState> = topology
            .flows
            .iter()
            .zip(&flow_ids)
            .map(|(&flow, &gid)| CbrState::new(flow, gid, cfg.seed))
            .collect();
        for (i, state) in cbr.iter().enumerate() {
            sched.schedule_at(SimTime::ZERO + state.start, Event::Traffic { flow: i });
        }
        let faults = FaultRuntime::new(cfg.fault.as_ref(), nodes.len(), cfg.seed);
        if let Some(plan) = &cfg.fault {
            if let Some(burst) = plan.burst_loss {
                medium.set_burst_loss(burst, cfg.seed);
            }
            if let Some(drift) = &plan.clock_drift {
                let state = ClockDriftState::new(drift.per_mille);
                if drift.nodes.is_empty() {
                    for node in &mut nodes {
                        node.mac.set_clock_drift(state);
                    }
                } else {
                    for &node in &drift.nodes {
                        if let Some(n) = nodes.get_mut(node as usize) {
                            n.mac.set_clock_drift(state);
                        }
                    }
                }
            }
            for crash in &plan.churn {
                let node = crash.node as usize;
                sched.schedule_at(
                    SimTime::ZERO + crash.at,
                    Event::NodeCrash {
                        node,
                        preserve_monitor: crash.preserve_monitor,
                    },
                );
                sched.schedule_at(
                    SimTime::ZERO + crash.at + crash.down_for,
                    Event::NodeRestart { node },
                );
            }
        }
        // For sub-second horizons the series degenerates to a single bin.
        let series = TimeBinned::new(cfg.diag_bin.min(cfg.horizon), cfg.horizon);
        let registry = Registry::new();
        // Deviation buckets in slots: 0 is the well-behaved bucket, the
        // ladder covers the paper's penalty range, overflow is extreme
        // cheating.
        let deviation_hist = registry.histogram(
            "obs.backoff_deviation_slots",
            &[0, 1, 2, 4, 8, 16, 32, 64, 128],
        );
        // Looked up once: Registry::counter allocates its key on every
        // call, and this one fires per classification on the hot path.
        let diagnosis_flags = registry.counter("mac.diagnosis_flags");
        Simulation {
            medium,
            nodes,
            sched,
            cbr,
            tally: DiagnosisTally::new(misbehaving.iter().copied()),
            misbehaving,
            measured_senders,
            measured_flows,
            throughput: ThroughputAccount::new(),
            series,
            delays: DelayAccount::new(),
            sink: EventSink::new(),
            registry,
            deviation_hist,
            diagnosis_flags,
            pending: VecDeque::new(), // lint:allow(bounded-channel) — drained every tick; holds at most one MacInput per node
            fx_scratch: Vec::new(),
            listeners_scratch: Vec::new(),
            faults,
            profiler: PhaseProfiler::new(),
            node_ids,
            cbr_src_local,
            cfg,
        }
    }

    /// Attaches a trace sink to the runner and every node (MAC and
    /// reception tracker alike, so PHY collision/decode events land in
    /// the same stream).
    pub fn set_trace(&mut self, sink: EventSink) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.mac.set_trace(sink.clone());
            node.tracker
                .set_trace(sink.clone(), NodeId::new(self.node_ids[i]));
        }
        self.sink = sink;
    }

    /// The run's metrics registry. Callers may register additional
    /// counters before `run`; everything lands in the report summary.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Attaches a phase profiler. Clones share accumulators, so the
    /// caller keeps a handle and reads totals after the run; wall time
    /// stays out of every deterministic export (DESIGN.md §9).
    pub fn set_profiler(&mut self, profiler: PhaseProfiler) {
        self.profiler = profiler;
    }

    /// The runner's phase profiler (disabled unless a caller enabled
    /// it or installed one via [`Simulation::set_profiler`]).
    #[must_use]
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Runs to the configured horizon and reports.
    #[must_use]
    pub fn run(self) -> RunReport {
        match self.run_budgeted(&RunBudget::unlimited()) {
            Ok(report) => report,
            // lint:allow(panic-macro) — an unlimited budget has no trip condition, so this arm cannot run
            Err(watchdog) => unreachable!("{watchdog}"),
        }
    }

    /// Runs to the configured horizon unless `budget` trips first.
    ///
    /// On a trip the partially-executed run is abandoned and an error
    /// describing the watchdog condition (events processed, virtual
    /// time reached) is returned — callers must not cache or report a
    /// tripped run as a result.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the event budget is exhausted or the deadline
    /// probe fires.
    pub fn run_budgeted(mut self, budget: &RunBudget) -> Result<RunReport, String> {
        let horizon = SimTime::ZERO + self.cfg.horizon;
        let mut processed: u64 = 0;
        // Detached handle: the guard must not borrow `self` across the
        // `&mut self` dispatch calls below.
        let profiler = self.profiler.clone();
        loop {
            let popped = {
                let _pop = profiler.scope(Phase::SchedulerPop);
                match self.sched.peek_time() {
                    Some(t) if t <= horizon => self.sched.pop(),
                    _ => None,
                }
            };
            let Some((now, event)) = popped else { break };
            self.dispatch(now, event);
            self.drain_pending(now);
            processed += 1;
            if let Some(max) = budget.max_events {
                if processed >= max {
                    return Err(format!(
                        "watchdog: virtual event budget exhausted after {processed} events \
                         (sim time {now}, horizon {horizon})"
                    ));
                }
            }
            if processed.is_multiple_of(1024) {
                if let Some(probe) = &budget.deadline_exceeded {
                    if probe() {
                        return Err(format!(
                            "watchdog: wall-clock deadline exceeded after {processed} events \
                             (sim time {now}, horizon {horizon})"
                        ));
                    }
                }
            }
        }
        let events = self.sched.events_processed();
        let counters: Vec<MacCounters> = self.nodes.iter().map(|n| n.mac.counters()).collect();
        self.registry.counter("sim.events_dispatched").add(events);
        let mac_totals = counters.iter().fold(MacCounters::default(), |mut acc, c| {
            acc.rts_sent += c.rts_sent;
            acc.cts_timeouts += c.cts_timeouts;
            acc.ack_timeouts += c.ack_timeouts;
            acc.retry_drops += c.retry_drops;
            acc.queue_drops += c.queue_drops;
            acc.duplicates += c.duplicates;
            acc
        });
        self.registry
            .counter("mac.rts_sent")
            .add(mac_totals.rts_sent);
        self.registry
            .counter("mac.retries")
            .add(mac_totals.cts_timeouts + mac_totals.ack_timeouts);
        self.registry
            .counter("mac.retry_drops")
            .add(mac_totals.retry_drops);
        self.registry
            .counter("mac.duplicates")
            .add(mac_totals.duplicates);
        // With a sink carrying both the handshake and the monitor
        // streams, fold the records into per-station spans and record
        // onset→penalty/diagnosis latencies. Virtual-time only, so the
        // histograms are as deterministic as every other metric; runs
        // without an enabled sink skip this and keep the exact summary
        // shape they had before causal tracing existed.
        let sink = &self.sink;
        if sink.wants(Category::MacTx) && sink.wants(Category::Monitor) {
            // Histograms are named after the deviation detector the
            // monitors ran, so detector sweeps keep their reaction-time
            // distributions apart (the window detector keeps the
            // original unqualified names).
            let detector = self
                .nodes
                .iter()
                .find_map(|n| n.mac.policy().detector_kind())
                .unwrap_or("window");
            SpanSet::from_records(&sink.records())
                .record_detection_latencies_for(&self.registry, detector);
        }
        let summary = RunSummary::new(
            "sim",
            self.cfg.seed.value(),
            self.cfg.config_digest(),
            self.cfg.horizon.as_micros(),
        )
        .with_metrics(self.registry.snapshot());
        Ok(RunReport {
            elapsed: self.cfg.horizon,
            throughput: self.throughput,
            tally: self.tally,
            series: self.series,
            delays: self.delays,
            measured_senders: self.measured_senders,
            measured_flows: self.measured_flows,
            misbehaving: self.misbehaving,
            counters,
            monitors: self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, n)| {
                    n.mac
                        .policy()
                        .monitor_report()
                        .map(|r| (NodeId::new(self.node_ids[i]), r))
                })
                .collect(),
            receiver_violations: self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, n)| {
                    n.mac
                        .policy()
                        .receiver_violations()
                        .map(|v| (NodeId::new(self.node_ids[i]), v))
                })
                .collect(),
            observers: self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, n)| {
                    n.mac
                        .policy()
                        .observer_report()
                        .map(|r| (NodeId::new(self.node_ids[i]), r))
                })
                .collect(),
            events,
            summary,
        })
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Traffic { flow } => {
                let state = self.cbr[flow];
                // Flow endpoints are global ids; the pending queue wants
                // the local node index. Destinations stay global — the
                // MAC frames carry them verbatim.
                self.pending.push_back((
                    self.cbr_src_local[flow],
                    MacInput::Enqueue {
                        dst: state.flow.dst,
                        bytes: state.flow.payload,
                    },
                ));
                self.sched
                    .schedule_in(state.interval, Event::Traffic { flow });
            }
            Event::MacTimer { node, kind } => {
                self.nodes[node].timers[kind.index()] = None;
                self.pending.push_back((node, MacInput::Timer(kind)));
            }
            Event::TxEnd { node } => {
                // Deliver the protocol event before the channel edge so
                // e.g. the ACK-end monitor snapshot is taken while the
                // counter still shows the banked (pre-idle) reading.
                self.pending.push_back((node, MacInput::OwnTxEnd));
                if self.nodes[node].tracker.on_self_tx_end(now).is_some() {
                    self.pending.push_back((node, MacInput::ChannelIdle));
                }
            }
            Event::RxStart {
                listener,
                tx,
                power,
                receivable,
            } => {
                if self.nodes[listener]
                    .tracker
                    .on_arrival(now, tx, power, receivable)
                    .is_some()
                {
                    self.pending.push_back((listener, MacInput::ChannelBusy));
                }
            }
            Event::RxEnd {
                listener,
                tx,
                frame,
            } => {
                let (edge, decode) = self.nodes[listener].tracker.on_departure(now, tx);
                if decode == Some(DecodeOutcome::Decoded) {
                    self.pending.push_back((listener, MacInput::Decoded(frame)));
                }
                if edge.is_some() {
                    self.pending.push_back((listener, MacInput::ChannelIdle));
                }
            }
            Event::NodeCrash {
                node,
                preserve_monitor,
            } => {
                if self.faults.on_crash(node, preserve_monitor, now) {
                    // Disarm every pending MAC timer; frames already on
                    // the air keep propagating (the reception tracker
                    // stays live), but no protocol input reaches the
                    // dead MAC until the restart resets it.
                    for slot in &mut self.nodes[node].timers {
                        if let Some(id) = slot.take() {
                            self.sched.cancel(id);
                        }
                    }
                    emit(
                        &self.sink,
                        now,
                        NodeId::new(self.node_ids[node]),
                        ObsEvent::FaultNodeDown {
                            cold: !preserve_monitor,
                        },
                    );
                }
            }
            Event::NodeRestart { node } => {
                if let Some((downtime, preserve)) = self.faults.on_restart(node, now) {
                    self.nodes[node].mac.crash_reset(now);
                    self.nodes[node].mac.policy_mut().fault_reset(preserve);
                    // The reset assumes an idle channel; if a carrier is
                    // on the air right now, replay the busy edge.
                    if self.nodes[node].tracker.is_busy() {
                        self.pending.push_back((node, MacInput::ChannelBusy));
                    }
                    emit(
                        &self.sink,
                        now,
                        NodeId::new(self.node_ids[node]),
                        ObsEvent::FaultNodeUp {
                            downtime_us: downtime.as_micros(),
                        },
                    );
                }
            }
        }
    }

    fn drain_pending(&mut self, now: SimTime) {
        // The effect buffer is detached from `self` while effects are
        // applied (apply() may push new pending inputs) and re-attached
        // after, so its capacity is reused across the whole run.
        let mut fx = std::mem::take(&mut self.fx_scratch);
        while let Some((node, input)) = self.pending.pop_front() {
            // A crashed node's MAC is gated off: traffic enqueues,
            // channel edges, and decoded frames all evaporate until the
            // restart. Flow generators keep re-arming, so traffic
            // resumes by itself once the node is back.
            if self.faults.is_down(node) {
                continue;
            }
            fx.clear();
            {
                let _mac = self.profiler.scope(Phase::MacStep);
                self.nodes[node].mac.handle_into(now, input, &mut fx);
            }
            for effect in fx.drain(..) {
                self.apply(now, node, effect);
            }
        }
        self.fx_scratch = fx;
    }

    fn apply(&mut self, now: SimTime, node: usize, effect: MacEffect) {
        match effect {
            MacEffect::StartTx(frame) => {
                let _prop = self.profiler.scope(Phase::MediumPropagation);
                let air = frame.air_time(&self.cfg.mac.timing);
                let mut listeners = std::mem::take(&mut self.listeners_scratch);
                let tx = self
                    .medium
                    .sample_tx(NodeId::new(node as u32), &mut listeners);
                if self.nodes[node].tracker.on_self_tx_start(now).is_some() {
                    self.pending.push_back((node, MacInput::ChannelBusy));
                }
                self.sched.schedule_at(now + air, Event::TxEnd { node });
                for l in &listeners {
                    self.sched.schedule_at(
                        now + l.delay,
                        Event::RxStart {
                            listener: l.listener.index(),
                            tx,
                            power: l.power,
                            receivable: l.receivable,
                        },
                    );
                    // The medium reports listeners by local index;
                    // traces label them with their global identity.
                    let listener_gid = NodeId::new(self.node_ids[l.listener.index()]);
                    if l.fault_lost {
                        emit(
                            &self.sink,
                            now,
                            listener_gid,
                            ObsEvent::FaultFrameLost {
                                listener: listener_gid.value(),
                                tx: tx.value(),
                            },
                        );
                    }
                    // Corruption only matters where the frame will be
                    // decoded; non-receivable copies are noise either way.
                    let delivered = if l.receivable {
                        match self.faults.corrupt(&frame) {
                            Some((mutated, outcome)) => {
                                emit(
                                    &self.sink,
                                    now,
                                    listener_gid,
                                    outcome.event(listener_gid.value()),
                                );
                                FrameRef::new(mutated)
                            }
                            None => frame.share(),
                        }
                    } else {
                        frame.share()
                    };
                    self.sched.schedule_at(
                        now + l.delay + air,
                        Event::RxEnd {
                            listener: l.listener.index(),
                            tx,
                            frame: delivered,
                        },
                    );
                }
                self.listeners_scratch = listeners;
            }
            MacEffect::SetTimer { kind, after } => {
                let id = self
                    .sched
                    .schedule_at(now + after, Event::MacTimer { node, kind });
                if let Some(old) = self.nodes[node].timers[kind.index()].replace(id) {
                    self.sched.cancel(old);
                }
            }
            MacEffect::CancelTimer(kind) => {
                if let Some(id) = self.nodes[node].timers[kind.index()].take() {
                    self.sched.cancel(id);
                }
            }
            MacEffect::Delivered { src, bytes, .. } => {
                self.throughput
                    .record(src, NodeId::new(self.node_ids[node]), bytes);
            }
            MacEffect::Classified { src, verdict } => {
                let _mon = self.profiler.scope(Phase::MonitorStep);
                // Deviation is a non-negative slot count; quantise to the
                // histogram's integer buckets.
                self.deviation_hist
                    .record(verdict.deviation_slots.max(0.0).round() as u64);
                if verdict.flagged {
                    self.diagnosis_flags.inc();
                }
                self.tally.record(src, verdict.flagged);
                if self.tally.is_misbehaving(src) {
                    self.series.record(now, verdict.flagged);
                }
            }
            MacEffect::SendComplete { delay, .. } => {
                self.delays.record(NodeId::new(self.node_ids[node]), delay);
            }
            MacEffect::Dropped { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Flow;
    use airguard_mac::Selfish;

    fn single_sender_topology() -> Topology {
        Topology {
            positions: vec![
                airguard_phy::Position::new(0.0, 0.0),
                airguard_phy::Position::new(150.0, 0.0),
            ],
            flows: vec![Flow {
                src: NodeId::new(1),
                dst: NodeId::new(0),
                rate_bps: 2_000_000,
                payload: 512,
                measured: true,
            }],
        }
    }

    fn quick_cfg(seed: u64, secs: u64) -> SimulationConfig {
        SimulationConfig {
            phy: PhyConfig::deterministic(),
            horizon: SimDuration::from_secs(secs),
            seed: MasterSeed::new(seed),
            ..SimulationConfig::default()
        }
    }

    fn dot11_policies(n: usize) -> Vec<NodePolicy> {
        (0..n).map(|_| NodePolicy::dot11(Selfish::None)).collect()
    }

    #[test]
    fn single_sender_saturates_the_channel() {
        let topo = single_sender_topology();
        let sim = Simulation::new(quick_cfg(1, 5), topo, dot11_policies(2), vec![]);
        let report = sim.run();
        let bps = report
            .throughput
            .sender_throughput_bps(NodeId::new(1), report.elapsed);
        // Analytic saturation throughput of one RTS/CTS sender at 2 Mb/s:
        // DIFS + E[backoff]·slot + RTS + SIFS + CTS + SIFS + DATA + SIFS
        // + ACK ≈ 3510 µs per 512-byte packet ⇒ ≈ 1.17 Mb/s.
        assert!(
            (1.0e6..1.3e6).contains(&bps),
            "single-sender throughput {bps} b/s out of expected band"
        );
    }

    #[test]
    fn two_senders_share_roughly_equally() {
        let topo = Topology::star(2, 2_000_000, 512, false);
        let sim = Simulation::new(quick_cfg(2, 5), topo, dot11_policies(3), vec![]);
        let report = sim.run();
        let t1 = report
            .throughput
            .sender_throughput_bps(NodeId::new(1), report.elapsed);
        let t2 = report
            .throughput
            .sender_throughput_bps(NodeId::new(2), report.elapsed);
        assert!(t1 > 0.0 && t2 > 0.0);
        let ratio = t1.max(t2) / t1.min(t2);
        assert!(ratio < 1.3, "unfair split {t1} vs {t2}");
        assert!(report.fairness_index() > 0.95);
    }

    #[test]
    fn eight_senders_split_the_channel() {
        let topo = Topology::star(8, 2_000_000, 512, false);
        let sim = Simulation::new(quick_cfg(3, 5), topo, dot11_policies(9), vec![]);
        let report = sim.run();
        let avg = report.avg_throughput_bps();
        // 8-way split of ~1.1-1.2 Mb/s aggregate, minus collision losses.
        assert!(
            (90_000.0..190_000.0).contains(&avg),
            "avg per-sender throughput {avg}"
        );
        assert!(
            report.fairness_index() > 0.9,
            "fi={}",
            report.fairness_index()
        );
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let topo = Topology::star(4, 2_000_000, 512, false);
        let a = Simulation::new(quick_cfg(7, 2), topo.clone(), dot11_policies(5), vec![]).run();
        let b = Simulation::new(quick_cfg(7, 2), topo.clone(), dot11_policies(5), vec![]).run();
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.events, b.events);
        let c = Simulation::new(quick_cfg(8, 2), topo, dot11_policies(5), vec![]).run();
        assert_ne!(a.throughput, c.throughput, "different seed, different run");
    }

    #[test]
    #[should_panic(expected = "one policy per node")]
    fn policy_count_must_match() {
        let topo = single_sender_topology();
        let _ = Simulation::new(quick_cfg(1, 1), topo, dot11_policies(1), vec![]);
    }

    #[test]
    fn event_budget_trips_the_watchdog() {
        let topo = Topology::star(2, 2_000_000, 512, false);
        let sim = Simulation::new(quick_cfg(4, 5), topo, dot11_policies(3), vec![]);
        let budget = RunBudget {
            max_events: Some(50),
            deadline_exceeded: None,
        };
        let err = sim.run_budgeted(&budget).unwrap_err();
        assert!(err.contains("watchdog"), "unexpected trip message: {err}");
        assert!(
            err.contains("50 events"),
            "trip must report progress: {err}"
        );
    }

    #[test]
    fn deadline_probe_trips_the_watchdog() {
        let topo = Topology::star(2, 2_000_000, 512, false);
        let sim = Simulation::new(quick_cfg(4, 5), topo, dot11_policies(3), vec![]);
        let budget = RunBudget {
            max_events: None,
            deadline_exceeded: Some(std::sync::Arc::new(|| true)),
        };
        let err = sim.run_budgeted(&budget).unwrap_err();
        assert!(err.contains("deadline"), "unexpected trip message: {err}");
    }

    #[test]
    fn unlimited_budget_matches_plain_run() {
        let topo = Topology::star(2, 2_000_000, 512, false);
        let a = Simulation::new(quick_cfg(5, 2), topo.clone(), dot11_policies(3), vec![])
            .run_budgeted(&RunBudget::unlimited())
            .unwrap();
        let b = Simulation::new(quick_cfg(5, 2), topo, dot11_policies(3), vec![]).run();
        assert_eq!(a.summary.to_json(), b.summary.to_json());
    }

    fn churn_cfg(seed: u64) -> SimulationConfig {
        SimulationConfig {
            fault: Some(airguard_fault::FaultPlan {
                churn: vec![airguard_fault::CrashEvent {
                    node: 1,
                    at: SimDuration::from_secs(1),
                    down_for: SimDuration::from_secs(2),
                    preserve_monitor: false,
                }],
                ..airguard_fault::FaultPlan::default()
            }),
            ..quick_cfg(seed, 5)
        }
    }

    #[test]
    fn crashed_sender_goes_dark_then_resumes() {
        let topo = single_sender_topology();
        let faulted = Simulation::new(churn_cfg(9), topo.clone(), dot11_policies(2), vec![]).run();
        let clean = Simulation::new(quick_cfg(9, 5), topo, dot11_policies(2), vec![]).run();
        let faulted_bytes = faulted.throughput.total_bytes();
        let clean_bytes = clean.throughput.total_bytes();
        assert!(
            faulted_bytes > 0,
            "traffic must resume after the restart (got {faulted_bytes} bytes)"
        );
        // 2 of 5 seconds down: deliveries land well below the clean run
        // but clearly above a run that never came back.
        assert!(
            faulted_bytes < clean_bytes * 4 / 5,
            "outage should cost throughput: {faulted_bytes} vs {clean_bytes}"
        );
        assert!(
            faulted_bytes > clean_bytes * 2 / 5,
            "restart should restore throughput: {faulted_bytes} vs {clean_bytes}"
        );
    }

    #[test]
    fn churn_emits_down_and_up_events() {
        let topo = single_sender_topology();
        let mut sim = Simulation::new(churn_cfg(9), topo, dot11_policies(2), vec![]);
        let sink = EventSink::enabled();
        sim.set_trace(sink.clone());
        let _ = sim.run();
        let faults: Vec<ObsEvent> = sink
            .records()
            .into_iter()
            .map(|r| r.event)
            .filter(|e| e.category() == Category::Fault)
            .collect();
        assert!(
            faults
                .iter()
                .any(|e| matches!(e, ObsEvent::FaultNodeDown { .. })),
            "missing node-down event in {faults:?}"
        );
        assert!(
            faults
                .iter()
                .any(|e| matches!(e, ObsEvent::FaultNodeUp { .. })),
            "missing node-up event in {faults:?}"
        );
    }

    #[test]
    fn faulted_runs_are_reproducible_and_differ_from_clean() {
        let topo = single_sender_topology();
        let a = Simulation::new(churn_cfg(9), topo.clone(), dot11_policies(2), vec![]).run();
        let b = Simulation::new(churn_cfg(9), topo.clone(), dot11_policies(2), vec![]).run();
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        let clean = Simulation::new(quick_cfg(9, 5), topo, dot11_policies(2), vec![]).run();
        assert_ne!(
            a.summary.config_digest, clean.summary.config_digest,
            "a fault plan must change the config digest"
        );
    }
}
