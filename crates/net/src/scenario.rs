//! Canned scenarios reproducing the paper's evaluation settings.

use airguard_core::{CorrectConfig, DetectorConfig};
use airguard_fault::FaultPlan;
use airguard_mac::{AccessMode, MacConfig, Selfish};
use airguard_obs::{EventSink, PhaseProfiler};
use airguard_phy::{Fading, PhyConfig};
use airguard_sim::{MasterSeed, NodeId, SimDuration};
use rand::RngExt;

use crate::node_policy::NodePolicy;
use crate::runner::{RunBudget, RunReport, Simulation, SimulationConfig};
use crate::topology::Topology;

/// Which of the paper's evaluation settings to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandardScenario {
    /// Fig. 3 with flows A–B and C–D turned off: 8 (configurable)
    /// senders around one receiver.
    ZeroFlow,
    /// Fig. 3 with both interferer flows on: the carrier-sense asymmetry
    /// setting.
    TwoFlow,
    /// Fig. 9: 40 nodes at random positions in 1500 m × 700 m, each with
    /// a CBR flow to a neighbor, 5 random misbehavers.
    Random,
    /// Scaling topology: a square lattice at 200 m spacing with flows to
    /// grid neighbors. Node count comes from `random_nodes`. Under the
    /// ~1.1 km interference cutoff a grid is one connected component,
    /// so it exercises the spatial medium without decomposition.
    Grid,
    /// Scaling topology: clusters of 40 nodes spaced 3 km apart — far
    /// beyond the interference cutoff, so every cluster is its own
    /// component and sharded runs parallelise. `random_nodes` sets the
    /// total node budget (rounded down to whole clusters).
    Campus,
    /// Scaling topology: concentric seating rings around a 50 m court —
    /// a single dense connected component at stadium densities.
    Stadium,
}

/// Grid lattice spacing in meters (within carrier-sense range of the
/// four neighbors, so the lattice is one interference component).
pub const GRID_SPACING_M: f64 = 200.0;
/// Nodes per campus cluster.
pub const CAMPUS_PER_CLUSTER: usize = 40;
/// Campus cluster spacing in meters — chosen beyond the ~1.1 km
/// interference cutoff so clusters decompose into independent shards.
pub const CAMPUS_SPACING_M: f64 = 3_000.0;
/// Stadium court (inner ring) radius in meters.
pub const STADIUM_INNER_RADIUS_M: f64 = 50.0;

/// Which protocol the whole network runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Unmodified IEEE 802.11 DCF.
    Dot11,
    /// The paper's receiver-assigned-backoff protocol ("CORRECT").
    Correct,
}

/// Builder for one simulation run of a standard scenario.
///
/// Defaults follow §5: 8 senders, 512-byte packets at 2 Mb/s (backlogged),
/// 50 s simulated time, node 3 misbehaving (when a strategy is set),
/// W = 5, THRESH = 20, α = 0.9.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    scenario: StandardScenario,
    protocol: Protocol,
    n_senders: usize,
    strategy: Selfish,
    misbehaving_override: Option<Vec<NodeId>>,
    sim_time: SimDuration,
    seed: u64,
    payload: u32,
    rate_bps: u64,
    correct_cfg: CorrectConfig,
    /// Which [`DeviationDetector`](airguard_core::DeviationDetector)
    /// the modified protocol's monitors run. Lives beside (not inside)
    /// `correct_cfg` because that struct is Debug-formatted into the
    /// identity — a new field there would shift every historical
    /// digest. The default (window) detector is normalised out of the
    /// identity instead (see [`Self::identity`]).
    detector: DetectorConfig,
    mac: MacConfig,
    phy: PhyConfig,
    random_nodes: usize,
    random_area: (f64, f64),
    random_misbehaving: usize,
    fading: Fading,
    fault: Option<FaultPlan>,
    /// Telemetry category bitmask recorded during engine runs; zero
    /// (the default) attaches no sink. A non-zero mask enters the
    /// identity: an observed run folds span-derived histograms into its
    /// summary, so it must never share a cache entry with a blind run.
    observe_mask: u32,
    /// Run on the spatial (tile-indexed, pair-keyed) medium and shard
    /// the run by interference component. Enters the identity through
    /// [`SimulationConfig::identity`].
    spatial: bool,
    /// Worker threads for sharded spatial runs. Purely an execution
    /// knob: the merged report is byte-identical at any worker count,
    /// so — like the seed — it must never enter the identity.
    // lint:allow(digest-completeness) — worker count cannot change any result byte, by the shard merge contract
    shard_workers: usize,
}

impl ScenarioConfig {
    /// Creates the default configuration for `scenario`.
    #[must_use]
    pub fn new(scenario: StandardScenario) -> Self {
        ScenarioConfig {
            scenario,
            protocol: Protocol::Correct,
            n_senders: 8,
            strategy: Selfish::None,
            misbehaving_override: None,
            sim_time: SimDuration::from_secs(50),
            seed: 1,
            payload: 512,
            rate_bps: 2_000_000,
            correct_cfg: CorrectConfig::paper_default(),
            detector: DetectorConfig::default(),
            mac: MacConfig::default(),
            phy: PhyConfig::paper_default(),
            random_nodes: 40,
            random_area: (1500.0, 700.0),
            random_misbehaving: 5,
            fading: Fading::PerTransmission,
            fault: None,
            observe_mask: 0,
            spatial: false,
            shard_workers: 1,
        }
    }

    /// Selects the protocol the network runs.
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the paper's PM knob: misbehaving nodes count down only
    /// `(100 − pm) %` of each backoff. `pm = 0` means fully compliant.
    #[must_use]
    pub fn misbehavior_percent(mut self, pm: f64) -> Self {
        self.strategy = if pm <= 0.0 {
            Selfish::None
        } else {
            Selfish::BackoffScale { pm }
        };
        self
    }

    /// Sets an arbitrary selfish strategy for the misbehaving nodes.
    #[must_use]
    pub fn strategy(mut self, strategy: Selfish) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides which nodes misbehave (default: node 3 in star
    /// scenarios, 5 random flow sources in the random scenario).
    #[must_use]
    pub fn misbehaving_nodes(mut self, nodes: Vec<NodeId>) -> Self {
        self.misbehaving_override = Some(nodes);
        self
    }

    /// Number of senders in the star scenarios (Fig. 6/7 sweeps 1–64).
    #[must_use]
    pub fn n_senders(mut self, n: usize) -> Self {
        self.n_senders = n;
        self
    }

    /// Simulated seconds (the paper runs 50 s).
    #[must_use]
    pub fn sim_time_secs(mut self, secs: u64) -> Self {
        self.sim_time = SimDuration::from_secs(secs);
        self
    }

    /// The run's master seed (the paper uses a common seed set of 30).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the modified-protocol configuration (monitor parameters,
    /// extensions).
    #[must_use]
    pub fn correct_config(mut self, cfg: CorrectConfig) -> Self {
        self.correct_cfg = cfg;
        self
    }

    /// Selects the detector the modified protocol's monitors run
    /// (window diagnosis, CUSUM, or CW estimation). Non-default
    /// detectors enter the identity, so each detector sweeps its own
    /// cache cells.
    #[must_use]
    pub fn detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }

    /// The short name of the configured detector (`window`, `cusum`,
    /// `cw`) — the key per-detector histogram names derive from.
    #[must_use]
    pub fn detector_kind(&self) -> &'static str {
        self.detector.kind()
    }

    /// Replaces the radio configuration.
    #[must_use]
    pub fn phy(mut self, phy: PhyConfig) -> Self {
        self.phy = phy;
        self
    }

    /// Replaces the MAC configuration.
    #[must_use]
    pub fn mac(mut self, mac: MacConfig) -> Self {
        self.mac = mac;
        self
    }

    /// Selects the channel-access mode (RTS/CTS handshake or basic
    /// two-way access).
    #[must_use]
    pub fn access(mut self, access: AccessMode) -> Self {
        self.mac.access = access;
        self
    }

    /// Selects the shadowing fading behaviour (per-transmission, the
    /// paper's choice, or coherent per link).
    #[must_use]
    pub fn fading(mut self, fading: Fading) -> Self {
        self.fading = fading;
        self
    }

    /// Enables typed telemetry during engine runs: every run of this
    /// configuration attaches an [`EventSink`] restricted to `mask`
    /// (see [`airguard_obs::Category`] bits), and the runner folds the
    /// recorded stream into detection-latency histograms before the
    /// summary snapshot. Zero (the default) disables observation and
    /// keeps the identity byte-identical to pre-observation builds.
    #[must_use]
    pub fn observe(mut self, mask: u32) -> Self {
        self.observe_mask = mask;
        self
    }

    /// Sets the number of nodes in the random and scaling scenarios.
    #[must_use]
    pub fn random_nodes(mut self, n: usize, misbehaving: usize) -> Self {
        self.random_nodes = n;
        self.random_misbehaving = misbehaving;
        self
    }

    /// Runs on the spatial medium (tile-indexed candidate search,
    /// order-independent pair-keyed sampling) and shards the run into
    /// independent interference components. Spatial sampling draws
    /// different random streams than the dense medium, so this enters
    /// the identity; results are byte-identical at any worker count.
    #[must_use]
    pub fn spatial(mut self, on: bool) -> Self {
        self.spatial = on;
        self
    }

    /// Worker threads used to simulate a spatial run's components in
    /// parallel (ignored for non-spatial runs). Clamped to at least 1;
    /// never part of the identity.
    #[must_use]
    pub fn shard_workers(mut self, workers: usize) -> Self {
        self.shard_workers = workers.max(1);
        self
    }

    /// Attaches a deterministic fault-injection plan, validating it
    /// against the topology this configuration builds — call it *after*
    /// the topology-shaping knobs (`n_senders`, `random_nodes`, …).
    ///
    /// The plan is normalised first: components that can never fire
    /// (zero-probability loss, zero drift, …) are dropped, and a plan
    /// with nothing left becomes no plan at all, so a zero-intensity
    /// chaos run is byte-identical to the unfaulted baseline —
    /// identity, digest, trace, and summary.
    ///
    /// # Errors
    ///
    /// Returns a description of the first impossible setting: a
    /// probability outside `[0, 1]`, a crash or drift target outside
    /// the topology, a corruption probability with zero magnitude, or a
    /// drift at or below −1000 ‰.
    pub fn fault(mut self, plan: FaultPlan) -> Result<Self, String> {
        let node_count = self.build_topology().node_count();
        plan.validate(node_count)
            .map_err(|e| format!("invalid fault plan: {e}"))?;
        self.fault = plan.normalized();
        Ok(self)
    }

    /// Builds the topology this configuration will run.
    #[must_use]
    pub fn build_topology(&self) -> Topology {
        match self.scenario {
            StandardScenario::ZeroFlow => {
                Topology::star(self.n_senders, self.rate_bps, self.payload, false)
            }
            StandardScenario::TwoFlow => {
                Topology::star(self.n_senders, self.rate_bps, self.payload, true)
            }
            StandardScenario::Random => Topology::random(
                self.random_nodes,
                self.random_area.0,
                self.random_area.1,
                self.rate_bps,
                self.payload,
                MasterSeed::new(self.seed),
            ),
            StandardScenario::Grid => Topology::grid(
                self.random_nodes,
                GRID_SPACING_M,
                self.rate_bps,
                self.payload,
            ),
            StandardScenario::Campus => Topology::campus(
                (self.random_nodes / CAMPUS_PER_CLUSTER).max(1),
                CAMPUS_PER_CLUSTER,
                CAMPUS_SPACING_M,
                self.rate_bps,
                self.payload,
                MasterSeed::new(self.seed),
            ),
            StandardScenario::Stadium => Topology::stadium(
                self.random_nodes,
                STADIUM_INNER_RADIUS_M,
                self.rate_bps,
                self.payload,
            ),
        }
    }

    /// The ground-truth misbehaving set this configuration produces.
    #[must_use]
    pub fn misbehaving_set(&self, topology: &Topology) -> Vec<NodeId> {
        if self.strategy.is_none() {
            return Vec::new();
        }
        if let Some(nodes) = &self.misbehaving_override {
            return nodes.clone();
        }
        match self.scenario {
            StandardScenario::ZeroFlow | StandardScenario::TwoFlow => {
                // The paper's Fig. 3: node 3 misbehaves.
                vec![NodeId::new(3.min(self.n_senders as u32))]
            }
            StandardScenario::Random
            | StandardScenario::Grid
            | StandardScenario::Campus
            | StandardScenario::Stadium => {
                let mut rng = MasterSeed::new(self.seed).stream("misbehaving", 0);
                let mut senders = topology.measured_senders();
                let mut chosen = Vec::new();
                for _ in 0..self.random_misbehaving.min(senders.len()) {
                    let i = rng.random_range(0..senders.len());
                    chosen.push(senders.swap_remove(i));
                }
                chosen.sort();
                chosen
            }
        }
    }

    /// Runs the scenario once and reports.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the simulation; on the spatial (sharded)
    /// path the message names the component that panicked.
    #[must_use]
    pub fn run(&self) -> RunReport {
        match self.run_internal(&RunBudget::unlimited(), None, None) {
            Ok(report) => report,
            // lint:allow(panic-macro) — an unlimited budget never trips, so the only error is a shard component's panic, re-raised here
            Err(panicked) => panic!("{panicked}"),
        }
    }

    /// Runs the scenario once under `budget`: a tripped watchdog
    /// returns `Err` with the trip description instead of hanging.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the event budget is exhausted or the deadline
    /// probe fires (see [`RunBudget`]).
    pub fn run_budgeted(&self, budget: &RunBudget) -> Result<RunReport, String> {
        self.run_internal(budget, None, None)
    }

    /// Like [`Self::run_budgeted`] with a phase profiler attached.
    /// Clones of `profiler` share accumulators, so the caller reads
    /// totals after the run; the profiler never touches the summary.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the event budget is exhausted or the deadline
    /// probe fires (see [`RunBudget`]).
    pub fn run_budgeted_profiled(
        &self,
        budget: &RunBudget,
        profiler: PhaseProfiler,
    ) -> Result<RunReport, String> {
        self.run_internal(budget, Some(profiler), None)
    }

    /// Runs the scenario once with typed telemetry enabled, returning
    /// the report together with the event sink. Two runs of the same
    /// configuration must record identical streams — the determinism
    /// regression test digests this. Export the records with
    /// `airguard_obs::records_to_jsonl`.
    #[must_use]
    pub fn run_observed(&self) -> (RunReport, EventSink) {
        self.run_observed_inner(None)
    }

    /// [`Self::run_observed`] with a phase profiler attached — the one
    /// run path that yields the full causal picture: report, event
    /// stream (for the Chrome-trace exporter), and hot-loop phase
    /// totals.
    #[must_use]
    pub fn run_observed_profiled(&self, profiler: PhaseProfiler) -> (RunReport, EventSink) {
        self.run_observed_inner(Some(profiler))
    }

    fn run_observed_inner(&self, profiler: Option<PhaseProfiler>) -> (RunReport, EventSink) {
        let sink = EventSink::enabled();
        match self.run_internal(&RunBudget::unlimited(), profiler, Some(sink.clone())) {
            Ok(report) => (report, sink),
            // lint:allow(panic-macro) — an unlimited budget never trips, so the only error is a shard component's panic, re-raised here
            Err(panicked) => panic!("{panicked}"),
        }
    }

    /// The single execution path every public `run*` method funnels
    /// into. An explicit `sink` wins over the configured observe mask;
    /// spatial configurations go through the component-sharded runner
    /// (and replay the merged record stream into the sink), everything
    /// else runs the classic monolithic simulation untouched.
    fn run_internal(
        &self,
        budget: &RunBudget,
        profiler: Option<PhaseProfiler>,
        sink: Option<EventSink>,
    ) -> Result<RunReport, String> {
        let topology = self.build_topology();
        let misbehaving = self.misbehaving_set(&topology);
        let policies = self.policies(&topology, &misbehaving);
        let sink = sink.or_else(|| {
            (self.observe_mask != 0).then(|| {
                let masked = EventSink::enabled();
                masked.set_mask(self.observe_mask);
                masked
            })
        });
        if self.spatial {
            let profiler = profiler.unwrap_or_default();
            let sink_mask = sink.as_ref().map_or(0, EventSink::mask);
            let opts = crate::shard::ShardOptions {
                workers: self.shard_workers,
                sink_mask,
                profiler,
            };
            let (report, records) = crate::shard::run_sharded(
                self.simulation_config(),
                topology,
                policies,
                misbehaving,
                &opts,
                budget,
            )?;
            if let Some(sink) = &sink {
                for record in records {
                    sink.emit(record.time_us, record.node, record.event);
                }
            }
            Ok(report)
        } else {
            let mut sim =
                Simulation::new(self.simulation_config(), topology, policies, misbehaving);
            if let Some(sink) = sink {
                sim.set_trace(sink);
            }
            if let Some(profiler) = profiler {
                sim.set_profiler(profiler);
            }
            sim.run_budgeted(budget)
        }
    }

    /// The [`SimulationConfig`] this scenario hands to the runner.
    ///
    /// Public so the digest chain has a single source of truth: the
    /// runner stamps `simulation_config().config_digest()` into every
    /// [`RunSummary`](airguard_obs::RunSummary), and
    /// [`Self::identity`] embeds `simulation_config().identity()`, so
    /// the scenario-level and runner-level fingerprints are derived
    /// from the same field enumeration and can never diverge.
    #[must_use]
    pub fn simulation_config(&self) -> SimulationConfig {
        SimulationConfig {
            phy: self.phy,
            mac: self.mac.clone(),
            horizon: self.sim_time,
            diag_bin: SimDuration::from_secs(1),
            fading: self.fading,
            seed: MasterSeed::new(self.seed),
            fault: self.fault.clone(),
            spatial: self.spatial,
        }
    }

    /// The per-node policy vector this configuration assigns (indexed
    /// by global node id).
    fn policies(&self, topology: &Topology, misbehaving: &[NodeId]) -> Vec<NodePolicy> {
        (0..topology.node_count())
            .map(|i| {
                let id = NodeId::new(i as u32);
                let strategy = if misbehaving.contains(&id) {
                    self.strategy
                } else {
                    Selfish::None
                };
                match self.protocol {
                    Protocol::Dot11 => NodePolicy::dot11(strategy),
                    Protocol::Correct => NodePolicy::correct_with_detector(
                        id,
                        self.correct_cfg,
                        self.detector,
                        strategy,
                    ),
                }
            })
            .collect()
    }

    /// The canonical, *seed-independent* identity of this
    /// configuration. Two configurations with equal identity run the
    /// same grid point; the seed is keyed separately (the experiment
    /// engine's cache key is `(config_digest, seed)`).
    ///
    /// Every field is enumerated explicitly — the scenario-level knobs
    /// here, the runner-level knobs via the embedded
    /// [`SimulationConfig::identity`] — so the digest-completeness
    /// lint can verify that adding a config field without extending
    /// the identity is impossible. The `seed` field is consumed by
    /// [`Self::simulation_config`] (as the master-seed constructor)
    /// but normalised out of the identity string itself.
    #[must_use]
    pub fn identity(&self) -> String {
        let mut id = format!(
            "scenario={:?}|protocol={:?}|n_senders={}|strategy={:?}\
             |misbehaving_override={:?}|payload={}|rate_bps={}|correct_cfg={:?}\
             |random_nodes={}|random_area={:?}|random_misbehaving={}|sim={}",
            self.scenario,
            self.protocol,
            self.n_senders,
            self.strategy,
            self.misbehaving_override,
            self.payload,
            self.rate_bps,
            self.correct_cfg,
            self.random_nodes,
            self.random_area,
            self.random_misbehaving,
            self.simulation_config().identity(),
        );
        // Appended only when set, so every pre-observation configuration
        // keeps its exact historical identity (and cache entries). A
        // non-zero mask adds histograms to the summary, which makes the
        // observed cell a genuinely different artifact.
        if self.observe_mask != 0 {
            use std::fmt::Write as _;
            let _ = write!(id, "|observe_mask={}", self.observe_mask);
        }
        // Same appended-only-when-set rule: the default window detector
        // is what every pre-trait run used, so only the alternative
        // detectors mark the identity.
        if let Some(fragment) = self.detector.identity_fragment() {
            use std::fmt::Write as _;
            let _ = write!(id, "|detector={fragment}");
        }
        id
    }

    /// FNV-1a digest of [`Self::identity`] — the stable cache/identity
    /// hook used by `airguard-exp`.
    #[must_use]
    pub fn config_digest(&self) -> String {
        airguard_obs::fnv1a_hex(self.identity().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_flow_has_no_interferers() {
        let t = ScenarioConfig::new(StandardScenario::ZeroFlow).build_topology();
        assert_eq!(t.node_count(), 9);
        assert!(t.flows.iter().all(|f| f.measured));
    }

    #[test]
    fn two_flow_has_interferers() {
        let t = ScenarioConfig::new(StandardScenario::TwoFlow).build_topology();
        assert_eq!(t.node_count(), 13);
        assert_eq!(t.flows.iter().filter(|f| !f.measured).count(), 2);
    }

    #[test]
    fn default_misbehaver_is_node_3() {
        let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow).misbehavior_percent(50.0);
        let t = cfg.build_topology();
        assert_eq!(cfg.misbehaving_set(&t), vec![NodeId::new(3)]);
    }

    #[test]
    fn pm_zero_means_no_misbehavers() {
        let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow).misbehavior_percent(0.0);
        let t = cfg.build_topology();
        assert!(cfg.misbehaving_set(&t).is_empty());
    }

    #[test]
    fn random_scenario_draws_five_senders() {
        let cfg = ScenarioConfig::new(StandardScenario::Random).misbehavior_percent(60.0);
        let t = cfg.build_topology();
        let m = cfg.misbehaving_set(&t);
        assert_eq!(m.len(), 5);
        let distinct: std::collections::HashSet<_> = m.iter().collect();
        assert_eq!(distinct.len(), 5, "misbehaving nodes are distinct");
        // Reproducible for the same seed.
        assert_eq!(m, cfg.misbehaving_set(&t));
    }

    #[test]
    fn config_digest_is_seed_independent_but_config_sensitive() {
        let base = ScenarioConfig::new(StandardScenario::ZeroFlow).misbehavior_percent(50.0);
        let d1 = base.clone().seed(1).config_digest();
        let d2 = base.clone().seed(2).config_digest();
        assert_eq!(d1, d2, "seed must not affect the identity digest");
        assert_eq!(d1.len(), 16);
        let other = base.clone().n_senders(4).config_digest();
        assert_ne!(d1, other, "config changes must change the digest");
        let other_pm = base.misbehavior_percent(60.0).config_digest();
        assert_ne!(d1, other_pm);
    }

    #[test]
    fn summary_digest_is_derived_from_the_scenario_identity() {
        // The runner's per-report digest and the scenario's cache
        // digest must come from the same field enumeration: the
        // scenario identity embeds the simulation identity verbatim,
        // and the summary digest IS the simulation-config digest.
        let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow)
            .n_senders(2)
            .sim_time_secs(1)
            .seed(7);
        assert!(
            cfg.identity().contains(&cfg.simulation_config().identity()),
            "scenario identity must embed the simulation identity"
        );
        let report = cfg.run();
        assert_eq!(
            report.summary.config_digest,
            cfg.simulation_config().config_digest(),
            "runner summary digest must delegate to SimulationConfig::config_digest"
        );
        // Both digest paths are seed-independent.
        assert_eq!(
            cfg.simulation_config().config_digest(),
            cfg.clone().seed(9).simulation_config().config_digest()
        );
        assert_eq!(cfg.config_digest(), cfg.clone().seed(9).config_digest());
    }

    #[test]
    fn zero_intensity_fault_plan_is_byte_identical_to_baseline() {
        let base = ScenarioConfig::new(StandardScenario::ZeroFlow).misbehavior_percent(50.0);
        let noop = FaultPlan {
            burst_loss: Some(crate::BurstLoss {
                p_enter: 0.0,
                p_exit: 0.4,
                loss_good: 0.0,
                loss_bad: 0.9,
            }),
            clock_drift: Some(crate::ClockDrift {
                per_mille: 0,
                nodes: vec![],
            }),
            ..FaultPlan::default()
        };
        let faulted = base.clone().fault(noop).expect("noop plan validates");
        assert_eq!(
            base.identity(),
            faulted.identity(),
            "zero-intensity plan must normalise away entirely"
        );
        assert_eq!(base.config_digest(), faulted.config_digest());
    }

    #[test]
    fn live_fault_plan_changes_the_identity() {
        let base = ScenarioConfig::new(StandardScenario::ZeroFlow);
        let faulted = base
            .clone()
            .fault(FaultPlan {
                burst_loss: Some(crate::BurstLoss {
                    p_enter: 0.01,
                    p_exit: 0.2,
                    loss_good: 0.0,
                    loss_bad: 0.8,
                }),
                ..FaultPlan::default()
            })
            .expect("live plan validates");
        assert_ne!(base.config_digest(), faulted.config_digest());
    }

    #[test]
    fn impossible_fault_plans_are_rejected_at_build_time() {
        let base = ScenarioConfig::new(StandardScenario::ZeroFlow);
        let err = base
            .clone()
            .fault(FaultPlan {
                burst_loss: Some(crate::BurstLoss {
                    p_enter: 1.5,
                    p_exit: 0.2,
                    loss_good: 0.0,
                    loss_bad: 0.8,
                }),
                ..FaultPlan::default()
            })
            .expect_err("probability above one must be rejected");
        assert!(err.contains("invalid fault plan"), "{err}");
        // The 9-node star has nodes 0..=8; crashing node 99 is impossible.
        let err = base
            .fault(FaultPlan {
                churn: vec![crate::CrashEvent {
                    node: 99,
                    at: SimDuration::from_secs(1),
                    down_for: SimDuration::from_secs(1),
                    preserve_monitor: true,
                }],
                ..FaultPlan::default()
            })
            .expect_err("crash of a non-topology node must be rejected");
        assert!(err.contains("99"), "{err}");
    }

    #[test]
    fn faulted_scenario_runs_deterministically() {
        let cfg = || {
            ScenarioConfig::new(StandardScenario::ZeroFlow)
                .n_senders(2)
                .sim_time_secs(2)
                .seed(5)
                .fault(FaultPlan {
                    burst_loss: Some(crate::BurstLoss {
                        p_enter: 0.05,
                        p_exit: 0.3,
                        loss_good: 0.0,
                        loss_bad: 0.9,
                    }),
                    corruption: Some(crate::Corruption {
                        backoff_prob: 0.05,
                        backoff_max_delta: 8,
                        attempt_prob: 0.05,
                        attempt_max_delta: 2,
                    }),
                    clock_drift: Some(crate::ClockDrift {
                        per_mille: 50,
                        nodes: vec![0],
                    }),
                    ..FaultPlan::default()
                })
                .expect("plan validates")
        };
        let a = cfg().run();
        let b = cfg().run();
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert!(a.throughput.total_bytes() > 0, "faulted run still delivers");
    }

    #[test]
    fn observed_runs_fold_detection_latency_histograms() {
        use airguard_obs::{DIAGNOSIS_LATENCY_HIST, PENALTY_LATENCY_HIST};
        let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow)
            .n_senders(4)
            .sim_time_secs(5)
            .misbehavior_percent(90.0)
            .seed(1);
        let (report, _sink) = cfg.run_observed();
        let hists = &report.summary.histograms;
        let penalties = hists
            .get(PENALTY_LATENCY_HIST)
            .expect("observed run records the penalty-latency histogram");
        assert!(
            penalties.total >= 1,
            "a 90% cheater must draw at least one penalty"
        );
        assert!(
            hists.contains_key(DIAGNOSIS_LATENCY_HIST),
            "diagnosis-latency histogram must be registered"
        );
        // A blind run of the same configuration has neither.
        let blind = cfg.run();
        assert!(!blind.summary.histograms.contains_key(PENALTY_LATENCY_HIST));
    }

    #[test]
    fn observe_mask_enters_the_identity_only_when_set() {
        use airguard_obs::{DETECTION_OBSERVE_MASK, PENALTY_LATENCY_HIST};
        let base = ScenarioConfig::new(StandardScenario::ZeroFlow)
            .n_senders(2)
            .sim_time_secs(2)
            .misbehavior_percent(90.0);
        assert!(
            !base.identity().contains("observe_mask"),
            "zero mask must keep the pre-observation identity bytes"
        );
        let observed = base.clone().observe(DETECTION_OBSERVE_MASK);
        assert_ne!(
            base.config_digest(),
            observed.config_digest(),
            "an observed cell must never share a cache entry with a blind one"
        );
        // The engine path (plain `run`) picks the masked sink up from
        // the config itself and folds the latency histograms.
        let report = observed.run();
        assert!(report.summary.histograms.contains_key(PENALTY_LATENCY_HIST));
    }

    #[test]
    fn detector_enters_the_identity_only_when_not_the_default() {
        let base = ScenarioConfig::new(StandardScenario::ZeroFlow).sim_time_secs(2);
        assert!(
            !base.identity().contains("detector="),
            "the default window detector must keep the pre-trait identity bytes"
        );
        assert_eq!(base.detector_kind(), "window");
        let explicit_window = base.clone().detector(DetectorConfig::Window);
        assert_eq!(
            base.config_digest(),
            explicit_window.config_digest(),
            "explicitly selecting the default must not fork the cache"
        );
        let cusum = base
            .clone()
            .detector(DetectorConfig::from_kind("cusum").expect("known"));
        let cw = base
            .clone()
            .detector(DetectorConfig::from_kind("cw").expect("known"));
        assert!(cusum.identity().contains("|detector=cusum:"));
        assert!(cw.identity().contains("|detector=cw:"));
        assert_ne!(base.config_digest(), cusum.config_digest());
        assert_ne!(base.config_digest(), cw.config_digest());
        assert_ne!(cusum.config_digest(), cw.config_digest());
    }

    #[test]
    fn detector_choice_changes_the_run_not_just_the_digest() {
        // A PM=90 cheater is flagged by every detector, but the flag
        // *timing* differs, so the diagnosis tallies must diverge while
        // seeds and every other knob stay equal.
        let base = ScenarioConfig::new(StandardScenario::ZeroFlow)
            .protocol(Protocol::Correct)
            .misbehavior_percent(90.0)
            .sim_time_secs(2)
            .seed(7);
        let window = base.clone().run();
        let cusum = base
            .clone()
            .detector(DetectorConfig::from_kind("cusum").expect("known"))
            .run();
        assert_ne!(
            window.tally, cusum.tally,
            "cusum must classify at least some packets differently"
        );
        // Both still catch the cheater.
        assert!(window.tally.correct_diagnosis_percent() > 0.0);
        assert!(cusum.tally.correct_diagnosis_percent() > 0.0);
    }

    #[test]
    fn profiled_runs_match_plain_runs_byte_for_byte() {
        use airguard_obs::{Phase, PhaseProfiler};
        let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow)
            .n_senders(2)
            .sim_time_secs(2)
            .seed(4);
        let plain = cfg.run();
        let profiler = PhaseProfiler::enabled();
        let profiled = cfg
            .run_budgeted_profiled(&RunBudget::unlimited(), profiler.clone())
            .expect("unlimited budget cannot trip");
        assert_eq!(
            plain.summary.to_json(),
            profiled.summary.to_json(),
            "profiling must never leak into the deterministic summary"
        );
        for phase in [
            Phase::SchedulerPop,
            Phase::MacStep,
            Phase::MediumPropagation,
        ] {
            assert!(
                profiler.totals(phase).1 > 0,
                "{} must have accumulated calls",
                phase.name()
            );
        }
    }

    #[test]
    fn short_zero_flow_run_delivers_traffic() {
        let report = ScenarioConfig::new(StandardScenario::ZeroFlow)
            .protocol(Protocol::Dot11)
            .n_senders(2)
            .sim_time_secs(2)
            .seed(3)
            .run();
        assert!(report.throughput.total_bytes() > 0);
        assert_eq!(report.measured_senders.len(), 2);
    }
}
