//! Spatial sharding: intra-run parallelism over interference components.
//!
//! A spatial run's medium only couples nodes within the interference
//! cutoff ([`airguard_phy::interference_cutoff`], ≈ 1.1 km for the
//! paper's calibration), and the spatial medium keys every random draw
//! by the *global* (transmitter, receiver) pair — so two nodes that can
//! never sense each other can never perturb each other's outcomes. This
//! module exploits that: it partitions the topology into connected
//! components of the "within cutoff OR shares a flow" graph, simulates
//! each component as an independent sub-run (with global node/flow
//! identities preserved via [`ShardScope`], so every seed stream is the
//! one the monolithic run would draw), and merges the per-component
//! reports deterministically.
//!
//! Determinism contract:
//!
//! * The decomposition depends only on topology and config — never on
//!   the worker count — and components are ordered by their smallest
//!   member id, with members ascending inside each component.
//! * Workers claim components from the shared task pool
//!   ([`airguard_obs::run_tasks`]), which returns results in component
//!   order; the merge walks that order, so the merged report and record
//!   stream are **byte-identical at any worker count**.
//! * A component that panics becomes that component's `Err`, reported
//!   in component order exactly like a watchdog trip.
//! * Per-node surfaces (throughput flows, delays, counters, monitors)
//!   partition across components; registry counters and histograms are
//!   order-insensitive sums. Merging therefore reproduces exactly what
//!   one monolithic spatial run over the full topology produces —
//!   except under `corruption` faults, whose single sequential stream
//!   cannot be split (worker-count identity still holds; only
//!   sharded-vs-monolithic equality is excluded).
//! * Records are merged by stable sort on virtual time, so events with
//!   equal timestamps stay in component order.

use airguard_fault::FaultPlan;
use airguard_mac::dcf::MacCounters;
use airguard_metrics::{DelayAccount, DiagnosisTally, ThroughputAccount, TimeBinned};
use airguard_obs::{
    run_tasks, EventSink, Phase, PhaseProfiler, Record, RegistrySnapshot, RunSummary,
};
use airguard_phy::{interference_cutoff, TileIndex};
use airguard_sim::NodeId;

use crate::node_policy::NodePolicy;
use crate::runner::{RunBudget, RunReport, ShardScope, Simulation, SimulationConfig};
use crate::topology::Topology;

/// Union-find with the invariant that every set's root is its smallest
/// member (unions always attach the larger root under the smaller), so
/// component enumeration in node order is automatically ordered by
/// minimum member id.
struct DisjointSet {
    parent: Vec<usize>,
}

impl DisjointSet {
    fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            // Path halving keeps the tree flat without recursion.
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Everything one worker needs to simulate a single component.
struct ComponentSpec {
    /// Global node ids, ascending; `members[local]` is local's identity.
    members: Vec<u32>,
    /// Global indices of this component's flows, in flow order.
    flow_ids: Vec<usize>,
    /// Local positions + flows (flow endpoints keep their global ids).
    topology: Topology,
    policies: Vec<NodePolicy>,
    misbehaving: Vec<NodeId>,
    /// The run config with the fault plan restricted to this component.
    cfg: SimulationConfig,
}

/// Restricts `plan` to one component, identified by its ascending
/// global member ids: churn events are kept for member nodes only and
/// renumbered to local indices (a member's local index is its rank in
/// `members`), drift target lists are translated the same way (a drift
/// that targeted only other components is dropped — an *empty* list
/// means "every node", so a filtered-to-empty list must not be kept).
/// Burst loss and corruption are component-global knobs and pass
/// through unchanged.
fn restrict_fault(plan: &FaultPlan, members: &[u32]) -> Option<FaultPlan> {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascend");
    let local_of = |global: u32| members.binary_search(&global).ok();
    let churn = plan
        .churn
        .iter()
        .filter_map(|crash| {
            local_of(crash.node).map(|local| {
                let mut c = *crash;
                c.node = local as u32;
                c
            })
        })
        .collect();
    let clock_drift = plan.clock_drift.as_ref().and_then(|drift| {
        if drift.nodes.is_empty() {
            return Some(drift.clone());
        }
        let nodes: Vec<u32> = drift
            .nodes
            .iter()
            .filter_map(|&n| local_of(n))
            .map(|local| local as u32)
            .collect();
        if nodes.is_empty() {
            None
        } else {
            Some(airguard_fault::ClockDrift {
                per_mille: drift.per_mille,
                nodes,
            })
        }
    });
    let restricted = FaultPlan {
        burst_loss: plan.burst_loss,
        churn,
        corruption: plan.corruption,
        clock_drift,
    };
    if restricted.is_noop() {
        None
    } else {
        Some(restricted)
    }
}

/// Decomposes the run into independent component specs. Two nodes share
/// a component when they are within the interference cutoff of each
/// other (directly or transitively) or when a flow connects them; the
/// result depends only on topology and config.
fn build_plan(
    cfg: &SimulationConfig,
    topology: &Topology,
    policies: Vec<NodePolicy>,
    misbehaving: &[NodeId],
) -> Vec<ComponentSpec> {
    let n = topology.node_count();
    let cutoff = interference_cutoff(&cfg.phy);
    let tiles = TileIndex::build(&topology.positions, cutoff);
    let mut ds = DisjointSet::new(n);
    for i in 0..n {
        for &j in tiles.candidates(i) {
            ds.union(i, j as usize);
        }
    }
    for flow in &topology.flows {
        ds.union(flow.src.index(), flow.dst.index());
    }
    // Roots are minimum members, so assigning component indices on the
    // first encounter while scanning ids ascending orders components by
    // their smallest member.
    let mut comp_index: std::collections::BTreeMap<usize, usize> =
        std::collections::BTreeMap::new();
    let mut comp_of = vec![0usize; n];
    for (i, slot) in comp_of.iter_mut().enumerate() {
        let root = ds.find(i);
        let next = comp_index.len();
        *slot = *comp_index.entry(root).or_insert(next);
    }
    let n_comp = comp_index.len();
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_comp];
    let mut positions: Vec<Vec<airguard_phy::Position>> = vec![Vec::new(); n_comp];
    for (i, &c) in comp_of.iter().enumerate() {
        members[c].push(i as u32);
        positions[c].push(topology.positions[i]);
    }
    let mut flows: Vec<Vec<crate::topology::Flow>> = vec![Vec::new(); n_comp];
    let mut flow_ids: Vec<Vec<usize>> = vec![Vec::new(); n_comp];
    for (fid, flow) in topology.flows.iter().enumerate() {
        let c = comp_of[flow.src.index()];
        debug_assert_eq!(c, comp_of[flow.dst.index()], "flow endpoints were unioned");
        flows[c].push(*flow);
        flow_ids[c].push(fid);
    }
    // One ascending pass distributes policies in the same order members
    // were pushed, so `policies[local]` matches `members[local]`.
    let mut comp_policies: Vec<Vec<NodePolicy>> = (0..n_comp).map(|_| Vec::new()).collect();
    for (i, policy) in policies.into_iter().enumerate() {
        comp_policies[comp_of[i]].push(policy);
    }
    let mut comp_misbehaving: Vec<Vec<NodeId>> = vec![Vec::new(); n_comp];
    for &m in misbehaving {
        if let Some(&c) = comp_of.get(m.index()) {
            comp_misbehaving[c].push(m);
        }
    }
    let mut specs = Vec::with_capacity(n_comp);
    let mut policy_parts = comp_policies.into_iter();
    for c in 0..n_comp {
        // The member list must be this component's — the restriction
        // renumbers global fault targets to *this* component's local
        // indices and drops the rest.
        let fault = cfg
            .fault
            .as_ref()
            .and_then(|plan| restrict_fault(plan, &members[c]));
        let sub_cfg = SimulationConfig {
            fault,
            ..cfg.clone()
        };
        specs.push(ComponentSpec {
            members: std::mem::take(&mut members[c]),
            flow_ids: std::mem::take(&mut flow_ids[c]),
            topology: Topology {
                positions: std::mem::take(&mut positions[c]),
                flows: std::mem::take(&mut flows[c]),
            },
            policies: policy_parts.next().unwrap_or_default(),
            misbehaving: std::mem::take(&mut comp_misbehaving[c]),
            cfg: sub_cfg,
        });
    }
    specs
}

/// Simulates one component and returns its report plus the records its
/// sink captured (empty when `sink_mask` is zero).
fn run_component(
    spec: ComponentSpec,
    sink_mask: u32,
    profiler: &PhaseProfiler,
    budget: &RunBudget,
) -> Result<(Vec<u32>, RunReport, Vec<Record>), String> {
    let members = spec.members.clone();
    let scope = ShardScope {
        node_ids: spec.members,
        flow_ids: spec.flow_ids,
    };
    let mut sim = Simulation::new_scoped(
        spec.cfg,
        spec.topology,
        spec.policies,
        spec.misbehaving,
        Some(scope),
    );
    sim.set_profiler(profiler.clone());
    let sink = (sink_mask != 0).then(|| {
        let sink = EventSink::with_mask(sink_mask);
        sim.set_trace(sink.clone());
        sink
    });
    let report = sim.run_budgeted(budget)?;
    let records = sink.map_or_else(Vec::new, |s| s.records());
    Ok((members, report, records))
}

/// How a sharded run executes — none of these can change a result
/// byte, which is why they travel apart from the simulation config.
#[derive(Debug, Clone)]
pub(crate) struct ShardOptions {
    /// Worker-thread cap (clamped to the component count, min 1).
    pub(crate) workers: usize,
    /// Telemetry category mask each component's sink records under
    /// (zero records nothing).
    pub(crate) sink_mask: u32,
    /// Shared phase profiler (clones share accumulators).
    pub(crate) profiler: PhaseProfiler,
}

/// Runs `cfg` over `topology` as independent interference components on
/// up to `opts.workers` threads, merging the per-component reports into
/// the report (and record stream) of the whole run.
///
/// The returned records are the merged stream, stably ordered by
/// virtual time. `budget` applies per component: `max_events` caps each
/// component's scheduler, and the shared deadline probe trips every
/// component at once.
///
/// # Errors
///
/// Returns the first failed component's error in component order
/// (deterministic regardless of which worker failed first): its
/// watchdog trip, or its panic message.
pub(crate) fn run_sharded(
    cfg: SimulationConfig,
    topology: Topology,
    policies: Vec<NodePolicy>,
    misbehaving: Vec<NodeId>,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<(RunReport, Vec<Record>), String> {
    let (workers, sink_mask, profiler) = (opts.workers, opts.sink_mask, &opts.profiler);
    let node_count = topology.node_count();
    let measured_senders = topology.measured_senders();
    let measured_flows = topology.measured_flow_pairs();
    let specs = {
        let _build = profiler.scope(Phase::ShardBuild);
        build_plan(&cfg, &topology, policies, &misbehaving)
    };
    let results = run_tasks(specs, workers, |spec| {
        run_component(spec, sink_mask, profiler, budget)
    });
    let _merge = profiler.scope(Phase::ShardMerge);
    let mut subs = Vec::with_capacity(results.len());
    for (i, result) in results.into_iter().enumerate() {
        match result {
            Ok(Ok(sub)) => subs.push(sub),
            Ok(Err(watchdog)) => return Err(watchdog),
            Err(panic) => return Err(format!("shard component {i} panicked: {panic}")),
        }
    }
    let mut throughput = ThroughputAccount::new();
    let mut tally = DiagnosisTally::new(misbehaving.iter().copied());
    let mut series = TimeBinned::new(cfg.diag_bin.min(cfg.horizon), cfg.horizon);
    let mut delays = DelayAccount::new();
    let mut counters = vec![MacCounters::default(); node_count];
    let mut monitors = Vec::new();
    let mut receiver_violations = Vec::new();
    let mut observers = Vec::new();
    let mut events = 0u64;
    let mut snapshot = RegistrySnapshot::default();
    let mut records: Vec<Record> = Vec::new();
    for (members, report, recs) in subs {
        throughput.merge(&report.throughput);
        tally.merge(&report.tally);
        series.merge(&report.series);
        delays.merge(&report.delays);
        for (local, &gid) in members.iter().enumerate() {
            counters[gid as usize] = report.counters[local];
        }
        monitors.extend(report.monitors);
        receiver_violations.extend(report.receiver_violations);
        observers.extend(report.observers);
        events += report.events;
        snapshot.merge(&RegistrySnapshot {
            counters: report.summary.counters,
            histograms: report.summary.histograms,
        });
        records.extend(recs);
    }
    monitors.sort_by_key(|entry| entry.0);
    receiver_violations.sort_by_key(|entry| entry.0);
    observers.sort_by_key(|entry| entry.0);
    // Stable: components were appended in order, so equal timestamps
    // keep component order — the same bytes at any worker count.
    records.sort_by_key(|r| r.time_us);
    let summary = RunSummary::new(
        "sim",
        cfg.seed.value(),
        cfg.config_digest(),
        cfg.horizon.as_micros(),
    )
    .with_metrics(snapshot);
    Ok((
        RunReport {
            elapsed: cfg.horizon,
            throughput,
            tally,
            series,
            delays,
            measured_senders,
            measured_flows,
            misbehaving,
            counters,
            monitors,
            receiver_violations,
            observers,
            events,
            summary,
        },
        records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use airguard_sim::MasterSeed;

    fn campus_topology(clusters: usize) -> Topology {
        // 3 km cluster spacing is far beyond the ~1.1 km interference
        // cutoff, so each cluster is its own component.
        Topology::campus(clusters, 6, 3_000.0, 2_000_000, 512, MasterSeed::new(7))
    }

    #[test]
    fn campus_clusters_decompose_into_one_component_each() {
        let topo = campus_topology(4);
        let cfg = SimulationConfig {
            spatial: true,
            ..SimulationConfig::default()
        };
        let n = topo.node_count();
        let policies = (0..n)
            .map(|_| NodePolicy::dot11(airguard_mac::Selfish::None))
            .collect();
        let plan = build_plan(&cfg, &topo, policies, &[]);
        assert_eq!(plan.len(), 4);
        let mut seen = Vec::new();
        for spec in &plan {
            assert!(
                spec.members.windows(2).all(|w| w[0] < w[1]),
                "members must ascend"
            );
            assert_eq!(spec.members.len(), 6);
            assert_eq!(spec.topology.node_count(), 6);
            assert_eq!(spec.policies.len(), 6);
            assert_eq!(spec.topology.flows.len(), spec.flow_ids.len());
            seen.extend_from_slice(&spec.members);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..n as u32).collect::<Vec<_>>());
        // Components ordered by smallest member.
        let mins: Vec<u32> = plan.iter().map(|s| s.members[0]).collect();
        assert!(mins.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn flows_keep_endpoints_in_one_component() {
        let topo = campus_topology(3);
        let cfg = SimulationConfig {
            spatial: true,
            ..SimulationConfig::default()
        };
        let n = topo.node_count();
        let policies = (0..n)
            .map(|_| NodePolicy::dot11(airguard_mac::Selfish::None))
            .collect();
        let plan = build_plan(&cfg, &topo, policies, &[]);
        for spec in &plan {
            for flow in &spec.topology.flows {
                assert!(spec.members.contains(&flow.src.value()));
                assert!(spec.members.contains(&flow.dst.value()));
            }
        }
    }

    #[test]
    fn drift_filtered_to_empty_is_dropped_not_globalised() {
        // A drift that targets only nodes outside the component must
        // vanish: keeping an emptied list would re-read as "all nodes".
        let plan = FaultPlan {
            clock_drift: Some(airguard_fault::ClockDrift {
                per_mille: 50,
                nodes: vec![9],
            }),
            ..FaultPlan::default()
        };
        let members = [0u32, 1];
        let restricted = restrict_fault(&plan, &members);
        assert!(restricted.is_none(), "emptied drift must drop the plan");
        // A drift that names a member is translated to local indices.
        let plan = FaultPlan {
            clock_drift: Some(airguard_fault::ClockDrift {
                per_mille: 50,
                nodes: vec![1, 9],
            }),
            ..FaultPlan::default()
        };
        let restricted =
            restrict_fault(&plan, &members).expect("drift names a member, plan survives");
        assert_eq!(
            restricted.clock_drift.expect("drift kept").nodes,
            vec![1],
            "global id 1 is local index 1 here"
        );
    }

    #[test]
    fn restriction_uses_each_components_own_member_list() {
        // Regression: build_plan once passed one global local-index map
        // to every component, so a churn event for global node g leaked
        // into *every* component at whatever node held g's local rank
        // (or panicked out of bounds). Restricting against disjoint
        // member lists must keep each event in exactly one component.
        let plan = FaultPlan {
            churn: vec![
                airguard_fault::CrashEvent {
                    node: 7,
                    at: airguard_sim::SimDuration::from_millis(5),
                    down_for: airguard_sim::SimDuration::from_millis(5),
                    preserve_monitor: false,
                },
                airguard_fault::CrashEvent {
                    node: 2,
                    at: airguard_sim::SimDuration::from_millis(9),
                    down_for: airguard_sim::SimDuration::from_millis(3),
                    preserve_monitor: true,
                },
            ],
            ..FaultPlan::default()
        };
        // Component A holds globals {0, 2, 4}; component B holds
        // {5, 7, 9}. Node 7 has local rank 1 in B and must not surface
        // in A even though A also has a node of rank 1.
        let a = restrict_fault(&plan, &[0, 2, 4]).expect("A keeps node 2's crash");
        assert_eq!(a.churn.len(), 1);
        assert_eq!(a.churn[0].node, 1, "global 2 is rank 1 of {{0, 2, 4}}");
        assert!(a.churn[0].preserve_monitor);
        let b = restrict_fault(&plan, &[5, 7, 9]).expect("B keeps node 7's crash");
        assert_eq!(b.churn.len(), 1);
        assert_eq!(b.churn[0].node, 1, "global 7 is rank 1 of {{5, 7, 9}}");
        assert!(!b.churn[0].preserve_monitor);
        assert!(
            restrict_fault(&plan, &[10, 11]).is_none(),
            "a component with no fault targets gets no plan at all"
        );
    }
}
