//! The simulator workloads: the paper's Fig.-4 sweep through the
//! experiment engine, and the 10 000-node spatial campus through the
//! shard runner.

use std::path::Path;
use std::time::Duration;

use airguard_exp::{run_experiment, Axes, CellMetrics, Experiment, ResultCache, RunOptions};
use airguard_net::{Protocol, RunBudget, RunReport, ScenarioConfig, StandardScenario};
use airguard_obs::{fnv1a_hex, Phase, PhaseProfiler};
use airguard_sim::NodeId;

use crate::stats::{best, median, ratio};
use crate::{Params, Run, WORKERS};

/// The grid point the set-up simulates directly, as the reference the
/// engine's cell must reproduce bit for bit: TWO-FLOW at PM = 50.
const REFERENCE_POINT: usize = 16;

/// Simulated seconds of one campus run.
const CAMPUS_SECS: u64 = 1;

/// Misbehaving senders drawn in the campus.
const CAMPUS_MISBEHAVING: usize = 5;

/// The set-up's reduced campus has this fraction of the nodes.
const SETUP_CAMPUS_DIVISOR: usize = 25;

/// Fig. 4's grid: {ZERO-FLOW, TWO-FLOW} × PM 0..=100 step 10 under the
/// proposed protocol, 22 points.
fn fig4_grid() -> Experiment {
    let mut grid = Experiment::new("fig4", "Fig. 4 grid");
    for (key, scenario) in [
        ("zero", StandardScenario::ZeroFlow),
        ("two", StandardScenario::TwoFlow),
    ] {
        for step in 0..=10 {
            let pm = f64::from(step) * 10.0;
            grid.push(
                &Axes::new()
                    .with("scenario", key)
                    .with("pm", format!("{pm:.0}")),
                ScenarioConfig::new(scenario)
                    .protocol(Protocol::Correct)
                    .misbehavior_percent(pm),
            );
        }
    }
    grid
}

/// The sweep's seeds for workload seed `N`: `4(N−1)+1`, `4(N−1)+2`, …
fn sweep_seeds(params: &Params) -> Vec<u64> {
    let base = params.seed.wrapping_sub(1).wrapping_mul(4);
    (1..=params.scale.sweep_seeds.max(1))
        .map(|k| base.wrapping_add(k))
        .collect()
}

/// Content digest of a cell: every cached metric, floats bit-exact.
fn cell_digest(cell: &CellMetrics) -> String {
    fnv1a_hex(cell.to_cache_text().as_bytes())
}

/// Files and bytes under `dir`.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut usage = (0, 0);
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (files, bytes) = dir_usage(&entry.path());
            usage = (usage.0 + files, usage.1 + bytes);
        } else {
            usage = (usage.0 + 1, usage.1 + meta.len());
        }
    }
    usage
}

/// One run of the grid through the engine, in a fresh cache and
/// manifest directory, checked against the set-up's reference cell and
/// (when given) an earlier pass's cell digests.
struct Pass {
    wall: Duration,
    cell_walls_us: Vec<f64>,
    digests: Vec<String>,
    cells: u64,
    cache_bytes: u64,
    events: u64,
}

fn sweep_pass(
    run: &mut Run,
    grid: &Experiment,
    reference: &str,
    previous: Option<&[String]>,
    profiler: Option<PhaseProfiler>,
    index: usize,
) -> Pass {
    let dir = run.work.join(format!("sweep-pass-{index}"));
    let mut opts = RunOptions::new(1, run.params.scale.sweep_secs);
    opts.seeds = sweep_seeds(run.params);
    opts.workers = WORKERS;
    opts.cache = Some(ResultCache::new(dir.join("cache")));
    opts.manifest_dir = Some(dir.join("manifest"));
    opts.profiler = profiler;
    let (outcome, wall) = run
        .tracer
        .span("exp.run_experiment", || run_experiment(grid, &opts));
    let (cache_files, cache_bytes) = dir_usage(&dir.join("cache"));
    let _ = std::fs::remove_dir_all(&dir);

    let checks = &mut run.checks;
    let mut pass = Pass {
        wall,
        cell_walls_us: Vec::new(),
        digests: Vec::new(),
        cells: 0,
        cache_bytes,
        events: 0,
    };
    for (p, point) in outcome.result.points.iter().enumerate() {
        for (s, cell) in point.cells.iter().enumerate() {
            pass.cells += 1;
            checks.check(cell.is_ok(), || {
                format!("cell {} failed: {cell:?}", point.key)
            });
            let Ok(cell) = cell else { continue };
            let digest = cell_digest(cell);
            if p == REFERENCE_POINT && s == 0 {
                checks.check(digest == reference, || {
                    format!("engine cell {} differs from the direct run", point.key)
                });
            }
            pass.cell_walls_us.push(cell.wall_us as f64);
            pass.events += cell
                .counters
                .get("sim.events_dispatched")
                .copied()
                .unwrap_or(0);
            pass.digests.push(digest);
        }
    }
    if let Some(previous) = previous {
        checks.check(previous == pass.digests.as_slice(), || {
            "cell results differ between passes of the same seeds".to_owned()
        });
    }
    checks.check(outcome.warnings.is_empty(), || {
        format!("engine warnings: {:?}", outcome.warnings)
    });
    checks.check(cache_files == pass.cells, || {
        format!("{cache_files} cache files for {} cells", pass.cells)
    });
    pass
}

/// Sets the simulator's phase shares of `busy_ns`, plus the counts.
fn phase_metrics(run: &mut Run, profiler: &PhaseProfiler, busy_ns: f64) {
    let share = |phase| ratio(profiler.totals(phase).0 as f64, busy_ns);
    let shares = [
        ("sim.scheduler_pop_share", share(Phase::SchedulerPop)),
        (
            "phy.medium_propagation_share",
            share(Phase::MediumPropagation),
        ),
        ("mac.mac_step_share", share(Phase::MacStep)),
        ("core.monitor_step_share", share(Phase::MonitorStep)),
        ("net.shard_build_share", share(Phase::ShardBuild)),
        ("net.shard_merge_share", share(Phase::ShardMerge)),
    ];
    let phased: f64 = shares.iter().map(|&(_, s)| s).sum();
    for (name, value) in shares {
        run.set(name, value);
    }
    run.set("net.unphased_share", 1.0 - phased);
    let pops = profiler.totals(Phase::SchedulerPop).1 as f64;
    let transmissions = profiler.totals(Phase::MediumPropagation).1 as f64;
    run.set("sim.pops_per_tx", ratio(pops, transmissions));
    run.set("mac.mac_steps", profiler.totals(Phase::MacStep).1 as f64);
}

/// `sweep_fig4`: the Fig.-4 grid × the run's seeds, 2 workers, a fresh
/// result cache and manifest per pass, as the figure CLI runs it.
///
/// # Errors
///
/// Never: every failure is an oracle check.
pub(crate) fn sweep_fig4(run: &mut Run) -> Result<(), String> {
    let params = run.params;
    let (grid, reference) = run.setup(|| {
        let grid = fig4_grid();
        let cfg = grid.points[REFERENCE_POINT]
            .cfg
            .clone()
            .sim_time_secs(params.scale.sweep_secs)
            .seed(sweep_seeds(params)[0]);
        let reference = cell_digest(&CellMetrics::from_report(&cfg.run()));
        Ok((grid, reference))
    })?;

    if !params.trace {
        let mut first: Option<Vec<String>> = None;
        let mut best_cells_us: Vec<f64> = Vec::new();
        let (mut pass_walls, mut cells) = (Vec::new(), 0);
        run.measure(|run, i| {
            let pass = sweep_pass(run, &grid, &reference, first.as_deref(), None, i);
            if best_cells_us.is_empty() {
                best_cells_us.clone_from(&pass.cell_walls_us);
            }
            for (best, &wall) in best_cells_us.iter_mut().zip(&pass.cell_walls_us) {
                *best = best.min(wall);
            }
            pass_walls.push(pass.wall.as_secs_f64());
            cells = pass.cells;
            first.get_or_insert(pass.digests);
            run.checks.failed == 0
        });
        // Each cell repeats with identical inputs in every pass: its
        // latency is its best pass, and the workload's the median cell.
        run.set("latency_ms", median(&best_cells_us) / 1e3);
        run.set("throughput_per_s", cells as f64 / best(&pass_walls));
        return Ok(());
    }

    let plain = run.untraced(|run| sweep_pass(run, &grid, &reference, None, None, 0));
    let profiler = PhaseProfiler::enabled();
    let traced = sweep_pass(
        run,
        &grid,
        &reference,
        Some(&plain.digests),
        Some(profiler.clone()),
        1,
    );
    let busy_ns: f64 = traced.cell_walls_us.iter().sum::<f64>() * 1e3;
    phase_metrics(run, &profiler, busy_ns);
    run.set("sim.events", traced.events as f64);
    let plain_busy_s = plain.cell_walls_us.iter().sum::<f64>() / 1e6;
    run.set(
        "exp.worker_busy_share",
        ratio(plain_busy_s, WORKERS as f64 * plain.wall.as_secs_f64()),
    );
    let max_cell = plain.cell_walls_us.iter().copied().fold(0.0, f64::max);
    run.set(
        "exp.cell_max_over_p50",
        ratio(max_cell, median(&plain.cell_walls_us)),
    );
    run.set(
        "exp.cache_bytes_per_cell",
        ratio(plain.cache_bytes as f64, plain.cells as f64),
    );
    run.set(
        "bench.trace_overhead_share",
        traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0,
    );
    Ok(())
}

/// The campus configuration at `nodes` nodes.
fn campus(nodes: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig::new(StandardScenario::Campus)
        .protocol(Protocol::Correct)
        .misbehavior_percent(50.0)
        .random_nodes(nodes, CAMPUS_MISBEHAVING)
        .sim_time_secs(CAMPUS_SECS)
        .seed(seed)
        .spatial(true)
}

/// Checks one campus report against the set-up's expectations and the
/// run's first summary (recorded by the first call).
fn check_campus(
    run: &mut Run,
    report: &RunReport,
    expected: &[NodeId],
    first: &mut Option<String>,
) {
    let checks = &mut run.checks;
    let summary = report.summary.to_json();
    match first {
        None => *first = Some(summary),
        Some(first) => checks.check(summary == *first, || {
            "campus summary differs from the run's first summary".to_owned()
        }),
    }
    checks.check(report.misbehaving == expected, || {
        format!(
            "campus misbehaving set {:?}, expected {expected:?}",
            report.misbehaving
        )
    });
    checks.check(report.throughput.total_bytes() > 0, || {
        "campus delivered no payload".to_owned()
    });
}

/// One timed, checked campus run.
fn campus_run(
    run: &mut Run,
    cfg: &ScenarioConfig,
    expected: &[NodeId],
    first: &mut Option<String>,
) -> Duration {
    let (report, wall) = run.tracer.span("net.run_sharded", || cfg.run());
    check_campus(run, &report, expected, first);
    wall
}

/// `campus_10k`: the spatial campus at 2 shard workers. A traced run
/// adds a run at 1 worker, untraced and then profiled, so the phase
/// totals add up to its wall time; all its summaries must be equal.
///
/// # Errors
///
/// Never: every failure is an oracle check.
pub(crate) fn campus_10k(run: &mut Run) -> Result<(), String> {
    let params = run.params;
    let seed = params.seed.wrapping_mul(2).wrapping_sub(1);
    let (cfg, expected, nodes, shards_agree) = run.setup(|| {
        let cfg = campus(params.scale.campus_nodes, seed);
        let topology = cfg.build_topology();
        let expected = cfg.misbehaving_set(&topology);
        // The reduced campus is the shard oracle of untraced runs (1 and
        // 2 workers must agree byte for byte) and warms the allocator
        // and code before the first timed run.
        let reduced = campus(params.scale.campus_nodes / SETUP_CAMPUS_DIVISOR, seed);
        let serial = reduced.clone().shard_workers(1).run().summary.to_json();
        let parallel = reduced.shard_workers(WORKERS).run().summary.to_json();
        Ok((cfg, expected, topology.node_count(), serial == parallel))
    })?;
    run.checks.check(nodes > 0 && !expected.is_empty(), || {
        format!(
            "campus has {nodes} nodes and {} misbehaving",
            expected.len()
        )
    });
    run.checks.check(shards_agree, || {
        "reduced campus summaries differ between 1 and 2 shard workers".to_owned()
    });
    let parallel = cfg.clone().shard_workers(WORKERS);
    let mut first = None;

    if !params.trace {
        let mut walls = Vec::new();
        run.measure(|run, _| {
            let wall = campus_run(run, &parallel, &expected, &mut first);
            walls.push(wall.as_secs_f64());
            run.checks.failed == 0
        });
        let wall = best(&walls);
        run.set("latency_ms", wall * 1e3);
        run.set(
            "throughput_per_s",
            (nodes as u64 * CAMPUS_SECS) as f64 / wall,
        );
        return Ok(());
    }

    campus_run(run, &parallel, &expected, &mut first);
    let serial = cfg.shard_workers(1);
    let plain_wall = run.untraced(|run| campus_run(run, &serial, &expected, &mut first));
    let profiler = PhaseProfiler::enabled();
    let (profiled, traced_wall) = run.tracer.span("net.run_sharded_profiled", || {
        serial.run_budgeted_profiled(&RunBudget::unlimited(), profiler.clone())
    });
    match profiled {
        Ok(report) => {
            check_campus(run, &report, &expected, &mut first);
            run.set("sim.events", report.events as f64);
        }
        Err(e) => run.checks.fail(format!("profiled campus run: {e}")),
    }
    phase_metrics(run, &profiler, traced_wall.as_nanos() as f64);
    run.set(
        "bench.trace_overhead_share",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0,
    );
    Ok(())
}
