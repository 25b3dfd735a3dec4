//! `airguard-benchmark`: how every performance claim about airguard is
//! measured.
//!
//! Five seeded workloads drive the repository's crates through their
//! public API only: the Fig.-4 sweep through the experiment engine, a
//! 10 000-node spatial campus through the shard runner, and three
//! `airguard-live` feeds (closed-loop replay, an open loop at a fixed
//! rate over loopback TCP, and checkpoint/crash/restore). An untraced
//! run reports the end-to-end metrics ([`END_TO_END`]); a traced run
//! reports the per-layer split ([`PER_LAYER`]) and writes its spans as
//! a Chrome trace. Every run checks its outputs against oracles and
//! counts each check into `attempted`/`failed`.

pub mod feed;
mod hist;
pub mod live;
mod sim;
pub mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use trace::Tracer;

/// End-to-end metrics of an untraced run: `(name, unit)`. Each has the
/// same name on every workload; what its unit of work is depends on
/// the workload (see the README).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Shares are of the
/// workload's timed wall; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("sim.events", "count"),
    ("sim.pops_per_tx", "ratio"),
    ("sim.scheduler_pop_share", "ratio"),
    ("phy.medium_propagation_share", "ratio"),
    ("mac.mac_steps", "count"),
    ("mac.mac_step_share", "ratio"),
    ("core.monitor_step_share", "ratio"),
    ("net.unphased_share", "ratio"),
    ("net.shard_build_share", "ratio"),
    ("net.shard_merge_share", "ratio"),
    ("exp.worker_busy_share", "ratio"),
    ("exp.cell_max_over_p50", "ratio"),
    ("exp.cache_bytes_per_cell", "B"),
    ("live.decode_share", "ratio"),
    ("live.detect_share", "ratio"),
    ("live.queue_share", "ratio"),
    ("live.coordination_share", "ratio"),
    ("live.route_skew", "ratio"),
    ("live.shard_speedup", "ratio"),
    ("live.checkpoints_written", "count"),
    ("live.checkpoint_bytes", "B"),
    ("live.checkpoint_share", "ratio"),
    ("live.restore_load_share", "ratio"),
    ("live.restore_skip_share", "ratio"),
    ("live.restore_skipped_records", "count"),
    ("paced.lag_p99_over_p50", "ratio"),
    ("paced.late_share", "ratio"),
    ("paced.drain_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Worker threads, shard workers and live shards every workload uses:
/// sized for a 2-core box, and fixed so a result never depends on the
/// machine's core count.
pub const WORKERS: usize = 2;

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig.-4 grid through the experiment engine.
    SweepFig4,
    /// A 10 000-node spatial campus at 2 shard workers.
    Campus10k,
    /// A JSONL feed replayed through `airguard_live::run` as fast as the
    /// feeder pulls.
    LiveReplay,
    /// The feed at a fixed rate over one loopback TCP connection.
    LivePaced,
    /// Checkpoint, crash, and restore over the feed.
    LiveRestore,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::SweepFig4,
        Workload::Campus10k,
        Workload::LiveReplay,
        Workload::LivePaced,
        Workload::LiveRestore,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepFig4 => "sweep_fig4",
            Workload::Campus10k => "campus_10k",
            Workload::LiveReplay => "live_replay",
            Workload::LivePaced => "live_paced",
            Workload::LiveRestore => "live_restore",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Names the accepted workloads when `name` is none of them.
    pub fn from_name(name: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// Workload sizes: [`Scale::full`] is what the benchmark measures,
/// [`Scale::tiny`] what the tests run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// Seeds per Fig.-4 pass (each pass runs the 22-point grid × these).
    pub sweep_seeds: u64,
    /// Simulated seconds per Fig.-4 cell.
    pub sweep_secs: u64,
    /// Campus topology size.
    pub campus_nodes: usize,
    /// Records in the replay and restore feeds.
    pub feed_records: u64,
    /// Station population of every feed.
    pub feed_stations: u32,
    /// Microseconds between records; `live_paced` sends at
    /// `1e6 / feed_spacing_us` records per second.
    pub feed_spacing_us: u64,
    /// Feed prefix the isolated live-layer passes read in a traced run.
    pub layer_records: u64,
}

impl Scale {
    /// The measured sizes.
    #[must_use]
    pub fn full() -> Self {
        Scale {
            sweep_seeds: 2,
            sweep_secs: 10,
            campus_nodes: 10_000,
            feed_records: 100_000,
            feed_stations: 4096,
            feed_spacing_us: 10,
            layer_records: 100_000,
        }
    }

    /// Sizes small enough for a debug-build test.
    #[must_use]
    pub fn tiny() -> Self {
        Scale {
            sweep_seeds: 1,
            sweep_secs: 1,
            campus_nodes: 200,
            feed_records: 3_000,
            feed_stations: 64,
            feed_spacing_us: 100,
            layer_records: 2_000,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Traced run: per-layer metrics and a span file instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Where scratch files and trace files go (`target/benchmark`).
    pub out_dir: PathBuf,
}

/// Oracle accounting: every check is attempted, some fail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks and operations attempted.
    pub attempted: u64,
    /// Checks and operations that failed.
    pub failed: u64,
    /// The first failure messages (bounded).
    pub messages: Vec<String>,
}

impl Checks {
    const MAX_MESSAGES: usize = 20;

    /// Counts one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < Self::MAX_MESSAGES {
                self.messages.push(what());
            }
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, message: impl Into<String>) {
        let message = message.into();
        self.check(false, || message);
    }
}

/// A running workload's state: its settings, tracer, checks and the
/// metrics measured so far.
#[derive(Debug)]
pub(crate) struct Run<'a> {
    /// The run's settings.
    pub(crate) params: &'a Params,
    /// Scratch directory, deleted when the run ends.
    pub(crate) work: &'a Path,
    /// Spans around every layer call.
    pub(crate) tracer: Tracer,
    /// Oracle accounting.
    pub(crate) checks: Checks,
    metrics: BTreeMap<&'static str, f64>,
}

impl Run<'_> {
    /// Records metric `name`; it must be one of the run's metric set.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = if self.params.trace {
            PER_LAYER.iter().any(|&(n, _)| n == name)
        } else {
            END_TO_END.iter().any(|&(n, _)| n == name)
        };
        assert!(known, "metric `{name}` is not in this run's metric set");
        self.metrics.insert(name, value);
    }

    /// Runs the workload's set-up: [`SETUP_REPS`] times in an untraced
    /// run, recording the median as `setup_s`, once in a traced run.
    /// Returns the last repetition's result.
    ///
    /// # Errors
    ///
    /// The first set-up failure.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let reps = if self.params.trace { 1 } else { SETUP_REPS };
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let (result, elapsed) = self.tracer.span("bench.setup", &mut build);
            times.push(elapsed.as_secs_f64());
            last = Some(result?);
        }
        if !self.params.trace {
            self.set("setup_s", stats::median(&times));
        }
        last.ok_or_else(|| "set-up ran zero times".to_owned())
    }

    /// Runs `f` with span recording off: the plain operation a traced
    /// run compares its traced operation against.
    pub fn untraced<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let recording = std::mem::replace(&mut self.tracer, Tracer::new(false));
        let value = f(self);
        self.tracer = recording;
        value
    }

    /// Repeats `op` until the run's measuring time is used up (at least
    /// once), stopping early when it reports a failed operation by
    /// returning `false`. Peak RSS is taken after the first repetition:
    /// later ones redo identical work in memory the allocator already
    /// holds, and how many fit in the time depends on the box's speed.
    pub fn measure(&mut self, mut op: impl FnMut(&mut Self, usize) -> bool) {
        let deadline = Instant::now() + self.params.seconds;
        let mut i = 0;
        loop {
            let go_on = op(self, i);
            if i == 0 {
                self.record_peak_rss();
            }
            if !go_on || Instant::now() >= deadline {
                break;
            }
            i += 1;
        }
    }

    /// Sets `peak_rss_mb` from the process's `VmHWM` (untraced runs).
    fn record_peak_rss(&mut self) {
        if self.params.trace {
            return;
        }
        match peak_rss_mb() {
            Some(mb) => self.set("peak_rss_mb", mb),
            None => self.checks.fail("VmHWM unreadable from /proc/self/status"),
        }
    }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Oracle accounting.
    pub checks: Checks,
    /// `(name, unit, value)` for every metric of the run's set.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The span file a traced run wrote.
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The one-line JSON result (the last line a run prints).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.checks.attempted,
            self.checks.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Deletes the run's scratch directory when dropped, so feeds, caches
/// and checkpoints go away on every exit path, a failed check included.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores available to this process (printed with every run).
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one workload.
///
/// # Errors
///
/// Fails when the scratch directory or the trace file cannot be
/// written, or the workload's set-up fails. Failed operations and
/// oracle checks are not errors: they are counted in the report.
pub fn run_workload(workload: Workload, params: &Params) -> Result<Report, String> {
    let work = WorkDir(params.out_dir.join(format!(
        "work-{}-seed{}-{}",
        workload.name(),
        params.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let mut run = Run {
        params,
        work: &work.0,
        tracer: Tracer::new(params.trace),
        checks: Checks::default(),
        metrics: BTreeMap::new(),
    };
    match workload {
        Workload::SweepFig4 => sim::sweep_fig4(&mut run)?,
        Workload::Campus10k => sim::campus_10k(&mut run)?,
        Workload::LiveReplay => live::replay(&mut run)?,
        Workload::LivePaced => live::paced(&mut run)?,
        Workload::LiveRestore => live::restore(&mut run)?,
    }
    let trace_file = if params.trace {
        let path = params.out_dir.join(format!(
            "{}-seed{}.trace.json",
            workload.name(),
            params.seed
        ));
        std::fs::write(&path, run.tracer.chrome_json(workload.name()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Some(path)
    } else {
        if !run.metrics.contains_key("peak_rss_mb") {
            run.record_peak_rss();
        }
        None
    };
    let set: &[(&'static str, &'static str)] = if params.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = Vec::with_capacity(set.len());
    for &(name, unit) in set {
        let value = match run.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            // A bypassed layer did no work; a missing end-to-end metric
            // means the workload failed before measuring it.
            None if params.trace => 0.0,
            other => {
                run.checks
                    .fail(format!("metric {name} was not measured ({other:?})"));
                0.0
            }
        };
        metrics.push((name, unit, value));
    }
    Ok(Report {
        workload,
        checks: run.checks,
        metrics,
        trace_file,
    })
}
