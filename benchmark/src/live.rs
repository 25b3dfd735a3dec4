//! The `airguard-live` workloads: a closed-loop replay, an open loop at
//! a fixed rate over loopback TCP, and checkpoint/crash/restore, all
//! over the seeded feed of [`crate::feed`].
//!
//! A traced run of each also makes isolated passes over (a prefix of)
//! the same feed through the service's public pieces: JSONL decode, the
//! core detectors, the bounded channel, and the engine at 1 and 2
//! shards. Their times as shares of the 1-shard engine time are the
//! live layer split.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use airguard_core::{
    CorrectionConfig, DetectorConfig, DeviationDetector, DiagnosisConfig, ObservationSource,
    SourceError, StationObservation,
};
use airguard_live::{
    bounded, run as live_run, shard_of, Checkpoint, JsonlSource, LiveConfig, LiveOutcome,
    SocketSource, StationVerdict,
};
use airguard_mac::BackoffObservation;

use crate::feed::{is_misbehaving, write_feed, FeedSpec, FeedStats};
use crate::hist::LogHistogram;
use crate::stats::{best, median, ratio};
use crate::{Checks, Run, WORKERS};

/// Shards of every service run except the 1-shard layer pass.
const SHARDS: u32 = WORKERS as u32;

/// The open loop is invalid when the generator's p99 lateness exceeds
/// this: the service was then not offered the scheduled load.
const LATE_LIMIT_NS: u64 = 1_000_000;

/// Time between binding the listener and the first due record, so the
/// connection and the service are up before the schedule starts.
const PACED_LEAD: Duration = Duration::from_millis(50);

/// Records the generator writes in one burst at most, bounding its
/// buffer if it falls behind.
const MAX_BURST: u64 = 256;

/// `live_paced` reports the median of per-window lag p50s; a window is
/// this much schedule, in microseconds.
const WINDOW_US: u64 = 1_000_000;

/// Each isolated live-layer pass runs this many times; its time is the
/// best.
const LAYER_REPS: usize = 3;

/// `live_restore` snapshots every `records / CHECKPOINT_DIVISOR`
/// records and crashes after `CRASH_SNAPSHOTS` of them.
const CHECKPOINT_DIVISOR: u64 = 10;
const CRASH_SNAPSHOTS: u64 = 6;

/// The generated feed file and what went into it.
#[derive(Debug)]
struct Feed {
    path: PathBuf,
    stats: FeedStats,
    records: u64,
}

/// Writes the feed (the live workloads' set-up).
fn make_feed(run: &mut Run, records: u64) -> Result<Feed, String> {
    let params = run.params;
    let path = run.work.join("feed.jsonl");
    let spec = FeedSpec {
        seed: params.seed,
        records,
        stations: params.scale.feed_stations,
        spacing_us: params.scale.feed_spacing_us,
    };
    let stats = run.setup(|| {
        let file = File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        write_feed(spec, BufWriter::new(file)).map_err(|e| format!("write feed: {e}"))
    })?;
    Ok(Feed {
        path,
        stats,
        records,
    })
}

fn open(path: &Path) -> Result<JsonlSource<File>, String> {
    JsonlSource::open(path).map_err(|e| e.to_string())
}

/// Opens the feed for a service run; a failure is counted and yields
/// `None`.
fn open_checked(run: &mut Run, feed: &Feed) -> Option<JsonlSource<File>> {
    open(&feed.path).map_err(|e| run.checks.fail(e)).ok()
}

/// Checks the service's verdicts against the generator's per-station
/// counts: every station that sent records has exactly that many
/// observations and no other station appears; every misbehaving station
/// with at least W observations is flagged; no honest station is.
pub fn check_verdicts(counts: &[u64], verdicts: &[StationVerdict], checks: &mut Checks) {
    let window = DiagnosisConfig::paper_default().window as u64;
    let mut seen = vec![false; counts.len()];
    for verdict in verdicts {
        let sent = counts.get(verdict.station as usize).copied().unwrap_or(0);
        if sent == 0 {
            checks.fail(format!(
                "station {} has a verdict but sent nothing",
                verdict.station
            ));
            continue;
        }
        seen[verdict.station as usize] = true;
        let flag_ok = if is_misbehaving(verdict.station) {
            sent < window || verdict.flagged > 0
        } else {
            verdict.flagged == 0
        };
        checks.check(verdict.observations == sent && flag_ok, || {
            format!(
                "station {}: {} observations of {sent} sent, flagged {} times (misbehaving: {})",
                verdict.station,
                verdict.observations,
                verdict.flagged,
                is_misbehaving(verdict.station)
            )
        });
    }
    for (station, (&sent, &seen)) in counts.iter().zip(&seen).enumerate() {
        if sent > 0 && !seen {
            checks.fail(format!(
                "station {station} sent {sent} records but has no verdict"
            ));
        }
    }
}

/// Checks a finished run: verdicts, nothing quarantined, shed, sampled
/// away or isolated, every record consumed, and a summary equal to the
/// run's first one (recorded by the first call).
fn check_outcome(
    checks: &mut Checks,
    counts: &[u64],
    records: u64,
    outcome: &LiveOutcome,
    first: &mut Option<String>,
) {
    check_verdicts(counts, &outcome.verdicts, checks);
    let counters = &outcome.summary.counters;
    for name in [
        "live.quarantined",
        "live.shed_dropped",
        "live.sampled_out",
        "live.shards_quarantined",
    ] {
        let value = counters.get(name).copied();
        checks.check(value == Some(0), || format!("{name} = {value:?}"));
    }
    let consumed = counters.get("live.consumed").copied();
    checks.check(consumed == Some(records), || {
        format!("consumed {consumed:?} of {records} records")
    });
    let summary = outcome.summary.to_json();
    match first {
        None => *first = Some(summary),
        Some(first) => checks.check(summary == *first, || {
            "service summary differs from the run's first summary".to_owned()
        }),
    }
}

/// One timed service run; a failed run is counted and yields `None`.
fn serve(
    run: &mut Run,
    name: &'static str,
    config: &LiveConfig,
    source: &mut dyn ObservationSource,
) -> Option<(LiveOutcome, Duration)> {
    let (result, wall) = run.tracer.span(name, || live_run(config, source));
    match result {
        Ok(outcome) => Some((outcome, wall)),
        Err(e) => {
            run.checks.fail(format!("{name}: {e}"));
            None
        }
    }
}

/// Ends a source after `left` observations.
struct Take<S> {
    inner: S,
    left: u64,
}

impl<S: ObservationSource> ObservationSource for Take<S> {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        if self.left == 0 {
            return Ok(None);
        }
        let next = self.inner.next_observation()?;
        if next.is_some() {
            self.left -= 1;
        }
        Ok(next)
    }
}

/// The isolated live-layer passes over the feed's first
/// `scale.layer_records` records (see the module docs), each the best of
/// [`LAYER_REPS`]. When the prefix is the whole feed, the 2-shard
/// summary must also equal the workload's, `first`.
fn layer_metrics(run: &mut Run, feed: &Feed, first: Option<&str>) {
    let limit = run.params.scale.layer_records.min(feed.records);
    let mut decode = Duration::MAX;
    let mut observations = Vec::new();
    for _ in 0..LAYER_REPS {
        let (decoded, wall) = run
            .tracer
            .span("live.decode_pass", || decode_prefix(&feed.path, limit));
        match decoded {
            Ok(decoded) => observations = decoded,
            Err(e) => return run.checks.fail(e),
        }
        decode = decode.min(wall);
    }
    let mut counts = vec![0u64; feed.stats.counts.len()];
    for obs in &observations {
        if let Some(count) = counts.get_mut(obs.station as usize) {
            *count += 1;
        }
    }
    let (mut detect, mut queue) = (Duration::MAX, Duration::MAX);
    let mut flags = Vec::new();
    for _ in 0..LAYER_REPS {
        let (flagged, wall) = run.tracer.span("core.detect_pass", || {
            detect_pass(&observations, counts.len())
        });
        flags = flagged;
        detect = detect.min(wall);
        let (queued, wall) = run
            .tracer
            .span("live.queue_pass", || queue_pass(&observations));
        run.checks
            .check(queued == Ok(observations.len() as u64), || {
                format!(
                    "queue pass moved {queued:?} of {} observations",
                    observations.len()
                )
            });
        queue = queue.min(wall);
    }

    let services = [("live.run_1_shard", 1), ("live.run_2_shards", SHARDS)];
    let mut walls = [Duration::MAX; 2];
    let mut summaries: [Option<String>; 2] = [None, None];
    let mut engine_flags = vec![0u64; counts.len()];
    for _ in 0..LAYER_REPS {
        for (k, (name, shards)) in services.into_iter().enumerate() {
            let Some(source) = open_checked(run, feed) else {
                return;
            };
            let mut source = Take {
                inner: source,
                left: limit,
            };
            let Some((outcome, wall)) = serve(run, name, &LiveConfig::new(shards), &mut source)
            else {
                return;
            };
            check_outcome(&mut run.checks, &counts, limit, &outcome, &mut summaries[k]);
            walls[k] = walls[k].min(wall);
            if shards == 1 {
                for verdict in &outcome.verdicts {
                    if let Some(slot) = engine_flags.get_mut(verdict.station as usize) {
                        *slot = verdict.flagged;
                    }
                }
            }
        }
    }
    let [one, two] = &summaries;
    run.checks.check(one == two, || {
        "summaries differ between 1 and 2 shards".to_owned()
    });
    if limit == feed.records {
        run.checks.check(two.as_deref() == first, || {
            "layer-pass summary differs from the workload's".to_owned()
        });
    }
    run.checks.check(engine_flags == flags, || {
        "the engine's flag counts differ from the detectors run directly".to_owned()
    });

    let serial = walls[0].as_secs_f64();
    let (decode, detect) = (decode.as_secs_f64(), detect.as_secs_f64());
    run.set("live.decode_share", ratio(decode, serial));
    run.set("live.detect_share", ratio(detect, serial));
    run.set("live.queue_share", ratio(queue.as_secs_f64(), serial));
    run.set(
        "live.coordination_share",
        1.0 - ratio(decode + detect, serial),
    );
    run.set("live.shard_speedup", ratio(serial, walls[1].as_secs_f64()));
    let mut per_shard = vec![0u64; SHARDS as usize];
    for (station, &count) in feed.stats.counts.iter().enumerate() {
        let station = u32::try_from(station).unwrap_or(u32::MAX);
        per_shard[shard_of(station, SHARDS) as usize] += count;
    }
    let busiest = per_shard.iter().copied().max().unwrap_or(0) as f64;
    run.set(
        "live.route_skew",
        ratio(busiest, feed.records as f64 / f64::from(SHARDS)),
    );
}

/// Decodes up to `limit` observations with the service's JSONL source.
fn decode_prefix(path: &Path, limit: u64) -> Result<Vec<StationObservation>, String> {
    let mut source = open(path)?;
    let mut decoded = Vec::with_capacity(usize::try_from(limit).unwrap_or(0));
    while (decoded.len() as u64) < limit {
        match source.next_observation() {
            Ok(Some(obs)) => decoded.push(obs),
            Ok(None) => break,
            Err(e) => return Err(format!("decode pass: {e}")),
        }
    }
    Ok(decoded)
}

/// Runs the service's default detector per station, in feed order,
/// exactly as a shard applies it; returns flag counts per station.
fn detect_pass(observations: &[StationObservation], stations: usize) -> Vec<u64> {
    let detector = DetectorConfig::Window;
    let diagnosis = DiagnosisConfig::paper_default();
    let correction = CorrectionConfig::paper_default();
    let mut detectors: Vec<Option<Box<dyn DeviationDetector>>> =
        (0..stations).map(|_| None).collect();
    let mut flagged = vec![0u64; stations];
    for obs in observations {
        let station = obs.station as usize;
        let Some(slot) = detectors.get_mut(station) else {
            continue;
        };
        let state = slot.get_or_insert_with(|| detector.build(diagnosis));
        let deviation = correction.deviation(obs.assigned_slots, obs.observed_slots);
        let backoff = BackoffObservation {
            assigned_slots: obs.assigned_slots,
            observed_slots: obs.observed_slots,
            deviation_slots: deviation,
            penalty_slots: correction.penalty(deviation),
        };
        if state.observe(Some(&backoff), diagnosis.thresh).flagged {
            flagged[station] += 1;
        }
    }
    flagged
}

/// Moves every observation through the service's bounded channel from a
/// producer thread to this one; returns how many arrived.
fn queue_pass(observations: &[StationObservation]) -> Result<u64, String> {
    let (tx, rx) = bounded::<StationObservation>(LiveConfig::new(1).queue_capacity);
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            for obs in observations {
                tx.send(*obs)
                    .map_err(|e| format!("queue pass send: {e:?}"))?;
            }
            Ok::<(), String>(())
        });
        let mut received = 0u64;
        while let Some(obs) = rx.recv() {
            std::hint::black_box(obs);
            received += 1;
        }
        producer
            .join()
            .map_err(|_| "queue pass producer panicked".to_owned())??;
        Ok(received)
    })
}

/// One replay of the whole feed at 2 shards, checked.
fn replay_once(run: &mut Run, feed: &Feed, first: &mut Option<String>) -> Option<Duration> {
    let mut source = open_checked(run, feed)?;
    let (outcome, wall) = serve(run, "live.run", &LiveConfig::new(SHARDS), &mut source)?;
    check_outcome(
        &mut run.checks,
        &feed.stats.counts,
        feed.records,
        &outcome,
        first,
    );
    Some(wall)
}

/// `live_replay`: the feed streamed from its file through
/// `airguard_live::run` at 2 shards, as fast as the feeder pulls.
///
/// # Errors
///
/// The feed cannot be written.
pub(crate) fn replay(run: &mut Run) -> Result<(), String> {
    let feed = make_feed(run, run.params.scale.feed_records)?;
    let mut first = None;
    if !run.params.trace {
        let mut walls = Vec::new();
        run.measure(|run, _| match replay_once(run, &feed, &mut first) {
            Some(wall) => {
                walls.push(wall.as_secs_f64());
                run.checks.failed == 0
            }
            None => false,
        });
        if !walls.is_empty() {
            let wall = best(&walls);
            run.set("latency_ms", wall * 1e3);
            run.set("throughput_per_s", feed.records as f64 / wall);
        }
        return Ok(());
    }
    let plain = run.untraced(|run| replay_once(run, &feed, &mut first));
    let traced = replay_once(run, &feed, &mut first);
    if let (Some(plain), Some(traced)) = (plain, traced) {
        run.set(
            "bench.trace_overhead_share",
            traced.as_secs_f64() / plain.as_secs_f64() - 1.0,
        );
    }
    layer_metrics(run, &feed, first.as_deref());
    Ok(())
}

/// Stamps each observation's admission lag: the time from its due time
/// (`start + t_us`) to the moment the service's feeder pulls it. Keeps
/// the whole run's histogram and the p50 of each window of schedule.
struct Lagged<S> {
    inner: S,
    start: Instant,
    lag: LogHistogram,
    window: LogHistogram,
    window_index: u64,
    window_p50s: Vec<f64>,
    last_admit: Instant,
}

impl<S> Lagged<S> {
    fn new(inner: S, start: Instant) -> Self {
        Lagged {
            inner,
            start,
            lag: LogHistogram::new(),
            window: LogHistogram::new(),
            window_index: 0,
            window_p50s: Vec::new(),
            last_admit: start,
        }
    }

    fn close_window(&mut self) {
        if self.window.count() > 0 {
            self.window_p50s.push(self.window.quantile(0.5));
            self.window = LogHistogram::new();
        }
    }
}

impl<S: ObservationSource> ObservationSource for Lagged<S> {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        let next = self.inner.next_observation()?;
        if let Some(obs) = &next {
            let now = Instant::now();
            let due = self.start + Duration::from_micros(obs.t_us);
            let lag =
                u64::try_from(now.saturating_duration_since(due).as_nanos()).unwrap_or(u64::MAX);
            let index = obs.t_us.saturating_sub(1) / WINDOW_US;
            if index != self.window_index {
                self.close_window();
                self.window_index = index;
            }
            self.lag.record(lag);
            self.window.record(lag);
            self.last_admit = now;
        }
        Ok(next)
    }
}

/// What the open-loop generator measured about itself.
struct Pacing {
    /// Write time minus due time, per record, nanoseconds.
    late: LogHistogram,
    /// Records written more than [`LATE_LIMIT_NS`] after due.
    late_records: u64,
}

/// The open-loop generator: writes each record of the feed file to
/// `stream` once it is due (record `i` at `start + (i + 1) * spacing`),
/// whatever the service is doing, reading the file a chunk at a time.
fn pace(
    mut stream: TcpStream,
    file: File,
    records: u64,
    spacing: Duration,
    start: Instant,
) -> Result<Pacing, String> {
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut batch = Vec::with_capacity(1 << 16);
    let mut pacing = Pacing {
        late: LogHistogram::new(),
        late_records: 0,
    };
    let spacing_ns = u64::try_from(spacing.as_nanos()).unwrap_or(u64::MAX).max(1);
    let due_at = |i: u64| start + Duration::from_nanos(spacing_ns.saturating_mul(i + 1));
    let mut sent = 0u64;
    while sent < records {
        let now = Instant::now();
        let elapsed =
            u64::try_from(now.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        let due = (elapsed / spacing_ns).min(records).min(sent + MAX_BURST);
        if due <= sent {
            std::thread::sleep(due_at(sent).saturating_duration_since(now));
            continue;
        }
        batch.clear();
        for _ in sent..due {
            let n = reader
                .read_until(b'\n', &mut batch)
                .map_err(|e| format!("read feed: {e}"))?;
            if n == 0 {
                return Err("feed file ended before the schedule".to_owned());
            }
        }
        stream
            .write_all(&batch)
            .map_err(|e| format!("send feed: {e}"))?;
        let written = Instant::now();
        for i in sent..due {
            let late = written.saturating_duration_since(due_at(i)).as_nanos();
            let late = u64::try_from(late).unwrap_or(u64::MAX);
            pacing.late.record(late);
            if late > LATE_LIMIT_NS {
                pacing.late_records += 1;
            }
        }
        sent = due;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    Ok(pacing)
}

/// One open-loop run, measured.
struct Paced {
    lag: LogHistogram,
    /// Lag p50 of each window of schedule.
    window_p50s: Vec<f64>,
    pacing: Pacing,
    /// First due time to the last admission.
    admit_span: Duration,
    /// Last due time to the service returning its verdicts.
    drain: Duration,
    /// The schedule's length.
    schedule: Duration,
    wall: Duration,
}

/// Streams the feed over one loopback TCP connection (`TCP_NODELAY`)
/// on its schedule into the service at 2 shards, checked.
fn paced_once(run: &mut Run, feed: &Feed, first: &mut Option<String>) -> Option<Paced> {
    let spacing = Duration::from_micros(run.params.scale.feed_spacing_us);
    let setup = || -> Result<(SocketSource, TcpStream, File), String> {
        let source = SocketSource::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = source.local_addr().map_err(|e| e.to_string())?;
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let file = File::open(&feed.path).map_err(|e| format!("open feed: {e}"))?;
        Ok((source, stream, file))
    };
    let (source, stream, file) = match setup() {
        Ok(parts) => parts,
        Err(e) => {
            run.checks.fail(e);
            return None;
        }
    };
    let start = Instant::now() + PACED_LEAD;
    let records = feed.records;
    let (served, lagged, generated, finished) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || pace(stream, file, records, spacing, start));
        let mut source = Take {
            inner: Lagged::new(source, start),
            left: records,
        };
        let served = serve(run, "live.run", &LiveConfig::new(SHARDS), &mut source);
        let finished = Instant::now();
        source.inner.close_window();
        let Lagged {
            inner: socket,
            lag,
            window_p50s,
            last_admit,
            ..
        } = source.inner;
        // Closing the connection stops a generator still writing to a
        // service that failed, instead of leaving it blocked.
        drop(socket);
        let generated = generator
            .join()
            .unwrap_or_else(|_| Err("generator panicked".to_owned()));
        (served, (lag, window_p50s, last_admit), generated, finished)
    });
    let pacing = match generated {
        Ok(pacing) => pacing,
        Err(e) => {
            run.checks.fail(e);
            return None;
        }
    };
    let (outcome, wall) = served?;
    check_outcome(
        &mut run.checks,
        &feed.stats.counts,
        records,
        &outcome,
        first,
    );
    let late_p99 = pacing.late.quantile(0.99);
    run.checks.check(late_p99 <= LATE_LIMIT_NS as f64, || {
        format!("generator p99 lateness {late_p99:.0} ns: the open loop was not honoured")
    });
    let (lag, window_p50s, last_admit) = lagged;
    let schedule = spacing.saturating_mul(u32::try_from(records).unwrap_or(u32::MAX));
    Some(Paced {
        lag,
        window_p50s,
        pacing,
        admit_span: last_admit.saturating_duration_since(start),
        drain: finished.saturating_duration_since(start + schedule),
        schedule,
        wall,
    })
}

/// `live_paced`: the feed offered at a fixed rate (one record per
/// `feed_spacing_us`) for the run's measuring time, open loop.
///
/// # Errors
///
/// The feed cannot be written.
pub(crate) fn paced(run: &mut Run) -> Result<(), String> {
    let params = run.params;
    let spacing_s = params.scale.feed_spacing_us as f64 / 1e6;
    let records = ((params.seconds.as_secs_f64() / spacing_s).round() as u64).max(1);
    let feed = make_feed(run, records)?;
    let mut first = None;
    if !params.trace {
        if let Some(paced) = paced_once(run, &feed, &mut first) {
            // The median window resists the seconds a shared box steals.
            run.set("latency_ms", median(&paced.window_p50s) / 1e6);
            run.set(
                "throughput_per_s",
                ratio(records as f64, paced.admit_span.as_secs_f64()),
            );
        }
        return Ok(());
    }
    let plain = run.untraced(|run| paced_once(run, &feed, &mut first));
    if let Some(traced) = paced_once(run, &feed, &mut first) {
        let p50 = traced.lag.quantile(0.5);
        run.set(
            "paced.lag_p99_over_p50",
            ratio(traced.lag.quantile(0.99), p50),
        );
        run.set(
            "paced.late_share",
            ratio(traced.pacing.late_records as f64, records as f64),
        );
        run.set(
            "paced.drain_share",
            ratio(traced.drain.as_secs_f64(), traced.schedule.as_secs_f64()),
        );
        if let Some(plain) = plain {
            run.set(
                "bench.trace_overhead_share",
                traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0,
            );
        }
    }
    layer_metrics(run, &feed, first.as_deref());
    Ok(())
}

/// Records how long the restored service spends pulling the records its
/// checkpoint already covers, before the first new one.
struct SkipProbe<S> {
    inner: S,
    skip: u64,
    pulled: u64,
    started: Option<Instant>,
    skipped_in: Duration,
}

impl<S: ObservationSource> ObservationSource for SkipProbe<S> {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        let started = *self.started.get_or_insert_with(Instant::now);
        let next = self.inner.next_observation();
        self.pulled += 1;
        if self.pulled == self.skip {
            self.skipped_in = started.elapsed();
        }
        next
    }
}

/// `(snapshot interval, crash point)` in records for a feed of `records`.
fn crash_schedule(records: u64) -> (u64, u64) {
    let every = (records / CHECKPOINT_DIVISOR).max(1);
    (every, every * CRASH_SNAPSHOTS)
}

/// One crash/restore cycle, measured.
struct Restored {
    crash_leg: Duration,
    restore_leg: Duration,
    checkpoints: u64,
    checkpoint_bytes: u64,
    write: Duration,
    load: Duration,
    skipped: u64,
    skipped_in: Duration,
}

/// Leg 1 checkpoints every tenth of the feed and crashes after the
/// sixth snapshot; the newest snapshot is then loaded and rewritten
/// (timed); leg 2 restarts from the checkpoint directory and finishes.
fn restore_once(
    run: &mut Run,
    feed: &Feed,
    index: usize,
    first: &mut Option<String>,
) -> Option<Restored> {
    let dir = run.work.join(format!("checkpoints-{index}"));
    let copy = run.work.join(format!("checkpoint-copy-{index}"));
    let result = restore_legs(run, feed, &dir, &copy, first);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
    result
}

fn restore_legs(
    run: &mut Run,
    feed: &Feed,
    dir: &Path,
    copy: &Path,
    first: &mut Option<String>,
) -> Option<Restored> {
    let (every, crash_at) = crash_schedule(feed.records);
    let mut config = LiveConfig::new(SHARDS);
    config.checkpoint_dir = Some(dir.to_path_buf());
    config.checkpoint_every = every;
    config.stop_after = Some(crash_at);
    let mut source = open_checked(run, feed)?;
    let (crashed, crash_leg) = serve(run, "live.run_until_crash", &config, &mut source)?;
    run.checks.check(
        crashed.crashed && crashed.checkpoints_written == CRASH_SNAPSHOTS,
        || {
            format!(
                "leg 1: crashed {}, {} snapshots",
                crashed.crashed, crashed.checkpoints_written
            )
        },
    );

    let ((latest, warnings), load) = run
        .tracer
        .span("live.checkpoint_load", || Checkpoint::load_latest(dir));
    run.checks.check(warnings.is_empty(), || {
        format!("checkpoint warnings: {warnings:?}")
    });
    let Some((checkpoint, _)) = latest else {
        run.checks.fail("no checkpoint to restore from");
        return None;
    };
    run.checks.check(checkpoint.consumed == crash_at, || {
        format!(
            "newest checkpoint at {} records, crash at {crash_at}",
            checkpoint.consumed
        )
    });
    let (written, write) = run
        .tracer
        .span("live.checkpoint_write", || checkpoint.write(copy));
    let checkpoint_bytes = match written.and_then(std::fs::metadata) {
        Ok(meta) => meta.len(),
        Err(e) => {
            run.checks.fail(format!("checkpoint rewrite: {e}"));
            0
        }
    };

    config.stop_after = None;
    let mut source = SkipProbe {
        inner: open_checked(run, feed)?,
        skip: checkpoint.consumed,
        pulled: 0,
        started: None,
        skipped_in: Duration::ZERO,
    };
    let (restored, restore_leg) = serve(run, "live.run_restored", &config, &mut source)?;
    run.checks.check(restored.restored_from.is_some(), || {
        "leg 2 did not restore from a checkpoint".to_owned()
    });
    check_outcome(
        &mut run.checks,
        &feed.stats.counts,
        feed.records,
        &restored,
        first,
    );
    Some(Restored {
        crash_leg,
        restore_leg,
        checkpoints: crashed.checkpoints_written,
        checkpoint_bytes,
        write,
        load,
        skipped: checkpoint.consumed,
        skipped_in: source.skipped_in,
    })
}

/// `live_restore`: checkpoint, crash and restore over the feed at 2
/// shards, as `restore_legs` describes.
///
/// # Errors
///
/// The feed cannot be written.
pub(crate) fn restore(run: &mut Run) -> Result<(), String> {
    let feed = make_feed(run, run.params.scale.feed_records)?;
    let mut first = None;
    if !run.params.trace {
        let (mut crash_legs, mut restores) = (Vec::new(), Vec::new());
        run.measure(|run, i| match restore_once(run, &feed, i, &mut first) {
            Some(cycle) => {
                crash_legs.push(cycle.crash_leg.as_secs_f64());
                restores.push(cycle.restore_leg.as_secs_f64() * 1e3);
                run.checks.failed == 0
            }
            None => false,
        });
        if !restores.is_empty() {
            let (_, crash_at) = crash_schedule(feed.records);
            run.set("latency_ms", best(&restores));
            run.set("throughput_per_s", crash_at as f64 / best(&crash_legs));
        }
        return Ok(());
    }
    let plain = run.untraced(|run| restore_once(run, &feed, 0, &mut first));
    if let Some(cycle) = restore_once(run, &feed, 1, &mut first) {
        let (crash_leg, restore_leg) = (
            cycle.crash_leg.as_secs_f64(),
            cycle.restore_leg.as_secs_f64(),
        );
        run.set("live.checkpoints_written", cycle.checkpoints as f64);
        run.set("live.checkpoint_bytes", cycle.checkpoint_bytes as f64);
        run.set(
            "live.checkpoint_share",
            ratio(
                cycle.write.as_secs_f64() * cycle.checkpoints as f64,
                crash_leg,
            ),
        );
        run.set(
            "live.restore_load_share",
            ratio(cycle.load.as_secs_f64(), restore_leg),
        );
        run.set(
            "live.restore_skip_share",
            ratio(cycle.skipped_in.as_secs_f64(), restore_leg),
        );
        run.set("live.restore_skipped_records", cycle.skipped as f64);
        if let Some(plain) = plain {
            let plain_total = plain.crash_leg + plain.restore_leg;
            run.set(
                "bench.trace_overhead_share",
                (crash_leg + restore_leg) / plain_total.as_secs_f64() - 1.0,
            );
        }
    }
    layer_metrics(run, &feed, first.as_deref());
    Ok(())
}
