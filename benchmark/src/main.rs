//! `airguard-benchmark` command line.
//!
//! With one `--workload` it runs that workload in this process and
//! prints its metrics, then one JSON result line. Otherwise it runs each
//! requested workload (all five by default) in a child process of its
//! own, one at a time, so peak RSS is per workload; with `--repeat K` it
//! alternates the workloads K times, seeds `N..N+K`, and prints each
//! metric's median, quartiles and spreads.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use airguard_benchmark::{cores, run_workload, stats, Params, Scale, Workload};
use airguard_live::json::JsonValue;

const USAGE: &str = "usage: airguard-benchmark [--workload NAME]... [--seed N] [--seconds S] \
[--trace 0|1] [--repeat K]

  --workload NAME  sweep_fig4, campus_10k, live_replay, live_paced or live_restore
                   (repeatable; default: all, each in its own process)
  --seed N         workload seed; every input is generated from it (default 1)
  --seconds S      how long each run measures (default 15)
  --trace 0|1      1: per-layer metrics and target/benchmark/<workload>-seed<N>.trace.json
                   instead of the end-to-end metrics (default 0)
  --repeat K       run the workloads K times, seeds N..N+K, and summarise each metric";

/// Where scratch and trace files go, relative to the working directory.
const OUT_DIR: &str = "target/benchmark";

#[derive(Debug)]
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workloads.push(Workload::from_name(&value()?)?),
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
                }
                cli.seconds = seconds;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--repeat" => {
                let k: u64 = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if k == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
                cli.repeat = Some(k);
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Runs one workload here and prints its result.
fn run_here(cli: &Cli, workload: Workload) -> ExitCode {
    let params = Params {
        seed: cli.seed,
        seconds: Duration::from_secs_f64(cli.seconds),
        trace: cli.trace,
        scale: Scale::full(),
        out_dir: PathBuf::from(OUT_DIR),
    };
    let report = match run_workload(workload, &params) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("airguard-benchmark: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} cores {}",
        workload.name(),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        cores()
    );
    for (name, unit, value) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    for message in &report.checks.messages {
        eprintln!("check failed: {message}");
    }
    if let Some(path) = &report.trace_file {
        println!("# trace {}", path.display());
    }
    println!("{}", report.to_json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric's samples across child runs.
struct Series {
    workload: &'static str,
    metric: String,
    unit: String,
    values: Vec<f64>,
}

/// Runs each workload in a child process, `rounds` times alternating
/// the workloads, and summarises the metrics when there is more than
/// one round.
fn run_children(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("airguard-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads = if cli.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        cli.workloads.clone()
    };
    let rounds = cli.repeat.unwrap_or(1);
    let mut series: Vec<Series> = Vec::new();
    let mut all_ok = true;
    for round in 0..rounds {
        for workload in &workloads {
            let seed = cli.seed.wrapping_add(round);
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if cli.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("airguard-benchmark: cannot start {}: {e}", workload.name());
                    all_ok = false;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            all_ok &= output.status.success();
            let parsed = stdout.lines().last().map(JsonValue::parse);
            let Some(Ok(result)) = parsed else {
                eprintln!("airguard-benchmark: {} printed no result", workload.name());
                all_ok = false;
                continue;
            };
            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                continue;
            };
            for (name, metric) in metrics {
                let (Some(value), Some(unit)) = (
                    metric.get("value").and_then(JsonValue::as_f64),
                    metric.get("unit").and_then(JsonValue::as_str),
                ) else {
                    continue;
                };
                match series
                    .iter_mut()
                    .find(|s| s.workload == workload.name() && s.metric == *name)
                {
                    Some(s) => s.values.push(value),
                    None => series.push(Series {
                        workload: workload.name(),
                        metric: name.clone(),
                        unit: unit.to_owned(),
                        values: vec![value],
                    }),
                }
            }
        }
    }
    if rounds > 1 {
        println!(
            "# summary over {rounds} runs per workload ({} cores): median q1 q3 (q3-q1)/median (max-min)/median",
            cores()
        );
        for s in &series {
            let Some((q1, q2, q3)) = stats::quartiles(&s.values) else {
                continue;
            };
            let max = s.values.iter().copied().fold(f64::MIN, f64::max);
            let min = s.values.iter().copied().fold(f64::MAX, f64::min);
            println!(
                "summary {} {} {q2:.6} {q1:.6} {q3:.6} {:.4} {:.4} {}",
                s.workload,
                s.metric,
                stats::ratio(q3 - q1, q2.abs()),
                stats::ratio(max - min, q2.abs()),
                s.unit
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("airguard-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (cli.workloads.as_slice(), cli.repeat) {
        ([workload], None) => run_here(&cli, *workload),
        _ => run_children(&cli),
    }
}
