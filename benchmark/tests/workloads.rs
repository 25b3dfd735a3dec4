//! Every workload at a tiny scale through the library API, untraced and
//! traced: all oracles pass and every metric of the run's set is
//! reported.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use airguard_benchmark::{run_workload, Params, Report, Scale, Workload, END_TO_END, PER_LAYER};
use airguard_live::json::JsonValue;

/// The workloads use both cores and `live_paced` checks its own
/// timeliness, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: Workload, trace: bool) -> Report {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The open loop fails its run when over 1% of records go out more
    // than 1 ms late, so it needs a schedule long enough that the
    // scheduler stalls of a loaded box stay under 1% of it.
    let millis = if workload == Workload::LivePaced {
        5_000
    } else {
        300
    };
    let params = Params {
        seed: 3,
        seconds: Duration::from_millis(millis),
        trace,
        scale: Scale::tiny(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("workloads"),
    };
    let report = run_workload(workload, &params).expect("set-up succeeds");
    assert!(
        report.correct(),
        "{} (trace {trace}) failed checks: {:?}",
        workload.name(),
        report.checks.messages
    );
    assert!(report.checks.attempted > 0);
    let expected: Vec<&str> = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .map(|&(name, _)| name)
    .collect();
    let reported: Vec<&str> = report.metrics.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(reported, expected);
    let line = JsonValue::parse(&report.to_json_line()).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
    if !trace {
        for (name, _, value) in &report.metrics {
            assert!(*value > 0.0, "{} {name} = {value}", workload.name());
        }
    }
    report
}

fn both(workload: Workload) {
    run(workload, false);
    let traced = run(workload, true);
    let path = traced.trace_file.expect("traced runs write a span file");
    let text = std::fs::read_to_string(&path).expect("span file readable");
    let spans = JsonValue::parse(&text).expect("span file is JSON");
    let events = spans
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents");
    assert!(!events.is_empty(), "{}", path.display());
}

#[test]
fn sweep_fig4() {
    both(Workload::SweepFig4);
}

#[test]
fn campus_10k() {
    both(Workload::Campus10k);
}

#[test]
fn live_replay() {
    both(Workload::LiveReplay);
}

#[test]
fn live_paced() {
    both(Workload::LivePaced);
}

#[test]
fn live_restore() {
    both(Workload::LiveRestore);
}

#[test]
fn scratch_files_are_removed() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scratch-check");
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = std::fs::remove_dir_all(&dir);
    let params = Params {
        seed: 4,
        seconds: Duration::from_millis(50),
        trace: false,
        scale: Scale::tiny(),
        out_dir: dir.clone(),
    };
    run_workload(Workload::LiveRestore, &params).expect("runs");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("out dir exists")
        .flatten()
        .map(|e| e.file_name())
        .collect();
    assert!(left.is_empty(), "scratch left behind: {left:?}");
}
