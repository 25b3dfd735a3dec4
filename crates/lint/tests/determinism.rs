//! Structured reports, observed through the binary exactly as CI
//! drives it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run(fixture_name: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_airguard-lint"))
        .arg("--root")
        .arg(fixture(fixture_name))
        .args(extra)
        .output()
        .expect("binary runs")
}

#[test]
fn sarif_report_declares_schema_and_rule_table() {
    let out = run("obs-coverage", &["--format", "sarif"]);
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"name\": \"airguard-lint\""));
    assert!(sarif.contains("\"ruleId\": \"obs-coverage\""));
    assert!(sarif.contains("\"uri\": \"crates/obs/src/event.rs\""));
}
