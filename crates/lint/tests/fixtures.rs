//! Fixture-based self-tests: each seeded fixture tree must produce its
//! rule (nonzero exit from the binary), the clean trees must pass, and
//! the diagnostic format must stay grep-friendly.

use airguard_lint::config::LintConfig;
use airguard_lint::diagnostics::Rule;
use airguard_lint::engine;
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Lints a fixture tree with its own `lint.toml` when present (the
/// cross-file rules are scoped per tree), else the defaults.
fn rules_in(name: &str) -> Vec<Rule> {
    let root = fixture(name);
    let cfg = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => LintConfig::parse(&text).expect("fixture lint.toml parses"),
        Err(_) => LintConfig::default(),
    };
    let report = engine::run(&root, &cfg).expect("fixture tree readable");
    report.diagnostics.iter().map(|d| d.rule).collect()
}

#[test]
fn each_seeded_fixture_trips_its_rule() {
    let cases = [
        ("determinism-time", Rule::DeterminismTime),
        ("determinism-rng", Rule::DeterminismRng),
        ("determinism-map", Rule::DeterminismMap),
        ("unit-mixed-arith", Rule::UnitMixedArith),
        ("float-eq", Rule::FloatEq),
        ("panic-unwrap", Rule::PanicUnwrap),
        ("panic-expect", Rule::PanicExpect),
        ("panic-macro", Rule::PanicMacro),
        ("print-macro", Rule::PrintMacro),
        ("hot-path-clone", Rule::HotPathClone),
        ("fault-path-unwrap", Rule::FaultPathUnwrap),
        ("bounded-channel", Rule::BoundedChannel),
        ("digest-completeness", Rule::DigestCompleteness),
        ("digest-completeness-detector", Rule::DigestCompleteness),
        ("obs-coverage", Rule::ObsCoverage),
        ("ordering-hash-iter", Rule::OrderingHashIter),
        ("ordering-relaxed", Rule::OrderingRelaxed),
        ("lint-allow-unused", Rule::AllowUnused),
    ];
    for (name, rule) in cases {
        let rules = rules_in(name);
        assert!(
            rules.contains(&rule),
            "fixture {name} should report {rule:?}, got {rules:?}"
        );
        // Fixtures are minimal: nothing outside the target family fires.
        assert!(
            rules.iter().all(|r| *r == rule),
            "fixture {name} reported extra rules: {rules:?}"
        );
    }
}

#[test]
fn clean_and_allowed_fixtures_pass() {
    for name in [
        "clean",
        "allowed-ok",
        "bounded-channel-clean",
        "digest-completeness-clean",
        "digest-completeness-detector-clean",
        "obs-coverage-clean",
        "ordering-hash-iter-clean",
        "ordering-relaxed-clean",
    ] {
        assert_eq!(rules_in(name), Vec::<Rule>::new(), "fixture {name}");
    }
}

#[test]
fn reasonless_allow_is_flagged_and_grants_nothing() {
    let rules = rules_in("lint-allow-reason");
    // The malformed directive is itself a finding, and it does not
    // suppress the unwrap it was attached to.
    assert!(rules.contains(&Rule::AllowReason));
    assert!(rules.contains(&Rule::PanicUnwrap));
}

fn run_binary(fixture_name: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_airguard-lint"))
        .arg("--root")
        .arg(fixture(fixture_name))
        .output()
        .expect("binary runs")
}

#[test]
fn binary_exits_nonzero_on_each_seeded_fixture() {
    for name in [
        "determinism-time",
        "determinism-rng",
        "determinism-map",
        "unit-mixed-arith",
        "float-eq",
        "panic-unwrap",
        "panic-expect",
        "panic-macro",
        "print-macro",
        "hot-path-clone",
        "fault-path-unwrap",
        "bounded-channel",
        "lint-allow-reason",
        "digest-completeness",
        "digest-completeness-detector",
        "obs-coverage",
        "ordering-hash-iter",
        "ordering-relaxed",
        "lint-allow-unused",
    ] {
        let out = run_binary(name);
        assert_eq!(
            out.status.code(),
            Some(1),
            "fixture {name}: expected exit 1, got {:?}\nstdout: {}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("violation"),
            "fixture {name}: summary missing from stderr"
        );
    }
}

#[test]
fn binary_exits_zero_on_clean_trees() {
    for name in [
        "clean",
        "allowed-ok",
        "bounded-channel-clean",
        "digest-completeness-clean",
        "digest-completeness-detector-clean",
        "obs-coverage-clean",
        "ordering-hash-iter-clean",
        "ordering-relaxed-clean",
    ] {
        let out = run_binary(name);
        assert_eq!(
            out.status.code(),
            Some(0),
            "fixture {name}: expected exit 0\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.stdout.is_empty(), "clean run should print nothing");
    }
}

#[test]
fn diagnostics_use_file_line_col_rule_format() {
    let out = run_binary("determinism-map");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().expect("at least one diagnostic");
    // crates/net/src/routes.rs:<line>:<col>: determinism-map: ...
    let mut parts = first.splitn(4, ':');
    assert_eq!(parts.next(), Some("crates/net/src/routes.rs"));
    let line: u32 = parts.next().expect("line").parse().expect("numeric line");
    let col: u32 = parts.next().expect("col").parse().expect("numeric col");
    assert!(line > 0 && col > 0);
    assert!(parts
        .next()
        .expect("tail")
        .trim_start()
        .starts_with("determinism-map:"));
}

#[test]
fn binary_exits_two_on_bad_config() {
    let dir = std::env::temp_dir().join("airguard-lint-badcfg");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let cfg = dir.join("lint.toml");
    std::fs::write(&cfg, "nonsense = [\"x\"]\n").expect("write cfg");
    let out = Command::new(env!("CARGO_BIN_EXE_airguard-lint"))
        .arg("--root")
        .arg(&dir)
        .arg("--config")
        .arg(&cfg)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown key"));
}

#[test]
fn cache_and_worker_flags_are_unknown_options() {
    for flag in ["--workers", "--no-cache", "--fix-cache", "--cache-dir"] {
        let out = Command::new(env!("CARGO_BIN_EXE_airguard-lint"))
            .arg("--root")
            .arg(fixture("clean"))
            .arg(flag)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown option"),
            "{flag}"
        );
    }
}

#[test]
fn binary_exits_two_when_config_names_a_ghost_crate() {
    let dir = std::env::temp_dir().join("airguard-lint-ghostcfg");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/sim/src")).expect("tmp tree");
    std::fs::write(dir.join("crates/sim/src/lib.rs"), "pub fn ok() {}\n").expect("write src");
    std::fs::write(dir.join("lint.toml"), "[ordering]\ncrates = [\"smi\"]\n").expect("write cfg");
    let out = Command::new(env!("CARGO_BIN_EXE_airguard-lint"))
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean `sim`?"),
        "expected a did-you-mean hint, got: {stderr}"
    );
}

#[test]
fn single_file_mode_lints_only_named_files() {
    let target = fixture("panic-unwrap").join("crates/metrics/src/agg.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_airguard-lint"))
        .arg("--root")
        .arg(fixture("panic-unwrap"))
        .arg(&target)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("panic-unwrap"), "got: {stdout}");
}
