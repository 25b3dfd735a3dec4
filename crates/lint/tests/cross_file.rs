//! The acceptance scenario for digest-completeness: adding a fresh
//! field to a scenario config without touching its identity function
//! must turn the lint red — that is the drift the rule exists to catch.

use airguard_lint::config::LintConfig;
use airguard_lint::diagnostics::Rule;
use airguard_lint::engine;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Copies a fixture tree into a scratch dir the test may mutate.
fn scratch_copy(name: &str, tag: &str) -> PathBuf {
    let dest = std::env::temp_dir().join(format!("airguard-lint-seeded-{tag}"));
    let _ = std::fs::remove_dir_all(&dest);
    copy_tree(&fixture(name), &dest).expect("fixture copies");
    dest
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn fixture_config(root: &Path) -> LintConfig {
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("fixture lint.toml");
    LintConfig::parse(&text).expect("fixture lint.toml parses")
}

#[test]
fn seeding_a_fresh_config_field_trips_digest_completeness() {
    let root = scratch_copy("digest-completeness-clean", "digest-field");
    let cfg = fixture_config(&root);
    assert_eq!(
        engine::run(&root, &cfg)
            .expect("clean baseline")
            .diagnostics,
        vec![],
        "the copied tree must start clean"
    );

    // A future PR adds a knob to ScenarioConfig and forgets identity().
    let scenario = root.join("crates/net/src/scenario.rs");
    let source = std::fs::read_to_string(&scenario).expect("scenario source");
    let seeded = source.replace(
        "pub selfish_fraction: u64,",
        "pub selfish_fraction: u64,\n    pub retry_limit: u32,",
    );
    assert_ne!(seeded, source, "seed point must exist in the fixture");
    std::fs::write(&scenario, seeded).expect("seeded write");

    let diags = engine::run(&root, &cfg).expect("seeded run").diagnostics;
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, Rule::DigestCompleteness);
    assert!(
        diags[0].message.contains("`retry_limit`"),
        "finding should name the seeded field: {}",
        diags[0].message
    );
    assert_eq!(diags[0].path, "crates/net/src/scenario.rs");
}

#[test]
fn consuming_the_seeded_field_in_any_listed_fn_clears_the_finding() {
    let root = scratch_copy("digest-completeness-clean", "digest-consumed");
    let cfg = fixture_config(&root);
    let scenario = root.join("crates/net/src/scenario.rs");
    let source = std::fs::read_to_string(&scenario).expect("scenario source");
    // Add the field AND thread it through identity(): no finding.
    let seeded = source
        .replace(
            "pub selfish_fraction: u64,",
            "pub selfish_fraction: u64,\n    pub retry_limit: u32,",
        )
        .replace(
            "self.nodes, self.offered_load, self.selfish_fraction",
            "self.nodes, self.offered_load, self.selfish_fraction + u64::from(self.retry_limit)",
        );
    std::fs::write(&scenario, seeded).expect("seeded write");
    assert_eq!(engine::run(&root, &cfg).expect("run").diagnostics, vec![]);
}

#[test]
fn seeding_a_fresh_event_variant_trips_obs_coverage() {
    let root = scratch_copy("obs-coverage-clean", "obs-variant");
    let cfg = fixture_config(&root);
    let event = root.join("crates/obs/src/event.rs");
    let source = std::fs::read_to_string(&event).expect("event source");
    // A new variant lands with neither a category arm nor an emitter.
    let seeded = source.replace(
        "Collision { victim: u32 },",
        "Collision { victim: u32 },\n    Starvation { node: u32 },",
    );
    assert_ne!(seeded, source);
    std::fs::write(&event, seeded).expect("seeded write");

    let diags = engine::run(&root, &cfg).expect("seeded run").diagnostics;
    let rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
    assert!(
        rules.iter().all(|r| *r == Rule::ObsCoverage) && rules.len() == 2,
        "expected unmapped + unemitted findings, got {diags:?}"
    );
    assert!(diags.iter().all(|d| d.message.contains("Starvation")));
}
