//! airguard-lint — workspace static analysis for determinism, unit
//! safety, and panic hygiene.
//!
//! The tool lexes every `.rs` file under the workspace (no type
//! information, no `syn`; the offline build has neither) and applies
//! token-pattern rules scoped by file role:
//!
//! * **determinism** rules run in library/binary code of the simulation
//!   crates named in `lint.toml` (`sim`, `phy`, `mac`, `core`, `net` by
//!   default);
//! * **unit-safety** rules run in all library/binary code except the
//!   designated unit modules (`crates/sim/src/time.rs`,
//!   `crates/phy/src/units.rs`);
//! * **panic-hygiene** rules run in library code only — tests, benches,
//!   examples, and binaries may panic;
//! * the **print-hygiene** rule runs in library code of the `crates/*`
//!   crates only — CLI `main.rs`/`bin/` targets and the workspace-root
//!   facade own their stdout and may print;
//! * the **hot-path** rule (`hot-path-clone`) runs in library code of
//!   the hot-path crates named in `lint.toml` (`sim`, `phy`, `mac` by
//!   default), where a deep frame copy defeats the shared `FrameRef`
//!   allocation;
//! * the **fault-path** rule (`fault-path-unwrap`) bans `unwrap`/`expect`
//!   in library code of the fault-injection crates named in `lint.toml`
//!   (`fault` by default) plus the listed injector call-site files — a
//!   panicking injector aborts the cell it was degrading and shows up as
//!   a harness failure instead of an injected one;
//! * the **bounded-channel** rule bans capacity-less queue construction
//!   (`unbounded()`, `mpsc::channel()`, `VecDeque::new()`) in the
//!   streaming crates named in `lint.toml` — a grow-forever queue turns
//!   overload into silent memory growth instead of backpressure.
//!
//! `#[cfg(test)]` items are exempt everywhere, and any finding can be
//! suppressed line-by-line with `// lint:allow(<rule>) — <reason>`.

pub mod allow;
pub mod config;
pub mod diagnostics;
pub mod engine;
pub mod index;
pub mod items;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod xrules;

use config::LintConfig;
use diagnostics::Diagnostic;
use rules::RuleSet;
use std::path::{Path, PathBuf};

/// What role a file plays, which decides the applicable rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code (`src/` of a crate) — all rules apply.
    Library,
    /// Binary or build-script code — panics allowed, determinism and
    /// unit rules still apply.
    Bin,
    /// Tests, benches, examples, fixtures — panic-free and
    /// determinism rules are waived.
    TestLike,
}

/// Classifies a workspace-relative path (forward slashes).
#[must_use]
pub fn classify(path: &str) -> FileClass {
    let segments: Vec<&str> = path.split('/').collect();
    if segments
        .iter()
        .any(|s| matches!(*s, "tests" | "benches" | "examples" | "fixtures"))
    {
        return FileClass::TestLike;
    }
    if segments.contains(&"bin")
        || path.ends_with("src/main.rs")
        || path.ends_with("build.rs")
        || path == "main.rs"
    {
        return FileClass::Bin;
    }
    FileClass::Library
}

/// The crate directory name a path belongs to (`crates/mac/src/dcf.rs`
/// → `mac`); the workspace root package has no entry under `crates/`.
#[must_use]
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Which rule families apply to `path` under `cfg`.
#[must_use]
pub fn rules_for(path: &str, cfg: &LintConfig) -> RuleSet {
    let class = classify(path);
    let in_sim_crate =
        crate_of(path).is_some_and(|c| cfg.determinism_crates.iter().any(|d| d == c));
    let in_hot_crate = crate_of(path).is_some_and(|c| cfg.hot_path_crates.iter().any(|d| d == c));
    let on_fault_path = crate_of(path)
        .is_some_and(|c| cfg.fault_path_crates.iter().any(|d| d == c))
        || cfg.fault_path_files.iter().any(|f| f == path);
    let in_ordering_crate =
        crate_of(path).is_some_and(|c| cfg.ordering_crates.iter().any(|d| d == c));
    let in_bounded_crate =
        crate_of(path).is_some_and(|c| cfg.bounded_channel_crates.iter().any(|d| d == c));
    RuleSet {
        determinism: class != FileClass::TestLike && in_sim_crate,
        units: class != FileClass::TestLike && !cfg.unit_exempt.iter().any(|e| e == path),
        panics: class == FileClass::Library,
        prints: class == FileClass::Library && crate_of(path).is_some(),
        hot_path: class == FileClass::Library && in_hot_crate,
        fault_path: class == FileClass::Library && on_fault_path,
        ordering: class != FileClass::TestLike
            && in_ordering_crate
            && !cfg.ordering_exempt.iter().any(|e| e == path),
        bounded_channel: class != FileClass::TestLike && in_bounded_crate,
    }
}

/// Lints one file's source text: pass-1 rules only (no cross-file rules
/// and no unused-allow reporting, which both need the full workspace).
/// `path` is the workspace-relative path used both for rule scoping and
/// in diagnostics.
#[must_use]
pub fn lint_source(path: &str, source: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut summary = engine::analyze(path, source, cfg);
    let raw = std::mem::take(&mut summary.raw_diagnostics);
    let mut diags = summary.allows.apply(raw);
    diags.append(&mut summary.allows.diagnostics);
    diags.sort();
    // Two operators flanking one identifier can flag the same token
    // twice; report each site once.
    diags.dedup();
    diags
}

/// Recursively gathers workspace-relative `.rs` paths, honouring the
/// exclude list and skipping dotted directories.
pub(crate) fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &LintConfig,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with('.') {
            continue;
        }
        let rel = relative(root, &path);
        if cfg
            .exclude
            .iter()
            .any(|e| rel == *e || rel.starts_with(&format!("{e}/")))
        {
            continue;
        }
        let kind = entry.file_type()?;
        if kind.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if kind.is_file() && name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::{classify, crate_of, lint_source, rules_for, FileClass};
    use crate::config::LintConfig;
    use crate::diagnostics::Rule;

    #[test]
    fn classification_by_role() {
        assert_eq!(classify("crates/mac/src/dcf.rs"), FileClass::Library);
        assert_eq!(classify("crates/net/tests/stress.rs"), FileClass::TestLike);
        assert_eq!(classify("crates/bench/benches/hot.rs"), FileClass::TestLike);
        assert_eq!(classify("src/bin/airguard.rs"), FileClass::Bin);
        assert_eq!(classify("crates/cli/src/main.rs"), FileClass::Bin);
        assert_eq!(classify("build.rs"), FileClass::Bin);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
    }

    #[test]
    fn crate_extraction() {
        assert_eq!(crate_of("crates/mac/src/dcf.rs"), Some("mac"));
        assert_eq!(crate_of("src/lib.rs"), None);
    }

    #[test]
    fn rule_scoping_follows_config() {
        let cfg = LintConfig::default();
        let lib = rules_for("crates/mac/src/dcf.rs", &cfg);
        assert!(lib.determinism && lib.units && lib.panics && lib.prints && lib.hot_path);

        // metrics is not a simulation crate: no determinism or hot-path
        // rules.
        let metrics = rules_for("crates/metrics/src/lib.rs", &cfg);
        assert!(!metrics.determinism && metrics.units && metrics.panics && !metrics.hot_path);

        // net is a determinism crate but not a hot-path crate: its
        // frame handling goes through the scratch-buffer runner, which
        // legitimately holds `FrameRef`s.
        let net = rules_for("crates/net/src/runner.rs", &cfg);
        assert!(net.determinism && !net.hot_path);

        // Tests get none of the families.
        let test = rules_for("crates/mac/tests/backoff.rs", &cfg);
        assert!(!test.determinism && !test.units && !test.panics && !test.prints);
        assert!(!test.hot_path);

        // Binaries may panic (and print) but must stay unit-safe.
        let cli = rules_for("crates/cli/src/main.rs", &cfg);
        assert!(!cli.panics && !cli.prints && cli.units);

        // The workspace-root facade is library code but not a `crates/*`
        // member: panic rules apply, the print rule does not.
        let root = rules_for("src/lib.rs", &cfg);
        assert!(root.panics && !root.prints);

        // The unit modules are exempt from unit arithmetic rules.
        let time = rules_for("crates/sim/src/time.rs", &cfg);
        assert!(!time.units && time.determinism);

        // The bounded-channel scope is workspace-specific: nothing by
        // default, library AND binary code once a crate is listed.
        assert!(!rules_for("crates/net/src/runner.rs", &cfg).bounded_channel);
        let bounded = LintConfig {
            bounded_channel_crates: vec!["net".into()],
            ..Default::default()
        };
        assert!(rules_for("crates/net/src/runner.rs", &bounded).bounded_channel);
        assert!(rules_for("crates/net/src/main.rs", &bounded).bounded_channel);
        assert!(!rules_for("crates/net/tests/stress.rs", &bounded).bounded_channel);

        // The fault crate and the injector call-site files carry the
        // fault-path rule; other library code does not.
        assert!(rules_for("crates/fault/src/plan.rs", &cfg).fault_path);
        assert!(rules_for("crates/phy/src/medium.rs", &cfg).fault_path);
        assert!(rules_for("crates/mac/src/drift.rs", &cfg).fault_path);
        assert!(rules_for("crates/net/src/faults.rs", &cfg).fault_path);
        assert!(!rules_for("crates/mac/src/dcf.rs", &cfg).fault_path);
        // Fault-crate tests may unwrap like everyone else's.
        assert!(!rules_for("crates/fault/tests/plan.rs", &cfg).fault_path);
    }

    #[test]
    fn lint_source_end_to_end() {
        let cfg = LintConfig::default();
        let src =
            "use std::collections::HashMap;\nfn f(x: u64) -> u64 { x.checked_add(1).unwrap() }\n";
        let diags = lint_source("crates/mac/src/x.rs", src, &cfg);
        let rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![Rule::DeterminismMap, Rule::PanicUnwrap]);

        // Same source in a non-sim crate loses the determinism finding.
        let diags = lint_source("crates/metrics/src/x.rs", src, &cfg);
        let rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![Rule::PanicUnwrap]);

        // And in a test file, everything is waived.
        assert!(lint_source("crates/mac/tests/x.rs", src, &cfg).is_empty());
    }
}
