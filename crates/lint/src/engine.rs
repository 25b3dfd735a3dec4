//! The two-pass lint engine.
//!
//! Pass 1 analyzes every file independently (lex, item parse, per-file
//! rules, allow scan), one file at a time in path order. The whole
//! workspace takes tens of milliseconds on one core, so neither a
//! worker pool nor an on-disk cache pays for itself.
//!
//! Pass 2 is cheap and sequential: the summaries form a
//! [`WorkspaceIndex`], the cross-file rules run over it, and allow
//! directives are applied centrally — which is also what makes
//! unused-allow detection possible, since by then every rule has had its
//! chance to consume each directive.

use crate::config::LintConfig;
use crate::diagnostics::Diagnostic;
use crate::index::{FileSummary, WorkspaceIndex};
use crate::{allow, items, lexer, rules, xrules, FileClass};
use std::path::Path;

/// The outcome of a run.
#[derive(Debug)]
pub struct LintReport {
    /// Sorted, deduplicated, allow-filtered diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Files analyzed (every `.rs` file the walk kept).
    pub files_analyzed: usize,
}

/// Runs both passes over the workspace at `root`.
pub fn run(root: &Path, cfg: &LintConfig) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    crate::collect_rs_files(root, root, cfg, &mut files)?;
    files.sort();

    // Pass 1: per-file summaries, in path order.
    let summaries = files
        .iter()
        .map(|rel| Ok(analyze(rel, &std::fs::read_to_string(root.join(rel))?, cfg)))
        .collect::<std::io::Result<Vec<FileSummary>>>()?;
    let files_analyzed = summaries.len();

    // Pass 2: cross-file rules over the index, then central allow
    // application and unused-directive reporting.
    let mut index = WorkspaceIndex::new(summaries);
    let cross = xrules::check(&index, cfg);
    let mut diagnostics = Vec::new();
    let mut orphans = Vec::new();
    for diag in cross {
        match index.files.get_mut(&diag.path) {
            Some(f) => f.raw_diagnostics.push(diag),
            // A spec can name a file outside the walked tree; its
            // finding still must surface.
            None => orphans.push(diag),
        }
    }
    diagnostics.extend(orphans);
    for summary in index.files.values_mut() {
        let raw = std::mem::take(&mut summary.raw_diagnostics);
        diagnostics.extend(summary.allows.apply(raw));
        diagnostics.append(&mut summary.allows.diagnostics);
        if summary.class() != FileClass::TestLike {
            diagnostics.extend(summary.allows.unused(&summary.path));
        }
    }
    diagnostics.retain(|d| !cfg.disabled_rules.contains(&d.rule));
    diagnostics.sort();
    diagnostics.dedup();

    Ok(LintReport {
        diagnostics,
        files_analyzed,
    })
}

/// Pass-1 analysis of one file from source.
#[must_use]
pub fn analyze(rel: &str, source: &str, cfg: &LintConfig) -> FileSummary {
    let lexed = lexer::lex(source);
    FileSummary {
        path: rel.to_owned(),
        items: items::parse_items(&lexed.tokens),
        raw_diagnostics: rules::check(rel, &lexed.tokens, crate::rules_for(rel, cfg)),
        allows: allow::scan(rel, &lexed),
    }
}

#[cfg(test)]
mod tests {
    use super::run;
    use crate::config::LintConfig;
    use crate::diagnostics::Rule;
    use std::path::PathBuf;

    /// Lays out a miniature workspace on disk.
    fn workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("airguard-lint-engine-test-{name}"));
        let _ = std::fs::remove_dir_all(&root);
        for (rel, src) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(path, src).expect("write");
        }
        root
    }

    fn digest_cfg() -> LintConfig {
        LintConfig {
            digest_structs: vec![crate::config::ItemSpec {
                path: "crates/net/src/cfg.rs".into(),
                item: "Cfg".into(),
                fns: vec!["identity".into()],
            }],
            ..LintConfig::default()
        }
    }

    #[test]
    fn cross_file_findings_respect_allows_and_unused_is_reported() {
        let allowed = "pub struct Cfg {\n    pub nodes: u32,\n    // lint:allow(digest-completeness) — rate is display-only, never cached\n    pub rate: u64,\n}\nimpl Cfg {\n    pub fn identity(&self) -> String { format!(\"{}\", self.nodes) }\n    // lint:allow(digest-completeness) — stale: nothing fires on this line\n    pub fn extra(&self) {}\n}\n";
        let root = workspace("allows", &[("crates/net/src/cfg.rs", allowed)]);
        let report = run(&root, &digest_cfg()).expect("run");
        let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, [Rule::AllowUnused], "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 8);
    }

    #[test]
    fn disabled_rules_are_dropped_from_the_report() {
        let root = workspace(
            "disabled",
            &[("crates/sim/src/a.rs", "fn f() { x.unwrap(); }\n")],
        );
        let cfg = LintConfig {
            disabled_rules: vec![Rule::PanicUnwrap],
            ..LintConfig::default()
        };
        let report = run(&root, &cfg).expect("run");
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }
}
