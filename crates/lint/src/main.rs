//! airguard-lint CLI.
//!
//! ```text
//! airguard-lint [--root DIR] [--config FILE] [--format text|json|sarif] [FILES...]
//! ```
//!
//! With no file arguments, runs the two-pass engine over every `.rs`
//! file under the root (default: the workspace root containing
//! `lint.toml`, else the current directory). Prints
//! `file:line:col: rule-id: message` per finding (or the chosen
//! structured format), sorted; exits 1 if any violation was found, 2 on
//! usage or configuration errors. The file count goes to stderr so the
//! report streams are byte-stable.

use airguard_lint::config::LintConfig;
use airguard_lint::{lint_source, output};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: airguard-lint [--root DIR] [--config FILE] [--format text|json|sarif] [FILES...]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    files: Vec<String>,
    format: Format,
}

fn parse_args() -> Result<Args, String> {
    let mut root = None;
    let mut config = None;
    let mut files = Vec::new();
    let mut format = Format::Text;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root requires a directory argument")?;
                root = Some(PathBuf::from(v));
            }
            "--config" => {
                let v = it.next().ok_or("--config requires a file argument")?;
                config = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = it.next().ok_or("--format requires text|json|sarif")?;
                format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`; use text|json|sarif")),
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            file => files.push(file.to_owned()),
        }
    }
    let root = root.unwrap_or_else(|| find_root(&std::env::current_dir().unwrap_or_default()));
    Ok(Args {
        root,
        config,
        files,
        format,
    })
}

/// Walks upward from `start` looking for `lint.toml` next to a
/// `Cargo.toml`; falls back to `start` itself.
fn find_root(start: &Path) -> PathBuf {
    let mut dir = start;
    loop {
        if dir.join("lint.toml").is_file() && dir.join("Cargo.toml").is_file() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return start.to_path_buf(),
        }
    }
}

fn load_config(args: &Args) -> Result<LintConfig, String> {
    let path = match &args.config {
        Some(explicit) => explicit.clone(),
        None => {
            let default = args.root.join("lint.toml");
            if !default.is_file() {
                return Ok(LintConfig::default());
            }
            default
        }
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let cfg = LintConfig::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // An explicit config gets the full workspace cross-check: a scope
    // that names nothing real silently disables its rule.
    if let Err(errors) = cfg.validate(&args.root) {
        return Err(format!(
            "{} does not match the workspace:\n  {}",
            path.display(),
            errors.join("\n  ")
        ));
    }
    Ok(cfg)
}

fn run() -> Result<usize, String> {
    let args = parse_args()?;
    let cfg = load_config(&args)?;

    let diags = if args.files.is_empty() {
        let report = airguard_lint::engine::run(&args.root, &cfg)
            .map_err(|e| format!("walking {}: {e}", args.root.display()))?;
        eprintln!("airguard-lint: {} files analyzed", report.files_analyzed);
        report.diagnostics
    } else {
        // Single-file mode is pass-1 only: cross-file rules need the
        // whole tree.
        let mut diags = Vec::new();
        for file in &args.files {
            let source =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let rel = file
                .strip_prefix(&format!("{}/", args.root.display()))
                .unwrap_or(file);
            diags.extend(lint_source(rel, &source, &cfg));
        }
        diags.sort();
        diags
    };

    match args.format {
        Format::Text => print!("{}", output::to_text(&diags)),
        Format::Json => print!("{}", output::to_json(&diags)),
        Format::Sarif => print!("{}", output::to_sarif(&diags)),
    }
    Ok(diags.len())
}

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!(
                "airguard-lint: {n} violation{}",
                if n == 1 { "" } else { "s" }
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("airguard-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
