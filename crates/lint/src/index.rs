//! The workspace index: per-file pass-1 summaries, keyed by path.
//!
//! Pass 1 produces one [`FileSummary`] per file (parsed items, raw
//! per-file diagnostics, allow directives); the index is the ordered
//! collection pass 2's cross-file rules query.

use crate::allow::Allows;
use crate::diagnostics::Diagnostic;
use crate::items::FileItems;
use crate::FileClass;
use std::collections::BTreeMap;

/// Everything pass 1 knows about one file.
#[derive(Debug, Clone)]
pub struct FileSummary {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Parsed item model.
    pub items: FileItems,
    /// Raw per-file findings, before allow filtering (includes the
    /// malformed-directive findings, which are never filtered).
    pub raw_diagnostics: Vec<Diagnostic>,
    /// Allow directives, with used-tracking state.
    pub allows: Allows,
}

impl FileSummary {
    /// The file's role classification.
    #[must_use]
    pub fn class(&self) -> FileClass {
        crate::classify(&self.path)
    }
}

/// All pass-1 summaries, ordered by path for deterministic pass-2
/// iteration.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    pub files: BTreeMap<String, FileSummary>,
}

impl WorkspaceIndex {
    /// Builds the index from pass-1 results.
    #[must_use]
    pub fn new(summaries: Vec<FileSummary>) -> Self {
        WorkspaceIndex {
            files: summaries.into_iter().map(|s| (s.path.clone(), s)).collect(),
        }
    }

    /// All functions owned by `owner` (any file) whose name is in
    /// `names`, in path order.
    pub fn fns_of<'a>(
        &'a self,
        owner: &'a str,
        names: &'a [String],
    ) -> impl Iterator<Item = &'a crate::items::FnDef> {
        self.files.values().flat_map(move |f| {
            f.items
                .fns
                .iter()
                .filter(move |fd| fd.owner.as_deref() == Some(owner) && names.contains(&fd.name))
        })
    }

    /// The union of hash-typed names across every file. Pass 2's
    /// ordering rule checks iteration receivers against this set.
    #[must_use]
    pub fn hash_typed_names(&self) -> std::collections::BTreeSet<&str> {
        self.files
            .values()
            .flat_map(|f| f.items.hash_typed.iter().map(String::as_str))
            .collect()
    }
}
