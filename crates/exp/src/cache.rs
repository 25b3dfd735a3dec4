//! Content-addressed result cache.
//!
//! Cells are keyed by `(config digest, seed)`: the digest is
//! [`airguard_net::ScenarioConfig::config_digest`] — an FNV-1a hash of
//! the canonical, *seed-independent* configuration rendering — so the
//! key is shared by every experiment that runs the same configuration
//! (Fig. 6 and Fig. 7 sweep identical grids and reuse each other's
//! runs). Layout:
//!
//! ```text
//! results/cache/v1/<digest>/<seed>.cell
//! ```
//!
//! The `v1` segment is the cell-format version: bumping the format
//! invalidates every old entry without deleting anything. Any config
//! change changes the digest, so stale entries are never *read* — they
//! are simply left behind.
//!
//! Writes go through [`atomic_write`] (a uniquely named temp file,
//! fsync, rename), so a concurrent reader never observes a torn cell and
//! two writers of one cell never collide; a malformed or truncated cell
//! parses as a miss and is re-simulated.

use std::io;
use std::path::{Path, PathBuf};

use airguard_obs::atomic_write;

use crate::cell::CellMetrics;

/// Version segment of the cache layout; bump when the cell text format
/// changes incompatibly.
const FORMAT_VERSION: &str = "v1";

/// A directory-backed `(digest, seed) → CellMetrics` store.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `root` (conventionally `results/cache`).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ResultCache { root: root.into() }
    }

    /// The conventional cache location used by the bench CLI.
    #[must_use]
    pub fn default_root() -> PathBuf {
        Path::new("results").join("cache")
    }

    /// The file path of one cell.
    #[must_use]
    pub fn cell_path(&self, digest: &str, seed: u64) -> PathBuf {
        self.root
            .join(FORMAT_VERSION)
            .join(digest)
            .join(format!("{seed}.cell"))
    }

    /// Loads a cell, returning `None` on absence or any corruption
    /// (including a stored seed that does not match the file name —
    /// defence against hand-edited entries).
    #[must_use]
    pub fn load(&self, digest: &str, seed: u64) -> Option<CellMetrics> {
        let text = std::fs::read_to_string(self.cell_path(digest, seed)).ok()?;
        let cell = CellMetrics::parse_cache_text(&text)?;
        (cell.seed == seed).then_some(cell)
    }

    /// Stores a cell atomically through [`atomic_write`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the engine reports them as warnings and
    /// carries on — a failed store only costs a future re-simulation.
    pub fn store(&self, digest: &str, seed: u64, cell: &CellMetrics) -> io::Result<PathBuf> {
        let path = self.cell_path(digest, seed);
        atomic_write(&path, cell.to_cache_text().as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tmp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("airguard-exp-cache-{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn cell(seed: u64) -> CellMetrics {
        let mut scalars = BTreeMap::new();
        scalars.insert("correct_pct".to_owned(), 42.5);
        CellMetrics {
            seed,
            elapsed_us: 1,
            wall_us: 0,
            summary_digest: "abcd".to_owned(),
            scalars,
            series: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = ResultCache::new(tmp_root("roundtrip"));
        assert!(cache.load("d1", 3).is_none());
        cache.store("d1", 3, &cell(3)).expect("store");
        assert_eq!(cache.load("d1", 3).expect("hit"), cell(3));
        // Different digest or seed: miss.
        assert!(cache.load("d2", 3).is_none());
        assert!(cache.load("d1", 4).is_none());
    }

    #[test]
    fn corrupt_cell_is_a_miss() {
        let cache = ResultCache::new(tmp_root("corrupt"));
        cache.store("d1", 5, &cell(5)).expect("store");
        let path = cache.cell_path("d1", 5);
        std::fs::write(&path, "airguard-cell v1\nseed 5\n").expect("truncate");
        assert!(cache.load("d1", 5).is_none());
    }

    #[test]
    fn concurrent_stores_of_one_cell_all_succeed() {
        // Two writers of one cell must never share a temp file, or one
        // writer's rename finds it already renamed away by the other.
        let cache = ResultCache::new(tmp_root("race"));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..500 {
                        cache.store("d1", 7, &cell(7)).expect("store");
                    }
                });
            }
        });
        assert_eq!(cache.load("d1", 7).expect("hit"), cell(7));
    }

    #[test]
    fn seed_mismatch_inside_file_is_a_miss() {
        let cache = ResultCache::new(tmp_root("seedmismatch"));
        cache.store("d1", 6, &cell(9)).expect("store");
        assert!(cache.load("d1", 6).is_none());
    }
}
