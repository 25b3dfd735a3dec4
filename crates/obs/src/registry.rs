//! Named counters and fixed-bucket histograms.
//!
//! A [`Registry`] hands out cheap, cloneable handles: [`Counter`] is an
//! `Arc<AtomicU64>`, so the hot path is a single relaxed fetch-add with
//! no name lookup and no lock. The registry itself is only locked when
//! a handle is created or a snapshot taken.
//!
//! Naming convention (see DESIGN.md §9): dotted lowercase paths,
//! `<subsystem>.<quantity>` — e.g. `sim.events_dispatched`,
//! `mac.retries`, `obs.backoff_deviation_slots`. Snapshots are
//! `BTreeMap`-ordered so reports are deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Handle to a named monotonic counter.
///
/// ```
/// use airguard_obs::Registry;
///
/// let reg = Registry::new();
/// let retries = reg.counter("mac.retries");
/// retries.add(3);
/// retries.inc();
/// assert_eq!(reg.snapshot().counters["mac.retries"], 4);
/// ```
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    /// Ascending inclusive upper bounds; values above the last bound
    /// land in the overflow bucket.
    bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// Handle to a named fixed-bucket histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistInner {
                bounds: bounds.to_vec(),
                counts,
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample. Callers with fractional quantities (e.g.
    /// deviation in slots) round before recording.
    pub fn record(&self, value: u64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.total.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram's state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            counts: self
                .inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            total: self.inner.total.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a histogram: per-bucket counts (the last entry is
/// the overflow bucket), sample count, and sample sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub total: u64,
    pub sum: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// Registry of named metrics. Clones share the same underlying map.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Locks the name map, recovering from poisoning: a thread that
    /// panicked while registering leaves the map consistent.
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the counter named `name`, creating it at zero on first
    /// use. Handles are cheap to clone and lock-free to update.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.lock();
        inner
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the histogram named `name`, creating it with `bounds`
    /// on first use. An existing histogram keeps its original bounds.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Deterministic (`BTreeMap`-ordered) copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.lock();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Registry`], ordered by metric name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Folds `other` into `self`: counters sum by name, histograms sum
    /// bucket-wise. Because both maps are name-ordered and addition is
    /// commutative, merging per-shard snapshots in any order yields the
    /// same result as recording every sample into one registry.
    ///
    /// # Panics
    ///
    /// Panics if two histograms share a name but disagree on bounds —
    /// that is a wiring bug, not a data condition.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            match self.histograms.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(hist.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let mine = slot.get_mut();
                    assert_eq!(
                        mine.bounds, hist.bounds,
                        "histogram {name:?} merged with mismatched bounds"
                    );
                    for (a, b) in mine.counts.iter_mut().zip(&hist.counts) {
                        *a += b;
                    }
                    mine.total += hist.total;
                    mine.sum += hist.sum;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Registry;

    #[test]
    fn counter_handles_share_state_by_name() {
        let reg = Registry::new();
        let a = reg.counter("mac.retries");
        let b = reg.counter("mac.retries");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(reg.snapshot().counters["mac.retries"], 3);
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        let reg = Registry::new();
        let h = reg.histogram("obs.backoff_deviation_slots", &[0, 2, 8]);
        for v in [0, 1, 2, 3, 8, 9, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 2, 2]); // <=0, <=2, <=8, overflow
        assert_eq!(snap.total, 7);
        assert_eq!(snap.sum, 1023);
    }

    #[test]
    fn histogram_keeps_original_bounds() {
        let reg = Registry::new();
        let _ = reg.histogram("h", &[1, 2]);
        let again = reg.histogram("h", &[99]);
        assert_eq!(again.snapshot().bounds, vec![1, 2]);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        let names: Vec<_> = reg.snapshot().counters.keys().cloned().collect();
        assert_eq!(names, ["a.first", "z.last"]);
    }

    #[test]
    fn values_exactly_on_a_bucket_edge_land_in_that_bucket() {
        // The bounds are *inclusive* upper edges: a sample equal to a
        // bound belongs to that bound's bucket, never the next one.
        // Recording each edge value exactly once must therefore produce
        // one count per bounded bucket and an empty overflow bucket.
        let reg = Registry::new();
        let h = reg.histogram("edges", &[1_000, 5_000, 10_000]);
        for edge in [1_000, 5_000, 10_000] {
            h.record(edge);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 1, 1, 0]);
        // One past an edge spills into the next bucket; one past the
        // last edge is overflow.
        h.record(1_001);
        h.record(10_001);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 1, 1]);
        assert_eq!(snap.total, 5);
        // Zero with a zero bound: still the first bucket.
        let z = reg.histogram("zero_edge", &[0, 10]);
        z.record(0);
        assert_eq!(z.snapshot().counts, vec![1, 0, 0]);
    }

    #[test]
    fn snapshots_are_byte_identical_across_worker_counts() {
        // The engine's contract: the same samples produce the same
        // snapshot (and so the same report bytes) no matter how many
        // threads recorded them or in what order. Record a fixed
        // multiset of samples under 1, 2, and 4 workers and compare the
        // rendered summaries byte for byte.
        let samples: Vec<u64> = (0..1_000).map(|i| (i * 37) % 4_096).collect();
        let render = |workers: usize| -> String {
            let reg = Registry::new();
            let hist = reg.histogram("obs.x", &[64, 512, 2_048]);
            let counter = reg.counter("obs.n");
            std::thread::scope(|scope| {
                for chunk in samples.chunks(samples.len() / workers) {
                    let hist = hist.clone();
                    let counter = counter.clone();
                    scope.spawn(move || {
                        for &v in chunk {
                            hist.record(v);
                            counter.inc();
                        }
                    });
                }
            });
            let summary =
                crate::report::RunSummary::new("w", 1, "d", 0).with_metrics(reg.snapshot());
            summary.to_json()
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(4));
    }
}
