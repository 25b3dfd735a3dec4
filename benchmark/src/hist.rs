//! A fixed-size log-linear histogram for latency samples.
//!
//! Values below 64 get a bucket each; above that every power-of-two
//! range splits into 64 equal buckets, so a bucket spans at most 1/64
//! (1.6%) of its values. The whole `u64` range fits in 3776 counters,
//! so memory stays fixed however long a run records.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Counts of `u64` samples (nanoseconds, in this crate).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

fn index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exponent = 63 - value.leading_zeros();
    let shift = exponent - SUB_BITS;
    let sub = (value >> shift) - SUB;
    ((u64::from(shift) + 1) * SUB + sub) as usize
}

/// `[low, high)` of bucket `idx`.
fn bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, idx + 1);
    }
    let shift = idx / SUB - 1;
    let low = (SUB + idx % SUB) << shift;
    (low, low.saturating_add(1 << shift))
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile (`0 ≤ q ≤ 1`), interpolated linearly by rank
    /// inside its bucket, so the estimate moves continuously with the
    /// data instead of snapping to bucket edges. 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut before = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (before + count) as f64 >= target {
                let (low, high) = bounds(idx);
                let within = ((target - before as f64) / count as f64).clamp(0.0, 1.0);
                let value = low as f64 + within * (high - low) as f64;
                return value.min(self.max as f64);
            }
            before += count;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_low = 0u64;
        for idx in 0..BUCKETS {
            let (low, high) = bounds(idx);
            assert_eq!(low, expected_low, "bucket {idx}");
            assert_eq!(index(low), idx);
            assert_eq!(index(high - 1), idx);
            expected_low = high;
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_stay_within_two_percent() {
        let mut hist = LogHistogram::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Spread over four decades, like latencies from 10 µs to 100 ms.
            let value = 10_000 + (x % 1_000) * (x % 100_000);
            hist.record(value);
            exact.push(value);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let truth = exact[((exact.len() - 1) as f64 * q) as usize] as f64;
            let estimate = hist.quantile(q);
            assert!(
                (estimate - truth).abs() <= 0.02 * truth,
                "q{q}: {estimate} vs {truth}"
            );
        }
        assert_eq!(hist.count(), 50_000);
        assert_eq!(hist.max, *exact.last().expect("non-empty"));
    }
}
