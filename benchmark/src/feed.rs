//! The seeded observation feed the live workloads stream.
//!
//! Each record is one `monitor/backoff_assigned` line in the schema
//! `airguard_obs::record_to_json` emits, so the service decodes it
//! exactly as it decodes a simulator export. Station popularity is
//! Zipf(1.0) over the station ranks, and a seed-shuffled rank→id map
//! scatters the popular stations across shards. Every station whose id
//! is ≡ 0 mod 4 misbehaves: it idles a fifth of its assignment. Honest
//! stations idle exactly their assignment, so the oracle knows the
//! right verdict for every station from the id alone.

use std::io::Write;

/// The generator's inputs; the same spec always yields the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedSpec {
    /// Seed of the popularity draw, the rank→id map and the slot counts.
    pub seed: u64,
    /// Records to write.
    pub records: u64,
    /// Station population (ids `0..stations`).
    pub stations: u32,
    /// Virtual time between records, microseconds: record `i` (from 0)
    /// carries `t_us = (i + 1) * spacing_us`, which is also its due time
    /// when the feed is paced.
    pub spacing_us: u64,
}

/// What the generator wrote: the oracle's expected input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedStats {
    /// Records written per station id.
    pub counts: Vec<u64>,
    /// Bytes written.
    pub bytes: u64,
}

/// Whether the generator makes `station` misbehave.
#[must_use]
pub fn is_misbehaving(station: u32) -> bool {
    station.is_multiple_of(4)
}

/// SplitMix64: tiny, seedable, and stable across platforms and
/// releases, which a generator whose bytes tests pin needs.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is below 2^-40 for
    /// the small `n` used here.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Streams feed records one at a time.
#[derive(Debug, Clone)]
struct FeedGen {
    spec: FeedSpec,
    rng: SplitMix64,
    /// Cumulative Zipf(1.0) weight of ranks `0..=r`.
    cumulative: Vec<f64>,
    rank_to_id: Vec<u32>,
    next: u64,
}

impl FeedGen {
    /// A generator positioned at the first record.
    fn new(spec: FeedSpec) -> Self {
        let stations = spec.stations.max(1);
        let mut rng = SplitMix64(spec.seed);
        let mut total = 0.0;
        let cumulative = (1..=stations)
            .map(|rank| {
                total += 1.0 / f64::from(rank);
                total
            })
            .collect();
        let mut rank_to_id: Vec<u32> = (0..stations).collect();
        for i in (1..rank_to_id.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            rank_to_id.swap(i, j);
        }
        FeedGen {
            spec: FeedSpec { stations, ..spec },
            rng,
            cumulative,
            rank_to_id,
            next: 0,
        }
    }

    /// Appends the next record line (newline included) to `out` and
    /// returns its station id, or `None` once every record is written.
    fn next_record(&mut self, out: &mut Vec<u8>) -> Option<u32> {
        if self.next >= self.spec.records {
            return None;
        }
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let target = self.rng.unit() * total;
        let rank = self
            .cumulative
            .partition_point(|&c| c <= target)
            .min(self.rank_to_id.len() - 1);
        let station = self.rank_to_id[rank];
        let assigned = 8 + self.rng.below(24);
        self.next += 1;
        let t = self.next * self.spec.spacing_us;
        let xid = self.next;
        // Writing into a Vec cannot fail.
        let _ = if is_misbehaving(station) {
            let observed = assigned as f64 / 5.0;
            writeln!(
                out,
                "{{\"t_us\":{t},\"node\":0,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":{station},\"assigned_slots\":{assigned},\"observed_slots\":{observed},\"xid\":{xid}}}"
            )
        } else {
            writeln!(
                out,
                "{{\"t_us\":{t},\"node\":0,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":{station},\"assigned_slots\":{assigned},\"observed_slots\":{assigned},\"xid\":{xid}}}"
            )
        };
        Some(station)
    }
}

/// Writes the whole feed to `out` in chunks, returning per-station
/// counts. Memory stays bounded by one chunk whatever the feed length.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_feed(spec: FeedSpec, mut out: impl Write) -> std::io::Result<FeedStats> {
    const CHUNK: usize = 1 << 16;
    let mut generator = FeedGen::new(spec);
    let mut counts = vec![0u64; generator.spec.stations as usize];
    let mut chunk = Vec::with_capacity(CHUNK + 256);
    let mut bytes = 0u64;
    while let Some(station) = generator.next_record(&mut chunk) {
        counts[station as usize] += 1;
        if chunk.len() >= CHUNK {
            out.write_all(&chunk)?;
            bytes += chunk.len() as u64;
            chunk.clear();
        }
    }
    out.write_all(&chunk)?;
    bytes += chunk.len() as u64;
    out.flush()?;
    Ok(FeedStats { counts, bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> FeedSpec {
        FeedSpec {
            seed,
            records: 20_000,
            stations: 64,
            spacing_us: 10,
        }
    }

    #[test]
    fn popularity_is_skewed_and_every_record_is_counted() {
        let stats = write_feed(spec(3), Vec::new()).expect("in-memory write");
        assert_eq!(stats.counts.iter().sum::<u64>(), 20_000);
        let max = *stats.counts.iter().max().expect("non-empty");
        // Zipf(1.0) over 64 ranks gives the top rank ~21% of the draws.
        assert!(max > 3_000 && max < 5_500, "top station drew {max}");
    }

    #[test]
    fn misbehaving_stations_idle_a_fifth_of_their_assignment() {
        let mut generator = FeedGen::new(spec(5));
        let mut line = Vec::new();
        for _ in 0..200 {
            line.clear();
            let station = generator.next_record(&mut line).expect("record");
            let text = String::from_utf8(line.clone()).expect("utf-8");
            let field = |key: &str| -> f64 {
                let at = text.find(key).expect("field") + key.len();
                let rest = &text[at..];
                let end = rest.find([',', '}']).expect("end");
                rest[..end].parse().expect("number")
            };
            let (assigned, observed) = (field("\"assigned_slots\":"), field("\"observed_slots\":"));
            let expected = if is_misbehaving(station) {
                assigned / 5.0
            } else {
                assigned
            };
            assert!((observed - expected).abs() < 1e-9, "{text}");
        }
    }
}
