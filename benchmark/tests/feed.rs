//! The feed generator is a pure function of its spec.

use airguard_benchmark::feed::{write_feed, FeedSpec};
use airguard_obs::fnv1a_hex;

fn digest(seed: u64) -> String {
    let spec = FeedSpec {
        seed,
        records: 5_000,
        stations: 4096,
        spacing_us: 10,
    };
    let mut bytes = Vec::new();
    let stats = write_feed(spec, &mut bytes).expect("in-memory write");
    assert_eq!(stats.bytes, bytes.len() as u64);
    assert_eq!(stats.counts.iter().sum::<u64>(), 5_000);
    fnv1a_hex(&bytes)
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    assert_eq!(digest(1), digest(1));
    assert_ne!(digest(1), digest(2));
}
