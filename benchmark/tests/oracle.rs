//! The live verdict oracle catches a single wrong verdict.

use airguard_benchmark::live::check_verdicts;
use airguard_benchmark::Checks;
use airguard_live::StationVerdict;

/// Stations 0..8 each sent 6 records; 0 and 4 misbehave (≡ 0 mod 4).
fn honest_service() -> (Vec<u64>, Vec<StationVerdict>) {
    let counts = vec![6u64; 8];
    let verdicts = (0..8)
        .map(|station| StationVerdict {
            station,
            statistic: 0.0,
            observations: 6,
            flagged: u64::from(station % 4 == 0) * 2,
        })
        .collect();
    (counts, verdicts)
}

#[test]
fn correct_verdicts_pass() {
    let (counts, verdicts) = honest_service();
    let mut checks = Checks::default();
    check_verdicts(&counts, &verdicts, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (8, 0), "{checks:?}");
}

#[test]
fn one_flipped_verdict_is_one_failure() {
    for flipped in [0usize, 3] {
        let (counts, mut verdicts) = honest_service();
        verdicts[flipped].flagged = if verdicts[flipped].flagged > 0 { 0 } else { 1 };
        let mut checks = Checks::default();
        check_verdicts(&counts, &verdicts, &mut checks);
        assert_eq!(checks.failed, 1, "station {flipped}: {checks:?}");
    }
}

#[test]
fn lost_and_invented_stations_fail() {
    let (counts, mut verdicts) = honest_service();
    verdicts.remove(5);
    verdicts.push(StationVerdict {
        station: 9,
        statistic: 0.0,
        observations: 1,
        flagged: 0,
    });
    let mut checks = Checks::default();
    check_verdicts(&counts, &verdicts, &mut checks);
    assert_eq!(checks.failed, 2, "{checks:?}");
}
