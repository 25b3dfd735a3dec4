//! Order statistics for per-run samples and `--repeat` summaries.

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(_, q2, _)| q2)
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the ones an outside
/// script computes from the same values. `None` when empty; a single
/// value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// Smallest of `values` (0 when empty): the best of a run's
/// repetitions. The box is shared and contention only ever slows a
/// repetition, so the best one is the steadiest estimate of the code's
/// own cost.
#[must_use]
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best(&[]), 0.0);
    }
}
