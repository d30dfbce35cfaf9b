//! Order statistics the harness reports: quartiles for wall-clock
//! samples, nearest-rank percentiles for tick samples.

/// A percentile is reported only when at least this many samples lie
/// beyond its rank — otherwise it is one sample's luck, not a tail.
pub const MIN_BEYOND: usize = 10;

/// First quartile, median, third quartile — the same cut points Python's
/// `statistics.quantiles(values, n=4)` returns (exclusive method), so the
/// spreads `compare` prints are the spreads the driver computes. Fewer
/// than two samples have no spread: all three equal the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let cut = |i: usize| {
                let j = (i * (len + 1) / 4).clamp(1, len - 1);
                let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a percentage of the median (0 when the median is 0).
pub fn iqr_pct(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med * 100.0
    }
}

/// Nearest-rank percentile of `samples` (`p` in 1..=100): the value at
/// rank `ceil(p/100 × n)`. `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond that rank.
pub fn percentile(samples: &[u64], p: usize) -> Option<u64> {
    let n = samples.len();
    let rank = (p * n).div_ceil(100).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_pct(&v), 100.0);
        assert_eq!(iqr_pct(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(iqr_pct(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=2000).rev().collect();
        assert_eq!(percentile(&v, 50), Some(1000));
        assert_eq!(percentile(&v, 99), Some(1980));
        assert_eq!(percentile(&v, 100), None, "nothing lies beyond the maximum");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99), Some(990), "rank 990 of 1000 leaves exactly ten beyond");
        assert_eq!(percentile(&v[..999], 99), None, "rank 990 of 999 leaves nine");
        assert_eq!(percentile(&v[..100], 99), None);
        assert_eq!(percentile(&v[..100], 90), Some(90));
        assert_eq!(percentile(&v[..20], 50), Some(10));
        assert_eq!(percentile(&v[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }
}
