//! Order statistics over slices and samples.

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice. The `loadgen.slice_median_*` layer metrics
/// are medians over slices, and `--repeat` prints the median over runs.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The second best value: how every end-to-end metric is read off a
/// run's slices (and `setup_s` off its set-ups). Interference on a
/// shared machine only ever slows a slice down, in episodes that can
/// cover most of a phase; a median moves with the share of slices hit,
/// this does not while two clean ones remain, and unlike the single
/// best it ignores one freak. 0 for an empty slice.
pub fn second_best(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.get(1).or(v.first()).copied().unwrap_or(0.0)
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so the spread printed
/// by `--repeat` is the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_slices_ignores_one_outlier() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[100.0, 101.0, 99.0, 5.0, 100.5]), 100.0);
    }

    #[test]
    fn second_best_ignores_slow_slices_and_one_freak() {
        // Ten throughput slices, seven of them hit by interference and
        // one impossibly good: the second best is a clean one.
        let rps = [100.0, 99.0, 60.0, 70.0, 65.0, 150.0, 55.0, 62.0, 68.0, 61.0];
        assert_eq!(second_best(&rps, true), 100.0);
        let lat = [30.0, 31.0, 45.0, 29.0, 50.0, 30.5, 44.0, 2.0, 47.0, 43.0];
        assert_eq!(second_best(&lat, false), 29.0);
        assert_eq!(second_best(&[7.0], true), 7.0);
        assert_eq!(second_best(&[], true), 0.0);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 0.999), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(percentile(&[], 0.9), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-9 && (q3 - 8.25).abs() < 1e-9);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-9 && (q3 - 4.5).abs() < 1e-9);
    }
}
