//! The statistics of a pair report: medians, quartiles and the exact
//! sign test.

/// The median of `values`; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The first and third quartiles of `values`, interpolated at ranks
/// `k(n + 1)/4` — the rule `flash-loadbench --repeat` reports its
/// spreads by, so a spread printed here and one printed there agree.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The exact two-sided sign test: the probability, were either side
/// equally likely to win each of `won + lost` pairs (ties left out),
/// of a split at least as lopsided as this one. 1 for no pairs.
pub fn sign_test(won: usize, lost: usize) -> f64 {
    let n = won + lost;
    if n == 0 {
        return 1.0;
    }
    let k = won.max(lost);
    // P(X >= k) for X ~ Binomial(n, 1/2), doubled.
    let tail: f64 = (k..=n).map(|i| choose(n, i)).sum::<f64>() / 2f64.powi(n as i32);
    (2.0 * tail).min(1.0)
}

/// `n` choose `k`, as a float (exact for the pair counts used here).
fn choose(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    (0..k).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[100.0, 101.0, 99.0, 5.0, 100.5]), 100.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[]), (0.0, 0.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        // n = 7: ranks 2 and 6 exactly.
        assert_eq!(quartiles(&[7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]), (2.0, 6.0));
        // n = 10: ranks 2.75 and 8.25.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // n = 2: ranks 0.75 and 2.25, past the sample's ends.
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }

    #[test]
    fn sign_test_is_the_exact_binomial_tail() {
        assert_eq!(sign_test(0, 0), 1.0);
        assert_eq!(sign_test(5, 5), 1.0);
        // 10/10: 2 / 1024.
        assert!((sign_test(10, 0) - 2.0 / 1024.0).abs() < 1e-12);
        // 9/10: 2 * 11 / 1024.
        assert!((sign_test(9, 1) - 22.0 / 1024.0).abs() < 1e-12);
        // 8/10: 2 * 56 / 1024.
        assert!((sign_test(2, 8) - 112.0 / 1024.0).abs() < 1e-12);
        // 12/14: 2 * (1 + 14 + 91) / 16384.
        assert!((sign_test(12, 2) - 212.0 / 16384.0).abs() < 1e-12);
        assert_eq!(sign_test(1, 0), 1.0);
    }
}
