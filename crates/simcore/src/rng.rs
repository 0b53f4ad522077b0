//! Deterministic randomness for simulations.
//!
//! One fixed PRNG — xoshiro256++ (Blackman & Vigna), seeded via
//! splitmix64 — so every component draws from an explicitly seeded
//! stream. All experiment drivers take a seed; re-running with the same
//! seed reproduces the run exactly.

/// A seedable random stream used by all simulation components.
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream-selection constant XORed into the seed before key
/// expansion. The simulator's statistical shape tests (quick-scale
/// figure reproductions) and the repo benchmark's request sequences
/// are validated against this particular stream; changing it is like
/// changing every experiment's seed.
const STREAM: u64 = 0x000000000000000bu64.wrapping_mul(0xA24B_AED4_963E_E407);

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed ^ STREAM;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child stream (for a sub-component) from this
    /// stream. The child is a function of the parent's state, so a single
    /// top-level seed still determines everything.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Uniform integer in `[lo, hi)`, by debiased multiply-shift
    /// sampling (Lemire).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        let span = hi - lo;
        // Rejection-free for span a power of two; otherwise reject the
        // biased zone (at most one extra draw in expectation).
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let m = (self.next_u64() as u128) * (span as u128);
            if m as u64 <= zone || span.is_power_of_two() {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → uniform in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse-CDF sampling; `1 - unit()` avoids ln(0).
        -mean * (1.0 - self.unit()).ln()
    }

    /// Pareto-distributed value with scale `xm` and shape `alpha`.
    ///
    /// Used for heavy-tailed file sizes (web content is famously
    /// heavy-tailed; see Crovella & Bestavros, SIGMETRICS'96, cited by the
    /// paper).
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        xm / (1.0 - self.unit()).powf(1.0 / alpha)
    }

    /// Log-normal-ish body sampler: exp of a normal approximated by the sum
    /// of uniforms (Irwin–Hall with 12 terms has unit variance).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        let normal: f64 = (0..12).map(|_| self.unit()).sum::<f64>() - 6.0;
        (mu + sigma * normal).exp()
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimRng")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.uniform(0, 1000), b.uniform(0, 1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.uniform(0, 1000) == b.uniform(0, 1000));
        assert!(same.count() < 8);
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = SimRng::new(7).fork();
        let mut b = SimRng::new(7).fork();
        assert_eq!(a.uniform(0, u64::MAX - 1), b.uniform(0, u64::MAX - 1));
    }

    #[test]
    fn uniform_stays_in_range_and_covers() {
        let mut r = SimRng::new(1);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.uniform(10, 20);
            assert!((10..20).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exp_mean_roughly_correct() {
        let mut r = SimRng::new(9);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn pareto_is_heavy_tailed_and_bounded_below() {
        let mut r = SimRng::new(11);
        let mut max = 0.0f64;
        for _ in 0..10_000 {
            let v = r.pareto(1.0, 1.2);
            assert!(v >= 1.0);
            max = max.max(v);
        }
        // With alpha=1.2 over 10k samples, the max should be far into the
        // tail — orders of magnitude above the scale parameter.
        assert!(max > 50.0, "max {max}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped, not panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }
}
