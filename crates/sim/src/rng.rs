//! Deterministic random-number generation for simulations.
//!
//! Everything stochastic in the workspace — workload generation, victim
//! selection, failure injection — draws from a [`DeterministicRng`] seeded
//! explicitly, so a simulation is a pure function of its configuration and
//! seed. Identical seeds produce identical runs, which the integration
//! tests assert.

/// A seeded random source with the distribution helpers simulations need.
///
/// The generator is xoshiro256++ (Blackman & Vigna), seeded through a
/// SplitMix64 expansion — small, fast, dependency-free, and statistically
/// strong for simulation purposes. It adds the small set of distributions
/// used by the workload model: Bernoulli trials, uniform ranges, and
/// exponential inter-arrival times.
///
/// # Example
///
/// ```
/// use multicube_sim::DeterministicRng;
///
/// let mut a = DeterministicRng::seed(7);
/// let mut b = DeterministicRng::seed(7);
/// let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
/// let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
/// assert_eq!(xs, ys);
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    s: [u64; 4],
}

/// SplitMix64 finalization step, used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed from a `(base, stream, index)` triple by
/// folding each component through SplitMix64 finalization.
///
/// This is the workspace's seed-splitting scheme for sweep matrices: one
/// user-facing `base` seed, one `stream` per logical series (a stable hash
/// of the harness and series label — see [`stream_id`]), and one `index`
/// per point within the series. Any change to any component yields a
/// statistically unrelated seed, so
///
/// * two series sweeping the **same** rate grid draw different RNG
///   streams (different `stream`), and
/// * two harnesses sharing the default base seed draw different streams
///   (the harness name is folded into `stream`),
///
/// which is exactly what additive `base + index` seeding — the bug this
/// replaced — failed to provide.
#[inline]
pub fn split_seed(base: u64, stream: u64, index: u64) -> u64 {
    let mut s = base;
    let folded = splitmix64(&mut s);
    let mut s = folded ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let folded = splitmix64(&mut s);
    let mut s = folded ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    splitmix64(&mut s)
}

/// A stable 64-bit stream id for a `(namespace, label)` pair, for use as
/// the `stream` argument of [`split_seed`].
///
/// Built on the workspace's deterministic [`FxHasher`](crate::hash::FxHasher),
/// so the id is a pure function of the two strings — identical in every
/// process and on every platform. The namespace (typically the harness
/// name: `"fig2"`, `"faults"`, `"scaling"`) and the label (the series
/// within it: `"n=32"`, `"block=64"`) are hashed with a separator so
/// `("ab", "c")` and `("a", "bc")` get distinct ids.
pub fn stream_id(namespace: &str, label: &str) -> u64 {
    use std::hash::Hasher as _;
    let mut h = crate::hash::FxHasher::default();
    h.write(namespace.as_bytes());
    h.write_u8(0x1f); // unit separator: namespace/label boundary
    h.write(label.as_bytes());
    h.finish()
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        DeterministicRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, 1)` (53 bits of precision).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening-multiply range reduction (Lemire); the bias is at most
        // bound/2^64, irrelevant for simulation workloads.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A Bernoulli trial that succeeds with probability `p`.
    ///
    /// `p` is clamped to `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed value with the given mean.
    ///
    /// Used for inter-arrival (think) times in the open workload model.
    /// Returns `mean` itself if `mean` is not finite and positive.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if !(mean.is_finite() && mean > 0.0) {
            return mean;
        }
        // Inverse-CDF; 1-u avoids ln(0).
        let u = self.uniform();
        -mean * (1.0 - u).ln()
    }

    /// A Zipf-distributed index in `[0, n)` with skew `theta` in `(0, 1)`:
    /// index 0 is the hottest. Uses the classic Knuth/Gray approximation
    /// (inverse transform over the generalized harmonic numbers is
    /// approximated by a power law), adequate for workload generation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        assert!(n > 0, "zipf needs a nonempty domain");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipf skew must be in (0, 1), got {theta}"
        );
        // Inverse-CDF of the continuous approximation:
        //   F(x) ~ (x/n)^(1-theta)  =>  x = n * u^(1/(1-theta)).
        let u = self.uniform();
        let x = (n as f64) * u.powf(1.0 / (1.0 - theta));
        (x as u64).min(n - 1)
    }

    /// Picks a uniformly random element index different from `exclude`,
    /// in `[0, bound)`. Useful for "some other processor" choices.
    ///
    /// # Panics
    ///
    /// Panics if `bound < 2`.
    pub fn below_excluding(&mut self, bound: u64, exclude: u64) -> u64 {
        assert!(bound >= 2, "need at least two choices");
        let raw = self.below(bound - 1);
        if raw >= exclude {
            raw + 1
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seed(123);
        let mut b = DeterministicRng::seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::seed(1);
        let mut b = DeterministicRng::seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = DeterministicRng::seed(5);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DeterministicRng::seed(5);
        assert!((0..100).all(|_| r.chance(1.0)));
        assert!((0..100).all(|_| !r.chance(0.0)));
    }

    #[test]
    fn chance_probability_roughly_respected() {
        let mut r = DeterministicRng::seed(5);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_roughly_respected() {
        let mut r = DeterministicRng::seed(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(40.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 40.0).abs() < 2.0, "mean={mean}");
    }

    #[test]
    fn exponential_degenerate_mean_passthrough() {
        let mut r = DeterministicRng::seed(11);
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn below_excluding_never_returns_excluded() {
        let mut r = DeterministicRng::seed(3);
        for _ in 0..1000 {
            let v = r.below_excluding(8, 3);
            assert!(v < 8 && v != 3);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_zero() {
        let mut r = DeterministicRng::seed(21);
        let n = 1000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..50_000 {
            counts[r.zipf(n, 0.8) as usize] += 1;
        }
        // The hottest item dominates any mid-range item by a wide margin.
        assert!(
            counts[0] > counts[100] * 5,
            "{} vs {}",
            counts[0],
            counts[100]
        );
        // The whole domain is reachable.
        assert!(counts.iter().filter(|&&c| c > 0).count() > 100);
    }

    #[test]
    #[should_panic(expected = "skew must be in")]
    fn zipf_rejects_bad_theta() {
        let mut r = DeterministicRng::seed(1);
        let _ = r.zipf(10, 1.5);
    }

    #[test]
    fn split_seed_is_sensitive_to_every_component() {
        let base = split_seed(0x5EED, 1, 0);
        assert_eq!(base, split_seed(0x5EED, 1, 0), "derivation is stable");
        assert_ne!(base, split_seed(0x5EED + 1, 1, 0), "base matters");
        assert_ne!(base, split_seed(0x5EED, 2, 0), "stream matters");
        assert_ne!(base, split_seed(0x5EED, 1, 1), "index matters");
        // Nearby indices must not collapse to nearby streams the way
        // additive seeding did: the first draws of adjacent points differ.
        let a = DeterministicRng::seed(split_seed(9, 9, 0)).next_u64();
        let b = DeterministicRng::seed(split_seed(9, 9, 1)).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn stream_ids_separate_namespaces_and_labels() {
        assert_eq!(stream_id("fig2", "n=8"), stream_id("fig2", "n=8"));
        assert_ne!(stream_id("fig2", "n=8"), stream_id("fig2", "n=16"));
        assert_ne!(stream_id("fig2", "n=8"), stream_id("fig3", "n=8"));
        // The separator keeps the pair boundary unambiguous.
        assert_ne!(stream_id("ab", "c"), stream_id("a", "bc"));
    }

    #[test]
    fn below_covers_range() {
        let mut r = DeterministicRng::seed(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_is_reasonably_uniform() {
        let mut r = DeterministicRng::seed(17);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "count {c} outside 10% band");
        }
    }
}
