//! Reproducible pseudo-random number generation.
//!
//! Fault-injection campaigns must replay bit-for-bit from a seed (the paper
//! reports distributions over 1000 runs; we report the same and every run is
//! addressable as `seed = campaign_seed + run_index`). We implement
//! xoshiro256** seeded through SplitMix64 — the reference construction — so
//! the generator has no dependency on platform or crate-version behaviour.

/// A deterministic xoshiro256** generator.
///
/// # Example
///
/// ```
/// use ftgm_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The state is expanded with SplitMix64, which guarantees a non-zero
    /// state for every seed (an all-zero state would be a fixed point).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        // Destructuring keeps the scramble free of indexing (the RNG runs
        // inside fault injection, i.e. on the recovery path).
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)` using Lemire's
    /// multiply-shift rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range_between requires lo < hi");
        lo + self.gen_range(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[expect(
        clippy::float_arithmetic,
        reason = "a 53-bit integer over 2^53 divides exactly, the same bits on every host"
    )]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // Compare against a 53-bit uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Returns a uniform f64 in `[0, 1)`.
    #[expect(
        clippy::float_arithmetic,
        reason = "a 53-bit integer over 2^53 divides exactly, the same bits on every host"
    )]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose requires a non-empty slice");
        &items[self.gen_range(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        // Overwhelmingly likely to differ on the first draw.
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SimRng::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
    }

    #[test]
    fn gen_range_covers_small_bounds() {
        let mut r = SimRng::new(11);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[r.gen_range(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gen_range_zero_panics() {
        SimRng::new(0).gen_range(0);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SimRng::new(5);
        for _ in 0..100 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_roughly_fair() {
        let mut r = SimRng::new(9);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(21);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_returns_member() {
        let mut r = SimRng::new(33);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }

    #[test]
    fn gen_range_between_bounds() {
        let mut r = SimRng::new(55);
        for _ in 0..1_000 {
            let x = r.gen_range_between(5, 8);
            assert!((5..8).contains(&x));
        }
    }
}
