//! Deterministic pseudo-random number generation for workload synthesis.
//!
//! The synthetic `carts`/`users` generators and all randomized tests need a
//! seedable, stable stream that does not change when the `rand` crate's
//! algorithms do. SplitMix64 is tiny, fast, and passes BigCrush for this
//! purpose; it is *not* cryptographic.

/// SplitMix64 PRNG (Steele, Lea & Flood 2014).
///
/// ```
/// use sqlml_common::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // seeded => reproducible
/// assert!(a.next_below(10) < 10);
/// ```
///
/// Two generators compare equal when their states are: they will draw
/// the same stream from here on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The increment every draw adds to the state. It is odd, so `k` draws
/// move the state by `k·GAMMA` and two states reached from one start are
/// equal exactly when their draw counts agree (mod 2^64).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Skip `k` raw draws in O(1): afterwards the generator is where `k`
    /// calls of [`Self::next_u64`] would have left it.
    pub fn advance(&mut self, k: u64) {
        self.state = self.state.wrapping_add(k.wrapping_mul(GAMMA));
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`. `bound` must be nonzero. Uses Lemire's
    /// multiply-shift rejection method to avoid modulo bias.
    // Lemire reduction: the high half of a u64×u64 product fits in u64.
    #[allow(clippy::cast_possible_truncation)]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be > 0");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    // The span of any i64 sub-range (lo < hi here) fits in u64.
    #[allow(clippy::cast_possible_truncation)]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi);
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.next_below(span) as i64)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard-normal draw (Box–Muller; one value per call, the second is
    /// discarded for simplicity — generation throughput is not a
    /// bottleneck here).
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > 0.0 {
                let u2 = self.next_f64();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Pick one element of a non-empty slice.
    // next_below(len) < len, which already fits in usize.
    #[allow(clippy::cast_possible_truncation)]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_below(items.len() as u64) as usize]
    }

    /// Pick an index according to a weight vector (weights need not sum to
    /// one; they must be non-negative with positive total).
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive total");
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// In-place Fisher–Yates shuffle.
    // next_below(i + 1) <= i, which already fits in usize.
    #[allow(clippy::cast_possible_truncation)]
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Derive an independent child stream (for per-partition generators
    /// that must not correlate).
    pub fn fork(&mut self, stream: u64) -> SplitMix64 {
        let mixed = self
            .next_u64()
            .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(mixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn advance_skips_exactly_k_draws() {
        for k in [0u64, 1, 6, 7, 1_000] {
            let mut skipped = SplitMix64::new(99);
            skipped.advance(k);
            let mut drawn = SplitMix64::new(99);
            (0..k).for_each(|_| {
                drawn.next_u64();
            });
            assert_eq!(skipped, drawn, "k = {k}");
            assert_eq!(skipped.next_u64(), drawn.next_u64());
        }
        // One draw more or less is a different state.
        let (mut a, b) = (SplitMix64::new(5), SplitMix64::new(5));
        a.advance(1);
        assert_ne!(a, b);
    }

    #[test]
    fn known_first_output() {
        // Reference value from the SplitMix64 paper test vectors (seed 0).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn range_covers_endpoints() {
        let mut r = SplitMix64::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match r.range_i64(-2, 2) {
                -2 => saw_lo = true,
                2 => saw_hi = true,
                v => assert!((-2..=2).contains(&v)),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SplitMix64::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn weighted_choice_tracks_weights() {
        let mut r = SplitMix64::new(13);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[r.choose_weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.03, "frac2 was {frac2}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input ordered"
        );
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = SplitMix64::new(1);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SplitMix64::new(23);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
