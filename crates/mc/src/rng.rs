//! Deterministic, counter-seedable random number generation.
//!
//! The hot loops of CloudWalker draw billions of uniforms; the engine needs
//! (a) speed, (b) the ability to derive a statistically independent stream
//! for every `(node, walker, purpose)` triple so that results do not depend
//! on which thread or cluster partition executes the walk. [`SplitMix64`]
//! provides the key-derivation step (it is a bijective mixer, so distinct
//! inputs give distinct, decorrelated outputs) and [`Xoshiro256pp`] the
//! long-period stream.

/// SplitMix64: Steele, Lea & Flood's 64-bit mixer. One multiply-xor chain
/// per output; used here both as a tiny RNG and as the seed-derivation
/// function for [`Xoshiro256pp`].
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator at `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Mixes several keys into one 64-bit seed. Used to derive per-walker
/// streams: `mix(&[master, node, walker])`.
#[inline]
pub fn mix(keys: &[u64]) -> u64 {
    mix_extend(0x243f_6a88_85a3_08d3, keys) // pi digits: arbitrary non-zero
}

/// Folds further `keys` into an accumulator [`mix`] already holds:
/// `mix(&[a, b, c]) == mix_extend(mix(&[a, b]), &[c])`, so a loop over
/// walkers hoists the rounds of the keys they share.
#[inline]
pub fn mix_extend(mut acc: u64, keys: &[u64]) -> u64 {
    for &k in keys {
        let mut sm = SplitMix64::new(acc ^ k);
        acc = sm.next_u64();
    }
    acc
}

/// xoshiro256++ (Blackman & Vigna): 4×64-bit state, period 2²⁵⁶−1,
/// passes BigCrush; ~1 ns per draw.
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the full state through SplitMix64, per the reference
    /// implementation's recommendation (never all-zero).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Derives a stream for a keyed entity, e.g. `for_keys(&[seed, node, w])`.
    pub fn for_keys(keys: &[u64]) -> Self {
        Self::seed_from_u64(mix(keys))
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` by Lemire's multiply-shift (no
    /// modulo bias worth caring about at walk scales, no division).
    ///
    /// # Panics
    /// Panics when `bound == 0`, in release builds too: a zero bound means
    /// the caller sampled from an empty set (e.g. a walk step taken from a
    /// node with no neighbours), and silently returning 0 — what the old
    /// `debug_assert!` allowed in release — would mask that bug.
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "next_below: bound must be positive");
        (((self.next_u64() >> 32) * bound as u64) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(a, sm2.next_u64());
        assert_eq!(b, sm2.next_u64());
    }

    #[test]
    fn xoshiro_streams_are_deterministic_and_distinct() {
        let mut r1 = Xoshiro256pp::for_keys(&[42, 7, 0]);
        let mut r2 = Xoshiro256pp::for_keys(&[42, 7, 0]);
        let mut r3 = Xoshiro256pp::for_keys(&[42, 7, 1]);
        let v1: Vec<u64> = (0..8).map(|_| r1.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| r2.next_u64()).collect();
        let v3: Vec<u64> = (0..8).map(|_| r3.next_u64()).collect();
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn next_below_is_in_range_and_balanced() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_bound_panics_in_every_profile() {
        // Regression: this was a debug_assert!, so release builds silently
        // returned 0 for an empty sampling set. The contract must hold in
        // release too — CI's release-mode test job exercises this.
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let _ = rng.next_below(0);
    }

    #[test]
    fn mix_depends_on_every_key() {
        assert_ne!(mix(&[1, 2, 3]), mix(&[1, 2, 4]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[2, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[1, 3, 2]));
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
    }

    #[test]
    fn mix_is_a_left_fold_that_mix_extend_resumes() {
        let keys = [7u64, 0, u64::MAX, 0x9a5c0];
        for split in 0..=keys.len() {
            let (head, tail) = keys.split_at(split);
            assert_eq!(mix(&keys), mix_extend(mix(head), tail), "split at {split}");
        }
    }

    #[test]
    fn mix_of_zero_keys_is_not_degenerate() {
        // All-zero keys must still seed a usable stream.
        let mut r = Xoshiro256pp::for_keys(&[0, 0, 0]);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
