//! Fast sparse accumulation keyed by node id.
//!
//! Per-step walker distributions are sparse maps `node → count` with at most
//! `R` (or `R'`) entries, rebuilt millions of times. The standard library
//! `HashMap` with SipHash is measurably too slow in the walk loop (the perf
//! guide recommends a cheap integer hash for exactly this case), so
//! [`OpenMap`] is a small open-addressing table with Fibonacci hashing and
//! linear probing, tuned for `u32` keys and dense reuse. [`CountMap`]
//! accumulates walker counts, [`MassMap`] accumulates floating-point mass
//! for the forward-walk estimator.

use pasco_graph::NodeId;

const EMPTY: u32 = u32::MAX;

/// Values an [`OpenMap`] can accumulate.
pub trait Accumulate: Copy + Default + PartialEq {
    /// `self += other`.
    fn accumulate(&mut self, other: Self);
}

impl Accumulate for u64 {
    #[inline]
    fn accumulate(&mut self, other: Self) {
        *self += other;
    }
}

impl Accumulate for f64 {
    #[inline]
    fn accumulate(&mut self, other: Self) {
        *self += other;
    }
}

/// Open-addressing `NodeId → V` accumulator with linear probing.
///
/// Capacity is a power of two and grows at 7/8 load. `u32::MAX` is reserved
/// as the empty marker; node ids are bounded by the graph's node count so
/// the reservation never collides (checked in debug builds).
#[derive(Clone, Debug)]
pub struct OpenMap<V> {
    keys: Vec<u32>,
    vals: Vec<V>,
    len: usize,
    mask: usize,
}

/// Walker visit counter: `node → number of walkers`.
pub type CountMap = OpenMap<u64>;
/// Mass accumulator for the MCSS forward-walk estimator: `node → mass`.
pub type MassMap = OpenMap<f64>;

impl<V: Accumulate> OpenMap<V> {
    /// An empty map sized for `expected` distinct keys.
    pub fn with_capacity(expected: usize) -> Self {
        let cap = (expected.max(4) * 8 / 7).next_power_of_two();
        Self { keys: vec![EMPTY; cap], vals: vec![V::default(); cap], len: 0, mask: cap - 1 }
    }

    /// Number of distinct keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key has been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, key: u32) -> usize {
        debug_assert_ne!(key, EMPTY, "u32::MAX is reserved");
        let h = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 32) as usize) & self.mask
    }

    /// Accumulates `delta` into `key`'s value.
    #[inline]
    pub fn add(&mut self, key: NodeId, delta: V) {
        if self.len * 8 >= (self.mask + 1) * 7 {
            self.grow();
        }
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                self.vals[slot].accumulate(delta);
                return;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.vals[slot] = delta;
                self.len += 1;
                return;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Current value for `key` (default if absent).
    #[inline]
    pub fn get(&self, key: NodeId) -> V {
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return self.vals[slot];
            }
            if k == EMPTY {
                return V::default();
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Iterates `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, V)> + '_ {
        self.keys.iter().zip(self.vals.iter()).filter(|(&k, _)| k != EMPTY).map(|(&k, &v)| (k, v))
    }

    /// Drains into a `(key, value)` vector sorted by key, allocated at its
    /// exact length (`iter()` filters, so collecting it would grow by
    /// doubling). Sorting makes downstream dot products and cross-mode
    /// equality tests deterministic.
    pub fn into_sorted_vec(self) -> Vec<(NodeId, V)> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Clears all entries, keeping capacity — the "workhorse collection"
    /// pattern for reuse across steps.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.vals.fill(V::default());
        self.len = 0;
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let mut bigger = OpenMap::<V> {
            keys: vec![EMPTY; new_cap],
            vals: vec![V::default(); new_cap],
            len: 0,
            mask: new_cap - 1,
        };
        for (k, v) in self.iter() {
            bigger.add(k, v);
        }
        *self = bigger;
    }
}

impl CountMap {
    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, v)| v).sum()
    }
}

impl MassMap {
    /// Sum of all mass.
    pub fn total_mass(&self) -> f64 {
        self.iter().map(|(_, v)| v).sum()
    }
}

impl<V: Accumulate> Default for OpenMap<V> {
    fn default() -> Self {
        Self::with_capacity(16)
    }
}

impl<V: Accumulate> FromIterator<(NodeId, V)> for OpenMap<V> {
    fn from_iter<I: IntoIterator<Item = (NodeId, V)>>(iter: I) -> Self {
        let mut m = OpenMap::default();
        for (k, v) in iter {
            m.add(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut m = CountMap::with_capacity(4);
        m.add(10, 1);
        m.add(10, 2);
        m.add(7, 5);
        assert_eq!(m.get(10), 3);
        assert_eq!(m.get(7), 5);
        assert_eq!(m.get(99), 0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.total(), 8);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = CountMap::with_capacity(2);
        for k in 0..1000 {
            m.add(k, k as u64 + 1);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000 {
            assert_eq!(m.get(k), k as u64 + 1);
        }
    }

    #[test]
    fn sorted_vec_is_sorted_and_complete() {
        let mut m = CountMap::default();
        for &k in &[5u32, 1, 9, 3] {
            m.add(k, k as u64);
        }
        let v = m.into_sorted_vec();
        assert_eq!(v, vec![(1, 1), (3, 3), (5, 5), (9, 9)]);
    }

    #[test]
    fn sorted_vec_is_allocated_at_its_exact_length() {
        // Regression: collecting the filtered `iter()` grew by doubling, so
        // a cached cohort held up to 1.6x the bytes of its entries.
        for keys in [1u32, 100, 10_001] {
            let mut m = CountMap::default();
            for k in 0..keys {
                m.add(k.wrapping_mul(2_654_435_761) >> 4, 1);
            }
            let len = m.len();
            let v = m.into_sorted_vec();
            assert_eq!((v.len(), v.capacity()), (len, len), "{keys} keys");
        }
    }

    #[test]
    fn clear_retains_capacity_and_empties() {
        let mut m = CountMap::with_capacity(8);
        for k in 0..100 {
            m.add(k, 1);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), 0);
        m.add(5, 2);
        assert_eq!(m.get(5), 2);
    }

    #[test]
    fn colliding_keys_probe_correctly() {
        // Keys engineered to collide under the fib hash with tiny capacity.
        let mut m = CountMap::with_capacity(4);
        for k in [0u32, 8, 16, 24, 32, 40] {
            m.add(k, (k + 1) as u64);
        }
        for k in [0u32, 8, 16, 24, 32, 40] {
            assert_eq!(m.get(k), (k + 1) as u64, "key {k}");
        }
    }

    #[test]
    fn from_iterator_collects() {
        let m: CountMap = vec![(1u32, 2u64), (3, 4), (1, 1)].into_iter().collect();
        assert_eq!(m.get(1), 3);
        assert_eq!(m.get(3), 4);
    }

    #[test]
    fn mass_map_accumulates_floats() {
        let mut m = MassMap::default();
        m.add(3, 0.25);
        m.add(3, 0.5);
        m.add(8, 1.0);
        assert!((m.get(3) - 0.75).abs() < 1e-12);
        assert!((m.total_mass() - 1.75).abs() < 1e-12);
    }
}
