//! Reverse random walks along in-links — the SimRank chain.
//!
//! A walker at node `v` steps to a uniformly random in-neighbour; if `v` has
//! no in-neighbours the walker **dies** (the empirical distribution loses
//! mass, matching the sub-stochastic truncated series `Pᵗeᵢ`).
//!
//! Randomness is *stateless per step*: the uniform used by walker `w` from
//! source `s` at step `t` is a pure function of `(master_seed, s, w, t)`
//! (see [`step_u64`]). Walks therefore take identical trajectories whether
//! they are simulated locally, on a broadcast worker pool, or shuffled
//! across RDD partitions step by step — the property the cross-mode equality
//! tests rely on.
//!
//! It also makes loop order free, and the cohort kernel
//! ([`WalkScratch::block_on`]) is **step-synchronous**: the live walkers'
//! positions and keys sit in two flat arrays, in walker order, and a pass
//! advances all of them by one step — independent iterations, so their cache
//! misses overlap, where a walker-major loop is a chain of `T` dependent
//! loads — compacting out the ones that die. It has one histogram writer: a
//! step's positions are copied out, sorted and run-length encoded straight
//! into `u32` ids, counts and a step offset the scratch keeps, and the
//! cohort leaves as a [`CohortBlock`] in one exact-size allocation, never
//! built nested and flattened: each count narrowed to one byte (the rare
//! count of 255 or more escaped to an exact list), each step's nodes kept
//! as sorted ids or as a bitmap over their span, whichever one rule
//! (`bitmap_pays`) finds smaller — 5 B an entry at most. Counts are
//! integers, so the histograms are, entry for entry, what a per-walker loop
//! ([`reverse_walk_path`], the test oracle) adds up; the nested
//! [`StepDistributions`] are the block expanded.
//!
//! Serving cohorts run on a per-thread scratch: ≈ 20 B a walker (position,
//! key, sort buffers) plus 8 B an entry, ≈ 1 MB a thread at `R′ = 10 000`,
//! `T = 10`. It is sized by the largest cohort the thread ran — the
//! configured `R′` — and never shrunk. The offline build runs the same walk
//! through [`WalkScratch::visits_on`] on a scratch per piece, which sorts
//! the whole cohort's visits once instead of once per step.

use crate::rng::{mix, mix_extend, SplitMix64};
use pasco_graph::{CsrGraph, NodeId, WalkAdjacency};
use std::cell::RefCell;
use std::ops::Range;

/// Walk-cohort parameters: `steps` is the paper's `T`, `walkers` its `R`
/// (indexing) or `R'` (queries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkParams {
    /// Number of steps `T` each walker takes.
    pub steps: usize,
    /// Cohort size (`R` / `R'`).
    pub walkers: u32,
}

impl WalkParams {
    /// Convenience constructor.
    pub fn new(steps: usize, walkers: u32) -> Self {
        assert!(walkers > 0, "need at least one walker");
        Self { steps, walkers }
    }
}

/// The per-walker RNG key; combine with a step index via [`step_u64`].
#[inline]
pub fn walker_key(seed: u64, source: NodeId, walker: u32) -> u64 {
    mix(&[seed, source as u64, walker as u64])
}

/// [`walker_key`] of every walker in `walkers`, in order, the rounds of the
/// shared `(seed, source)` prefix mixed once.
#[inline]
pub fn walker_keys(seed: u64, source: NodeId, walkers: Range<u32>) -> impl Iterator<Item = u64> {
    let prefix = mix(&[seed, source as u64]);
    walkers.map(move |w| mix_extend(prefix, &[w as u64]))
}

/// The 64 uniform bits consumed by one walk step — a pure function of the
/// walker key and step index, independent of where the step executes.
#[inline]
pub fn step_u64(walker_key: u64, t: u32) -> u64 {
    SplitMix64::new(walker_key ^ (t as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Picks index `< len` from 64 uniform bits (Lemire multiply-shift).
#[inline]
pub fn pick(u: u64, len: usize) -> usize {
    (((u >> 32) * len as u64) >> 32) as usize
}

/// One reverse-walk step from `pos`; `None` when `pos` is dangling.
#[inline]
pub fn reverse_step<G: WalkAdjacency>(graph: &G, pos: NodeId, key: u64, t: u32) -> Option<NodeId> {
    let ins = graph.in_neighbors(pos);
    (!ins.is_empty()).then(|| ins[pick(step_u64(key, t), ins.len())])
}

/// Empirical per-step distributions of a walker cohort from one source:
/// `counts[t]` is the visit histogram at step `t` (sorted by node id),
/// normalising by `walkers` estimates `Pᵗ e_source`.
#[derive(Clone, Debug, PartialEq)]
pub struct StepDistributions {
    /// The source node all walkers started from.
    pub source: NodeId,
    /// Cohort size used for normalisation.
    pub walkers: u32,
    /// `counts[t]` for `t = 0..=steps`; `counts[0] = [(source, walkers)]`.
    pub counts: Vec<Vec<(NodeId, u64)>>,
}

impl StepDistributions {
    /// Number of steps simulated (`T`).
    pub fn steps(&self) -> usize {
        self.counts.len() - 1
    }

    /// Surviving mass at step `t` (≤ 1; < 1 once walkers hit dangling nodes).
    pub fn mass(&self, t: usize) -> f64 {
        let total: u64 = self.counts[t].iter().map(|&(_, c)| c).sum();
        total as f64 / self.walkers as f64
    }
}

/// A count byte at or past this is the escape: the exact count is in the
/// block's escape list.
const ESCAPE: u32 = 255;

/// The step-form rule, said once: a step of `entries` entries whose ids
/// span `words` 64-bit words keeps them as a bitmap when its words take
/// fewer `u32`s than its ids would, as sorted ids otherwise (ties included).
#[inline]
fn bitmap_pays(entries: usize, words: usize) -> bool {
    2 * words < entries
}

/// The 64-bit words from the one holding `first` to the one holding `last`.
#[inline]
fn span(first: NodeId, last: NodeId) -> usize {
    (last / 64 - first / 64 + 1) as usize
}

/// A cohort flattened into one `u32` block, 5 B an entry or less where
/// [`StepDistributions`] spends 16:
/// `[offsets | key offsets | bases | keys | escapes | counts]`. Step `t`'s
/// entries are `offsets[t]..offsets[t + 1]` of `counts`, one byte an
/// entry, four to a word, in id order; its keys are
/// `key_offsets[t]..key_offsets[t + 1]` of `keys`, in one of two forms
/// (`bitmap_pays` picks): the sorted ids, one word an entry, or a bitmap
/// of 64-bit words (two `u32`s each, low half first) over the step's id
/// span, whose bit 0 is node `64·bases[t]` — fewer keys than entries marks
/// it. Nearly every count fits its byte; one of 255 or more (step 0's
/// `R′`, a hub's) is written as the escape byte 255 and its exact value
/// goes in `escapes`, `(entry, count)` pairs sorted by entry — a handful a
/// cohort. Converts to and from the nested form exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CohortBlock {
    /// The source node all walkers started from.
    pub source: NodeId,
    /// Cohort size used for normalisation.
    pub walkers: u32,
    /// Number of step histograms (`T + 1`).
    histograms: usize,
    words: Box<[u32]>,
}

/// A block's parts, as [`CohortBlock`] lays them out.
#[derive(Clone, Copy)]
struct Parts<'a> {
    offsets: &'a [u32],
    key_offsets: &'a [u32],
    bases: &'a [u32],
    keys: &'a [u32],
    escapes: &'a [[u32; 2]],
    counts: &'a [u32],
}

impl CohortBlock {
    /// Packs step offsets (from 0), node ids and their counts into one
    /// exact-size allocation, each step's ids kept as they are or as a
    /// bitmap, each count narrowed to its byte or escaped.
    fn pack(source: NodeId, walkers: u32, offsets: &[u32], ids: &[NodeId], counts: &[u32]) -> Self {
        // Escapes are rare: one branch-free test per 64 counts finds them.
        let mut escapes = Vec::new();
        for (first, chunk) in (0u32..).step_by(64).zip(counts.chunks(64)) {
            if chunk.iter().fold(false, |any, &c| any | (c >= ESCAPE)) {
                let escaped = (first..).zip(chunk).filter(|&(_, &c)| c >= ESCAPE);
                escapes.extend(escaped.flat_map(|(e, &c)| [e, c]));
            }
        }
        let histograms = offsets.len() - 1;
        let step = |w: &[u32]| &ids[w[0] as usize..w[1] as usize];
        // Each step's first bitmap word (`None`: it keeps its ids) and keys.
        let forms: Vec<(Option<u32>, u32)> = offsets
            .windows(2)
            .map(|w| match (step(w).first(), step(w).last()) {
                (Some(&first), Some(&last)) if bitmap_pays(step(w).len(), span(first, last)) => {
                    (Some(first / 64), 2 * span(first, last) as u32)
                }
                _ => (None, w[1] - w[0]),
            })
            .collect();
        let ends = forms.iter().scan(0, |end, &(_, keys)| {
            *end += keys;
            Some(*end)
        });
        let key_offsets: Vec<u32> = std::iter::once(0).chain(ends).collect();
        let keys = key_offsets[histograms] as usize;
        let len = 2 * offsets.len() + histograms + keys + escapes.len() + counts.len().div_ceil(4);
        let mut words = Vec::with_capacity(len);
        words.extend_from_slice(offsets);
        words.extend_from_slice(&key_offsets);
        words.extend(forms.iter().map(|&(base, _)| base.unwrap_or(0)));
        for (w, &(base, keys)) in offsets.windows(2).zip(&forms) {
            let Some(base) = base else {
                words.extend_from_slice(step(w));
                continue;
            };
            let at = words.len();
            words.resize(at + keys as usize, 0);
            for &v in step(w) {
                words[at + (v / 32 - 2 * base) as usize] |= 1 << (v % 32);
            }
        }
        words.extend_from_slice(&escapes);
        let (quads, rest) = counts.as_chunks();
        let b = |c: u32| c.min(ESCAPE);
        words.extend(quads.iter().map(|&[w, x, y, z]| b(w) | b(x) << 8 | b(y) << 16 | b(z) << 24));
        words.extend((!rest.is_empty()).then(|| rest.iter().rev().fold(0, |w, &c| w << 8 | b(c))));
        Self { source, walkers, histograms, words: words.into_boxed_slice() }
    }

    /// Distinct `(step, node)` entries over every step.
    pub fn entries(&self) -> usize {
        self.words[self.histograms] as usize
    }

    /// The block's parts, in their order.
    #[inline]
    fn parts(&self) -> Parts<'_> {
        let h = self.histograms;
        let (offsets, rest) = self.words.split_at(h + 1);
        let (key_offsets, rest) = rest.split_at(h + 1);
        let (bases, rest) = rest.split_at(h);
        let (keys, rest) = rest.split_at(key_offsets[h] as usize);
        let (escapes, counts) = rest.split_at(rest.len() - self.entries().div_ceil(4));
        Parts { offsets, key_offsets, bases, keys, escapes: escapes.as_chunks().0, counts }
    }

    /// Every step's histogram, `t = 0..=T`.
    #[inline]
    pub fn histograms(&self) -> impl ExactSizeIterator<Item = BlockStep<'_>> {
        let p = self.parts();
        (0..self.histograms).map(move |t| {
            let (first, len) = (p.offsets[t] as usize, (p.offsets[t + 1] - p.offsets[t]) as usize);
            let keys = &p.keys[p.key_offsets[t] as usize..p.key_offsets[t + 1] as usize];
            let counts = StepCounts { first, counts: p.counts, escapes: p.escapes };
            if keys.len() == len {
                BlockStep::Ids(IdStep { ids: keys, counts })
            } else {
                let base = p.bases[t] as usize;
                BlockStep::Bits(BitStep { base, words: keys.as_chunks().0, len, counts })
            }
        })
    }

    /// Bytes of the block's one heap allocation.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words)
    }
}

/// One step's histogram, in the form its cohort keeps: an id list (`L`: a
/// [`CohortBlock`] step's [`IdStep`], or a nested cohort's
/// `&[(NodeId, u64)]`), or a block step's bitmap.
#[derive(Clone, Copy, Debug)]
pub enum BlockStep<'a, L = IdStep<'a>> {
    /// The nodes visited as ascending ids.
    Ids(L),
    /// The nodes visited as a bitmap.
    Bits(BitStep<'a>),
}

impl<L: IdList> BlockStep<'_, L> {
    /// Number of distinct nodes visited.
    pub fn entries(self) -> usize {
        match self {
            Self::Ids(s) => s.entries(),
            Self::Bits(s) => s.entries(),
        }
    }

    /// Calls `f` on each `(node, count)` of the step, ascending by node.
    #[inline]
    pub fn for_each(self, mut f: impl FnMut(NodeId, u64)) {
        match self {
            Self::Ids(s) => (0..s.entries()).for_each(|i| f(s.node(i), s.count(i))),
            Self::Bits(s) => s.for_each(|v, c| f(v, c.into())),
        }
    }
}

/// One step's histogram as a list ascending by node id: a nested
/// cohort's step, or a block step that keeps its ids.
pub trait IdList: Copy {
    /// Number of distinct nodes visited.
    fn entries(self) -> usize;
    /// The `i`-th node visited.
    fn node(self, i: usize) -> NodeId;
    /// How many walkers stood on the `i`-th node.
    fn count(self, i: usize) -> u64;
    /// How many entries lie below `node`.
    fn rank(self, node: NodeId) -> usize;
    /// Hands `put` each slot of `out` with entry `from + k`'s count.
    #[inline]
    fn fill_counts<T>(self, from: usize, out: &mut [T], put: impl Fn(&mut T, u64)) {
        out.iter_mut().zip(from..).for_each(|(slot, e)| put(slot, self.count(e)));
    }
}

impl IdList for &[(NodeId, u64)] {
    fn entries(self) -> usize {
        self.len()
    }
    fn node(self, i: usize) -> NodeId {
        self[i].0
    }
    fn count(self, i: usize) -> u64 {
        self[i].1
    }
    fn rank(self, node: NodeId) -> usize {
        self.partition_point(|&(k, _)| k < node)
    }
}

/// A step's counts, one byte an entry in the block's count words, the
/// escaped ones in its escape list.
#[derive(Clone, Copy, Debug)]
struct StepCounts<'a> {
    /// The block entry of the step's first node.
    first: usize,
    counts: &'a [u32],
    escapes: &'a [[u32; 2]],
}

impl StepCounts<'_> {
    /// Hands `put` each slot of `out` with the count of the step's node
    /// `from + k`: four count bytes a word, with one branch-free test a
    /// word for the escape byte, then, if any word held one, those counts
    /// exactly.
    #[inline(always)]
    fn fill<T>(&self, from: usize, out: &mut [T], put: impl Fn(&mut T, u32)) {
        let start = self.first + from;
        let head = ((4 - start % 4) % 4).min(out.len());
        let quads = (out.len() - head) / 4;
        let words = &self.counts[(start + head) / 4..][..quads];
        let mut escaped = 0;
        for (quad, &w) in out[head..].chunks_exact_mut(4).zip(words) {
            quad.iter_mut().zip(w.to_le_bytes()).for_each(|(slot, c)| put(slot, c.into()));
            escaped |= (!w).wrapping_sub(0x0101_0101) & w & 0x8080_8080;
        }
        // The counts outside whole words, and the rest too past an escape.
        let body = if escaped == 0 { head..head + 4 * quads } else { head..head };
        for k in (0..body.start).chain(body.end..out.len()) {
            put(&mut out[k], self.get(from + k));
        }
    }

    /// The count of the step's `i`-th node.
    #[inline(always)]
    fn get(&self, i: usize) -> u32 {
        let e = self.first + i;
        let byte = self.counts[e / 4] >> (e % 4 * 8) & 0xff;
        if byte < ESCAPE {
            byte
        } else {
            // Inlined with its callers: a call spills `score_pair`'s sum.
            self.escapes[self.escapes.partition_point(|&[at, _]| (at as usize) < e)][1]
        }
    }
}

/// A step kept as ids: node ids ascending, each count read through
/// [`IdList::count`].
#[derive(Clone, Copy, Debug)]
pub struct IdStep<'a> {
    /// The nodes visited, ascending.
    pub ids: &'a [NodeId],
    counts: StepCounts<'a>,
}

impl IdList for IdStep<'_> {
    fn entries(self) -> usize {
        self.ids.len()
    }
    fn node(self, i: usize) -> NodeId {
        self.ids[i]
    }
    #[inline(always)]
    fn count(self, i: usize) -> u64 {
        self.counts.get(i).into()
    }
    fn rank(self, node: NodeId) -> usize {
        self.ids.partition_point(|&k| k < node)
    }
    #[inline]
    fn fill_counts<T>(self, from: usize, out: &mut [T], put: impl Fn(&mut T, u64)) {
        self.counts.fill(from, out, |slot, c| put(slot, c.into()));
    }
}

/// A step kept as a bitmap: word `w` of [`Self::span`] holds nodes
/// `64·w .. 64·w + 64`, one bit each, and the `i`-th node set, counted in
/// id order, has count [`Self::count`]`(i)`.
#[derive(Clone, Copy, Debug)]
pub struct BitStep<'a> {
    base: usize,
    words: &'a [[u32; 2]],
    len: usize,
    counts: StepCounts<'a>,
}

impl BitStep<'_> {
    /// Number of distinct nodes visited: the bits set.
    pub fn entries(&self) -> usize {
        self.len
    }

    /// The words the bitmap holds, as indices into the whole id space.
    pub fn span(&self) -> Range<usize> {
        self.base..self.base + self.words.len()
    }

    /// Word `w` of the id space, `w` in [`Self::span`].
    #[inline(always)]
    pub fn word(&self, w: usize) -> u64 {
        let [low, high] = self.words[w - self.base];
        u64::from(low) | u64::from(high) << 32
    }

    /// How many walkers stood on the `i`-th node set.
    #[inline(always)]
    pub fn count(&self, i: usize) -> u32 {
        self.counts.get(i)
    }

    /// Hands `put` each slot of `out` with the count of the node set
    /// `from + k`.
    #[inline]
    pub fn counts_into<T>(&self, from: usize, out: &mut [T], put: impl Fn(&mut T, u32)) {
        self.counts.fill(from, out, put);
    }

    /// Hands `put` the slots of `out` in order with the nodes set in words
    /// `w..` of the id space, ascending, a whole word at a time while it
    /// fits, and returns how many slots hold a node and the word after the
    /// last it read. Slots past those may be handed spare values.
    #[inline(always)]
    pub fn ids_from<T>(
        &self,
        mut w: usize,
        out: &mut [T],
        put: impl Fn(&mut T, NodeId),
    ) -> (usize, usize) {
        let (mut at, mut live) = (0, [(0, 0); 16]);
        while w < self.span().end {
            // The group's nonzero words, found without a branch a word.
            let group = w..self.span().end.min(w + 16);
            let mut n = 0;
            for v in group.clone() {
                live[n] = (v, self.word(v));
                n += usize::from(live[n].1 != 0);
            }
            for &(v, mut bits) in &live[..n] {
                let set = bits.count_ones() as usize;
                let Some(slots) = out.get_mut(at..at + set.next_multiple_of(8)) else {
                    return (at, v);
                };
                // Eight slots a round, handed out whether set or not: a
                // word's few nodes cost no branch on their number.
                for round in slots.chunks_exact_mut(8) {
                    for slot in round {
                        put(slot, (64 * v) as NodeId + bits.trailing_zeros());
                        bits &= bits.wrapping_sub(1);
                    }
                }
                at += set;
            }
            w = group.end;
        }
        (at, w)
    }

    /// Calls `f` on each `(node, count)` of the step, ascending by node.
    #[inline]
    pub fn for_each(self, mut f: impl FnMut(NodeId, u32)) {
        let mut ids = [0; 256];
        let (mut w, mut first) = (self.base, 0);
        while w < self.span().end {
            let (got, next) = self.ids_from(w, &mut ids, |slot, v| *slot = v);
            (first..).zip(&ids[..got]).for_each(|(i, &v)| f(v, self.count(i)));
            (w, first) = (next, first + got);
        }
    }
}

impl TryFrom<&StepDistributions> for CohortBlock {
    type Error = std::num::TryFromIntError;

    /// Fails only on a count or an entry total beyond `u32`.
    fn try_from(d: &StepDistributions) -> Result<Self, Self::Error> {
        let mut offsets = vec![0];
        let mut end = 0;
        for step in &d.counts {
            end += step.len();
            offsets.push(u32::try_from(end)?);
        }
        let ids: Vec<NodeId> = d.counts.iter().flatten().map(|&(v, _)| v).collect();
        let counts = d.counts.iter().flatten().map(|&(_, c)| u32::try_from(c));
        let counts = counts.collect::<Result<Vec<_>, _>>()?;
        Ok(Self::pack(d.source, d.walkers, &offsets, &ids, &counts))
    }
}

impl From<&CohortBlock> for StepDistributions {
    fn from(b: &CohortBlock) -> Self {
        let step = |s: BlockStep<'_>| {
            let mut out = Vec::with_capacity(s.entries());
            s.for_each(|v, c| out.push((v, c)));
            out
        };
        StepDistributions {
            source: b.source,
            walkers: b.walkers,
            counts: b.histograms().map(step).collect(),
        }
    }
}

/// Frontiers of at least this many positions, and cohorts of at least this
/// many visit keys, are radix-sorted; below it `sort_unstable` is faster
/// (the build's `R = 100` frontiers never reach it, its cohorts' keys do).
const RADIX_MIN: usize = 256;
/// Most bits per radix pass: 2048 buckets, two passes up to 4M nodes.
const RADIX_BITS: u32 = 11;

/// Stable LSD radix sort of `keys`, all below `bound`, by their bits from
/// `low` up, through the buffer `tmp`: as few passes as digits of at most
/// `RADIX_BITS` allow, the bits split evenly between them.
fn radix_sort<K>(keys: &mut Vec<K>, tmp: &mut Vec<K>, low: u32, bound: u64)
where
    K: Copy + Default + Into<u64>,
{
    tmp.resize(keys.len(), K::default());
    let bits = (u64::BITS - bound.saturating_sub(1).leading_zeros()).saturating_sub(low);
    let passes = bits.div_ceil(RADIX_BITS);
    let digit = bits.div_ceil(passes.max(1));
    let mask = (1 << digit) - 1;
    let mut buckets = [0u32; 1 << RADIX_BITS];
    for pass in 0..passes {
        let shift = low + pass * digit;
        let next = &mut buckets[..1 << digit];
        next.fill(0);
        for &k in keys.iter() {
            next[((k.into() >> shift) & mask) as usize] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for &k in keys.iter() {
            let slot = &mut next[((k.into() >> shift) & mask) as usize];
            tmp[*slot as usize] = k;
            *slot += 1;
        }
        std::mem::swap(keys, tmp);
    }
}

/// The cohort kernel's reusable state: the frontier of live walkers and the
/// buffers their positions are sorted in. A loop over many small cohorts
/// (the offline build) keeps one per thread and allocates them once.
#[derive(Debug, Default)]
pub struct WalkScratch {
    /// Position of every live walker, in walker order.
    pos: Vec<NodeId>,
    /// Their RNG keys, parallel to `pos`.
    key: Vec<u64>,
    /// The positions again, sorted for the step's histogram.
    sorted: Vec<NodeId>,
    /// The radix sort's second buffer.
    tmp: Vec<NodeId>,
    /// [`Self::block_on`]'s step offsets, node ids and counts.
    offsets: Vec<u32>,
    ids: Vec<NodeId>,
    counts: Vec<u32>,
    /// [`Self::visits_on`]'s visit keys.
    visits: Vec<u64>,
    /// Their radix sort's second buffer.
    visits_tmp: Vec<u64>,
}

impl WalkScratch {
    /// The cohort kernel, said once: walks the cohort members `walkers` of
    /// `source` for `steps` steps, the whole frontier one step at a time,
    /// and writes the visit histogram of each step `0..=steps` (sorted by
    /// node id) into one block normalised by the members' number.
    ///
    /// # Panics
    /// If `source` is out of range, or the cohort's `(steps + 1)·walkers`
    /// visits overflow a `u32` offset (`SimRankConfig::validate` refuses
    /// such a query cohort).
    pub fn block_on<G: WalkAdjacency>(
        &mut self,
        graph: &G,
        source: NodeId,
        walkers: Range<u32>,
        steps: usize,
        seed: u64,
    ) -> CohortBlock {
        let n = graph.node_count();
        let size = walkers.end.saturating_sub(walkers.start);
        self.start(n, source, walkers, seed);
        // Step 0: every member on the source.
        self.ids.clear();
        self.ids.extend((size > 0).then_some(source));
        self.counts.clear();
        self.counts.extend((size > 0).then_some(size));
        self.offsets.clear();
        self.offsets.push(0);
        self.close_step();
        for t in 1..=steps as u32 {
            self.step(graph, t);
            self.write_frontier(n);
        }
        CohortBlock::pack(source, size, &self.offsets, &self.ids, &self.counts)
    }

    /// The offline build's cohort kernel: the loop of [`Self::block_on`]
    /// over the whole cohort, but each live walker's visit at step `t`
    /// (step 0 included) is recorded as one key `node·2ˢ + t`, `2ˢ > T`,
    /// and the `≤ R·(T+1)` keys are sorted once (radix-sorted on their node
    /// bits like a large frontier) — one sort per cohort instead of one
    /// histogram per step.
    /// Yields each visited node in id order with its `(t, count)` runs in
    /// `t` order: the node's entries of every step's histogram.
    pub fn visits_on<G: WalkAdjacency>(
        &mut self,
        graph: &G,
        source: NodeId,
        params: WalkParams,
        seed: u64,
    ) -> impl Iterator<Item = (NodeId, impl Iterator<Item = (usize, u64)> + '_)> + '_ {
        let shift = u64::BITS - (params.steps as u64).leading_zeros();
        self.start(graph.node_count(), source, 0..params.walkers, seed);
        self.visits.clear();
        self.visits.resize(self.pos.len(), u64::from(source) << shift);
        for t in 1..=params.steps as u32 {
            self.step(graph, t);
            self.visits.extend(self.pos.iter().map(|&v| u64::from(v) << shift | u64::from(t)));
        }
        if self.visits.len() < RADIX_MIN {
            self.visits.sort_unstable();
        } else {
            // Keys were appended in step order and the sort is stable: the
            // node bits alone order them as the whole keys would.
            let bound = u64::from(graph.node_count()) << shift;
            radix_sort(&mut self.visits, &mut self.visits_tmp, shift, bound);
        }
        let step_of = move |key: u64| (key & ((1 << shift) - 1)) as usize;
        self.visits.chunk_by(move |a, b| a >> shift == b >> shift).map(move |node| {
            let runs =
                node.chunk_by(|a, b| a == b).map(move |run| (step_of(run[0]), run.len() as u64));
            ((node[0] >> shift) as NodeId, runs)
        })
    }

    /// Places the cohort members `walkers` of `source` on `source`.
    fn start(&mut self, n: u32, source: NodeId, walkers: Range<u32>, seed: u64) {
        assert!(source < n, "source out of range");
        self.key.clear();
        self.key.extend(walker_keys(seed, source, walkers));
        self.pos.clear();
        self.pos.resize(self.key.len(), source);
    }

    /// One pass advances every live walker to step `t`; the survivors are
    /// compacted to the front, still in walker order.
    #[inline]
    fn step<G: WalkAdjacency>(&mut self, graph: &G, t: u32) {
        let mut live = 0;
        for i in 0..self.pos.len() {
            let key = self.key[i];
            if let Some(next) = reverse_step(graph, self.pos[i], key, t) {
                (self.pos[live], self.key[live]) = (next, key);
                live += 1;
            }
        }
        self.pos.truncate(live);
        self.key.truncate(live);
    }

    /// Appends the frontier's histogram, its positions all below `bound`,
    /// as the next step: sorted, then run-length encoded into ids and counts.
    fn write_frontier(&mut self, bound: u32) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.pos);
        if self.sorted.len() < RADIX_MIN {
            self.sorted.sort_unstable();
        } else {
            radix_sort(&mut self.sorted, &mut self.tmp, 0, bound.into());
        }
        let (start, len) = (self.ids.len(), self.sorted.len());
        self.ids.resize(start + len, 0);
        self.counts.resize(start + len, 0);
        let (ids, ends) = (&mut self.ids[start..], &mut self.counts[start..]);
        // Branch-free: each position rewrites its run's id and end, so a run's
        // slot keeps its last; the ends then become counts.
        let (mut run, mut end, mut last) = (0, 0u32, self.sorted.first().copied().unwrap_or(0));
        for &v in &self.sorted {
            run += usize::from(v != last);
            end += 1;
            (ids[run], ends[run], last) = (v, end, v);
        }
        for k in (1..=run).rev() {
            ends[k] -= ends[k - 1];
        }
        let entries = start + run + usize::from(len > 0);
        self.ids.truncate(entries);
        self.counts.truncate(entries);
        self.close_step();
    }

    /// Ends the step being written at the entries written so far: at most
    /// the cohort's `(T + 1)·R′` visits.
    #[allow(clippy::expect_used, reason = "`block_on` documents the u32 visit bound as a panic")]
    fn close_step(&mut self) {
        self.offsets.push(u32::try_from(self.ids.len()).expect("cohort visits overflow u32"));
    }
}

thread_local! {
    /// The serving cohorts' scratch: sized by the largest cohort, never shrunk.
    static SCRATCH: RefCell<WalkScratch> = RefCell::default();
}

/// [`WalkScratch::block_on`] on this thread's scratch, reused from cohort to
/// cohort. Walker `w`'s trajectory depends only on `(seed, source, w, step)`,
/// so histograms of disjoint walker ranges sum to the whole cohort's.
pub fn reverse_walk_block_on<G: WalkAdjacency>(
    graph: &G,
    source: NodeId,
    walkers: Range<u32>,
    steps: usize,
    seed: u64,
) -> CohortBlock {
    SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => scratch.block_on(graph, source, walkers, steps, seed),
        // Re-entered from an adjacency that itself walks: a scratch of its own.
        Err(_) => WalkScratch::default().block_on(graph, source, walkers, steps, seed),
    })
}

/// Simulates the full cohort from `source` and records every step's
/// distribution: [`reverse_walk_block_on`] on the resident graph, expanded.
/// This is the building block of offline indexing (`R` walkers per node)
/// and of MCSP/MCSS (`R'` walkers per query node).
pub fn reverse_walk_distributions(
    graph: &CsrGraph,
    source: NodeId,
    params: WalkParams,
    seed: u64,
) -> StepDistributions {
    let block = reverse_walk_block_on(graph, source, 0..params.walkers, params.steps, seed);
    StepDistributions::from(&block)
}

/// The histograms of steps `1..=steps` of [`reverse_walk_block_on`] over
/// the cohort members `walkers`, expanded.
pub fn reverse_walk_counts_on<G: WalkAdjacency>(
    graph: &G,
    source: NodeId,
    walkers: Range<u32>,
    steps: usize,
    seed: u64,
) -> impl Iterator<Item = Vec<(NodeId, u64)>> {
    let block = reverse_walk_block_on(graph, source, walkers, steps, seed);
    StepDistributions::from(&block).counts.into_iter().skip(1)
}

/// The full trajectory of a single walker (positions after steps `1..=steps`;
/// shorter if the walker dies) — the per-walker oracle the cohort kernel is
/// tested against.
pub fn reverse_walk_path(
    graph: &CsrGraph,
    source: NodeId,
    walker: u32,
    steps: usize,
    seed: u64,
) -> Vec<NodeId> {
    let key = walker_key(seed, source, walker);
    let mut pos = source;
    let step = |t| {
        pos = reverse_step(graph, pos, key, t)?;
        Some(pos)
    };
    (1..=steps as u32).map_while(step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;

    #[test]
    fn cycle_walks_are_deterministic_shifts() {
        // On a directed cycle every node has exactly one in-neighbour, so
        // the reverse walk is deterministic: position after t steps from s
        // is (s - t) mod n.
        let g = generators::cycle(7);
        let d = reverse_walk_distributions(&g, 3, WalkParams::new(5, 10), 42);
        for t in 0..=5 {
            let expected = ((3 + 7 - (t as u32 % 7)) % 7) as NodeId;
            assert_eq!(d.counts[t], vec![(expected, 10)], "step {t}");
            assert!((d.mass(t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn walkers_die_on_dangling_nodes() {
        // Path 0 -> 1 -> 2: reverse walk from 2 reaches 0 at t=2 and dies
        // at t=3 (node 0 has no in-neighbours).
        let g = generators::path(3);
        let d = reverse_walk_distributions(&g, 2, WalkParams::new(4, 8), 1);
        assert_eq!(d.counts[1], vec![(1, 8)]);
        assert_eq!(d.counts[2], vec![(0, 8)]);
        assert!(d.counts[3].is_empty());
        assert!(d.counts[4].is_empty());
        assert_eq!(d.mass(3), 0.0);
    }

    #[test]
    fn distributions_are_seed_deterministic() {
        let g = generators::barabasi_albert(200, 3, 9);
        let a = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 5);
        let b = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 5);
        assert_eq!(a, b);
        let c = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn radix_sort_sorts_at_every_pass_count() {
        // One, two and three 11-bit passes (the contract graph needs two),
        // a bound that is a power of two, and the degenerate single node.
        for bound in [1u32, 512, 2048, 2049, 70_000, 1 << 22, 5_000_000] {
            let mut keys: Vec<NodeId> = (0..3_000u64)
                .map(|i| (step_u64(bound as u64, i as u32) % bound as u64) as u32)
                .collect();
            // Visit keys `node·2⁴ + t` appended in step order, sorted on
            // the node bits alone: the whole keys' order.
            let mut visits: Vec<u64> = (0..11u64)
                .flat_map(|t| {
                    keys.chunks(11).map(move |c| u64::from(c[t as usize % c.len()]) << 4 | t)
                })
                .collect();
            let mut full = visits.clone();
            full.sort_unstable();
            radix_sort(&mut visits, &mut Vec::new(), 4, u64::from(bound) << 4);
            assert_eq!(visits, full, "visit keys, bound {bound}");
            let mut want = keys.clone();
            want.sort_unstable();
            radix_sort(&mut keys, &mut vec![7; 5], 0, bound.into());
            assert_eq!(keys, want, "bound {bound}");
        }
    }

    #[test]
    fn step_uniform_is_stateless() {
        let key = walker_key(3, 14, 2);
        assert_eq!(step_u64(key, 5), step_u64(key, 5));
        assert_ne!(step_u64(key, 5), step_u64(key, 6));
    }

    #[test]
    fn path_matches_distributions_for_single_walker() {
        let g = generators::barabasi_albert(100, 3, 4);
        let params = WalkParams::new(8, 1);
        let d = reverse_walk_distributions(&g, 30, params, 11);
        let p = reverse_walk_path(&g, 30, 0, 8, 11);
        for (t, &node) in p.iter().enumerate() {
            assert_eq!(d.counts[t + 1], vec![(node, 1)]);
        }
    }

    #[test]
    fn complete_graph_distribution_approaches_uniform() {
        // On K_n the reverse-walk distribution after any t >= 1 step is
        // uniform over the other n-1 nodes... in expectation. With many
        // walkers the empirical distribution should be close.
        let g = generators::complete(10);
        let d = reverse_walk_distributions(&g, 0, WalkParams::new(3, 20_000), 7);
        for &(node, c) in &d.counts[1] {
            assert_ne!(node, 0, "step away from source on K_n");
            let p = c as f64 / 20_000.0;
            assert!((p - 1.0 / 9.0).abs() < 0.01, "node {node}: {p}");
        }
    }
}
