//! The cache-hit path against the spellings it replaced: `score_pair`
//! against the old double-`peekable` merge (every score equal `to_bits`,
//! over nested cohorts and over the session's flat `CohortBlock`s alike, on
//! every pairing of a block's two step forms — ids × ids by the lane merge,
//! bitmap × bitmap by the AND of words, ids probed against a bitmap), the
//! block's exact round trip with each step in the form the rule picks, and
//! the `StepDistributions` bulk codec against the per-entry encoder (every
//! byte equal) plus a digest of three `Cohort` response frames recorded
//! with the per-entry codec.

use pasco::graph::{generators, CsrGraph, NodeId};
use pasco::mc::walks::{BlockStep, CohortBlock, StepDistributions};
use pasco::mc::SplitMix64;
use pasco::simrank::api::wire::WireCodec;
use pasco::simrank::{queries, QueryResponse, SimRankConfig};
use proptest::prelude::*;
use proptest::TestRng;

/// The MCSP merge as it was before the lane kernel, kept as the oracle.
fn peekable_merge(di: &StepDistributions, dj: &StepDistributions, diag: &[f64], c: f64) -> f64 {
    let ri = di.walkers as f64;
    let rj = dj.walkers as f64;
    let mut score = 0.0;
    let mut ct = 1.0;
    for (u, v) in di.counts.iter().zip(&dj.counts) {
        let mut term = 0.0;
        let (mut a, mut b) = (u.iter().peekable(), v.iter().peekable());
        while let (Some(&&(ka, ca)), Some(&&(kb, cb))) = (a.peek(), b.peek()) {
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    term += diag[ka as usize] * (ca as f64 / ri) * (cb as f64 / rj);
                    a.next();
                    b.next();
                }
            }
        }
        score += ct * term;
        ct *= c;
    }
    score
}

fn below(rng: &mut SplitMix64, bound: u64) -> u64 {
    rng.next_u64() % bound
}

/// A diagonal of irregular values, so a sum taken in another order would
/// round differently.
fn ragged_diag(n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(n as u64);
    (0..n).map(|_| 0.3 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).collect()
}

fn block(d: &StepDistributions) -> CohortBlock {
    CohortBlock::try_from(d).unwrap()
}

/// The lane merge over nested cohorts and over their blocks, each against
/// the oracle.
fn assert_same_score(di: &StepDistributions, dj: &StepDistributions, diag: &[f64], what: &str) {
    let (bi, bj) = (block(di), block(dj));
    for c in [0.6, 0.8] {
        let want = peekable_merge(di, dj, diag, c);
        let got = queries::score_pair(di, dj, diag, c);
        assert_eq!(got.to_bits(), want.to_bits(), "{what}, c = {c}: {got} vs {want}");
        let flat = queries::score_pair(&bi, &bj, diag, c);
        assert_eq!(flat.to_bits(), want.to_bits(), "{what}, blocks, c = {c}: {flat} vs {want}");
    }
}

#[test]
fn lane_merge_equals_the_peekable_oracle_on_real_cohorts() {
    let graphs: [(&str, CsrGraph); 5] = [
        ("ba300", generators::barabasi_albert(300, 4, 5)),
        ("rmat10", generators::rmat(10, 8000, generators::RmatParams::default(), 7)),
        ("path", generators::path(20)),
        ("cycle", generators::cycle(12)),
        ("complete10", generators::complete(10)),
    ];
    for (name, g) in &graphs {
        let diag = ragged_diag(g.node_count() as usize);
        let live: Vec<NodeId> = g.nodes().filter(|&v| g.in_degree(v) > 0).collect();
        let sources: Vec<NodeId> = (0..6).map(|k| live[k * (live.len() - 1) / 5]).collect();
        for r_query in [1, 7, 63, 64, 65, 10_000] {
            let cfg = SimRankConfig::default_paper().with_r_query(r_query);
            let cohorts: Vec<StepDistributions> =
                sources.iter().map(|&v| queries::query_cohort(g, &cfg, v)).collect();
            for (x, di) in cohorts.iter().enumerate() {
                for dj in &cohorts[x..] {
                    let what = format!("{name}, R' = {r_query}, ({}, {})", di.source, dj.source);
                    assert_same_score(di, dj, &diag, &what);
                    assert_same_score(dj, di, &diag, &what);
                }
            }
        }
    }
}

/// A one-step cohort pair (`counts[0]` is the shared source) around two
/// hand-built step-1 histograms.
fn hand_pair(u: Vec<(NodeId, u64)>, v: Vec<(NodeId, u64)>) -> [StepDistributions; 2] {
    let cohort = |walkers, step| StepDistributions {
        source: 0,
        walkers,
        counts: vec![vec![(0, u64::from(walkers))], step],
    };
    [cohort(10_000, u), cohort(9_999, v)]
}

/// Sorted distinct keys below a random bound, each kept with a random
/// probability.
fn sparse_keys(rng: &mut SplitMix64) -> Vec<(NodeId, u64)> {
    let (bound, keep) = (1 + below(rng, 20_000) as u32, 1 + below(rng, 30));
    let mut keys = Vec::new();
    for k in 0..bound {
        if below(rng, keep) == 0 {
            keys.push((k, 1 + below(rng, 40)));
        }
    }
    keys
}

#[test]
fn lane_merge_equals_the_peekable_oracle_on_hand_built_lists() {
    let diag = ragged_diag(20_000);
    let dense = |keys: std::ops::Range<u32>| -> Vec<(NodeId, u64)> {
        keys.map(|k| (k, 1 + u64::from(k % 3))).collect()
    };
    let cases = [
        ("one entry against 10k", vec![(5_000, 3)], dense(0..10_000)),
        ("disjoint ranges", dense(0..500), dense(500..1_000)),
        ("disjoint, interleaved", dense(0..1_000).into_iter().step_by(2).collect(), {
            dense(0..1_000).into_iter().skip(1).step_by(2).collect()
        }),
        ("identical", dense(100..4_100), dense(100..4_100)),
        ("all of v in u's last lane", dense(0..1_000), dense(900..1_000)),
        ("all of v before u", dense(5_000..6_000), dense(0..100)),
        ("empty against full", vec![], dense(0..200)),
    ];
    for (what, u, v) in cases {
        let [di, dj] = hand_pair(u, v);
        assert_same_score(&di, &dj, &diag, what);
        assert_same_score(&dj, &di, &diag, what);
    }

    let mut rng = SplitMix64::new(27);
    for case in 0..400 {
        let (u, v) = (sparse_keys(&mut rng), sparse_keys(&mut rng));
        let [di, dj] = hand_pair(u, v);
        assert_same_score(&di, &dj, &diag, &format!("random case {case}"));
    }
}

/// Whether each step of `d`'s block keeps a bitmap rather than its ids.
fn bitmaps(d: &StepDistributions) -> Vec<bool> {
    block(d).histograms().map(|step| matches!(step, BlockStep::Bits(_))).collect()
}

/// Keys `start, start + step, …` below `end`, counts cycling through 1..=5.
fn keys(start: u32, end: u32, step: usize) -> Vec<(NodeId, u64)> {
    (start..end).step_by(step).map(|k| (k, 1 + u64::from(k % 5))).collect()
}

#[test]
fn every_pairing_of_step_forms_scores_to_the_oracle() {
    let diag = ragged_diag(20_000);
    let dense = keys(1_000, 3_000, 2); // 1 000 entries over 32 words: a bitmap
    let other = keys(2_001, 5_000, 3); // 1 000 over 47 words, offset: a bitmap
    let sparse = keys(7, 19_000, 97); // 196 over 296 words: ids
    let sparse_inside = keys(1_100, 2_900, 37); // ids within the dense span
    let cases = [
        ("bitmap x bitmap", dense.clone(), other.clone(), [true, true]),
        ("bitmap x bitmap, one span", dense.clone(), keys(1_000, 3_000, 4), [true, true]),
        ("bitmap x bitmap, disjoint", dense.clone(), keys(9_000, 11_000, 2), [true, true]),
        ("ids x bitmap", sparse.clone(), dense.clone(), [false, true]),
        ("ids inside x bitmap", sparse_inside.clone(), other.clone(), [false, true]),
        ("ids x ids", sparse.clone(), sparse_inside.clone(), [false, false]),
    ];
    for (what, u, v, forms) in cases {
        let [di, dj] = hand_pair(u, v);
        assert_eq!([bitmaps(&di)[1], bitmaps(&dj)[1]], forms, "{what}");
        assert_same_score(&di, &dj, &diag, what);
        assert_same_score(&dj, &di, &diag, what);
    }
}

#[test]
fn a_nan_diagonal_entry_poisons_both_merges_alike() {
    let mut diag = ragged_diag(4_000);
    diag[1_320] = f64::NAN;
    let dense = keys(1_000, 3_000, 2);
    let sparse = keys(1_000, 3_000, 40);
    for (what, u, v) in [
        ("bitmap x bitmap", dense.clone(), dense.clone()),
        ("ids x bitmap", sparse.clone(), dense.clone()),
        ("bitmap x ids", dense.clone(), sparse.clone()),
        ("ids x ids", sparse.clone(), sparse.clone()),
    ] {
        let [di, dj] = hand_pair(u, v);
        assert!(peekable_merge(&di, &dj, &diag, 0.6).is_nan(), "{what}");
        assert!(queries::score_pair(&di, &dj, &diag, 0.6).is_nan(), "{what}");
        assert!(queries::score_pair(&block(&di), &block(&dj), &diag, 0.6).is_nan(), "{what}");
    }
    // A NaN on a node only one side visited stays out of every sum.
    diag[1_320] = 0.5;
    diag[1_001] = f64::NAN;
    let [di, dj] = hand_pair(keys(1_001, 3_000, 2), dense);
    assert_same_score(&di, &dj, &diag, "NaN off the shared nodes");
}

/// Counts a block escapes: those its one count byte cannot hold.
fn escapes(d: &StepDistributions) -> usize {
    d.counts.iter().flatten().filter(|&&(_, c)| c >= 255).count()
}

/// A step's key words: its ids, or its bitmap's 64-bit words, two `u32`s
/// each, when they are strictly fewer.
fn key_words(step: &[(NodeId, u64)]) -> usize {
    let span = match (step.first(), step.last()) {
        (Some(&(first, _)), Some(&(last, _))) => (last / 64 - first / 64 + 1) as usize,
        _ => 0,
    };
    if 2 * span < step.len() {
        2 * span
    } else {
        step.len()
    }
}

fn assert_round_trip(d: &StepDistributions, what: &str) {
    let b = block(d);
    let entries: usize = d.counts.iter().map(Vec::len).sum();
    assert_eq!(b.entries(), entries, "{what}");
    // Offsets and key offsets, a bitmap base a step, each step's keys,
    // escape pairs, then one count byte an entry in words.
    let steps = d.counts.len();
    let keys: usize = d.counts.iter().map(|step| key_words(step)).sum();
    let words = 3 * steps + 2 + keys + 2 * escapes(d) + entries.div_ceil(4);
    assert_eq!(b.heap_bytes(), 4 * words, "{what}");
    assert_eq!(StepDistributions::from(&b), *d, "{what}");
}

#[test]
fn cohort_blocks_round_trip_exactly() {
    let g = generators::barabasi_albert(2_000, 4, 9);
    let cfg = SimRankConfig::default_paper();
    let hub = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
    let dead = g.nodes().find(|&v| g.in_degree(v) == 0).unwrap();
    let hub_cohort = queries::query_cohort(&g, &cfg, hub);
    assert!(hub_cohort.counts[1].len() > 100, "a hub spreads its walkers");
    assert_round_trip(&hub_cohort, "hub source");
    let dead_cohort = queries::query_cohort(&g, &cfg, dead);
    assert!(dead_cohort.counts[1..].iter().all(Vec::is_empty), "no walker leaves a dead source");
    assert_round_trip(&dead_cohort, "dead source");
    let [full, _] = hand_pair(vec![(3, 1), (40, 10_000), (41, 2)], vec![]);
    assert_round_trip(&full, "a count equal to R'");
    // Either side of the escape byte, and the largest count a block holds.
    let edges = [254, 255, 256, 65_535, 10_000, u64::from(u32::MAX)];
    let [wide, _] = hand_pair((0..).zip(edges).collect(), vec![]);
    assert_eq!(escapes(&wide), 1 + 5, "step 0 and five step-1 counts escape");
    assert_round_trip(&wide, "counts around the escape");

    // A count past `u32` has no block; it is refused, never truncated.
    let [mut wide, _] = hand_pair(vec![(3, 1)], vec![]);
    wide.counts[1][0].1 = u64::from(u32::MAX) + 1;
    assert!(CohortBlock::try_from(&wide).is_err());
}

#[test]
fn steps_keep_a_bitmap_exactly_past_the_rule_edge() {
    // Ids spanning two words (four `u32`s of bitmap), from word 0 and from
    // word 100: a bitmap for 5 ids (2·words = entries − 1), ids for 4 (the
    // tie) and for 3 (2·words = entries + 1).
    for base in [0, 6_400] {
        for (n, bitmap) in [(5, true), (4, false), (3, false)] {
            let ids: Vec<(NodeId, u64)> =
                [0, 127].into_iter().chain(1..n - 1).map(|k| (base + k, 3)).collect();
            let mut step = ids;
            step.sort_unstable();
            let [d, _] = hand_pair(step, vec![]);
            let what = format!("{n} ids over two words from node {base}");
            assert_eq!(bitmaps(&d), [false, bitmap], "{what}");
            assert_round_trip(&d, &what);
        }
    }
    // Fewer nodes than a bitmap word, and not a multiple of 64 of them.
    let [d, _] = hand_pair(keys(0, 37, 1), vec![]);
    assert_eq!(bitmaps(&d), [false, true], "37 nodes");
    assert_round_trip(&d, "37 nodes");
    // A dense step whose counts escape their byte, shared keys included.
    let escape = |mut step: Vec<(NodeId, u64)>, at: &[(usize, u64)]| {
        at.iter().for_each(|&(i, c)| step[i].1 = c);
        step
    };
    let big = u64::from(u32::MAX);
    let u = escape(keys(0, 1_000, 1), &[(0, 255), (63, 300), (64, big), (500, 256), (999, 10_000)]);
    let v = escape(keys(0, 1_000, 2), &[(0, 254), (32, 255), (250, 70_000)]);
    let [di, dj] = hand_pair(u, v);
    assert_eq!((bitmaps(&di), bitmaps(&dj)), (vec![false, true], vec![false, true]));
    assert_round_trip(&di, "a dense step with escapes");
    assert_round_trip(&dj, "a dense step with escapes");
    assert_same_score(&di, &dj, &ragged_diag(1_000), "dense steps with escapes");
    assert_same_score(&dj, &di, &ragged_diag(1_000), "dense steps with escapes");
}

/// A random cohort whose steps are dense or sparse runs of ids below
/// 8 192, so both forms and every pairing come up: counts mostly small,
/// escapes mixed in.
fn gen_cohort(rng: &mut TestRng) -> StepDistributions {
    let walkers = (rng.next_u64() % 20_000) as u32 + 1;
    let steps = (0..1 + rng.next_u64() % 5)
        .map(|_| {
            let gap = [2, 3, 8, 90][(rng.next_u64() % 4) as usize];
            let mut id = (rng.next_u64() % 4_000) as NodeId;
            let mut step = Vec::new();
            while id < 8_192 && step.len() < 1 + (rng.next_u64() % 2_000) as usize {
                let count = match rng.next_u64() % 12 {
                    0 => 255 + rng.next_u64() % 100_000,
                    _ => 1 + rng.next_u64() % 254,
                };
                step.push((id, count));
                id += 1 + (rng.next_u64() % gap) as NodeId;
            }
            step
        })
        .collect();
    let source = (rng.next_u64() % 8_192) as NodeId;
    let mut d = StepDistributions { source, walkers, counts: vec![vec![(source, walkers.into())]] };
    d.counts.extend::<Vec<_>>(steps);
    d
}

struct AnyCohort;
impl Strategy for AnyCohort {
    type Value = StepDistributions;
    fn generate(&self, rng: &mut TestRng) -> StepDistributions {
        gen_cohort(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random cohorts round-trip through their blocks, each step in the
    /// form the rule picks, and score against each other like the oracle.
    #[test]
    fn random_cohorts_round_trip_and_score_in_both_forms(d in AnyCohort, e in AnyCohort) {
        assert_round_trip(&d, "random cohort");
        assert_same_score(&d, &e, &ragged_diag(8_192), "random cohorts");
    }
}

#[test]
fn escaped_counts_on_shared_keys_score_to_the_oracle() {
    // Escaped counts on both sides of a match, on one side only, and among
    // plain ones, in one lane and across four.
    let diag = ragged_diag(1_000);
    let u = vec![(2, 255), (5, 1), (9, 300), (11, 10_000), (12, 254), (700, 300)];
    let v = vec![(2, 300), (9, 3), (11, 255), (12, 10_000), (13, 256), (700, 255)];
    let [di, dj] = hand_pair(u.clone(), v.clone());
    assert_same_score(&di, &dj, &diag, "escaped shared keys");
    assert_same_score(&dj, &di, &diag, "escaped shared keys");
    let dense = |skip: u32| (0..1_000).filter(move |k| k % skip != 0).map(|k| (k, 1));
    let (mut u, mut v): (Vec<_>, Vec<_>) = (dense(3).collect(), dense(5).collect());
    for (k, c) in [(1, 255), (301, 300), (302, 10_000), (998, 256)] {
        let (a, b) = (u.binary_search_by_key(&k, |e| e.0), v.binary_search_by_key(&k, |e| e.0));
        (u[a.unwrap()].1, v[b.unwrap()].1) = (c, c + 1);
    }
    let [di, dj] = hand_pair(u, v);
    assert_same_score(&di, &dj, &diag, "escaped shared keys, four lanes");
    assert_same_score(&dj, &di, &diag, "escaped shared keys, four lanes");
}

// ---- the codec -----------------------------------------------------------

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The `StepDistributions` encoder as it was before the bulk codec.
fn per_entry_encode(d: &StepDistributions) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&d.source.to_le_bytes());
    buf.extend_from_slice(&d.walkers.to_le_bytes());
    buf.extend_from_slice(&(d.counts.len() as u32).to_le_bytes());
    for step in &d.counts {
        buf.extend_from_slice(&(step.len() as u32).to_le_bytes());
        for &(v, c) in step {
            buf.extend_from_slice(&v.to_le_bytes());
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    buf
}

/// FNV of the three rmat10 `Cohort` response frames below, recorded with
/// the per-entry codec.
const COHORT_FRAMES_FNV: u64 = 0x626d_eee3_8085_2096;

#[test]
fn cohort_response_frames_match_the_recorded_digest() {
    let g = generators::rmat(10, 8000, generators::RmatParams::default(), 7);
    let cfg = SimRankConfig::default_paper();
    let live: Vec<NodeId> = g.nodes().filter(|&v| g.in_degree(v) > 0).collect();
    let mut frames = Vec::new();
    for k in [0, 3, 7] {
        let cohort = queries::query_cohort(&g, &cfg, live[k * (live.len() - 1) / 7]);
        let resp = QueryResponse::Cohort(cohort);
        let bytes = resp.to_bytes();
        assert_eq!(QueryResponse::from_bytes(&bytes).unwrap(), resp);
        frames.extend_from_slice(&bytes);
    }
    assert_eq!(fnv(&frames), COHORT_FRAMES_FNV, "digest now reads {:#018x}", fnv(&frames));
}

#[test]
fn bulk_encode_equals_the_per_entry_encoder() {
    let mut rng = SplitMix64::new(11);
    // Step lengths around the encoder's block size, empty steps included.
    let lens = [0usize, 1, 2, 255, 256, 257, 511, 512, 513, 3_000];
    for case in 0..200 {
        let steps = 1 + below(&mut rng, 6) as usize;
        let counts = (0..steps)
            .map(|_| {
                let len = if below(&mut rng, 3) == 0 {
                    lens[below(&mut rng, lens.len() as u64) as usize]
                } else {
                    below(&mut rng, 40) as usize
                };
                (0..len).map(|_| ((rng.next_u64() >> 32) as u32, rng.next_u64())).collect()
            })
            .collect();
        let d = StepDistributions {
            source: rng.next_u64() as u32,
            walkers: rng.next_u64() as u32,
            counts,
        };
        let bytes = d.to_bytes();
        assert_eq!(bytes, per_entry_encode(&d), "case {case}");
        assert_eq!(bytes.len(), d.encoded_len(), "case {case}");
        assert_eq!(StepDistributions::from_bytes(&bytes).unwrap(), d, "case {case}");
    }
}
