//! The cache-hit path against the spellings it replaced: `score_pair`'s
//! lane merge against the old double-`peekable` merge (every score equal
//! `to_bits`), and the `StepDistributions` bulk codec against the
//! per-entry encoder (every byte equal) plus a digest of three `Cohort`
//! response frames recorded with the per-entry codec.

use pasco::graph::{generators, CsrGraph, NodeId};
use pasco::mc::walks::StepDistributions;
use pasco::mc::SplitMix64;
use pasco::simrank::api::wire::WireCodec;
use pasco::simrank::{queries, QueryResponse, SimRankConfig};

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

fn assert_same_score(di: &StepDistributions, dj: &StepDistributions, diag: &[f64], what: &str) {
    for c in [0.6, 0.8] {
        let want = peekable_merge(di, dj, diag, c);
        let got = queries::score_pair(di, dj, diag, c);
        assert_eq!(got.to_bits(), want.to_bits(), "{what}, c = {c}: {got} vs {want}");
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

#[test]
fn a_nan_diagonal_entry_poisons_both_merges_alike() {
    let mut diag = ragged_diag(1_000);
    diag[321] = f64::NAN;
    let keys: Vec<(NodeId, u64)> = (0..1_000).map(|k| (k, 2)).collect();
    let [di, dj] = hand_pair(keys.clone(), keys);
    assert!(peekable_merge(&di, &dj, &diag, 0.6).is_nan());
    assert!(queries::score_pair(&di, &dj, &diag, 0.6).is_nan());
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
