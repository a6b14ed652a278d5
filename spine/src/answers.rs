//! Answer checks: what must hold of every response, a cheap digest of
//! each for the per-workload checksum, and the byte-for-byte comparison
//! with the in-process engine.

use crate::inputs::Inputs;
use crate::stats::AnswerHash;
use pasco_mc::walks::StepDistributions;
use pasco_simrank::api::wire::WireCodec;
use pasco_simrank::{CloudWalker, QueryRequest, QueryResponse, QueryService, SimRankConfig};
use std::sync::Arc;

/// Checks one answer against its request and returns its digest.
///
/// * `SinglePair` → a score in `[0, 1]`;
/// * `SingleSourceTopK` → at most `k` entries, scores in `(0, 1]`,
///   descending with ties broken by ascending node id, the query node
///   itself absent;
/// * `Cohort` → the requested source, `R′` walkers at step 0, every
///   step sorted by node id with positive counts that never exceed `R′`.
///
/// The digest covers every bit of a score and a ranking; of a cohort
/// (half a megabyte) it covers the shape — source, walkers, and each
/// step's length and walker total — which one pass of additions yields
/// without slowing the client loop the way a byte-wise hash would.
pub fn check_answer(req: &QueryRequest, resp: &QueryResponse) -> Result<u64, String> {
    let mut h = AnswerHash::offset_basis();
    match (req, resp) {
        (QueryRequest::SinglePair { .. }, QueryResponse::Score(s)) => {
            if !(0.0..=1.0).contains(s) {
                return Err(format!("score {s} outside [0, 1]"));
            }
            h.absorb_word(s.to_bits());
        }
        (QueryRequest::SingleSourceTopK { i, k }, QueryResponse::Ranked(ranked)) => {
            if ranked.len() as u64 > *k {
                return Err(format!("{} entries for k = {k}", ranked.len()));
            }
            for (rank, &(node, score)) in ranked.iter().enumerate() {
                if node == *i {
                    return Err(format!("query node {i} ranks itself"));
                }
                if !(score > 0.0 && score <= 1.0) {
                    return Err(format!("ranked score {score} outside (0, 1]"));
                }
                if let Some(&(prev_node, prev_score)) = rank.checked_sub(1).map(|p| &ranked[p]) {
                    let ordered = prev_score > score || (prev_score == score && prev_node < node);
                    if !ordered {
                        return Err(format!("rank {rank} out of order"));
                    }
                }
                h.absorb_word(u64::from(node));
                h.absorb_word(score.to_bits());
            }
        }
        (QueryRequest::Cohort { v }, QueryResponse::Cohort(dists)) => {
            digest_cohort(*v, dists, &mut h)?;
        }
        (req, resp) => return Err(format!("{req:?} answered with the wrong variant: {resp:?}")),
    }
    Ok(h.digest())
}

fn digest_cohort(v: u32, dists: &StepDistributions, h: &mut AnswerHash) -> Result<(), String> {
    let walkers = u64::from(dists.walkers);
    if dists.source != v {
        return Err(format!("cohort of {} for a request about {v}", dists.source));
    }
    if dists.counts.first().map(Vec::as_slice) != Some(&[(v, walkers)]) {
        return Err("step 0 is not all walkers on the source".into());
    }
    h.absorb_word(u64::from(v));
    h.absorb_word(walkers);
    for (t, step) in dists.counts.iter().enumerate() {
        let mut total = 0u64;
        let mut below: Option<u32> = None;
        for &(node, count) in step {
            if count == 0 || below.is_some_and(|b| b >= node) {
                return Err(format!("step {t} is not a sorted positive histogram"));
            }
            below = Some(node);
            total += count;
        }
        if total > walkers {
            return Err(format!("step {t} holds {total} of {walkers} walkers"));
        }
        h.absorb_word(step.len() as u64);
        h.absorb_word(total);
    }
    Ok(())
}

/// The in-process reference: a resident local engine over the same graph
/// file and the index the CLI built.
pub fn reference_walker(inputs: &Inputs) -> Result<CloudWalker, String> {
    let diag = pasco_simrank::persist::load_index(&inputs.index_path).map_err(|e| e.to_string())?;
    // The paper's parameters: what every `pasco` child runs with by default.
    CloudWalker::from_index(Arc::clone(&inputs.graph), SimRankConfig::default_paper(), diag)
        .map_err(|e| e.to_string())
}

/// Compares a wire answer with what `walker` answers in-process, by
/// encoded bytes — equality of every bit, `NaN`s and signed zeros
/// included.
pub fn same_as_engine(
    walker: &CloudWalker,
    req: &QueryRequest,
    got: &QueryResponse,
) -> Result<(), String> {
    let want: QueryResponse =
        QueryService::execute(walker, req.clone()).map_err(|e| format!("engine refused: {e}"))?;
    if WireCodec::to_bytes(&want) == WireCodec::to_bytes(got) {
        Ok(())
    } else {
        Err("wire answer differs from the in-process engine's".into())
    }
}

/// Bitwise equality of two diagonals.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort(source: u32, steps: Vec<Vec<(u32, u64)>>) -> QueryResponse {
        QueryResponse::Cohort(StepDistributions { source, walkers: 10, counts: steps })
    }

    #[test]
    fn scores_must_sit_in_the_unit_interval() {
        let req = QueryRequest::SinglePair { i: 1, j: 2 };
        assert!(check_answer(&req, &QueryResponse::Score(0.25)).is_ok());
        assert!(check_answer(&req, &QueryResponse::Score(1.5)).is_err());
        assert!(check_answer(&req, &QueryResponse::Score(f64::NAN)).is_err());
        assert!(check_answer(&req, &QueryResponse::Ranked(vec![])).is_err());
        let a = check_answer(&req, &QueryResponse::Score(0.25)).unwrap();
        let b = check_answer(&req, &QueryResponse::Score(0.250_000_1)).unwrap();
        assert_ne!(a, b, "the digest sees every bit of a score");
    }

    #[test]
    fn rankings_are_descending_with_id_tie_break_and_no_self() {
        let req = QueryRequest::SingleSourceTopK { i: 7, k: 3 };
        let ok = |r: Vec<(u32, f64)>| check_answer(&req, &QueryResponse::Ranked(r)).is_ok();
        assert!(ok(vec![(3, 0.9), (1, 0.5), (2, 0.5)]));
        assert!(ok(vec![]));
        assert!(!ok(vec![(3, 0.5), (1, 0.9)]), "ascending scores");
        assert!(!ok(vec![(2, 0.5), (1, 0.5)]), "tie not broken by id");
        assert!(!ok(vec![(7, 0.5)]), "self in ranking");
        assert!(!ok(vec![(1, 0.9), (2, 0.8), (3, 0.7), (4, 0.6)]), "more than k");
        assert!(!ok(vec![(1, 0.0)]), "zero score ranked");
    }

    #[test]
    fn cohorts_are_sorted_histograms_of_at_most_all_walkers() {
        let req = QueryRequest::Cohort { v: 4 };
        assert!(check_answer(&req, &cohort(4, vec![vec![(4, 10)], vec![(1, 6), (9, 4)], vec![]]))
            .is_ok());
        assert!(check_answer(&req, &cohort(5, vec![vec![(5, 10)]])).is_err(), "wrong source");
        assert!(
            check_answer(&req, &cohort(4, vec![vec![(4, 9)]])).is_err(),
            "walkers missing at step 0"
        );
        assert!(check_answer(&req, &cohort(4, vec![vec![(4, 10)], vec![(9, 4), (1, 6)]])).is_err());
        assert!(check_answer(&req, &cohort(4, vec![vec![(4, 10)], vec![(1, 6), (9, 5)]])).is_err());
        assert!(check_answer(&req, &cohort(4, vec![vec![(4, 10)], vec![(1, 0)]])).is_err());
    }
}
