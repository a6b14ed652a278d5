//! Accuracy and ranking metrics for the effectiveness experiments.

use pasco_graph::NodeId;
pub use pasco_solver::norms::{max_abs_diff, mean_abs_diff};

/// Top-`k` entries of `scores` by value (descending), optionally excluding
/// one index (the query node itself). Ties break toward the smaller node id
/// so results are deterministic. Sorts with [`f64::total_cmp`], so a NaN
/// score cannot panic the ranking (NaN orders above every finite score).
pub fn top_k(scores: &[f64], k: usize, exclude: Option<NodeId>) -> Vec<(NodeId, f64)> {
    let mut items: Vec<(NodeId, f64)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as NodeId, s))
        .filter(|&(i, _)| Some(i) != exclude)
        .collect();
    items.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(k);
    items
}

/// NDCG@k of an estimated ranking against true scores: gains are the *true*
/// scores of the estimated ranking's members, discounted by log₂ position,
/// normalised by the ideal ranking's DCG. 1.0 means the estimated order is
/// as good as the true order.
///
/// `exclude` removes one node (the query node, whose self-similarity of 1
/// would otherwise dominate the ideal ranking) from the ideal ranking; pass
/// the same exclusion used to produce `estimated_ranking`.
pub fn ndcg_at_k(
    true_scores: &[f64],
    estimated_ranking: &[NodeId],
    k: usize,
    exclude: Option<NodeId>,
) -> f64 {
    let dcg: f64 = estimated_ranking
        .iter()
        .filter(|&&v| Some(v) != exclude)
        .take(k)
        .enumerate()
        .map(|(pos, &v)| true_scores[v as usize] / ((pos + 2) as f64).log2())
        .sum();
    let ideal = top_k(true_scores, k, exclude);
    let idcg: f64 =
        ideal.iter().enumerate().map(|(pos, &(_, s))| s / ((pos + 2) as f64).log2()).sum();
    if idcg == 0.0 {
        1.0
    } else {
        dcg / idcg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_sorts_and_excludes() {
        let scores = [0.1, 0.9, 0.5, 0.9, 0.2];
        let top = top_k(&scores, 3, Some(1));
        assert_eq!(top.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![3, 2, 4]);
        let top = top_k(&scores, 2, None);
        // tie between ids 1 and 3 at 0.9 → smaller id first
        assert_eq!(top.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn ndcg_is_one_for_perfect_ranking() {
        let truth = [0.0, 0.3, 0.9, 0.1];
        let perfect = [2u32, 1, 3, 0];
        assert!((ndcg_at_k(&truth, &perfect, 4, None) - 1.0).abs() < 1e-12);
        let reversed = [0u32, 3, 1, 2];
        assert!(ndcg_at_k(&truth, &reversed, 4, None) < 1.0);
    }

    #[test]
    fn ndcg_handles_all_zero_truth() {
        assert_eq!(ndcg_at_k(&[0.0, 0.0], &[1, 0], 2, None), 1.0);
    }

    #[test]
    fn ndcg_excludes_the_query_node_from_the_ideal() {
        // Node 0 is the query (self-similarity 1). A ranking that perfectly
        // orders everyone else must score 1.0 when node 0 is excluded.
        let truth = [1.0, 0.5, 0.2, 0.4];
        let ranking = [1u32, 3, 2];
        assert!((ndcg_at_k(&truth, &ranking, 3, Some(0)) - 1.0).abs() < 1e-12);
        // Without the exclusion, the unreachable gain of node 0 caps NDCG.
        assert!(ndcg_at_k(&truth, &ranking, 3, None) < 0.8);
    }
}
