//! Degree statistics and dataset-table helpers.

use crate::csr::CsrGraph;

/// Which edge direction a statistic describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Out-degree `|Out(v)|`.
    Out,
    /// In-degree `|In(v)|` — the one that drives SimRank walk behaviour.
    In,
}

/// Summary of a degree distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: u32,
    /// Largest degree.
    pub max: u32,
    /// Mean degree (`m / n`).
    pub mean: f64,
    /// Median degree.
    pub p50: u32,
    /// 90th percentile.
    pub p90: u32,
    /// 99th percentile.
    pub p99: u32,
    /// Number of nodes with degree zero (dangling for [`Direction::In`]).
    pub zeros: u32,
}

/// Computes degree statistics for the chosen direction.
pub fn degree_stats(graph: &CsrGraph, dir: Direction) -> DegreeStats {
    let n = graph.node_count();
    assert!(n > 0, "stats on empty graph");
    let mut degs: Vec<u32> = (0..n)
        .map(|v| match dir {
            Direction::Out => graph.out_degree(v),
            Direction::In => graph.in_degree(v),
        })
        .collect();
    degs.sort_unstable();
    let pct = |p: f64| degs[(((n - 1) as f64) * p).round() as usize];
    DegreeStats {
        min: degs[0],
        max: degs[degs.len() - 1],
        mean: graph.edge_count() as f64 / n as f64,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        zeros: degs.iter().take_while(|&&d| d == 0).count() as u32,
    }
}

/// Log-2-binned degree histogram: entry `i` counts nodes with degree in
/// `[2^i, 2^{i+1})`; entry for degree 0 is returned separately in `.0`.
pub fn degree_histogram(graph: &CsrGraph, dir: Direction) -> (u32, Vec<u64>) {
    let mut zeros = 0u32;
    let mut bins: Vec<u64> = Vec::new();
    for v in graph.nodes() {
        let d = match dir {
            Direction::Out => graph.out_degree(v),
            Direction::In => graph.in_degree(v),
        };
        if d == 0 {
            zeros += 1;
            continue;
        }
        let bin = (31 - d.leading_zeros()) as usize;
        if bins.len() <= bin {
            bins.resize(bin + 1, 0);
        }
        bins[bin] += 1;
    }
    (zeros, bins)
}

/// A human-readable byte count (`476.8KB`, `11.4GB`) matching the style of
/// the paper's dataset table.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_on_cycle_are_flat() {
        let g = generators::cycle(10);
        let s = degree_stats(&g, Direction::In);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1);
        assert_eq!(s.p50, 1);
        assert_eq!(s.zeros, 0);
        assert!((s.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_star_count_danglers() {
        let g = generators::star(6);
        let s = degree_stats(&g, Direction::In);
        assert_eq!(s.max, 5);
        assert_eq!(s.zeros, 5);
    }

    #[test]
    fn histogram_bins_powers_of_two() {
        let g = generators::star(9); // hub in-degree 8 -> bin 3
        let (zeros, bins) = degree_histogram(&g, Direction::In);
        assert_eq!(zeros, 8);
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[3], 1);
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(500), "500B");
        assert_eq!(human_bytes(2048), "2.0KB");
        assert_eq!(human_bytes(11 * 1024 * 1024 * 1024), "11.0GB");
    }
}
