//! CloudWalker configuration.

use crate::error::SimRankError;
use pasco_solver::jacobi::ENTRY_BYTES;

/// How Jacobi obtains the rows `aᵢ` on each sweep (ablation A2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AiStrategy {
    /// Materialise every row once (`O(n · T · R)` entries of memory, walks
    /// simulated once).
    Store,
    /// Regenerate rows from seeded walks on every sweep (`O(n)` extra
    /// memory, `L + 1` times the walk work). Identical results — the walks
    /// replay bit-for-bit.
    Recompute,
    /// Choose [`AiStrategy::Store`] when the estimated row storage fits the
    /// byte budget, else [`AiStrategy::Recompute`].
    Auto {
        /// Row-storage budget in bytes.
        budget_bytes: u64,
    },
}

/// All CloudWalker parameters; defaults follow the paper's table
/// (`c = 0.6, T = 10, L = 3, R = 100, R' = 10 000`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimRankConfig {
    /// SimRank decay factor `c ∈ (0, 1)`.
    pub c: f64,
    /// Walk length `T` (series truncation).
    pub t: usize,
    /// Jacobi iterations `L`.
    pub l: usize,
    /// Walkers per node for offline indexing (`R`).
    pub r: u32,
    /// Walkers per query cohort (`R'`) for MCSP/MCSS.
    pub r_query: u32,
    /// Total forward walkers per series term in MCSS's `(Pᵀ)ᵗ` estimation,
    /// allocated across the support in proportion to mass (see
    /// [`crate::queries::forward_allocation`]).
    pub r_forward: u32,
    /// Master seed; every walk derives from it deterministically.
    pub seed: u64,
    /// Row-provisioning strategy for the Jacobi solve.
    pub ai_strategy: AiStrategy,
}

impl SimRankConfig {
    /// The paper's default parameters.
    pub fn default_paper() -> Self {
        Self {
            c: 0.6,
            t: 10,
            l: 3,
            r: 100,
            r_query: 10_000,
            r_forward: 10_000,
            seed: 0x9a5c0,
            ai_strategy: AiStrategy::Auto { budget_bytes: 4 << 30 },
        }
    }

    /// A cheaper configuration for unit tests and examples on small graphs.
    pub fn fast() -> Self {
        Self { t: 7, r: 64, r_query: 2_000, r_forward: 2_000, ..Self::default_paper() }
    }

    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the decay factor.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Replaces the walk length `T`.
    pub fn with_t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Replaces the Jacobi iteration count `L`.
    pub fn with_l(mut self, l: usize) -> Self {
        self.l = l;
        self
    }

    /// Replaces the indexing walker count `R`.
    pub fn with_r(mut self, r: u32) -> Self {
        self.r = r;
        self
    }

    /// Replaces the query walker count `R'`.
    pub fn with_r_query(mut self, r_query: u32) -> Self {
        self.r_query = r_query;
        self
    }

    /// Replaces the row strategy.
    pub fn with_ai_strategy(mut self, s: AiStrategy) -> Self {
        self.ai_strategy = s;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), SimRankError> {
        if !(self.c > 0.0 && self.c < 1.0) {
            return Err(SimRankError::InvalidConfig(format!(
                "decay factor c must be in (0, 1), got {}",
                self.c
            )));
        }
        if self.r == 0 || self.r_query == 0 || self.r_forward == 0 {
            return Err(SimRankError::InvalidConfig(
                "walker counts r, r_query, r_forward must be positive".into(),
            ));
        }
        if self.t == 0 {
            return Err(SimRankError::InvalidConfig(
                "walk length t must be positive (t = 0 makes every similarity trivial)".into(),
            ));
        }
        Ok(())
    }

    /// Resolves [`AiStrategy::Auto`] for a graph of `n` nodes: estimated
    /// stored-row bytes are `n × min(T·R, n) × ENTRY_BYTES` — the `u32`
    /// column and `u16` dictionary code of every entry in `StoredRows` (its
    /// row offsets and per-group dictionaries are not priced).
    pub fn resolve_ai_strategy(&self, n: u32) -> AiStrategy {
        match self.ai_strategy {
            AiStrategy::Auto { budget_bytes } => {
                let per_row = (self.t as u64 * self.r as u64).min(n as u64);
                let estimate = n as u64 * per_row * ENTRY_BYTES;
                if estimate <= budget_bytes {
                    AiStrategy::Store
                } else {
                    AiStrategy::Recompute
                }
            }
            fixed => fixed,
        }
    }
}

impl Default for SimRankConfig {
    fn default() -> Self {
        Self::default_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table() {
        let c = SimRankConfig::default_paper();
        assert_eq!(c.c, 0.6);
        assert_eq!(c.t, 10);
        assert_eq!(c.l, 3);
        assert_eq!(c.r, 100);
        assert_eq!(c.r_query, 10_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(SimRankConfig::default_paper().with_c(0.0).validate().is_err());
        assert!(SimRankConfig::default_paper().with_c(1.0).validate().is_err());
        assert!(SimRankConfig::default_paper().with_r(0).validate().is_err());
        assert!(SimRankConfig::default_paper().with_t(0).validate().is_err());
        let mut c = SimRankConfig::default_paper();
        c.r_forward = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn auto_strategy_resolves_by_budget() {
        let cfg = SimRankConfig::default_paper()
            .with_ai_strategy(AiStrategy::Auto { budget_bytes: 1_000_000 });
        // Tiny graph: min(T·R, n) = n = 100 → 100 × 100 × 6 = 60 KB < 1 MB.
        assert_eq!(cfg.resolve_ai_strategy(100), AiStrategy::Store);
        // Large graph: 1M × 1000 × 6 ≫ 1 MB.
        assert_eq!(cfg.resolve_ai_strategy(1_000_000), AiStrategy::Recompute);
        // 6 B per entry exactly: 400 × 400 × 6 = 960 KB fits, 409 nodes
        // (≈ 1.004 MB) do not; at 12 B neither would.
        assert_eq!(cfg.resolve_ai_strategy(400), AiStrategy::Store);
        assert_eq!(cfg.resolve_ai_strategy(409), AiStrategy::Recompute);
        // Fixed strategies pass through.
        let cfg = cfg.with_ai_strategy(AiStrategy::Store);
        assert_eq!(cfg.resolve_ai_strategy(1_000_000), AiStrategy::Store);
    }

    #[test]
    fn builders_compose() {
        let c = SimRankConfig::default_paper().with_seed(9).with_t(5).with_l(2).with_r_query(77);
        assert_eq!(c.seed, 9);
        assert_eq!(c.t, 5);
        assert_eq!(c.l, 2);
        assert_eq!(c.r_query, 77);
    }
}
