//! CloudWalker configuration.

use crate::error::SimRankError;

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
}

impl SimRankConfig {
    /// The paper's default parameters.
    pub fn default_paper() -> Self {
        Self { c: 0.6, t: 10, l: 3, r: 100, r_query: 10_000, r_forward: 10_000, seed: 0x9a5c0 }
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
        // A query cohort is one block with u32 offsets over its visits.
        let visits = (self.t as u64).saturating_add(1).saturating_mul(u64::from(self.r_query));
        if visits > u64::from(u32::MAX) {
            return Err(SimRankError::InvalidConfig("(t + 1)·r_query must fit a u32".into()));
        }
        Ok(())
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
    fn validation_bounds_a_query_cohort_by_u32() {
        let fits = SimRankConfig::default_paper().with_t(9).with_r_query(u32::MAX / 10);
        assert!(fits.validate().is_ok());
        assert!(fits.with_t(10).validate().is_err());
        assert!(fits.with_t(usize::MAX).validate().is_err());
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
