#![warn(missing_docs)]
// The panic gate of the serving closure: a site is rewritten or carries a reasoned `#[allow]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
//! Parallel iterative solvers for PASCO / CloudWalker.
//!
//! The offline phase solves the `n × n` linear system `A x = 1` whose row
//! `aᵢ` is the (Monte-Carlo-estimated) truncated similarity series of node
//! `i`. `A` is never materialised — rows are produced on demand through the
//! [`jacobi::RowSource`] trait, either replayed from stored sparse rows or
//! regenerated from seeded walks. The paper runs `L = 3` iterations of the
//! [`jacobi`] method, which parallelises over rows; the LIN baseline uses
//! sequential [`gauss_seidel`]. [`dense`] holds the small dense matrices of
//! the exact SimRank ground truth.

pub mod dense;
pub mod gauss_seidel;
pub mod jacobi;
pub mod norms;

pub use dense::Matrix;
pub use jacobi::{JacobiConfig, JacobiResult, RowSource};
