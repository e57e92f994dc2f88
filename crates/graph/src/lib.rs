//! # spindown-graph
//!
//! The graph-algorithm substrate of the ICDCS 2011 reproduction: the two
//! NP-complete problems the paper reduces energy-aware scheduling to.
//!
//! * [`adjacency`] — [`Adjacency`], the neighbor interface every MWIS
//!   solver reads: node count, weights, degrees, an ascending and an
//!   unordered neighbor walk, and an edge test. The offline planner's
//!   `X(i,j,k)` conflict graph (paper §3.1) implements it in
//!   `spindown-core` without storing a single edge.
//! * [`csr`] — [`CsrGraph`], the stored-edge implementation: a frozen
//!   node-weighted undirected graph in compressed-sparse-row layout,
//!   flat offset/neighbor arrays with sorted adjacency, built from a
//!   unique edge list. It is the reference for arbitrary graphs and the
//!   random-graph suites.
//! * [`mwis`] — maximum-weight-independent-set solvers on any
//!   [`Adjacency`]: the paper's GMIN greedy ([`mwis::gwmin`], Sakai et
//!   al. \[22\]), the stronger [`mwis::gwmin2`], a [`mwis::local_search`]
//!   improver, and an [`mwis::exact`] iterative bitset branch-and-bound
//!   oracle.
//! * [`setcover`] — weighted set cover for the batch scheduler (§3.2):
//!   greedy `H_n`-approximation and an exact iterative bitset
//!   branch-and-bound oracle.
//! * [`bitset`] — the word-packed `u64` bitset primitives both exact
//!   solvers build their alive/covered sets, mask tables, and undo arenas
//!   from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod bitset;
pub mod csr;
pub mod mwis;
pub mod setcover;

pub use adjacency::Adjacency;
pub use csr::CsrGraph;
pub use setcover::{Cover, CoverScratch, SetCoverInstance, WeightedSet};

/// Node identifier (dense, `0..n`).
pub type NodeId = u32;
