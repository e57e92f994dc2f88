//! # spindown-graph
//!
//! The graph-algorithm substrate of the ICDCS 2011 reproduction: the two
//! NP-complete problems the paper reduces energy-aware scheduling to.
//!
//! * [`csr`] — [`CsrGraph`], the one graph type: a frozen node-weighted
//!   undirected graph (the `X(i,j,k)` conflict graph of paper §3.1) in
//!   compressed-sparse-row layout — flat offset/neighbor arrays with
//!   sorted adjacency, assembled in one shot from sorted neighbor slices
//!   or a unique edge list. A graph that changes between solves (the
//!   rolling-horizon re-planner's window) is rebuilt, not patched.
//! * [`mwis`] — maximum-weight-independent-set solvers on [`CsrGraph`]:
//!   the paper's GMIN greedy ([`mwis::gwmin`], Sakai et al. \[22\]), the
//!   stronger [`mwis::gwmin2`], a [`mwis::local_search`] improver, and an
//!   [`mwis::exact`] iterative bitset branch-and-bound oracle.
//! * [`setcover`] — weighted set cover for the batch scheduler (§3.2):
//!   greedy `H_n`-approximation and an exact iterative bitset
//!   branch-and-bound oracle.
//! * [`bitset`] — the word-packed `u64` bitset primitives both exact
//!   solvers build their alive/covered sets, mask tables, and undo arenas
//!   from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod csr;
pub mod mwis;
pub mod setcover;

pub use csr::CsrGraph;
pub use setcover::{Cover, CoverScratch, SetCoverInstance, WeightedSet};

/// Node identifier (dense, `0..n`).
pub type NodeId = u32;
