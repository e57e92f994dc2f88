//! # spindown-graph
//!
//! Graph-algorithm substrate for the ICDCS 2011 reproduction: the two
//! NP-complete problems the paper reduces energy-aware scheduling to.
//!
//! * [`graph`] — node-weighted undirected [`graph::Graph`] (the `X(i,j,k)`
//!   conflict graph of paper §3.1), its bulk [`graph::GraphBuilder`], and
//!   the [`graph::GraphView`] read trait the solvers are generic over.
//! * [`csr`] — the frozen [`csr::CsrGraph`] compressed-sparse-row layout:
//!   flat offset/neighbor arrays with sorted adjacency, the fast backend
//!   for build-once-solve-many graphs.
//! * [`delta`] — the [`delta::DeltaGraph`] mutation overlay over a frozen
//!   CSR base: tombstoned retirements + appended arrivals with
//!   copy-on-write patch lists, flattened back to flat CSR by
//!   [`delta::DeltaGraph::compact`] under a caller-chosen live order.
//!   The substrate of the rolling-horizon incremental re-planner.
//! * [`mwis`] — maximum-weight-independent-set solvers: the paper's GMIN
//!   greedy ([`mwis::gwmin`], Sakai et al. \[22\]), the stronger
//!   [`mwis::gwmin2`], a [`mwis::local_search`] improver, and an
//!   [`mwis::exact`] iterative bitset branch-and-bound oracle. All generic
//!   over [`graph::GraphView`].
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
pub mod delta;
pub mod graph;
pub mod mwis;
pub mod setcover;

pub use csr::CsrGraph;
pub use delta::DeltaGraph;
pub use graph::{Graph, GraphBuilder, GraphView, NodeId};
pub use setcover::{Cover, CoverScratch, SetCoverInstance, WeightedSet};
