//! Helpers shared by the golden-digest suites.
//!
//! * [`digest`] — FNV digest of a run's [`RunMetrics`].
//! * [`graph_digest`] — FNV digest of a built [`ConflictGraph`].
//! * [`brute_force_conflicts`] / [`edge_list`] — the Step 2 conflict
//!   rule stated over all node pairs, and a graph's edges (read through
//!   its ascending neighbor walk) in the same shape, for edge-for-edge
//!   comparison.

// Each test binary uses a subset of the helpers.
#![allow(dead_code)]

use spindown_core::model::DiskId;
use spindown_core::sched::mwis::ConflictGraph;
use spindown_core::RunMetrics;
use spindown_graph::{Adjacency, NodeId};

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// Digest of every [`RunMetrics`] field except the timing-dependent
/// `splitter_high_water`. The response histogram is folded through its
/// public summary: count, mean, max and every inverse-CDF point (which
/// pins each non-empty bucket's count).
pub fn digest(m: &RunMetrics) -> u64 {
    let mut h = Fnv::new();
    for byte in m.scheduler.bytes() {
        h.word(u64::from(byte));
    }
    h.word(m.requests as u64);
    h.float(m.horizon_s);
    h.float(m.energy_j);
    h.float(m.always_on_j);
    h.word(m.spinups);
    h.word(m.spindowns);
    h.word(m.response.count());
    h.float(m.response.mean());
    h.float(m.response.max());
    for (x, p) in m.response.inverse_cdf() {
        h.float(x);
        h.float(p);
    }
    h.word(m.per_disk.len() as u64);
    for d in &m.per_disk {
        h.float(d.energy_j);
        for f in d.state_fractions {
            h.float(f);
        }
        h.word(d.spinups);
        h.word(d.spindowns);
        h.word(d.requests);
    }
    h.word(m.power_timeline.len() as u64);
    for &(t, w) in &m.power_timeline {
        h.float(t);
        h.float(w);
    }
    h.word(m.peak_events as u64);
    h.word(m.peak_in_flight as u64);
    h.0
}

/// Digest of a built conflict graph: the node count, every node's
/// `(i, j, k)` triple and weight bits, then every node's neighborhood as
/// its stored degree followed by its ascending neighbor walk. A graph
/// whose degrees agree with its walks hashes exactly as the CSR graphs
/// of earlier builds did, which stored each neighbor slice with its
/// length.
pub fn graph_digest(cg: &ConflictGraph) -> u64 {
    let mut h = Fnv::new();
    h.word(cg.nodes.len() as u64);
    for (v, &(i, j, k)) in cg.nodes.iter().enumerate() {
        h.word(u64::from(i));
        h.word(u64::from(j));
        h.word(u64::from(k.0));
        h.float(cg.weight(v as NodeId));
    }
    for v in 0..cg.len() as NodeId {
        h.word(cg.degree(v) as u64);
        cg.for_each_neighbor(v, |u| h.word(u64::from(u)));
    }
    h.0
}

/// Step 2 by brute force over every node pair: two nodes conflict iff
/// they share a request and claim the same earlier request, the same
/// later request, or different disks. No request buckets and no Step 1
/// helpers; `O(n²)`. Returns every edge `(a, b)` with `a < b`, ascending.
pub fn brute_force_conflicts(nodes: &[(u32, u32, DiskId)]) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for (a, &(ia, ja, ka)) in nodes.iter().enumerate() {
        for (b, &(ib, jb, kb)) in nodes.iter().enumerate().skip(a + 1) {
            let share = ia == ib || ia == jb || ja == ib || ja == jb;
            if share && (ia == ib || ja == jb || ka != kb) {
                edges.push((a as NodeId, b as NodeId));
            }
        }
    }
    edges
}

/// Every edge `(v, u)` of `g` with `v < u`, ascending — the shape
/// [`brute_force_conflicts`] returns.
pub fn edge_list(g: &impl Adjacency) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for v in 0..g.len() as NodeId {
        g.for_each_neighbor(v, |u| {
            if v < u {
                edges.push((v, u));
            }
        });
    }
    edges
}
