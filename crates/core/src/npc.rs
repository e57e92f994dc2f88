//! The paper's NP-completeness reduction (Theorem 3): from maximum
//! independent set to offline energy-aware scheduling.
//!
//! Construction (§B, Theorem 3): given a graph `G(V, E)`, emit for each
//! edge `e = (v_i, v_j)` a request `r_e` whose data lives on disks `d_i`
//! and `d_j`, plus dummy requests `r_{e,i}` (only on `d_i`) and `r_{e,j}`
//! (only on `d_j`), all three sharing `r_e`'s arrival time; consecutive
//! edges are separated by intervals far larger than the breakeven time.
//!
//! ### Reproduction note
//!
//! The paper's proof sketch ends with "it is then easy to show" and leaves
//! the MIS correspondence implicit. Analyzed under the paper's own energy
//! model, the dummies force both endpoint disks awake at every edge time,
//! which makes the total energy orientation-independent — the sketch as
//! written does not pin down the claimed equivalence (see EXPERIMENTS.md).
//! We therefore implement the construction faithfully and verify the
//! properties that *do* hold and that the scheduling pipeline must
//! satisfy on these adversarial instances: the conflict graph built by
//! the MWIS scheduler has one compatible saving per edge, the exact
//! planner attains the brute-force optimal energy, and that optimum
//! equals `|E| · (E_max − ε·P_I)` saving-wise.

use spindown_sim::time::{SimDuration, SimTime};

use crate::model::{DataId, DiskId, Request};
use crate::sched::ExplicitPlacement;

/// An undirected graph given as an edge list over vertices `0..n`.
#[derive(Debug, Clone)]
pub struct InputGraph {
    /// Number of vertices.
    pub vertices: u32,
    /// Edge list (unordered pairs, no self-loops).
    pub edges: Vec<(u32, u32)>,
}

/// The scheduling instance produced by the Theorem 3 reduction.
#[derive(Debug)]
pub struct ReducedInstance {
    /// The request stream (time-sorted, index = stream position).
    pub requests: Vec<Request>,
    /// Replica locations per data id.
    pub placement: ExplicitPlacement,
    /// For each edge: the stream index of its choice request `r_e`.
    pub edge_requests: Vec<u32>,
}

/// Performs the reduction. Edge times are spaced by `spacing`, which must
/// exceed the saving window of the power model the instance will be
/// evaluated under; the dummies arrive `epsilon` after `r_e` so the pair
/// ordering is strict (Eq. 4 requires `t_i < t_j`).
///
/// # Panics
///
/// Panics if the graph has a self-loop or an out-of-range endpoint.
pub fn reduce(graph: &InputGraph, spacing: SimDuration, epsilon: SimDuration) -> ReducedInstance {
    let mut locations: Vec<Vec<DiskId>> = Vec::new();
    let mut requests = Vec::new();
    let mut edge_requests = Vec::new();

    for (e, &(vi, vj)) in graph.edges.iter().enumerate() {
        assert!(vi != vj, "self-loop in input graph");
        assert!(
            vi < graph.vertices && vj < graph.vertices,
            "edge endpoint out of range"
        );
        let te = SimTime::ZERO + spacing * (e as u64 + 1);

        // r_e: on both endpoint disks.
        let data_e = DataId(locations.len() as u64);
        locations.push(vec![DiskId(vi), DiskId(vj)]);
        edge_requests.push(requests.len() as u32);
        requests.push(Request {
            index: requests.len() as u32,
            at: te,
            data: data_e,
            size: 4096,
        });

        // Dummies: pinned to one disk each, arriving epsilon later.
        for v in [vi, vj] {
            let data = DataId(locations.len() as u64);
            locations.push(vec![DiskId(v)]);
            requests.push(Request {
                index: requests.len() as u32,
                at: te + epsilon,
                data,
                size: 4096,
            });
        }
    }

    ReducedInstance {
        requests,
        placement: ExplicitPlacement::new(locations, graph.vertices),
        edge_requests,
    }
}

/// Reads an edge orientation out of a schedule of a reduced instance:
/// for each edge, which endpoint received `r_e`.
pub fn orientation(
    instance: &ReducedInstance,
    assignment: &crate::model::Assignment,
) -> Vec<DiskId> {
    instance
        .edge_requests
        .iter()
        .map(|&r| assignment.disk_of(r as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{brute_force_optimal, evaluate_offline};
    use crate::sched::{LocationProvider, MwisPlanner, MwisSolver};
    use spindown_disk::power::PowerParams;
    use spindown_graph::Adjacency;

    fn toy_graph() -> InputGraph {
        // Path 0-1-2 plus pendant 3 on vertex 0.
        InputGraph {
            vertices: 4,
            edges: vec![(0, 1), (1, 2), (0, 3)],
        }
    }

    fn build(graph: &InputGraph) -> ReducedInstance {
        reduce(
            graph,
            SimDuration::from_secs(100), // >> window (5 s for toy params)
            SimDuration::from_millis(10),
        )
    }

    #[test]
    fn instance_shape() {
        let inst = build(&toy_graph());
        assert_eq!(inst.requests.len(), 9, "3 requests per edge");
        assert_eq!(inst.edge_requests.len(), 3);
        assert!(inst.requests.windows(2).all(|w| w[0].at <= w[1].at));
        // r_e has two locations, dummies one.
        for &e in &inst.edge_requests {
            assert_eq!(
                inst.placement
                    .locations(inst.requests[e as usize].data)
                    .len(),
                2
            );
        }
    }

    #[test]
    fn conflict_graph_has_one_compatible_saving_per_edge() {
        let inst = build(&toy_graph());
        let planner = MwisPlanner {
            params: PowerParams::paper_example(),
            solver: MwisSolver::exact_default(),
            max_successors: 16,
        };
        let cg = planner.build_graph_with_jobs(&inst.requests, &inst.placement, 1);
        // Per edge: one candidate pair per endpoint disk (r_e with that
        // endpoint's dummy), mutually conflicting (schedule-constraint on
        // r_e). Savings across edges never pair (spacing >> window).
        assert_eq!(cg.graph.len(), 2 * toy_graph().edges.len());
        let sel = planner.solve(&cg);
        assert_eq!(sel.len(), toy_graph().edges.len());
        assert!(cg.is_independent_set(&sel));
    }

    #[test]
    fn exact_planner_matches_brute_force_on_reduced_instances() {
        let inst = build(&toy_graph());
        let params = PowerParams::paper_example();
        let planner = MwisPlanner {
            params: params.clone(),
            solver: MwisSolver::exact_default(),
            max_successors: 16,
        };
        let (assignment, _) = planner.plan(&inst.requests, &inst.placement, 1);
        let planned = evaluate_offline(
            &inst.requests,
            &assignment,
            inst.placement.disks(),
            &params,
            None,
            None,
        );
        let (_, optimal) =
            brute_force_optimal(&inst.requests, &inst.placement, &params, 10_000).expect("small");
        assert!(
            (planned.energy_j - optimal).abs() < 1e-9,
            "planner {} vs optimal {}",
            planned.energy_j,
            optimal
        );
    }

    #[test]
    fn orientation_reads_choices() {
        let inst = build(&toy_graph());
        let params = PowerParams::paper_example();
        let planner = MwisPlanner {
            params,
            solver: MwisSolver::GwMin,
            max_successors: 16,
        };
        let (assignment, _) = planner.plan(&inst.requests, &inst.placement, 1);
        let orient = orientation(&inst, &assignment);
        assert_eq!(orient.len(), 3);
        for (o, &(vi, vj)) in orient.iter().zip(&toy_graph().edges) {
            assert!(o.0 == vi || o.0 == vj, "edge oriented off its endpoints");
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        reduce(
            &InputGraph {
                vertices: 2,
                edges: vec![(1, 1)],
            },
            SimDuration::from_secs(10),
            SimDuration::from_millis(1),
        );
    }

    #[test]
    fn empty_graph_reduces_to_empty_stream() {
        let inst = reduce(
            &InputGraph {
                vertices: 3,
                edges: vec![],
            },
            SimDuration::from_secs(10),
            SimDuration::from_millis(1),
        );
        assert!(inst.requests.is_empty());
    }
}
