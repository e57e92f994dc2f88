//! Walks through the paper's running example (Figs. 2–4) step by step:
//! the batch toy instance, the offline toy instance, and the MWIS graph
//! construction that recovers the optimal schedule.
//!
//! ```text
//! cargo run --release --example paper_walkthrough
//! ```

use spindown::core::model::Assignment;
use spindown::core::offline::{brute_force_optimal, evaluate_offline};
use spindown::core::paper_example as paper;
use spindown::core::sched::{LocationProvider, MwisPlanner, MwisSolver};

fn energy(requests: &[spindown::core::model::Request], schedule: &Assignment) -> f64 {
    evaluate_offline(requests, schedule, 4, &paper::params(), None, None).energy_j
}

fn main() {
    println!("The paper's running example: 6 requests, 4 disks, TB = 5 s, unit power.\n");
    println!("placement (b = block, d = disk):");
    let placement = paper::placement();
    for b in 0..6u64 {
        let locs: Vec<String> = placement
            .locations(spindown::core::model::DataId(b))
            .iter()
            .map(|d| format!("d{}", d.0 + 1))
            .collect();
        println!("  b{} -> {}", b + 1, locs.join(", "));
    }

    // --- Fig. 2: the batch case (all requests at t = 0). ---
    println!("\n== Fig. 2: batch scheduling (all requests concurrent) ==");
    let batch = paper::batch_requests();
    println!(
        "  schedule A (3 disks): energy {}",
        energy(&batch, &paper::schedule_a())
    );
    println!(
        "  schedule B (2 disks): energy {}",
        energy(&batch, &paper::schedule_b())
    );
    println!("  always-on           : energy 20");
    println!("  -> B is batch-optimal: minimum number of disks covers all requests.");

    // --- Fig. 3: the offline case (requests spread over time). ---
    println!("\n== Fig. 3: offline scheduling (arrivals at t = 0,1,3,5,12,13) ==");
    let offline = paper::offline_requests();
    println!(
        "  schedule B: energy {}",
        energy(&offline, &paper::schedule_b())
    );
    println!(
        "  schedule C: energy {}",
        energy(&offline, &paper::schedule_c())
    );
    println!("  -> B is no longer optimal: offline cost depends on arrival times too.");

    // --- Fig. 4: the MWIS reduction. ---
    println!("\n== Fig. 4: the MWIS scheduling algorithm ==");
    let planner = MwisPlanner {
        params: paper::params(),
        solver: MwisSolver::Exact { node_limit: 64 },
        max_successors: 8,
    };
    let cg = planner.build_graph_with_jobs(&offline, &placement, 1);
    println!(
        "  step 1+2: {} candidate savings X(i,j,k), {} conflict edges:",
        cg.graph.len(),
        cg.graph.edge_count()
    );
    for (n, &(i, j, k)) in cg.nodes.iter().enumerate() {
        println!(
            "    X(r{},r{},d{})  weight {}  degree {}",
            i + 1,
            j + 1,
            k.0 + 1,
            cg.graph.weight(n as u32),
            cg.graph.degree(n as u32)
        );
    }
    let sel = planner.solve(&cg);
    let total: f64 = sel.iter().map(|&v| cg.graph.weight(v)).sum();
    println!("  step 3: maximum-weight independent set, total saving {total}:");
    for &v in &sel {
        let (i, j, k) = cg.nodes[v as usize];
        println!("    X(r{},r{},d{})", i + 1, j + 1, k.0 + 1);
    }
    let (assignment, _) = planner.plan(&offline, &placement, 1);
    println!("  step 4: derived assignment:");
    for (r, d) in assignment.disks.iter().enumerate() {
        println!("    r{} -> d{}", r + 1, d.0 + 1);
    }
    let mwis_energy = energy(&offline, &assignment);
    println!("  energy of derived schedule: {mwis_energy}");

    // Cross-check against exhaustive search.
    let (_, optimal) =
        brute_force_optimal(&offline, &placement, &paper::params(), 1_000_000).expect("small");
    println!(
        "\nbrute-force optimum over all {} schedules: {}",
        2 * 3 * 2 * 2 * 2,
        optimal
    );
    assert_eq!(
        mwis_energy, optimal,
        "Theorem 1: the MWIS schedule is optimal"
    );
    println!("Theorem 1 verified: the MWIS-derived schedule is exactly optimal.");
}
