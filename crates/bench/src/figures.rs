//! One generator per table/figure of the paper's evaluation. Each
//! function returns a plain-text report; the `figures` binary writes them
//! under `results/`.

use std::cell::OnceCell;

use spindown_core::cost::CostFunction;
use spindown_core::experiment::{run_experiment, ExperimentSpec, SchedulerKind};
use spindown_core::model::Request;
use spindown_core::offline::evaluate_offline;
use spindown_core::paper_example;
use spindown_core::placement::PlacementConfig;
use spindown_core::sched::{MwisPlanner, MwisSolver};
use spindown_core::system::SystemConfig;
use spindown_disk::power::PowerParams;
use spindown_disk::state::DiskPowerState;
use spindown_sim::time::SimDuration;

use crate::grids::{EvalGrid, RF_SWEEP};
use crate::table::{f2, f3, secs, Table};
use crate::workload::{self, Scale};

/// Lazily computes and caches the expensive shared state (workloads and
/// grids) across figure generators.
pub struct Harness {
    scale: Scale,
    seed: u64,
    jobs: usize,
    cello: OnceCell<Vec<Request>>,
    financial: OnceCell<Vec<Request>>,
    cello_grid: OnceCell<EvalGrid>,
    financial_grid: OnceCell<EvalGrid>,
}

impl Harness {
    /// Creates a harness at the given scale and seed whose grid
    /// computations fan out over up to `jobs` worker threads
    /// ([`EvalGrid::compute`]), as do the runs of the figures and
    /// ablations outside the grids. Output is bit-identical for every
    /// `jobs` value.
    pub fn new(scale: Scale, seed: u64, jobs: usize) -> Self {
        Harness {
            scale,
            seed,
            jobs: jobs.max(1),
            cello: OnceCell::new(),
            financial: OnceCell::new(),
            cello_grid: OnceCell::new(),
            financial_grid: OnceCell::new(),
        }
    }

    /// The harness scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Worker-thread budget for grid computation.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    fn cello(&self) -> &[Request] {
        self.cello
            .get_or_init(|| workload::cello(self.scale, self.seed))
    }

    fn financial(&self) -> &[Request] {
        self.financial
            .get_or_init(|| workload::financial(self.scale, self.seed))
    }

    fn cello_grid(&self) -> &EvalGrid {
        self.cello_grid
            .get_or_init(|| EvalGrid::compute(self.cello(), self.scale, 1.0, self.seed, self.jobs))
    }

    fn financial_grid(&self) -> &EvalGrid {
        self.financial_grid.get_or_init(|| {
            EvalGrid::compute(self.financial(), self.scale, 1.0, self.seed, self.jobs)
        })
    }

    /// Dispatches a figure by id (`"fig2"` … `"fig17"`). Returns `None`
    /// for unknown ids.
    pub fn generate(&self, id: &str) -> Option<String> {
        Some(match id {
            "table1" => table1(),
            "fig2" => fig2(),
            "fig3" => fig3(),
            "fig4" => fig4(),
            "fig5" => fig5(),
            "fig6" => fig_energy(self.cello_grid(), "Fig. 6 — energy (Cello)"),
            "fig7" => fig_spins(self.cello_grid(), "Fig. 7 — spin-up/down (Cello)"),
            "fig8" => fig_response(self.cello_grid(), "Fig. 8 — mean response time (Cello)"),
            "fig9" => fig_breakdown(
                self.cello_grid(),
                "Fig. 9 — disk time breakdown (Cello, rf=3)",
            ),
            "fig10" => fig10(self),
            "fig11" => fig11(self),
            "fig12" => fig12(
                self.cello_grid(),
                "Fig. 12 — response-time inverse CDF (Cello, rf=3)",
            ),
            "fig13" => fig13(
                self.cello_grid(),
                "Fig. 13 — 90th-percentile response time (Cello)",
            ),
            "fig14" => fig_energy(self.financial_grid(), "Fig. 14 — energy (Financial1)"),
            "fig15" => fig_spins(self.financial_grid(), "Fig. 15 — spin-up/down (Financial1)"),
            "fig16" => fig_response(
                self.financial_grid(),
                "Fig. 16 — mean response time (Financial1)",
            ),
            "fig17" => fig_breakdown(
                self.financial_grid(),
                "Fig. 17 — disk time breakdown (Financial1, rf=3)",
            ),
            _ => return None,
        })
    }

    /// All figure ids in paper order.
    pub fn all_ids() -> &'static [&'static str] {
        &[
            "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        ]
    }
}

/// Table 1 — the paper's variable glossary, mapped to this codebase.
pub fn table1() -> String {
    let mut t = Table::new(["paper variable", "meaning", "implementation"]);
    for (var, meaning, imp) in [
        (
            "D = {d1..dK}",
            "disks in the system",
            "core::model::DiskId / system disks",
        ),
        (
            "B = {b1..bM}",
            "data items",
            "core::model::DataId (dense ids)",
        ),
        (
            "L = {l1..lM}",
            "placement: disks holding each item",
            "core::placement::PlacementMap::locations",
        ),
        (
            "R = {r1..rN}",
            "time-sorted request stream",
            "core::model::Request (index = i)",
        ),
        ("t_i", "disk access time of r_i", "Request::at (SimTime)"),
        (
            "ES(R,D,L,P)",
            "a scheduling problem",
            "core::experiment::ExperimentSpec",
        ),
        (
            "S_ES",
            "all feasible schedules",
            "(search space of Assignment)",
        ),
        (
            "S*_ES",
            "optimal schedule",
            "core::offline::brute_force_optimal",
        ),
        (
            "X(i,j,k)",
            "saving of r_i with successor r_j on d_k",
            "core::saving::SavingModel::pair_saving_j",
        ),
        (
            "X(S,r_i)",
            "saving of r_i under schedule S",
            "core::offline::evaluate_offline",
        ),
        (
            "X(S)",
            "total saving of schedule S",
            "MwisPlanner::plan (claimed saving)",
        ),
        ("P_I", "disk idle power", "disk::power::PowerParams::idle_w"),
        (
            "TB",
            "breakeven time / idleness threshold",
            "PowerParams::breakeven_secs",
        ),
        (
            "E_up/down",
            "spin-up/down energy",
            "PowerParams::spinup_j + spindown_j",
        ),
        (
            "T_up/down",
            "spin-up/down time",
            "PowerParams::spinup_s / spindown_s",
        ),
    ] {
        t.row([var.to_string(), meaning.to_string(), imp.to_string()]);
    }
    format!(
        "Table 1 — variables for problem definition (paper Appendix B)\n\n{}",
        t.render()
    )
}

/// Fig. 2 — the batch toy example: schedules A and B vs always-on.
pub fn fig2() -> String {
    let reqs = paper_example::batch_requests();
    let mut t = Table::new(["schedule", "disks used", "energy", "paper"]);
    for (name, schedule, paper) in [
        (
            "A (r1,r5→d1; r2,r3→d2; r4,r6→d3)",
            paper_example::schedule_a(),
            "15",
        ),
        (
            "B (r1,r2,r3,r5→d1; r4,r6→d3)",
            paper_example::schedule_b(),
            "10 (optimal)",
        ),
    ] {
        let m = evaluate_offline(&reqs, &schedule, 4, &paper_example::params(), None, None);
        let used = m.per_disk.iter().filter(|d| d.requests > 0).count();
        t.row([
            name.to_string(),
            used.to_string(),
            f2(m.energy_j),
            paper.into(),
        ]);
    }
    let m = evaluate_offline(
        &reqs,
        &paper_example::schedule_b(),
        4,
        &paper_example::params(),
        None,
        None,
    );
    t.row([
        "always-on".to_string(),
        "4".to_string(),
        f2(m.always_on_j),
        "20".into(),
    ]);
    format!("Fig. 2 — batch scheduling example\n\n{}", t.render())
}

/// Fig. 3 — the offline toy example: schedule B loses its optimality.
pub fn fig3() -> String {
    let reqs = paper_example::offline_requests();
    let mut t = Table::new(["schedule", "energy", "paper"]);
    for (name, schedule, paper) in [
        ("B (batch-optimal)", paper_example::schedule_b(), "23"),
        ("C (offline-optimal)", paper_example::schedule_c(), "19*"),
    ] {
        let m = evaluate_offline(&reqs, &schedule, 4, &paper_example::params(), None, None);
        t.row([name.to_string(), f2(m.energy_j), paper.into()]);
    }
    let m = evaluate_offline(
        &reqs,
        &paper_example::schedule_c(),
        4,
        &paper_example::params(),
        None,
        None,
    );
    t.row([
        "always-on".into(),
        f2(m.always_on_j),
        "72 (18s × 4 disks)".into(),
    ]);
    format!(
        "Fig. 3 — offline scheduling example\n\n{}\n\
         * the paper's §2.3.2 text computes 19 (d1 idle 0–8, d3 5–10, d4 12–18);\n\
         the figure caption's 21 contradicts its own text.\n",
        t.render()
    )
}

/// Fig. 4 — the MWIS algorithm walkthrough on the toy instance.
pub fn fig4() -> String {
    let reqs = paper_example::offline_requests();
    let placement = paper_example::placement();
    let planner = MwisPlanner {
        params: paper_example::params(),
        solver: MwisSolver::exact_default(),
        max_successors: 8,
    };
    let cg = planner.build_graph_with_jobs(&reqs, &placement, 1);
    let sel = planner.solve(&cg);
    let mut out = String::new();
    out.push_str("Fig. 4 — MWIS scheduling algorithm walkthrough\n\n");
    out.push_str("Step 1/2 (nodes X(i,j,k), 1-based as in the paper):\n");
    let mut t = Table::new(["node", "weight", "degree"]);
    for (n, &(i, j, k)) in cg.nodes.iter().enumerate() {
        t.row([
            format!("X({},{},d{})", i + 1, j + 1, k.0 + 1),
            f2(cg.graph.weight(n as u32)),
            cg.graph.degree(n as u32).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nStep 3: selected independent set (total saving {}):\n",
        f2(sel.iter().map(|&v| cg.graph.weight(v)).sum())
    ));
    for &v in &sel {
        let (i, j, k) = cg.nodes[v as usize];
        out.push_str(&format!("  X({},{},d{})\n", i + 1, j + 1, k.0 + 1));
    }
    let (assignment, _) = planner.plan(&reqs, &placement);
    let m = evaluate_offline(&reqs, &assignment, 4, &paper_example::params(), None, None);
    out.push_str(&format!(
        "\nStep 4: derived schedule energy = {} (paper's optimal schedule C: 19)\n",
        f2(m.energy_j)
    ));
    out
}

/// Fig. 5 — the 2CPM power configuration.
pub fn fig5() -> String {
    let p = PowerParams::barracuda();
    let mut t = Table::new(["parameter", "value"]);
    t.row(["active power".to_string(), format!("{} W", p.active_w)]);
    t.row(["idle power (P_I)".to_string(), format!("{} W", p.idle_w)]);
    t.row(["standby power".to_string(), format!("{} W", p.standby_w)]);
    t.row([
        "spin-up energy (E_up)".to_string(),
        format!("{} J", p.spinup_j),
    ]);
    t.row([
        "spin-down energy (E_down)".to_string(),
        format!("{} J", p.spindown_j),
    ]);
    t.row([
        "spin-up time (T_up)".to_string(),
        format!("{} s", p.spinup_s),
    ]);
    t.row([
        "spin-down time (T_down)".to_string(),
        format!("{} s", p.spindown_s),
    ]);
    t.row([
        "breakeven time (TB = E/P_I)".to_string(),
        format!("{:.1} s", p.breakeven_secs()),
    ]);
    t.row([
        "max request energy (E_max)".to_string(),
        format!("{:.1} J", p.max_request_energy_j()),
    ]);
    format!(
        "Fig. 5 — 2CPM configuration (Seagate Barracuda-class power model)\n\n{}",
        t.render()
    )
}

/// Figs. 6/14 — normalized energy vs replication factor.
pub fn fig_energy(grid: &EvalGrid, title: &str) -> String {
    let mut t = Table::new(
        std::iter::once("rf".to_string()).chain(grid.schedulers().iter().map(|s| s.to_string())),
    );
    for rf in RF_SWEEP {
        let mut row = vec![rf.to_string()];
        for s in grid.schedulers() {
            row.push(f3(grid.cell(rf, s).metrics.normalized_energy()));
        }
        t.row(row);
    }
    format!(
        "{title}\nenergy normalized to the always-on configuration\n\n{}",
        t.render()
    )
}

/// Figs. 7/15 — spin-up/down count normalized to Static.
pub fn fig_spins(grid: &EvalGrid, title: &str) -> String {
    let mut t = Table::new(
        std::iter::once("rf".to_string()).chain(grid.schedulers().iter().map(|s| s.to_string())),
    );
    for rf in RF_SWEEP {
        let static_spins = grid.cell(rf, "static").metrics.spin_cycles().max(1);
        let mut row = vec![rf.to_string()];
        for s in grid.schedulers() {
            let spins = grid.cell(rf, s).metrics.spin_cycles();
            row.push(f3(spins as f64 / static_spins as f64));
        }
        t.row(row);
    }
    format!(
        "{title}\nspin-up/down operations normalized to Static\n\n{}",
        t.render()
    )
}

/// Figs. 8/16 — mean request response time.
pub fn fig_response(grid: &EvalGrid, title: &str) -> String {
    let mut t = Table::new(
        std::iter::once("rf".to_string()).chain(grid.schedulers().iter().map(|s| s.to_string())),
    );
    for rf in RF_SWEEP {
        let mut row = vec![rf.to_string()];
        for s in grid.schedulers() {
            row.push(secs(grid.cell(rf, s).metrics.response_mean_s()));
        }
        t.row(row);
    }
    format!(
        "{title}\n(mwis runs under the offline model: no spin-up or queueing delay,\n\
         which is why the paper omits it from its Fig. 8)\n\n{}",
        t.render()
    )
}

/// Figs. 9/17 — per-disk state-time breakdown at rf = 3, disks sorted by
/// standby time. Rendered as per-scheduler percentile rows plus means.
pub fn fig_breakdown(grid: &EvalGrid, title: &str) -> String {
    let mut out = format!("{title}\nper-disk %time in each state, disks sorted by standby time\n");
    for s in grid.schedulers() {
        let m = &grid.cell(3, s).metrics;
        let rows = m.fractions_sorted_by_standby();
        let n = rows.len();
        let mut t = Table::new(["disk pctile", "standby", "idle", "active", "spin u/d"]);
        for (label, idx) in [
            ("p0", 0),
            ("p25", n / 4),
            ("p50", n / 2),
            ("p75", 3 * n / 4),
            ("p100", n - 1),
        ] {
            let f = rows[idx];
            t.row([
                label.to_string(),
                pct(f[DiskPowerState::Standby.index()]),
                pct(f[DiskPowerState::Idle.index()]),
                pct(f[DiskPowerState::Active.index()]),
                pct(f[DiskPowerState::SpinningUp.index()] + f[DiskPowerState::SpinningDown.index()]),
            ]);
        }
        out.push_str(&format!(
            "\n[{s}]  mean standby: {}\n{}",
            pct(m.mean_standby_fraction()),
            t.render()
        ));
    }
    out
}

fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Fig. 10 — energy over replication factor × placement skew (Zipf z).
pub fn fig10(h: &Harness) -> String {
    let reqs = h.cello();
    let zs = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut out = String::from(
        "Fig. 10 — energy vs replication factor and data locality (Cello)\n\
         energy normalized to always-on; rows = rf, cols = Zipf z of originals\n",
    );
    for kind in [
        SchedulerKind::Random,
        SchedulerKind::Static,
        SchedulerKind::Heuristic(CostFunction::default()),
    ] {
        let label = kind.label();
        let mut t = Table::new(
            std::iter::once("rf".to_string()).chain(zs.iter().map(|z| format!("z={z}"))),
        );
        for rf in RF_SWEEP {
            let mut row = vec![rf.to_string()];
            for &z in &zs {
                let spec = ExperimentSpec {
                    placement: PlacementConfig {
                        disks: h.scale().disks,
                        replication: rf,
                        zipf_z: z,
                    },
                    scheduler: kind.clone(),
                    system: SystemConfig {
                        disks: h.scale().disks,
                        ..SystemConfig::default()
                    },
                    seed: 1,
                };
                row.push(f3(run_experiment(reqs, &spec, h.jobs()).normalized_energy()));
            }
            t.row(row);
        }
        out.push_str(&format!("\n[{label}]\n{}", t.render()));
    }
    out
}

/// Fig. 11 — the cost-function trade-off: α and β sweep at rf = 3.
pub fn fig11(h: &Harness) -> String {
    let reqs = h.cello();
    let alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let betas = [1.0, 10.0, 100.0, 500.0, 1000.0];
    let mut runs = Vec::new();
    for &beta in &betas {
        for &alpha in &alphas {
            let spec = ExperimentSpec {
                placement: PlacementConfig {
                    disks: h.scale().disks,
                    replication: 3,
                    zipf_z: 1.0,
                },
                scheduler: SchedulerKind::Heuristic(CostFunction { alpha, beta }),
                system: SystemConfig {
                    disks: h.scale().disks,
                    ..SystemConfig::default()
                },
                seed: 1,
            };
            runs.push((alpha, beta, run_experiment(reqs, &spec, h.jobs())));
        }
    }
    // Normalize to the α = 0 run of each β (as the paper does).
    let mut energy_t = Table::new(
        std::iter::once("beta".to_string()).chain(alphas.iter().map(|a| format!("a={a}"))),
    );
    let mut resp_t = Table::new(
        std::iter::once("beta".to_string()).chain(alphas.iter().map(|a| format!("a={a}"))),
    );
    for &beta in &betas {
        let base = runs
            .iter()
            .find(|(a, b, _)| *a == 0.0 && *b == beta)
            .expect("alpha 0 run");
        let mut erow = vec![format!("{beta}")];
        let mut rrow = vec![format!("{beta}")];
        for &alpha in &alphas {
            let (_, _, m) = runs
                .iter()
                .find(|(a, b, _)| *a == alpha && *b == beta)
                .expect("run");
            erow.push(f3(m.energy_j / base.2.energy_j));
            let denom = base.2.response_mean_s().max(1e-9);
            rrow.push(f2(m.response_mean_s() / denom));
        }
        energy_t.row(erow);
        resp_t.row(rrow);
    }
    format!(
        "Fig. 11 — cost-function trade-off (Heuristic, Cello, rf=3)\n\
         values normalized to the α=0 run of each β row\n\n\
         (a) energy consumption\n{}\n(b) mean response time\n{}",
        energy_t.render(),
        resp_t.render()
    )
}

/// Fig. 12 — inverse CDF of request response time at rf = 3.
pub fn fig12(grid: &EvalGrid, title: &str) -> String {
    let xs = [0.001, 0.01, 0.1, 1.0, 5.0, 10.0, 15.0];
    let mut t = Table::new(
        std::iter::once("x".to_string()).chain(
            std::iter::once("always-on".to_string())
                .chain(grid.schedulers().iter().map(|s| s.to_string())),
        ),
    );
    for &x in &xs {
        let mut row = vec![secs(x)];
        row.push(format!("{:.4}", grid.always_on.response.fraction_above(x)));
        for s in grid.schedulers() {
            row.push(format!(
                "{:.4}",
                grid.cell(3, s).metrics.response.fraction_above(x)
            ));
        }
        t.row(row);
    }
    format!("{title}\nP[response time > x]\n\n{}", t.render())
}

/// Fig. 13 — 90th-percentile response time vs replication factor.
pub fn fig13(grid: &EvalGrid, title: &str) -> String {
    let mut t = Table::new(
        std::iter::once("rf".to_string()).chain(
            std::iter::once("always-on".to_string())
                .chain(grid.schedulers().iter().map(|s| s.to_string())),
        ),
    );
    for rf in RF_SWEEP {
        let mut row = vec![rf.to_string()];
        row.push(secs(grid.always_on.response_p90_s()));
        for s in grid.schedulers() {
            row.push(secs(grid.cell(rf, s).metrics.response_p90_s()));
        }
        t.row(row);
    }
    format!("{title}\n\n{}", t.render())
}

/// Ablation (beyond the paper): MWIS solver quality at rf = 3.
pub fn ablation_mwis(h: &Harness) -> String {
    let reqs = h.cello();
    let mut t = Table::new(["solver", "norm energy", "spins", "claimed saving kJ"]);
    for (name, solver, max_succ) in [
        ("gwmin (paper)", MwisSolver::GwMin, 3usize),
        ("gwmin fanout=8", MwisSolver::GwMin, 8),
        ("gwmin2", MwisSolver::GwMin2, 3),
        ("gwmin + local search", MwisSolver::GwMinLocalSearch, 3),
        (
            "gwmin + refine x4",
            MwisSolver::GwMinRefined { passes: 4 },
            3,
        ),
        (
            "refine x4, fanout=8",
            MwisSolver::GwMinRefined { passes: 4 },
            8,
        ),
    ] {
        let spec = ExperimentSpec {
            placement: PlacementConfig {
                disks: h.scale().disks,
                replication: 3,
                zipf_z: 1.0,
            },
            scheduler: SchedulerKind::Mwis {
                solver,
                max_successors: max_succ,
            },
            system: SystemConfig {
                disks: h.scale().disks,
                ..SystemConfig::default()
            },
            seed: 1,
        };
        let m = run_experiment(reqs, &spec, h.jobs());
        // Claimed saving: recompute via the planner for reporting.
        let placement = spindown_core::placement::PlacementMap::build(
            spindown_core::experiment::data_space(reqs),
            &spec.placement,
            spec.seed,
        );
        let planner = MwisPlanner {
            params: spec.system.power.clone(),
            solver,
            max_successors: max_succ,
        };
        let (_, claimed) = planner.plan(reqs, &placement);
        t.row([
            name.to_string(),
            f3(m.normalized_energy()),
            m.spin_cycles().to_string(),
            f2(claimed / 1000.0),
        ]);
    }
    format!(
        "Ablation — MWIS solver quality (Cello, rf=3)\n\
         the paper conjectures better MWIS algorithms would save more (§5.1)\n\n{}",
        t.render()
    )
}

/// Ablation (beyond the paper): spin-down threshold around 2CPM's TB.
pub fn ablation_threshold(h: &Harness) -> String {
    use spindown_core::system::PolicyKind;
    let reqs = h.cello();
    let tb = spindown_disk::power::PowerParams::barracuda().breakeven_secs();
    let mut t = Table::new(["threshold", "norm energy", "spin cycles", "mean resp"]);
    for (name, policy) in [
        (
            "TB/4".to_string(),
            PolicyKind::FixedTimeout(SimDuration::from_secs_f64(tb / 4.0)),
        ),
        (
            "TB/2".to_string(),
            PolicyKind::FixedTimeout(SimDuration::from_secs_f64(tb / 2.0)),
        ),
        (format!("TB ({tb:.1}s, 2CPM)"), PolicyKind::Breakeven),
        (
            "2*TB".to_string(),
            PolicyKind::FixedTimeout(SimDuration::from_secs_f64(tb * 2.0)),
        ),
        (
            "4*TB".to_string(),
            PolicyKind::FixedTimeout(SimDuration::from_secs_f64(tb * 4.0)),
        ),
        ("adaptive".to_string(), PolicyKind::Adaptive),
        ("always-on".to_string(), PolicyKind::AlwaysOn),
    ] {
        let spec = ExperimentSpec {
            placement: PlacementConfig {
                disks: h.scale().disks,
                replication: 3,
                zipf_z: 1.0,
            },
            scheduler: SchedulerKind::Heuristic(CostFunction::default()),
            system: SystemConfig {
                disks: h.scale().disks,
                policy,
                ..SystemConfig::default()
            },
            seed: 1,
        };
        let m = run_experiment(reqs, &spec, h.jobs());
        t.row([
            name,
            f3(m.normalized_energy()),
            m.spin_cycles().to_string(),
            secs(m.response_mean_s()),
        ]);
    }
    format!(
        "Ablation — spin-down threshold (Heuristic, Cello, rf=3)\n\
         2CPM's breakeven threshold is 2-competitive; the sweep shows the\n\
         energy/spin-count/latency trade-off around it\n\n{}",
        t.render()
    )
}

/// Ablation (beyond the paper): DiskSim-style queue disciplines.
pub fn ablation_discipline(h: &Harness) -> String {
    use spindown_disk::queue::QueueDiscipline;
    let reqs = h.cello();
    let mut t = Table::new(["discipline", "norm energy", "mean resp", "p90 resp"]);
    for (name, discipline) in [
        ("fcfs (paper)", QueueDiscipline::Fcfs),
        ("sstf", QueueDiscipline::Sstf),
        ("elevator", QueueDiscipline::Elevator),
    ] {
        let spec = ExperimentSpec {
            placement: PlacementConfig {
                disks: h.scale().disks,
                replication: 3,
                zipf_z: 1.0,
            },
            scheduler: SchedulerKind::Heuristic(CostFunction::default()),
            system: SystemConfig {
                disks: h.scale().disks,
                discipline,
                ..SystemConfig::default()
            },
            seed: 1,
        };
        let m = run_experiment(reqs, &spec, h.jobs());
        t.row([
            name.to_string(),
            f3(m.normalized_energy()),
            secs(m.response_mean_s()),
            secs(m.response_p90_s()),
        ]);
    }
    format!(
        "Ablation — per-disk queue discipline (Heuristic, Cello, rf=3)\n\
         seek-aware disciplines cut positioning time on deep queues\n\n{}",
        t.render()
    )
}

/// Ablation (beyond the paper): batch-interval sensitivity of WSC.
pub fn ablation_batch_interval(h: &Harness) -> String {
    let reqs = h.cello();
    let mut t = Table::new(["interval", "norm energy", "mean resp", "p90 resp"]);
    for ms in [10u64, 50, 100, 500, 1000, 5000] {
        let spec = ExperimentSpec {
            placement: PlacementConfig {
                disks: h.scale().disks,
                replication: 3,
                zipf_z: 1.0,
            },
            scheduler: SchedulerKind::Wsc {
                cost: CostFunction::default(),
                interval: SimDuration::from_millis(ms),
            },
            system: SystemConfig {
                disks: h.scale().disks,
                ..SystemConfig::default()
            },
            seed: 1,
        };
        let m = run_experiment(reqs, &spec, h.jobs());
        t.row([
            format!("{ms}ms"),
            f3(m.normalized_energy()),
            secs(m.response_mean_s()),
            secs(m.response_p90_s()),
        ]);
    }
    format!(
        "Ablation — WSC batch-interval sensitivity (Cello, rf=3)\n\
         the paper fixes 0.1 s; longer batches trade latency for energy\n\n{}",
        t.render()
    )
}
