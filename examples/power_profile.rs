//! Plots (in ASCII) the system's total power draw over time under the
//! static baseline vs. the energy-aware heuristic — making the spin-down
//! dynamics visible: every dip is a disk asleep.
//!
//! ```text
//! cargo run --release --example power_profile
//! ```

use spindown::prelude::*;
use spindown::trace::synth::arrivals::OnOffProcess;

const BARS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(samples: &[(f64, f64)], lo: f64, hi: f64, width: usize) -> String {
    if samples.is_empty() {
        return String::new();
    }
    // Downsample to `width` buckets by averaging.
    let mut out = String::new();
    let chunk = (samples.len() as f64 / width as f64).max(1.0);
    let mut i = 0.0;
    while (i as usize) < samples.len() {
        let start = i as usize;
        let end = ((i + chunk) as usize).min(samples.len()).max(start + 1);
        let avg: f64 = samples[start..end].iter().map(|p| p.1).sum::<f64>() / (end - start) as f64;
        let frac = ((avg - lo) / (hi - lo)).clamp(0.0, 1.0);
        let idx = (frac * (BARS.len() - 1) as f64).round() as usize;
        out.push(BARS[idx]);
        i += chunk;
    }
    out
}

fn main() {
    let trace = CelloLike {
        requests: 6_000,
        data_items: 2_500,
        arrivals: OnOffProcess {
            sources: 8,
            on_shape: 1.5,
            on_scale_s: 2.0,
            off_shape: 1.3,
            off_scale_s: 30.0,
            burst_rate: 12.0,
        },
        ..CelloLike::default()
    }
    .generate(33);
    let requests = requests_from_trace(&trace);
    let disks = 16u32;

    let run = |scheduler: SchedulerKind, policy: PolicyKind| {
        let spec = ExperimentSpec {
            placement: PlacementConfig {
                disks,
                replication: 3,
                zipf_z: 1.0,
            },
            scheduler,
            system: SystemConfig {
                disks,
                policy,
                power_sample: Some(SimDuration::from_secs(2)),
                ..SystemConfig::default()
            },
            seed: 33,
        };
        run_experiment(&requests, &spec, 1)
    };

    let always_on = run(SchedulerKind::Static, PolicyKind::AlwaysOn);
    let static_2cpm = run(SchedulerKind::Static, PolicyKind::Breakeven);
    let heuristic = run(
        SchedulerKind::Heuristic(CostFunction::energy_only()),
        PolicyKind::Breakeven,
    );
    let mwis = run(
        SchedulerKind::Mwis {
            solver: MwisSolver::GwMinRefined { passes: 4 },
            max_successors: 3,
        },
        PolicyKind::Breakeven,
    );
    let _ = &mwis; // offline model has no sampled timeline; used for energy

    let params = PowerParams::barracuda();
    let hi = disks as f64 * params.active_w;
    let lo = 0.0;
    println!(
        "system power over {:.0} s ({} disks, 0 W … {:.0} W full-active):\n",
        requests.last().unwrap().at.as_secs_f64(),
        disks,
        hi
    );
    for (name, m) in [
        ("always-on", &always_on),
        ("static+2cpm", &static_2cpm),
        ("heuristic a=1", &heuristic),
    ] {
        println!(
            "{:<12} {}  mean {:>5.0} W  ({:.1}% of always-on energy)",
            name,
            sparkline(&m.power_timeline, lo, hi, 72),
            m.power_timeline.iter().map(|p| p.1).sum::<f64>()
                / m.power_timeline.len().max(1) as f64,
            m.normalized_energy() * 100.0
        );
    }
    println!(
        "\nmwis-r (offline, analytic — no timeline): {:.1}% of always-on energy",
        mwis.normalized_energy() * 100.0
    );
    println!(
        "\nEvery dip below the always-on band is a disk in standby; the\n\
         heuristic deepens the dips by steering reads onto already-awake\n\
         replicas."
    );
}
