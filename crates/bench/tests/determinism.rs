//! End-to-end determinism: figure output must be byte-identical across
//! repeated runs with the same seed, and across worker-thread counts.
//! The parallel grid engine farms (rf, scheduler) cells out to a work
//! queue, so any ordering or float nondeterminism introduced there would
//! surface here as a diff.

use spindown_bench::figures::Harness;
use spindown_bench::workload::Scale;

fn small() -> Scale {
    Scale {
        requests: 300,
        data_items: 120,
        disks: 10,
        rate: 3.0,
    }
}

fn render_all(h: &Harness) -> Vec<(String, String)> {
    Harness::all_ids()
        .iter()
        .map(|id| (id.to_string(), h.generate(id).expect("known figure id")))
        .collect()
}

#[test]
fn figures_identical_across_repeats_and_job_counts() {
    let serial_a = render_all(&Harness::new(small(), 7, 1));
    let serial_b = render_all(&Harness::new(small(), 7, 1));
    let parallel = render_all(&Harness::new(small(), 7, 8));

    assert_eq!(
        serial_a, serial_b,
        "same seed, same jobs: figure bytes diverged between runs"
    );
    for ((id, serial), (_, par)) in serial_a.iter().zip(&parallel) {
        assert_eq!(
            serial, par,
            "figure {id}: jobs=1 and jobs=8 rendered different bytes"
        );
    }
}

#[test]
fn different_seed_changes_grid_figures() {
    // Guard against the determinism test vacuously passing because the
    // seed is ignored: a different seed must change at least one
    // grid-backed figure.
    let a = Harness::new(small(), 7, 2);
    let b = Harness::new(small(), 8, 2);
    assert_ne!(a.generate("fig6"), b.generate("fig6"));
}
