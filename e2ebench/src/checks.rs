//! Output checks: a run counts as failed when any of these rejects it.

use spindown_core::metrics::RunMetrics;
use spindown_sim::stats::LatencyHistogram;

/// The model outputs of one run that the benchmark reports and checks,
/// small enough to pass between processes as text.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Total energy, joules.
    pub energy_j: f64,
    /// Energy over the always-on baseline (a fraction, not percent).
    pub normalized: f64,
    /// Spin-ups plus spin-downs.
    pub spin_cycles: u64,
    /// Mean simulated response time, seconds.
    pub response_mean_s: f64,
    /// 90th-percentile simulated response time (bucket edge), seconds.
    pub response_p90_s: f64,
    /// 99th-percentile simulated response time, interpolated, seconds.
    pub response_p99_s: f64,
    /// Peak events in one event queue.
    pub peak_events: u64,
    /// Peak requests buffered in one event loop.
    pub peak_in_flight: u64,
    /// Largest splitter lookahead buffer (timing-dependent).
    pub splitter_high_water: u64,
    /// Hash of every deterministic field of the run's `RunMetrics`.
    pub digest: u64,
}

impl Summary {
    /// Summarizes `m`.
    pub fn of(m: &RunMetrics) -> Summary {
        Summary {
            energy_j: m.energy_j,
            normalized: m.normalized_energy(),
            spin_cycles: m.spin_cycles(),
            response_mean_s: m.response_mean_s(),
            response_p90_s: m.response_p90_s(),
            response_p99_s: interpolated_quantile(&m.response, 0.99),
            peak_events: m.peak_events as u64,
            peak_in_flight: m.peak_in_flight as u64,
            splitter_high_water: m.splitter_high_water as u64,
            digest: digest(m),
        }
    }

    /// `key value` lines, one per field (floats print round-trip exact).
    pub fn to_lines(&self) -> String {
        format!(
            "energy_j {}\nnormalized {}\nspin_cycles {}\nresponse_mean_s {}\n\
             response_p90_s {}\nresponse_p99_s {}\npeak_events {}\npeak_in_flight {}\n\
             splitter_high_water {}\ndigest {}\n",
            self.energy_j,
            self.normalized,
            self.spin_cycles,
            self.response_mean_s,
            self.response_p90_s,
            self.response_p99_s,
            self.peak_events,
            self.peak_in_flight,
            self.splitter_high_water,
            self.digest
        )
    }

    /// Reads back [`Summary::to_lines`] output.
    pub fn from_fields(f: &crate::child::Fields) -> Result<Summary, String> {
        Ok(Summary {
            energy_j: f.num("energy_j")?,
            normalized: f.num("normalized")?,
            spin_cycles: f.num("spin_cycles")?,
            response_mean_s: f.num("response_mean_s")?,
            response_p90_s: f.num("response_p90_s")?,
            response_p99_s: f.num("response_p99_s")?,
            peak_events: f.num("peak_events")?,
            peak_in_flight: f.num("peak_in_flight")?,
            splitter_high_water: f.num("splitter_high_water")?,
            digest: f.num("digest")?,
        })
    }
}

/// FNV-1a over the `Debug` rendering of `m` with the timing-dependent
/// splitter high-water mark cleared: equal digests mean the same
/// energies, counts, per-disk summaries and response histogram, bit for
/// bit.
pub fn digest(m: &RunMetrics) -> u64 {
    let mut m = m.clone();
    m.splitter_high_water = 0;
    format!("{m:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Bucket growth of `LatencyHistogram::default()`, the geometry of
/// `RunMetrics::response`: bucket `i` spans `[x / GROWTH, x)` with `x`
/// its upper edge.
const GROWTH: f64 = 1.25;

/// The response time below which a fraction `q` of requests fall, read
/// off the histogram's inverse CDF (the paper's Fig. 12 curve) with
/// log-linear interpolation inside the bucket where the tail crosses
/// `1 - q`. Unlike a bucket edge it moves continuously with the workload.
pub fn interpolated_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let tail = 1.0 - q;
    let points = h.inverse_cdf();
    let Some(&(x, mut p0)) = points.first() else {
        return 0.0;
    };
    if p0 <= tail {
        return x;
    }
    for &(x1, p1) in &points[1..] {
        if p1 <= tail {
            // `inverse_cdf` lists non-empty buckets only, so the tail
            // share is still `p0` at this bucket's lower edge.
            let f = (p0 - tail) / (p0 - p1);
            return x1 * GROWTH.powf(f - 1.0);
        }
        p0 = p1;
    }
    h.max()
}

/// Labelled report lines the CLI prints, with the summary value each
/// must show at the report's own precision.
fn expected_report_values(s: &Summary) -> [(&'static str, f64); 5] {
    [
        ("energy", s.energy_j / 1000.0),
        ("vs always-on", s.normalized * 100.0),
        ("spin-up/downs", s.spin_cycles as f64),
        ("response mean", s.response_mean_s * 1000.0),
        ("response p90", s.response_p90_s * 1000.0),
    ]
}

/// Differences between a `spindown-cli simulate` report and the reference
/// run's summary, compared at the precision the report prints; empty
/// when they agree. `reads` is the number of generated read lines.
pub fn report_mismatches(report: &str, s: &Summary, reads: u64) -> Vec<String> {
    let value_of = |label: &str| {
        report.lines().find_map(|line| {
            let (l, v) = line.split_once(':')?;
            (l.trim() == label).then(|| {
                v.split_whitespace()
                    .next()
                    .unwrap_or("")
                    .trim_end_matches('%')
            })
        })
    };
    let mut bad = Vec::new();
    match value_of("workload").map(str::parse::<u64>) {
        Some(Ok(n)) if n == reads => {}
        other => bad.push(format!(
            "workload line shows {other:?} reads, generated {reads}"
        )),
    }
    for (label, want) in expected_report_values(s) {
        match value_of(label) {
            Some(shown) => {
                let decimals = shown.split_once('.').map_or(0, |(_, d)| d.len());
                let want = format!("{want:.decimals$}");
                if shown != want {
                    bad.push(format!(
                        "{label}: report shows {shown}, reference gives {want}"
                    ));
                }
            }
            None => bad.push(format!("{label}: line missing from the report")),
        }
    }
    bad
}

/// Accounting identities every run must satisfy; empty when all hold.
/// `idle_w` is the (uniform) fleet's idle power and `reads` the number
/// of generated read lines.
pub fn identity_failures(m: &RunMetrics, disks: u32, idle_w: f64, reads: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let d = &m.per_disk;
    if d.len() != disks as usize {
        bad.push(format!("{} per-disk summaries for {disks} disks", d.len()));
    }
    let energy: f64 = d.iter().map(|s| s.energy_j).sum();
    if m.energy_j != energy {
        bad.push(format!("energy_j {} != per-disk sum {energy}", m.energy_j));
    }
    let ups: u64 = d.iter().map(|s| s.spinups).sum();
    let downs: u64 = d.iter().map(|s| s.spindowns).sum();
    if (m.spinups, m.spindowns) != (ups, downs) {
        bad.push(format!(
            "spin-ups/downs {}/{} != per-disk sums {ups}/{downs}",
            m.spinups, m.spindowns
        ));
    }
    let served: u64 = d.iter().map(|s| s.requests).sum();
    let counts = [m.requests as u64, served, m.response.count(), reads];
    if counts.iter().any(|&c| c != reads) {
        bad.push(format!(
            "requests {}, per-disk sum {served}, responses {}, generated reads {reads} disagree",
            m.requests,
            m.response.count()
        ));
    }
    for (i, s) in d.iter().enumerate() {
        let total: f64 = s.state_fractions.iter().sum();
        if (total - 1.0).abs() > 1e-12 {
            bad.push(format!("disk {i}: state fractions sum to {total}"));
        }
        if s.spinups.abs_diff(s.spindowns) > 1 {
            bad.push(format!(
                "disk {i}: {} spin-ups vs {} spin-downs",
                s.spinups, s.spindowns
            ));
        }
    }
    let always_on = f64::from(disks) * idle_w * m.horizon_s;
    if (m.always_on_j - always_on).abs() > 1e-12 * always_on.abs() {
        bad.push(format!(
            "always_on_j {} != disks x idle_w x horizon {always_on}",
            m.always_on_j
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindown_core::metrics::DiskSummary;

    /// A consistent two-disk run: 3 reads, 1 J + 2 J, one spin cycle.
    fn run() -> RunMetrics {
        let mut response = LatencyHistogram::default();
        for s in [0.004, 0.006, 0.5] {
            response.record_secs(s);
        }
        let disk = |energy_j, spinups, spindowns, requests| DiskSummary {
            energy_j,
            state_fractions: [0.25, 0.25, 0.25, 0.25, 0.0],
            spinups,
            spindowns,
            requests,
        };
        RunMetrics {
            scheduler: "test".into(),
            requests: 3,
            horizon_s: 10.0,
            energy_j: 3.0,
            always_on_j: 2.0 * 0.5 * 10.0,
            spinups: 1,
            spindowns: 1,
            response,
            per_disk: vec![disk(1.0, 1, 0, 2), disk(2.0, 0, 1, 1)],
            power_timeline: Vec::new(),
            peak_events: 0,
            peak_in_flight: 0,
            splitter_high_water: 0,
        }
    }

    #[test]
    fn a_consistent_run_passes() {
        assert_eq!(identity_failures(&run(), 2, 0.5, 3), Vec::<String>::new());
    }

    #[test]
    fn each_identity_rejects_a_corrupted_value() {
        let corruptions: [fn(&mut RunMetrics); 9] = [
            |m| m.energy_j += 1e-9,
            |m| m.spinups += 1,
            |m| m.spindowns += 1,
            |m| m.requests += 1,
            |m| m.per_disk[0].requests += 1,
            |m| m.response.record_secs(0.1),
            |m| m.per_disk[1].state_fractions[0] += 1e-9,
            |m| {
                m.per_disk[0].spinups += 2;
                m.spinups += 2;
            },
            |m| m.always_on_j *= 1.0 + 1e-9,
        ];
        for (i, corrupt) in corruptions.iter().enumerate() {
            let mut m = run();
            corrupt(&mut m);
            assert!(
                !identity_failures(&m, 2, 0.5, 3).is_empty(),
                "corruption {i} passed"
            );
        }
        assert!(
            !identity_failures(&run(), 2, 0.5, 4).is_empty(),
            "read count"
        );
        assert!(
            !identity_failures(&run(), 3, 0.5, 3).is_empty(),
            "disk count"
        );
    }

    fn report_of(s: &Summary, reads: u64) -> String {
        format!(
            "spindown simulation report\nworkload : {reads} reads over 12 s\n\n\
             energy          : {:.1} kJ\nvs always-on    : {:.1}%\nspin-up/downs   : {}\n\
             response mean   : {:.1} ms\nresponse p90    : {:.1} ms\nresponse max    : 1.0 s\n",
            s.energy_j / 1000.0,
            s.normalized * 100.0,
            s.spin_cycles,
            s.response_mean_s * 1000.0,
            s.response_p90_s * 1000.0
        )
    }

    #[test]
    fn report_check_rejects_each_corrupted_value() {
        let s = Summary::of(&run());
        let report = report_of(&s, 3);
        assert_eq!(report_mismatches(&report, &s, 3), Vec::<String>::new());
        assert!(!report_mismatches(&report, &s, 4).is_empty(), "read count");
        let corruptions: [fn(&mut Summary); 5] = [
            |s| s.energy_j += 100.0,
            |s| s.normalized += 0.01,
            |s| s.spin_cycles += 1,
            |s| s.response_mean_s += 0.001,
            |s| s.response_p90_s *= 2.0,
        ];
        for (i, corrupt) in corruptions.iter().enumerate() {
            let mut bad = s.clone();
            corrupt(&mut bad);
            assert!(
                !report_mismatches(&report, &bad, 3).is_empty(),
                "corruption {i} passed"
            );
        }
        let truncated: String = report.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(
            !report_mismatches(&truncated, &s, 3).is_empty(),
            "missing lines"
        );
    }

    #[test]
    fn digest_ignores_only_the_splitter_high_water() {
        let m = run();
        let mut timing = m.clone();
        timing.splitter_high_water = 7;
        assert_eq!(digest(&m), digest(&timing));
        let mut model = m.clone();
        model.per_disk[1].energy_j = f64::from_bits(model.per_disk[1].energy_j.to_bits() + 1);
        assert_ne!(digest(&m), digest(&model));
    }

    #[test]
    fn default_histogram_buckets_grow_by_growth() {
        for v in [2e-5, 0.004, 0.01, 0.5, 2.0, 15.0] {
            let mut h = LatencyHistogram::default();
            h.record_secs(v);
            let (upper, _) = *h.inverse_cdf().last().unwrap();
            assert!(upper / GROWTH <= v * (1.0 + 1e-12) && v < upper, "{v}");
        }
    }

    #[test]
    fn interpolated_p99_lies_in_the_crossing_bucket() {
        // Empty buckets lie between the 10 ms mass and the 2 s tail.
        let mut h = LatencyHistogram::default();
        for i in 0..1000 {
            h.record_secs(if i < 985 { 0.01 } else { 2.0 });
        }
        let upper = h.quantile(0.99);
        assert!(upper / GROWTH <= 2.0 && 2.0 < upper);
        let p99 = interpolated_quantile(&h, 0.99);
        assert!(p99 >= upper / GROWTH && p99 <= upper, "{p99}");
        // 15 of 1000 lie in the bucket and 10 of them beyond p99: a third
        // of the way up it, on a log scale.
        let want = upper * GROWTH.powf(1.0 / 3.0 - 1.0);
        assert!((p99 / want - 1.0).abs() < 1e-12, "{p99} vs {want}");
        assert_eq!(
            interpolated_quantile(&LatencyHistogram::default(), 0.99),
            0.0
        );
    }
}
