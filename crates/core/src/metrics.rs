//! Run metrics: everything the paper's evaluation section plots, plus the
//! exact merge operations that reassemble per-island partial metrics into
//! one global [`RunMetrics`] (see DESIGN.md §13).

use spindown_disk::state::DiskPowerState;
use spindown_sim::stats::LatencyHistogram;

use crate::model::DiskId;

/// Per-disk summary (one bar of the paper's Fig. 9/17).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskSummary {
    /// Total energy consumed by the disk, joules.
    pub energy_j: f64,
    /// Fraction of the horizon spent in each power state, indexed by
    /// [`DiskPowerState::index`].
    pub state_fractions: [f64; DiskPowerState::COUNT],
    /// Spin-up transitions.
    pub spinups: u64,
    /// Spin-down transitions.
    pub spindowns: u64,
    /// Requests serviced.
    pub requests: u64,
}

impl DiskSummary {
    /// Fraction of time in standby — the sort key of Fig. 9.
    pub fn standby_fraction(&self) -> f64 {
        self.state_fractions[DiskPowerState::Standby.index()]
    }
}

/// Complete results of one simulation run.
///
/// `PartialEq` lets differential tests assert the streaming and
/// materialized pipelines produce bit-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Scheduler name.
    pub scheduler: String,
    /// Requests completed.
    pub requests: usize,
    /// Measurement horizon, seconds.
    pub horizon_s: f64,
    /// Total energy across all disks, joules.
    pub energy_j: f64,
    /// Energy an always-on configuration would consume over the same
    /// horizon (all disks idle throughout), joules — the Fig. 6/14
    /// normalization baseline.
    pub always_on_j: f64,
    /// Total spin-up transitions (all disks).
    pub spinups: u64,
    /// Total spin-down transitions (all disks).
    pub spindowns: u64,
    /// Response-time distribution (arrival → completion).
    pub response: LatencyHistogram,
    /// Per-disk summaries, indexed by disk id.
    pub per_disk: Vec<DiskSummary>,
    /// Optional sampled total-power timeline `(t_seconds, watts)` —
    /// populated when the system config enables sampling.
    pub power_timeline: Vec<(f64, f64)>,
    /// Peak number of events resident in the simulator's event queue.
    /// Under streamed ingestion this is bounded by in-flight disk work,
    /// not trace length — the metric that proves constant-memory replay.
    ///
    /// Under island-parallel replay each island has its own queue, so the
    /// merged value is the **maximum across islands** (the largest single
    /// queue), not a sum — it remains the per-loop memory bound.
    pub peak_events: usize,
    /// Peak number of requests buffered by the pipeline at once (batch
    /// buffer plus dispatched-but-uncompleted accounting).
    ///
    /// Like [`RunMetrics::peak_events`], merged across islands as a
    /// **per-island maximum**, not a sum.
    pub peak_in_flight: usize,
    /// Largest per-island lookahead buffer the stream splitter needed
    /// while routing arrivals to island event loops (0 for serial runs).
    /// An operational diagnostic: it depends on thread timing and is
    /// excluded from determinism comparisons.
    pub splitter_high_water: usize,
}

impl RunMetrics {
    /// Energy normalized to the always-on configuration (Fig. 6).
    pub fn normalized_energy(&self) -> f64 {
        if self.always_on_j <= 0.0 {
            0.0
        } else {
            self.energy_j / self.always_on_j
        }
    }

    /// Combined spin transitions — the Fig. 7/15 metric.
    pub fn spin_cycles(&self) -> u64 {
        self.spinups + self.spindowns
    }

    /// Mean response time, seconds (Fig. 8/16).
    pub fn response_mean_s(&self) -> f64 {
        self.response.mean()
    }

    /// 90th-percentile response time, seconds (Fig. 13).
    pub fn response_p90_s(&self) -> f64 {
        self.response.quantile(0.90)
    }

    /// Per-disk state fractions sorted by ascending standby time — the
    /// x-axis ordering of Fig. 9/17.
    pub fn fractions_sorted_by_standby(&self) -> Vec<[f64; DiskPowerState::COUNT]> {
        let mut rows: Vec<[f64; DiskPowerState::COUNT]> =
            self.per_disk.iter().map(|d| d.state_fractions).collect();
        rows.sort_by(|a, b| {
            a[DiskPowerState::Standby.index()]
                .partial_cmp(&b[DiskPowerState::Standby.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    /// Mean standby fraction across disks.
    pub fn mean_standby_fraction(&self) -> f64 {
        if self.per_disk.is_empty() {
            return 0.0;
        }
        self.per_disk
            .iter()
            .map(DiskSummary::standby_fraction)
            .sum::<f64>()
            / self.per_disk.len() as f64
    }

    /// Folds another run's metrics into this one, treating the two as
    /// disjoint shards of one system:
    ///
    /// * counters (`requests`, `spinups`, `spindowns`) and energies sum;
    /// * `horizon_s` takes the maximum (shards of one run share a horizon);
    /// * `response` histograms merge exactly (integer buckets);
    /// * `per_disk` concatenates in call order;
    /// * `power_timeline` merges **by sample index**: watts at the same
    ///   index sum, and the longer timeline's tail is kept as-is;
    /// * `peak_events` / `peak_in_flight` / `splitter_high_water` take the
    ///   maximum — peaks of independent loops never add.
    ///
    /// This is the general documented fold. The island runner itself uses
    /// [`merge_islands`], which additionally reassembles `per_disk` in
    /// global disk order and re-derives the summed fields from it so the
    /// float addition order matches the serial engine exactly.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.requests += other.requests;
        self.horizon_s = self.horizon_s.max(other.horizon_s);
        self.energy_j += other.energy_j;
        self.always_on_j += other.always_on_j;
        self.spinups += other.spinups;
        self.spindowns += other.spindowns;
        self.response.merge(&other.response);
        self.per_disk.extend(other.per_disk.iter().cloned());
        for (i, &(t, w)) in other.power_timeline.iter().enumerate() {
            if i < self.power_timeline.len() {
                self.power_timeline[i].1 += w;
            } else {
                self.power_timeline.push((t, w));
            }
        }
        self.peak_events = self.peak_events.max(other.peak_events);
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
        self.splitter_high_water = self.splitter_high_water.max(other.splitter_high_water);
    }
}

/// Partial metrics of one finished island, ready for exact reassembly by
/// [`merge_islands`]. Produced by the island engine's finalization at the
/// *global* horizon, so every float here is already measured over the same
/// span the serial engine would use.
#[derive(Debug, Clone)]
pub struct IslandPart {
    /// Global ids of the island's disks, ascending.
    pub disk_ids: Vec<DiskId>,
    /// Summaries parallel to `disk_ids`.
    pub per_disk: Vec<DiskSummary>,
    /// The island's response histogram.
    pub response: LatencyHistogram,
    /// Arrivals routed to this island.
    pub requests: usize,
    /// Sample instants of the island's power-sampling chain, seconds.
    pub sample_times: Vec<f64>,
    /// Per-sample per-disk watt rows, flattened
    /// (`sample_times.len() × disk_ids.len()`, row-major).
    pub power_rows: Vec<f64>,
    /// Each disk's power draw after the island drained, parallel to
    /// `disk_ids`. Disk states freeze once an island's queue empties
    /// (transitions only happen via scheduled events), so this value
    /// stands in for every later global sample.
    pub drained_watts: Vec<f64>,
    /// Island-local event-queue high-water mark.
    pub peak_events: usize,
    /// Island-local in-flight high-water mark.
    pub peak_in_flight: usize,
}

/// Reassembles per-island partial metrics into the global [`RunMetrics`],
/// **exactly** reproducing the serial engine's floats:
///
/// * `per_disk` scatters each island's summaries back to global disk
///   order; `energy_j`/`spinups`/`spindowns` are then re-derived by
///   summing in that order — the identical float addition sequence the
///   serial engine performs;
/// * `power_timeline` merges by sample index: sample `k`'s total is the
///   global-disk-order sum of each disk's watts, taken from its island's
///   row `k` when the island was still sampling and from its frozen
///   drained watts afterwards (sample grids are identical integer-µs
///   lattices, so timestamps agree exactly);
/// * `response` histograms fold exactly (integer counters + float max);
/// * peaks take per-island maxima.
///
/// # Panics
///
/// Panics if the islands' disk ids don't cover `0..disks` exactly once.
pub fn merge_islands(
    scheduler: String,
    disks: u32,
    horizon_s: f64,
    always_on_j: f64,
    parts: Vec<IslandPart>,
    splitter_high_water: usize,
) -> RunMetrics {
    let n = disks as usize;
    let mut per_disk: Vec<Option<DiskSummary>> = vec![None; n];
    let mut response = LatencyHistogram::default();
    let mut requests = 0usize;
    let mut peak_events = 0usize;
    let mut peak_in_flight = 0usize;
    for part in &parts {
        assert_eq!(
            part.disk_ids.len(),
            part.per_disk.len(),
            "island summaries must be parallel to its disk ids"
        );
        for (id, summary) in part.disk_ids.iter().zip(&part.per_disk) {
            let slot = &mut per_disk[id.index()];
            assert!(slot.is_none(), "disk {id} claimed by two islands");
            *slot = Some(summary.clone());
        }
        response.merge(&part.response);
        requests += part.requests;
        peak_events = peak_events.max(part.peak_events);
        peak_in_flight = peak_in_flight.max(part.peak_in_flight);
    }
    let per_disk: Vec<DiskSummary> = per_disk
        .into_iter()
        .enumerate()
        .map(|(d, s)| s.unwrap_or_else(|| panic!("disk {d} not covered by any island")))
        .collect();

    // Sample grids are identical `k × interval` lattices; islands only
    // differ in how long their chains stayed alive. Per global sample,
    // read each disk's watts from its island's row (or its frozen
    // drained value) and sum in global disk order.
    let samples = parts
        .iter()
        .map(|p| p.sample_times.len())
        .max()
        .unwrap_or(0);
    let mut power_timeline = Vec::with_capacity(samples);
    if samples > 0 {
        let mut watts = vec![0.0f64; n];
        for k in 0..samples {
            let mut t = None;
            for part in &parts {
                let width = part.disk_ids.len();
                let row = if k < part.sample_times.len() {
                    t.get_or_insert(part.sample_times[k]);
                    Some(&part.power_rows[k * width..(k + 1) * width])
                } else {
                    None
                };
                for (l, id) in part.disk_ids.iter().enumerate() {
                    watts[id.index()] = match row {
                        Some(r) => r[l],
                        None => part.drained_watts[l],
                    };
                }
            }
            let total: f64 = watts.iter().sum();
            power_timeline.push((t.expect("some island sampled index k"), total));
        }
    }

    RunMetrics {
        scheduler,
        requests,
        horizon_s,
        energy_j: per_disk.iter().map(|d| d.energy_j).sum(),
        always_on_j,
        spinups: per_disk.iter().map(|d| d.spinups).sum(),
        spindowns: per_disk.iter().map(|d| d.spindowns).sum(),
        response,
        per_disk,
        power_timeline,
        peak_events,
        peak_in_flight,
        splitter_high_water,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(standby: f64, energy: f64) -> DiskSummary {
        let mut fractions = [0.0; DiskPowerState::COUNT];
        fractions[DiskPowerState::Standby.index()] = standby;
        fractions[DiskPowerState::Idle.index()] = 1.0 - standby;
        DiskSummary {
            energy_j: energy,
            state_fractions: fractions,
            spinups: 1,
            spindowns: 1,
            requests: 10,
        }
    }

    fn metrics() -> RunMetrics {
        RunMetrics {
            scheduler: "test".into(),
            requests: 30,
            horizon_s: 100.0,
            energy_j: 500.0,
            always_on_j: 1000.0,
            spinups: 3,
            spindowns: 2,
            response: LatencyHistogram::default(),
            per_disk: vec![
                summary(0.9, 100.0),
                summary(0.1, 300.0),
                summary(0.5, 100.0),
            ],
            power_timeline: Vec::new(),
            peak_events: 0,
            peak_in_flight: 0,
            splitter_high_water: 0,
        }
    }

    #[test]
    fn normalized_energy() {
        let m = metrics();
        assert!((m.normalized_energy() - 0.5).abs() < 1e-12);
        let mut z = metrics();
        z.always_on_j = 0.0;
        assert_eq!(z.normalized_energy(), 0.0);
    }

    #[test]
    fn spin_cycles_sum() {
        assert_eq!(metrics().spin_cycles(), 5);
    }

    #[test]
    fn standby_sort_ascending() {
        let rows = metrics().fractions_sorted_by_standby();
        let sb = DiskPowerState::Standby.index();
        assert!((rows[0][sb] - 0.1).abs() < 1e-12);
        assert!((rows[2][sb] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mean_standby() {
        let m = metrics();
        assert!((m.mean_standby_fraction() - 0.5).abs() < 1e-12);
        let empty = RunMetrics {
            per_disk: vec![],
            ..metrics()
        };
        assert_eq!(empty.mean_standby_fraction(), 0.0);
    }

    #[test]
    fn response_accessors() {
        let mut m = metrics();
        m.response.record_secs(0.01);
        m.response.record_secs(0.01);
        m.response.record_secs(10.0);
        assert!(m.response_mean_s() > 3.0);
        assert!(m.response_p90_s() >= 9.0);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = metrics();
        a.peak_events = 7;
        a.peak_in_flight = 2;
        a.splitter_high_water = 3;
        a.power_timeline = vec![(0.0, 10.0), (5.0, 12.0), (10.0, 8.0)];
        let mut b = metrics();
        b.requests = 12;
        b.spinups = 10;
        b.spindowns = 20;
        b.peak_events = 4;
        b.peak_in_flight = 9;
        b.power_timeline = vec![(0.0, 1.0), (5.0, 2.0)];
        a.merge(&b);
        assert_eq!(a.requests, 42);
        assert_eq!(a.spinups, 13);
        assert_eq!(a.spindowns, 22);
        assert_eq!(a.energy_j, 1000.0);
        assert_eq!(a.always_on_j, 2000.0);
        assert_eq!(a.per_disk.len(), 6);
        // Peaks are per-island maxima, never sums.
        assert_eq!(a.peak_events, 7);
        assert_eq!(a.peak_in_flight, 9);
        assert_eq!(a.splitter_high_water, 3);
        // Timeline merged by sample index; unmatched tail preserved.
        assert_eq!(
            a.power_timeline,
            vec![(0.0, 11.0), (5.0, 14.0), (10.0, 8.0)]
        );
    }

    #[test]
    fn merge_with_empty_side_is_identity_up_to_disks() {
        let mut a = metrics();
        a.response.record_secs(0.02);
        let reference = a.clone();
        let empty = RunMetrics {
            scheduler: "test".into(),
            requests: 0,
            horizon_s: 0.0,
            energy_j: 0.0,
            always_on_j: 0.0,
            spinups: 0,
            spindowns: 0,
            response: LatencyHistogram::default(),
            per_disk: Vec::new(),
            power_timeline: Vec::new(),
            peak_events: 0,
            peak_in_flight: 0,
            splitter_high_water: 0,
        };
        a.merge(&empty);
        assert_eq!(a, reference);
        let mut e = empty.clone();
        e.merge(&reference);
        assert_eq!(e.requests, reference.requests);
        assert_eq!(e.energy_j, reference.energy_j);
        assert_eq!(e.response, reference.response);
        assert_eq!(e.power_timeline, reference.power_timeline);
        assert_eq!(e.per_disk, reference.per_disk);
    }

    #[test]
    fn merge_histogram_buckets_align_exactly() {
        // Recording split across two runs and merging must land every
        // observation in the same bucket as recording serially.
        let mut serial = metrics();
        let mut left = metrics();
        let mut right = metrics();
        right.per_disk.clear();
        let values = [1e-5, 3e-4, 0.002, 0.002, 1.0, 14.9];
        for (i, &v) in values.iter().enumerate() {
            serial.response.record_secs(v);
            if i % 2 == 0 {
                left.response.record_secs(v);
            } else {
                right.response.record_secs(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.response, serial.response);
    }

    fn part(ids: &[u32], energy: f64) -> IslandPart {
        IslandPart {
            disk_ids: ids.iter().copied().map(DiskId).collect(),
            per_disk: ids.iter().map(|_| summary(0.5, energy)).collect(),
            response: LatencyHistogram::default(),
            requests: ids.len(),
            sample_times: Vec::new(),
            power_rows: Vec::new(),
            drained_watts: vec![1.0; ids.len()],
            peak_events: ids.len(),
            peak_in_flight: 1,
        }
    }

    #[test]
    fn merge_islands_reassembles_global_disk_order() {
        // Islands {1,3} and {0,2}, presented out of global order.
        let mut p0 = part(&[1, 3], 10.0);
        p0.response.record_secs(0.5);
        let p1 = part(&[0, 2], 20.0);
        let m = merge_islands("x".into(), 4, 100.0, 400.0, vec![p0, p1], 5);
        assert_eq!(m.per_disk.len(), 4);
        assert_eq!(m.per_disk[0].energy_j, 20.0);
        assert_eq!(m.per_disk[1].energy_j, 10.0);
        assert_eq!(m.per_disk[2].energy_j, 20.0);
        assert_eq!(m.per_disk[3].energy_j, 10.0);
        assert_eq!(m.energy_j, 60.0);
        assert_eq!(m.requests, 4);
        assert_eq!(m.response.count(), 1);
        assert_eq!(m.peak_events, 2);
        assert_eq!(m.peak_in_flight, 1);
        assert_eq!(m.splitter_high_water, 5);
        assert_eq!(m.spinups, 4);
    }

    #[test]
    fn merge_islands_timeline_uses_drained_watts_for_short_chains() {
        // Island A sampled 3 times, island B only once: samples 1 and 2
        // must fall back to B's frozen drained watts.
        let mut a = part(&[0], 1.0);
        a.sample_times = vec![0.0, 5.0, 10.0];
        a.power_rows = vec![4.0, 5.0, 6.0];
        a.drained_watts = vec![0.5];
        let mut b = part(&[1], 1.0);
        b.sample_times = vec![0.0];
        b.power_rows = vec![9.0];
        b.drained_watts = vec![2.0];
        let m = merge_islands("x".into(), 2, 10.0, 20.0, vec![a, b], 0);
        assert_eq!(
            m.power_timeline,
            vec![(0.0, 4.0 + 9.0), (5.0, 5.0 + 2.0), (10.0, 6.0 + 2.0)]
        );
    }

    #[test]
    #[should_panic(expected = "claimed by two islands")]
    fn merge_islands_rejects_overlap() {
        merge_islands(
            "x".into(),
            2,
            1.0,
            1.0,
            vec![part(&[0], 1.0), part(&[0, 1], 1.0)],
            0,
        );
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn merge_islands_rejects_gaps() {
        merge_islands("x".into(), 3, 1.0, 1.0, vec![part(&[0, 2], 1.0)], 0);
    }
}
