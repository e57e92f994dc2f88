//! The paper's schedulers.
//!
//! | Scheduler | Model | Paper section | Type |
//! |-----------|-------|---------------|------|
//! | [`RandomScheduler`] | online | §4.3 | baseline |
//! | [`StaticScheduler`] | online | §4.3 | baseline |
//! | [`HeuristicScheduler`] | online | §3.3 | energy-aware (Eq. 6 cost) |
//! | [`WscScheduler`] | batch | §3.2 | energy-aware (weighted set cover) |
//! | [`MwisPlanner`] | offline | §3.1 | energy-aware (max-weight independent set) |
//!
//! Online and batch schedulers implement [`Scheduler`] and run inside the
//! event-driven system simulator. The offline planner has a different
//! lifecycle (it sees the whole request stream up front and is evaluated
//! analytically), so it lives behind its own API in [`mwis`].

mod heuristic;
pub mod mwis;
mod random;
mod static_;
mod wsc;

pub use heuristic::HeuristicScheduler;
pub use mwis::{MwisPlanner, MwisSolver, PlanScratch, ReplanStats, WindowedPlanner};
pub use random::RandomScheduler;
pub use static_::StaticScheduler;
pub use wsc::WscScheduler;

use spindown_disk::power::PowerParams;
use spindown_sim::time::{SimDuration, SimTime};

use crate::cost::DiskStatus;
use crate::model::{DataId, DiskId, Request};

/// Where a data item's replicas live. Implemented by
/// [`crate::placement::PlacementMap`] (the experiments) and by
/// [`ExplicitPlacement`] (toy instances, reductions, tests).
pub trait LocationProvider {
    /// All replica locations of `data`, original first. Must be non-empty
    /// and duplicate-free for every data id the request stream touches.
    fn locations(&self, data: DataId) -> &[DiskId];

    /// Number of disks in the system.
    fn disks(&self) -> u32;

    /// Number of data items when the placement is a dense table over
    /// `DataId(0..n)`, or `None` when the data-id universe is unknown.
    /// Island partitioning needs this to walk every replica set.
    fn data_items(&self) -> Option<usize> {
        None
    }
}

impl LocationProvider for crate::placement::PlacementMap {
    fn locations(&self, data: DataId) -> &[DiskId] {
        crate::placement::PlacementMap::locations(self, data)
    }

    fn disks(&self) -> u32 {
        crate::placement::PlacementMap::disks(self)
    }

    fn data_items(&self) -> Option<usize> {
        Some(crate::placement::PlacementMap::n_data(self))
    }
}

/// A placement given as an explicit per-data location table (index =
/// `DataId.0`).
#[derive(Debug, Clone)]
pub struct ExplicitPlacement {
    locations: Vec<Vec<DiskId>>,
    disks: u32,
}

impl ExplicitPlacement {
    /// Builds the placement.
    ///
    /// # Panics
    ///
    /// Panics if any location list is empty or contains a disk `>= disks`.
    pub fn new(locations: Vec<Vec<DiskId>>, disks: u32) -> Self {
        for (i, locs) in locations.iter().enumerate() {
            assert!(!locs.is_empty(), "data {i} has no locations");
            assert!(
                locs.iter().all(|d| d.0 < disks),
                "data {i} references an out-of-range disk"
            );
        }
        ExplicitPlacement { locations, disks }
    }
}

impl LocationProvider for ExplicitPlacement {
    fn locations(&self, data: DataId) -> &[DiskId] {
        &self.locations[data.0 as usize]
    }

    fn disks(&self) -> u32 {
        self.disks
    }

    fn data_items(&self) -> Option<usize> {
        Some(self.locations.len())
    }
}

/// Snapshot of the system the scheduler may consult when deciding.
pub struct SystemView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The power model (for Eq. 5).
    pub params: &'a PowerParams,
    /// Replica locations.
    pub placement: &'a dyn LocationProvider,
    /// Per-disk status, indexed by `DiskId`.
    pub statuses: &'a [DiskStatus],
}

impl<'a> SystemView<'a> {
    /// Status of one disk.
    pub fn status(&self, d: DiskId) -> &DiskStatus {
        &self.statuses[d.index()]
    }

    /// Replica locations of `data`.
    pub fn locations(&self, data: DataId) -> &[DiskId] {
        self.placement.locations(data)
    }
}

/// When the scheduler makes decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Dispatch each request the moment it arrives.
    Online,
    /// Queue arrivals and dispatch them together every interval.
    Batch(SimDuration),
}

/// An online or batch scheduler: maps requests to one of their replica
/// locations.
pub trait Scheduler {
    /// Short name for reports (e.g. `"heuristic"`).
    fn name(&self) -> &'static str;

    /// Decision cadence. Online schedulers receive singleton slices in
    /// [`Scheduler::assign`]; batch schedulers receive everything queued
    /// in the last interval.
    fn mode(&self) -> ScheduleMode {
        ScheduleMode::Online
    }

    /// Chooses a disk for every request in `reqs`. The returned vector is
    /// parallel to `reqs`, and every choice must be one of the request's
    /// replica locations.
    fn assign(&mut self, reqs: &[Request], view: &SystemView<'_>) -> Vec<DiskId>;

    /// Allocation-free form of [`Scheduler::assign`]: writes the choices
    /// into `out` (cleared first). Engines call this on the hot path with
    /// a reused scratch vector, so online dispatch performs no
    /// per-arrival allocation. The default delegates to `assign`;
    /// the shipped schedulers override it and implement `assign` as a
    /// thin wrapper.
    fn assign_into(&mut self, reqs: &[Request], view: &SystemView<'_>, out: &mut Vec<DiskId>) {
        out.clear();
        out.append(&mut self.assign(reqs, view));
    }
}

// Forwarding impls so engines can hold schedulers either borrowed (the
// serial oracle path) or owned per worker thread (the island runner).
impl<T: Scheduler + ?Sized> Scheduler for &mut T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn mode(&self) -> ScheduleMode {
        (**self).mode()
    }

    fn assign(&mut self, reqs: &[Request], view: &SystemView<'_>) -> Vec<DiskId> {
        (**self).assign(reqs, view)
    }

    fn assign_into(&mut self, reqs: &[Request], view: &SystemView<'_>, out: &mut Vec<DiskId>) {
        (**self).assign_into(reqs, view, out)
    }
}

impl<T: Scheduler + ?Sized> Scheduler for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn mode(&self) -> ScheduleMode {
        (**self).mode()
    }

    fn assign(&mut self, reqs: &[Request], view: &SystemView<'_>) -> Vec<DiskId> {
        (**self).assign(reqs, view)
    }

    fn assign_into(&mut self, reqs: &[Request], view: &SystemView<'_>, out: &mut Vec<DiskId>) {
        (**self).assign_into(reqs, view, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_placement_lookups() {
        let p = ExplicitPlacement::new(vec![vec![DiskId(0)], vec![DiskId(1), DiskId(2)]], 3);
        assert_eq!(p.locations(DataId(0)), &[DiskId(0)]);
        assert_eq!(p.locations(DataId(1)).len(), 2);
        assert_eq!(p.disks(), 3);
    }

    #[test]
    #[should_panic(expected = "no locations")]
    fn explicit_placement_rejects_empty() {
        ExplicitPlacement::new(vec![vec![]], 1);
    }

    #[test]
    #[should_panic(expected = "out-of-range disk")]
    fn explicit_placement_rejects_out_of_range() {
        ExplicitPlacement::new(vec![vec![DiskId(5)]], 2);
    }
}
