//! Data-placement manager (paper §2.1, §4.2).
//!
//! The scheduler never moves data; it only exploits where the placement
//! manager already put it. The paper's experimental placement is:
//!
//! * the **original** copy of each data item lands on a disk drawn from a
//!   Zipf(`z`) distribution over disks (`z = 1` in the main experiments,
//!   swept over `[0, 1]` in Fig. 10) — modelling observed hot/cold disk
//!   skew;
//! * the **replica** copies land on distinct disks drawn uniformly —
//!   modelling fault-tolerance-oriented replica spreading.

use spindown_sim::rng::{SimRng, Zipf};

use crate::model::{DataId, DiskId};

/// Configuration of the experimental placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementConfig {
    /// Number of disks in the system (the paper uses 180).
    pub disks: u32,
    /// Replication factor: total copies per data item, original included
    /// (the paper sweeps 1–5).
    pub replication: u32,
    /// Zipf exponent of the original-copy distribution over disks
    /// (`z = 0` uniform … `z = 1` classic Zipf).
    pub zipf_z: f64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            disks: 180,
            replication: 3,
            zipf_z: 1.0,
        }
    }
}

/// Immutable map from data item to its replica locations.
///
/// `locations(data)[0]` is the original copy (the target of the `Static`
/// scheduler); the rest are replicas. All locations of one item are
/// distinct disks.
///
/// # Examples
///
/// ```
/// use spindown_core::placement::{PlacementConfig, PlacementMap};
/// use spindown_core::model::DataId;
///
/// let map = PlacementMap::build(100, &PlacementConfig { disks: 10, replication: 3, zipf_z: 1.0 }, 42);
/// let locs = map.locations(DataId(5));
/// assert_eq!(locs.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PlacementMap {
    replication: u32,
    disks: u32,
    /// Flat `n_data × replication` matrix of disk ids.
    table: Vec<DiskId>,
}

impl PlacementMap {
    /// Builds the placement for `n_data` dense data ids (`0..n_data`).
    ///
    /// Deterministic in `seed`. The Zipf rank→disk assignment is itself a
    /// random permutation so "hot" disks are not always the low ids.
    ///
    /// # Panics
    ///
    /// Panics if `disks == 0`, `replication == 0`, or `zipf_z` is
    /// negative/non-finite. A replication factor larger than the disk
    /// count is clamped to the disk count.
    pub fn build(n_data: usize, config: &PlacementConfig, seed: u64) -> Self {
        assert!(config.disks > 0, "need at least one disk");
        assert!(config.replication > 0, "replication factor must be >= 1");
        let replication = config.replication.min(config.disks);
        // Originals and replicas draw from *independent* streams so the
        // original locations are identical for every replication factor —
        // the paper relies on this ("the results of Static remain the
        // same" across the rf sweep, §5.2).
        let mut root = SimRng::seed_from_u64(seed ^ 0x9_1ACE);
        let mut orig_rng = root.fork(0);
        let mut repl_rng = root.fork(1);
        let zipf = Zipf::new(config.disks as usize, config.zipf_z).expect("valid zipf parameters");
        // Rank → disk permutation.
        let mut rank_to_disk: Vec<u32> = (0..config.disks).collect();
        orig_rng.shuffle(&mut rank_to_disk);

        let mut table = Vec::with_capacity(n_data * replication as usize);
        for _ in 0..n_data {
            let original = rank_to_disk[zipf.sample(&mut orig_rng) - 1];
            table.push(DiskId(original));
            // Replicas: uniform over the remaining disks, distinct.
            let mut chosen = vec![original];
            for _ in 1..replication {
                loop {
                    let d = repl_rng.next_below(config.disks as u64) as u32;
                    if !chosen.contains(&d) {
                        chosen.push(d);
                        table.push(DiskId(d));
                        break;
                    }
                }
            }
        }
        PlacementMap {
            replication,
            disks: config.disks,
            table,
        }
    }

    /// Number of copies per data item.
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// Number of disks in the system.
    pub fn disks(&self) -> u32 {
        self.disks
    }

    /// Number of data items mapped.
    pub fn n_data(&self) -> usize {
        self.table.len() / self.replication as usize
    }

    /// All copies of `data` (original first).
    ///
    /// # Panics
    ///
    /// Panics if `data` is out of range.
    pub fn locations(&self, data: DataId) -> &[DiskId] {
        let r = self.replication as usize;
        let start = data.0 as usize * r;
        &self.table[start..start + r]
    }

    /// The original copy's disk.
    pub fn original(&self, data: DataId) -> DiskId {
        self.locations(data)[0]
    }

    /// Per-disk count of original copies — used by tests to verify the
    /// Zipf skew and by the trace explorer example.
    pub fn original_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.disks as usize];
        let r = self.replication as usize;
        for chunk in self.table.chunks(r) {
            h[chunk[0].index()] += 1;
        }
        h
    }
}

/// Partition of the disk fleet into **islands**: connected components of
/// the replica-sharing relation. Two disks are in the same island iff some
/// data item has copies on both (transitively). Requests for one data item
/// only ever touch disks of one island, so per-island event loops are
/// fully independent — the foundation of island-parallel replay.
///
/// Islands are numbered canonically by their smallest member disk id, and
/// each island lists its disks in ascending global order, so the partition
/// (and everything derived from it) is independent of traversal order.
#[derive(Debug, Clone)]
pub struct IslandPartition {
    /// Global disk id → island id.
    disk_island: Vec<u32>,
    /// Global disk id → index of the disk within its island's disk list.
    disk_local: Vec<u32>,
    /// CSR offsets into `island_disks`, length `n_islands + 1`.
    island_offsets: Vec<usize>,
    /// Global disk ids grouped by island, ascending within each island.
    island_disks: Vec<DiskId>,
    /// Data id → island id (`None` when the data universe is unknown).
    data_island: DataIslandTable,
}

/// Data → island routing table. Both the stream splitter and the inline
/// island loop hit this once per record with data-uniform (i.e. cache
/// hostile) indices, so the entries are stored at the narrowest width
/// that fits the island count — island ids are bounded by disk count,
/// so `u16` covers every realistic fleet and halves the footprint those
/// per-record misses walk.
#[derive(Debug, Clone)]
enum DataIslandTable {
    /// Data universe unknown: every data id routes to island 0.
    Unknown,
    /// Island ids fit in `u16` (the practical case).
    Narrow(Vec<u16>),
    /// Degenerate fleets with more than 65536 islands.
    Wide(Vec<u32>),
}

impl IslandPartition {
    /// Derives the partition from a placement by unioning every data
    /// item's replica set. Falls back to [`IslandPartition::single_island`]
    /// when the provider cannot enumerate its data items
    /// ([`LocationProvider::data_items`] is `None`).
    pub fn from_provider(provider: &(dyn crate::sched::LocationProvider + '_)) -> Self {
        let disks = provider.disks();
        let Some(n_data) = provider.data_items() else {
            return Self::single_island(disks);
        };
        let n = disks as usize;
        // Union-find with path halving; union by smaller root id so the
        // representative is always the component's minimum disk.
        let mut parent: Vec<u32> = (0..disks).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        // One provider round-trip per data item: remember each item's
        // first replica so the canonicalization pass below can map it to
        // an island without a second `locations` call.
        let mut first_loc = vec![0u32; n_data];
        for (d, first_slot) in first_loc.iter_mut().enumerate() {
            let locs = provider.locations(DataId(d as u64));
            let first = locs[0].0;
            *first_slot = first;
            let mut a = find(&mut parent, first);
            for &l in &locs[1..] {
                let b = find(&mut parent, l.0);
                if a != b {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    parent[hi as usize] = lo;
                    a = lo;
                }
            }
        }
        // Canonical island ids: scan disks in ascending order; a disk that
        // is its own root opens the next island. Roots are component
        // minima, so island order == order of smallest member.
        let mut disk_island = vec![u32::MAX; n];
        let mut n_islands = 0u32;
        for d in 0..disks {
            let root = find(&mut parent, d);
            if root == d {
                disk_island[d as usize] = n_islands;
                n_islands += 1;
            } else {
                disk_island[d as usize] = disk_island[root as usize];
            }
        }
        // CSR of member disks per island (counting pass → exact offsets →
        // ordered scatter keeps members ascending).
        let mut counts = vec![0usize; n_islands as usize];
        for &i in &disk_island {
            counts[i as usize] += 1;
        }
        let mut island_offsets = Vec::with_capacity(n_islands as usize + 1);
        let mut acc = 0usize;
        island_offsets.push(0);
        for &c in &counts {
            acc += c;
            island_offsets.push(acc);
        }
        let mut cursor = island_offsets.clone();
        let mut island_disks = vec![DiskId(0); n];
        let mut disk_local = vec![0u32; n];
        for d in 0..disks {
            let island = disk_island[d as usize] as usize;
            let slot = cursor[island];
            cursor[island] += 1;
            island_disks[slot] = DiskId(d);
            disk_local[d as usize] = (slot - island_offsets[island]) as u32;
        }
        let data_island = if n_islands <= u16::MAX as u32 + 1 {
            DataIslandTable::Narrow(
                first_loc
                    .iter()
                    .map(|&first| disk_island[first as usize] as u16)
                    .collect(),
            )
        } else {
            DataIslandTable::Wide(
                first_loc
                    .iter()
                    .map(|&first| disk_island[first as usize])
                    .collect(),
            )
        };
        IslandPartition {
            disk_island,
            disk_local,
            island_offsets,
            island_disks,
            data_island,
        }
    }

    /// The degenerate partition: every disk in one island. Used when the
    /// data universe is unknown, and by the serial reference replay
    /// ([`crate::system::run_system_streamed`]), which runs one engine
    /// over every disk.
    pub fn single_island(disks: u32) -> Self {
        let n = disks as usize;
        IslandPartition {
            disk_island: vec![0; n],
            disk_local: (0..disks).collect(),
            island_offsets: vec![0, n],
            island_disks: (0..disks).map(DiskId).collect(),
            data_island: DataIslandTable::Unknown,
        }
    }

    /// Number of islands.
    pub fn n_islands(&self) -> usize {
        self.island_offsets.len() - 1
    }

    /// `true` when the partition is one island (parallel replay degrades
    /// to the serial engine).
    pub fn is_single(&self) -> bool {
        self.n_islands() == 1
    }

    /// Global disk ids of island `i`, ascending.
    pub fn island_disks(&self, i: usize) -> &[DiskId] {
        &self.island_disks[self.island_offsets[i]..self.island_offsets[i + 1]]
    }

    /// Island of a disk.
    pub fn disk_island(&self, d: DiskId) -> usize {
        self.disk_island[d.index()] as usize
    }

    /// Index of `d` within [`IslandPartition::island_disks`] of its island.
    pub fn disk_local(&self, d: DiskId) -> usize {
        self.disk_local[d.index()] as usize
    }

    /// Island of a data item. For the single-island fallback every data id
    /// maps to island 0.
    pub fn data_island(&self, data: DataId) -> usize {
        match &self.data_island {
            DataIslandTable::Unknown => 0,
            DataIslandTable::Narrow(t) => t[data.0 as usize] as usize,
            DataIslandTable::Wide(t) => t[data.0 as usize] as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(disks: u32, replication: u32, z: f64) -> PlacementConfig {
        PlacementConfig {
            disks,
            replication,
            zipf_z: z,
        }
    }

    #[test]
    fn locations_are_distinct_and_in_range() {
        let map = PlacementMap::build(500, &cfg(20, 4, 1.0), 1);
        for d in 0..500 {
            let locs = map.locations(DataId(d));
            assert_eq!(locs.len(), 4);
            let mut seen = locs.to_vec();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 4, "duplicate replica for data {d}");
            assert!(locs.iter().all(|l| l.0 < 20));
        }
    }

    #[test]
    fn replication_one_has_single_copy() {
        let map = PlacementMap::build(100, &cfg(10, 1, 1.0), 2);
        assert_eq!(map.replication(), 1);
        for d in 0..100 {
            assert_eq!(map.locations(DataId(d)).len(), 1);
            assert_eq!(map.original(DataId(d)), map.locations(DataId(d))[0]);
        }
    }

    #[test]
    fn replication_clamped_to_disk_count() {
        let map = PlacementMap::build(10, &cfg(3, 10, 0.0), 3);
        assert_eq!(map.replication(), 3);
    }

    #[test]
    fn zipf_originals_are_skewed_uniform_is_not() {
        let skewed = PlacementMap::build(20_000, &cfg(100, 1, 1.0), 7);
        let uniform = PlacementMap::build(20_000, &cfg(100, 1, 0.0), 7);
        let top = |h: &[usize]| *h.iter().max().unwrap() as f64;
        let hs = skewed.original_histogram();
        let hu = uniform.original_histogram();
        // Zipf z=1 over 100 disks: hottest ~1/H_100 ≈ 19%; uniform: 1%.
        assert!(top(&hs) > 20_000.0 * 0.10, "skewed max {}", top(&hs));
        assert!(top(&hu) < 20_000.0 * 0.03, "uniform max {}", top(&hu));
        assert_eq!(hs.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn originals_invariant_to_replication_factor() {
        // The paper's Static scheduler must see the same original
        // placement at every rf (its Fig. 6 line is flat by construction).
        let rf1 = PlacementMap::build(500, &cfg(20, 1, 1.0), 9);
        let rf5 = PlacementMap::build(500, &cfg(20, 5, 1.0), 9);
        for d in 0..500 {
            assert_eq!(rf1.original(DataId(d)), rf5.original(DataId(d)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PlacementMap::build(200, &cfg(16, 3, 1.0), 11);
        let b = PlacementMap::build(200, &cfg(16, 3, 1.0), 11);
        let c = PlacementMap::build(200, &cfg(16, 3, 1.0), 12);
        assert_eq!(a.table, b.table);
        assert_ne!(a.table, c.table);
    }

    #[test]
    fn n_data_reported() {
        let map = PlacementMap::build(123, &cfg(8, 2, 0.5), 0);
        assert_eq!(map.n_data(), 123);
        assert_eq!(map.disks(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        PlacementMap::build(1, &cfg(0, 1, 1.0), 0);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_rejected() {
        PlacementMap::build(1, &cfg(5, 0, 1.0), 0);
    }

    #[test]
    fn islands_from_explicit_groups() {
        use crate::sched::ExplicitPlacement;
        // Disks {0,2} share data 0, {1,3} share data 1, disk 4 is isolated.
        let p = ExplicitPlacement::new(
            vec![
                vec![DiskId(2), DiskId(0)],
                vec![DiskId(1), DiskId(3)],
                vec![DiskId(0)],
            ],
            5,
        );
        let part = IslandPartition::from_provider(&p);
        assert_eq!(part.n_islands(), 3);
        assert!(!part.is_single());
        assert_eq!(part.island_disks(0), &[DiskId(0), DiskId(2)]);
        assert_eq!(part.island_disks(1), &[DiskId(1), DiskId(3)]);
        assert_eq!(part.island_disks(2), &[DiskId(4)]);
        assert_eq!(part.disk_island(DiskId(2)), 0);
        assert_eq!(part.disk_local(DiskId(2)), 1);
        assert_eq!(part.disk_local(DiskId(3)), 1);
        assert_eq!(part.data_island(DataId(0)), 0);
        assert_eq!(part.data_island(DataId(1)), 1);
        assert_eq!(part.data_island(DataId(2)), 0);
    }

    #[test]
    fn islands_transitive_chain_collapses_to_one() {
        use crate::sched::ExplicitPlacement;
        // data i on {i, i+1}: a chain connecting all disks into one island.
        let locs: Vec<Vec<DiskId>> = (0..9).map(|i| vec![DiskId(i), DiskId(i + 1)]).collect();
        let p = ExplicitPlacement::new(locs, 10);
        let part = IslandPartition::from_provider(&p);
        assert!(part.is_single());
        assert_eq!(part.island_disks(0).len(), 10);
        for d in 0..10 {
            assert_eq!(part.disk_island(DiskId(d)), 0);
            assert_eq!(part.disk_local(DiskId(d)), d as usize);
        }
    }

    #[test]
    fn islands_replication_one_is_per_disk() {
        let map = PlacementMap::build(400, &cfg(16, 1, 1.0), 3);
        let part = IslandPartition::from_provider(&map);
        // Unreplicated data never connects disks: 16 singleton islands.
        assert_eq!(part.n_islands(), 16);
        for d in 0..16 {
            assert_eq!(part.island_disks(d as usize), &[DiskId(d)]);
            assert_eq!(part.disk_local(DiskId(d)), 0);
        }
        for i in 0..400 {
            let island = part.data_island(DataId(i));
            assert_eq!(island, map.original(DataId(i)).index());
        }
    }

    #[test]
    fn islands_partition_invariants_hold() {
        // Whatever the shape, the partition must cover every disk exactly
        // once, keep members ascending, order islands by minimum disk, and
        // put every data item's locations in that item's island.
        let map = PlacementMap::build(800, &cfg(40, 2, 1.0), 21);
        let part = IslandPartition::from_provider(&map);
        let mut seen = [false; 40];
        let mut prev_min = None;
        for i in 0..part.n_islands() {
            let members = part.island_disks(i);
            assert!(!members.is_empty());
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            assert!(prev_min < Some(members[0]));
            prev_min = Some(members[0]);
            for (local, &d) in members.iter().enumerate() {
                assert!(!seen[d.index()]);
                seen[d.index()] = true;
                assert_eq!(part.disk_island(d), i);
                assert_eq!(part.disk_local(d), local);
            }
        }
        assert!(seen.iter().all(|&s| s));
        for data in 0..800 {
            let island = part.data_island(DataId(data));
            for &l in map.locations(DataId(data)) {
                assert_eq!(part.disk_island(l), island, "data {data} split");
            }
        }
    }

    #[test]
    fn single_island_fallback_shape() {
        let part = IslandPartition::single_island(7);
        assert!(part.is_single());
        assert_eq!(part.island_disks(0).len(), 7);
        assert_eq!(part.data_island(DataId(123)), 0);
        assert_eq!(part.disk_local(DiskId(6)), 6);
    }

    #[test]
    fn replicas_roughly_uniform() {
        // With z=1 originals but uniform replicas, replica copies (index
        // >= 1) should spread evenly.
        let map = PlacementMap::build(30_000, &cfg(50, 3, 1.0), 5);
        let mut replica_h = vec![0usize; 50];
        for d in 0..30_000 {
            for loc in &map.locations(DataId(d))[1..] {
                replica_h[loc.index()] += 1;
            }
        }
        let total: usize = replica_h.iter().sum();
        let mean = total as f64 / 50.0;
        for (i, &c) in replica_h.iter().enumerate() {
            assert!(
                (c as f64) < mean * 1.3 && (c as f64) > mean * 0.7,
                "disk {i} replica count {c} vs mean {mean}"
            );
        }
    }
}
