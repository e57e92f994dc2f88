//! The event-driven storage-system simulator (paper Fig. 1): request
//! stream → scheduler → per-disk queues → disk state machines → power
//! manager, with full energy and response-time accounting.
//!
//! This is the online/batch counterpart of the analytic
//! [`crate::offline`] evaluator, playing the role OMNeT++ + DiskSim play
//! in the paper's experiments.
//!
//! Arrivals are *pulled* from a [`RequestSource`] in blocks
//! ([`run_system_streamed`]), so the event queue only ever holds
//! in-flight disk events — a multi-GB trace streams through in constant
//! memory. [`run_system`] wraps a `&[Request]` slice as a source for
//! in-memory callers; both run the identical loop.
//!
//! The loop body itself lives in [`IslandEngine`], a push-based engine
//! whose disks, event queue, in-flight slab and histogram are all local
//! to one **island** (a connected component of the replica-sharing
//! relation, [`crate::placement::IslandPartition`]). The serial entry
//! points drive a single engine over every disk;
//! [`run_system_streamed_with_jobs`] runs one engine per island across a
//! worker pool and merges the per-island metrics exactly
//! ([`crate::metrics::merge_islands`]) — bit-identical to the serial
//! engine, as pinned by `tests/island_determinism.rs`. Outputs are also
//! pinned by digests recorded from earlier engines
//! (`tests/batch_golden.rs`, `tests/island_determinism.rs`).

use spindown_disk::disk::{Directive, Disk, DiskEvent, DiskRequest};
use spindown_disk::mechanics::{DiskGeometry, Mechanics};
use spindown_disk::policy::{
    AdaptiveThreshold, AlwaysOn, FixedThreshold, IdlePolicy, QuantileThreshold, StormDamper,
};
use spindown_disk::power::PowerParams;
use spindown_disk::queue::QueueDiscipline;
use spindown_disk::state::DiskPowerState;
use spindown_sim::event::{EventQueue, Scheduled};
use spindown_sim::rng::{SimRng, SplitMix64};
use spindown_sim::stats::LatencyHistogram;
use spindown_sim::time::{SimDuration, SimTime};
use spindown_trace::split::StreamSplitter;

use crate::cost::DiskStatus;
use crate::metrics::{DiskSummary, IslandPart, RunMetrics};
use crate::model::{DiskId, Request};
use crate::placement::IslandPartition;
use crate::saving::SavingModel;
use crate::sched::{LocationProvider, ScheduleMode, Scheduler, SystemView};

/// Which power-management policy every disk runs.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Never spin down (the normalization baseline). Disks start idle.
    AlwaysOn,
    /// 2CPM with threshold = breakeven time (the paper's configuration).
    /// Disks start in standby (§2.3).
    Breakeven,
    /// 2CPM with an explicit threshold.
    FixedTimeout(SimDuration),
    /// Adaptive threshold (ablation; see
    /// [`spindown_disk::policy::AdaptiveThreshold`]).
    Adaptive,
    /// Predictive quantile threshold with spin-up-storm damping (see
    /// [`spindown_disk::policy::QuantileThreshold`]).
    Quantile,
}

/// Initial power state for a fleet running `policy`: always-on disks
/// start spinning (they never transition), everything else starts in
/// standby (paper §2.3). Single source of truth for both the build path
/// ([`build_disk`]) and the engine's status placeholder, so new policy
/// kinds cannot drift between the two.
pub fn initial_state(policy: &PolicyKind) -> DiskPowerState {
    match policy {
        PolicyKind::AlwaysOn => DiskPowerState::Idle,
        _ => DiskPowerState::Standby,
    }
}

/// A mid-run disk failure (replica loss): from `at` onward disk `disk`
/// accepts no new requests. Requests whose scheduler choice lands on a
/// failed disk are rerouted to the first surviving replica in placement
/// order; if every replica of a data item has failed, the request is
/// dropped (counted as an arrival, never serviced). Work already queued
/// on the disk before `at` still completes — the model is "stop sending
/// I/O", not amnesia.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFailure {
    /// Global disk index.
    pub disk: u32,
    /// Failure time.
    pub at: SimTime,
}

/// Static configuration of a simulated storage system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of disks (the paper uses 180).
    pub disks: u32,
    /// Power model of every disk.
    pub power: PowerParams,
    /// Mechanical model of every disk.
    pub geometry: DiskGeometry,
    /// Power-management policy.
    pub policy: PolicyKind,
    /// Per-disk request-queue discipline (FCFS in the paper).
    pub discipline: QueueDiscipline,
    /// When set, sample the system's total rate-power draw at this
    /// interval into [`RunMetrics::power_timeline`].
    pub power_sample: Option<SimDuration>,
    /// Per-disk [`PowerParams`] overrides for heterogeneous fleets:
    /// `(disk, params)` pairs consulted by
    /// [`SystemConfig::effective_power`]. Disks without an entry use
    /// [`SystemConfig::power`]. Overrides shape each disk's state
    /// machine, policy thresholds, energy meter and the always-on
    /// normalization baseline; the schedulers' cost model and the saving
    /// window keep the fleet-wide baseline `power` (see DESIGN.md §14).
    pub power_overrides: Vec<(u32, PowerParams)>,
    /// Mid-run disk failures honored by the engines at dispatch time.
    pub failures: Vec<DiskFailure>,
    /// Seed for all stochastic components (mechanics rotation phases).
    pub seed: u64,
}

impl SystemConfig {
    /// The power model governing disk `disk`: its override if one is
    /// configured (first match wins), else the fleet baseline. Linear
    /// scan — called at build/merge time only, never on the hot path.
    pub fn effective_power(&self, disk: u32) -> &PowerParams {
        self.power_overrides
            .iter()
            .find(|(d, _)| *d == disk)
            .map(|(_, p)| p)
            .unwrap_or(&self.power)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            disks: 180,
            power: PowerParams::barracuda(),
            geometry: DiskGeometry::cheetah_15k5(),
            policy: PolicyKind::Breakeven,
            discipline: QueueDiscipline::Fcfs,
            power_sample: None,
            power_overrides: Vec::new(),
            failures: Vec::new(),
            seed: 0,
        }
    }
}

/// An engine-local event. `Disk` carries the *island-local* disk index.
/// Batch ticks are not events: the engine holds the one armed tick beside
/// the queue (see [`IslandEngine::armed`]).
enum Ev {
    Sample,
    Disk(u32, DiskEvent),
}

/// A queued event plus its `post` bit: whether it belongs *after* the
/// batch tick due at its instant (DESIGN.md §16). Stamped once, at
/// schedule time, by [`IslandEngine::schedule`].
struct Entry {
    ev: Ev,
    post: bool,
}

/// Failure surfaced by a [`RequestSource`]: an upstream I/O or parse
/// error, or an out-of-order arrival. Carries a human-readable message
/// (the underlying errors are not `Clone`/`PartialEq`, so the source is
/// rendered at the boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError(pub String);

impl SourceError {
    /// Creates an error with `message`.
    pub fn new(message: impl Into<String>) -> Self {
        SourceError(message.into())
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SourceError {}

/// A pull-based, fallible stream of arrivals for
/// [`run_system_streamed`].
///
/// Contract: requests must come out in non-decreasing `at` order (the
/// engine verifies incrementally and fails fast), and `index` must be
/// unique among requests simultaneously in flight (it keys completion
/// accounting). Any `Iterator<Item = Result<Request, SourceError>>`
/// is a source via the blanket impl.
pub trait RequestSource {
    /// Pulls the next arrival; `None` means the stream is exhausted.
    fn next_request(&mut self) -> Option<Result<Request, SourceError>>;

    /// Pulls up to `max` arrivals, appending them to `out`. Returns a
    /// source error if one occurs mid-fill — arrivals pulled before the
    /// failure stay in `out` (they are valid and the engines consume them
    /// before the error aborts the run, exactly as per-record ingestion
    /// did). An exhausted source leaves `out` short, possibly unchanged.
    ///
    /// Engines ingest through this method so the virtual-dispatch cost is
    /// paid once per block instead of once per record; the default simply
    /// loops `next_request`, which the blanket iterator impl monomorphizes
    /// into a tight concrete loop.
    fn fill_block(&mut self, out: &mut Vec<Request>, max: usize) -> Option<SourceError> {
        while out.len() < max {
            match self.next_request() {
                None => return None,
                Some(Err(e)) => return Some(e),
                Some(Ok(r)) => out.push(r),
            }
        }
        None
    }
}

impl<I> RequestSource for I
where
    I: Iterator<Item = Result<Request, SourceError>>,
{
    fn next_request(&mut self) -> Option<Result<Request, SourceError>> {
        self.next()
    }
}

/// Records per ingestion block: how many arrivals the engines pull from a
/// [`RequestSource`] per virtual call, and the decoded-record block reused
/// between the parser and the event loop.
const INGEST_BLOCK: usize = 256;

/// Scans `block` for the first arrival-time regression, continuing from
/// `prev` (the time of the last previously accepted arrival; updated to
/// the last accepted time). Returns the length of the valid prefix and,
/// when a regression exists, the exact error per-record ingestion
/// historically produced — one ordering check per block instead of one
/// per pulled record.
fn validate_order(block: &[Request], prev: &mut Option<SimTime>) -> (usize, Option<SourceError>) {
    let mut p = *prev;
    for (i, r) in block.iter().enumerate() {
        if p.is_some_and(|t| r.at < t) {
            *prev = p;
            return (
                i,
                Some(SourceError::new(format!(
                    "requests must be sorted by time (request {} at {:?} regressed)",
                    r.index, r.at
                ))),
            );
        }
        p = Some(r.at);
    }
    *prev = p;
    (block.len(), None)
}

/// Dispatched-but-uncompleted accounting: maps a completion back to its
/// arrival time. A per-disk slab keyed by dispatch slot (the slot doubles
/// as the disk-request wire id), so the hot path never hashes.
struct InFlight {
    /// `slots[disk][slot]` = arrival time of the request occupying that
    /// dispatch slot, `None` when free.
    slots: Vec<Vec<Option<SimTime>>>,
    /// Per-disk free-slot stacks (LIFO, deterministic).
    free: Vec<Vec<u32>>,
    len: usize,
}

impl InFlight {
    fn new(disks: usize) -> Self {
        InFlight {
            slots: vec![Vec::new(); disks],
            free: vec![Vec::new(); disks],
            len: 0,
        }
    }

    /// Registers a dispatch on local disk `disk`; returns the wire id to
    /// stamp on the [`DiskRequest`].
    fn insert(&mut self, disk: usize, req: &Request) -> u64 {
        self.len += 1;
        match self.free[disk].pop() {
            Some(slot) => {
                let cell = &mut self.slots[disk][slot as usize];
                debug_assert!(cell.is_none(), "free slot {slot} occupied");
                *cell = Some(req.at);
                slot as u64
            }
            None => {
                self.slots[disk].push(Some(req.at));
                (self.slots[disk].len() - 1) as u64
            }
        }
    }

    /// Resolves a completion on local disk `disk` with wire id `id`,
    /// returning the request's arrival time.
    fn remove(&mut self, disk: usize, id: u64) -> SimTime {
        let at = self.slots[disk][id as usize]
            .take()
            .expect("completed request must be in flight");
        self.free[disk].push(id as u32);
        self.len -= 1;
        at
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Engine-side idle-timer coalescing state for one local disk.
///
/// A large fraction of disk events are idle timers, and under bursty
/// arrivals nearly all of them are stale by the time they fire (the disk
/// re-activated and bumped its token). Rather than scheduling one queue
/// entry per arm, the engine keeps `desired` as the single source of
/// truth and maintains one invariant: **whenever a timer is armed, some
/// queued entry fires at or before its deadline.** A re-arm overwrites
/// `desired` and only touches the wheel when the new deadline is earlier
/// than every entry already queued (predictive policies shrink timeouts,
/// so deadlines move backward as well as forward); an entry that fires
/// before the desired deadline re-schedules itself at that deadline
/// instead of touching the disk. Delivery happens exactly at the desired
/// deadline, and the disk still validates the token, so the scheme is
/// behaviour-preserving — it only removes wheel traffic.
#[derive(Debug, Clone, Copy, Default)]
struct IdleTimer {
    /// Latest armed `(deadline, token)`; `None` when nothing is armed
    /// (or the armed timer was already delivered).
    desired: Option<(SimTime, u64)>,
    /// Earliest queued `IdleTimeout` entry for this disk, `None` when
    /// none is known to be pending. Later stale entries may linger in
    /// the queue after a fire resets this; they deliver nothing (the
    /// deadline check filters them) and at worst cost one extra
    /// re-schedule each.
    earliest_queued: Option<SimTime>,
}

/// Per-disk RNGs, forked from the root seed in global disk order. The
/// fork sequence must be global (forking mutates the root), so island
/// engines receive their disks' pre-forked streams from this table and
/// end up with exactly the serial engine's per-disk randomness.
fn disk_rngs(config: &SystemConfig) -> Vec<SimRng> {
    let mut root = SimRng::seed_from_u64(config.seed ^ 0x5751);
    (0..config.disks).map(|d| root.fork(d as u64)).collect()
}

/// Confidence knob for [`PolicyKind::Quantile`]: spin down early only
/// when at least this fraction of idle periods that survived the
/// candidate threshold also outlast breakeven.
const QUANTILE_CONFIDENCE: f64 = 0.8;

/// Builds global disk `disk` of the fleet. Each disk gets its
/// *effective* power model ([`SystemConfig::effective_power`]) and a
/// fresh policy instance — policy state is strictly per-disk, which is
/// what keeps adaptive/quantile fleets island-parallel-safe: a disk's
/// learned state depends only on its own request history, identical
/// under any island-to-worker assignment.
fn build_disk(config: &SystemConfig, disk: u32, rng: SimRng) -> Disk {
    let params = config.effective_power(disk);
    let policy: Box<dyn IdlePolicy> = match &config.policy {
        PolicyKind::AlwaysOn => Box::new(AlwaysOn),
        PolicyKind::Breakeven => Box::new(FixedThreshold::breakeven(params)),
        PolicyKind::FixedTimeout(t) => Box::new(FixedThreshold::new(*t)),
        PolicyKind::Adaptive => Box::new(AdaptiveThreshold::new(
            0.25,
            1.0,
            SimDuration::from_secs(1),
            params.breakeven() * 4,
        )),
        PolicyKind::Quantile => Box::new(
            QuantileThreshold::new(params, QUANTILE_CONFIDENCE).with_damper(
                StormDamper::for_disk(params.breakeven() * 4, disk, config.disks),
            ),
        ),
    };
    Disk::with_discipline(
        params.clone(),
        Mechanics::new(config.geometry.clone(), rng),
        policy,
        initial_state(&config.policy),
        SimTime::ZERO,
        config.discipline,
    )
}

/// One island's event loop: the extracted body of the historical
/// `run_system_streamed`, reshaped push-based so a router can feed many
/// engines from one sorted stream. Disks, event queue, in-flight
/// accounting, batch buffer and response histogram are all island-local;
/// the only shared inputs are the (read-only) placement and power model.
///
/// Call [`IslandEngine::offer`] with the island's arrivals in
/// non-decreasing time order, then [`IslandEngine::into_finished`] to
/// drain remaining events and extract the partial metrics.
struct IslandEngine<'a, S: Scheduler> {
    power: &'a PowerParams,
    placement: &'a dyn LocationProvider,
    scheduler: S,
    name: &'static str,
    batch_interval: Option<SimDuration>,
    power_sample: Option<SimDuration>,
    /// Island disks, local order == ascending global id order.
    disks: Vec<Disk>,
    /// Local slot → global disk id.
    global_ids: Vec<DiskId>,
    /// Global disk index → local slot (`u32::MAX` for foreign disks).
    local_of: Vec<u32>,
    queue: EventQueue<Entry>,
    batch_buffer: Vec<Request>,
    /// The batch tick, armed exactly while `batch_buffer` is non-empty:
    /// due at the first grid instant `k·interval` (`k ≥ 1`) at or after
    /// the arrival that found the buffer empty ([`batch_instant`]).
    armed: Option<SimTime>,
    /// The latest instant whose grid tick has passed — set when the armed
    /// tick fires or a `post` entry pops. Decides the `post` bit of
    /// entries scheduled exactly one interval ahead.
    tick_passed: SimTime,
    /// Whether a tick of the per-interval chain the armed tick replaces
    /// would be resident in the queue now: from the first arrival until
    /// the final dispatch. Counted into `peak_events`, which keeps its
    /// historical meaning.
    tick_resident: bool,
    /// Reused scratch for scheduler choices — online dispatch allocates
    /// nothing per arrival.
    choices: Vec<DiskId>,
    in_flight: InFlight,
    /// Per-local-disk idle-timer coalescers (see [`IdleTimer`]).
    idle_timers: Vec<IdleTimer>,
    arrivals: usize,
    trace_end: SimTime,
    last_event: SimTime,
    response: LatencyHistogram,
    requests_per_disk: Vec<u64>,
    /// Reusable status snapshot, indexed by **global** disk id; only the
    /// island's own entries are ever refreshed (schedulers read statuses
    /// only for a request's replica locations, all of which are local).
    statuses: Vec<DiskStatus>,
    /// Failure time per **global** disk id (`None` = never fails). A
    /// pure function of the config, so rerouting decisions are identical
    /// under any island-to-worker assignment.
    failed_at: Vec<Option<SimTime>>,
    /// Flattened per-sample per-disk watt rows (local disk order).
    power_rows: Vec<f64>,
    sample_times: Vec<SimTime>,
    started: bool,
    peak_events: usize,
    peak_in_flight: usize,
}

/// A drained island, detached from its scheduler and placement borrows so
/// it can cross back to the merging thread.
struct FinishedIsland {
    disks: Vec<Disk>,
    global_ids: Vec<DiskId>,
    requests_per_disk: Vec<u64>,
    response: LatencyHistogram,
    arrivals: usize,
    trace_end: SimTime,
    last_event: SimTime,
    power_rows: Vec<f64>,
    sample_times: Vec<SimTime>,
    drained_watts: Vec<f64>,
    peak_events: usize,
    peak_in_flight: usize,
}

impl<'a, S: Scheduler> IslandEngine<'a, S> {
    /// Builds an engine over `global_ids` (ascending). `rngs` is the
    /// global per-disk fork table from [`disk_rngs`].
    fn new(
        placement: &'a dyn LocationProvider,
        config: &'a SystemConfig,
        scheduler: S,
        global_ids: &[DiskId],
        rngs: &[SimRng],
    ) -> Self {
        let n_local = global_ids.len();
        let n_global = config.disks as usize;
        let disks: Vec<Disk> = global_ids
            .iter()
            .map(|gid| build_disk(config, gid.0, rngs[gid.index()].clone()))
            .collect();
        let mut local_of = vec![u32::MAX; n_global];
        for (l, gid) in global_ids.iter().enumerate() {
            local_of[gid.index()] = l as u32;
        }
        let mut failed_at = vec![None; n_global];
        for f in &config.failures {
            assert!(
                f.disk < config.disks,
                "failure references disk {} of a {}-disk fleet",
                f.disk,
                config.disks
            );
            let cell = &mut failed_at[f.disk as usize];
            *cell = Some(cell.map_or(f.at, |t: SimTime| t.min(f.at)));
        }
        let placeholder = DiskStatus {
            state: initial_state(&config.policy),
            last_request_at: None,
            load: 0,
        };
        let name = scheduler.name();
        let batch_interval = match scheduler.mode() {
            ScheduleMode::Online => None,
            ScheduleMode::Batch(interval) => {
                assert!(!interval.is_zero(), "batch interval must be positive");
                Some(interval)
            }
        };
        IslandEngine {
            power: &config.power,
            placement,
            scheduler,
            name,
            batch_interval,
            power_sample: config.power_sample,
            disks,
            global_ids: global_ids.to_vec(),
            local_of,
            // Only in-flight work lives here: per-disk pipeline events
            // plus at most one power sample — never the trace itself, and
            // never the batch tick, which is held in `armed`.
            queue: EventQueue::with_capacity(n_local.saturating_mul(4) + 8),
            batch_buffer: Vec::new(),
            armed: None,
            tick_passed: SimTime::ZERO,
            tick_resident: false,
            choices: Vec::new(),
            in_flight: InFlight::new(n_local),
            idle_timers: vec![IdleTimer::default(); n_local],
            arrivals: 0,
            trace_end: SimTime::ZERO,
            last_event: SimTime::ZERO,
            response: LatencyHistogram::default(),
            requests_per_disk: vec![0; n_local],
            statuses: vec![placeholder; n_global],
            failed_at,
            power_rows: Vec::new(),
            sample_times: Vec::new(),
            started: false,
            peak_events: 0,
            peak_in_flight: 0,
        }
    }

    /// Schedules the initial power sample and starts the tick chain's
    /// residency. Deferred to the first arrival so an island that never
    /// receives one stays inert — exactly like the historical loop, which
    /// gated both on a non-empty stream.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.tick_resident = self.batch_interval.is_some();
        if self.power_sample.is_some() {
            self.schedule(SimTime::ZERO, SimTime::ZERO, Ev::Sample);
        }
        self.update_peaks(0);
    }

    /// Queues `ev` at `at` (scheduled at `now`), stamping its `post` bit.
    ///
    /// A chain that ticks every interval `I` schedules the tick at `T`
    /// when the tick at `T − I` finishes, so among entries due at a grid
    /// instant `T` it sits after those scheduled before that moment and
    /// before those scheduled after it. Relative to `now` that is: after
    /// when the delay is under `I`, before when it is over `I`, and at
    /// exactly `I` after iff the tick at `now` has already passed.
    fn schedule(&mut self, now: SimTime, at: SimTime, ev: Ev) {
        let post = self.batch_interval.is_some_and(|interval| {
            let delay = at.saturating_since(now);
            delay < interval || (delay == interval && self.tick_passed == now)
        });
        self.queue.schedule(at, Entry { ev, post });
    }

    /// The earliest pending instant: the queue head or the armed tick.
    fn next_time(&self) -> Option<SimTime> {
        match (self.queue.peek_time(), self.armed) {
            (Some(q), Some(a)) => Some(q.min(a)),
            (q, a) => q.or(a),
        }
    }

    /// Feeds a block of arrivals (non-decreasing times, the island's own
    /// data only): one admission (`ensure_started`) per block, the
    /// per-arrival loop monomorphized inline. Events earlier than an
    /// arrival run first; at equal times the arrival runs first, matching
    /// the pre-scheduled ordering the materialized path historically
    /// used.
    fn offer_batch(&mut self, reqs: &[Request]) {
        if reqs.is_empty() {
            return;
        }
        self.ensure_started();
        for req in reqs {
            self.offer_one(*req);
        }
    }

    /// One arrival of [`IslandEngine::offer_batch`], after the start check.
    fn offer_one(&mut self, req: Request) {
        while self.next_time().is_some_and(|t| t < req.at) {
            self.step_event(true);
        }
        let now = req.at;
        self.last_event = self.last_event.max(now);
        self.trace_end = now;
        self.arrivals += 1;
        if let Some(interval) = self.batch_interval {
            debug_assert_eq!(self.armed.is_some(), !self.batch_buffer.is_empty());
            if self.armed.is_none() {
                self.armed = Some(batch_instant(now, interval));
            }
            self.batch_buffer.push(req);
        } else {
            let singleton = [req];
            self.dispatch(&singleton, now);
        }
        self.update_peaks(0);
    }

    /// Processes the earliest pending event: the armed tick or the queue
    /// head. `pending` is true while a further arrival exists for this
    /// island (it gates the power-sample chain, as the look-ahead arrival
    /// did historically, and marks a tick fired without it as final).
    ///
    /// At an instant shared with the armed tick, entries without the
    /// `post` bit run before the tick and entries with it run after: they
    /// are a FIFO prefix and suffix of the instant's entries, so popping
    /// the head and firing the tick first when it is `post` is enough.
    fn step_event(&mut self, pending: bool) {
        if let Some(tick) = self.armed {
            if self.queue.peek_time().is_none_or(|t| t > tick) {
                self.fire_tick(tick, pending, 0);
                return;
            }
        }
        let Scheduled {
            at: now,
            payload: Entry { ev, post },
        } = self.queue.pop().expect("step_event requires an event");
        if post {
            if self.armed == Some(now) {
                self.fire_tick(now, pending, 1);
            }
            self.tick_passed = now;
        }
        self.last_event = now;
        match ev {
            Ev::Sample => {
                self.sample_times.push(now);
                for d in &self.disks {
                    self.power_rows.push(d.power_w());
                }
                // Keep sampling while real events remain (the only
                // pending sample is the one just popped, so a non-empty
                // queue, an armed tick or an unconsumed arrival means
                // actual work is still in flight).
                if !self.queue.is_empty() || self.armed.is_some() || pending {
                    let interval = self.power_sample.expect("sampling enabled");
                    self.schedule(now, now + interval, Ev::Sample);
                }
            }
            Ev::Disk(d, event) => {
                // Idle timers route through the coalescer: deliver only
                // when this fire time IS the latest desired deadline,
                // otherwise chase the deadline forward (or drop, if
                // nothing is armed any more).
                let deliver = match event {
                    DiskEvent::IdleTimeout(_) => {
                        let timer = &mut self.idle_timers[d as usize];
                        // Entries fire in time order, so the firing entry
                        // is the earliest pending one; any survivors are
                        // later and unknown, so forget them (they fire as
                        // harmless no-ops).
                        timer.earliest_queued = None;
                        match timer.desired {
                            None => None,
                            Some((deadline, token)) => {
                                if now < deadline {
                                    timer.earliest_queued = Some(deadline);
                                    self.schedule(
                                        now,
                                        deadline,
                                        Ev::Disk(d, DiskEvent::IdleTimeout(token)),
                                    );
                                    None
                                } else {
                                    // The invariant keeps an entry at or
                                    // before the deadline, so the first
                                    // fire at/after it is exactly at it.
                                    debug_assert_eq!(now, deadline, "timer fired late");
                                    timer.desired = None;
                                    Some(DiskEvent::IdleTimeout(token))
                                }
                            }
                        }
                    }
                    other => Some(other),
                };
                if let Some(event) = deliver {
                    let outcome = self.disks[d as usize].handle(now, event);
                    if let Some(done) = outcome.completed {
                        let arrival = self.in_flight.remove(d as usize, done.id);
                        self.response.record(now.saturating_since(arrival));
                    }
                    if let Some(dir) = outcome.directive {
                        self.schedule_directive(d, now, dir);
                    }
                }
            }
        }
        self.update_peaks(0);
    }

    /// Fires the armed tick due at `now`: dispatches the batch, disarms,
    /// and marks the instant's tick passed. `held` counts entries already
    /// popped but not yet processed, which the per-interval chain would
    /// still have had queued at this point.
    fn fire_tick(&mut self, now: SimTime, pending: bool, held: usize) {
        debug_assert_eq!(self.armed, Some(now));
        self.armed = None;
        self.last_event = now;
        let batch = std::mem::take(&mut self.batch_buffer);
        self.dispatch(&batch, now);
        self.batch_buffer = batch;
        self.batch_buffer.clear();
        self.tick_passed = now;
        // Without a further arrival this is the chain's final tick.
        self.tick_resident &= pending;
        self.update_peaks(held);
    }

    /// Schedules a disk directive, routing idle timers through the
    /// per-disk coalescer: the wheel is touched only when no queued entry
    /// would fire by the new deadline.
    fn schedule_directive(&mut self, local: u32, now: SimTime, dir: Directive) {
        if let DiskEvent::IdleTimeout(token) = dir.event {
            let deadline = now + dir.after;
            let timer = &mut self.idle_timers[local as usize];
            timer.desired = Some((deadline, token));
            if timer.earliest_queued.is_none_or(|q| deadline < q) {
                timer.earliest_queued = Some(deadline);
                self.schedule(now, deadline, Ev::Disk(local, dir.event));
            }
        } else {
            self.schedule(now, now + dir.after, Ev::Disk(local, dir.event));
        }
    }

    /// Whether global disk `disk` has failed as of `now`.
    fn is_failed(&self, disk: DiskId, now: SimTime) -> bool {
        self.failed_at[disk.index()].is_some_and(|t| now >= t)
    }

    /// Folds the current occupancy into the peaks. `held` counts popped
    /// entries not yet processed (see [`IslandEngine::fire_tick`]); the
    /// event count includes the per-interval chain's resident tick.
    fn update_peaks(&mut self, held: usize) {
        let events = self.queue.len() + held + usize::from(self.tick_resident);
        self.peak_events = self.peak_events.max(events);
        self.peak_in_flight = self
            .peak_in_flight
            .max(self.in_flight.len() + self.batch_buffer.len());
    }

    /// Asks the scheduler to place `batch` and enqueues the results.
    fn dispatch(&mut self, batch: &[Request], now: SimTime) {
        // Refresh only the statuses the scheduler can actually read: the
        // replica locations of the batch's requests (every shipped
        // scheduler consults `view.status(d)` solely for disks in a
        // request's location list — the same contract island partitioning
        // already relies on). Refreshing the full island per dispatch made
        // admission O(island disks) per arrival; this is O(replicas).
        for req in batch {
            for gid in self.placement.locations(req.data) {
                let local = self.local_of[gid.index()];
                debug_assert!(
                    local != u32::MAX,
                    "request {} has replica on foreign disk {gid}",
                    req.index
                );
                let d = &self.disks[local as usize];
                self.statuses[gid.index()] = DiskStatus {
                    state: d.state(),
                    last_request_at: d.last_request_at(),
                    load: d.load(),
                };
            }
        }
        let view = SystemView {
            now,
            params: self.power,
            placement: self.placement,
            statuses: self.statuses.as_slice(),
        };
        let mut choices = std::mem::take(&mut self.choices);
        self.scheduler.assign_into(batch, &view, &mut choices);
        assert_eq!(
            choices.len(),
            batch.len(),
            "scheduler must place every request"
        );
        for (req, &disk_id) in batch.iter().zip(choices.iter()) {
            assert!(
                self.placement.locations(req.data).contains(&disk_id),
                "scheduler placed request {} off-placement ({disk_id})",
                req.index
            );
            // Failure rerouting: if the scheduler's choice has failed by
            // now, fall over to the first surviving replica in placement
            // order; if none survives, drop the request (it stays counted
            // as an arrival). Replicas never cross islands, so the
            // fallback disk is always local.
            let disk_id = if self.is_failed(disk_id, now) {
                match self
                    .placement
                    .locations(req.data)
                    .iter()
                    .copied()
                    .find(|d| !self.is_failed(*d, now))
                {
                    Some(d) => d,
                    None => continue,
                }
            } else {
                disk_id
            };
            let local = self.local_of[disk_id.index()];
            assert!(
                local != u32::MAX,
                "request {} routed to island without disk {disk_id}",
                req.index
            );
            let local = local as usize;
            self.requests_per_disk[local] += 1;
            let wire_id = self.in_flight.insert(local, req);
            let lba = lba_of(req.data.0, disk_id.0);
            let directive = self.disks[local].enqueue(
                now,
                DiskRequest {
                    id: wire_id,
                    lba,
                    size: req.size,
                },
            );
            if let Some(dir) = directive {
                self.schedule_directive(local as u32, now, dir);
            }
        }
        self.choices = choices;
    }

    /// Drains every remaining event and detaches the partial metrics.
    fn into_finished(mut self) -> FinishedIsland {
        while self.next_time().is_some() {
            self.step_event(false);
        }
        let drained_watts = self.disks.iter().map(Disk::power_w).collect();
        FinishedIsland {
            disks: self.disks,
            global_ids: self.global_ids,
            requests_per_disk: self.requests_per_disk,
            response: self.response,
            arrivals: self.arrivals,
            trace_end: self.trace_end,
            last_event: self.last_event,
            power_rows: self.power_rows,
            sample_times: self.sample_times,
            drained_watts,
            peak_events: self.peak_events,
            peak_in_flight: self.peak_in_flight,
        }
    }
}

impl FinishedIsland {
    /// Summarizes the island at the *global* horizon. Valid past the
    /// island's own last event: disk states freeze once the local queue
    /// drains, and the meters extrapolate the open interval — exactly
    /// what the serial engine does for disks idle at the end of a run.
    fn finalize(self, horizon: SimTime) -> IslandPart {
        let per_disk: Vec<DiskSummary> = self
            .disks
            .iter()
            .enumerate()
            .map(|(i, d)| DiskSummary {
                energy_j: d.energy_j(horizon),
                state_fractions: d.meter().state_fractions(horizon),
                spinups: d.meter().spinups(),
                spindowns: d.meter().spindowns(),
                requests: self.requests_per_disk[i],
            })
            .collect();
        IslandPart {
            disk_ids: self.global_ids,
            per_disk,
            response: self.response,
            requests: self.arrivals,
            sample_times: self.sample_times.iter().map(|t| t.as_secs_f64()).collect(),
            power_rows: self.power_rows,
            drained_watts: self.drained_watts,
            peak_events: self.peak_events,
            peak_in_flight: self.peak_in_flight,
        }
    }
}

/// Computes the global horizon and merges finished islands into the final
/// metrics. The horizon is `max(last event, last request + saving
/// window)` — island maxima reproduce the serial engine's values exactly,
/// so runs under different schedulers are normalized over essentially the
/// same span.
fn merge_finished(
    scheduler: String,
    config: &SystemConfig,
    finished: Vec<FinishedIsland>,
    splitter_high_water: usize,
) -> RunMetrics {
    let model = SavingModel::new(&config.power);
    let last_event = finished
        .iter()
        .map(|f| f.last_event)
        .max()
        .unwrap_or(SimTime::ZERO);
    let trace_end = finished
        .iter()
        .map(|f| f.trace_end)
        .max()
        .unwrap_or(SimTime::ZERO);
    let horizon = last_event.max(trace_end + model.window());
    let horizon_s = horizon.as_secs_f64();
    // Always-on baseline: every disk spinning idle for the whole horizon,
    // summed per disk so heterogeneous fleets normalize correctly (a
    // homogeneous `disks × idle_w` shortcut undercounts or overcounts
    // whenever overrides are present).
    let always_on_j = (0..config.disks)
        .map(|d| config.effective_power(d).idle_w)
        .sum::<f64>()
        * horizon_s;
    let parts: Vec<IslandPart> = finished.into_iter().map(|f| f.finalize(horizon)).collect();
    crate::metrics::merge_islands(
        scheduler,
        config.disks,
        horizon_s,
        always_on_j,
        parts,
        splitter_high_water,
    )
}

/// Runs `scheduler` over `requests` (time-sorted) against `placement`,
/// returning the full metrics of the run.
///
/// Convenience wrapper over [`run_system_streamed`] for in-memory
/// request vectors; both paths execute the identical event loop, which
/// makes this the differential-test oracle for streamed ingestion.
///
/// The measurement horizon is `max(last event, last request + saving
/// window)`, so runs under different schedulers are normalized over
/// essentially the same span.
///
/// # Panics
///
/// Panics if `requests` is not sorted by time or a scheduler returns an
/// off-placement disk.
pub fn run_system(
    requests: &[Request],
    placement: &dyn LocationProvider,
    scheduler: &mut dyn Scheduler,
    config: &SystemConfig,
) -> RunMetrics {
    assert!(
        requests.windows(2).all(|w| w[0].at <= w[1].at),
        "requests must be sorted by time"
    );
    let mut source = requests.iter().map(|r| Ok::<Request, SourceError>(*r));
    run_system_streamed(&mut source, placement, scheduler, config)
        .expect("in-memory sorted slices cannot fail")
}

/// Runs `scheduler` over arrivals pulled lazily from `source`.
///
/// The event queue holds only in-flight work (disk pipeline events and
/// one power sample; a batch scheduler's tick is armed beside it only
/// while a batch is waiting, DESIGN.md §16) plus the single look-ahead
/// arrival, so memory stays bounded by disk count and batch width —
/// never by trace length. Arrivals are interleaved with simulator events
/// by time; at equal times the arrival is processed first, matching the
/// pre-scheduled ordering the materialized path historically used
/// (arrivals were enqueued before any other event and the queue is
/// FIFO-stable at ties).
///
/// This is the **serial oracle**: one engine over every disk, whatever
/// the placement's island structure. [`run_system_streamed_with_jobs`]
/// is the island-parallel production path and is bit-identical to it.
///
/// # Errors
///
/// Returns the first [`SourceError`] the source yields, or an
/// out-of-order error if arrivals regress in time. Work already
/// dispatched is abandoned at that point — the partial metrics are not
/// returned.
///
/// # Panics
///
/// Panics if the scheduler returns an off-placement disk or the
/// placement disagrees with `config.disks`.
pub fn run_system_streamed(
    source: &mut dyn RequestSource,
    placement: &dyn LocationProvider,
    scheduler: &mut dyn Scheduler,
    config: &SystemConfig,
) -> Result<RunMetrics, SourceError> {
    assert_eq!(
        placement.disks(),
        config.disks,
        "placement and system disagree on disk count"
    );
    let rngs = disk_rngs(config);
    let all: Vec<DiskId> = (0..config.disks).map(DiskId).collect();
    let mut engine = IslandEngine::new(placement, config, scheduler, &all, &rngs);
    // Decoded-record block reused between the source (parser) and the
    // event loop: one virtual fill and one ordering scan per block, no
    // per-record iterator plumbing.
    let mut block: Vec<Request> = Vec::with_capacity(INGEST_BLOCK);
    let mut prev: Option<SimTime> = None;
    loop {
        block.clear();
        let src_err = source.fill_block(&mut block, INGEST_BLOCK);
        let (valid, order_err) = validate_order(&block, &mut prev);
        // Arrivals before a failure are real; feed them before aborting —
        // exactly where per-record ingestion stopped.
        engine.offer_batch(&block[..valid]);
        if let Some(e) = order_err {
            return Err(e);
        }
        if let Some(e) = src_err {
            return Err(e);
        }
        if valid < INGEST_BLOCK {
            break;
        }
    }
    let name = engine.name;
    Ok(merge_finished(
        name.into(),
        config,
        vec![engine.into_finished()],
        0,
    ))
}

/// Island-parallel replay: one event loop per island of the placement's
/// replica-sharing graph, fed from `source` through a bounded
/// [`StreamSplitter`], merged exactly into one [`RunMetrics`].
///
/// Schedulers are created per island via `factory`, so each island's
/// scheduler sees exactly the requests a serial scheduler would have seen
/// for those disks (scheduler state never crosses islands — replica
/// locality guarantees the serial scheduler's state is island-separable
/// for every shipped scheduler; `RandomScheduler` hashes per request for
/// the same reason).
///
/// The result is **bit-identical** to [`run_system_streamed`] — same
/// floats, same histogram buckets, same `power_timeline` — for any
/// `jobs`, except the operational fields
/// [`RunMetrics::peak_events`] / [`RunMetrics::peak_in_flight`]
/// (per-island maxima instead of one global queue's peak) and
/// [`RunMetrics::splitter_high_water`] (timing-dependent diagnostic).
/// With a single island it *is* the serial engine, operational fields
/// included.
///
/// `jobs` is the worker cap (`0`/`1` = no threads); islands are sharded
/// contiguously across at most `min(jobs, islands)` workers.
///
/// # Errors
///
/// Exactly as [`run_system_streamed`]: the first upstream or ordering
/// error aborts the run (in-flight islands are abandoned).
pub fn run_system_streamed_with_jobs(
    source: &mut (dyn RequestSource + Send),
    placement: &(dyn LocationProvider + Sync),
    factory: &(dyn Fn() -> Box<dyn Scheduler> + Sync),
    config: &SystemConfig,
    jobs: usize,
) -> Result<RunMetrics, SourceError> {
    assert_eq!(
        placement.disks(),
        config.disks,
        "placement and system disagree on disk count"
    );
    let partition = IslandPartition::from_provider(placement);
    if partition.is_single() {
        // Degenerate fallback: replicas connect everything, so the serial
        // engine is the only correct execution — and trivially
        // jobs-invariant.
        let mut scheduler = factory();
        return run_system_streamed(source, placement, &mut scheduler, config);
    }
    let n_islands = partition.n_islands();
    let workers = jobs.max(1).min(n_islands);
    let rngs = disk_rngs(config);
    let name = factory().name().to_string();

    if workers == 1 {
        // Multi-island but single-threaded: route inline, no splitter.
        let mut engines: Vec<IslandEngine<'_, Box<dyn Scheduler>>> = (0..n_islands)
            .map(|i| {
                IslandEngine::new(
                    placement,
                    config,
                    factory(),
                    partition.island_disks(i),
                    &rngs,
                )
            })
            .collect();
        let mut block: Vec<Request> = Vec::with_capacity(INGEST_BLOCK);
        let mut prev: Option<SimTime> = None;
        // Group each block by island before offering: engines are
        // independent, so only the per-island arrival order matters, and
        // feeding each engine its whole share of the block at once keeps
        // that engine's queue and disk state hot instead of ping-ponging
        // between islands on every record.
        let mut by_island: Vec<Vec<Request>> = vec![Vec::with_capacity(INGEST_BLOCK); n_islands];
        loop {
            block.clear();
            let src_err = source.fill_block(&mut block, INGEST_BLOCK);
            let (valid, order_err) = validate_order(&block, &mut prev);
            for req in &block[..valid] {
                by_island[partition.data_island(req.data)].push(*req);
            }
            for (engine, share) in engines.iter_mut().zip(by_island.iter_mut()) {
                engine.offer_batch(share);
                share.clear();
            }
            if let Some(e) = order_err {
                return Err(e);
            }
            if let Some(e) = src_err {
                return Err(e);
            }
            if valid < INGEST_BLOCK {
                break;
            }
        }
        let finished: Vec<FinishedIsland> =
            engines.into_iter().map(IslandEngine::into_finished).collect();
        return Ok(merge_finished(name, config, finished, 0));
    }

    // Contiguous island ranges per worker; the splitter routes arrivals
    // to the owning worker's substream.
    let group_ranges = spindown_sim::pool::shard_ranges(n_islands, workers);
    let mut group_of_island = vec![0usize; n_islands];
    for (g, range) in group_ranges.iter().enumerate() {
        for i in range.clone() {
            group_of_island[i] = g;
        }
    }
    let route_partition = &partition;
    let route_groups = &group_of_island;
    // The reader stages a block of decoded records per virtual source
    // call (one ordering scan per block); the splitter then parks them
    // into per-group record blocks, and workers drain a block per lock
    // transaction.
    let mut staged: Vec<Request> = Vec::with_capacity(INGEST_BLOCK);
    let mut staged_pos = 0usize;
    let mut staged_err: Option<SourceError> = None;
    let mut src_done = false;
    let mut prev: Option<SimTime> = None;
    let splitter: StreamSplitter<'_, Request, SourceError> = StreamSplitter::new(
        Box::new(move || loop {
            if staged_pos < staged.len() {
                let r = staged[staged_pos];
                staged_pos += 1;
                return Some(Ok(r));
            }
            if let Some(e) = staged_err.take() {
                src_done = true;
                return Some(Err(e));
            }
            if src_done {
                return None;
            }
            staged.clear();
            staged_pos = 0;
            let src_err = source.fill_block(&mut staged, INGEST_BLOCK);
            let (valid, order_err) = validate_order(&staged, &mut prev);
            staged.truncate(valid);
            // An ordering regression precedes any later source failure,
            // exactly as per-record pulling would have surfaced it.
            staged_err = order_err.or(src_err);
            if staged.len() < INGEST_BLOCK && staged_err.is_none() {
                src_done = true;
            }
        }),
        Box::new(move |r: &Request| route_groups[route_partition.data_island(r.data)]),
        workers,
        StreamSplitter::<Request, SourceError>::DEFAULT_CAPACITY,
    );

    let first_error: std::sync::Mutex<Option<SourceError>> = std::sync::Mutex::new(None);
    let finished: Vec<FinishedIsland> = std::thread::scope(|scope| {
        let handles: Vec<_> = group_ranges
            .iter()
            .enumerate()
            .map(|(g, range)| {
                let range = range.clone();
                let splitter = &splitter;
                let partition = &partition;
                let rngs = &rngs;
                let first_error = &first_error;
                scope.spawn(move || {
                    let mut engines: Vec<IslandEngine<'_, Box<dyn Scheduler>>> = range
                        .clone()
                        .map(|i| {
                            IslandEngine::new(
                                placement,
                                config,
                                factory(),
                                partition.island_disks(i),
                                rngs,
                            )
                        })
                        .collect();
                    let mut block: Vec<Request> = Vec::new();
                    loop {
                        match splitter.pull_block(g, &mut block) {
                            None => break,
                            Some(Err(e)) => {
                                // Mirror the serial abort: abandon partial
                                // work, surface the (latched) error.
                                first_error.lock().expect("error lock").get_or_insert(e);
                                return Vec::new();
                            }
                            Some(Ok(())) => {
                                // Hand contiguous same-island runs to the
                                // engine in one `offer_batch` call; with
                                // one island per group that is the whole
                                // block.
                                let mut i = 0;
                                while i < block.len() {
                                    let island = partition.data_island(block[i].data);
                                    let mut j = i + 1;
                                    while j < block.len()
                                        && partition.data_island(block[j].data) == island
                                    {
                                        j += 1;
                                    }
                                    engines[island - range.start].offer_batch(&block[i..j]);
                                    i = j;
                                }
                            }
                        }
                    }
                    engines
                        .into_iter()
                        .map(IslandEngine::into_finished)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("island worker panicked"))
            .collect()
    });
    if let Some(e) = first_error.into_inner().expect("error lock") {
        return Err(e);
    }
    let high_water = splitter.high_water();
    Ok(merge_finished(name, config, finished, high_water))
}

/// [`run_system_streamed_with_jobs`] over an in-memory sorted slice — the
/// parallel counterpart of [`run_system`].
///
/// # Panics
///
/// Panics if `requests` is not sorted by time or a scheduler returns an
/// off-placement disk.
pub fn run_system_with_jobs(
    requests: &[Request],
    placement: &(dyn LocationProvider + Sync),
    factory: &(dyn Fn() -> Box<dyn Scheduler> + Sync),
    config: &SystemConfig,
    jobs: usize,
) -> RunMetrics {
    assert!(
        requests.windows(2).all(|w| w[0].at <= w[1].at),
        "requests must be sorted by time"
    );
    let mut source = requests.iter().map(|r| Ok::<Request, SourceError>(*r));
    run_system_streamed_with_jobs(&mut source, placement, factory, config, jobs)
        .expect("in-memory sorted slices cannot fail")
}

/// The instant the batch holding an arrival at `at` is dispatched: the
/// first grid instant `k·interval` with `k ≥ 1` at or after `at`. An
/// arrival exactly on a grid instant joins that instant's batch; one at
/// `t = 0` waits for the first tick at `interval`.
fn batch_instant(at: SimTime, interval: SimDuration) -> SimTime {
    let step = interval.as_micros();
    SimTime::from_micros(at.as_micros().div_ceil(step).max(1) * step)
}

/// Deterministic pseudo-LBA of a data item on a disk: a hash of the
/// (data, disk) pair spread over a nominal 300 GB address space. Real
/// placements assign blocks to arbitrary physical locations; a hash
/// reproduces the resulting random seek pattern. Keyed by the **global**
/// disk id, so island engines generate the serial engine's exact seek
/// pattern.
fn lba_of(data: u64, disk: u32) -> u64 {
    let mut h = SplitMix64::new(data ^ ((disk as u64) << 40) ^ 0x10CA);
    h.next_u64() % 300_000_000_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostFunction;
    use crate::model::{DataId, DiskId};
    use crate::sched::{
        ExplicitPlacement, HeuristicScheduler, RandomScheduler, StaticScheduler, WscScheduler,
    };

    fn small_config(disks: u32, policy: PolicyKind) -> SystemConfig {
        SystemConfig {
            disks,
            policy,
            seed: 1,
            ..SystemConfig::default()
        }
    }

    fn requests(times_s: &[f64], datas: &[u64]) -> Vec<Request> {
        times_s
            .iter()
            .zip(datas)
            .enumerate()
            .map(|(i, (&t, &d))| Request {
                index: i as u32,
                at: SimTime::from_secs_f64(t),
                data: DataId(d),
                size: 512 * 1024,
            })
            .collect()
    }

    fn two_disk_placement() -> ExplicitPlacement {
        ExplicitPlacement::new(
            vec![vec![DiskId(0), DiskId(1)], vec![DiskId(1), DiskId(0)]],
            2,
        )
    }

    #[test]
    fn completes_all_requests_and_measures_responses() {
        let reqs = requests(&[0.0, 1.0, 2.0, 50.0], &[0, 1, 0, 1]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Breakeven),
        );
        assert_eq!(m.response.count(), 4);
        assert_eq!(m.requests, 4);
        assert!(m.energy_j > 0.0);
        // First request hits a standby disk: response >= spin-up time.
        assert!(m.response.max() >= 10.0);
    }

    #[test]
    fn always_on_has_no_spindowns_and_fast_responses() {
        let reqs = requests(&[0.0, 30.0, 60.0], &[0, 0, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::AlwaysOn),
        );
        assert_eq!(m.spindowns, 0);
        assert_eq!(m.spinups, 0);
        assert!(m.response.max() < 0.1, "max {}", m.response.max());
        // Energy ≈ always-on baseline.
        assert!((m.normalized_energy() - 1.0).abs() < 0.01);
    }

    #[test]
    fn breakeven_policy_saves_energy_on_sparse_load() {
        // One burst, then silence: the 2CPM disks sleep.
        let reqs = requests(&[0.0, 0.5, 1.0], &[0, 0, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Breakeven),
        );
        assert!(m.spindowns >= 1);
        assert!(
            m.normalized_energy() < 0.9,
            "normalized {}",
            m.normalized_energy()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let reqs = requests(&[0.0, 0.2, 5.0, 40.0, 41.0], &[0, 1, 0, 1, 0]);
        let placement = two_disk_placement();
        let run = || {
            let mut sched = RandomScheduler::new(3);
            run_system(
                &reqs,
                &placement,
                &mut sched,
                &small_config(2, PolicyKind::Breakeven),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.spinups, b.spinups);
        assert_eq!(a.response.mean(), b.response.mean());
    }

    #[test]
    fn batch_scheduler_batches_and_completes() {
        let reqs = requests(&[0.0, 0.01, 0.02, 0.03], &[0, 1, 0, 1]);
        let placement = two_disk_placement();
        let mut sched =
            WscScheduler::new(CostFunction::energy_only(), SimDuration::from_millis(100));
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Breakeven),
        );
        assert_eq!(m.response.count(), 4);
        // All four requests fit one batch: WSC covers them with ONE disk
        // (both data items live on both disks), so only one disk ever
        // spun up.
        let used: Vec<_> = m.per_disk.iter().filter(|d| d.requests > 0).collect();
        assert_eq!(used.len(), 1, "WSC should consolidate onto one disk");
        // Batch queueing delay: responses include up to 0.1 s of waiting.
        assert!(m.response.mean() >= 0.01);
    }

    #[test]
    fn heuristic_consolidates_on_spinning_disk() {
        // After the first request wakes a disk, subsequent requests for
        // data replicated on both disks should pile onto the awake disk.
        let reqs = requests(&[0.0, 12.0, 14.0, 16.0], &[0, 1, 0, 1]);
        let placement = two_disk_placement();
        let mut sched = HeuristicScheduler::new(CostFunction::energy_only());
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Breakeven),
        );
        let used: Vec<_> = m
            .per_disk
            .iter()
            .enumerate()
            .filter(|(_, d)| d.requests > 0)
            .collect();
        assert_eq!(used.len(), 1, "all requests should go to one disk");
        assert_eq!(m.spinups, 1);
    }

    #[test]
    fn empty_request_stream() {
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let m = run_system(
            &[],
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Breakeven),
        );
        assert_eq!(m.requests, 0);
        assert_eq!(m.response.count(), 0);
    }

    #[test]
    fn adaptive_policy_runs() {
        let reqs = requests(&[0.0, 1.0, 2.0, 100.0, 101.0], &[0, 0, 0, 0, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Adaptive),
        );
        assert_eq!(m.response.count(), 5);
    }

    #[test]
    fn quantile_policy_runs() {
        let reqs = requests(&[0.0, 1.0, 2.0, 100.0, 101.0], &[0, 0, 0, 0, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Quantile),
        );
        assert_eq!(m.response.count(), 5);
    }

    #[test]
    fn initial_state_matches_build_path_for_every_policy() {
        // The engine's status placeholder and the disks built by
        // `build_disk` must agree on the initial power state for every
        // policy kind — both now go through `initial_state`, and this
        // pins the build path to it.
        let kinds = [
            PolicyKind::AlwaysOn,
            PolicyKind::Breakeven,
            PolicyKind::FixedTimeout(SimDuration::from_secs(5)),
            PolicyKind::Adaptive,
            PolicyKind::Quantile,
        ];
        for kind in kinds {
            let config = small_config(2, kind.clone());
            let rngs = disk_rngs(&config);
            for d in 0..config.disks {
                let disk = build_disk(&config, d, rngs[d as usize].clone());
                assert_eq!(
                    disk.state(),
                    initial_state(&kind),
                    "policy {kind:?} disk {d}"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_always_on_normalizes_to_one() {
        // Disk 1 overrides to the paper's 1 W idealized model while disk 0
        // stays barracuda (9.3 W idle). An always-on fleet must normalize
        // to ~1.0; the old homogeneous baseline (2 × 9.3 W) would report
        // (9.3 + 1.0) / (2 × 9.3) ≈ 0.55 — energy "saved" by config alone.
        let reqs = requests(&[0.0, 30.0, 60.0], &[0, 1, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let mut config = small_config(2, PolicyKind::AlwaysOn);
        config.power_overrides = vec![(1, PowerParams::paper_example())];
        let m = run_system(&reqs, &placement, &mut sched, &config);
        assert!(
            (m.normalized_energy() - 1.0).abs() < 0.01,
            "normalized {}",
            m.normalized_energy()
        );
    }

    #[test]
    fn heterogeneous_fleet_uses_override_params() {
        // With disk 1 on the 1 W model, an always-on run's total energy
        // must reflect the mixed idle powers, not 2× barracuda.
        let reqs = requests(&[0.0], &[0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let mut config = small_config(2, PolicyKind::AlwaysOn);
        config.power_overrides = vec![(1, PowerParams::paper_example())];
        let m = run_system(&reqs, &placement, &mut sched, &config);
        let horizon_s = m.horizon_s;
        let expected = (9.3 + 1.0) * horizon_s;
        // Active-time corrections are tiny for one request.
        assert!(
            (m.energy_j - expected).abs() / expected < 0.01,
            "energy {} vs mixed-idle expectation {expected}",
            m.energy_j
        );
    }

    #[test]
    fn failed_disk_reroutes_to_surviving_replica() {
        let reqs = requests(&[0.0, 1.0, 2.0], &[0, 0, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let mut config = small_config(2, PolicyKind::Breakeven);
        // Disk 0 (the static scheduler's pick for data 0) fails at t=0.
        config.failures = vec![DiskFailure {
            disk: 0,
            at: SimTime::ZERO,
        }];
        let m = run_system(&reqs, &placement, &mut sched, &config);
        assert_eq!(m.response.count(), 3);
        assert_eq!(m.per_disk[0].requests, 0, "failed disk must get no I/O");
        assert_eq!(m.per_disk[1].requests, 3);
    }

    #[test]
    fn requests_drop_when_every_replica_failed() {
        let reqs = requests(&[0.0, 20.0], &[0, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let mut config = small_config(2, PolicyKind::Breakeven);
        config.failures = vec![
            DiskFailure {
                disk: 0,
                at: SimTime::from_secs(10),
            },
            DiskFailure {
                disk: 1,
                at: SimTime::from_secs(10),
            },
        ];
        let m = run_system(&reqs, &placement, &mut sched, &config);
        // The t=0 request is serviced; the t=20 one has no live replica.
        assert_eq!(m.requests, 2, "drops still count as arrivals");
        assert_eq!(m.response.count(), 1);
    }

    #[test]
    fn power_timeline_samples_when_enabled() {
        let reqs = requests(&[0.0, 1.0, 60.0], &[0, 1, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let mut config = small_config(2, PolicyKind::Breakeven);
        config.power_sample = Some(SimDuration::from_secs(5));
        let m = run_system(&reqs, &placement, &mut sched, &config);
        assert!(
            m.power_timeline.len() >= 5,
            "expected several samples, got {}",
            m.power_timeline.len()
        );
        let params = PowerParams::barracuda();
        for &(t, w) in &m.power_timeline {
            assert!(t >= 0.0);
            assert!(
                (0.0..=2.0 * params.active_w).contains(&w),
                "power sample {w} out of range"
            );
        }
        // Samples are time-ordered.
        assert!(m.power_timeline.windows(2).all(|p| p[0].0 <= p[1].0));
        // Early in the run a disk is spinning; the range of sampled power
        // must vary (disks transition between states).
        let max = m.power_timeline.iter().map(|p| p.1).fold(0.0, f64::max);
        let min = m
            .power_timeline
            .iter()
            .map(|p| p.1)
            .fold(f64::MAX, f64::min);
        assert!(max > min, "power should vary over the run");
    }

    #[test]
    fn power_timeline_empty_when_disabled() {
        let reqs = requests(&[0.0], &[0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Breakeven),
        );
        assert!(m.power_timeline.is_empty());
    }

    #[test]
    fn state_fractions_cover_horizon() {
        let reqs = requests(&[0.0, 5.0, 90.0], &[0, 1, 0]);
        let placement = two_disk_placement();
        let mut sched = StaticScheduler;
        let m = run_system(
            &reqs,
            &placement,
            &mut sched,
            &small_config(2, PolicyKind::Breakeven),
        );
        for d in &m.per_disk {
            let sum: f64 = d.state_fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "fractions sum {sum}");
        }
    }

    #[test]
    fn with_jobs_single_island_equals_serial() {
        // Both data items span both disks: one island, so the parallel
        // entry point must take the serial path (operational fields
        // included).
        let reqs = requests(&[0.0, 1.0, 2.0, 50.0], &[0, 1, 0, 1]);
        let placement = two_disk_placement();
        let config = small_config(2, PolicyKind::Breakeven);
        let mut sched = StaticScheduler;
        let serial = run_system(&reqs, &placement, &mut sched, &config);
        for jobs in [1, 4] {
            let parallel = run_system_with_jobs(
                &reqs,
                &placement,
                &|| Box::new(StaticScheduler),
                &config,
                jobs,
            );
            assert_eq!(serial, parallel, "jobs {jobs}");
        }
    }

    /// A batch scheduler that places every request on its first replica
    /// and logs each dispatch: the instant, the request indices, and the
    /// state of disk 0 as the scheduler saw it.
    struct Recorder {
        interval: SimDuration,
        log: Vec<(SimTime, Vec<u32>, DiskPowerState)>,
    }

    impl Recorder {
        fn new(interval_ms: u64) -> Self {
            Recorder {
                interval: SimDuration::from_millis(interval_ms),
                log: Vec::new(),
            }
        }
    }

    impl Scheduler for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn mode(&self) -> ScheduleMode {
            ScheduleMode::Batch(self.interval)
        }

        fn assign(&mut self, reqs: &[Request], view: &SystemView<'_>) -> Vec<DiskId> {
            let ids = reqs.iter().map(|r| r.index).collect();
            self.log.push((view.now, ids, view.status(DiskId(0)).state));
            reqs.iter().map(|r| view.locations(r.data)[0]).collect()
        }
    }

    fn one_disk_placement() -> ExplicitPlacement {
        ExplicitPlacement::new(vec![vec![DiskId(0)]], 1)
    }

    /// Requests for data 0 at the given times.
    fn reads_at(times_s: &[f64]) -> Vec<Request> {
        requests(times_s, &vec![0; times_s.len()])
    }

    #[test]
    fn arrival_on_a_grid_instant_joins_that_batch() {
        // 0.15 s opens the 0.2 s batch; 0.2 s lands exactly on that tick
        // and rides along; 1 µs later misses it and waits for 0.3 s.
        let reqs = reads_at(&[0.15, 0.2, 0.200_001]);
        let mut rec = Recorder::new(100);
        let config = small_config(1, PolicyKind::AlwaysOn);
        run_system(&reqs, &one_disk_placement(), &mut rec, &config);
        let batches: Vec<(SimTime, Vec<u32>)> = rec
            .log
            .iter()
            .map(|(t, ids, _)| (*t, ids.clone()))
            .collect();
        assert_eq!(
            batches,
            vec![
                (SimTime::from_millis(200), vec![0, 1]),
                (SimTime::from_millis(300), vec![2]),
            ]
        );
    }

    #[test]
    fn first_arrival_at_zero_is_dispatched_at_the_interval() {
        let reqs = reads_at(&[0.0, 0.0]);
        let mut rec = Recorder::new(7);
        run_system(
            &reqs,
            &one_disk_placement(),
            &mut rec,
            &small_config(1, PolicyKind::AlwaysOn),
        );
        assert_eq!(rec.log.len(), 1);
        assert_eq!(rec.log[0].0, SimTime::from_millis(7));
        assert_eq!(rec.log[0].1, vec![0, 1]);
    }

    #[test]
    fn power_sample_at_a_tick_instant_follows_the_interval_order() {
        // One standby disk; an arrival at 0.15 s is dispatched by the
        // 0.2 s tick, which starts a spin-up (0 W rate power, against
        // 0.8 W in standby). A sample due at 0.2 s sees the dispatch iff
        // it was queued after that tick: S < I and S = I do; S > I does
        // not (that sample was queued at 0 s, before the 0.1 s tick
        // queued the 0.2 s one).
        let reqs = reads_at(&[0.15]);
        let standby_w = PowerParams::barracuda().standby_w;
        for (sample_ms, sees_dispatch) in [(50, true), (100, true), (200, false)] {
            let mut config = small_config(1, PolicyKind::Breakeven);
            config.power_sample = Some(SimDuration::from_millis(sample_ms));
            let mut rec = Recorder::new(100);
            let m = run_system(&reqs, &one_disk_placement(), &mut rec, &config);
            assert_eq!(rec.log[0].0, SimTime::from_millis(200));
            let (_, w) = *m
                .power_timeline
                .iter()
                .find(|(t, _)| *t == 0.2)
                .expect("a sample at the tick instant");
            let expected = if sees_dispatch { 0.0 } else { standby_w };
            assert_eq!(w, expected, "sample interval {sample_ms} ms");
        }
    }

    #[test]
    fn spin_up_completing_on_the_grid_precedes_that_tick() {
        // The 0.1 s tick wakes the standby disk; its 10 s spin-up ends at
        // 10.1 s, a grid instant. An arrival at 10.05 s arms that very
        // tick, which must see the finished spin-up: the completion was
        // queued at 0.1 s, long before the tick at 10.1 s would have been.
        let reqs = reads_at(&[0.05, 10.05]);
        let mut rec = Recorder::new(100);
        run_system(
            &reqs,
            &one_disk_placement(),
            &mut rec,
            &small_config(1, PolicyKind::Breakeven),
        );
        assert_eq!(rec.log.len(), 2);
        assert_eq!(rec.log[0].0, SimTime::from_millis(100));
        assert_eq!(rec.log[0].2, DiskPowerState::Standby);
        assert_eq!(rec.log[1].0, SimTime::from_millis(10_100));
        assert_ne!(rec.log[1].2, DiskPowerState::SpinningUp);
    }

    #[test]
    fn event_queued_by_a_dispatch_one_interval_ahead_precedes_that_tick() {
        // A 100 ms spin-up started by the 0.1 s tick's dispatch ends at
        // 0.2 s, exactly one interval ahead. It was queued while the
        // 0.1 s tick was still running — before the 0.2 s tick would have
        // been — so the 0.2 s tick must see the disk spun up.
        let mut config = small_config(1, PolicyKind::Breakeven);
        config.power = PowerParams {
            spinup_s: 0.1,
            ..PowerParams::barracuda()
        };
        let reqs = reads_at(&[0.05, 0.15]);
        let mut rec = Recorder::new(100);
        run_system(&reqs, &one_disk_placement(), &mut rec, &config);
        assert_eq!(rec.log.len(), 2);
        assert_eq!(rec.log[0].2, DiskPowerState::Standby);
        assert_eq!(rec.log[1].0, SimTime::from_millis(200));
        assert_ne!(rec.log[1].2, DiskPowerState::SpinningUp);
    }

    #[test]
    fn island_without_arrivals_schedules_nothing() {
        let mut config = small_config(2, PolicyKind::Breakeven);
        config.power_sample = Some(SimDuration::from_millis(1));
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0)], vec![DiskId(1)]], 2);
        let rngs = disk_rngs(&config);
        let mut engine =
            IslandEngine::new(&placement, &config, Recorder::new(100), &[DiskId(1)], &rngs);
        engine.offer_batch(&[]);
        assert_eq!(engine.next_time(), None);
        let finished = engine.into_finished();
        assert!(finished.sample_times.is_empty());
        assert_eq!(finished.peak_events, 0);
        assert_eq!(finished.last_event, SimTime::ZERO);
    }

    #[test]
    fn armed_tick_lives_beside_the_queue() {
        // Between batches the island holds no tick event: one arrival
        // arms one tick and queues nothing.
        let config = small_config(1, PolicyKind::Breakeven);
        let placement = one_disk_placement();
        let rngs = disk_rngs(&config);
        let mut engine =
            IslandEngine::new(&placement, &config, Recorder::new(100), &[DiskId(0)], &rngs);
        engine.offer_batch(&reads_at(&[1.234_567]));
        assert_eq!(engine.armed, Some(SimTime::from_millis(1_300)));
        assert!(engine.queue.is_empty());
        // The replaced chain's resident tick still counts as one event.
        assert_eq!(engine.peak_events, 1);
    }

    #[test]
    #[should_panic(expected = "batch interval must be positive")]
    fn zero_batch_interval_is_rejected() {
        run_system(
            &reads_at(&[0.0]),
            &one_disk_placement(),
            &mut Recorder::new(0),
            &small_config(1, PolicyKind::Breakeven),
        );
    }

    #[test]
    fn with_jobs_propagates_source_error() {
        // Two singleton islands; the unsorted stream must surface the
        // same error the serial engine reports.
        let placement =
            ExplicitPlacement::new(vec![vec![DiskId(0)], vec![DiskId(1)]], 2);
        let config = small_config(2, PolicyKind::Breakeven);
        let reqs = requests(&[1.0, 0.5], &[0, 1]);
        let run = |jobs| {
            let mut source = reqs.iter().map(|r| Ok::<Request, SourceError>(*r));
            run_system_streamed_with_jobs(
                &mut source,
                &placement,
                &|| Box::new(StaticScheduler),
                &config,
                jobs,
            )
        };
        let serial_err = {
            let mut source = reqs.iter().map(|r| Ok::<Request, SourceError>(*r));
            let mut sched = StaticScheduler;
            run_system_streamed(&mut source, &placement, &mut sched, &config).unwrap_err()
        };
        for jobs in [1, 2] {
            assert_eq!(run(jobs).unwrap_err(), serial_err, "jobs {jobs}");
        }
    }
}
