//! Deterministic property checks for the disk state machine: pseudo-random
//! arrival sequences (seeded `spindown_sim` RNG, identical cases every run)
//! driven through a miniature event loop must preserve the core
//! invariants, and the 2CPM policy must stay within its competitive bound
//! of the offline-optimal single-disk policy.

use spindown_disk::disk::{Disk, DiskEvent, DiskRequest};
use spindown_disk::mechanics::{DiskGeometry, Mechanics};
use spindown_disk::policy::{AlwaysOn, FixedThreshold};
use spindown_disk::power::PowerParams;
use spindown_disk::queue::QueueDiscipline;
use spindown_disk::state::DiskPowerState;
use spindown_sim::rng::SimRng;
use spindown_sim::time::{SimDuration, SimTime};

/// Drives one disk over a fixed arrival list; returns (completions in
/// completion order, final horizon).
fn drive(disk: &mut Disk, arrivals: &[(SimTime, DiskRequest)]) -> (Vec<u64>, SimTime) {
    #[derive(Debug)]
    enum Ev {
        Arrive(DiskRequest),
        Disk(DiskEvent),
    }
    let mut queue = spindown_sim::event::EventQueue::new();
    for (t, r) in arrivals {
        queue.schedule(*t, Ev::Arrive(*r));
    }
    let mut completed = Vec::new();
    let mut last = SimTime::ZERO;
    while let Some(ev) = queue.pop() {
        last = ev.at;
        match ev.payload {
            Ev::Arrive(r) => {
                if let Some(d) = disk.enqueue(ev.at, r) {
                    queue.schedule(ev.at + d.after, Ev::Disk(d.event));
                }
            }
            Ev::Disk(e) => {
                let out = disk.handle(ev.at, e);
                if let Some(r) = out.completed {
                    completed.push(r.id);
                }
                if let Some(d) = out.directive {
                    queue.schedule(ev.at + d.after, Ev::Disk(d.event));
                }
            }
        }
    }
    (completed, last)
}

fn arrivals_from(gaps_ms: &[u64]) -> Vec<(SimTime, DiskRequest)> {
    let mut t = SimTime::ZERO;
    gaps_ms
        .iter()
        .enumerate()
        .map(|(i, &gap)| {
            t += SimDuration::from_millis(gap);
            (
                t,
                DiskRequest {
                    id: i as u64,
                    lba: (i as u64).wrapping_mul(7_919_777_001),
                    size: 64 * 1024,
                },
            )
        })
        .collect()
}

fn random_gaps(rng: &mut SimRng, max_gap_ms: u64, max_len: usize) -> Vec<u64> {
    let len = 1 + rng.index(max_len - 1);
    (0..len).map(|_| rng.next_below(max_gap_ms)).collect()
}

fn make_disk(discipline: QueueDiscipline, policy_2cpm: bool) -> Disk {
    let params = PowerParams::barracuda();
    let policy: Box<dyn spindown_disk::policy::IdlePolicy> = if policy_2cpm {
        Box::new(FixedThreshold::breakeven(&params))
    } else {
        Box::new(AlwaysOn)
    };
    Disk::with_discipline(
        params,
        Mechanics::new(DiskGeometry::cheetah_15k5(), SimRng::seed_from_u64(7)),
        policy,
        if policy_2cpm {
            DiskPowerState::Standby
        } else {
            DiskPowerState::Idle
        },
        SimTime::ZERO,
        discipline,
    )
}

/// Every request completes exactly once, whatever the arrival pattern
/// and discipline.
#[test]
fn all_requests_complete_exactly_once() {
    let mut rng = SimRng::seed_from_u64(0xd15c1);
    let disciplines = [
        QueueDiscipline::Fcfs,
        QueueDiscipline::Sstf,
        QueueDiscipline::Elevator,
    ];
    for case in 0..48 {
        let gaps = random_gaps(&mut rng, 40_000, 40);
        let discipline = disciplines[case % disciplines.len()];
        let arrivals = arrivals_from(&gaps);
        let mut disk = make_disk(discipline, true);
        let (mut completed, _) = drive(&mut disk, &arrivals);
        completed.sort_unstable();
        assert_eq!(completed, (0..gaps.len() as u64).collect::<Vec<_>>());
        assert_eq!(disk.load(), 0, "queue fully drained");
    }
}

/// FCFS preserves arrival order in the completion stream.
#[test]
fn fcfs_completions_are_in_order() {
    let mut rng = SimRng::seed_from_u64(0xd15c2);
    for _ in 0..48 {
        let gaps = random_gaps(&mut rng, 40_000, 40);
        let arrivals = arrivals_from(&gaps);
        let mut disk = make_disk(QueueDiscipline::Fcfs, true);
        let (completed, _) = drive(&mut disk, &arrivals);
        assert!(completed.windows(2).all(|w| w[0] < w[1]));
    }
}

/// Energy accounting: state fractions partition the horizon, spin-ups
/// and spin-downs balance, and total energy sits between the standby
/// floor and the always-on ceiling plus transition lumps.
#[test]
fn energy_invariants() {
    let mut rng = SimRng::seed_from_u64(0xd15c3);
    for _ in 0..48 {
        let gaps = random_gaps(&mut rng, 60_000, 40);
        let arrivals = arrivals_from(&gaps);
        let mut disk = make_disk(QueueDiscipline::Fcfs, true);
        let (_, horizon) = drive(&mut disk, &arrivals);
        let horizon = horizon + SimDuration::from_secs(1);
        let params = disk.params().clone();

        let fr = disk.meter().state_fractions(horizon);
        let sum: f64 = fr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "fractions sum {sum}");

        let ups = disk.meter().spinups();
        let downs = disk.meter().spindowns();
        // Starts standby: every up is preceded by nothing or a down; the
        // final state may leave one transition unmatched.
        assert!(ups.abs_diff(downs) <= 1, "ups {ups} downs {downs}");

        let e = disk.energy_j(horizon);
        let h = horizon.as_secs_f64();
        let floor = params.standby_w * h * 0.5; // generous floor
        let ceiling = params.active_w * h + (ups + downs) as f64 * params.transition_j();
        assert!(e >= floor, "energy {e} below floor {floor}");
        assert!(e <= ceiling, "energy {e} above ceiling {ceiling}");
    }
}

/// Responses are causal: completion time ≥ arrival time, and with an
/// always-on disk the response never includes a spin-up wait.
#[test]
fn always_on_never_waits_for_spinup() {
    let mut rng = SimRng::seed_from_u64(0xd15c4);
    for _ in 0..48 {
        let gaps = random_gaps(&mut rng, 20_000, 30);
        let arrivals = arrivals_from(&gaps);
        let mut disk = make_disk(QueueDiscipline::Fcfs, false);
        let (completed, _) = drive(&mut disk, &arrivals);
        assert_eq!(completed.len(), gaps.len());
        assert_eq!(disk.meter().spinups(), 0);
        assert_eq!(disk.meter().spindowns(), 0);
    }
}

/// 2CPM competitiveness: its energy is at most ~2× the offline-optimal
/// per-gap policy (idle through the gap, or pay the transition and
/// sleep), plus bounded additive slack for service/edge effects.
#[test]
fn two_cpm_is_two_competitive() {
    let mut rng = SimRng::seed_from_u64(0xd15c5);
    for _ in 0..48 {
        let mut gaps = random_gaps(&mut rng, 120_000, 40);
        if gaps.len() < 2 {
            gaps.push(rng.next_below(120_000));
        }
        let arrivals = arrivals_from(&gaps);
        let mut disk = make_disk(QueueDiscipline::Fcfs, true);
        let (_, end) = drive(&mut disk, &arrivals);
        let actual = disk.energy_j(end);
        let params = disk.params().clone();

        // Offline optimum (lower bound): per inter-arrival gap take the
        // cheaper of idling through or a full sleep cycle; ignore service
        // time (it only adds energy to the actual run).
        let mut optimal = params.spinup_j; // must wake for the first request
        for w in arrivals.windows(2) {
            let g = (w[1].0 - w[0].0).as_secs_f64();
            let idle = g * params.idle_w;
            let sleep =
                params.transition_j() + params.standby_w * (g - params.transition_s()).max(0.0);
            optimal += idle.min(sleep);
        }
        assert!(
            actual >= optimal * 0.99 - 1.0,
            "actual {actual} below the offline lower bound {optimal}"
        );
        // 2-competitive bound with additive slack for the tail (one
        // breakeven of idling + one transition) and active-power service.
        let slack = params.max_request_energy_j() + arrivals.len() as f64 * 0.02 * params.active_w;
        assert!(
            actual <= 2.0 * optimal + slack,
            "actual {actual} above 2x optimal {optimal} + slack {slack}"
        );
    }
}
