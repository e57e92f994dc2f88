//! Power-management policies: when does an idle disk spin down?
//!
//! The paper's storage system uses **2CPM** — spin down after a fixed
//! idleness threshold equal to the breakeven time `TB` — which is
//! 2-competitive against the offline optimum (Irani et al. \[11\]). This
//! module also ships an always-on policy (the normalization baseline of
//! Fig. 6) and an adaptive-threshold policy used by the ablation benches.

use spindown_sim::stats::LatencyHistogram;
use spindown_sim::time::{SimDuration, SimTime};

use crate::power::PowerParams;

/// Decides how long a disk may sit idle before being spun down.
///
/// Policies are stateful so that adaptive implementations can learn from
/// the arrival process; [`IdlePolicy::on_request`] is invoked on every
/// request the disk receives.
pub trait IdlePolicy: std::fmt::Debug + Send {
    /// Called when the disk enters the idle state at `now`. Returns the
    /// idle duration after which the disk should spin down, or `None` to
    /// keep it spinning indefinitely.
    fn idle_timeout(&mut self, now: SimTime) -> Option<SimDuration>;

    /// Called whenever the disk receives a request (idle period ended).
    fn on_request(&mut self, _now: SimTime) {}

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// Never spin down — the paper's "always-on" baseline configuration.
#[derive(Debug, Clone, Default)]
pub struct AlwaysOn;

impl IdlePolicy for AlwaysOn {
    fn idle_timeout(&mut self, _now: SimTime) -> Option<SimDuration> {
        None
    }

    fn name(&self) -> &'static str {
        "always-on"
    }
}

/// 2CPM: spin down after a fixed threshold (the breakeven time by default).
#[derive(Debug, Clone)]
pub struct FixedThreshold {
    threshold: SimDuration,
}

impl FixedThreshold {
    /// Fixed threshold of exactly `threshold`.
    pub fn new(threshold: SimDuration) -> Self {
        FixedThreshold { threshold }
    }

    /// The canonical 2CPM configuration: threshold = breakeven time
    /// `TB = E_up/down / P_I` derived from `params`.
    pub fn breakeven(params: &PowerParams) -> Self {
        FixedThreshold {
            threshold: params.breakeven(),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> SimDuration {
        self.threshold
    }
}

impl IdlePolicy for FixedThreshold {
    fn idle_timeout(&mut self, _now: SimTime) -> Option<SimDuration> {
        Some(self.threshold)
    }

    fn name(&self) -> &'static str {
        "2cpm"
    }
}

/// Adaptive threshold (ablation, not in the paper): keeps an exponentially
/// weighted average of observed idle-period lengths and spins down after
/// `scale ×` that average, clamped to `[min, max]`.
///
/// Intuition: if recent idle periods were short, waiting longer avoids
/// wasted spin cycles; if they were long, spinning down sooner saves idle
/// energy.
#[derive(Debug, Clone)]
pub struct AdaptiveThreshold {
    avg_idle_s: f64,
    alpha: f64,
    scale: f64,
    min: SimDuration,
    max: SimDuration,
    /// Idle-entry time and the timeout issued for that idle period. The
    /// timeout caps the EWMA sample: once it fires the disk is in standby,
    /// so the remainder of the gap is standby time, not idle time.
    idle_since: Option<(SimTime, SimDuration)>,
}

impl AdaptiveThreshold {
    /// Creates the policy with smoothing factor `alpha ∈ (0,1]`, threshold
    /// multiplier `scale`, and clamping bounds. The initial average is the
    /// midpoint of the bounds.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`, `scale` is not positive, or
    /// `min > max`.
    pub fn new(alpha: f64, scale: f64, min: SimDuration, max: SimDuration) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(scale > 0.0, "scale must be positive");
        assert!(min <= max, "min must not exceed max");
        AdaptiveThreshold {
            avg_idle_s: (min.as_secs_f64() + max.as_secs_f64()) / 2.0,
            alpha,
            scale,
            min,
            max,
            idle_since: None,
        }
    }

    /// Current smoothed idle-period estimate, seconds.
    pub fn estimate_s(&self) -> f64 {
        self.avg_idle_s
    }
}

impl IdlePolicy for AdaptiveThreshold {
    fn idle_timeout(&mut self, now: SimTime) -> Option<SimDuration> {
        let t = SimDuration::from_secs_f64(self.avg_idle_s * self.scale).clamp(self.min, self.max);
        self.idle_since = Some((now, t));
        Some(t)
    }

    fn on_request(&mut self, now: SimTime) {
        if let Some((since, issued)) = self.idle_since.take() {
            // The idle period ends when the issued timeout fires (the disk
            // spins down); anything past that is standby time. Feeding the
            // raw gap would drift the estimate toward `max` on sparse
            // loads and effectively disable spin-down.
            let observed = now.saturating_since(since).min(issued).as_secs_f64();
            self.avg_idle_s = self.alpha * observed + (1.0 - self.alpha) * self.avg_idle_s;
        }
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

/// Fleet-level spin-up-storm damper: rations *early* (pre-breakeven)
/// spin-downs so a correlated lull can't put the whole fleet into standby
/// at once — the flash crowd that follows would then stampede every disk
/// through a simultaneous spin-up transition.
///
/// The fleet budget is apportioned per disk at build time: each disk may
/// take at most one early spin-down per `period`, and the period
/// boundaries are phase-staggered across the fleet
/// ([`StormDamper::for_disk`]), so at most `fleet / period` early standby
/// entries can align in any window. Each grant is a pure function of the
/// requesting disk's own clock and state — no cross-disk mutation — so
/// the decision is identical whether islands replay serially or in
/// parallel.
#[derive(Debug, Clone)]
pub struct StormDamper {
    period: SimDuration,
    phase_s: f64,
    last_grant: Option<u64>,
}

impl StormDamper {
    /// Damper with refill `period` and a fixed boundary `phase` offset.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration, phase: SimDuration) -> Self {
        assert!(period > SimDuration::ZERO, "damper period must be positive");
        StormDamper {
            period,
            phase_s: phase.as_secs_f64(),
            last_grant: None,
        }
    }

    /// The damper for disk `disk` of a fleet of `fleet` disks: period
    /// boundaries staggered by `disk / fleet` of a period so the fleet's
    /// early spin-downs spread over time instead of aligning.
    pub fn for_disk(period: SimDuration, disk: u32, fleet: u32) -> Self {
        let fleet = fleet.max(1);
        let phase =
            SimDuration::from_secs_f64(period.as_secs_f64() * (disk % fleet) as f64 / fleet as f64);
        StormDamper::new(period, phase)
    }

    /// Requests an early-spin-down token at `now`. Grants at most once per
    /// (phase-shifted) period.
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        let idx = ((now.as_secs_f64() + self.phase_s) / self.period.as_secs_f64()) as u64;
        if self.last_grant == Some(idx) {
            return false;
        }
        self.last_grant = Some(idx);
        true
    }
}

/// Candidate-threshold grid growth for [`QuantileThreshold`]: idle-entry
/// scans thresholds `guard, guard·1.25, guard·1.25², …` up to breakeven —
/// the same geometric growth as the histogram buckets, so candidates and
/// bucket edges stay roughly aligned.
const QUANTILE_GRID_GROWTH: f64 = 1.25;

/// Predictive spin-down (Behzadnia et al.-style online prediction): learns
/// this disk's idle-period length distribution in a fixed-bucket geometric
/// histogram (the [`LatencyHistogram`] bucket geometry) and spins down
/// *before* the breakeven time only when the learned tail says the idle
/// period that just began will outlast breakeven with high confidence.
///
/// At idle entry the policy scans candidate thresholds `t` on a geometric
/// grid below breakeven and picks the smallest with
/// `P(idle > t + TB | idle > t) ≥ confidence` — i.e. once the disk has
/// been idle for `t`, the *remaining* idle is confidently longer than the
/// breakeven time `TB`, so spinning down at `t` pays for the transition.
/// When no candidate is confident, too few idle periods have been
/// observed, or the fleet-level [`StormDamper`] refuses a token, it falls
/// back to the plain 2CPM breakeven threshold — the worst case stays
/// 2-competitive.
///
/// The histogram records the **full** gap from idle entry to the next
/// request (standby time included): that is the honest sample of the
/// idle-period *length* the tail estimate needs, unlike the EWMA
/// threshold in [`AdaptiveThreshold`], which must cap at the issued
/// timeout because its estimate is itself the next timeout.
#[derive(Debug)]
pub struct QuantileThreshold {
    hist: LatencyHistogram,
    breakeven: SimDuration,
    confidence: f64,
    min_samples: u64,
    guard_s: f64,
    damper: Option<StormDamper>,
    idle_since: Option<SimTime>,
}

impl QuantileThreshold {
    /// Number of observed idle periods required before the tail estimate
    /// is trusted; below this the policy behaves exactly like 2CPM.
    pub const MIN_SAMPLES: u64 = 12;

    /// Creates the policy for a disk with power model `params`, spinning
    /// down early only at `confidence ∈ (0, 1]` in the conditional tail.
    /// The earliest considered threshold (`guard`) is `TB / 16`, clamped
    /// to at least the spin-down transition time — spinning down faster
    /// than the platter can stop is meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is outside `(0, 1]`.
    pub fn new(params: &PowerParams, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence <= 1.0,
            "confidence must be in (0,1]"
        );
        let tb = params.breakeven_secs();
        QuantileThreshold {
            // Idle periods run milliseconds to hours: 1 ms × 1.25⁹⁶ ≈ 2×10⁶ s.
            hist: LatencyHistogram::new(1e-3, 1.25, 96),
            breakeven: params.breakeven(),
            confidence,
            min_samples: Self::MIN_SAMPLES,
            guard_s: (tb / 16.0).max(params.spindown_s),
            damper: None,
            idle_since: None,
        }
    }

    /// Attaches the fleet-level spin-up-storm damper consulted before
    /// every early (pre-breakeven) spin-down.
    pub fn with_damper(mut self, damper: StormDamper) -> Self {
        self.damper = Some(damper);
        self
    }

    /// Observed idle periods so far.
    pub fn samples(&self) -> u64 {
        self.hist.count()
    }

    /// The smallest confident early threshold right now, if any — the
    /// value [`IdlePolicy::idle_timeout`] would return before damping.
    pub fn early_threshold_s(&self) -> Option<f64> {
        if self.hist.count() < self.min_samples {
            return None;
        }
        let tb = self.breakeven.as_secs_f64();
        let mut t = self.guard_s;
        while t < tb {
            let s_t = self.hist.fraction_above(t);
            if s_t <= 0.0 {
                return None;
            }
            if self.hist.fraction_above(t + tb) / s_t >= self.confidence {
                return Some(t);
            }
            t *= QUANTILE_GRID_GROWTH;
        }
        None
    }
}

impl IdlePolicy for QuantileThreshold {
    fn idle_timeout(&mut self, now: SimTime) -> Option<SimDuration> {
        self.idle_since = Some(now);
        if let Some(t) = self.early_threshold_s() {
            let granted = match self.damper.as_mut() {
                Some(d) => d.try_acquire(now),
                None => true,
            };
            if granted {
                return Some(SimDuration::from_secs_f64(t));
            }
        }
        Some(self.breakeven)
    }

    fn on_request(&mut self, now: SimTime) {
        if let Some(since) = self.idle_since.take() {
            self.hist.record(now.saturating_since(since));
        }
    }

    fn name(&self) -> &'static str {
        "quantile"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_never_times_out() {
        let mut p = AlwaysOn;
        assert_eq!(p.idle_timeout(SimTime::ZERO), None);
        assert_eq!(p.name(), "always-on");
    }

    #[test]
    fn fixed_threshold_is_constant() {
        let mut p = FixedThreshold::new(SimDuration::from_secs(7));
        assert_eq!(
            p.idle_timeout(SimTime::ZERO),
            Some(SimDuration::from_secs(7))
        );
        assert_eq!(
            p.idle_timeout(SimTime::from_secs(1000)),
            Some(SimDuration::from_secs(7))
        );
        assert_eq!(p.threshold(), SimDuration::from_secs(7));
    }

    #[test]
    fn breakeven_threshold_matches_params() {
        let params = PowerParams::barracuda();
        let mut p = FixedThreshold::breakeven(&params);
        assert_eq!(p.idle_timeout(SimTime::ZERO), Some(params.breakeven()));
        assert_eq!(p.name(), "2cpm");
    }

    #[test]
    fn adaptive_learns_short_idle_periods() {
        let mut p = AdaptiveThreshold::new(
            0.5,
            1.0,
            SimDuration::from_secs(1),
            SimDuration::from_secs(100),
        );
        let initial = p.estimate_s();
        // Repeatedly observe 2-second idle periods.
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            p.idle_timeout(now);
            now += SimDuration::from_secs(2);
            p.on_request(now);
        }
        assert!(p.estimate_s() < initial);
        assert!((p.estimate_s() - 2.0).abs() < 0.1, "est {}", p.estimate_s());
    }

    #[test]
    fn adaptive_clamps_to_bounds() {
        let mut p = AdaptiveThreshold::new(
            1.0,
            1.0,
            SimDuration::from_secs(5),
            SimDuration::from_secs(10),
        );
        // Force the average very low.
        p.idle_timeout(SimTime::ZERO);
        p.on_request(SimTime::from_millis(1));
        let t = p.idle_timeout(SimTime::from_secs(1)).unwrap();
        assert_eq!(t, SimDuration::from_secs(5));
        // Max clamp: scale 2× pushes the midpoint estimate (7.5 s) to 15 s,
        // above the 10 s cap.
        let mut q = AdaptiveThreshold::new(
            1.0,
            2.0,
            SimDuration::from_secs(5),
            SimDuration::from_secs(10),
        );
        let t = q.idle_timeout(SimTime::ZERO).unwrap();
        assert_eq!(t, SimDuration::from_secs(10));
    }

    #[test]
    fn adaptive_caps_sample_at_issued_timeout() {
        // A disk that spins down and then sleeps for hours must not feed the
        // whole gap into the EWMA: everything past the issued timeout was
        // standby time. The estimate may rise to the issued timeout but not
        // chase the raw gap toward `max`.
        let mut p = AdaptiveThreshold::new(
            1.0,
            1.0,
            SimDuration::from_secs(1),
            SimDuration::from_secs(100),
        );
        let issued = p.idle_timeout(SimTime::ZERO).unwrap();
        assert!(issued < SimDuration::from_secs(100));
        // Next request arrives hours later; the disk spent almost all of the
        // gap in standby.
        p.on_request(SimTime::from_secs(10_000));
        assert!(
            (p.estimate_s() - issued.as_secs_f64()).abs() < 1e-9,
            "estimate {} should equal issued timeout {}",
            p.estimate_s(),
            issued.as_secs_f64()
        );
        // Spin-down therefore stays enabled instead of saturating at `max`.
        let next = p.idle_timeout(SimTime::from_secs(10_000)).unwrap();
        assert!(next < SimDuration::from_secs(100), "next {next:?}");
    }

    #[test]
    fn adaptive_ignores_request_without_idle() {
        let mut p = AdaptiveThreshold::new(
            0.5,
            1.0,
            SimDuration::from_secs(1),
            SimDuration::from_secs(100),
        );
        let before = p.estimate_s();
        p.on_request(SimTime::from_secs(50));
        assert_eq!(p.estimate_s(), before);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn adaptive_rejects_bad_alpha() {
        AdaptiveThreshold::new(0.0, 1.0, SimDuration::ZERO, SimDuration::MAX);
    }

    /// Trains a quantile policy on a bimodal idle distribution: alternating
    /// 200 s (far beyond breakeven) and 0.5 s (far below) idle periods.
    fn train_bimodal(p: &mut QuantileThreshold, mut now: SimTime) -> SimTime {
        for _ in 0..20 {
            p.idle_timeout(now);
            now += SimDuration::from_secs(200);
            p.on_request(now);
            p.idle_timeout(now);
            now += SimDuration::from_millis(500);
            p.on_request(now);
        }
        now
    }

    #[test]
    fn quantile_falls_back_to_breakeven_without_samples() {
        let params = PowerParams::barracuda();
        let mut p = QuantileThreshold::new(&params, 0.8);
        assert_eq!(p.idle_timeout(SimTime::ZERO), Some(params.breakeven()));
        assert_eq!(p.early_threshold_s(), None);
        assert_eq!(p.name(), "quantile");
    }

    #[test]
    fn quantile_spins_down_early_on_long_tailed_idles() {
        let params = PowerParams::barracuda();
        let mut p = QuantileThreshold::new(&params, 0.8);
        let now = train_bimodal(&mut p, SimTime::ZERO);
        assert_eq!(p.samples(), 40);
        // Half the mass sits at 200 s: once an idle period survives the
        // short mode, it confidently outlasts breakeven, so the policy
        // spins down near the guard threshold instead of waiting ~15.9 s.
        let t = p.idle_timeout(now).unwrap();
        assert!(t < params.breakeven(), "early threshold {t:?}");
        assert!(
            (t.as_secs_f64() - params.spindown_s).abs() < 1.0,
            "expected ~guard ({} s), got {} s",
            params.spindown_s,
            t.as_secs_f64()
        );
    }

    #[test]
    fn quantile_stays_at_breakeven_on_short_idles() {
        // Every observed idle period is 2 s — nothing ever outlasts
        // breakeven, so early spin-down would always be wasted.
        let params = PowerParams::barracuda();
        let mut p = QuantileThreshold::new(&params, 0.8);
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            p.idle_timeout(now);
            now += SimDuration::from_secs(2);
            p.on_request(now);
        }
        assert_eq!(p.early_threshold_s(), None);
        assert_eq!(p.idle_timeout(now), Some(params.breakeven()));
    }

    #[test]
    fn storm_damper_rations_grants_per_period() {
        let mut d = StormDamper::new(SimDuration::from_secs(10), SimDuration::ZERO);
        assert!(d.try_acquire(SimTime::ZERO));
        assert!(!d.try_acquire(SimTime::from_secs(5)));
        assert!(d.try_acquire(SimTime::from_secs(12)));
        assert!(!d.try_acquire(SimTime::from_secs(19)));
        // Phase staggering shifts the boundary per disk.
        let a = StormDamper::for_disk(SimDuration::from_secs(10), 0, 2);
        let b = StormDamper::for_disk(SimDuration::from_secs(10), 1, 2);
        assert_eq!(a.phase_s, 0.0);
        assert_eq!(b.phase_s, 5.0);
    }

    #[test]
    fn quantile_damper_blocks_repeat_early_spindowns() {
        let params = PowerParams::barracuda();
        let mut p = QuantileThreshold::new(&params, 0.8).with_damper(StormDamper::new(
            SimDuration::from_secs(100_000),
            SimDuration::ZERO,
        ));
        // Training crosses the min-sample threshold inside period 0 and
        // consumes that period's early-spin-down token.
        let now = train_bimodal(&mut p, SimTime::ZERO);
        let t = p.idle_timeout(now).unwrap();
        assert_eq!(t, params.breakeven(), "token already spent this period");
        p.on_request(now + SimDuration::from_secs(200));
        // A fresh period refills the token.
        let later = SimTime::from_secs(250_000);
        let t = p.idle_timeout(later).unwrap();
        assert!(t < params.breakeven(), "fresh period should grant: {t:?}");
    }
}
