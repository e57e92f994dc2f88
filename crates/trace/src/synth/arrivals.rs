//! Arrival-time processes: Poisson (smooth) and multi-source Pareto ON/OFF
//! (bursty / self-similar).

use spindown_sim::rng::SimRng;
use spindown_sim::time::SimTime;

/// Generates `n` Poisson arrival times with the given mean rate
/// (arrivals per second), starting at time zero.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn poisson(rng: &mut SimRng, rate: f64, n: usize) -> Vec<SimTime> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.exponential(rate);
        out.push(SimTime::from_secs_f64(t));
    }
    out
}

/// Multi-source Pareto ON/OFF arrival process.
///
/// Each of `sources` independent sources alternates between an ON period
/// (Pareto-distributed duration, during which it emits a Poisson stream at
/// `burst_rate`) and a silent OFF period (Pareto as well). Aggregating many
/// heavy-tailed ON/OFF sources is the classical construction of
/// self-similar traffic (Willinger et al.) and reproduces the burstiness
/// the Cello trace is known for.
#[derive(Debug, Clone)]
pub struct OnOffProcess {
    /// Number of independent ON/OFF sources.
    pub sources: usize,
    /// Pareto shape for ON durations (1 < shape ≤ 2 gives heavy tails).
    pub on_shape: f64,
    /// Pareto scale (minimum) for ON durations, seconds.
    pub on_scale_s: f64,
    /// Pareto shape for OFF durations.
    pub off_shape: f64,
    /// Pareto scale (minimum) for OFF durations, seconds.
    pub off_scale_s: f64,
    /// Poisson rate while a source is ON, arrivals per second.
    pub burst_rate: f64,
}

impl OnOffProcess {
    /// Expected fraction of time a source spends ON.
    pub fn on_fraction(&self) -> f64 {
        let e_on = pareto_mean(self.on_shape, self.on_scale_s);
        let e_off = pareto_mean(self.off_shape, self.off_scale_s);
        e_on / (e_on + e_off)
    }

    /// Expected aggregate arrival rate, arrivals per second.
    pub fn mean_rate(&self) -> f64 {
        self.sources as f64 * self.burst_rate * self.on_fraction()
    }

    /// Generates exactly `n` arrival times (ascending, starting near zero).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `sources == 0`.
    pub fn generate(&self, rng: &mut SimRng, n: usize) -> Vec<SimTime> {
        assert!(self.sources > 0, "need at least one source");
        assert!(
            self.on_shape > 1.0 && self.off_shape > 1.0,
            "Pareto shapes must exceed 1 for finite means"
        );
        assert!(
            self.on_scale_s > 0.0 && self.off_scale_s > 0.0 && self.burst_rate > 0.0,
            "scales and rate must be positive"
        );
        // Simulate each source until we have comfortably more than n
        // aggregate arrivals, then merge and truncate.
        let horizon = 1.3 * n as f64 / self.mean_rate() + self.on_scale_s + self.off_scale_s;
        let mut all: Vec<SimTime> = Vec::with_capacity(n + n / 4);
        for s in 0..self.sources {
            let mut src_rng = rng.fork(s as u64);
            // Random initial phase: start OFF with a random residual.
            let mut t = src_rng.next_f64() * self.off_scale_s;
            while t < horizon {
                // ON period.
                let on_end = t + src_rng.pareto(self.on_shape, self.on_scale_s);
                loop {
                    t += src_rng.exponential(self.burst_rate);
                    if t >= on_end || t >= horizon {
                        break;
                    }
                    all.push(SimTime::from_secs_f64(t));
                }
                t = on_end.max(t.min(horizon));
                // OFF period.
                t += src_rng.pareto(self.off_shape, self.off_scale_s);
            }
        }
        all.sort_unstable();
        all.truncate(n);
        // Degenerate parameterizations can under-produce; extend with a
        // Poisson tail so callers always get n arrivals.
        if all.len() < n {
            let mut t = all.last().map(|x| x.as_secs_f64()).unwrap_or(0.0);
            while all.len() < n {
                t += rng.exponential(self.mean_rate().max(1e-6));
                all.push(SimTime::from_secs_f64(t));
            }
        }
        all
    }
}

impl OnOffProcess {
    /// Lazy equivalent of [`OnOffProcess::generate`]: yields exactly the
    /// same `n` arrival times in the same order, drawing from `rng` at
    /// construction exactly as `generate` would (so a caller's subsequent
    /// draws land on identical values), but merging the per-source
    /// streams on demand with a k-way heap instead of materializing and
    /// sorting the aggregate.
    ///
    /// Construction performs one counting dry run of the sources (clones
    /// of the per-source rngs; no arrival vector is built), so it costs
    /// the same generation work once more but only O(sources) memory —
    /// plus the Poisson fallback tail, which only degenerate
    /// parameterizations produce.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `sources == 0`.
    pub fn stream(&self, rng: &mut SimRng, n: usize) -> OnOffStream {
        assert!(self.sources > 0, "need at least one source");
        assert!(
            self.on_shape > 1.0 && self.off_shape > 1.0,
            "Pareto shapes must exceed 1 for finite means"
        );
        assert!(
            self.on_scale_s > 0.0 && self.off_scale_s > 0.0 && self.burst_rate > 0.0,
            "scales and rate must be positive"
        );
        let horizon = 1.3 * n as f64 / self.mean_rate() + self.on_scale_s + self.off_scale_s;
        let mut sources: Vec<OnOffSource> = (0..self.sources)
            .map(|s| OnOffSource::new(self, rng.fork(s as u64), horizon))
            .collect();

        // Counting dry run: how many arrivals the sources produce and the
        // latest one — `generate` needs both before its fallback draws,
        // and the fallback draws must come off `rng` before any caller
        // draw that follows construction.
        let mut produced = 0usize;
        let mut last = SimTime::ZERO;
        for src in &sources {
            for t in src.clone() {
                produced += 1;
                if t > last {
                    last = t;
                }
            }
        }
        let mut fallback = Vec::new();
        if produced < n {
            let mut t = if produced > 0 {
                last.as_secs_f64()
            } else {
                0.0
            };
            while produced + fallback.len() < n {
                t += rng.exponential(self.mean_rate().max(1e-6));
                fallback.push(SimTime::from_secs_f64(t));
            }
        }

        let mut heap = std::collections::BinaryHeap::with_capacity(sources.len());
        for (i, src) in sources.iter_mut().enumerate() {
            if let Some(t) = src.next() {
                heap.push(std::cmp::Reverse((t, i)));
            }
        }
        OnOffStream {
            sources,
            heap,
            fallback: fallback.into_iter(),
            remaining: n,
        }
    }
}

/// One lazy Pareto-ON/OFF source: replays exactly the rng draws of the
/// corresponding per-source loop in [`OnOffProcess::generate`]. Cloning
/// replays the remaining arrivals identically (the rng clone resumes the
/// same stream).
#[derive(Debug, Clone)]
struct OnOffSource {
    rng: SimRng,
    t: f64,
    on_end: f64,
    horizon: f64,
    in_on: bool,
    on_shape: f64,
    on_scale_s: f64,
    off_shape: f64,
    off_scale_s: f64,
    burst_rate: f64,
}

impl OnOffSource {
    fn new(proc: &OnOffProcess, mut rng: SimRng, horizon: f64) -> Self {
        // Random initial phase: start OFF with a random residual.
        let t = rng.next_f64() * proc.off_scale_s;
        OnOffSource {
            rng,
            t,
            on_end: 0.0,
            horizon,
            in_on: false,
            on_shape: proc.on_shape,
            on_scale_s: proc.on_scale_s,
            off_shape: proc.off_shape,
            off_scale_s: proc.off_scale_s,
            burst_rate: proc.burst_rate,
        }
    }
}

impl Iterator for OnOffSource {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        loop {
            if !self.in_on {
                if self.t >= self.horizon {
                    return None;
                }
                // ON period.
                self.on_end = self.t + self.rng.pareto(self.on_shape, self.on_scale_s);
                self.in_on = true;
            }
            self.t += self.rng.exponential(self.burst_rate);
            if self.t >= self.on_end || self.t >= self.horizon {
                self.t = self.on_end.max(self.t.min(self.horizon));
                // OFF period.
                self.t += self.rng.pareto(self.off_shape, self.off_scale_s);
                self.in_on = false;
                continue;
            }
            return Some(SimTime::from_secs_f64(self.t));
        }
    }
}

/// Lazy aggregate of [`OnOffProcess`] sources — see
/// [`OnOffProcess::stream`]. Yields exactly `n` ascending arrival times.
#[derive(Debug)]
pub struct OnOffStream {
    sources: Vec<OnOffSource>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
    fallback: std::vec::IntoIter<SimTime>,
    remaining: usize,
}

impl Iterator for OnOffStream {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.remaining == 0 {
            return None;
        }
        let t = if let Some(std::cmp::Reverse((t, i))) = self.heap.pop() {
            if let Some(next) = self.sources[i].next() {
                self.heap.push(std::cmp::Reverse((next, i)));
            }
            t
        } else {
            self.fallback.next()?
        };
        self.remaining -= 1;
        Some(t)
    }
}

fn pareto_mean(shape: f64, scale: f64) -> f64 {
    if shape <= 1.0 {
        f64::INFINITY
    } else {
        shape * scale / (shape - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_count_and_order() {
        let mut rng = SimRng::seed_from_u64(1);
        let ts = poisson(&mut rng, 10.0, 1000);
        assert_eq!(ts.len(), 1000);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        // 1000 arrivals at 10/s should take roughly 100 s.
        let span = ts.last().unwrap().as_secs_f64();
        assert!((70.0..140.0).contains(&span), "span {span}");
    }

    #[test]
    fn poisson_interarrival_cv_is_one() {
        let mut rng = SimRng::seed_from_u64(2);
        let ts = poisson(&mut rng, 5.0, 20_000);
        let gaps: Vec<f64> = ts
            .windows(2)
            .map(|w| w[1].as_secs_f64() - w[0].as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    fn bursty() -> OnOffProcess {
        OnOffProcess {
            sources: 20,
            on_shape: 1.5,
            on_scale_s: 1.0,
            off_shape: 1.3,
            off_scale_s: 10.0,
            burst_rate: 40.0,
        }
    }

    #[test]
    fn onoff_produces_exact_count_sorted() {
        let mut rng = SimRng::seed_from_u64(3);
        let ts = bursty().generate(&mut rng, 5000);
        assert_eq!(ts.len(), 5000);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn onoff_is_burstier_than_poisson() {
        let mut rng = SimRng::seed_from_u64(4);
        let proc = bursty();
        let ts = proc.generate(&mut rng, 30_000);
        let gaps: Vec<f64> = ts
            .windows(2)
            .map(|w| w[1].as_secs_f64() - w[0].as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(
            cv > 1.5,
            "ON/OFF inter-arrival CV should exceed Poisson's 1, got {cv}"
        );
    }

    #[test]
    fn onoff_mean_rate_estimate_is_sane() {
        let proc = bursty();
        let frac = proc.on_fraction();
        assert!(frac > 0.0 && frac < 1.0);
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let ts = proc.generate(&mut rng, n);
        let span = ts.last().unwrap().as_secs_f64();
        let measured = n as f64 / span;
        // Within a factor of 2 of the analytic estimate (heavy tails make
        // this noisy by construction).
        assert!(
            measured > proc.mean_rate() / 2.0 && measured < proc.mean_rate() * 2.0,
            "measured {measured} vs estimate {}",
            proc.mean_rate()
        );
    }

    #[test]
    fn onoff_is_deterministic_per_seed() {
        let a = bursty().generate(&mut SimRng::seed_from_u64(7), 1000);
        let b = bursty().generate(&mut SimRng::seed_from_u64(7), 1000);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "shapes must exceed 1")]
    fn onoff_rejects_infinite_mean() {
        let mut p = bursty();
        p.on_shape = 0.9;
        p.generate(&mut SimRng::seed_from_u64(0), 10);
    }

    /// The lazy stream must replay `generate` bit-for-bit: same arrival
    /// times AND the same post-call rng position (callers interleave
    /// further draws).
    #[test]
    fn onoff_stream_matches_generate_and_rng_position() {
        for seed in [3u64, 7, 11] {
            let proc = bursty();
            let mut rng_a = SimRng::seed_from_u64(seed);
            let batch = proc.generate(&mut rng_a, 5_000);
            let mut rng_b = SimRng::seed_from_u64(seed);
            let streamed: Vec<SimTime> = proc.stream(&mut rng_b, 5_000).collect();
            assert_eq!(streamed, batch);
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "rng position differs");
        }
    }

    /// Degenerate parameterizations exercise the Poisson fallback tail.
    #[test]
    fn onoff_stream_matches_generate_with_fallback() {
        // Heavy-tailed ON durations make typical ON periods far shorter
        // than the analytic mean the horizon is sized from, so the
        // sources under-produce and the Poisson tail kicks in.
        let proc = OnOffProcess {
            sources: 2,
            on_shape: 1.02,
            on_scale_s: 0.1,
            off_shape: 3.0,
            off_scale_s: 5.0,
            burst_rate: 2.0,
        };
        let mut rng_a = SimRng::seed_from_u64(9);
        let batch = proc.generate(&mut rng_a, 400);
        let mut rng_b = SimRng::seed_from_u64(9);
        let streamed: Vec<SimTime> = proc.stream(&mut rng_b, 400).collect();
        assert_eq!(streamed.len(), 400);
        assert_eq!(streamed, batch);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }
}
