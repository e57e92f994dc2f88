//! Deterministic property checks for the simulation kernel: the event
//! queue against a sorted reference, histogram quantiles against exact
//! order statistics, and statistics accumulators against direct
//! computation. Cases are pseudo-randomly generated with the crate's own
//! seeded RNG, so every run exercises the identical instances.

use spindown_sim::event::EventQueue;
use spindown_sim::rng::{AliasTable, SimRng, Zipf};
use spindown_sim::stats::{LatencyHistogram, OnlineStats};
use spindown_sim::time::{SimDuration, SimTime};

fn random_vec(rng: &mut SimRng, max_len: usize, min_len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let len = min_len + rng.index(max_len - min_len);
    (0..len).map(|_| lo + rng.next_f64() * (hi - lo)).collect()
}

/// Popping the queue yields exactly a stable sort of the scheduled
/// events (by time, ties by insertion order).
#[test]
fn event_queue_is_a_stable_sort() {
    let mut rng = SimRng::seed_from_u64(0x51b1);
    for _ in 0..64 {
        let times: Vec<u64> = (0..rng.index(200)).map(|_| rng.next_below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, i)| (t, i)); // stable by construction
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push((e.at.as_micros(), e.payload));
        }
        assert_eq!(got, expect);
    }
}

/// Histogram quantiles bracket the exact order statistics within one
/// bucket's relative width.
#[test]
fn histogram_quantiles_bracket_exact() {
    let mut rng = SimRng::seed_from_u64(0x51b2);
    for _ in 0..64 {
        let values = random_vec(&mut rng, 300, 1, 1e-5, 100.0);
        let q = rng.next_f64();
        let mut h = LatencyHistogram::default();
        for &v in &values {
            h.record_secs(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        let exact = sorted[idx];
        let approx = h.quantile(q);
        // Bucket growth is 1.25: the reported (upper-edge) quantile may
        // exceed the exact value by one bucket and never undershoots by
        // more than one bucket.
        assert!(
            approx >= exact / 1.26,
            "approx {approx} far below exact {exact}"
        );
        assert!(
            approx <= exact * 1.26,
            "approx {approx} far above exact {exact}"
        );
    }
}

/// The histogram's mean is exact (it tracks raw values).
#[test]
fn histogram_mean_is_exact() {
    let mut rng = SimRng::seed_from_u64(0x51b3);
    for _ in 0..64 {
        let values = random_vec(&mut rng, 200, 1, 0.0, 50.0);
        let mut h = LatencyHistogram::default();
        for &v in &values {
            h.record(SimDuration::from_secs_f64(v));
        }
        // SimDuration rounds to µs, so compare against the rounded values.
        let rounded: Vec<f64> = values
            .iter()
            .map(|&v| SimDuration::from_secs_f64(v).as_secs_f64())
            .collect();
        let exact = rounded.iter().sum::<f64>() / rounded.len() as f64;
        assert!((h.mean() - exact).abs() < 1e-9);
    }
}

/// Welford statistics match the naive two-pass computation.
#[test]
fn online_stats_match_naive() {
    let mut rng = SimRng::seed_from_u64(0x51b4);
    for _ in 0..64 {
        let values = random_vec(&mut rng, 200, 1, -1e3, 1e3);
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-6);
        assert!((s.population_variance() - var).abs() < 1e-4);
        assert_eq!(s.count(), values.len() as u64);
    }
}

/// Merged accumulators equal the sequential result for any split.
#[test]
fn online_stats_merge_any_split() {
    let mut rng = SimRng::seed_from_u64(0x51b5);
    for _ in 0..64 {
        let values = random_vec(&mut rng, 200, 2, -1e3, 1e3);
        let split = ((values.len() as f64 * rng.next_f64()) as usize).min(values.len());
        let (mut a, mut b) = (OnlineStats::new(), OnlineStats::new());
        for &v in &values[..split] {
            a.push(v);
        }
        for &v in &values[split..] {
            b.push(v);
        }
        a.merge(&b);
        let mut all = OnlineStats::new();
        for &v in &values {
            all.push(v);
        }
        assert!((a.mean() - all.mean()).abs() < 1e-6);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-4);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }
}

/// Zipf samples always land in range; the PMF is a distribution.
#[test]
fn zipf_is_well_formed() {
    let mut rng = SimRng::seed_from_u64(0x51b6);
    for _ in 0..64 {
        let n = 1 + rng.index(499);
        let z = rng.next_f64() * 2.0;
        let zipf = Zipf::new(n, z).expect("valid parameters");
        let total: f64 = (1..=n).map(|r| zipf.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-6);
        let mut sampler = SimRng::seed_from_u64(rng.next_u64());
        for _ in 0..100 {
            let r = zipf.sample(&mut sampler);
            assert!((1..=n).contains(&r));
        }
    }
}

/// Alias-table samples land in range for any positive weight vector.
#[test]
fn alias_table_is_well_formed() {
    let mut rng = SimRng::seed_from_u64(0x51b7);
    for _ in 0..64 {
        let weights = random_vec(&mut rng, 100, 1, 0.001, 100.0);
        let table = AliasTable::new(&weights).expect("positive weights");
        let mut sampler = SimRng::seed_from_u64(rng.next_u64());
        for _ in 0..100 {
            assert!(table.sample(&mut sampler) < weights.len());
        }
    }
}

/// Forked RNG streams never coincide with the parent over a window.
#[test]
fn forked_streams_diverge() {
    for seed in 0u64..256 {
        let mut parent = SimRng::seed_from_u64(seed * 39 + 1);
        let mut child = parent.fork(1);
        let p: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }
}
