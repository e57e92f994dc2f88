//! Helpers shared by the golden-digest suites.

use spindown_core::RunMetrics;

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// Digest of every [`RunMetrics`] field except the timing-dependent
/// `splitter_high_water`. The response histogram is folded through its
/// public summary: count, mean, max and every inverse-CDF point (which
/// pins each non-empty bucket's count).
pub fn digest(m: &RunMetrics) -> u64 {
    let mut h = Fnv::new();
    for byte in m.scheduler.bytes() {
        h.word(u64::from(byte));
    }
    h.word(m.requests as u64);
    h.float(m.horizon_s);
    h.float(m.energy_j);
    h.float(m.always_on_j);
    h.word(m.spinups);
    h.word(m.spindowns);
    h.word(m.response.count());
    h.float(m.response.mean());
    h.float(m.response.max());
    for (x, p) in m.response.inverse_cdf() {
        h.float(x);
        h.float(p);
    }
    h.word(m.per_disk.len() as u64);
    for d in &m.per_disk {
        h.float(d.energy_j);
        for f in d.state_fractions {
            h.float(f);
        }
        h.word(d.spinups);
        h.word(d.spindowns);
        h.word(d.requests);
    }
    h.word(m.power_timeline.len() as u64);
    for &(t, w) in &m.power_timeline {
        h.float(t);
        h.float(w);
    }
    h.word(m.peak_events as u64);
    h.word(m.peak_in_flight as u64);
    h.0
}
