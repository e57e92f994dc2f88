//! Benchmark regression gate.
//!
//! Compares a fresh [`BenchReport`] against a committed baseline JSON
//! (the `BENCH_core.json` written by a previous `spindown bench` run) and
//! fails when any benchmark's median wall time regressed beyond a
//! tolerance factor. CI runs this instead of a smoke-only bench pass, so
//! a change that quietly slows a solver or builder down trips the gate.
//!
//! The baseline parser is deliberately minimal: it reads only the JSON
//! this harness itself emits (`schema: spindown-bench-v1`, one
//! `"name": {"median_ns": …, "p10_ns": …, "p90_ns": …}` object per line),
//! keeping the crate zero-dependency. It is not a general JSON parser and
//! does not need to be. The report's `host` block
//! (`{"available_parallelism": …, "parallel_jobs": …}` — the cores the
//! runner advertised and the worker count the parallel fixtures actually
//! used) is ignored by the parser but read from the *fresh* report: it
//! decides whether the multi-core `island_sim_speedup` floor applies,
//! and it is what makes committed parallel ratios interpretable across
//! machines.

use crate::harness::{BenchReport, BenchStats};

/// Default multiplicative tolerance: fail when a median exceeds
/// `baseline * 1.25` (25% regression). Wide enough for shared-host
/// noise at the harness's multi-second bench scales, tight enough to
/// catch an accidental algorithmic slowdown.
pub const DEFAULT_TOLERANCE: f64 = 1.25;

/// One benchmark's baseline quantiles, as read back from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Benchmark name (the JSON key).
    pub name: String,
    /// Quantiles recorded by the baseline run.
    pub stats: BenchStats,
}

/// Outcome of one gate run: human-readable per-benchmark lines plus the
/// subset that regressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateReport {
    /// One line per comparison (and per skipped/new benchmark).
    pub lines: Vec<String>,
    /// Failure descriptions; empty means the gate passed.
    pub regressions: Vec<String>,
}

impl GateReport {
    /// `true` when no benchmark regressed past tolerance and no baseline
    /// benchmark went missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the gate outcome for terminal output.
    pub fn to_text(&self) -> String {
        let mut s = self.lines.join("\n");
        s.push('\n');
        if self.passed() {
            s.push_str("bench regression gate: PASS\n");
        } else {
            s.push_str(&format!(
                "bench regression gate: FAIL ({} regression{})\n",
                self.regressions.len(),
                if self.regressions.len() == 1 { "" } else { "s" }
            ));
            for r in &self.regressions {
                s.push_str(&format!("  {r}\n"));
            }
        }
        s
    }
}

/// Parses a baseline `spindown-bench-v1` JSON into per-benchmark stats.
///
/// Returns an error when the schema marker is absent or no benchmark
/// line parses — a truncated or foreign file must not silently pass the
/// gate as "no baselines to compare".
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineEntry>, String> {
    if !json.contains("\"schema\": \"spindown-bench-v1\"") {
        return Err("baseline is not a spindown-bench-v1 report".into());
    }
    let mut entries = Vec::new();
    for line in json.lines() {
        if !line.contains("\"median_ns\"") {
            continue;
        }
        let name = field_name(line).ok_or_else(|| format!("unparsable bench line: {line}"))?;
        let median_ns =
            field_u64(line, "median_ns").ok_or_else(|| format!("missing median_ns: {line}"))?;
        let p10_ns = field_u64(line, "p10_ns").ok_or_else(|| format!("missing p10_ns: {line}"))?;
        let p90_ns = field_u64(line, "p90_ns").ok_or_else(|| format!("missing p90_ns: {line}"))?;
        entries.push(BaselineEntry {
            name,
            stats: BenchStats {
                median_ns,
                p10_ns,
                p90_ns,
            },
        });
    }
    if entries.is_empty() {
        return Err("baseline contains no benchmark entries".into());
    }
    Ok(entries)
}

/// The benchmark name: contents of the line's first quoted string.
fn field_name(line: &str) -> Option<String> {
    let start = line.find('"')? + 1;
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_string())
}

/// The integer following `"key": `.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Gates `report` against `baseline` medians at `tolerance` (e.g. `1.25`
/// = fail beyond +25%).
///
/// * A baseline benchmark missing from the report is a failure — a
///   silently dropped benchmark must not pass the gate. (Run the gate on
///   unfiltered reports.)
/// * A report benchmark missing from the baseline is logged and ignored
///   (a newly added benchmark gets its baseline at the next refresh).
/// * Every comparison line carries both runs' p10/p90 bands so a noisy
///   host is distinguishable from a real regression in the CI log.
/// * On hosts advertising more than one core, a fresh
///   `island_sim_speedup` below 1.0 fails the gate outright — parallel
///   replay must not be a net slowdown where it has cores to use.
pub fn check(report: &BenchReport, baseline: &[BaselineEntry], tolerance: f64) -> GateReport {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for b in baseline {
        let Some(new) = report.stats(&b.name) else {
            lines.push(format!("{:<30} MISSING from this run", b.name));
            regressions.push(format!(
                "{}: present in baseline but not produced by this run",
                b.name
            ));
            continue;
        };
        let old = b.stats;
        let ratio = new.median_ns as f64 / old.median_ns.max(1) as f64;
        let verdict = if ratio > tolerance { "REGRESSED" } else { "ok" };
        lines.push(format!(
            "{:<30} {:>6.3}x  old {} [{}..{}]  new {} [{}..{}]  {}",
            b.name,
            ratio,
            old.median_ns,
            old.p10_ns,
            old.p90_ns,
            new.median_ns,
            new.p10_ns,
            new.p90_ns,
            verdict
        ));
        if ratio > tolerance {
            regressions.push(format!(
                "{}: median {} ns vs baseline {} ns ({:.3}x > {:.2}x tolerance)",
                b.name, new.median_ns, old.median_ns, ratio, tolerance
            ));
        }
    }
    for e in &report.entries {
        if !baseline.iter().any(|b| b.name == e.name) {
            lines.push(format!(
                "{:<30} NEW (no baseline; median {} ns)",
                e.name, e.stats.median_ns
            ));
        }
    }
    // Parallel win-or-fail: with more than one core, the island-parallel
    // replay must actually beat the serial oracle — a ratio below 1.0
    // means the hand-off path has regressed into a net slowdown (the
    // failure mode the batched hand-off was built to eliminate).
    // Single-core hosts are exempt: there the fixture documents parity
    // and only bit-identical output is meaningful.
    if report.host.available_parallelism > 1 {
        if let Some(speedup) = report.derived("island_sim_speedup") {
            let verdict = if speedup < 1.0 { "REGRESSED" } else { "ok" };
            lines.push(format!(
                "{:<30} {:>6.3}x  (must exceed 1.0 on multi-core hosts)  {}",
                "island_sim_speedup", speedup, verdict
            ));
            if speedup < 1.0 {
                regressions.push(format!(
                    "island_sim_speedup: {:.3} < 1.0 with {} cores available",
                    speedup, report.host.available_parallelism
                ));
            }
        }
    }
    GateReport { lines, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{BenchConfig, BenchEntry, DerivedEntry, HostContext};

    fn report(entries: Vec<(&'static str, u64)>) -> BenchReport {
        BenchReport {
            config: BenchConfig::default(),
            entries: entries
                .into_iter()
                .map(|(name, median_ns)| BenchEntry {
                    name,
                    stats: BenchStats {
                        median_ns,
                        p10_ns: median_ns - 1,
                        p90_ns: median_ns + 1,
                    },
                })
                .collect(),
            derived: vec![DerivedEntry {
                name: "incremental_replan_speedup",
                value: 2.0,
            }],
            host: HostContext {
                available_parallelism: 2,
                parallel_jobs: 2,
            },
        }
    }

    #[test]
    fn roundtrips_own_json() {
        let r = report(vec![("alpha", 100), ("beta", 2_000_000_000)]);
        let parsed = parse_baseline(&r.to_json()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "alpha");
        assert_eq!(parsed[0].stats.median_ns, 100);
        assert_eq!(parsed[1].name, "beta");
        assert_eq!(
            parsed[1].stats,
            BenchStats {
                median_ns: 2_000_000_000,
                p10_ns: 1_999_999_999,
                p90_ns: 2_000_000_001,
            }
        );
    }

    #[test]
    fn rejects_foreign_or_empty_baselines() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\": \"spindown-bench-v1\"}").is_err());
    }

    #[test]
    fn passes_within_tolerance() {
        let base = parse_baseline(&report(vec![("a", 1000)]).to_json()).unwrap();
        let gate = check(&report(vec![("a", 1200)]), &base, DEFAULT_TOLERANCE);
        assert!(gate.passed(), "{:?}", gate.regressions);
        assert!(gate.to_text().contains("PASS"));
        assert!(gate.lines[0].contains("1.200x"));
    }

    #[test]
    fn fails_past_tolerance() {
        let base = parse_baseline(&report(vec![("a", 1000)]).to_json()).unwrap();
        let gate = check(&report(vec![("a", 1300)]), &base, DEFAULT_TOLERANCE);
        assert!(!gate.passed());
        assert_eq!(gate.regressions.len(), 1);
        assert!(gate.regressions[0].contains("1.300x"));
        assert!(gate.to_text().contains("FAIL"));
    }

    #[test]
    fn faster_is_never_a_failure() {
        let base = parse_baseline(&report(vec![("a", 1000)]).to_json()).unwrap();
        let gate = check(&report(vec![("a", 10)]), &base, DEFAULT_TOLERANCE);
        assert!(gate.passed());
    }

    fn with_island_speedup(mut r: BenchReport, cores: usize, speedup: f64) -> BenchReport {
        r.host.available_parallelism = cores;
        r.derived.push(DerivedEntry {
            name: "island_sim_speedup",
            value: speedup,
        });
        r
    }

    #[test]
    fn island_slowdown_fails_on_multicore_host() {
        let base = parse_baseline(&report(vec![("a", 1000)]).to_json()).unwrap();
        let fresh = with_island_speedup(report(vec![("a", 1000)]), 4, 0.85);
        let gate = check(&fresh, &base, DEFAULT_TOLERANCE);
        assert!(!gate.passed());
        assert!(gate.regressions[0].contains("island_sim_speedup"));
        assert!(gate.regressions[0].contains("4 cores"));
    }

    #[test]
    fn island_slowdown_tolerated_on_single_core_host() {
        let base = parse_baseline(&report(vec![("a", 1000)]).to_json()).unwrap();
        let fresh = with_island_speedup(report(vec![("a", 1000)]), 1, 0.85);
        let gate = check(&fresh, &base, DEFAULT_TOLERANCE);
        assert!(gate.passed(), "{:?}", gate.regressions);
    }

    #[test]
    fn island_speedup_passes_on_multicore_host() {
        let base = parse_baseline(&report(vec![("a", 1000)]).to_json()).unwrap();
        let fresh = with_island_speedup(report(vec![("a", 1000)]), 4, 1.4);
        let gate = check(&fresh, &base, DEFAULT_TOLERANCE);
        assert!(gate.passed(), "{:?}", gate.regressions);
        assert!(gate.to_text().contains("island_sim_speedup"));
    }

    #[test]
    fn missing_bench_fails_new_bench_logs() {
        let base = parse_baseline(&report(vec![("gone", 1000)]).to_json()).unwrap();
        let gate = check(&report(vec![("fresh", 1000)]), &base, DEFAULT_TOLERANCE);
        assert!(!gate.passed());
        assert!(gate.regressions[0].contains("gone"));
        assert!(gate
            .lines
            .iter()
            .any(|l| l.contains("fresh") && l.contains("NEW")));
    }
}
