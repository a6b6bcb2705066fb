//! The plan-cache section: per-suite artifact-cache telemetry.
//!
//! Every number here is host telemetry ([`CacheStats`] lives outside
//! `RunStats` like `FusionStats`), so nothing in this section may feed a
//! golden-pinned table. What it shows is the amortization structure: a
//! suite that replays the same programs across modes, tiers, and reps
//! collapses to a handful of compiles, and the hit rate tells you how
//! much of the suite's former per-run compile work the cache absorbed.

use ifp_juliet::{all_cases, run_suite};
use ifp_plancache::{CacheStats, PlanCache};
use ifp_vm::{AllocatorKind, ExecTier, Mode};

/// One suite's cache telemetry.
#[derive(Clone, Copy, Debug)]
pub struct SuiteCache {
    /// Suite label.
    pub suite: &'static str,
    /// Program executions the suite issued through the cache.
    pub runs: u64,
    /// The cache counters after the suite completed.
    pub stats: CacheStats,
}

/// Runs the Juliet spatial suite — four modes on the interpreter tier
/// plus the subheap configuration on the fused tier — through one
/// shared cache and reports its telemetry. Outcomes are asserted
/// internally by the harness; this section only surfaces the cache
/// counters.
#[must_use]
pub fn juliet_suite(workers: usize) -> SuiteCache {
    let cases = all_cases();
    let cache = PlanCache::new();
    let modes = [
        Mode::Baseline,
        Mode::instrumented(AllocatorKind::Wrapped),
        Mode::instrumented(AllocatorKind::Subheap),
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: true,
        },
    ];
    let mut runs = 0u64;
    for mode in modes {
        let _ = run_suite(&cases, mode, workers, ExecTier::Interp, Some(&cache));
        runs += cases.len() as u64;
    }
    let jit = run_suite(
        &cases,
        Mode::instrumented(AllocatorKind::Subheap),
        workers,
        ExecTier::Jit,
        Some(&cache),
    );
    assert!(jit.is_clean(), "warm fused-tier suite regressed: {jit}");
    runs += cases.len() as u64;
    SuiteCache {
        suite: "juliet_spatial",
        runs,
        stats: cache.stats(),
    }
}

/// Renders the per-suite telemetry as a fixed-width table.
#[must_use]
pub fn render_table(rows: &[SuiteCache]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(
        "Plan cache (content-addressed compiled artifacts; host telemetry, never modeled)\n",
    );
    out.push_str(
        "  suite                 runs  artifacts      hits    misses  hit-rate  compile_ms  \
         resident_KiB  evicted\n",
    );
    for r in rows {
        let s = r.stats;
        let _ = writeln!(
            out,
            "  {:<18} {:>7} {:>10} {:>9} {:>9} {:>8.1}% {:>11.1} {:>13} {:>8}",
            r.suite,
            r.runs,
            s.resident_artifacts,
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.compile_ns as f64 / 1e6,
            s.resident_bytes / 1024,
            s.evictions,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn juliet_suite_amortizes_to_three_artifacts_per_case() {
        let row = juliet_suite(4);
        let s = row.stats;
        // 5 suite passes per case collapse to 3 artifact keys per case:
        // baseline-interp, instrumented-interp (shared by all three
        // instrumented mode passes), instrumented-jit. No two workers
        // ever race one case's key, so the split is exact.
        let cases = row.runs / 5;
        assert_eq!(s.hits + s.misses, row.runs, "{s:?}");
        assert_eq!(s.misses, 3 * cases, "{s:?}");
        assert_eq!(s.hits, 2 * cases, "{s:?}");
        assert_eq!(s.evictions, 0, "default budget must not thrash: {s:?}");
        let table = render_table(&[row]);
        assert!(table.contains("juliet_spatial"), "{table}");
    }
}
