//! Temporal-policy overhead: what each enforcement policy costs on real
//! workloads, next to the spatial-only (`off`) configuration.
//!
//! Each sampled workload runs instrumented (subheap) once per
//! [`TemporalPolicy`]. The columns report the modeled costs that differ
//! between policies: cycle overhead relative to `off` (the liveness
//! check rides the existing implicit-check path, so the delta is the
//! temporal bookkeeping), liveness checks performed, allocations
//! stamped / locks revoked, and the quarantine's deferred-reuse memory
//! overhead (peak heap footprint vs `off` — the classic
//! quarantine-vs-cycle-count trade the baselines table shows
//! analytically).

use ifp_temporal::TemporalPolicy;
use ifp_vm::{run, AllocatorKind, Mode, RunStats, VmConfig};

/// The allocation-heavy workload sample the overhead table sweeps.
pub const SAMPLE: [&str; 4] = ["treeadd", "health", "mst", "ft"];

/// One (workload, policy) measurement.
#[derive(Clone, Debug)]
pub struct TemporalCost {
    /// Workload name.
    pub workload: &'static str,
    /// The policy measured.
    pub policy: TemporalPolicy,
    /// Full run statistics.
    pub stats: RunStats,
}

/// Runs the sample under every policy (instrumented, subheap) on up to
/// `workers` threads. Each (workload, policy) cell is an independent
/// simulation; results keep `SAMPLE` × [`TemporalPolicy::ALL`] order for
/// any worker count.
///
/// # Panics
///
/// Panics if a sampled workload is unknown or fails to run — the sample
/// is fixed and every workload must complete under every policy (zero
/// temporal violations on correct programs is itself part of the
/// claim).
#[must_use]
pub fn measure_sample(workers: usize) -> Vec<TemporalCost> {
    let cells: Vec<(&'static str, TemporalPolicy)> = SAMPLE
        .iter()
        .flat_map(|&name| TemporalPolicy::ALL.into_iter().map(move |p| (name, p)))
        .collect();
    ifp_testutil::par_map(&cells, workers, |&(name, policy)| {
        let w = ifp_workloads::by_name(name).expect("sample workload exists");
        let program = w.build_default();
        let mut cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
        cfg.temporal = policy;
        let r = run(&program, &cfg).unwrap_or_else(|e| panic!("{name} failed under {policy}: {e}"));
        assert_eq!(
            r.stats.temporal.violations, 0,
            "{name}: correct workload flagged under {policy}"
        );
        TemporalCost {
            workload: w.name,
            policy,
            stats: r.stats,
        }
    })
}

fn pct(new: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        (new as f64 / base as f64 - 1.0) * 100.0
    }
}

/// Renders the overhead table from [`measure_sample`] output.
#[must_use]
pub fn overhead_table(costs: &[TemporalCost]) -> String {
    let mut s = String::new();
    s.push_str("Temporal-policy overhead (instrumented subheap, vs `off`)\n");
    s.push_str(&format!(
        "  {:<10} {:<11} {:>9} {:>10} {:>9} {:>9} {:>11}\n",
        "workload", "policy", "cycles%", "checks", "stamped", "revoked", "footprint%"
    ));
    for name in SAMPLE {
        let Some(base) = costs
            .iter()
            .find(|c| c.workload == name && c.policy == TemporalPolicy::Off)
        else {
            continue;
        };
        for c in costs.iter().filter(|c| c.workload == name) {
            let t = c.stats.temporal;
            s.push_str(&format!(
                "  {:<10} {:<11} {:>8.2}% {:>10} {:>9} {:>9} {:>10.2}%\n",
                c.workload,
                c.policy.name(),
                pct(c.stats.cycles, base.stats.cycles),
                t.checks,
                t.stamped,
                t.revoked,
                pct(c.stats.heap_footprint_peak, base.stats.heap_footprint_peak),
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn costs() -> &'static [TemporalCost] {
        static COSTS: OnceLock<Vec<TemporalCost>> = OnceLock::new();
        COSTS.get_or_init(|| measure_sample(1))
    }

    #[test]
    fn sample_runs_clean_under_every_policy() {
        let costs = costs();
        assert_eq!(costs.len(), SAMPLE.len() * TemporalPolicy::ALL.len());
        for c in costs {
            if c.policy == TemporalPolicy::Off {
                // Off is bit-identical to the pre-temporal simulator:
                // no stamps, no checks.
                assert_eq!(c.stats.temporal, Default::default(), "{}", c.workload);
            } else {
                assert!(c.stats.temporal.stamped > 0, "{}", c.workload);
                assert_eq!(c.stats.temporal.violations, 0, "{}", c.workload);
            }
        }
    }

    #[test]
    fn liveness_checks_cost_cycles() {
        // ROADMAP item: the lock/key comparison is no longer modeled as
        // free — every check charges `CycleModel::temporal_check`, so an
        // enforcing policy must show a cycle overhead over `off` of at
        // least one cycle per check performed.
        let costs = costs();
        for name in SAMPLE {
            let by = |p: TemporalPolicy| {
                costs
                    .iter()
                    .find(|c| c.workload == name && c.policy == p)
                    .expect("measured")
                    .stats
                    .clone()
            };
            let off = by(TemporalPolicy::Off);
            let key = by(TemporalPolicy::KeyCheck);
            assert!(key.temporal.checks > 0, "{name}: no checks performed");
            assert!(
                key.cycles >= off.cycles + key.temporal.checks,
                "{name}: checks not charged ({} vs {} + {})",
                key.cycles,
                off.cycles,
                key.temporal.checks
            );
        }
    }

    #[test]
    fn quarantine_defers_reuse_visibly() {
        let costs = costs();
        // At least one allocation-churning workload must show a larger
        // peak heap footprint under quarantine than under off: deferred
        // reuse is the mechanism, footprint is its cost.
        let grew = SAMPLE.iter().any(|name| {
            let by = |p: TemporalPolicy| {
                costs
                    .iter()
                    .find(|c| &c.workload == name && c.policy == p)
                    .expect("measured")
                    .stats
                    .heap_footprint_peak
            };
            by(TemporalPolicy::Quarantine) > by(TemporalPolicy::Off)
        });
        assert!(grew, "quarantine never changed any footprint");
    }

    #[test]
    fn table_renders_every_row() {
        let table = overhead_table(costs());
        for name in SAMPLE {
            assert!(table.contains(name), "{table}");
        }
        for p in TemporalPolicy::ALL {
            assert!(table.contains(p.name()), "{table}");
        }
    }
}
