//! The evaluation driver: runs a workload across the paper's five
//! configurations and computes the derived quantities Table 4 and
//! Figures 10–12 report.

use ifp_compiler::Program;
use ifp_mem::CacheConfig;
use ifp_plancache::PlanCache;
use ifp_vm::{run, AllocatorKind, ExecTier, Mode, RunStats, VmConfig, VmError};

/// The L1 geometry used for workload sweeps: 4 KiB, 4-way. The paper runs
/// megabyte working sets against CVA6's 32 KiB L1; the reproduction's
/// interpreter-scaled inputs shrink working sets by a comparable factor,
/// so the cache shrinks with them to preserve the miss behaviour that
/// drives §5.2.2 (health/ft thrashing under per-object metadata).
#[must_use]
pub fn sweep_l1() -> CacheConfig {
    CacheConfig {
        line_size: 16,
        sets: 64,
        ways: 4,
    }
}

/// The five evaluation configurations, in the paper's order.
#[must_use]
pub fn modes() -> [Mode; 5] {
    [
        Mode::Baseline,
        Mode::instrumented(AllocatorKind::Subheap),
        Mode::instrumented(AllocatorKind::Wrapped),
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: true,
        },
        Mode::Instrumented {
            allocator: AllocatorKind::Wrapped,
            no_promote: true,
        },
    ]
}

/// The statistics of one workload across all five configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeSweep {
    /// Workload name.
    pub name: String,
    /// Uninstrumented baseline.
    pub baseline: RunStats,
    /// Subheap allocator, full instrumentation.
    pub subheap: RunStats,
    /// Wrapped allocator, full instrumentation.
    pub wrapped: RunStats,
    /// Subheap allocator, promote as NOP.
    pub subheap_nopromote: RunStats,
    /// Wrapped allocator, promote as NOP.
    pub wrapped_nopromote: RunStats,
}

impl ModeSweep {
    /// Runs `program` under every configuration on `tier`, through
    /// `cache` when given, checking that all five produce identical
    /// output. Tier and cache are host-speed choices: the sweep's
    /// statistics are bit-identical for any of them (golden-gated), so
    /// derived tables never depend on them. With a cache the five
    /// configurations need only two compiled artifacts (baseline + one
    /// instrumented — allocator and the promote ablation are not
    /// compile inputs).
    ///
    /// # Errors
    ///
    /// Propagates the first failing run.
    pub fn run(
        name: &str,
        program: &Program,
        tier: ExecTier,
        cache: Option<&PlanCache>,
    ) -> Result<ModeSweep, VmError> {
        let mut results = Vec::with_capacity(5);
        let mut reference: Option<Vec<i64>> = None;
        for mode in modes() {
            let mut cfg = VmConfig::with_mode(mode);
            cfg.l1 = sweep_l1();
            cfg.exec_tier = tier;
            let r = match cache {
                Some(c) => c.run(program, &cfg)?,
                None => run(program, &cfg)?,
            };
            if let Some(expected) = &reference {
                assert_eq!(&r.output, expected, "{name}: output diverged under {mode}");
            } else {
                reference = Some(r.output.clone());
            }
            results.push(r.stats);
        }
        let mut it = results.into_iter();
        Ok(ModeSweep {
            name: name.to_string(),
            baseline: it.next().expect("5 results"),
            subheap: it.next().expect("5 results"),
            wrapped: it.next().expect("5 results"),
            subheap_nopromote: it.next().expect("5 results"),
            wrapped_nopromote: it.next().expect("5 results"),
        })
    }

    /// Runtime overhead of a configuration vs. baseline (Figure 10's
    /// y-axis), e.g. `0.12` for +12%.
    #[must_use]
    pub fn runtime_overhead(&self, stats: &RunStats) -> f64 {
        ratio(stats.cycles, self.baseline.cycles) - 1.0
    }

    /// Dynamic-instruction ratio vs. baseline (Table 4's last columns).
    #[must_use]
    pub fn instr_ratio(&self, stats: &RunStats) -> f64 {
        ratio(stats.total_instrs(), self.baseline.total_instrs())
    }

    /// Memory overhead vs. baseline (Figure 12), measured on the heap
    /// footprint like the paper's maximum-resident comparison.
    #[must_use]
    pub fn memory_overhead(&self, stats: &RunStats) -> f64 {
        ratio(stats.heap_footprint_peak, self.baseline.heap_footprint_peak) - 1.0
    }

    /// Share of a configuration's *total* instructions contributed by each
    /// In-Fat Pointer instruction class (Figure 11's stack segments),
    /// normalized against the baseline instruction count like the paper.
    #[must_use]
    pub fn instr_breakdown(&self, stats: &RunStats) -> InstrBreakdown {
        let base = self.baseline.total_instrs() as f64;
        InstrBreakdown {
            promote: stats.promote_instrs as f64 / base,
            arithmetic: stats.ifp_arith_instrs as f64 / base,
            bounds_ls: stats.bounds_ls_instrs as f64 / base,
        }
    }
}

/// Figure 11 stack segments, as fractions of baseline instructions.
#[derive(Clone, Copy, Debug, Default)]
pub struct InstrBreakdown {
    /// `promote` share.
    pub promote: f64,
    /// IFP arithmetic share.
    pub arithmetic: f64,
    /// `ldbnd`/`stbnd` share.
    pub bounds_ls: f64,
}

impl InstrBreakdown {
    /// Total added-instruction share.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.promote + self.arithmetic + self.bounds_ls
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        1.0
    } else {
        a as f64 / b as f64
    }
}

/// Geometric mean of `1 + x` minus one — the paper's "geo-mean overhead".
#[must_use]
pub fn geomean_overhead(overheads: &[f64]) -> f64 {
    if overheads.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = overheads.iter().map(|o| (1.0 + o).max(1e-9).ln()).sum();
    (log_sum / overheads.len() as f64).exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_treeadd_in_all_modes() {
        let p = ifp_workloads::olden::treeadd::build(6);
        let sweep = ModeSweep::run("treeadd", &p, ExecTier::Interp, None).unwrap();
        assert!(sweep.runtime_overhead(&sweep.wrapped) > 0.0);
        assert!(sweep.instr_ratio(&sweep.wrapped) > 1.0);
        // The no-promote variant is never slower than the full one.
        assert!(sweep.subheap_nopromote.cycles <= sweep.subheap.cycles);
        assert!(sweep.instr_breakdown(&sweep.subheap).total() > 0.0);
    }

    #[test]
    fn cached_sweep_is_byte_identical_and_compiles_twice() {
        let p = ifp_workloads::olden::treeadd::build(6);
        let cache = PlanCache::new();
        let cold = ModeSweep::run("treeadd", &p, ExecTier::Interp, None).unwrap();
        let warm = ModeSweep::run("treeadd", &p, ExecTier::Interp, Some(&cache)).unwrap();
        let warm2 = ModeSweep::run("treeadd", &p, ExecTier::Interp, Some(&cache)).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, warm2);
        // 5 modes, 2 artifacts: baseline + one shared instrumented.
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (2, 8), "{s:?}");
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean_overhead(&[0.1, 0.1, 0.1]);
        assert!((g - 0.1).abs() < 1e-9);
        let g2 = geomean_overhead(&[0.0, 0.21]);
        assert!((g2 - (1.21f64.sqrt() - 1.0)).abs() < 1e-9);
        assert_eq!(geomean_overhead(&[]), 0.0);
    }
}
