//! The `jit` section: execution-tier comparison over the seed workloads.
//!
//! For every workload this fuses the program (static coverage), runs the
//! subheap configuration on both execution tiers, asserts the two runs'
//! observations are identical (the tier contract — a mismatch is a
//! harness regression, not a table entry), and reports the dynamic
//! fusion coverage, the dispatch breakdown, and the host wall-clock
//! speedup of the fused tier over the interpreter.
//!
//! Wall-clock columns measure the *host* and vary run to run and machine
//! to machine; every other column is deterministic.

use ifp_jit::{fuse_with_coverage, StaticCoverage};
use ifp_plancache::{CacheStats, PlanCache};
use ifp_testutil::par_map;
use ifp_vm::{run, AllocatorKind, ExecTier, FusionStats, Mode, Observation, VmConfig};
use ifp_workloads::Workload;
use std::time::Instant;

/// Tier comparison for one workload (subheap configuration).
#[derive(Clone, Debug)]
pub struct WorkloadJit {
    /// Benchmark name.
    pub workload: &'static str,
    /// Static fusion coverage of the instrumented program.
    pub static_cov: StaticCoverage,
    /// Dynamic dispatch counters from the fused run.
    pub fusion: FusionStats,
    /// Modeled cycles (identical across tiers, asserted).
    pub cycles: u64,
    /// Interpreter-tier wall-clock, milliseconds.
    pub interp_ms: f64,
    /// Fused-tier wall-clock, milliseconds.
    pub jit_ms: f64,
    /// Warm-cache fused-tier wall-clock (artifact already resident in a
    /// [`PlanCache`]), milliseconds. `None` when measured cache-off.
    pub warm_jit_ms: Option<f64>,
    /// One-time compile cost of this workload's artifacts (both tiers)
    /// as charged by the cache, milliseconds. `None` cache-off.
    pub compile_ms: Option<f64>,
}

impl WorkloadJit {
    /// Host speedup of the fused tier (interpreter wall / jit wall).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.jit_ms > 0.0 {
            self.interp_ms / self.jit_ms
        } else {
            0.0
        }
    }

    /// Superinstruction dispatches + generic/terminator dispatches.
    #[must_use]
    pub fn dispatches(&self) -> u64 {
        self.fusion.arith_runs
            + self.fusion.pairs
            + self.fusion.specialized
            + self.fusion.generic
            + self.fusion.terminators
    }

    /// Dynamic ops retired per dispatch (the fusion compression ratio;
    /// 1.0 means no compression, higher is better).
    #[must_use]
    pub fn ops_per_dispatch(&self) -> f64 {
        let d = self.dispatches();
        if d == 0 {
            0.0
        } else {
            (self.fusion.dynamic_ops() + self.fusion.terminators) as f64 / d as f64
        }
    }

    /// Host speedup of the *warm-cache* fused tier over the interpreter
    /// (compile amortized away). `None` when measured cache-off.
    #[must_use]
    pub fn warm_speedup(&self) -> Option<f64> {
        match self.warm_jit_ms {
            Some(w) if w > 0.0 => Some(self.interp_ms / w),
            _ => None,
        }
    }
}

/// Measures one workload on both tiers under the subheap configuration,
/// plus, when a [`PlanCache`] is supplied, a warm re-run of the fused
/// tier through the cache: the artifact is resident, so the warm column
/// isolates execution from the one-time compile cost (which is reported
/// separately). Every run's observation is asserted identical to the
/// interpreter's — the tier and cache contracts, checked here too.
///
/// # Panics
///
/// Panics when a run fails or any run's observation differs — both are
/// regressions, never table entries.
#[must_use]
pub fn measure_workload(w: &Workload, cache: Option<&PlanCache>) -> WorkloadJit {
    let program = w.build_default();
    let (_, static_cov) = fuse_with_coverage(&program, true, false);
    let mut icfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
    let mut jcfg = icfg;
    jcfg.exec_tier = ExecTier::Jit;

    icfg.exec_tier = ExecTier::Interp;
    let t0 = Instant::now();
    let ri = run(&program, &icfg);
    let interp_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let rj = run(&program, &jcfg);
    let jit_ms = t1.elapsed().as_secs_f64() * 1e3;

    let reference = Observation::of(&ri);
    assert_eq!(
        reference,
        Observation::of(&rj),
        "{}: observation drifted between tiers",
        w.name
    );
    let rj = rj.unwrap_or_else(|e| panic!("{}: {e}", w.name));

    let (warm_jit_ms, compile_ms) = match cache {
        None => (None, None),
        Some(c) => {
            let ia = c
                .artifact(&program, &icfg)
                .unwrap_or_else(|e| panic!("{} (interp artifact): {e}", w.name));
            let ja = c
                .artifact(&program, &jcfg)
                .unwrap_or_else(|e| panic!("{} (jit artifact): {e}", w.name));
            let t2 = Instant::now();
            let rw = c.run(&program, &jcfg);
            let warm = t2.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                reference,
                Observation::of(&rw),
                "{}: warm-cache observation drifted",
                w.name
            );
            (
                Some(warm),
                Some((ia.compile_ns + ja.compile_ns) as f64 / 1e6),
            )
        }
    };
    WorkloadJit {
        workload: w.name,
        static_cov,
        fusion: rj.fusion.expect("jit run reports fusion stats"),
        cycles: rj.stats.cycles,
        interp_ms,
        jit_ms,
        warm_jit_ms,
        compile_ms,
    }
}

/// Measures every workload on up to `workers` threads, through `cache`
/// when given (adding the warm-run and compile columns). The
/// deterministic columns are identical for any worker count; wall-clock
/// columns are noisier under parallel measurement (use `--workers 1` for
/// the most stable speedups).
#[must_use]
pub fn report(
    workloads: &[Workload],
    workers: usize,
    cache: Option<&PlanCache>,
) -> Vec<WorkloadJit> {
    par_map(workloads, workers, |w| measure_workload(w, cache))
}

/// Renders the section as a fixed-width table, with a per-suite
/// [`CacheStats`] footer when the rows were measured through a cache.
#[must_use]
pub fn render_table(rows: &[WorkloadJit], cache: Option<CacheStats>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("Execution tiers (subheap config; modeled stats bit-identical, asserted)\n");
    out.push_str(
        "  workload       dyn-ops  fused%  static%    runs    pairs  generic  ops/disp  speedup  \
         compile   warm\n",
    );
    let mut interp_total = 0.0;
    let mut jit_total = 0.0;
    let mut warm_total = 0.0;
    let mut have_warm = false;
    for r in rows {
        interp_total += r.interp_ms;
        jit_total += r.jit_ms;
        let _ = write!(
            out,
            "  {:<13} {:>8} {:>6.1}% {:>7.1}% {:>7} {:>8} {:>8} {:>9.2} {:>7.2}x",
            r.workload,
            r.fusion.dynamic_ops(),
            r.fusion.fused_percent(),
            r.static_cov.fused_percent(),
            r.fusion.arith_runs,
            r.fusion.pairs,
            r.fusion.generic,
            r.ops_per_dispatch(),
            r.speedup(),
        );
        match (r.compile_ms, r.warm_speedup()) {
            (Some(c), Some(wx)) => {
                have_warm = true;
                warm_total += r.warm_jit_ms.unwrap_or(0.0);
                let _ = writeln!(out, " {c:>7.2}ms {wx:>5.2}x");
            }
            _ => out.push_str("        -      -\n"),
        }
    }
    let overall = if jit_total > 0.0 {
        interp_total / jit_total
    } else {
        0.0
    };
    let _ = write!(
        out,
        "  overall: interp {interp_total:.1}ms -> jit {jit_total:.1}ms ({overall:.2}x)",
    );
    if have_warm && warm_total > 0.0 {
        let _ = write!(
            out,
            " -> warm jit {warm_total:.1}ms ({:.2}x)",
            interp_total / warm_total
        );
    }
    out.push_str("; wall-clock is host-noisy, modeled columns are exact\n");
    if let Some(s) = cache {
        let _ = writeln!(
            out,
            "  plan cache: {} hits / {} misses ({:.1}% hit rate), compile {:.1}ms total, \
             {} artifacts resident ({} KiB), {} evictions",
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.compile_ns as f64 / 1e6,
            s.resident_artifacts,
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
    fn tier_rows_are_consistent_and_fused_coverage_is_real() {
        let workloads: Vec<Workload> = ifp_workloads::all()
            .into_iter()
            .filter(|w| w.name == "treeadd" || w.name == "em3d")
            .collect();
        let rows = report(&workloads, 1, None);
        assert_eq!(rows.len(), workloads.len());
        for r in &rows {
            // The fused tier must actually fuse something on real
            // workloads, and every dispatch accounts for >= 1 op.
            assert!(
                r.fusion.fused_percent() > 10.0,
                "{}: {:?}",
                r.workload,
                r.fusion
            );
            assert!(r.ops_per_dispatch() >= 1.0, "{}", r.workload);
            assert!(r.cycles > 0);
        }
        let table = render_table(&rows, None);
        assert!(table.contains("treeadd"), "{table}");
        assert!(table.contains("overall:"), "{table}");
    }
}
