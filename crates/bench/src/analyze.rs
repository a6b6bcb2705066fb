//! The `analyze` section: static-analysis results over the seed suites.
//!
//! For every workload this runs the `ifp-analyze` verifier plus interval
//! analysis, then executes the subheap configuration twice — elision off
//! and on — and reports dynamic check counts and the modeled cycles the
//! statically proven elisions save. Verifier diagnostics are expected to
//! be zero across the seed suites (workloads and Juliet generators emit
//! well-formed IR); a nonzero count here is a regression.

use ifp_testutil::par_map;
use ifp_vm::{run, AllocatorKind, Mode, VmConfig};
use ifp_workloads::Workload;

/// Static + dynamic analysis results for one workload.
#[derive(Clone, Debug)]
pub struct WorkloadAnalysis {
    /// Benchmark name.
    pub workload: &'static str,
    /// Verifier diagnostics on the workload's program (expected 0).
    pub verifier_diags: usize,
    /// Accesses statically proven in bounds.
    pub proven_in: u64,
    /// Of those, proofs that rest on an inter-procedural summary
    /// (parameter windows or call-return facts) rather than purely
    /// local reasoning.
    pub summary_hits: u64,
    /// Accesses statically proven out of bounds (lints; expected 0).
    pub proven_oob: u64,
    /// Dynamic checked dereferences with elision off (subheap mode).
    pub checks_total: u64,
    /// Of those, dynamically skipped when elision is on.
    pub checks_elided: u64,
    /// Tag-updating GEPs executed as plain arithmetic when elision is on.
    pub geps_elided: u64,
    /// Modeled cycles, elision off.
    pub cycles_off: u64,
    /// Modeled cycles, elision on.
    pub cycles_on: u64,
}

impl WorkloadAnalysis {
    /// Modeled cycles removed by elision (0 when elision found nothing).
    #[must_use]
    pub fn cycles_saved(&self) -> u64 {
        self.cycles_off.saturating_sub(self.cycles_on)
    }

    /// Percentage of checked dereferences elided.
    #[must_use]
    pub fn elided_percent(&self) -> f64 {
        if self.checks_total == 0 {
            0.0
        } else {
            100.0 * self.checks_elided as f64 / self.checks_total as f64
        }
    }
}

/// The whole section: per-workload rows plus the Juliet verifier sweep.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// One row per workload, Table 4 order.
    pub workloads: Vec<WorkloadAnalysis>,
    /// Juliet cases whose program the verifier accepted.
    pub juliet_cases: usize,
    /// Total verifier diagnostics across all Juliet cases (expected 0).
    pub juliet_verifier_diags: usize,
}

impl AnalyzeReport {
    /// Modeled cycles saved across every workload.
    #[must_use]
    pub fn total_cycles_saved(&self) -> u64 {
        self.workloads
            .iter()
            .map(WorkloadAnalysis::cycles_saved)
            .sum()
    }

    /// Verifier diagnostics across workloads and Juliet cases.
    #[must_use]
    pub fn total_verifier_diags(&self) -> usize {
        self.juliet_verifier_diags
            + self
                .workloads
                .iter()
                .map(|w| w.verifier_diags)
                .sum::<usize>()
    }
}

fn subheap_config(elide: bool) -> VmConfig {
    let mut cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
    cfg.elide_checks = elide;
    cfg
}

/// Analyzes one workload: static report plus the off/on run pair.
///
/// # Panics
///
/// Panics when the workload fails to run — the seed workloads always
/// complete, so a failure here is a harness regression.
#[must_use]
pub fn analyze_workload(w: &Workload) -> WorkloadAnalysis {
    let program = w.build_default();
    let report = ifp_analyze::analyze(&program);
    let off = run(&program, &subheap_config(false))
        .unwrap_or_else(|e| panic!("{} (elide off): {e}", w.name));
    let on = run(&program, &subheap_config(true))
        .unwrap_or_else(|e| panic!("{} (elide on): {e}", w.name));
    assert_eq!(
        off.output, on.output,
        "{}: elision changed program output",
        w.name
    );
    WorkloadAnalysis {
        workload: w.name,
        verifier_diags: report.verifier.len(),
        proven_in: report.proven_in,
        summary_hits: report.summary_hits,
        proven_oob: report.proven_oob,
        checks_total: on.stats.elision.checks_total,
        checks_elided: on.stats.elision.checks_elided,
        geps_elided: on.stats.elision.geps_elided,
        cycles_off: off.stats.cycles,
        cycles_on: on.stats.cycles,
    }
}

/// Builds the report over `workloads` on up to `workers` threads. Each
/// workload is an independent pair of simulations, so the result is
/// identical for any worker count.
#[must_use]
pub fn report(workloads: &[Workload], workers: usize) -> AnalyzeReport {
    let rows = par_map(workloads, workers, analyze_workload);
    let cases = ifp_juliet::all_cases();
    let diag_counts = par_map(&cases, workers, |case| {
        ifp_analyze::verify(&case.program).len()
    });
    AnalyzeReport {
        workloads: rows,
        juliet_cases: cases.len(),
        juliet_verifier_diags: diag_counts.iter().sum(),
    }
}

/// Renders the section as a fixed-width table.
#[must_use]
pub fn render_table(report: &AnalyzeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(
        "Static analysis (verifier + interval-domain + interprocedural check elision, subheap)\n",
    );
    out.push_str(
        "  workload      diags  proven  sum-hits  checks-total  checks-elided  elided%  cycles-saved\n",
    );
    for w in &report.workloads {
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>7} {:>8} {:>13} {:>14} {:>7.1}% {:>13}",
            w.workload,
            w.verifier_diags,
            w.proven_in,
            w.summary_hits,
            w.checks_total,
            w.checks_elided,
            w.elided_percent(),
            w.cycles_saved()
        );
    }
    let _ = writeln!(
        out,
        "  juliet: {} cases, {} verifier diagnostics",
        report.juliet_cases, report.juliet_verifier_diags
    );
    let _ = writeln!(
        out,
        "  total: {} verifier diagnostics, {} modeled cycles saved",
        report.total_verifier_diags(),
        report.total_cycles_saved()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_workloads_verify_clean_and_elide_some_checks() {
        // Two representative workloads: an array-walking kernel and a
        // pointer-chasing one. Both must verify clean; across the pair
        // the analysis must prove something and save modeled cycles.
        let workloads: Vec<Workload> = ifp_workloads::all()
            .into_iter()
            .filter(|w| w.name == "em3d" || w.name == "anagram")
            .collect();
        assert!(!workloads.is_empty());
        let rows: Vec<WorkloadAnalysis> = workloads.iter().map(analyze_workload).collect();
        for row in &rows {
            assert_eq!(row.verifier_diags, 0, "{}", row.workload);
            assert_eq!(row.proven_oob, 0, "{}", row.workload);
            assert!(row.cycles_on <= row.cycles_off, "{}", row.workload);
        }
        let saved: u64 = rows.iter().map(WorkloadAnalysis::cycles_saved).sum();
        assert!(saved > 0, "no cycles saved across {rows:?}");
    }

    #[test]
    fn parallel_report_matches_single_thread() {
        let workloads: Vec<Workload> = ifp_workloads::all().into_iter().take(2).collect();
        let one = report(&workloads, 1);
        let many = report(&workloads, 4);
        assert_eq!(one.juliet_verifier_diags, many.juliet_verifier_diags);
        for (a, b) in one.workloads.iter().zip(&many.workloads) {
            assert_eq!(a.checks_elided, b.checks_elided);
            assert_eq!(a.cycles_saved(), b.cycles_saved());
        }
    }
}
