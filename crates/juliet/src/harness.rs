//! Detection harness: runs generated cases under an execution mode and
//! tallies detections, misses and false positives (the §5.1 claim is
//! all-bad-detected / all-good-passed).

use crate::gen::{CaseKind, JulietCase};
use ifp_plancache::PlanCache;
use ifp_trace::TraceConfig;
use ifp_vm::{run, ExecTier, Mode, Observation, RunResult, Verdict, VmConfig, VmError};
use std::fmt;

/// Runs one case under `mode` on `tier`, with `trace` enabled, through
/// `cache` when given. A suite replays each case program under several
/// modes (and benchmark reps), so a shared [`PlanCache`] collapses the
/// repeated validate/analyze/decode/fuse work to at most two artifacts
/// per case per tier; results are bit-identical with or without it
/// (golden-gated). When `trace` enables any category and the case
/// traps, the trap's forensic reconstruction rides along in the error.
///
/// # Errors
///
/// The [`VmError`] that stopped the run — for a bad case under an
/// instrumented mode, the detection itself.
pub fn run_case(
    case: &JulietCase,
    mode: Mode,
    trace: TraceConfig,
    tier: ExecTier,
    cache: Option<&PlanCache>,
) -> Result<RunResult, VmError> {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = 50_000_000;
    cfg.trace = trace;
    cfg.exec_tier = tier;
    match cache {
        Some(c) => c.run(&case.program, &cfg),
        None => run(&case.program, &cfg),
    }
}

/// Aggregate results over a suite.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuiteResult {
    /// Bad cases detected (true positives).
    pub detected: usize,
    /// Bad cases that completed undetected (misses).
    pub missed: Vec<String>,
    /// Good cases that completed (true negatives).
    pub passed: usize,
    /// Good cases that trapped (false positives).
    pub false_positives: Vec<String>,
    /// Cases stopped by a non-safety trap (wild page fault): the program
    /// crashed, but not at a check — not a detection the defense can
    /// claim, and not a miss either.
    pub trapped_other: Vec<String>,
    /// Cases that errored outside the detection model.
    pub errors: Vec<String>,
}

impl SuiteResult {
    /// Tallies one verdict per case: a safety trap on a bad case is a
    /// detection, completion of a good case a pass. Both the spatial and
    /// the temporal suite fill their results through this one match.
    #[must_use]
    pub(crate) fn tally<'a>(
        verdicts: impl IntoIterator<Item = (CaseKind, &'a str, Verdict)>,
    ) -> Self {
        let mut out = SuiteResult::default();
        for (kind, id, verdict) in verdicts {
            match (kind, verdict) {
                (CaseKind::Bad, Verdict::SafetyTrap) => out.detected += 1,
                (CaseKind::Good, Verdict::Completed) => out.passed += 1,
                (CaseKind::Bad, Verdict::Completed) => out.missed.push(id.to_string()),
                (CaseKind::Good, Verdict::SafetyTrap) => out.false_positives.push(id.to_string()),
                (_, Verdict::OtherTrap) => out.trapped_other.push(id.to_string()),
                (_, Verdict::Error) => out.errors.push(id.to_string()),
            }
        }
        out
    }

    /// Total cases examined.
    #[must_use]
    pub fn total(&self) -> usize {
        self.detected
            + self.missed.len()
            + self.passed
            + self.false_positives.len()
            + self.trapped_other.len()
            + self.errors.len()
    }

    /// The paper's pass criterion: every bad case detected *at a check*,
    /// every good case passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.missed.is_empty()
            && self.false_positives.is_empty()
            && self.trapped_other.is_empty()
            && self.errors.is_empty()
    }
}

impl fmt::Display for SuiteResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases: {} detected, {} passed, {} missed, {} false positives, \
             {} other traps, {} errors",
            self.total(),
            self.detected,
            self.passed,
            self.missed.len(),
            self.false_positives.len(),
            self.trapped_other.len(),
            self.errors.len()
        )
    }
}

/// Runs a whole suite under `mode` on `tier` on up to `workers`
/// threads, through `cache` when given. Each case is an independent
/// simulation and outcomes merge in case order, so the result is
/// identical for any worker count and any cache state — only host
/// wall-clock changes.
#[must_use]
pub fn run_suite(
    cases: &[JulietCase],
    mode: Mode,
    workers: usize,
    tier: ExecTier,
    cache: Option<&PlanCache>,
) -> SuiteResult {
    let verdicts = ifp_testutil::par_map(cases, workers, |case| {
        Observation::of(&run_case(case, mode, TraceConfig::off(), tier, cache)).verdict
    });
    SuiteResult::tally(
        cases
            .iter()
            .zip(verdicts)
            .map(|(case, v)| (case.kind, case.id.as_str(), v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::all_cases;
    use ifp_vm::AllocatorKind;

    #[test]
    fn instrumented_detects_all_bad_and_passes_all_good() {
        let cases = all_cases();
        for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
            let r = run_suite(&cases, Mode::instrumented(alloc), 1, ExecTier::Interp, None);
            assert!(
                r.is_clean(),
                "{alloc}: {r}\nmissed: {:?}\nfalse positives: {:?}\nerrors: {:?}",
                r.missed,
                r.false_positives,
                r.errors
            );
            assert_eq!(r.detected, cases.len() / 2);
        }
    }

    #[test]
    fn parallel_suite_is_identical_to_single_thread() {
        // The sweep determinism invariant: fan-out changes wall-clock
        // only. SuiteResult derives Eq, so this compares every field,
        // including the order of the id lists.
        let cases = all_cases();
        for mode in [Mode::Baseline, Mode::instrumented(AllocatorKind::Subheap)] {
            let one = run_suite(&cases, mode, 1, ExecTier::Interp, None);
            for workers in [2, 5] {
                let many = run_suite(&cases, mode, workers, ExecTier::Interp, None);
                assert_eq!(one, many, "{mode} diverged at {workers} workers");
            }
        }
    }

    #[test]
    fn cached_suite_matches_fresh_on_both_tiers() {
        // Warm-cache replay must be outcome-identical to fresh compiles,
        // across tiers and worker counts (SuiteResult derives Eq).
        let cases: Vec<_> = all_cases().into_iter().take(24).collect();
        let mode = Mode::instrumented(AllocatorKind::Subheap);
        let fresh = run_suite(&cases, mode, 1, ExecTier::Interp, None);
        let cache = PlanCache::new();
        for tier in [ExecTier::Interp, ExecTier::Jit] {
            for workers in [1, 4] {
                let cached = run_suite(&cases, mode, workers, tier, Some(&cache));
                assert_eq!(fresh, cached, "{tier:?} diverged at {workers} workers");
            }
        }
        let s = cache.stats();
        assert!(s.hits > 0, "warm replay must hit: {s:?}");
    }

    #[test]
    fn baseline_passes_good_cases() {
        let cases = all_cases();
        let r = run_suite(&cases, Mode::Baseline, 1, ExecTier::Interp, None);
        assert!(r.false_positives.is_empty(), "{:?}", r.false_positives);
        assert_eq!(r.passed, cases.len() / 2);
        // The baseline misses most overflows (they land in padding or
        // allocator slack) — that asymmetry *is* the motivation.
        assert!(!r.missed.is_empty());
    }

    #[test]
    fn no_promote_misses_loaded_flow_cases() {
        let cases = all_cases();
        let r = run_suite(
            &cases,
            Mode::Instrumented {
                allocator: AllocatorKind::Subheap,
                no_promote: true,
            },
            1,
            ExecTier::Interp,
            None,
        );
        assert!(
            !r.missed.is_empty(),
            "the no-promote ablation must lose detection coverage"
        );
        assert!(r.false_positives.is_empty());
    }
}
