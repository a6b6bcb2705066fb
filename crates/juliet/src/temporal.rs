//! Temporal case families: CWE-416 (Use After Free) and CWE-415
//! (Double Free), the Juliet categories the spatial suite leaves out.
//!
//! Like the spatial generator, each family is emitted as good/bad pairs
//! across data-flow variants (direct use, flow through a call, flow
//! through memory — the promote path). The cases are heap-only (both
//! CWEs are heap lifetimes by definition) and are run under an explicit
//! [`TemporalPolicy`]: the detection claim is that every enforcing
//! policy catches every bad case *at the temporal check* (no refill
//! happens between free and use, so the revoked-region check is
//! deterministic for key-check, tag-cycle and quarantine alike) while
//! every good case completes untouched — including under `Off`, which
//! must detect nothing.

use crate::gen::{CaseKind, Variant};
use crate::harness::SuiteResult;
use ifp_compiler::{Operand, Program, ProgramBuilder};
use ifp_hw::Trap;
use ifp_temporal::TemporalPolicy;
use ifp_trace::TemporalKind;
use ifp_vm::{run, Mode, Verdict, VmConfig, VmError};

/// The temporal-error class of a case (maps onto Juliet CWE numbers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TemporalCwe {
    /// Use of heap memory after it was freed (CWE-416).
    UseAfterFree,
    /// The same allocation freed twice (CWE-415).
    DoubleFree,
}

impl TemporalCwe {
    /// Both temporal error classes, in serialization order.
    pub const ALL: [TemporalCwe; 2] = [TemporalCwe::UseAfterFree, TemporalCwe::DoubleFree];

    /// The Juliet CWE number.
    #[must_use]
    pub fn number(self) -> u32 {
        match self {
            TemporalCwe::UseAfterFree => 416,
            TemporalCwe::DoubleFree => 415,
        }
    }

    /// The trap classification a bad case of this class must raise.
    #[must_use]
    pub fn kind(self) -> TemporalKind {
        match self {
            TemporalCwe::UseAfterFree => TemporalKind::UseAfterFree,
            TemporalCwe::DoubleFree => TemporalKind::DoubleFree,
        }
    }

    /// Stable serialization name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TemporalCwe::UseAfterFree => "use_after_free",
            TemporalCwe::DoubleFree => "double_free",
        }
    }

    /// Parses a [`TemporalCwe::name`] string back.
    #[must_use]
    pub fn from_name(s: &str) -> Option<TemporalCwe> {
        TemporalCwe::ALL.into_iter().find(|c| c.name() == s)
    }

    /// The data-flow variants this class is generated across. Double
    /// frees have no memory-round-trip variant: the free operand is the
    /// allocation base either way, so `LoadedFlow` would not change
    /// which check fires.
    #[must_use]
    pub fn variants(self) -> &'static [Variant] {
        match self {
            TemporalCwe::UseAfterFree => &[Variant::Direct, Variant::CallFlow, Variant::LoadedFlow],
            TemporalCwe::DoubleFree => &[Variant::Direct, Variant::CallFlow],
        }
    }
}

/// One generated temporal test case.
#[derive(Debug)]
pub struct TemporalCase {
    /// Human-readable identifier (mirrors Juliet naming).
    pub id: String,
    /// Error class.
    pub cwe: TemporalCwe,
    /// Data-flow variant.
    pub variant: Variant,
    /// Good or bad.
    pub kind: CaseKind,
    /// The program.
    pub program: Program,
}

/// Builds one case's program.
///
/// Every program opens with a never-freed ballast allocation of the
/// same type, so the allocator block backing the target stays mapped
/// after the free — stale-use outcomes are then a function of the
/// temporal policy, not of page liveness (the subheap releases empty
/// blocks). No allocation happens between the free and the stale use,
/// so the freed chunk is never reused and the revoked-region check is
/// deterministic under every enforcing policy.
fn build_case(cwe: TemporalCwe, variant: Variant, kind: CaseKind) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.types.int64();
    let vp = pb.types.void_ptr();
    let node = pb.types.struct_type("Node", &[("a", i64t), ("b", i64t)]);
    let cell_g = (variant == Variant::LoadedFlow).then(|| pb.global("g_ptr", vp));

    if cwe == TemporalCwe::UseAfterFree && variant == Variant::CallFlow {
        let mut h = pb.func("use_helper", 1);
        let p = h.param(0);
        let v = h.load(p, i64t);
        h.print_int(v);
        h.ret(None);
        pb.finish_func(h);
    }
    if cwe == TemporalCwe::UseAfterFree && variant == Variant::LoadedFlow {
        let cell_g = cell_g.expect("loaded flow has a cell");
        let mut h = pb.func("use_helper", 0);
        let gp = h.addr_of_global(cell_g);
        let p = h.load(gp, vp); // the promote path
        let v = h.load(p, i64t);
        h.print_int(v);
        h.ret(None);
        pb.finish_func(h);
    }
    if cwe == TemporalCwe::DoubleFree && variant == Variant::CallFlow {
        let mut h = pb.func("free_helper", 1);
        let p = h.param(0);
        h.free(p);
        h.ret(None);
        pb.finish_func(h);
    }

    let mut m = pb.func("main", 0);
    let ballast = m.malloc(node);
    let p = m.malloc(node);
    m.store(p, 5i64, i64t);
    if let Some(cell_g) = cell_g {
        let gp = m.addr_of_global(cell_g);
        m.store(gp, p, vp);
    }

    let use_p = |m: &mut ifp_compiler::FnBuilder| match variant {
        Variant::CallFlow => m.call_void("use_helper", vec![Operand::Reg(p)]),
        Variant::LoadedFlow => m.call_void("use_helper", vec![]),
        _ => {
            let v = m.load(p, i64t);
            m.print_int(v);
        }
    };
    let free_p = |m: &mut ifp_compiler::FnBuilder| match variant {
        Variant::CallFlow => m.call_void("free_helper", vec![Operand::Reg(p)]),
        _ => m.free(p),
    };

    match cwe {
        TemporalCwe::UseAfterFree => {
            // Good: use while live, then free. Bad: free, then use.
            if kind == CaseKind::Good {
                use_p(&mut m);
                m.free(p);
            } else {
                m.free(p);
                use_p(&mut m);
            }
        }
        TemporalCwe::DoubleFree => {
            let v = m.load(p, i64t);
            m.print_int(v);
            free_p(&mut m);
            if kind == CaseKind::Bad {
                free_p(&mut m);
            }
        }
    }
    m.print_int(1i64); // completion marker
    m.free(ballast);
    m.ret(Some(Operand::Imm(0)));
    pb.finish_func(m);
    pb.build()
}

/// Generates the temporal suite: good/bad pairs over every class and
/// its data-flow variants.
#[must_use]
pub fn temporal_cases() -> Vec<TemporalCase> {
    let mut out = Vec::new();
    for cwe in TemporalCwe::ALL {
        for &variant in cwe.variants() {
            for kind in [CaseKind::Good, CaseKind::Bad] {
                let id = format!(
                    "CWE{}_{:?}_Heap_{:?}_{}",
                    cwe.number(),
                    cwe,
                    variant,
                    kind.name()
                );
                out.push(TemporalCase {
                    id,
                    cwe,
                    variant,
                    kind,
                    program: build_case(cwe, variant, kind),
                });
            }
        }
    }
    out
}

/// Runs one case under `mode` with temporal `policy`. Only a temporal
/// trap of the case's own class counts as [`Verdict::SafetyTrap`]; any
/// other trap (spatial, page fault, or the wrong temporal class) is a
/// crash the defense cannot claim, [`Verdict::OtherTrap`].
#[must_use]
pub fn run_temporal_case(case: &TemporalCase, mode: Mode, policy: TemporalPolicy) -> Verdict {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = 50_000_000;
    cfg.temporal = policy;
    match run(&case.program, &cfg) {
        Ok(_) => Verdict::Completed,
        Err(VmError::Trap {
            trap: Trap::Temporal { kind, .. },
            ..
        }) if kind == case.cwe.kind() => Verdict::SafetyTrap,
        Err(VmError::Trap { .. }) => Verdict::OtherTrap,
        Err(_) => Verdict::Error,
    }
}

/// Runs the whole temporal suite under `mode` with `policy` on up to
/// `workers` threads, tallying with the same [`SuiteResult`] as the
/// spatial harness. Outcomes merge in case order, so the result is
/// identical for any worker count.
#[must_use]
pub fn run_temporal_suite(
    cases: &[TemporalCase],
    mode: Mode,
    policy: TemporalPolicy,
    workers: usize,
) -> SuiteResult {
    let verdicts =
        ifp_testutil::par_map(cases, workers, |case| run_temporal_case(case, mode, policy));
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
    use ifp_vm::AllocatorKind;

    #[test]
    fn names_round_trip() {
        for c in TemporalCwe::ALL {
            assert_eq!(TemporalCwe::from_name(c.name()), Some(c));
        }
        assert_eq!(TemporalCwe::from_name("bogus"), None);
    }

    #[test]
    fn suite_has_expected_shape() {
        let cases = temporal_cases();
        // 3 UAF variants + 2 DF variants, good/bad each.
        assert_eq!(cases.len(), (3 + 2) * 2);
        let bad = cases.iter().filter(|c| c.kind == CaseKind::Bad).count();
        assert_eq!(bad, cases.len() / 2);
        for c in &cases {
            assert!(c.program.validate().is_ok(), "{} invalid", c.id);
        }
    }

    #[test]
    fn every_enforcing_policy_detects_all_bad_and_passes_all_good() {
        let cases = temporal_cases();
        for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
            for policy in TemporalPolicy::ENFORCING {
                let r = run_temporal_suite(&cases, Mode::instrumented(alloc), policy, 1);
                assert!(
                    r.is_clean(),
                    "{alloc}/{policy}: {r}\nmissed: {:?}\nfalse positives: {:?}\n\
                     other traps: {:?}\nerrors: {:?}",
                    r.missed,
                    r.false_positives,
                    r.trapped_other,
                    r.errors
                );
                assert_eq!(r.detected, cases.len() / 2, "{alloc}/{policy}");
            }
        }
    }

    #[test]
    fn off_policy_detects_nothing_and_passes_good() {
        let cases = temporal_cases();
        for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
            let r = run_temporal_suite(&cases, Mode::instrumented(alloc), TemporalPolicy::Off, 1);
            assert_eq!(r.detected, 0, "{alloc}: off policy claimed a detection");
            assert!(r.false_positives.is_empty(), "{:?}", r.false_positives);
            assert_eq!(r.passed, cases.len() / 2, "{alloc}: good cases must pass");
        }
    }
}
