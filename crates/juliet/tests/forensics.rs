//! End-to-end forensics: an instrumented Juliet intra-object bad case
//! must not just trap — the trace ring must reconstruct *what* the access
//! violated: the narrowed subobject, the owning allocation and the
//! out-of-bounds distance (the paper's Listing 1 scenario, §2.1).

use ifp_juliet::{all_cases, run_case, JulietCase};
use ifp_trace::{ForensicReport, Region, Scheme, TraceConfig, TrapKind};
use ifp_vm::{AllocatorKind, ExecTier, Mode, Observation, Verdict, VmError};

fn case_by_id(id: &str) -> JulietCase {
    all_cases()
        .into_iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no case {id}"))
}

/// Runs `case` with `trace`, returning its verdict and the forensic
/// report the trap carries (if any).
fn verdict_and_report(
    case: &JulietCase,
    mode: Mode,
    trace: TraceConfig,
) -> (Verdict, Option<Box<ForensicReport>>) {
    let result = run_case(case, mode, trace, ExecTier::Interp, None);
    let verdict = Observation::of(&result).verdict;
    match result {
        Err(VmError::Trap { forensics, .. }) => (verdict, forensics),
        _ => (verdict, None),
    }
}

/// The generator's intra-object cases use `struct S { vulnerable: [i32;
/// 10], sensitive: [i32; 10] }` and write at `vulnerable[10]` — 4 bytes
/// past the narrowed member, still inside the 80-byte object.
#[test]
fn intra_object_bad_case_yields_subobject_forensics() {
    let case = case_by_id("CWE122_IntraObjectWrite_Heap_LoadedFlow_bad");
    let (outcome, forensics) = verdict_and_report(
        &case,
        Mode::instrumented(AllocatorKind::Subheap),
        TraceConfig::all(),
    );
    assert_eq!(outcome, Verdict::SafetyTrap);
    let r = forensics.expect("tracing was on, so the trap carries a report");

    // The violated interval is the `vulnerable` member: 10 x i32.
    let (lo, up) = r.bounds.expect("the failing check recorded its bounds");
    assert_eq!(up - lo, 40, "narrowed to the 40-byte member");

    // The subobject named by the report is the provenance of exactly
    // those bounds (a promote that narrowed to them).
    let sub = r.subobject.expect("narrowing promote found in the ring");
    assert_eq!((sub.lower, sub.upper), (lo, up));
    assert_ne!(sub.index, 0, "a real layout-table entry, not the root");

    // The owning allocation: the whole struct, from the subheap.
    let obj = r.object.expect("covering allocation found in the ring");
    assert_eq!(obj.size, 80, "the full struct S");
    assert_eq!(obj.base, lo, "`vulnerable` is the first member");
    assert_eq!(obj.scheme, Scheme::Subheap);
    assert_eq!(obj.region, Region::Heap);

    // The 4-byte store at vulnerable[10] ends 4 bytes past the member.
    assert_eq!(r.oob_distance, Some(4));

    let text = r.render();
    assert!(
        text.contains(&format!("subobject #{}", sub.index)),
        "{text}"
    );
    assert!(text.contains("4 byte(s) past the end"), "{text}");
    assert!(text.contains("subheap scheme"), "{text}");
}

/// The same case on the stack under the wrapped allocator: local-offset
/// metadata, same subobject verdict.
#[test]
fn intra_object_stack_case_names_local_offset_scheme() {
    let case = case_by_id("CWE121_IntraObjectWrite_Stack_LoadedFlow_bad");
    let (outcome, forensics) = verdict_and_report(
        &case,
        Mode::instrumented(AllocatorKind::Wrapped),
        TraceConfig::all(),
    );
    assert_eq!(outcome, Verdict::SafetyTrap);
    let r = forensics.expect("report");
    let obj = r.object.expect("stack object recorded");
    assert_eq!(obj.region, Region::Stack);
    assert_eq!(obj.scheme, Scheme::LocalOffset);
    assert_eq!(r.oob_distance, Some(4));
    assert!(r.subobject.is_some());
}

/// Without tracing, the same trap carries no report — the zero-cost path.
#[test]
fn disabled_tracing_means_no_report() {
    let case = case_by_id("CWE122_IntraObjectWrite_Heap_LoadedFlow_bad");
    let (outcome, forensics) = verdict_and_report(
        &case,
        Mode::instrumented(AllocatorKind::Subheap),
        TraceConfig::off(),
    );
    assert_eq!(outcome, Verdict::SafetyTrap);
    assert!(forensics.is_none());
}

/// A flat heap overflow read: no subobject (no narrowing involved), but
/// the object and distance still reconstruct.
#[test]
fn flat_overflow_names_object_and_distance() {
    let case = case_by_id("CWE126_Overread_Heap_Direct_bad");
    let (outcome, forensics) = verdict_and_report(
        &case,
        Mode::instrumented(AllocatorKind::Subheap),
        TraceConfig::all(),
    );
    assert_eq!(outcome, Verdict::SafetyTrap);
    let r = forensics.expect("report");
    assert!(matches!(r.trap, TrapKind::Poisoned | TrapKind::Bounds));
    let obj = r.object.expect("object");
    assert_eq!(obj.size, 40, "the 10 x i32 array");
    assert_eq!(r.oob_distance, Some(4), "read one element past the end");
}
