//! Cross-crate integration: every evaluation workload runs under all five
//! configurations with identical output — the correctness backbone of the
//! whole evaluation (a divergence would mean the instrumentation changed
//! program semantics).

use ifp::eval::ModeSweep;
use ifp::vm::ExecTier;

#[test]
fn all_workloads_agree_across_all_configurations() {
    // Small scales keep the suite fast; ModeSweep asserts output equality
    // across the five configurations internally.
    let small_scale = |name: &str| match name {
        "bh" => 24,
        "bisort" => 6,
        "em3d" => 48,
        "health" => 3,
        "mst" => 16,
        "perimeter" => 4,
        "power" => 2,
        "treeadd" => 7,
        "tsp" => 6,
        "voronoi" => 5,
        "anagram" => 12,
        "ft" => 48,
        "ks" => 12,
        "yacr2" => 24,
        "wolfcrypt-dh" => 2,
        "sjeng" => 3,
        "coremark" => 2,
        "bzip2" => 1,
        other => panic!("unknown workload {other}"),
    };
    for w in ifp::workloads::all() {
        let program = (w.build)(small_scale(w.name));
        let sweep = ModeSweep::run(w.name, &program, ExecTier::Interp, None)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            sweep.baseline.total_instrs() > 8_000,
            "{}: workload too trivial ({} instrs)",
            w.name,
            sweep.baseline.total_instrs()
        );
        // Instrumentation always adds In-Fat Pointer instructions.
        assert!(sweep.subheap.ifp_instrs() > 0, "{}", w.name);
        assert!(sweep.wrapped.ifp_instrs() > 0, "{}", w.name);
        // The no-promote ablation executes the same instruction stream.
        assert_eq!(
            sweep.subheap.total_instrs(),
            sweep.subheap_nopromote.total_instrs(),
            "{}: no-promote must not change the instruction stream",
            w.name
        );
        assert_eq!(
            sweep.wrapped.total_instrs(),
            sweep.wrapped_nopromote.total_instrs(),
            "{}",
            w.name
        );
        // ...but never costs more cycles than real promotes.
        assert!(
            sweep.subheap_nopromote.cycles <= sweep.subheap.cycles,
            "{}",
            w.name
        );
    }
}

#[test]
fn workload_registry_is_complete() {
    let all = ifp::workloads::all();
    assert_eq!(all.len(), 18, "the paper evaluates 18 programs");
    let olden = all
        .iter()
        .filter(|w| w.suite == ifp::workloads::Suite::Olden)
        .count();
    let ptrdist = all
        .iter()
        .filter(|w| w.suite == ifp::workloads::Suite::PtrDist)
        .count();
    assert_eq!(olden, 10, "all Olden programs");
    assert_eq!(ptrdist, 4, "anagram, ft, ks, yacr2");
    assert!(ifp::workloads::by_name("treeadd").is_some());
    assert!(ifp::workloads::by_name("nonexistent").is_none());
}
