//! Runs one of the paper's evaluation workloads across the five
//! configurations and prints the Figure 10/Table 4 quantities for it.
//!
//! Run with: `cargo run --release --example workload_overheads [name]`
//! (default workload: treeadd)

use ifp::eval::ModeSweep;
use ifp::vm::ExecTier;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "treeadd".into());
    let Some(w) = ifp::workloads::by_name(&name) else {
        eprintln!(
            "unknown workload `{name}`; available: {}",
            ifp::workloads::all()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    };

    println!("{}: {}", w.name, w.description);
    let program = w.build_default();
    let sweep = ModeSweep::run(w.name, &program, ExecTier::Interp, None)
        .expect("workload runs in all modes");

    println!(
        "\nbaseline: {} instructions, {} cycles, {} heap allocations",
        sweep.baseline.total_instrs(),
        sweep.baseline.cycles,
        sweep.baseline.heap_allocs
    );
    for (label, stats) in [
        ("subheap          ", &sweep.subheap),
        ("wrapped          ", &sweep.wrapped),
        ("subheap-nopromote", &sweep.subheap_nopromote),
        ("wrapped-nopromote", &sweep.wrapped_nopromote),
    ] {
        println!(
            "{label}: runtime {:+6.1}%  instructions {:.2}x  memory {:+6.1}%",
            sweep.runtime_overhead(stats) * 100.0,
            sweep.instr_ratio(stats),
            sweep.memory_overhead(stats) * 100.0,
        );
    }

    let st = &sweep.subheap;
    println!(
        "\npromotes (subheap): {} total / {} valid ({} null, {} legacy bypasses)",
        st.promotes.total, st.promotes.valid, st.promotes.null_bypass, st.promotes.legacy_bypass
    );
    println!(
        "objects: {} stack ({} with layout table), {} heap ({} with layout table), {} global",
        st.stack_objects.objects,
        st.stack_objects.with_layout_table,
        st.heap_objects.objects,
        st.heap_objects.with_layout_table,
        st.global_objects.objects
    );
}
