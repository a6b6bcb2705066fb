//! The analyze gate: `ifp-analyze` must never weaken the detection
//! story. `cargo test --release --workspace` runs it with every other
//! test; the pinned fuzz campaigns it shares seeds with also run in
//! CI's fuzz job.
//!
//! Three pillars:
//!
//! 1. The Layer-1 verifier reports zero diagnostics over every seed
//!    program (18 workloads + every generated Juliet case).
//! 2. With `elide_checks` on — the plan including inter-procedural
//!    summaries — every Juliet run, all cases under both instrumented
//!    allocators and both execution tiers, behaves exactly like the run
//!    without elision (verdict, trap, exit code, output), while the
//!    elision measurably removes modeled work.
//! 3. Pinned-seed differential fuzz campaigns produce zero findings.
//!    Every campaign runs the oracle's config table, whose rows rerun
//!    each instrumented case elided, on both tiers, and through plan
//!    caches.

use ifp_juliet::all_cases;
use ifp_vm::{run, AllocatorKind, ExecTier, Mode, Observation, VmConfig};

fn observe(
    program: &ifp_compiler::Program,
    mode: Mode,
    tier: ExecTier,
    elide: bool,
) -> Observation {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = 50_000_000;
    cfg.exec_tier = tier;
    cfg.elide_checks = elide;
    Observation::of(&run(program, &cfg))
}

#[test]
fn verifier_is_clean_on_every_seed_program() {
    for w in ifp_workloads::all() {
        let program = w.build_default();
        let diags = ifp_analyze::verify(&program);
        assert!(
            diags.is_empty(),
            "{}: {}",
            w.name,
            ifp_analyze::to_jsonl(&diags)
        );
    }
    for case in all_cases() {
        let diags = ifp_analyze::verify(&case.program);
        assert!(
            diags.is_empty(),
            "{}: {}",
            case.id,
            ifp_analyze::to_jsonl(&diags)
        );
    }
}

fn cycles(o: &Observation) -> u64 {
    o.stats.as_ref().map_or(0, |s| s.cycles)
}

#[test]
fn elision_preserves_every_juliet_verdict_and_saves_cycles() {
    let cases = all_cases();
    let mut outcomes = 0usize;
    let mut cycles_off = 0u64;
    let mut cycles_on = 0u64;
    let rows = ifp_testutil::par_map(&cases, ifp_testutil::default_workers(), |case| {
        let mut rows = Vec::new();
        for alloc in AllocatorKind::ALL {
            let mode = Mode::instrumented(alloc);
            let mut elided = Vec::new();
            for tier in [ExecTier::Interp, ExecTier::Jit] {
                let off = observe(&case.program, mode, tier, false);
                let on = observe(&case.program, mode, tier, true);
                assert!(
                    off.same_behaviour(&on),
                    "{} under {alloc}/{tier}: elision changed the run: {} vs {}",
                    case.id,
                    off.describe(),
                    on.describe()
                );
                rows.push((cycles(&off), cycles(&on)));
                elided.push(on);
            }
            // The two tiers consume the same interprocedural elision
            // plan: their elided runs must agree on the whole
            // observation, every modeled statistic included.
            assert_eq!(
                elided[0], elided[1],
                "{} under {alloc}: elided tiers diverged",
                case.id
            );
        }
        rows
    });
    for (c_off, c_on) in rows.into_iter().flatten() {
        outcomes += 1;
        cycles_off += c_off;
        cycles_on += c_on;
    }
    assert_eq!(
        outcomes,
        cases.len() * 4,
        "all cases under both allocators and both tiers"
    );
    assert!(
        cycles_on < cycles_off,
        "elision saved no cycles across the Juliet suite ({cycles_off} vs {cycles_on})"
    );
}

#[test]
fn elision_saves_cycles_across_the_workload_sweep() {
    let workloads = ifp_workloads::all();
    let rows = ifp_testutil::par_map(&workloads, ifp_testutil::default_workers(), |w| {
        let program = w.build_default();
        let mode = Mode::instrumented(AllocatorKind::Subheap);
        let off = run(&program, &VmConfig::with_mode(mode))
            .unwrap_or_else(|e| panic!("{} (elide off): {e}", w.name));
        let on = run(&program, &{
            let mut c = VmConfig::with_mode(mode);
            c.elide_checks = true;
            c
        })
        .unwrap_or_else(|e| panic!("{} (elide on): {e}", w.name));
        assert_eq!(
            off.output, on.output,
            "{}: elision changed program output",
            w.name
        );
        assert_eq!(off.exit_code, on.exit_code, "{}", w.name);
        assert!(
            on.stats.cycles <= off.stats.cycles,
            "{}: elision added cycles",
            w.name
        );
        (off.stats.cycles, on.stats.cycles, on.stats.elision)
    });
    let saved: u64 = rows.iter().map(|(off, on, _)| off - on).sum();
    let elided: u64 = rows.iter().map(|(_, _, e)| e.checks_elided).sum();
    assert!(saved > 0, "no modeled cycles saved across the sweep");
    assert!(elided > 0, "no checks elided across the sweep");
}

#[test]
fn pinned_seed_elide_campaign_has_zero_findings() {
    let report = ifp_fuzz::run_campaign(&ifp_fuzz::CampaignConfig {
        seed: 0xa7,
        iterations: 200,
        workers: ifp_testutil::default_workers(),
        corpus_dir: None,
        schedule: ifp_fuzz::Schedule::Uniform,
    });
    assert!(
        report.findings.is_empty(),
        "{:#?}",
        report
            .findings
            .iter()
            .map(|f| (&f.spec, &f.disagreements))
            .collect::<Vec<_>>()
    );
}

#[test]
fn pinned_seed_combined_interproc_campaign_has_zero_findings() {
    // The pinned seed of the combined elide + jit + plan-cache +
    // interproc campaign; the oracle's config table covers all of those
    // configurations on every case.
    let report = ifp_fuzz::run_campaign(&ifp_fuzz::CampaignConfig {
        seed: 0x1a7e,
        iterations: 100,
        workers: ifp_testutil::default_workers(),
        corpus_dir: None,
        schedule: ifp_fuzz::Schedule::Uniform,
    });
    assert!(
        report.findings.is_empty(),
        "{:#?}",
        report
            .findings
            .iter()
            .map(|f| (&f.spec, &f.disagreements))
            .collect::<Vec<_>>()
    );
}
