//! Seed determinism: the campaign contract is that results are a pure
//! function of `(seed, iterations)` — worker count, scheduling, and
//! reruns must not change a byte.

use ifp_fuzz::campaign::{run_campaign, spec_for_ticket, CampaignConfig, Schedule};
use ifp_fuzz::spec::CaseSpec;
use ifp_fuzz::temporal::{run_temporal_campaign, temporal_spec_for_ticket, TemporalCampaignConfig};

const SEED: u64 = 0x1f9_f022;

fn config(workers: usize, corpus_dir: Option<std::path::PathBuf>) -> CampaignConfig {
    CampaignConfig {
        seed: SEED,
        iterations: 48,
        workers,
        corpus_dir,
        schedule: Schedule::Uniform,
    }
}

#[test]
fn same_seed_same_programs() {
    for i in 0..32 {
        let a = spec_for_ticket(SEED, i);
        let b = spec_for_ticket(SEED, i);
        assert_eq!(a, b, "ticket {i} diverged across derivations");
        // Programs are rebuilt from the spec deterministically too.
        let pa = format!("{:?}", a.build_program());
        let pb = format!("{:?}", b.build_program());
        assert_eq!(pa, pb, "ticket {i} built different programs");
    }
}

#[test]
fn same_seed_same_report_across_runs() {
    let r1 = run_campaign(&config(2, None));
    let r2 = run_campaign(&config(2, None));
    assert_eq!(r1.coverage, r2.coverage);
    assert_eq!(r1.findings.len(), r2.findings.len());
    for (a, b) in r1.findings.iter().zip(&r2.findings) {
        assert_eq!(a, b);
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let serial = run_campaign(&config(1, None));
    let parallel = run_campaign(&config(4, None));
    assert_eq!(serial.coverage, parallel.coverage);
    assert_eq!(serial.findings, parallel.findings);
}

#[test]
fn corpus_files_are_identical_across_worker_counts() {
    // Force a finding by persisting a synthetic one through the real
    // campaign path: run two campaigns with corpus dirs and compare the
    // directory contents byte for byte (normally both empty; if the
    // oracle ever disagrees, both must disagree identically).
    let d1 = std::env::temp_dir().join("ifp-fuzz-det-1");
    let d2 = std::env::temp_dir().join("ifp-fuzz-det-2");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
    let r1 = run_campaign(&config(1, Some(d1.clone())));
    let r2 = run_campaign(&config(3, Some(d2.clone())));
    assert_eq!(r1.corpus_paths.len(), r2.corpus_paths.len());
    for (p1, p2) in r1.corpus_paths.iter().zip(&r2.corpus_paths) {
        assert_eq!(p1.file_name(), p2.file_name());
        assert_eq!(std::fs::read(p1).unwrap(), std::fs::read(p2).unwrap());
    }
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

#[test]
fn coverage_guided_schedule_is_worker_invariant() {
    let mut guided = config(1, None);
    guided.schedule = Schedule::CoverageGuided;
    let serial = run_campaign(&guided);
    guided.workers = 4;
    let parallel = run_campaign(&guided);
    assert_eq!(serial.coverage, parallel.coverage);
    assert_eq!(serial.findings, parallel.findings);
}

#[test]
fn temporal_campaign_is_deterministic_across_worker_counts() {
    for i in 0..32 {
        assert_eq!(
            temporal_spec_for_ticket(SEED, i),
            temporal_spec_for_ticket(SEED, i),
            "temporal ticket {i} diverged"
        );
    }
    let cfg = TemporalCampaignConfig {
        seed: SEED,
        iterations: 24,
        workers: 1,
    };
    let serial = run_temporal_campaign(&cfg);
    let parallel = run_temporal_campaign(&TemporalCampaignConfig { workers: 4, ..cfg });
    assert_eq!(serial.coverage, parallel.coverage);
    assert_eq!(serial.findings.len(), parallel.findings.len());
    assert!(serial.findings.is_empty(), "{}", serial.render());
}

#[test]
fn specs_round_trip_through_corpus_json() {
    for i in 0..16 {
        let spec = spec_for_ticket(SEED, i);
        let back = CaseSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back, "ticket {i} spec JSON round trip");
    }
}
