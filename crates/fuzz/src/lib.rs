//! `ifp-fuzz`: differential fuzzing of the In-Fat Pointer toolchain.
//!
//! The fuzzer closes the loop the hand-written Juliet-style suite
//! leaves open: instead of a fixed catalogue of cases, it generates
//! random programs over the compiler's [`ifp_compiler::ProgramBuilder`]
//! IR — nested structs, arrays of structs, interior-pointer arithmetic,
//! calls that pass bounds across functions — each with a planted
//! spatial bug (or none) whose ground truth is known by construction.
//!
//! Every program then runs through a differential oracle
//! ([`oracle::evaluate`]): the VM in baseline, instrumented (both
//! allocators), and no-promote modes, plus the analytic baseline
//! defenses (SoftBound, ASan, MTE) from `ifp_baselines`, and a config
//! table that reruns each instrumented allocator across check elision,
//! execution tier and compile path. The oracle
//! knows what each configuration *must* do — baseline completes good
//! cases, instrumented runs trap exactly the planted bugs, no-promote
//! misses only loaded-pointer flows, the defense implementations match
//! their analytic models — and any deviation is a finding: a missed
//! bug, a false trap, an escaped check, a mode divergence, or a
//! determinism violation.
//!
//! Campaigns ([`campaign::run_campaign`]) drive N iterations across a
//! worker pool. Determinism is load-bearing: iteration `i` derives its
//! RNG by splitting the campaign seed ([`ifp_testutil::Rng::stream`]),
//! so the same seed yields byte-identical programs, verdicts, and
//! corpus files regardless of worker count. Findings are auto-shrunk
//! to minimal reproducers ([`shrink::shrink_with`]), annotated with the
//! `ifp-trace` forensic reconstruction, and persisted as a JSON corpus
//! ([`corpus`]) that `ifp-fuzz replay` can re-execute.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod concurrent;
pub mod corpus;
pub mod json;
pub mod mutate;
pub mod oracle;
pub mod shrink;
pub mod spec;
pub mod temporal;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, Schedule};
pub use concurrent::{
    run_conc_campaign, ConcCampaignConfig, ConcCampaignReport, ConcCase, ConcSpec,
};
pub use corpus::{load_finding, write_corpus, Finding};
pub use mutate::mutate;
pub use oracle::{evaluate, Disagreement, Evaluation, FindingClass};
pub use shrink::shrink_with;
pub use spec::CaseSpec;
pub use temporal::{
    evaluate_temporal, run_temporal_campaign, TemporalBug, TemporalCampaignConfig,
    TemporalCampaignReport, TemporalSpec,
};
