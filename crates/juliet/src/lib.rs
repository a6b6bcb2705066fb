//! Juliet-style functional evaluation (paper §5.1).
//!
//! The paper runs the NIST Juliet 1.3 C/C++ suite's out-of-bounds
//! categories — stack overflow (CWE-121), heap overflow (CWE-122),
//! underwrite (CWE-124), overread (CWE-126), underread (CWE-127) — and
//! reports that In-Fat Pointer detects every vulnerable case while
//! passing every good case. The suite itself is not redistributable
//! here, so this crate *generates* cases with the same structure: each
//! case is a program with a `good` path (in-bounds) and a `bad` path
//! (out-of-bounds), across the data-flow variants Juliet uses (direct
//! index, loop bound, pointer arithmetic, flow through a call, flow
//! through memory), over heap, stack and global objects, plus
//! intra-object variants for the subobject-granularity claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod temporal;

pub use gen::{all_cases, CaseKind, Cwe, JulietCase, Site, Variant, ALL_CWES};
pub use harness::{run_case, run_suite, SuiteResult};
pub use temporal::{
    run_temporal_case, run_temporal_suite, temporal_cases, TemporalCase, TemporalCwe,
};
