//! Traced-run bookkeeping: timed spans around every call this crate makes
//! into a simulator layer, and the modeled counts those calls produced.
//!
//! A span is recorded at a call boundary (`time`); a sample derived from
//! timed spans or from an artifact's own compile telemetry is recorded
//! with `note` and covers no wall time of its own. The traced wall minus
//! the time covered by spans is the unattributed remainder.

use crate::stats::{median, ns_since};
use ifp_compiler::Program;
use ifp_vm::{program_fingerprint, CompiledArtifact, ExecTier, FusionStats, RunStats, VmConfig};
use std::collections::BTreeMap;
use std::time::Instant;

pub const VALIDATE: &str = "compiler.validate";
pub const PLAN: &str = "analyze.plan";
pub const FINGERPRINT: &str = "vm.fingerprint";
pub const FUSE: &str = "jit.fuse";
pub const COMPILE: &str = "vm.compile";
pub const DECODE: &str = "vm.decode";
pub const LOOKUP: &str = "plancache.lookup";
pub const HOST_NEW: &str = "vm.host_new";
pub const LOAD: &str = "vm.load";
pub const EXEC: &str = "vm.exec";

/// Modeled work summed over every run of a traced pass: the bases the
/// per-layer ratios and estimated shares are computed from.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub instrs: u64,
    pub promotes: u64,
    pub promotes_valid: u64,
    pub narrow_requested: u64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub heap_allocs: u64,
    pub temporal_checks: u64,
    pub temporal_revoked: u64,
    pub temporal_quarantined: u64,
    pub checks_total: u64,
    pub checks_elided: u64,
    pub dynamic_ops: u64,
    pub fused_ops: u64,
}

impl Counts {
    pub fn add_stats(&mut self, s: &RunStats) {
        self.instrs += s.total_instrs();
        self.promotes += s.promotes.total;
        self.promotes_valid += s.promotes.valid;
        self.narrow_requested += s.promotes.narrow_requested;
        self.l1_accesses += s.l1.accesses();
        self.l1_misses += s.l1.misses;
        self.heap_allocs += s.heap_allocs;
        self.temporal_checks += s.temporal.checks;
        self.temporal_revoked += s.temporal.revoked;
        self.temporal_quarantined += s.temporal.quarantined;
        self.checks_total += s.elision.checks_total;
        self.checks_elided += s.elision.checks_elided;
    }

    pub fn add_fusion(&mut self, f: &FusionStats) {
        self.dynamic_ops += f.dynamic_ops();
        self.fused_ops += f.fused_ops();
    }

    fn merge(&mut self, o: &Counts) {
        self.instrs += o.instrs;
        self.promotes += o.promotes;
        self.promotes_valid += o.promotes_valid;
        self.narrow_requested += o.narrow_requested;
        self.l1_accesses += o.l1_accesses;
        self.l1_misses += o.l1_misses;
        self.heap_allocs += o.heap_allocs;
        self.temporal_checks += o.temporal_checks;
        self.temporal_revoked += o.temporal_revoked;
        self.temporal_quarantined += o.temporal_quarantined;
        self.checks_total += o.checks_total;
        self.checks_elided += o.checks_elided;
        self.dynamic_ops += o.dynamic_ops;
        self.fused_ops += o.fused_ops;
    }
}

/// Span samples (host ns per call) and modeled counts of a traced pass.
#[derive(Debug, Default)]
pub struct Trace {
    samples: BTreeMap<&'static str, Vec<u64>>,
    /// Time covered by `time` spans (summed over threads).
    pub covered_ns: u64,
    pub counts: Counts,
}

impl Trace {
    /// Runs `f` as one call of span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = ns_since(t0);
        self.covered_ns += ns;
        self.note(name, ns);
        r
    }

    /// Records a derived per-call sample that covers no wall time.
    pub fn note(&mut self, name: &'static str, ns: u64) {
        self.samples.entry(name).or_default().push(ns);
    }

    /// Folds `other` in, including its covered time.
    pub fn merge(&mut self, other: Trace) {
        for (name, v) in other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
        self.covered_ns += other.covered_ns;
        self.counts.merge(&other.counts);
    }

    /// Folds in only `other`'s samples: work done outside the traced
    /// passes (compiles split after the fact) that must not count as
    /// covered pass time.
    pub fn merge_samples(&mut self, other: Trace) {
        for (name, v) in other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
    }

    pub fn median_ns(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| {
            let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
            median(&f)
        })
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.samples.get(name).map_or(0, |v| v.iter().sum())
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.samples.get(name).map_or(0, |v| v.len() as u64)
    }

    /// Times the public compile phases `compile_artifact` runs for
    /// `program` under `config` — validate, the instrumentation plan
    /// (instrumented modes), the content fingerprint, and the fusion plan
    /// (jit tier) — and records the remainder of `compile_ns` (pre-decode,
    /// plus fused-stream lowering on the jit tier) as the decode sample.
    /// The fusion plan is timed on the interp tier too, so that
    /// `jit.fuse_ns` is measured on every workload's programs.
    pub fn split_compile(&mut self, program: &Program, config: &VmConfig, compile_ns: u64) {
        let mut phases = self.time_ns(VALIDATE, || program.validate().is_ok());
        if config.mode.is_instrumented() {
            phases += self.time_ns(PLAN, || {
                ifp_analyze::instr_plan(program, config.elide_checks)
            });
        }
        phases += self.time_ns(FINGERPRINT, || program_fingerprint(program));
        let fuse_ns = self.time_ns(FUSE, || ifp_jit::fuse(program));
        if config.exec_tier == ExecTier::Jit {
            phases += fuse_ns;
        }
        self.note(COMPILE, compile_ns);
        self.note(DECODE, compile_ns.saturating_sub(phases));
    }

    fn time_ns<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> u64 {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let ns = ns_since(t0);
        self.covered_ns += ns;
        self.note(name, ns);
        ns
    }
}

/// Compiles `program` for `config` exactly as `ifp_vm::run` does, with
/// the compile split into its phases (the phases run a second time, as
/// probes: that cost is part of the tracing overhead).
pub fn compile(
    t: &mut Trace,
    program: &Program,
    config: &VmConfig,
) -> Result<std::sync::Arc<CompiledArtifact>, ifp_vm::VmError> {
    let t0 = Instant::now();
    let art = ifp_vm::compile_artifact(program, config);
    let ns = ns_since(t0);
    t.covered_ns += ns;
    let art = art?;
    t.split_compile(program, config, ns);
    Ok(std::sync::Arc::new(art))
}
