//! Assembles the per-layer metrics of a traced run. The same names are
//! emitted on every workload; a count or ratio of a layer a workload does
//! not exercise reads 0.

use crate::kernels::Kernels;
use crate::stats::{median, percentile, ratio};
use crate::trace::{
    Trace, COMPILE, DECODE, EXEC, FINGERPRINT, FUSE, HOST_NEW, LOAD, LOOKUP, PLAN, VALIDATE,
};
use crate::{metric, Metric};
use ifp_plancache::CacheStats;

/// Plan-cache telemetry of the traced pass, plus the host ns of probe
/// lookups for workloads that run without a cache.
pub struct CacheUse {
    pub stats: CacheStats,
    /// Set when the workload makes no lookups of its own: a hit lookup
    /// timed once per (program, compile key) the pass ran.
    pub probe_lookup_ns: Option<f64>,
}

/// How a traced run's alternating untraced and traced passes went.
#[derive(Default)]
pub struct Passes {
    /// Wall time of the untraced passes.
    pub untraced_ns: u64,
    /// Wall time of the traced passes.
    pub traced_ns: u64,
    /// Traced passes; counts are reported per pass.
    pub traced: u64,
    /// Threads a pass runs on: spans are summed over them.
    pub threads: u64,
    /// Compiles made once in set-up rather than in the passes (the
    /// `sweep_elide` cache warm-up), and their total ns.
    pub setup_compiles: u64,
    pub setup_compile_ns: u64,
    /// Host seconds of one untraced pass, best-of-N as in the
    /// end-to-end run.
    pub wall_s: f64,
    /// Host µs per execution of each unit: its fastest untraced run.
    pub run_us: Vec<f64>,
}

pub fn per_layer(t: &Trace, k: &Kernels, cache: &CacheUse, passes: &Passes) -> Vec<Metric> {
    let c = &t.counts;
    let per_pass = |n: u64| (n / passes.traced.max(1)) as f64;
    let exec_total = t.total_ns(EXEC) as f64;
    // Thread time of the traced passes: the base of every share.
    let traced = (passes.traced_ns * passes.threads.max(1)) as f64;
    let pass_compile_ns = (t.total_ns(COMPILE) - passes.setup_compile_ns) as f64;
    let lookups = cache.stats.hits + cache.stats.misses;
    let lookup_ns = cache.probe_lookup_ns.unwrap_or_else(|| t.median_ns(LOOKUP));
    let promote_ns = median(&[
        k.promote_local_offset,
        k.promote_subheap,
        k.promote_global_table,
    ]);
    let alloc_ns = (k.alloc_subheap + k.alloc_wrapped) / 2.0;
    let share = |ns_per: f64, n: u64| ratio(ns_per * n as f64, exec_total);
    vec![
        // Compile phases, ns per compile.
        metric("compiler.validate_ns", t.median_ns(VALIDATE), "ns"),
        metric("analyze.plan_ns", t.median_ns(PLAN), "ns"),
        metric("vm.fingerprint_ns", t.median_ns(FINGERPRINT), "ns"),
        metric("jit.fuse_ns", t.median_ns(FUSE), "ns"),
        metric("vm.compile_ns", t.median_ns(COMPILE), "ns"),
        metric("vm.decode_ns", t.median_ns(DECODE), "ns"),
        metric(
            "vm.compile_calls",
            per_pass(t.calls(COMPILE) - passes.setup_compiles),
            "count",
        ),
        metric("vm.compile_share", ratio(pass_compile_ns, traced), "frac"),
        metric(
            "vm.fingerprint_compile_frac",
            ratio(t.total_ns(FINGERPRINT) as f64, t.total_ns(COMPILE) as f64),
            "frac",
        ),
        // Plan cache.
        metric("plancache.lookup_ns", lookup_ns, "ns"),
        metric("plancache.lookups", per_pass(lookups), "count"),
        metric("plancache.hit_rate", cache.stats.hit_rate(), "frac"),
        metric(
            "plancache.resident_mib",
            cache.stats.resident_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        // One untraced pass, and the host latency per program execution
        // over the units.
        metric("wall_s", passes.wall_s, "s"),
        metric("run_p50_us", percentile(&passes.run_us, 0.50), "us"),
        metric("run_p99_us", percentile(&passes.run_us, 0.99), "us"),
        // Run set-up and execution, ns per run.
        metric("vm.host_new_ns", t.median_ns(HOST_NEW), "ns"),
        metric("vm.load_ns", t.median_ns(LOAD), "ns"),
        metric("vm.exec_ns", t.median_ns(EXEC), "ns"),
        metric("vm.exec_calls", per_pass(t.calls(EXEC)), "count"),
        metric(
            "vm.exec_ns_per_instr",
            ratio(exec_total, c.instrs as f64),
            "ns",
        ),
        metric("vm.exec_share", ratio(exec_total, traced), "frac"),
        // Modeled work: the bases of every ratio above and below.
        metric("vm.modeled_instrs", per_pass(c.instrs), "count"),
        metric(
            "jit.fused_op_frac",
            ratio(c.fused_ops as f64, c.dynamic_ops as f64),
            "frac",
        ),
        metric(
            "analyze.checks_elided_frac",
            ratio(c.checks_elided as f64, c.checks_total as f64),
            "frac",
        ),
        metric("hw.promotes", per_pass(c.promotes), "count"),
        metric(
            "hw.promote_valid_frac",
            ratio(c.promotes_valid as f64, c.promotes as f64),
            "frac",
        ),
        metric(
            "meta.narrow_requested",
            per_pass(c.narrow_requested),
            "count",
        ),
        metric("mem.l1_accesses", per_pass(c.l1_accesses), "count"),
        metric(
            "mem.l1_miss_ratio",
            ratio(c.l1_misses as f64, c.l1_accesses as f64),
            "frac",
        ),
        metric("alloc.heap_allocs", per_pass(c.heap_allocs), "count"),
        metric("temporal.checks", per_pass(c.temporal_checks), "count"),
        metric(
            "temporal.quarantined",
            per_pass(c.temporal_quarantined),
            "count",
        ),
        // Layer kernels, ns per call.
        metric("mem.l1_access_ns", k.l1_access, "ns"),
        metric("mem.read_uint_ns", k.read_uint, "ns"),
        metric("hw.promote_ns.local_offset", k.promote_local_offset, "ns"),
        metric("hw.promote_ns.subheap", k.promote_subheap, "ns"),
        metric("hw.promote_ns.global_table", k.promote_global_table, "ns"),
        metric("meta.narrow_ns", k.narrow, "ns"),
        metric("alloc.subheap_ns", k.alloc_subheap, "ns"),
        metric("alloc.wrapped_ns", k.alloc_wrapped, "ns"),
        metric("temporal.check_ns", k.temporal_check, "ns"),
        metric("temporal.free_ns", k.temporal_free, "ns"),
        // Estimated shares of execution time: kernel ns x modeled count.
        metric("mem.est_share", share(k.read_uint, c.l1_accesses), "frac"),
        metric("hw.est_share", share(promote_ns, c.promotes_valid), "frac"),
        metric(
            "meta.est_share",
            share(k.narrow, c.narrow_requested),
            "frac",
        ),
        metric("alloc.est_share", share(alloc_ns, c.heap_allocs), "frac"),
        metric(
            "temporal.est_share",
            ratio(
                k.temporal_check * c.temporal_checks as f64
                    + k.temporal_free * c.temporal_revoked as f64,
                exec_total,
            ),
            "frac",
        ),
        // Accounting of the traced run itself.
        metric(
            "trace.unattributed_frac",
            ratio(traced - t.covered_ns as f64, traced),
            "frac",
        ),
        metric(
            "trace.overhead_frac",
            ratio(
                passes.traced_ns as f64 - passes.untraced_ns as f64,
                passes.untraced_ns as f64,
            ),
            "frac",
        ),
    ]
}
