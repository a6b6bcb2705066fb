//! The `serve` workload: `ifp_serve::run_service` at the pinned serve
//! configuration (8,192 requests, 8 shards, concurrency 1, queue budget
//! 32) with a shared plan cache, fresh for every pass, on up to two
//! workers.
//!
//! The generator seed is `0x5e12e + --seed`. Every pass's report is
//! checked against an independent oracle: each distinct (program, tenant)
//! pair is run once through the same pooled, cached path, and the shards'
//! admission is replayed in virtual time from those modeled cycles. The
//! report bytes are also checked against a pinned digest when the seed
//! has one, and against the run's first pass otherwise.

use crate::kernels;
use crate::layers::{per_layer, CacheUse, Passes};
use crate::stats::{fastest, ns_since, peak_rss_mib, Fnv};
use crate::trace::{Trace, EXEC, HOST_NEW, LOAD, LOOKUP};
use crate::workloads::SetupSampler;
use crate::{metric, Args, Outcome};
use ifp_hw::Trap;
use ifp_plancache::{CacheStats, PlanCache};
use ifp_serve::{
    generate_requests, run_service, standard_tenants, ProgramSet, ReqKind, Request, ServeConfig,
    ServeReport, Tenant,
};
use ifp_vm::{CompiledArtifact, RunResult, Vm, VmConfig, VmError, VmHost};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// The pinned serve seed (`BENCH_serve.json`'s configuration).
const BASE_SEED: u64 = 0x5e12e;
/// Measured passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// `--seed` → (FNV-1a of the report JSON, completed, shed, detected),
/// all with 0 unexpected. `--seed 0` is the pinned serve configuration.
/// `--seed 2718281` is held out: it was pinned once and is kept for
/// checking a claim on a seed that was not used while writing it.
const PINNED: [(u64, u64, u64, u64, u64); 11] = [
    (0, 0xcd28_6d67_a1d7_949b, 5125, 789, 2093),
    (1, 0x4556_d3e2_de6a_1190, 5266, 602, 2175),
    (2, 0x14d2_7ec8_a265_cb1e, 5266, 642, 2130),
    (3, 0x8557_6c78_6b5b_6818, 5253, 647, 2131),
    (4, 0x4449_d981_25ef_05bd, 5380, 458, 2193),
    (5, 0x34b2_15bc_cc86_52f6, 5271, 642, 2100),
    (6, 0x1d45_5c32_1026_ef55, 5038, 897, 2080),
    (7, 0xbe36_6e56_2b04_0e0e, 5192, 732, 2101),
    (8, 0x81a8_4ea0_4a4a_4087, 5334, 620, 2063),
    (9, 0xf8a6_0f17_3719_4751, 5142, 809, 2075),
    (2718281, 0x124e_f99f_d8d0_bbe3, 5307, 592, 2125),
];

fn config(args: &Args) -> ServeConfig {
    ServeConfig {
        seed: BASE_SEED.wrapping_add(args.seed),
        workers: ifp_testutil::default_workers().min(2),
        ..ServeConfig::default()
    }
}

/// What the benchmark builds before it measures: the same program set and
/// request stream `run_service` builds for itself, kept for the oracle.
struct Setup {
    cfg: ServeConfig,
    tenants: Vec<Tenant>,
    set: ProgramSet,
    requests: Vec<Request>,
}

fn setup(args: &Args) -> Setup {
    let cfg = config(args);
    let tenants = standard_tenants();
    let set = ProgramSet::build();
    let requests = generate_requests(&cfg, &tenants);
    Setup {
        cfg,
        tenants,
        set,
        requests,
    }
}

impl Setup {
    /// Requests routed to shards as `run_service` routes them.
    fn lanes(&self) -> Vec<Vec<Request>> {
        let mut lanes = vec![Vec::new(); self.cfg.shards];
        for r in &self.requests {
            lanes[(r.id % self.cfg.shards as u64) as usize].push(r.clone());
        }
        lanes
    }

    fn program(&self, kind: ReqKind) -> &ifp_compiler::Program {
        match kind {
            ReqKind::Juliet(i) => &self.set.juliet[i].program,
            ReqKind::Temporal(i) => &self.set.temporal[i].program,
            ReqKind::Workload(i) => &self.set.workloads[i].1,
        }
    }

    fn vm_config(&self, tenant: usize) -> VmConfig {
        let mut cfg = self.tenants[tenant].vm_config();
        cfg.exec_tier = self.cfg.exec_tier;
        cfg
    }
}

/// Request outcomes, counted the way the shards count them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    completed: u64,
    shed: u64,
    detected: u64,
    unexpected: u64,
}

impl Tally {
    fn of(report: &ServeReport) -> Tally {
        Tally {
            completed: report.completed,
            shed: report.shed,
            detected: report.detected,
            unexpected: report.unexpected(),
        }
    }

    fn add(&mut self, o: Tally) {
        self.completed += o.completed;
        self.shed += o.shed;
        self.detected += o.detected;
        self.unexpected += o.unexpected;
    }

    fn diff(&self, o: &Tally) -> u64 {
        self.completed.abs_diff(o.completed)
            + self.shed.abs_diff(o.shed)
            + self.detected.abs_diff(o.detected)
            + self.unexpected.abs_diff(o.unexpected)
    }

    /// One executed request: a completion, a detection, or neither; a bad
    /// case a hardened tenant completes, a trap on a good case, or an
    /// error outside an unhardened tenant's bad case is unexpected.
    fn request(result: &Result<RunResult, VmError>, good: bool, hardened: bool) -> Tally {
        let mut t = Tally::default();
        match result {
            Ok(_) => {
                t.completed = 1;
                t.unexpected = u64::from(!good && hardened);
            }
            Err(VmError::Trap { trap, .. }) => {
                t.detected =
                    u64::from(matches!(trap, Trap::Temporal { .. }) || trap.is_safety_violation());
                t.unexpected = u64::from(good);
            }
            Err(_) => t.unexpected = u64::from(good || hardened),
        }
        t
    }
}

fn modeled(result: &Result<RunResult, VmError>) -> Option<&ifp_vm::RunStats> {
    match result {
        Ok(r) => Some(&r.stats),
        Err(VmError::Trap { stats, .. }) => Some(stats),
        Err(_) => None,
    }
}

/// Replays one shard's single-server admission in virtual time: each
/// admitted request is handed to `serve`, which returns its modeled
/// cycles (1 cycle = 1 virtual ns). Returns the number shed.
fn admit(lane: &[Request], budget: usize, mut serve: impl FnMut(&Request) -> u64) -> u64 {
    let mut inflight = BinaryHeap::new();
    let mut free_at = 0u64;
    let mut shed = 0;
    for r in lane {
        while inflight.peek().is_some_and(|&Reverse(c)| c <= r.arrival_ns) {
            inflight.pop();
        }
        if inflight.len() >= budget {
            shed += 1;
            continue;
        }
        let completion = r.arrival_ns.max(free_at) + serve(r);
        free_at = completion;
        inflight.push(Reverse(completion));
    }
    shed
}

fn kind_key(kind: ReqKind) -> (u8, usize) {
    match kind {
        ReqKind::Juliet(i) => (0, i),
        ReqKind::Temporal(i) => (1, i),
        ReqKind::Workload(i) => (2, i),
    }
}

/// The oracle's view of one pass.
struct Oracle {
    tally: Tally,
    /// Modeled instructions of every executed request.
    instrs: u64,
    /// Every (program, tenant) pair the stream executes, first-seen order.
    pairs: Vec<(ReqKind, usize)>,
    /// The cache the oracle's runs went through, warm for every pair.
    cache: PlanCache,
}

/// Timed runs of each pair, one per round over all pairs, so that a
/// pair's runs are spread over the oracle's time.
const ROUNDS: usize = 5;

/// One pooled run through the cache, as a shard makes it.
fn pooled_run(
    s: &Setup,
    cache: &PlanCache,
    (kind, tenant): (ReqKind, usize),
    host: VmHost,
) -> (Result<RunResult, VmError>, VmHost) {
    let (result, host) = cache.run_pooled(s.program(kind), &s.vm_config(tenant), host);
    (result, host.expect("service programs validate"))
}

fn oracle(s: &Setup) -> Oracle {
    struct Pair {
        tally: Tally,
        cycles: u64,
        instrs: u64,
    }
    let cache = PlanCache::new();
    let mut host = Some(VmHost::new());
    let mut pairs: HashMap<((u8, usize), usize), Pair> = HashMap::new();
    let mut seen: Vec<(ReqKind, usize)> = Vec::new();
    let mut tally = Tally::default();
    let mut instrs = 0;
    for lane in s.lanes() {
        tally.shed += admit(&lane, s.cfg.queue_budget, |req| {
            let pair = pairs
                .entry((kind_key(req.kind), req.tenant))
                .or_insert_with(|| {
                    seen.push((req.kind, req.tenant));
                    let (result, back) = pooled_run(
                        s,
                        &cache,
                        (req.kind, req.tenant),
                        host.take().expect("one host"),
                    );
                    host = Some(back);
                    let stats = modeled(&result);
                    Pair {
                        tally: Tally::request(
                            &result,
                            s.set.is_good(req.kind),
                            s.tenants[req.tenant].hardened(),
                        ),
                        cycles: stats.map_or(0, |st| st.cycles),
                        instrs: stats.map_or(0, ifp_vm::RunStats::total_instrs),
                    }
                });
            tally.add(pair.tally);
            instrs += pair.instrs;
            pair.cycles
        });
    }
    Oracle {
        tally,
        instrs,
        pairs: seen,
        cache,
    }
}

/// Host µs per run of each pair: its fastest of `ROUNDS` pooled, cached
/// runs.
fn time_pairs(s: &Setup, cache: &PlanCache, pairs: &[(ReqKind, usize)]) -> Vec<f64> {
    let mut host = Some(VmHost::new());
    let mut best = vec![f64::INFINITY; pairs.len()];
    for _ in 0..ROUNDS {
        for (b, &pair) in best.iter_mut().zip(pairs) {
            let t0 = Instant::now();
            let (result, back) = pooled_run(s, cache, pair, host.take().expect("one host"));
            *b = b.min(ns_since(t0) as f64 / 1e3);
            drop(result);
            host = Some(back);
        }
    }
    best
}

/// Checks each pass's report against the pin, the oracle and the
/// run's first pass.
struct Check {
    /// The pinned digest, or the run's first pass when the seed has none.
    reference: Option<u64>,
    /// The pinned (completed, shed, detected), when the seed has a pin.
    pinned_counts: Option<(u64, u64, u64)>,
    perturb: u64,
    attempted: u64,
    failed: u64,
    digests_ok: bool,
}

impl Check {
    fn new(args: &Args) -> Check {
        let pin = PINNED.iter().find(|p| p.0 == args.seed);
        Check {
            reference: pin.map(|p| p.1),
            pinned_counts: pin.map(|p| (p.2, p.3, p.4)),
            perturb: args.perturbation(),
            attempted: 0,
            failed: 0,
            digests_ok: true,
        }
    }

    fn report(&mut self, report: &ServeReport, expected: &Tally) {
        let mut h = Fnv::default();
        h.bytes(report.to_json().as_bytes());
        let digest = h.0;
        let reference = *self.reference.get_or_insert(digest);
        let got = Tally::of(report);
        let leaked: u64 = report.shards.iter().map(|s| s.pool_leaked_rows).sum();
        if self.attempted == 0 {
            eprintln!(
                "serve seed {:#x}: report digest {digest:#018x}, {got:?}",
                report.config.seed
            );
        }
        let counts_ok = self
            .pinned_counts
            .is_none_or(|c| c == (got.completed, got.shed, got.detected) && got.unexpected == 0);
        if digest != reference ^ self.perturb || leaked != 0 || !counts_ok {
            eprintln!(
                "serve: report digest {digest:#018x} (expected {:#018x}), {leaked} leaked rows",
                reference ^ self.perturb
            );
            self.digests_ok = false;
        }
        if got != *expected {
            eprintln!("serve: report {got:?} differs from oracle {expected:?}");
        }
        self.attempted += report.config.requests;
        self.failed += got.unexpected + got.diff(expected);
    }

    fn correct(&self) -> bool {
        self.digests_ok && self.failed == 0
    }
}

fn pass_config(s: &Setup) -> ServeConfig {
    ServeConfig {
        plan_cache: Some(PlanCache::shared()),
        ..s.cfg.clone()
    }
}

/// `--trace 0`: whole service passes until `--seconds` have gone by
/// (`sim_mips` is over the fastest), with the set-up samples interleaved;
/// the oracle runs after the clock stops.
pub fn end_to_end(args: &Args) -> Outcome {
    let mut setups = SetupSampler::new(args.seconds);
    let s = setups.sample(|| setup(args));
    let mut walls = Vec::new();
    let mut reports = Vec::new();
    let t_run = Instant::now();
    while walls.len() < MIN_PASSES || t_run.elapsed().as_secs_f64() < args.seconds {
        setups.catch_up(t_run.elapsed().as_secs_f64(), || setup(args));
        let cfg = pass_config(&s);
        let t0 = Instant::now();
        let report = run_service(&cfg);
        walls.push(t0.elapsed().as_secs_f64());
        reports.push(report);
    }
    let o = oracle(&s);
    let mut check = Check::new(args);
    for r in &reports {
        check.report(r, &o.tally);
    }
    Outcome {
        correct: check.correct(),
        attempted: check.attempted,
        failed: check.failed,
        metrics: vec![
            metric("setup_s", setups.median_s(|| setup(args)), "s"),
            metric(
                "sim_mips",
                o.instrs as f64 / (fastest(&walls) * 1e6),
                "MIPS",
            ),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
    }
}

/// What one shard's traced replay produced.
struct LaneTrace {
    trace: Trace,
    tally: Tally,
    /// Every artifact the lane looked up, with the pair it served.
    artifacts: Vec<(ReqKind, usize, Arc<CompiledArtifact>)>,
}

/// Replays one shard's lane with every call timed: plan-cache lookup,
/// host construction (first request only: the shard pools its host),
/// pooled reset + image load, execution.
fn replay_lane(s: &Setup, lane: &[Request], cache: &PlanCache) -> LaneTrace {
    let mut t = Trace::default();
    let mut tally = Tally::default();
    let mut artifacts: Vec<(ReqKind, usize, Arc<CompiledArtifact>)> = Vec::new();
    let mut seen = HashSet::new();
    let mut pooled: Option<VmHost> = None;
    tally.shed = admit(lane, s.cfg.queue_budget, |req| {
        let program = s.program(req.kind);
        let cfg = s.vm_config(req.tenant);
        let art = t
            .time(LOOKUP, || cache.artifact(program, &cfg))
            .expect("service programs validate");
        if seen.insert(Arc::as_ptr(&art)) {
            artifacts.push((req.kind, req.tenant, Arc::clone(&art)));
        }
        let host = match pooled.take() {
            Some(h) => h,
            None => t.time(HOST_NEW, VmHost::new),
        };
        let vm = t.time(LOAD, || Vm::with_artifact(program, &cfg, &art, host));
        let (result, host) = t.time(EXEC, || vm.run_pooled());
        pooled = Some(host);
        if let Ok(r) = &result {
            if let Some(f) = &r.fusion {
                t.counts.add_fusion(f);
            }
        }
        let stats = modeled(&result);
        if let Some(st) = stats {
            t.counts.add_stats(st);
        }
        tally.add(Tally::request(
            &result,
            s.set.is_good(req.kind),
            s.tenants[req.tenant].hardened(),
        ));
        stats.map_or(0, |st| st.cycles)
    });
    LaneTrace {
        trace: t,
        tally,
        artifacts,
    }
}

/// `--trace 1`: alternating untraced service passes and traced replays
/// of the same request stream on the same worker count (at least one
/// each), then the compile split of every artifact, the run latency of
/// every (program, tenant) pair, and the layer kernels.
pub fn traced(args: &Args) -> Outcome {
    let s = setup(args);
    let lanes = s.lanes();
    let mut check = Check::new(args);
    let mut t = Trace::default();
    let mut passes = Passes {
        threads: s.cfg.workers as u64,
        wall_s: f64::INFINITY,
        ..Passes::default()
    };
    let mut cache = CacheUse {
        stats: CacheStats::default(),
        probe_lookup_ns: None,
    };
    let mut artifacts: Vec<(ReqKind, usize, Arc<CompiledArtifact>)> = Vec::new();
    let mut seen = HashSet::new();
    let t_run = Instant::now();
    while passes.traced == 0 || t_run.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let report = run_service(&pass_config(&s));
        let untraced_ns = ns_since(t0);
        passes.untraced_ns += untraced_ns;
        passes.wall_s = passes.wall_s.min(untraced_ns as f64 / 1e9);

        let pc = PlanCache::new();
        let t0 = Instant::now();
        let outs = ifp_testutil::par_map(&lanes, s.cfg.workers, |lane| replay_lane(&s, lane, &pc));
        passes.traced_ns += ns_since(t0);
        let mut replayed = Tally::default();
        for out in outs {
            replayed.add(out.tally);
            // Every pass compiles afresh into its own cache; the lanes of
            // one pass share each artifact.
            for a in out.artifacts {
                if seen.insert(Arc::as_ptr(&a.2)) {
                    artifacts.push(a);
                }
            }
            t.merge(out.trace);
        }
        passes.traced += 1;
        check.report(&report, &replayed);
        let stats = pc.stats();
        cache.stats.hits += stats.hits;
        cache.stats.misses += stats.misses;
        cache.stats.resident_bytes = stats.resident_bytes;
    }
    // The cache compiled inside the passes; split each compile into its
    // phases now, so that the probes cover no pass time.
    let mut compiles = Trace::default();
    for (kind, tenant, art) in &artifacts {
        compiles.split_compile(s.program(*kind), &s.vm_config(*tenant), art.compile_ns);
    }
    t.merge_samples(compiles);
    let o = oracle(&s);
    passes.run_us = time_pairs(&s, &o.cache, &o.pairs);
    let kernels = kernels::measure();
    Outcome {
        correct: check.correct(),
        attempted: check.attempted,
        failed: check.failed,
        metrics: per_layer(&t, &kernels, &cache, &passes),
    }
}
