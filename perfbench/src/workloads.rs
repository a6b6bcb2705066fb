//! The two batch workloads — `sweep_elide` and `juliet` — and the
//! measured and traced runs they share.
//!
//! A batch workload is a fixed list of units (one program under one or
//! more configurations). A pass runs every unit once, in an order drawn
//! from the seed; the modeled outputs do not depend on the order, so the
//! pinned digests hold for every seed.

use crate::kernels;
use crate::layers::{per_layer, CacheUse, Passes};
use crate::stats::{median, ns_since, peak_rss_mib, shuffle, Fnv, Reference};
use crate::trace::{self, Trace, EXEC, HOST_NEW, LOAD, LOOKUP};
use crate::{metric, Args, Outcome};
use ifp::eval::sweep_l1;
use ifp_compiler::Program;
use ifp_juliet::JulietCase;
use ifp_plancache::{CacheStats, PlanCache};
use ifp_testutil::Rng;
use ifp_vm::{AllocatorKind, ExecTier, Mode, RunResult, Vm, VmConfig, VmError, VmHost};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Measured passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 4;

/// Times the set-up `SETUPS` times, spread evenly over the measured
/// window, so that `setup_s` (their median) does not hinge on the host's
/// state during the few milliseconds one set-up takes.
pub struct SetupSampler {
    secs: Vec<f64>,
    every_s: f64,
}

impl SetupSampler {
    pub fn new(window_s: f64) -> SetupSampler {
        SetupSampler {
            secs: Vec::with_capacity(SETUPS),
            every_s: window_s / SETUPS as f64,
        }
    }

    /// Times one set-up and returns what it built.
    pub fn sample<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = black_box(setup());
        self.secs.push(t0.elapsed().as_secs_f64());
        built
    }

    /// Takes the samples due `elapsed_s` into the window.
    pub fn catch_up<T>(&mut self, elapsed_s: f64, mut setup: impl FnMut() -> T) {
        while self.secs.len() < SETUPS && elapsed_s >= self.secs.len() as f64 * self.every_s {
            drop(self.sample(&mut setup));
        }
    }

    /// The median set-up time, after taking any samples still missing.
    pub fn median_s<T>(mut self, setup: impl FnMut() -> T) -> f64 {
        self.catch_up(f64::INFINITY, setup);
        median(&self.secs)
    }
}

/// What one unit produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitRun {
    pub instrs: u64,
    pub cycles: u64,
    /// Digest of the unit's modeled outputs.
    pub digest: u64,
    /// `C` completed, `D` safety trap, `T` other trap, `E` error.
    pub outcome: u8,
}

impl UnitRun {
    fn failed() -> UnitRun {
        UnitRun {
            outcome: b'E',
            ..UnitRun::default()
        }
    }

    /// The unit of one VM run: outcome, printed output and every modeled
    /// counter (up to the trap, for trapped runs).
    fn of(result: &Result<RunResult, VmError>) -> UnitRun {
        let mut h = Fnv::default();
        let (outcome, stats) = match result {
            Ok(r) => {
                for &v in &r.output {
                    h.u64(v as u64);
                }
                (b'C', Some(&r.stats))
            }
            Err(VmError::Trap { trap, stats, .. }) => (
                if trap.is_safety_violation() {
                    b'D'
                } else {
                    b'T'
                },
                Some(&**stats),
            ),
            Err(_) => (b'E', None),
        };
        h.u64(u64::from(outcome));
        if let Some(s) = stats {
            h.stats(s);
        }
        UnitRun {
            instrs: stats.map_or(0, ifp_vm::RunStats::total_instrs),
            cycles: stats.map_or(0, |s| s.cycles),
            digest: h.0,
            outcome,
        }
    }
}

/// Pinned per-pass totals of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    pub instrs: u64,
    pub cycles: u64,
    pub digest: u64,
}

trait Batch {
    fn name(&self) -> &'static str;
    fn units(&self) -> usize;
    fn label(&self, u: usize) -> String;
    /// Runs unit `u` through the workload's public entry point.
    fn run(&self, u: usize) -> UnitRun;
    /// Runs unit `u` with every call into a layer timed into `t`.
    fn run_traced(&self, u: usize, t: &mut Trace) -> UnitRun;
    /// Whether `r` is the pinned result of unit `u`.
    fn unit_ok(&self, u: usize, r: &UnitRun) -> bool;
    fn pin(&self) -> Pin;
    /// The plan cache the passes run through, if any.
    fn cache(&self) -> Option<&PlanCache> {
        None
    }
    /// Whether every unit runs for milliseconds or more, so that its time
    /// can be corrected by a [`Reference`] sample taken just before it.
    fn long_units(&self) -> bool {
        false
    }
    /// Every (program, config) a pass compiles or looks up.
    fn compile_keys(&self) -> Vec<(&Program, VmConfig)>;
}

/// One run of `program` the way `ifp_vm::run` does it, each step timed:
/// compile (split into phases), host construction, image load, execution.
fn run_fresh_traced(
    t: &mut Trace,
    program: &Program,
    cfg: &VmConfig,
) -> Result<RunResult, VmError> {
    let art = trace::compile(t, program, cfg)?;
    let host = t.time(HOST_NEW, || VmHost::with_l1(cfg.l1));
    let vm = t.time(LOAD, || Vm::with_artifact(program, cfg, &art, host));
    let result = t.time(EXEC, || vm.run());
    count(t, &result);
    result
}

fn count(t: &mut Trace, result: &Result<RunResult, VmError>) {
    match result {
        Ok(r) => {
            t.counts.add_stats(&r.stats);
            if let Some(f) = &r.fusion {
                t.counts.add_fusion(f);
            }
        }
        Err(VmError::Trap { stats, .. }) => t.counts.add_stats(stats),
        Err(_) => {}
    }
}

// ---------------------------------------------------------- sweep_elide

/// The 18 Table-4 programs under the subheap and wrapped configurations
/// with `elide_checks` on, on the jit tier, through a plan cache warmed
/// during set-up: the one workload where elided fused `GepLoad`/`GepStore`
/// slots and the fused dispatch loop do most of the work.
struct SweepElide {
    names: Vec<&'static str>,
    programs: Vec<Program>,
    cache: PlanCache,
}

const ELIDE_ALLOCATORS: [AllocatorKind; 2] = [AllocatorKind::Subheap, AllocatorKind::Wrapped];
/// Per-(workload, allocator) unit digests, workload-major.
const ELIDE_UNITS: [u64; 36] = [
    0x4e47ab9c6f811f59, // bh/subheap
    0xf0666661dd766d3d, // bh/wrapped
    0xddffd8f3f6c77d88, // bisort/subheap
    0x35e82d414af8cca6, // bisort/wrapped
    0x95137bc14f28693a, // em3d/subheap
    0x6322699478e3ea5b, // em3d/wrapped
    0x75aa9cc9c0864a8e, // health/subheap
    0x8f927e60bbb81413, // health/wrapped
    0x6add70161aaef31e, // mst/subheap
    0xe15b9d9c00e28c97, // mst/wrapped
    0xf814afaa7b060ec2, // perimeter/subheap
    0x21ca4cf214eb8437, // perimeter/wrapped
    0xaebcdda4d58c4d08, // power/subheap
    0xaf46867fe58b41c0, // power/wrapped
    0x8207a93e12be88e5, // treeadd/subheap
    0x4dfe51ecf2ebb7b6, // treeadd/wrapped
    0x9c418cfdd763057f, // tsp/subheap
    0x75b4ebcc23274365, // tsp/wrapped
    0xea267f962542c548, // voronoi/subheap
    0xb9a48c85cee6dbf3, // voronoi/wrapped
    0x1c2bf1859c00d804, // anagram/subheap
    0xf3fa83f65912f9dc, // anagram/wrapped
    0xfd4b9ab630fabbbe, // ft/subheap
    0x3c6003495c5d9945, // ft/wrapped
    0x5e93585124c6cbc5, // ks/subheap
    0x5152c5d3546ec3b9, // ks/wrapped
    0xa49562f4a37a2f7b, // yacr2/subheap
    0xd6f96c161b346c22, // yacr2/wrapped
    0x00f2f54da813f8e6, // wolfcrypt-dh/subheap
    0xeff32382983d6920, // wolfcrypt-dh/wrapped
    0xbb911335c04f913c, // sjeng/subheap
    0xbb911335c04f913c, // sjeng/wrapped
    0xee014225cf7e52d4, // coremark/subheap
    0x304c4cfb509afadc, // coremark/wrapped
    0xf2cb293b422c5710, // bzip2/subheap
    0x4fc5faa165a213b6, // bzip2/wrapped
];
const ELIDE_PIN: Pin = Pin {
    instrs: 178_792_875,
    cycles: 351_477_330,
    digest: 0xac83_f136_2247_dc72,
};

fn elide_cfg(allocator: AllocatorKind) -> VmConfig {
    let mut cfg = VmConfig::with_mode(Mode::instrumented(allocator));
    cfg.l1 = sweep_l1();
    cfg.elide_checks = true;
    cfg.exec_tier = ExecTier::Jit;
    cfg
}

impl SweepElide {
    /// Builds the programs and warms the cache; with `t`, each compile is
    /// split into its phases.
    fn setup(mut t: Option<&mut Trace>) -> SweepElide {
        let workloads = ifp_workloads::all();
        let programs: Vec<Program> = workloads
            .iter()
            .map(ifp_workloads::Workload::build_default)
            .collect();
        let cache = PlanCache::new();
        for p in &programs {
            for a in ELIDE_ALLOCATORS {
                let cfg = elide_cfg(a);
                let misses = cache.stats().misses;
                let art = cache.artifact(p, &cfg).expect("workload programs validate");
                if let Some(t) = t.as_deref_mut() {
                    if cache.stats().misses > misses {
                        t.split_compile(p, &cfg, art.compile_ns);
                    }
                }
            }
        }
        SweepElide {
            names: workloads.iter().map(|w| w.name).collect(),
            programs,
            cache,
        }
    }

    fn key(&self, u: usize) -> (&Program, VmConfig) {
        (&self.programs[u / 2], elide_cfg(ELIDE_ALLOCATORS[u % 2]))
    }
}

impl Batch for SweepElide {
    fn name(&self) -> &'static str {
        "sweep_elide"
    }
    fn units(&self) -> usize {
        self.programs.len() * 2
    }
    fn label(&self, u: usize) -> String {
        format!("{}/{}", self.names[u / 2], ELIDE_ALLOCATORS[u % 2])
    }
    fn run(&self, u: usize) -> UnitRun {
        let (p, cfg) = self.key(u);
        UnitRun::of(&self.cache.run(p, &cfg))
    }
    fn run_traced(&self, u: usize, t: &mut Trace) -> UnitRun {
        let (p, cfg) = self.key(u);
        let Ok(art) = t.time(LOOKUP, || self.cache.artifact(p, &cfg)) else {
            return UnitRun::failed();
        };
        let host = t.time(HOST_NEW, || VmHost::with_l1(cfg.l1));
        let vm = t.time(LOAD, || Vm::with_artifact(p, &cfg, &art, host));
        let result = t.time(EXEC, || vm.run());
        count(t, &result);
        UnitRun::of(&result)
    }
    fn unit_ok(&self, u: usize, r: &UnitRun) -> bool {
        r.digest == ELIDE_UNITS[u]
    }
    fn pin(&self) -> Pin {
        ELIDE_PIN
    }
    fn cache(&self) -> Option<&PlanCache> {
        Some(&self.cache)
    }
    fn long_units(&self) -> bool {
        true
    }
    fn compile_keys(&self) -> Vec<(&Program, VmConfig)> {
        (0..self.units()).map(|u| self.key(u)).collect()
    }
}

// --------------------------------------------------------------- juliet

/// The 128 spatial Juliet-style cases x the 4 spatial modes, each a fresh
/// `ifp_vm::run`: tiny programs whose host time is mostly compile, host
/// construction and image load.
struct Juliet {
    cases: Vec<JulietCase>,
}

const JULIET_MODES: [Mode; 4] = [
    Mode::Baseline,
    Mode::Instrumented {
        allocator: AllocatorKind::Wrapped,
        no_promote: false,
    },
    Mode::Instrumented {
        allocator: AllocatorKind::Subheap,
        no_promote: false,
    },
    Mode::Instrumented {
        allocator: AllocatorKind::Subheap,
        no_promote: true,
    },
];
/// Pinned outcome letter of every (case, mode), case-major in
/// `all_cases()` order and `JULIET_MODES` order.
const JULIET_OUTCOMES: &str = concat!(
    "CCCCTDDDCCCCTDDDCCCCTDDDCCCCTDDDCCCCTDDCCCCCCDDDCCCCCDDDCCCCCDDD",
    "CCCCCDDDCCCCCDDCCCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDCCCCCCDDD",
    "CCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDCCCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDD",
    "CCCCCDDCCCCCTDDDCCCCTDDDCCCCTDDDCCCCTDDDCCCCTDDTCCCCTDDDCCCCTDDD",
    "CCCCTDDDCCCCTDDDCCCCTDDCCCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDC",
    "CCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDCCCCCCDDDCCCCCDDDCCCCCDDD",
    "CCCCCDDDCCCCCDDCCCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDDCCCCCDDCCCCCTDDD",
    "CCCCTDDDCCCCTDDDCCCCTDDDCCCCTDDTCCCCCDDCCCCCCDDCCCCCCDDCCCCCCDDC",
);
const JULIET_PIN: Pin = Pin {
    instrs: 66_039,
    cycles: 100_725,
    digest: 0xe428_88af_775d_9cae,
};

fn juliet_cfg(mode: Mode) -> VmConfig {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = 50_000_000;
    cfg
}

impl Batch for Juliet {
    fn name(&self) -> &'static str {
        "juliet"
    }
    fn units(&self) -> usize {
        self.cases.len() * JULIET_MODES.len()
    }
    fn label(&self, u: usize) -> String {
        format!("{}/{}", self.cases[u / 4].id, JULIET_MODES[u % 4])
    }
    fn run(&self, u: usize) -> UnitRun {
        UnitRun::of(&ifp_vm::run(
            &self.cases[u / 4].program,
            &juliet_cfg(JULIET_MODES[u % 4]),
        ))
    }
    fn run_traced(&self, u: usize, t: &mut Trace) -> UnitRun {
        UnitRun::of(&run_fresh_traced(
            t,
            &self.cases[u / 4].program,
            &juliet_cfg(JULIET_MODES[u % 4]),
        ))
    }
    fn unit_ok(&self, u: usize, r: &UnitRun) -> bool {
        JULIET_OUTCOMES.as_bytes().get(u) == Some(&r.outcome)
    }
    fn pin(&self) -> Pin {
        JULIET_PIN
    }
    fn compile_keys(&self) -> Vec<(&Program, VmConfig)> {
        (0..self.units())
            .map(|u| (&self.cases[u / 4].program, juliet_cfg(JULIET_MODES[u % 4])))
            .collect()
    }
}

// ----------------------------------------------------------------- runs

fn setup(name: &str, t: Option<&mut Trace>) -> Box<dyn Batch> {
    match name {
        "sweep_elide" => Box::new(SweepElide::setup(t)),
        "juliet" => Box::new(Juliet {
            cases: ifp_juliet::all_cases(),
        }),
        other => unreachable!("not a batch workload: {other}"),
    }
}

/// Checks every pass against the pins and keeps the failure count.
struct Check {
    pin: Pin,
    attempted: u64,
    failed: u64,
    totals_ok: bool,
    passes: usize,
    instrs_per_pass: u64,
}

impl Check {
    fn new(b: &dyn Batch, args: &Args) -> Check {
        let mut pin = b.pin();
        pin.digest ^= args.perturbation();
        Check {
            pin,
            attempted: 0,
            failed: 0,
            totals_ok: true,
            passes: 0,
            instrs_per_pass: 0,
        }
    }

    /// Checks one pass; `runs` is indexed by unit.
    fn pass(&mut self, b: &dyn Batch, runs: &[UnitRun]) {
        let mut h = Fnv::default();
        let mut got = Pin {
            instrs: 0,
            cycles: 0,
            digest: 0,
        };
        let mut outcomes = String::with_capacity(runs.len());
        for (u, r) in runs.iter().enumerate() {
            h.u64(r.digest);
            got.instrs += r.instrs;
            got.cycles += r.cycles;
            outcomes.push(char::from(r.outcome));
            self.attempted += 1;
            if !b.unit_ok(u, r) {
                self.failed += 1;
                if self.passes == 0 {
                    eprintln!(
                        "{} unit {u} ({}): digest {:#018x}, outcome {}",
                        b.name(),
                        b.label(u),
                        r.digest,
                        char::from(r.outcome)
                    );
                }
            }
        }
        got.digest = h.0;
        if got != self.pin {
            if self.totals_ok {
                eprintln!(
                    "{}: pass totals {} instrs, {} cycles, digest {:#018x} differ from \
                     pinned {} instrs, {} cycles, digest {:#018x}; outcomes {outcomes}",
                    b.name(),
                    got.instrs,
                    got.cycles,
                    got.digest,
                    self.pin.instrs,
                    self.pin.cycles,
                    self.pin.digest
                );
            }
            self.totals_ok = false;
        }
        self.instrs_per_pass = got.instrs;
        self.passes += 1;
    }

    fn correct(&self) -> bool {
        self.totals_ok && self.failed == 0
    }
}

/// `--trace 0`: whole passes until `--seconds` have gone by, timing each
/// unit's call, with the set-up samples interleaved. A unit's host time is
/// its fastest run in the window, corrected by the [`Reference`] when the
/// workload's units are long.
pub fn end_to_end(name: &str, args: &Args) -> Outcome {
    let mut setups = SetupSampler::new(args.seconds);
    let b = setups.sample(|| setup(name, None));
    let n = b.units();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(args.seed);
    let mut unit_s = vec![f64::INFINITY; n];
    let mut runs = vec![UnitRun::default(); n];
    let mut check = Check::new(&*b, args);
    let mut reference = b.long_units().then(Reference::new);
    let t_run = Instant::now();
    while check.passes < MIN_PASSES || t_run.elapsed().as_secs_f64() < args.seconds {
        shuffle(&mut order, &mut rng);
        for &u in &order {
            setups.catch_up(t_run.elapsed().as_secs_f64(), || setup(name, None));
            if let Some(r) = reference.as_mut() {
                r.sample();
            }
            let t0 = Instant::now();
            runs[u] = black_box(b.run(u));
            let secs = t0.elapsed().as_secs_f64();
            let secs = reference.as_ref().map_or(secs, |r| r.corrected(secs));
            unit_s[u] = unit_s[u].min(secs);
        }
        check.pass(&*b, &runs);
    }
    let wall_s: f64 = unit_s.iter().sum();
    Outcome {
        correct: check.correct(),
        attempted: check.attempted,
        failed: check.failed,
        metrics: vec![
            metric("setup_s", setups.median_s(|| setup(name, None)), "s"),
            metric(
                "sim_mips",
                check.instrs_per_pass as f64 / (wall_s * 1e6),
                "MIPS",
            ),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
    }
}

/// Host ns of one hit lookup per compile key, through a probe cache: the
/// lookup cost on this workload's programs when the workload itself runs
/// without a cache.
fn probe_lookups(b: &dyn Batch) -> f64 {
    let probe = PlanCache::new();
    let samples: Vec<f64> = b
        .compile_keys()
        .into_iter()
        .map(|(p, cfg)| {
            probe.artifact(p, &cfg).expect("workload programs validate");
            let t0 = Instant::now();
            black_box(probe.artifact(p, &cfg).expect("cached"));
            ns_since(t0) as f64
        })
        .collect();
    median(&samples)
}

/// `--trace 1`: alternating untraced and traced passes (at least one
/// each, for about `--seconds` in all), then the layer kernels. Each
/// unit's fastest untraced run gives the run latencies.
pub fn traced(name: &str, args: &Args) -> Outcome {
    let mut setup_trace = Trace::default();
    let b = setup(name, Some(&mut setup_trace));
    let n = b.units();
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, &mut Rng::new(args.seed));
    let mut check = Check::new(&*b, args);
    let mut runs = vec![UnitRun::default(); n];
    let mut t = Trace::default();
    let mut passes = Passes {
        threads: 1,
        setup_compiles: setup_trace.calls(trace::COMPILE),
        setup_compile_ns: setup_trace.total_ns(trace::COMPILE),
        ..Passes::default()
    };
    let mut cache_stats = CacheStats::default();
    let mut run_s = vec![f64::INFINITY; n];
    let t_run = Instant::now();
    while check.passes == 0 || t_run.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        for &u in &order {
            let t_unit = Instant::now();
            runs[u] = black_box(b.run(u));
            run_s[u] = run_s[u].min(t_unit.elapsed().as_secs_f64());
        }
        passes.untraced_ns += ns_since(t0);
        check.pass(&*b, &runs);

        let before = b.cache().map(PlanCache::stats);
        let t0 = Instant::now();
        for &u in &order {
            runs[u] = b.run_traced(u, &mut t);
        }
        passes.traced_ns += ns_since(t0);
        passes.traced += 1;
        check.pass(&*b, &runs);
        if let (Some(c), Some(before)) = (b.cache(), before) {
            let after = c.stats();
            cache_stats.hits += after.hits - before.hits;
            cache_stats.misses += after.misses - before.misses;
            cache_stats.resident_bytes = after.resident_bytes;
        }
    }
    t.merge_samples(setup_trace);
    passes.wall_s = run_s.iter().sum();
    passes.run_us = run_s.iter().map(|s| s * 1e6).collect();
    let cache = CacheUse {
        stats: cache_stats,
        probe_lookup_ns: b.cache().is_none().then(|| probe_lookups(&*b)),
    };
    let kernels = kernels::measure();
    Outcome {
        correct: check.correct(),
        attempted: check.attempted,
        failed: check.failed,
        metrics: per_layer(&t, &kernels, &cache, &passes),
    }
}
