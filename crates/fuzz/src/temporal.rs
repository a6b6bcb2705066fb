//! The temporal bug planter: seed-derived programs with a planted
//! use-after-free, double free, realloc-stale-pointer bug — or none —
//! whose ground truth is known by construction, evaluated against an
//! *analytic* model of every temporal policy.
//!
//! The model encodes the documented lock-and-key semantics end to end:
//!
//! * **Quarantine** defers address reuse, so every stale access lands in
//!   a still-revoked region: use-after-free, double free and
//!   realloc-stale detection are all deterministic.
//! * **Key-check** catches every register-carried (direct) stale use —
//!   the stale stamp can never equal the live key — and every stale use
//!   of *unreused* memory (the revoked-region check). Its one documented
//!   blind spot: a pointer that round-trips through memory after the
//!   freed chunk was reallocated is re-stamped by `promote` with the
//!   *new* allocation's key, and the stale access passes.
//! * **Tag-cycle** inherits key-check's blind spot and adds the reuse
//!   window: with a 15-tag cycle, a direct stale use is missed exactly
//!   when `(dummies + 1) % 15 == 0` intervening allocations separate the
//!   stale key from the live key — the planted tag-wraparound.
//! * **Off** never raises a temporal trap; benign programs must complete
//!   with byte-identical output under every policy (zero false
//!   positives).
//!
//! Each spec also cross-checks the `ifp_baselines` temporal models
//! (ASan quarantine eviction, MTE tag agreement, SoftBound's guaranteed
//! miss), tying the analytic comparator table to the fuzzer's oracle.

use crate::oracle::{Disagreement, FindingClass};
use ifp_baselines::{temporal_row, Asan, Mte, SoftBound};
use ifp_compiler::{Operand, Program, ProgramBuilder, TypeId};
use ifp_hw::Trap;
use ifp_temporal::TemporalPolicy;
use ifp_testutil::Rng;
use ifp_trace::TemporalKind;
use ifp_vm::{run, AllocatorKind, Mode, Observation, Verdict, VmConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Instruction budget per run; generated programs are tiny.
const FUEL: u64 = 10_000_000;

/// The planted temporal bug class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TemporalBug {
    /// Correct malloc/use/free/realloc code: must complete everywhere.
    Benign,
    /// Load through a stale pointer after free (memory not reallocated).
    UafRead,
    /// Store through a stale pointer after free.
    UafWrite,
    /// The same allocation freed twice.
    DoubleFree,
    /// Stale pointer used after its chunk was reallocated to a new
    /// live object — the address-reuse variant of use-after-free.
    ReallocStale,
}

impl TemporalBug {
    /// Every bug class, benign first.
    pub const ALL: [TemporalBug; 5] = [
        TemporalBug::Benign,
        TemporalBug::UafRead,
        TemporalBug::UafWrite,
        TemporalBug::DoubleFree,
        TemporalBug::ReallocStale,
    ];

    /// Stable name for coverage cells and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TemporalBug::Benign => "benign",
            TemporalBug::UafRead => "uaf-read",
            TemporalBug::UafWrite => "uaf-write",
            TemporalBug::DoubleFree => "double-free",
            TemporalBug::ReallocStale => "realloc-stale",
        }
    }
}

/// Which allocator metadata path serves the target object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TemporalPath {
    /// Wrapped allocator, small object (local-offset record).
    Wrapped,
    /// Subheap allocator, small object (pool slot).
    Subheap,
    /// Wrapped allocator, oversized object (global-table row).
    GlobalTable,
}

impl TemporalPath {
    /// Every path, in matrix order.
    pub const ALL: [TemporalPath; 3] = [
        TemporalPath::Wrapped,
        TemporalPath::Subheap,
        TemporalPath::GlobalTable,
    ];

    /// Stable name for coverage cells and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TemporalPath::Wrapped => "wrapped",
            TemporalPath::Subheap => "subheap",
            TemporalPath::GlobalTable => "global-table",
        }
    }

    fn mode(self) -> Mode {
        match self {
            TemporalPath::Wrapped | TemporalPath::GlobalTable => {
                Mode::instrumented(AllocatorKind::Wrapped)
            }
            TemporalPath::Subheap => Mode::instrumented(AllocatorKind::Subheap),
        }
    }

    /// The target object type: small structs ride the local-offset /
    /// subheap record, anything past 1008 bytes takes the global table.
    fn object_type(self, pb: &mut ProgramBuilder) -> TypeId {
        let i64t = pb.types.int64();
        match self {
            TemporalPath::Wrapped | TemporalPath::Subheap => {
                pb.types.struct_type("Node", &[("a", i64t), ("b", i64t)])
            }
            TemporalPath::GlobalTable => pb.types.array(i64t, 256), // 2048 B
        }
    }
}

/// How the stale pointer reaches its use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// The stale pointer stays in a register, stamp intact.
    Direct,
    /// The pointer round-trips through a global cell: the stale use
    /// loads it back, and `promote` re-derives metadata (and re-stamps).
    Loaded,
}

impl Flow {
    /// Stable name for coverage cells and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Flow::Direct => "direct",
            Flow::Loaded => "loaded",
        }
    }
}

/// One temporal case: the planted bug and the knobs that steer which
/// policies can see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalSpec {
    /// Flavor seed — drives the MTE baseline model's tag stream only.
    pub seed: u64,
    /// The planted bug class.
    pub bug: TemporalBug,
    /// Allocator metadata path of the target object.
    pub path: TemporalPath,
    /// Register-carried or memory-round-trip stale pointer.
    pub flow: Flow,
    /// Intervening malloc+free pairs (of the target's own type) between
    /// the free and the stale use / refill: advances the key counter, so
    /// `dummies == 14` plants the tag-cycle wraparound (`15 % 15 == 0`).
    pub dummies: u8,
}

impl TemporalSpec {
    /// Normalizes the spec into the generator's envelope: dummy count
    /// inside one tag cycle, double frees always register-carried.
    pub fn sanitize(&mut self) {
        self.dummies %= 15;
        if self.bug == TemporalBug::DoubleFree {
            self.flow = Flow::Direct;
        }
    }

    /// Draws a fresh spec from `rng` (already sanitized). The dummy
    /// count is biased toward the boundary cases: none, and the full
    /// 14 that plants the tag-cycle wraparound.
    #[must_use]
    pub fn generate(rng: &mut Rng) -> TemporalSpec {
        let mut spec = TemporalSpec {
            seed: rng.u64(),
            bug: *rng.choose(&TemporalBug::ALL),
            path: *rng.choose(&TemporalPath::ALL),
            flow: if rng.bool() {
                Flow::Loaded
            } else {
                Flow::Direct
            },
            dummies: match rng.range_u32(0, 3) {
                0 => 0,
                1 => 14,
                _ => rng.range_u32(0, 15) as u8,
            },
        };
        spec.sanitize();
        spec
    }

    /// Builds the spec's program.
    ///
    /// Every program opens with a never-freed *ballast* allocation of
    /// the target type so the subheap block (and its metadata) stays
    /// mapped after the target is freed, keeping stale-use outcomes a
    /// function of the temporal policy rather than of page liveness.
    /// Dummies allocate the *target's own type*: under exact-size bins
    /// (wrapped) and LIFO slot reuse (subheap) each dummy cycles through
    /// the freed target chunk itself, so the refill always lands back on
    /// the target address with a key distance of exactly `dummies + 1`.
    /// (A smaller dummy class would instead steal and *split* the freed
    /// chunk under the libc allocator's first-larger-fit, leaving the
    /// refill on fresh memory and the reuse window never open.)
    #[must_use]
    pub fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.types.int64();
        let vp = pb.types.void_ptr();
        let ty = self.path.object_type(&mut pb);
        let cell = (self.flow == Flow::Loaded).then(|| pb.global("g_cell", vp));

        let mut m = pb.func("main", 0);
        let ballast = m.malloc(ty);
        let a = m.malloc(ty);
        m.store(a, 5i64, i64t);
        if let Some(cell) = cell {
            let gp = m.addr_of_global(cell);
            m.store(gp, a, vp);
        }

        let churn = |m: &mut ifp_compiler::FnBuilder, n: u8| {
            for _ in 0..n {
                let d = m.malloc(ty);
                m.free(d);
            }
        };
        // The (possibly stale) pointer the late access goes through.
        let stale = |m: &mut ifp_compiler::FnBuilder| match cell {
            Some(cell) => {
                let gp = m.addr_of_global(cell);
                m.load(gp, vp)
            }
            None => a,
        };

        match self.bug {
            TemporalBug::Benign => {
                let p = stale(&mut m);
                let v = m.load(p, i64t);
                m.free(p);
                churn(&mut m, self.dummies);
                let b = m.malloc(ty);
                m.store(b, 2i64, i64t);
                let w = m.load(b, i64t);
                m.free(b);
                m.print_int(v);
                m.print_int(w);
            }
            TemporalBug::UafRead | TemporalBug::UafWrite => {
                m.free(a);
                churn(&mut m, self.dummies);
                let p = stale(&mut m);
                if self.bug == TemporalBug::UafRead {
                    let v = m.load(p, i64t);
                    m.print_int(v);
                } else {
                    m.store(p, 9i64, i64t);
                }
            }
            TemporalBug::DoubleFree => {
                m.free(a);
                churn(&mut m, self.dummies);
                m.free(a);
            }
            TemporalBug::ReallocStale => {
                m.free(a);
                churn(&mut m, self.dummies);
                let b = m.malloc(ty);
                m.store(b, 7i64, i64t);
                let p = stale(&mut m);
                let v = m.load(p, i64t);
                m.print_int(v);
                m.free(b);
            }
        }
        m.print_int(1i64); // completion marker
        m.free(ballast);
        m.ret(Some(Operand::Imm(0)));
        pb.finish_func(m);
        pb.build()
    }
}

/// What the analytic model requires of one (spec, policy) run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Completes with exactly this output and zero recorded violations.
    Complete(Vec<i64>),
    /// Traps with a temporal cause of this kind.
    Temporal(TemporalKind),
}

/// The analytic per-policy expectation for a spec (`None` for the
/// policies a bug spec is not evaluated under — the off policy's
/// behaviour on buggy programs is deliberately unspecified).
#[must_use]
pub fn expectation(spec: &TemporalSpec, policy: TemporalPolicy) -> Option<Expectation> {
    if spec.bug == TemporalBug::Benign {
        return Some(Expectation::Complete(vec![5, 2, 1]));
    }
    if policy == TemporalPolicy::Off {
        return None;
    }
    let detect = |kind| Some(Expectation::Temporal(kind));
    // The refill completes with the stale read observing the new
    // object's value, then the completion marker.
    let miss = || Some(Expectation::Complete(vec![7, 1]));
    match spec.bug {
        TemporalBug::Benign => unreachable!("handled above"),
        // No refill: the freed region stays revoked under every policy,
        // so the revoked-region check is deterministic for all three.
        TemporalBug::UafRead | TemporalBug::UafWrite => detect(TemporalKind::UseAfterFree),
        // Double frees present the freed base directly to the allocator
        // hook: deterministic for all three.
        TemporalBug::DoubleFree => detect(TemporalKind::DoubleFree),
        TemporalBug::ReallocStale => match policy {
            // Quarantine parks the chunk, the refill lands elsewhere,
            // and the stale address stays revoked.
            TemporalPolicy::Quarantine => detect(TemporalKind::UseAfterFree),
            // A memory round-trip after the refill re-stamps the pointer
            // with the new allocation's key: the documented blind spot.
            TemporalPolicy::KeyCheck | TemporalPolicy::TagCycle if spec.flow == Flow::Loaded => {
                miss()
            }
            TemporalPolicy::KeyCheck => detect(TemporalKind::UseAfterFree),
            // Direct stale use: caught unless the key distance wraps the
            // 15-tag cycle — the reuse-window escape.
            TemporalPolicy::TagCycle => {
                if (u32::from(spec.dummies) + 1) % 15 == 0 {
                    miss()
                } else {
                    detect(TemporalKind::UseAfterFree)
                }
            }
            TemporalPolicy::Off => unreachable!("handled above"),
        },
    }
}

/// Runs one policy and observes the result.
fn run_policy(program: &Program, path: TemporalPath, policy: TemporalPolicy) -> Observation {
    let mut cfg = VmConfig::with_mode(path.mode());
    cfg.fuel = FUEL;
    cfg.temporal = policy;
    Observation::of(&run(program, &cfg))
}

/// The temporal-violation class of a run stopped by a temporal trap.
fn temporal_kind(o: &Observation) -> Option<TemporalKind> {
    match o.trap {
        Some((Trap::Temporal { kind, .. }, _)) => Some(kind),
        _ => None,
    }
}

fn push(out: &mut Vec<Disagreement>, class: FindingClass, detail: impl Into<String>) {
    out.push(Disagreement {
        class,
        detail: detail.into(),
    });
}

/// Everything the temporal oracle observed for one spec.
#[derive(Clone, Debug)]
pub struct TemporalEvaluation {
    /// `(policy label, outcome label)` per evaluated run.
    pub runs: Vec<(String, String)>,
    /// Every disagreement with the analytic model. Empty = clean.
    pub disagreements: Vec<Disagreement>,
    /// Modeled instructions executed across every run (including the
    /// determinism rerun) — the campaign's throughput denominator.
    pub modeled_instrs: u64,
}

/// Runs one spec under every applicable policy and judges each outcome
/// against [`expectation`]; also reruns the first policy to pin
/// determinism and cross-checks the `ifp_baselines` temporal models.
#[must_use]
pub fn evaluate_temporal(spec: &TemporalSpec) -> TemporalEvaluation {
    let program = spec.build_program();
    let mut out = Vec::new();
    let mut runs = Vec::new();
    let mut modeled_instrs = 0u64;
    let mut first: Option<(TemporalPolicy, Observation)> = None;

    for policy in TemporalPolicy::ALL {
        let Some(want) = expectation(spec, policy) else {
            continue;
        };
        let got = run_policy(&program, spec.path, policy);
        modeled_instrs += got.total_instrs();
        let label = format!("{}/{}", spec.path.name(), policy.name());
        runs.push((label.clone(), got.describe()));
        judge_run(&mut out, spec, &label, &want, &got);
        if first.is_none() {
            first = Some((policy, got));
        }
    }

    // Determinism: the first evaluated policy, rerun, byte-identical.
    if let Some((policy, once)) = first {
        let again = run_policy(&program, spec.path, policy);
        modeled_instrs += again.total_instrs();
        if again != once {
            push(
                &mut out,
                FindingClass::Nondeterminism,
                format!("{} rerun diverged", policy.name()),
            );
        }
    }

    check_baseline_models(&mut out, spec);

    TemporalEvaluation {
        runs,
        disagreements: out,
        modeled_instrs,
    }
}

fn judge_run(
    out: &mut Vec<Disagreement>,
    spec: &TemporalSpec,
    label: &str,
    want: &Expectation,
    got: &Observation,
) {
    match (want, got.verdict) {
        (Expectation::Complete(want_out), Verdict::Completed) => {
            if &got.output != want_out {
                push(
                    out,
                    FindingClass::OutputDivergence,
                    format!("{label}: output {:?}, model says {want_out:?}", got.output),
                );
            }
            let violations = got.stats.as_ref().map_or(0, |s| s.temporal.violations);
            if violations != 0 {
                push(
                    out,
                    FindingClass::DefenseDisagree,
                    format!("{label}: completed but recorded {violations} violation(s)"),
                );
            }
        }
        (Expectation::Complete(_), _) => {
            let class = if spec.bug == TemporalBug::Benign {
                FindingClass::FalseTrap
            } else {
                // The model predicted this policy's blind spot; a
                // detection here means the model (or the reuse
                // accounting) is wrong.
                FindingClass::DefenseDisagree
            };
            push(
                out,
                class,
                format!("{label}: model says complete, got {}", got.describe()),
            );
        }
        (Expectation::Temporal(_), Verdict::Completed) => push(
            out,
            FindingClass::MissedBug,
            format!("{label}: planted {} completed undetected", spec.bug.name()),
        ),
        (Expectation::Temporal(_), Verdict::Error) => {
            push(
                out,
                FindingClass::VmError,
                format!("{label}: {}", got.describe()),
            );
        }
        (Expectation::Temporal(want_kind), _) => match temporal_kind(got) {
            Some(kind) if kind == *want_kind => {}
            Some(kind) => push(
                out,
                FindingClass::DefenseDisagree,
                format!("{label}: temporal {kind}, model says {want_kind}"),
            ),
            None => push(
                out,
                FindingClass::EscapedCheck,
                format!(
                    "{label}: crashed past the temporal check: {}",
                    got.describe()
                ),
            ),
        },
    }
}

/// Guaranteed verdicts of the `ifp_baselines` temporal models, checked
/// once per spec (the MTE stream is per-spec seeded).
fn check_baseline_models(out: &mut Vec<Disagreement>, spec: &TemporalSpec) {
    let asan = temporal_row(&mut Asan::new());
    if !asan.use_after_free || !asan.double_free {
        push(
            out,
            FindingClass::DefenseDisagree,
            "asan: unbounded quarantine must catch both temporal bugs",
        );
    }
    let evicted = temporal_row(&mut Asan::with_quarantine(0));
    if evicted.use_after_free || evicted.double_free {
        push(
            out,
            FindingClass::DefenseDisagree,
            "asan: a zero-byte quarantine must evict immediately and miss",
        );
    }
    let sb = temporal_row(&mut SoftBound::new());
    if sb.use_after_free || sb.double_free {
        push(
            out,
            FindingClass::DefenseDisagree,
            "softbound: keeps no free-time state, must miss both",
        );
    }
    // MTE decides both verdicts with the same stale-tag comparison, so
    // they must agree for every seed.
    let mte = temporal_row(&mut Mte::with_seed(spec.seed));
    if mte.use_after_free != mte.double_free {
        push(
            out,
            FindingClass::DefenseDisagree,
            format!(
                "mte: uaf {} but double-free {} for the same tag compare",
                mte.use_after_free, mte.double_free
            ),
        );
    }
}

/// Temporal campaign parameters.
#[derive(Clone, Debug)]
pub struct TemporalCampaignConfig {
    /// The campaign seed: the sole source of randomness.
    pub seed: u64,
    /// Number of iterations (specs) to run.
    pub iterations: u64,
    /// Worker threads.
    pub workers: usize,
}

impl Default for TemporalCampaignConfig {
    fn default() -> Self {
        TemporalCampaignConfig {
            seed: 0,
            iterations: 1000,
            workers: 1,
        }
    }
}

/// One disagreement a temporal campaign surfaced.
#[derive(Clone, Debug)]
pub struct TemporalFinding {
    /// The ticket that produced it.
    pub iteration: u64,
    /// The offending spec.
    pub spec: TemporalSpec,
    /// Every disagreement the oracle flagged for it.
    pub disagreements: Vec<Disagreement>,
}

/// What a temporal campaign produced.
#[derive(Debug)]
pub struct TemporalCampaignReport {
    /// The configuration that ran.
    pub config: TemporalCampaignConfig,
    /// Wall-clock time of the worker-pool phase.
    pub elapsed: Duration,
    /// Findings, in iteration order.
    pub findings: Vec<TemporalFinding>,
    /// Hit counts per policy×path×bug×flow cell (bug specs only).
    pub coverage: BTreeMap<String, u64>,
    /// Modeled instructions executed by the worker-pool phase.
    pub modeled_instrs: u64,
    /// Number of cells the generator can reach.
    pub total_cells: usize,
}

fn cell(policy: TemporalPolicy, spec: &TemporalSpec) -> String {
    format!(
        "{}\u{d7}{}\u{d7}{}\u{d7}{}",
        policy.name(),
        spec.path.name(),
        spec.bug.name(),
        spec.flow.name()
    )
}

fn cells_of(spec: &TemporalSpec) -> Vec<String> {
    if spec.bug == TemporalBug::Benign {
        return Vec::new();
    }
    TemporalPolicy::ENFORCING
        .into_iter()
        .map(|p| cell(p, spec))
        .collect()
}

/// Every coverage cell the generator can reach: 3 enforcing policies ×
/// 3 paths × (3 two-flow bugs + direct-only double free).
#[must_use]
pub fn reachable_temporal_cells() -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for policy in TemporalPolicy::ENFORCING {
        for path in TemporalPath::ALL {
            for bug in TemporalBug::ALL {
                if bug == TemporalBug::Benign {
                    continue;
                }
                for flow in [Flow::Direct, Flow::Loaded] {
                    if bug == TemporalBug::DoubleFree && flow == Flow::Loaded {
                        continue;
                    }
                    let spec = TemporalSpec {
                        seed: 0,
                        bug,
                        path,
                        flow,
                        dummies: 0,
                    };
                    out.insert(cell(policy, &spec));
                }
            }
        }
    }
    out
}

/// The spec ticket `i` of temporal campaign `seed` produces — a pure
/// function of `(seed, i)`, worker-count invariant.
#[must_use]
pub fn temporal_spec_for_ticket(seed: u64, i: u64) -> TemporalSpec {
    TemporalSpec::generate(&mut Rng::stream(seed, i))
}

/// Runs a temporal campaign to completion.
///
/// # Panics
///
/// Panics if a worker thread itself dies outside the per-case guard
/// (a harness bug, not a finding).
#[must_use]
pub fn run_temporal_campaign(config: &TemporalCampaignConfig) -> TemporalCampaignReport {
    let next = AtomicU64::new(0);
    let raw: Mutex<Vec<TemporalFinding>> = Mutex::new(Vec::new());
    let workers = config.workers.max(1);

    let started = std::time::Instant::now();
    let (coverage, modeled_instrs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local_cov: BTreeMap<String, u64> = BTreeMap::new();
                    let mut local_instrs = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= config.iterations {
                            break;
                        }
                        let spec = temporal_spec_for_ticket(config.seed, i);
                        for c in cells_of(&spec) {
                            *local_cov.entry(c).or_default() += 1;
                        }
                        match catch_unwind(AssertUnwindSafe(|| evaluate_temporal(&spec))) {
                            Ok(eval) if eval.disagreements.is_empty() => {
                                local_instrs += eval.modeled_instrs;
                            }
                            Ok(eval) => {
                                local_instrs += eval.modeled_instrs;
                                raw.lock().unwrap().push(TemporalFinding {
                                    iteration: i,
                                    spec,
                                    disagreements: eval.disagreements,
                                });
                            }
                            Err(payload) => {
                                let msg = payload
                                    .downcast_ref::<&str>()
                                    .map(ToString::to_string)
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "non-string panic".into());
                                raw.lock().unwrap().push(TemporalFinding {
                                    iteration: i,
                                    spec,
                                    disagreements: vec![Disagreement {
                                        class: FindingClass::HarnessPanic,
                                        detail: msg,
                                    }],
                                });
                            }
                        }
                    }
                    (local_cov, local_instrs)
                })
            })
            .collect();
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        let mut instrs = 0u64;
        for h in handles {
            let (cov, n) = h.join().expect("worker thread died");
            for (k, v) in cov {
                *merged.entry(k).or_default() += v;
            }
            instrs += n;
        }
        (merged, instrs)
    });
    let elapsed = started.elapsed();

    let mut findings = raw.into_inner().unwrap();
    findings.sort_by_key(|f| f.iteration);

    TemporalCampaignReport {
        config: config.clone(),
        elapsed,
        findings,
        coverage,
        modeled_instrs,
        total_cells: reachable_temporal_cells().len(),
    }
}

impl TemporalCampaignReport {
    /// Iterations per wall-clock second.
    #[must_use]
    pub fn iters_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.config.iterations as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Modeled instructions per wall-clock second.
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.modeled_instrs as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// The summary table the CLI prints.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("ifp-fuzz temporal campaign\n");
        s.push_str(&format!("  seed        {:#x}\n", self.config.seed));
        s.push_str(&format!("  iterations  {}\n", self.config.iterations));
        s.push_str(&format!("  workers     {}\n", self.config.workers.max(1)));
        s.push_str(&format!(
            "  elapsed     {:.2}s ({:.0} iters/sec)\n",
            self.elapsed.as_secs_f64(),
            self.iters_per_sec()
        ));
        s.push_str(&format!(
            "  throughput  {} modeled instrs ({:.2}M instrs/sec)\n",
            self.modeled_instrs,
            self.instrs_per_sec() / 1e6
        ));
        s.push_str(&format!(
            "  coverage    {}/{} policy\u{d7}path\u{d7}bug\u{d7}flow cells\n",
            self.coverage.len(),
            self.total_cells
        ));
        s.push_str(&format!("  findings    {}\n", self.findings.len()));
        for f in &self.findings {
            s.push_str(&format!(
                "\nfinding @ iteration {}: {}\n  spec: {:?}\n",
                f.iteration,
                f.disagreements
                    .iter()
                    .map(|d| format!("[{}] {}", d.class.name(), d.detail))
                    .collect::<Vec<_>>()
                    .join("; "),
                f.spec
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bug: TemporalBug, path: TemporalPath, flow: Flow, dummies: u8) -> TemporalSpec {
        let mut s = TemporalSpec {
            seed: 0x7e3,
            bug,
            path,
            flow,
            dummies,
        };
        s.sanitize();
        s
    }

    #[test]
    fn reachable_temporal_cell_count_is_stable() {
        // 3 policies × 3 paths × (3 bugs × 2 flows + double-free direct).
        assert_eq!(reachable_temporal_cells().len(), 3 * 3 * 7);
    }

    #[test]
    fn the_full_matrix_agrees_with_the_model() {
        for bug in TemporalBug::ALL {
            for path in TemporalPath::ALL {
                for flow in [Flow::Direct, Flow::Loaded] {
                    for dummies in [0u8, 3, 14] {
                        let s = spec(bug, path, flow, dummies);
                        let e = evaluate_temporal(&s);
                        assert!(e.disagreements.is_empty(), "{s:?}\n{:#?}", e.disagreements);
                    }
                }
            }
        }
    }

    #[test]
    fn tag_wraparound_is_the_planted_reuse_window_escape() {
        // 14 intervening allocations put the refill key one full tag
        // cycle past the stale key: tag-cycle misses, key-check does not.
        let wrap = spec(
            TemporalBug::ReallocStale,
            TemporalPath::Wrapped,
            Flow::Direct,
            14,
        );
        assert_eq!(
            expectation(&wrap, TemporalPolicy::TagCycle),
            Some(Expectation::Complete(vec![7, 1]))
        );
        assert_eq!(
            expectation(&wrap, TemporalPolicy::KeyCheck),
            Some(Expectation::Temporal(TemporalKind::UseAfterFree))
        );
        let off_by_one = spec(
            TemporalBug::ReallocStale,
            TemporalPath::Wrapped,
            Flow::Direct,
            13,
        );
        assert_eq!(
            expectation(&off_by_one, TemporalPolicy::TagCycle),
            Some(Expectation::Temporal(TemporalKind::UseAfterFree))
        );
        // And the VM agrees with both predictions.
        for s in [wrap, off_by_one] {
            let e = evaluate_temporal(&s);
            assert!(e.disagreements.is_empty(), "{s:?}\n{:#?}", e.disagreements);
        }
    }

    #[test]
    fn generation_is_deterministic_and_sanitized() {
        for i in 0..64 {
            let a = temporal_spec_for_ticket(0xabc, i);
            let b = temporal_spec_for_ticket(0xabc, i);
            assert_eq!(a, b);
            assert!(a.dummies < 15);
            if a.bug == TemporalBug::DoubleFree {
                assert_eq!(a.flow, Flow::Direct);
            }
        }
    }

    #[test]
    fn small_campaign_is_clean_and_worker_invariant() {
        let config = TemporalCampaignConfig {
            seed: 0x7e9,
            iterations: 24,
            workers: 2,
        };
        let report = run_temporal_campaign(&config);
        assert!(report.findings.is_empty(), "{}", report.render());
        assert!(!report.coverage.is_empty());
        let solo = run_temporal_campaign(&TemporalCampaignConfig {
            workers: 1,
            ..config
        });
        assert_eq!(report.coverage, solo.coverage, "worker-count invariance");
        assert!(report.render().contains("iterations  24"));
    }
}
