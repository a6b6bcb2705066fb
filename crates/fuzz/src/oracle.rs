//! The differential oracle: runs one spec through every VM mode and the
//! baseline defenses, and cross-checks each verdict against the spec's
//! ground truth.
//!
//! The expectation rules encode the *documented* semantics of the
//! reproduction, so every deviation is a finding rather than noise:
//!
//! * Baseline runs of good cases complete; bad baseline runs may do
//!   anything (that asymmetry is the motivation for the defense).
//! * Fully instrumented runs (wrapped and subheap allocators) complete
//!   every good case with baseline-identical output and stop every bad
//!   case with a safety trap *at a check* — a wild page fault counts as
//!   an escaped check.
//! * The no-promote ablation still detects register-carried flows (gep
//!   field steps narrow bounds statically) but is excused on
//!   `LoadedFlow` cases, where detection depends on promote narrowing —
//!   those may complete, trap, or crash.
//! * Rerunning an instrumented mode must reproduce its observation
//!   exactly (determinism).
//! * Every row of the config table — each instrumented allocator rerun
//!   across check elision, execution tier and compile path — must match
//!   its reference row: whole for tier and compile path, everything but
//!   `RunStats` for elision.
//! * Each `ifp_baselines` defense is compared against an *analytic*
//!   model of its mechanism (exact bounds for SoftBound, redzone bands
//!   with partial granules for ASan, granule tags for MTE) evaluated on
//!   the spec's resolved layout.

use crate::spec::{CaseSpec, Resolved};
use ifp_baselines::{Asan, Defense, Mte, PtrMeta, SoftBound};
use ifp_compiler::Program;
use ifp_juliet::{CaseKind, Variant};
use ifp_plancache::PlanCache;
use ifp_trace::TraceConfig;
use ifp_vm::{run, AllocatorKind, ExecTier, Mode, Observation, Verdict, VmConfig, VmError};
use std::fmt;

/// Address the defense models place the object at (granule-aligned for
/// both the ASan and MTE models).
const MODEL_BASE: u64 = 0x1_0000;

/// Instruction budget per run; generated programs are tiny.
const FUEL: u64 = 10_000_000;

/// Classification of an oracle disagreement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingClass {
    /// A good case trapped or errored where completion was required.
    FalseTrap,
    /// A bad case completed where detection was required.
    MissedBug,
    /// A bad case crashed on a wild access instead of trapping at a check.
    EscapedCheck,
    /// The VM reported an internal error (allocator, fuel, bad program).
    VmError,
    /// An instrumented good run's output diverged from the baseline's.
    OutputDivergence,
    /// A rerun of the same mode produced a different outcome or output.
    Nondeterminism,
    /// A defense implementation disagreed with its analytic model or
    /// guaranteed verdict.
    DefenseDisagree,
    /// The generator emitted IR the `ifp-analyze` verifier rejects.
    MalformedIr,
    /// A row of the oracle's config table observed something its
    /// reference row's equality forbids.
    ConfigDivergence,
    /// The harness itself panicked while evaluating the case.
    HarnessPanic,
}

impl FindingClass {
    /// Every class, in serialization order.
    pub(crate) const ALL: [FindingClass; 10] = [
        FindingClass::FalseTrap,
        FindingClass::MissedBug,
        FindingClass::EscapedCheck,
        FindingClass::VmError,
        FindingClass::OutputDivergence,
        FindingClass::Nondeterminism,
        FindingClass::DefenseDisagree,
        FindingClass::MalformedIr,
        FindingClass::ConfigDivergence,
        FindingClass::HarnessPanic,
    ];

    /// Stable serialization name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FindingClass::FalseTrap => "false_trap",
            FindingClass::MissedBug => "missed_bug",
            FindingClass::EscapedCheck => "escaped_check",
            FindingClass::VmError => "vm_error",
            FindingClass::OutputDivergence => "output_divergence",
            FindingClass::Nondeterminism => "nondeterminism",
            FindingClass::DefenseDisagree => "defense_disagree",
            FindingClass::MalformedIr => "malformed_ir",
            FindingClass::ConfigDivergence => "config_divergence",
            FindingClass::HarnessPanic => "harness_panic",
        }
    }

    /// Parses a [`FindingClass::name`] string back.
    #[must_use]
    pub fn from_name(s: &str) -> Option<FindingClass> {
        FindingClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for FindingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One disagreement the oracle flagged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disagreement {
    /// Classification.
    pub class: FindingClass,
    /// Human-readable specifics (mode, outcome, expectation).
    pub detail: String,
}

/// Everything the oracle observed for one spec.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Observation per mode, in run order (baseline, wrapped, subheap,
    /// no-promote).
    pub runs: Vec<(String, Observation)>,
    /// The config-table rows checked against their reference rows
    /// (every row but the two reference runs; none when the verifier
    /// rejected the program).
    pub compared: Vec<ConfigRow>,
    /// Every disagreement found. Empty = the case agrees everywhere.
    pub disagreements: Vec<Disagreement>,
    /// Modeled instructions executed across every run the oracle made
    /// (including the determinism rerun and the config table) — the
    /// campaign's throughput denominator.
    pub modeled_instrs: u64,
}

/// How a config-table row obtains its compiled artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompilePath {
    /// Compiled for this run alone.
    Fresh,
    /// First lookup of its key in a default-budget [`PlanCache`].
    CacheMiss,
    /// Second lookup of the same key, served from that cache.
    CacheHit,
    /// First lookup in a [`PlanCache::poisoned`] cache, whose insert
    /// evicts earlier artifacts.
    PoisonedCold,
    /// Second lookup in the poisoned cache: a hit, or a recompile when
    /// the artifact was already evicted.
    PoisonedReuse,
}

impl CompilePath {
    /// Every path, in run order.
    pub(crate) const ALL: [CompilePath; 5] = [
        CompilePath::Fresh,
        CompilePath::CacheMiss,
        CompilePath::CacheHit,
        CompilePath::PoisonedCold,
        CompilePath::PoisonedReuse,
    ];

    /// Stable label.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            CompilePath::Fresh => "fresh",
            CompilePath::CacheMiss => "cache-miss",
            CompilePath::CacheHit => "cache-hit",
            CompilePath::PoisonedCold => "poisoned-cold",
            CompilePath::PoisonedReuse => "poisoned-reuse",
        }
    }
}

/// What a config-table row must share with its reference row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Equality {
    /// The whole [`Observation`], every modeled statistic included:
    /// tier and compile path are host-speed choices the model must not
    /// see.
    Whole,
    /// Everything but `RunStats` ([`Observation::same_behaviour`]):
    /// check elision may save modeled work, never change the verdict,
    /// the trap, the exit code or the output.
    Behaviour,
}

/// One configuration of the config table: an instrumented allocator
/// rerun with the host-side axes set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigRow {
    /// Heap allocator of the instrumented mode.
    pub allocator: AllocatorKind,
    /// `VmConfig::elide_checks`.
    pub elide_checks: bool,
    /// `VmConfig::exec_tier`.
    pub tier: ExecTier,
    /// Where the compiled artifact comes from.
    pub path: CompilePath,
}

impl ConfigRow {
    /// The row this one is checked against, and the equality it must
    /// meet. A row that differs from (allocator, elision, interp,
    /// fresh) in tier or compile path must match it whole; an elided
    /// (interp, fresh) row must behave like its unelided twin. `None`
    /// for (allocator, elide off, interp, fresh): that reference is the
    /// oracle's instrumented matrix run itself.
    #[must_use]
    pub(crate) fn reference(self) -> Option<(ConfigRow, Equality)> {
        if self.tier != ExecTier::Interp || self.path != CompilePath::Fresh {
            let reference = ConfigRow {
                tier: ExecTier::Interp,
                path: CompilePath::Fresh,
                ..self
            };
            Some((reference, Equality::Whole))
        } else if self.elide_checks {
            let reference = ConfigRow {
                elide_checks: false,
                ..self
            };
            Some((reference, Equality::Behaviour))
        } else {
            None
        }
    }

    fn config(self) -> VmConfig {
        let mut cfg = config(Mode::instrumented(self.allocator));
        cfg.elide_checks = self.elide_checks;
        cfg.exec_tier = self.tier;
        cfg
    }
}

impl fmt::Display for ConfigRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.allocator,
            if self.elide_checks {
                "elide-on"
            } else {
                "elide-off"
            },
            self.tier,
            self.path.name()
        )
    }
}

/// The config table: each instrumented allocator × elide {off, on} ×
/// tier {interp, jit} × [`CompilePath::ALL`], in run order (a cache hit
/// runs after its miss, a poisoned reuse after its cold run). A new
/// host-side axis is one more factor here.
#[must_use]
pub(crate) fn config_table() -> Vec<ConfigRow> {
    let mut rows = Vec::new();
    for allocator in AllocatorKind::ALL {
        for elide_checks in [false, true] {
            for tier in [ExecTier::Interp, ExecTier::Jit] {
                for path in CompilePath::ALL {
                    rows.push(ConfigRow {
                        allocator,
                        elide_checks,
                        tier,
                        path,
                    });
                }
            }
        }
    }
    rows
}

/// Checks every row of `table` that has a reference against that
/// reference, `observed[i]` being row `i`'s observation. Each failing
/// row yields one [`FindingClass::ConfigDivergence`] whose detail
/// starts with the row's label.
fn compare_rows(table: &[ConfigRow], observed: &[Observation]) -> Vec<Disagreement> {
    assert_eq!(table.len(), observed.len(), "one observation per row");
    let mut out = Vec::new();
    for (row, got) in table.iter().zip(observed) {
        let Some((reference, equality)) = row.reference() else {
            continue;
        };
        let want = &observed[table
            .iter()
            .position(|r| *r == reference)
            .expect("reference rows are in the table")];
        let what = if !got.same_behaviour(want) {
            format!("{} where {reference} {}", got.describe(), want.describe())
        } else if equality == Equality::Whole && got.stats != want.stats {
            format!("modeled statistics differ from {reference}")
        } else {
            continue;
        };
        push(
            &mut out,
            FindingClass::ConfigDivergence,
            format!("{row}: {what}"),
        );
    }
    out
}

/// The oracle's VM configuration for `mode`.
fn config(mode: Mode) -> VmConfig {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = FUEL;
    cfg
}

/// Runs `program` under `cfg`, through `cache` when given, and observes
/// the result — the oracle's one way to run a program.
fn observe(program: &Program, cfg: &VmConfig, cache: Option<&PlanCache>) -> Observation {
    Observation::of(&match cache {
        Some(c) => c.run(program, cfg),
        None => run(program, cfg),
    })
}

/// Runs every config-table row, reusing the matrix's reference runs.
fn observe_table(
    program: &Program,
    table: &[ConfigRow],
    wrapped: &Observation,
    subheap: &Observation,
) -> Vec<Observation> {
    // One cache pair per allocator: the artifact key leaves the
    // allocator out, so sharing would turn the second allocator's miss
    // and cold rows into hits.
    let caches = AllocatorKind::ALL.map(|a| (a, PlanCache::new(), PlanCache::poisoned()));
    table
        .iter()
        .map(|row| {
            if row.reference().is_none() {
                return match row.allocator {
                    AllocatorKind::Wrapped => wrapped.clone(),
                    AllocatorKind::Subheap => subheap.clone(),
                };
            }
            let (_, plain, poisoned) = caches
                .iter()
                .find(|(a, _, _)| *a == row.allocator)
                .expect("every allocator has caches");
            let cache = match row.path {
                CompilePath::Fresh => None,
                CompilePath::CacheMiss | CompilePath::CacheHit => Some(plain),
                CompilePath::PoisonedCold | CompilePath::PoisonedReuse => Some(poisoned),
            };
            observe(program, &row.config(), cache)
        })
        .collect()
}

/// Reruns the instrumented (subheap) mode with full tracing and renders
/// what the trap forensics reconstructed — the triage attachment every
/// finding carries.
#[must_use]
pub fn forensic_text(spec: &CaseSpec) -> String {
    let program = spec.build_program();
    let mut cfg = config(Mode::instrumented(AllocatorKind::Subheap));
    cfg.trace = TraceConfig::all();
    match run(&program, &cfg) {
        Ok(_) => "no trap raised under the instrumented run (completed)".into(),
        Err(VmError::Trap {
            forensics: Some(report),
            ..
        }) => report.render(),
        Err(VmError::Trap {
            trap,
            func,
            forensics: None,
            ..
        }) => format!("trap {trap} in `{func}` (no forensic ring available)"),
        Err(e) => format!("vm error: {e}"),
    }
}

fn push(out: &mut Vec<Disagreement>, class: FindingClass, detail: impl Into<String>) {
    out.push(Disagreement {
        class,
        detail: detail.into(),
    });
}

/// Expectation for a fully instrumented run.
fn check_instrumented(out: &mut Vec<Disagreement>, label: &str, kind: CaseKind, o: &Observation) {
    let class = match (kind, o.verdict) {
        (CaseKind::Good, Verdict::Completed) | (CaseKind::Bad, Verdict::SafetyTrap) => return,
        (CaseKind::Good, _) => FindingClass::FalseTrap,
        (CaseKind::Bad, Verdict::Completed) => FindingClass::MissedBug,
        (CaseKind::Bad, Verdict::OtherTrap) => FindingClass::EscapedCheck,
        (CaseKind::Bad, Verdict::Error) => FindingClass::VmError,
    };
    push(
        out,
        class,
        format!("{label}: {} case {}", kind.name(), o.describe()),
    );
}

/// The ASan analytic model: a byte is unaddressable when it falls in the
/// left redzone or in the right band that starts at the object's end and
/// runs to the end of the granule-aligned right redzone (partial tail
/// granules guard the bytes between `size` and the next granule
/// boundary).
/// Rounds the non-negative `x` up to a multiple of `align` (signed
/// `next_multiple_of` is still unstable).
fn align_up(x: i64, align: i64) -> i64 {
    (x as u64).next_multiple_of(align as u64) as i64
}

fn asan_denies(r: &Resolved, lo: i64, hi: i64) -> bool {
    let base = MODEL_BASE as i64;
    let size = r.object_size as i64;
    let left = (base - 16, base);
    let right = (base + size, align_up(base + size, 8) + 16);
    let (a0, a1) = (base + lo, base + hi);
    (a0 < left.1 && a1 > left.0) || (a0 < right.1 && a1 > right.0)
}

/// The MTE analytic model: the access passes when every touched granule
/// carries the pointer's tag — i.e. it stays within the granule-rounded
/// object extent, or the tag happens to be zero (untagged memory).
fn mte_denies(r: &Resolved, lo: i64, hi: i64, tag: u8) -> bool {
    let base = MODEL_BASE as i64;
    let tagged_hi = base + align_up(r.object_size as i64, 16);
    let (a0, a1) = (base + lo, base + hi);
    let inside = a0 >= base && a1 <= tagged_hi;
    !inside && tag != 0
}

/// Compares each defense implementation against its analytic model on
/// the planted accesses.
fn check_defenses(out: &mut Vec<Disagreement>, spec: &CaseSpec, r: &Resolved) {
    let good_lo = r.arr_offset as i64 + r.good_idx * r.elem_size as i64;
    let good = (good_lo, good_lo + r.elem_size as i64);
    let bad = (r.bad_lo, r.bad_hi);
    let addr = |off: i64| (MODEL_BASE as i64 + off) as u64;

    // SoftBound: exact bounds, narrowed to the target array when the
    // program derives a field pointer. Good allowed, bad denied, always.
    let mut sb = SoftBound::new();
    let meta = sb.on_alloc(MODEL_BASE, r.object_size);
    let meta = if spec.wrap_struct {
        sb.on_subobject(
            meta,
            MODEL_BASE + r.arr_offset,
            u64::from(spec.len) * r.elem_size,
        )
    } else {
        meta
    };
    if !sb.check(meta, addr(good.0), r.elem_size) {
        push(
            out,
            FindingClass::DefenseDisagree,
            "softbound: denied the in-bounds access",
        );
    }
    if spec.kind == CaseKind::Bad && sb.check(meta, addr(bad.0), r.elem_size) {
        push(
            out,
            FindingClass::DefenseDisagree,
            format!(
                "softbound: allowed the planted {} at object offset {}",
                r.cwe.name(),
                r.bad_lo
            ),
        );
    }

    // ASan: implementation vs the redzone-band model.
    let mut asan = Asan::new();
    let ameta = asan.on_alloc(MODEL_BASE, r.object_size);
    if !asan.check(ameta, addr(good.0), r.elem_size) {
        push(
            out,
            FindingClass::DefenseDisagree,
            "asan: denied the in-bounds access",
        );
    }
    if spec.kind == CaseKind::Bad {
        let impl_denies = !asan.check(ameta, addr(bad.0), r.elem_size);
        let model_denies = asan_denies(r, bad.0, bad.1);
        if impl_denies != model_denies {
            push(
                out,
                FindingClass::DefenseDisagree,
                format!(
                    "asan: implementation {} but redzone model {} (offsets {}..{})",
                    if impl_denies { "denies" } else { "allows" },
                    if model_denies { "denies" } else { "allows" },
                    bad.0,
                    bad.1
                ),
            );
        }
    }

    // MTE: implementation vs the granule-tag model, per-spec tag stream.
    let mut mte = Mte::with_seed(spec.seed);
    let mmeta = mte.on_alloc(MODEL_BASE, r.object_size);
    let tag = match mmeta {
        PtrMeta::Tag(t) => t,
        _ => 0,
    };
    if !mte.check(mmeta, addr(good.0), r.elem_size) {
        push(
            out,
            FindingClass::DefenseDisagree,
            "mte: denied the in-bounds access",
        );
    }
    if spec.kind == CaseKind::Bad {
        let impl_denies = !mte.check(mmeta, addr(bad.0), r.elem_size);
        let model_denies = mte_denies(r, bad.0, bad.1, tag);
        if impl_denies != model_denies {
            push(
                out,
                FindingClass::DefenseDisagree,
                format!(
                    "mte: implementation {} but tag model {} (tag {tag}, offsets {}..{})",
                    if impl_denies { "denies" } else { "allows" },
                    if model_denies { "denies" } else { "allows" },
                    bad.0,
                    bad.1
                ),
            );
        }
        if !r.escapes && impl_denies {
            push(
                out,
                FindingClass::DefenseDisagree,
                "mte: claimed an intra-object detection it cannot provide",
            );
        }
    }
}

/// Runs the full differential matrix for one spec, then the config
/// table against the matrix's instrumented runs.
#[must_use]
pub fn evaluate(spec: &CaseSpec) -> Evaluation {
    let r = spec.resolve();
    let program = spec.build_program();

    // Layer-1 gate: every program the generator emits must pass the
    // strict IR verifier. A diagnostic here is a generator bug the VM's
    // looser `validate` would mask (or worse, execute).
    let verifier_diags = ifp_analyze::verify(&program);
    if !verifier_diags.is_empty() {
        let disagreements = verifier_diags
            .iter()
            .map(|d| Disagreement {
                class: FindingClass::MalformedIr,
                detail: d.to_string(),
            })
            .collect();
        return Evaluation {
            runs: Vec::new(),
            compared: Vec::new(),
            disagreements,
            modeled_instrs: 0,
        };
    }

    let observe_mode = |mode| observe(&program, &config(mode), None);
    let baseline = observe_mode(Mode::Baseline);
    let wrapped = observe_mode(Mode::instrumented(AllocatorKind::Wrapped));
    let subheap = observe_mode(Mode::instrumented(AllocatorKind::Subheap));
    let no_promote = observe_mode(Mode::Instrumented {
        allocator: AllocatorKind::Subheap,
        no_promote: true,
    });
    let subheap_again = observe_mode(Mode::instrumented(AllocatorKind::Subheap));
    let mut modeled_instrs = [&baseline, &wrapped, &subheap, &no_promote, &subheap_again]
        .iter()
        .map(|o| o.total_instrs())
        .sum::<u64>();

    let mut out = Vec::new();

    // Baseline: good must complete; bad baseline behavior is unspecified.
    if spec.kind == CaseKind::Good {
        match (baseline.verdict, baseline.exit_code) {
            (Verdict::Completed, Some(0)) => {}
            (Verdict::Completed, _) => push(
                &mut out,
                FindingClass::OutputDivergence,
                format!("baseline: good case {}", baseline.describe()),
            ),
            _ => push(
                &mut out,
                FindingClass::FalseTrap,
                format!("baseline: good case {}", baseline.describe()),
            ),
        }
    }

    // Fully instrumented modes: hard requirements both ways.
    check_instrumented(&mut out, "wrapped", spec.kind, &wrapped);
    check_instrumented(&mut out, "subheap", spec.kind, &subheap);

    // No-promote ablation: loaded-flow detection is excused, everything
    // else keeps the full contract (field geps narrow in-register).
    if spec.variant == Variant::LoadedFlow {
        // Good loaded flows must still complete: promote becoming a NOP
        // never *adds* a trap. Bad loaded flows under no-promote may
        // complete (miss), trap or crash: the unchecked wild access is
        // exactly the ablated protection.
        if spec.kind == CaseKind::Good && no_promote.verdict != Verdict::Completed {
            push(
                &mut out,
                FindingClass::FalseTrap,
                format!("no-promote: good case {}", no_promote.describe()),
            );
        }
    } else {
        check_instrumented(&mut out, "no-promote", spec.kind, &no_promote);
    }

    // Output divergence: instrumentation must be semantically invisible
    // on good cases.
    if spec.kind == CaseKind::Good && baseline.verdict == Verdict::Completed {
        for (label, o) in [
            ("wrapped", &wrapped),
            ("subheap", &subheap),
            ("no-promote", &no_promote),
        ] {
            if o.verdict == Verdict::Completed
                && (o.exit_code != baseline.exit_code || o.output != baseline.output)
            {
                push(
                    &mut out,
                    FindingClass::OutputDivergence,
                    format!("{label}: output differs from baseline"),
                );
            }
        }
    }

    // Determinism: the same mode twice, byte-identical.
    if subheap_again != subheap {
        push(
            &mut out,
            FindingClass::Nondeterminism,
            format!(
                "subheap rerun: {} then {}",
                subheap.describe(),
                subheap_again.describe()
            ),
        );
    }

    // Config table: every host-side axis against its reference row.
    let table = config_table();
    let observed = observe_table(&program, &table, &wrapped, &subheap);
    let mut compared = Vec::new();
    for (row, o) in table.iter().zip(&observed) {
        if row.reference().is_some() {
            compared.push(*row);
            modeled_instrs += o.total_instrs();
        }
    }
    out.extend(compare_rows(&table, &observed));

    // Defense models.
    check_defenses(&mut out, spec, &r);

    Evaluation {
        runs: vec![
            ("baseline".into(), baseline),
            ("wrapped".into(), wrapped),
            ("subheap".into(), subheap),
            ("no-promote".into(), no_promote),
        ],
        compared,
        disagreements: out,
        modeled_instrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Dir, FieldSpec};
    use ifp_juliet::Site;
    use ifp_testutil::Rng;

    fn spec(kind: CaseKind, variant: Variant, site: Site, wrap: bool, dir: Dir) -> CaseSpec {
        let mut s = CaseSpec {
            seed: 3,
            site,
            variant,
            kind,
            dir,
            is_read: false,
            wrap_struct: wrap,
            pre: vec![FieldSpec {
                elem_size: 4,
                count: 4,
            }],
            elem_size: 4,
            len: 6,
            post: vec![FieldSpec {
                elem_size: 8,
                count: 2,
            }],
            deco: 2,
            oob: 1,
            filler: 2,
        };
        s.sanitize();
        s
    }

    #[test]
    fn clean_cases_produce_no_disagreements() {
        for variant in Variant::ALL {
            for site in Site::ALL {
                for kind in [CaseKind::Good, CaseKind::Bad] {
                    for wrap in [false, true] {
                        for dir in [Dir::Over, Dir::Under] {
                            let s = spec(kind, variant, site, wrap, dir);
                            let e = evaluate(&s);
                            assert!(e.disagreements.is_empty(), "{s:?}\n{:?}", e.disagreements);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn random_specs_are_clean() {
        // The first stream is this test's own; 0xe11de, 0x71e4, 0xcac4e
        // and 0x1f7e2 are pinned inputs from the elision, tier,
        // plan-cache and interproc differential tests.
        for (seed, n) in [
            (0xfacade, 40),
            (0xe11de, 25),
            (0x71e4, 25),
            (0xcac4e, 25),
            (0x1f7e2, 25),
        ] {
            for i in 0..n {
                let s = CaseSpec::generate(&mut Rng::stream(seed, i));
                let e = evaluate(&s);
                assert!(e.disagreements.is_empty(), "{s:?}\n{:?}", e.disagreements);
            }
        }
    }

    #[test]
    fn evaluate_compares_every_config_row() {
        // `replay`, `shrink` and the campaign all judge through this one
        // entry point, so every table row must run on every evaluation.
        let s = spec(CaseKind::Bad, Variant::Direct, Site::Heap, true, Dir::Over);
        let e = evaluate(&s);
        let want: Vec<ConfigRow> = config_table()
            .into_iter()
            .filter(|r| r.reference().is_some())
            .collect();
        assert_eq!(want.len(), 38);
        assert_eq!(e.compared, want);
        // Elided, jit and cached rows all run, so the throughput
        // denominator counts far more than the five matrix runs.
        let matrix: u64 = e.runs.iter().map(|(_, o)| o.total_instrs()).sum();
        assert!(
            e.modeled_instrs > 5 * matrix,
            "{} vs {matrix}",
            e.modeled_instrs
        );
    }

    /// Rows whose observation another row is compared against whole.
    fn whole_references(table: &[ConfigRow]) -> Vec<ConfigRow> {
        table
            .iter()
            .filter_map(|r| r.reference())
            .filter(|(_, eq)| *eq == Equality::Whole)
            .map(|(reference, _)| reference)
            .collect()
    }

    #[test]
    fn comparator_names_exactly_the_perturbed_row() {
        // A real, clean result set (a detected bad case, so every row
        // carries stats), then one perturbation at a time. A row that is
        // also the whole-equality reference of other rows (an elided
        // interp/fresh row) drags those dependents along: they no longer
        // match it either.
        let table = config_table();
        let program =
            spec(CaseKind::Bad, Variant::Direct, Site::Heap, true, Dir::Over).build_program();
        let matrix_run = |a| observe(&program, &config(Mode::instrumented(a)), None);
        let clean = observe_table(
            &program,
            &table,
            &matrix_run(AllocatorKind::Wrapped),
            &matrix_run(AllocatorKind::Subheap),
        );
        assert_eq!(compare_rows(&table, &clean), Vec::new());
        assert!(clean.iter().all(|o| o.verdict == Verdict::SafetyTrap));
        let references = whole_references(&table);

        for (i, row) in table.iter().enumerate() {
            let Some((_, equality)) = row.reference() else {
                continue;
            };
            let subject = format!("{row}: ");
            let dependents = references.iter().filter(|r| *r == row).count();

            // A verdict change breaks every equality.
            let mut observed = clean.clone();
            observed[i].verdict = Verdict::Completed;
            let found = compare_rows(&table, &observed);
            let own: Vec<_> = found
                .iter()
                .filter(|d| d.detail.starts_with(&subject))
                .collect();
            assert_eq!(own.len(), 1, "{row}: {found:?}");
            assert_eq!(own[0].class, FindingClass::ConfigDivergence);
            assert_eq!(found.len(), 1 + dependents, "{row}: {found:?}");

            // One modeled counter: a divergence on rows held to the whole
            // observation, none on the elision row, whose contract
            // leaves `RunStats` free.
            let mut observed = clean.clone();
            observed[i].stats.as_mut().expect("trap stats").base_instrs += 1;
            let found = compare_rows(&table, &observed);
            let own = found
                .iter()
                .filter(|d| d.detail.starts_with(&subject))
                .count();
            match equality {
                Equality::Whole => assert_eq!(own, 1, "{row}: {found:?}"),
                Equality::Behaviour => assert_eq!(own, 0, "{row}: {found:?}"),
            }
            assert_eq!(found.len(), own + dependents, "{row}: {found:?}");
        }
    }

    #[test]
    fn finding_class_names_round_trip() {
        let names: Vec<&str> = FindingClass::ALL.iter().map(|c| c.name()).collect();
        assert!(names.contains(&"config_divergence"), "{names:?}");
        for c in FindingClass::ALL {
            assert_eq!(FindingClass::from_name(c.name()), Some(c));
        }
        assert_eq!(FindingClass::from_name("tier_divergence"), None);
    }

    #[test]
    fn forensics_attach_to_detected_cases() {
        let s = spec(CaseKind::Bad, Variant::Direct, Site::Stack, true, Dir::Over);
        let text = forensic_text(&s);
        assert!(
            text.contains("bounds violation") || text.contains("poisoned"),
            "{text}"
        );
    }
}
