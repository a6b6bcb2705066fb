//! The campaign runner: a worker pool over a shared iteration counter.
//!
//! Work distribution is a single `AtomicU64` ticket counter; each ticket
//! `i` derives its RNG as `Rng::stream(campaign_seed, i)`, so the case a
//! ticket produces is a pure function of `(seed, i)` — which worker ran
//! it, and how many workers there are, cannot change a single generated
//! byte. Findings carry their ticket number and are sorted by it after
//! the pool joins, so reports and corpus files are byte-identical across
//! runs and across worker counts; only wall-clock changes.
//!
//! Shrinking and forensic capture run on the campaign thread after the
//! pool joins: findings are rare, and keeping the expensive per-finding
//! work single-threaded keeps the workers' hot loop allocation-light.

use crate::corpus::{write_corpus, Finding};
use crate::mutate::mutate;
use crate::oracle::{evaluate, forensic_text, Disagreement, FindingClass};
use crate::shrink::shrink_with;
use crate::spec::CaseSpec;
use ifp_juliet::{CaseKind, Site, Variant, ALL_CWES};
use ifp_testutil::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How tickets choose the spec they run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Every ticket draws one spec from its own stream — uniform over
    /// the generator's distribution.
    #[default]
    Uniform,
    /// Inverse cell-frequency weighting: each bad-case ticket draws a
    /// small candidate set and keeps the one whose coverage cells have
    /// been hit least so far, steering the campaign toward the
    /// thin corners of the scheme×site×CWE×variant matrix. Good cases
    /// pass through unweighted, so the good/bad mix is unchanged.
    /// Selection happens sequentially before the worker pool starts, so
    /// results remain a pure function of `(seed, iterations)`.
    CoverageGuided,
}

impl Schedule {
    /// Stable CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Uniform => "uniform",
            Schedule::CoverageGuided => "coverage",
        }
    }

    /// Parses a [`Schedule::name`] string back.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Schedule> {
        [Schedule::Uniform, Schedule::CoverageGuided]
            .into_iter()
            .find(|x| x.name() == s)
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The campaign seed: the sole source of randomness.
    pub seed: u64,
    /// Number of iterations (cases) to run.
    pub iterations: u64,
    /// Worker threads.
    pub workers: usize,
    /// Where to persist minimized findings; `None` keeps them in memory
    /// only.
    pub corpus_dir: Option<PathBuf>,
    /// Ticket scheduling strategy.
    pub schedule: Schedule,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            iterations: 1000,
            workers: 1,
            corpus_dir: None,
            schedule: Schedule::Uniform,
        }
    }
}

/// What a campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// The configuration that ran.
    pub config: CampaignConfig,
    /// Wall-clock time of the worker-pool phase.
    pub elapsed: Duration,
    /// Minimized findings, in iteration order.
    pub findings: Vec<Finding>,
    /// Hit counts per scheme×site×CWE×variant cell (bad cases only).
    pub coverage: BTreeMap<String, u64>,
    /// Modeled instructions executed by the worker-pool phase, summed
    /// over every oracle run (host throughput = this / `elapsed`).
    pub modeled_instrs: u64,
    /// Number of cells the generator can reach.
    pub total_cells: usize,
    /// Corpus files written (empty without a corpus dir or findings).
    pub corpus_paths: Vec<PathBuf>,
}

/// The metadata schemes a site's objects are served by, per allocator
/// matrix: stack objects are small enough for local-offset, heap objects
/// run under both allocators, globals sit in the global table.
fn schemes_for(site: Site) -> &'static [&'static str] {
    match site {
        Site::Stack => &["local-offset"],
        Site::Heap => &["local-offset", "subheap"],
        Site::Global => &["global-table"],
    }
}

fn cell(scheme: &str, site: Site, cwe: ifp_juliet::Cwe, variant: Variant) -> String {
    format!(
        "{scheme}\u{d7}{}\u{d7}{}\u{d7}{}",
        site.name(),
        cwe.name(),
        variant.name()
    )
}

/// The coverage cells a bad spec exercises.
fn cells_of(spec: &CaseSpec) -> Vec<String> {
    let cwe = spec.resolve().cwe;
    schemes_for(spec.site)
        .iter()
        .map(|scheme| cell(scheme, spec.site, cwe, spec.variant))
        .collect()
}

/// Every cell the generator can reach. The one excluded corner is
/// intra-object bugs on global loaded flows: the global-table scheme has
/// no subobject index bits, so the generator never plants them (see
/// `CaseSpec::sanitize`).
#[must_use]
pub fn reachable_cells() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for site in Site::ALL {
        for scheme in schemes_for(site) {
            for cwe in ALL_CWES {
                for variant in Variant::ALL {
                    let intra = matches!(
                        cwe,
                        ifp_juliet::Cwe::IntraObjectWrite | ifp_juliet::Cwe::IntraObjectRead
                    );
                    if intra && site == Site::Global && variant == Variant::LoadedFlow {
                        continue;
                    }
                    out.insert(cell(scheme, site, cwe, variant));
                }
            }
        }
    }
    out
}

/// The spec ticket `i` of campaign `seed` produces — a pure function, so
/// replaying a ticket needs no campaign state. Even tickets generate
/// fresh specs; odd tickets generate a parent and mutate it.
#[must_use]
pub fn spec_for_ticket(seed: u64, i: u64) -> CaseSpec {
    let mut rng = Rng::stream(seed, i);
    if i.is_multiple_of(2) {
        CaseSpec::generate(&mut rng)
    } else {
        let parent = CaseSpec::generate(&mut rng);
        mutate(&parent, &mut rng)
    }
}

/// Candidate draws per bad-case ticket under the coverage-guided
/// schedule.
const CANDIDATES: u64 = 4;

/// Stream salt separating coverage-guided candidate streams from the
/// uniform ticket streams (a ticket's candidate `k` must not replay
/// another campaign's ticket `i * CANDIDATES + k`).
const CG_SALT: u64 = 0x5eed_c0de_0dd5_a17e;

/// The spec sequence a coverage-guided campaign runs, chosen
/// sequentially: ticket `i` draws up to [`CANDIDATES`] specs; a good
/// first draw passes through unchanged (preserving the generator's
/// good/bad mix), while a bad first draw competes against the remaining
/// bad candidates on the sum of its cells' hit counts so far — the
/// least-covered candidate wins (inverse cell-frequency weighting).
/// Everything is a pure function of `(seed, iterations)`: worker count
/// cannot influence a single chosen spec.
#[must_use]
pub fn coverage_guided_specs(seed: u64, iterations: u64) -> Vec<CaseSpec> {
    let gen_candidate = |i: u64, k: u64| {
        let mut rng = Rng::stream(seed ^ CG_SALT, i * CANDIDATES + k);
        if i.is_multiple_of(2) {
            CaseSpec::generate(&mut rng)
        } else {
            let parent = CaseSpec::generate(&mut rng);
            mutate(&parent, &mut rng)
        }
    };
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut specs = Vec::with_capacity(usize::try_from(iterations).unwrap_or(0));
    for i in 0..iterations {
        let first = gen_candidate(i, 0);
        let chosen = if first.kind == CaseKind::Good {
            first
        } else {
            let score = |counts: &BTreeMap<String, u64>, s: &CaseSpec| -> u64 {
                cells_of(s)
                    .iter()
                    .map(|c| counts.get(c).copied().unwrap_or(0))
                    .sum()
            };
            let mut best = (score(&counts, &first), first);
            for k in 1..CANDIDATES {
                let cand = gen_candidate(i, k);
                if cand.kind != CaseKind::Bad {
                    continue;
                }
                let s = score(&counts, &cand);
                if s < best.0 {
                    best = (s, cand);
                }
            }
            best.1
        };
        for c in cells_of(&chosen) {
            *counts.entry(c).or_default() += 1;
        }
        specs.push(chosen);
    }
    specs
}

/// Runs a campaign to completion.
///
/// # Panics
///
/// Panics if a worker thread itself dies outside the per-case guard
/// (a harness bug, not a finding).
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let next = AtomicU64::new(0);
    let raw_findings: Mutex<Vec<(u64, CaseSpec, Vec<Disagreement>)>> = Mutex::new(Vec::new());
    let workers = config.workers.max(1);
    // Coverage-guided selection is inherently sequential (each choice
    // depends on the running cell counts), so it happens up front; the
    // pool then executes the prebuilt sequence.
    let prebuilt: Option<Vec<CaseSpec>> = match config.schedule {
        Schedule::Uniform => None,
        Schedule::CoverageGuided => Some(coverage_guided_specs(config.seed, config.iterations)),
    };

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
                        let spec = match &prebuilt {
                            Some(specs) => specs[usize::try_from(i).expect("ticket fits")].clone(),
                            None => spec_for_ticket(config.seed, i),
                        };
                        if spec.kind == CaseKind::Bad {
                            for c in cells_of(&spec) {
                                *local_cov.entry(c).or_default() += 1;
                            }
                        }
                        let spec_for_eval = spec.clone();
                        match catch_unwind(AssertUnwindSafe(|| evaluate(&spec_for_eval))) {
                            Ok(eval) => {
                                local_instrs += eval.modeled_instrs;
                                if !eval.disagreements.is_empty() {
                                    raw_findings.lock().unwrap().push((
                                        i,
                                        spec,
                                        eval.disagreements,
                                    ));
                                }
                            }
                            Err(payload) => {
                                let msg = payload
                                    .downcast_ref::<&str>()
                                    .map(ToString::to_string)
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "non-string panic".into());
                                raw_findings.lock().unwrap().push((
                                    i,
                                    spec,
                                    vec![Disagreement {
                                        class: FindingClass::HarnessPanic,
                                        detail: msg,
                                    }],
                                ));
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

    let mut raw = raw_findings.into_inner().unwrap();
    raw.sort_by_key(|(i, _, _)| *i);

    // Post-pool triage: shrink each finding to a minimal reproducer that
    // still shows at least one of the original disagreement classes,
    // then attach the forensic reconstruction.
    let findings: Vec<Finding> = raw
        .into_iter()
        .map(|(iteration, original, disagreements)| {
            let classes: BTreeSet<FindingClass> = disagreements.iter().map(|d| d.class).collect();
            let spec = shrink_with(&original, |cand| {
                let out = catch_unwind(AssertUnwindSafe(|| evaluate(cand)));
                match out {
                    Ok(eval) => eval
                        .disagreements
                        .iter()
                        .any(|d| classes.contains(&d.class)),
                    Err(_) => classes.contains(&FindingClass::HarnessPanic),
                }
            });
            let forensics = forensic_text(&spec);
            Finding {
                iteration,
                campaign_seed: config.seed,
                disagreements,
                spec,
                original,
                forensics,
            }
        })
        .collect();

    let corpus_paths = match (&config.corpus_dir, findings.is_empty()) {
        (Some(dir), false) => write_corpus(dir, &findings).unwrap_or_else(|e| {
            eprintln!("ifp-fuzz: cannot write corpus to {}: {e}", dir.display());
            Vec::new()
        }),
        _ => Vec::new(),
    };

    CampaignReport {
        config: config.clone(),
        elapsed,
        findings,
        coverage,
        modeled_instrs,
        total_cells: reachable_cells().len(),
        corpus_paths,
    }
}

impl CampaignReport {
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

    /// Modeled instructions per wall-clock second — host simulator
    /// throughput as seen by the campaign.
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.modeled_instrs as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Findings tallied by class.
    #[must_use]
    pub fn findings_by_class(&self) -> BTreeMap<FindingClass, usize> {
        let mut out = BTreeMap::new();
        for f in &self.findings {
            for d in &f.disagreements {
                *out.entry(d.class).or_insert(0) += 1;
            }
        }
        out
    }

    /// The summary table the CLI prints.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("ifp-fuzz campaign\n");
        s.push_str(&format!("  seed        {:#x}\n", self.config.seed));
        s.push_str(&format!("  iterations  {}\n", self.config.iterations));
        s.push_str(&format!("  workers     {}\n", self.config.workers.max(1)));
        s.push_str(&format!("  schedule    {}\n", self.config.schedule.name()));
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
            "  coverage    {}/{} scheme\u{d7}site\u{d7}CWE\u{d7}variant cells\n",
            self.coverage.len(),
            self.total_cells
        ));
        s.push_str(&format!("  findings    {}\n", self.findings.len()));
        let by_class = self.findings_by_class();
        if !by_class.is_empty() {
            s.push_str("\nfindings by class:\n");
            for (class, n) in &by_class {
                s.push_str(&format!("  {:<20} {n}\n", class.name()));
            }
        }
        for f in &self.findings {
            s.push_str(&format!(
                "\nfinding @ iteration {}: {}\n",
                f.iteration,
                f.disagreements
                    .iter()
                    .map(|d| d.detail.as_str())
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
            s.push_str(&format!("  minimized: {:?}\n", f.spec));
            s.push_str(&format!("  forensics: {}\n", f.forensics));
        }
        if !self.corpus_paths.is_empty() {
            s.push_str(&format!(
                "\ncorpus: {} file(s) under {}\n",
                self.corpus_paths.len(),
                self.config
                    .corpus_dir
                    .as_deref()
                    .unwrap_or_else(|| std::path::Path::new("?"))
                    .display()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachable_cell_count_is_stable() {
        // 3 sites × their schemes × 6 CWEs × 5 variants, minus the two
        // excluded global loaded-flow intra cells.
        assert_eq!(reachable_cells().len(), (1 + 2 + 1) * 6 * 5 - 2);
    }

    #[test]
    fn tickets_are_pure_functions() {
        for i in [0u64, 1, 7, 100] {
            assert_eq!(spec_for_ticket(42, i), spec_for_ticket(42, i));
        }
        assert_ne!(spec_for_ticket(42, 0), spec_for_ticket(43, 0));
    }

    #[test]
    fn small_campaign_is_clean_and_covers_cells() {
        // The first campaign is this test's own; 0xe11d, 0x71e4, 0xcac4e
        // and 0x1f7e2 are pinned inputs from the elision, tier,
        // plan-cache and interproc differential campaigns.
        for (seed, iterations) in [
            (0x5eed, 60),
            (0xe11d, 40),
            (0x71e4, 40),
            (0xcac4e, 40),
            (0x1f7e2, 40),
        ] {
            let report = run_campaign(&CampaignConfig {
                seed,
                iterations,
                workers: 2,
                corpus_dir: None,
                schedule: Schedule::Uniform,
            });
            assert!(
                report.findings.is_empty(),
                "{seed:#x}: {:#?}",
                report
                    .findings
                    .iter()
                    .map(|f| (&f.spec, &f.disagreements))
                    .collect::<Vec<_>>()
            );
            assert!(!report.coverage.is_empty());
            assert!(report.coverage.len() <= report.total_cells);
            // Every iteration runs the five-mode oracle and the config
            // table, so the throughput denominator cannot be empty.
            assert!(report.modeled_instrs > 0);
            let rendered = report.render();
            assert!(
                rendered.contains(&format!("iterations  {iterations}")),
                "{rendered}"
            );
            assert!(rendered.contains("instrs/sec"), "{rendered}");
        }
    }

    #[test]
    fn coverage_guided_selection_is_a_pure_function_of_seed_and_iterations() {
        let a = coverage_guided_specs(0xc0f, 80);
        let b = coverage_guided_specs(0xc0f, 80);
        assert_eq!(a, b);
        // A longer run extends, never rewrites, the shorter sequence.
        let longer = coverage_guided_specs(0xc0f, 120);
        assert_eq!(&longer[..80], &a[..]);
    }

    #[test]
    fn coverage_guided_preserves_the_good_case_mix() {
        // Good tickets pass through unweighted: the schedule only picks
        // among bad candidates, so candidate 0's kind decides the mix.
        for (i, spec) in coverage_guided_specs(0x90d, 100).iter().enumerate() {
            let mut rng = Rng::stream(0x90d ^ CG_SALT, i as u64 * CANDIDATES);
            let first = if (i as u64).is_multiple_of(2) {
                CaseSpec::generate(&mut rng)
            } else {
                let parent = CaseSpec::generate(&mut rng);
                mutate(&parent, &mut rng)
            };
            assert_eq!(spec.kind, first.kind);
        }
    }

    #[test]
    fn coverage_guided_campaign_is_clean_and_spreads_coverage() {
        let base = CampaignConfig {
            seed: 0x5eed,
            iterations: 60,
            workers: 2,
            corpus_dir: None,
            schedule: Schedule::CoverageGuided,
        };
        let guided = run_campaign(&base);
        assert!(
            guided.findings.is_empty(),
            "{:#?}",
            guided
                .findings
                .iter()
                .map(|f| (&f.spec, &f.disagreements))
                .collect::<Vec<_>>()
        );
        // Worker-count invariance: same cells, same hit counts.
        let solo = run_campaign(&CampaignConfig {
            workers: 1,
            ..base.clone()
        });
        assert_eq!(guided.coverage, solo.coverage);
        // The point of the schedule: at equal iteration count it reaches
        // at least as many distinct cells as the uniform draw.
        let uniform = run_campaign(&CampaignConfig {
            schedule: Schedule::Uniform,
            workers: 2,
            ..base
        });
        assert!(
            guided.coverage.len() >= uniform.coverage.len(),
            "guided {} < uniform {}",
            guided.coverage.len(),
            uniform.coverage.len()
        );
        assert!(guided.render().contains("schedule    coverage"));
    }
}
