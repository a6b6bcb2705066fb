//! Content-addressed compiled-artifact cache.
//!
//! Every run of a [`Program`] pays a host-side compile pipeline before
//! the first step: validate, instrumentation/elision analysis,
//! pre-decode, and (jit tier) superinstruction fusion. Services, suite
//! runners, and sweeps execute the *same* programs thousands to
//! millions of times, so this crate hoists that pipeline into a
//! one-time [`CompiledArtifact`] per distinct program — the same move
//! the paper's hardware makes by metadata hoisting, applied to the
//! simulator's own host costs.
//!
//! **Keying.** An artifact is addressed by *content*, not identity:
//! `(program fingerprint, analysis fingerprint, instrumented?,
//! elide_checks?, exec tier)`.
//! The fingerprint is FNV-1a over the program's deterministic rendering
//! ([`program_fingerprint`]), so structurally identical programs built
//! independently share one artifact. The other three key components are
//! exactly the compile *inputs* of [`compile_artifact`]; allocator
//! kind, the no-promote ablation, temporal policy, cache geometry, and
//! fuel do not participate in decode/analyze/fuse, so they are
//! deliberately **not** part of the key — one artifact serves every
//! such variation, which is what lets a 5-mode sweep compile twice
//! instead of five times. A stale hit is impossible by construction:
//! anything that could change the compiled streams is either hashed
//! (the program) or in the key (the compile flags).
//!
//! **Concurrency.** The map is striped over fixed mutex shards selected
//! by fingerprint bits (the `ShardedFreeList` idiom from `ifp-alloc`),
//! so `par_map` workers sharing one cache hit without contending on a
//! global lock. Compilation happens *outside* the shard lock; two
//! threads racing on the same cold key may both compile, and the first
//! insert wins — artifacts for the same key are interchangeable, so
//! this is a throughput trade, not a correctness one.
//!
//! **Eviction.** Each shard carries a byte budget (approximate artifact
//! footprints) and evicts least-recently-used entries when inserting
//! over budget. [`PlanCache::poisoned`] builds a deliberately tiny,
//! eviction-heavy cache; the fuzz oracle's config table runs through
//! one to hammer the evict/recompile path.
//!
//! **Telemetry.** [`CacheStats`] (hits/misses/evictions/bytes/compile
//! time) lives entirely outside [`ifp_vm::RunStats`], like
//! `FusionStats`: golden-pinned modeled output cannot depend on cache
//! behaviour by construction. Hit/miss counts are host telemetry and
//! may vary run-to-run under racing threads; nothing deterministic may
//! be derived from them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ifp_compiler::Program;
use ifp_vm::{
    compile_artifact, program_fingerprint, CompiledArtifact, ExecTier, RunResult, Vm, VmConfig,
    VmError, VmHost,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default total byte budget (256 MiB): far above any suite in the
/// repo, so eviction only matters when deliberately provoked.
pub const DEFAULT_BUDGET: usize = 256 << 20;

/// Byte budget of a [`PlanCache::poisoned`] cache: small enough that a
/// handful of real artifacts thrash, exercising eviction + recompile on
/// nearly every lookup.
pub const POISONED_BUDGET: usize = 32 << 10;

/// Fixed stripe count (power of two; selected by fingerprint low bits).
const SHARDS: usize = 16;

/// The full cache key. `fingerprint` addresses program content; the
/// rest are the compile inputs of [`compile_artifact`] — nothing else
/// affects the compiled streams, which is why nothing else is here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key {
    fingerprint: u64,
    /// [`ifp_analyze::ANALYSIS_FINGERPRINT`]: cached plans never outlive
    /// the analysis semantics that justified them. Constant within one
    /// build, so it never splits keys at runtime — it exists for caches
    /// that outlive a process (and to make the dependency explicit).
    analysis: u64,
    instrumented: bool,
    elide_checks: bool,
    tier: ExecTier,
}

impl Key {
    fn of(fingerprint: u64, config: &VmConfig) -> Key {
        let instrumented = config.mode.is_instrumented();
        Key {
            fingerprint,
            analysis: ifp_analyze::ANALYSIS_FINGERPRINT,
            instrumented,
            // Elision is a plan input only when a plan exists; normalize
            // so uninstrumented lookups with the flag set still share.
            elide_checks: instrumented && config.elide_checks,
            tier: config.exec_tier,
        }
    }
}

struct Entry {
    artifact: Arc<CompiledArtifact>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    bytes: usize,
}

/// Cache telemetry counters. Host-side only — see the crate docs for
/// why none of this may feed a modeled statistic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a fresh artifact.
    pub misses: u64,
    /// Artifacts evicted by the byte budget.
    pub evictions: u64,
    /// Approximate bytes currently resident.
    pub resident_bytes: u64,
    /// Artifacts currently resident.
    pub resident_artifacts: u64,
    /// Total host nanoseconds spent compiling on misses.
    pub compile_ns: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0.0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The thread-shareable artifact cache. Construct once (usually inside
/// an [`Arc`]), hand clones of the handle to every worker that runs
/// repeated programs.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    compile_ns: AtomicU64,
}

impl PlanCache {
    /// A cache with the [`DEFAULT_BUDGET`].
    #[must_use]
    pub fn new() -> PlanCache {
        PlanCache::with_budget(DEFAULT_BUDGET)
    }

    /// A cache with a total byte budget of `bytes`, split evenly across
    /// the stripes.
    #[must_use]
    pub fn with_budget(bytes: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (bytes / SHARDS).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compile_ns: AtomicU64::new(0),
        }
    }

    /// A shared cache handle with the default budget.
    #[must_use]
    pub fn shared() -> Arc<PlanCache> {
        Arc::new(PlanCache::new())
    }

    /// A deliberately capacity-poisoned cache ([`POISONED_BUDGET`]):
    /// real artifacts evict each other almost immediately, so lookups
    /// keep flipping between hit, evict, and recompile. The fuzz
    /// oracle's config table runs through one of these to prove the
    /// whole lifecycle is invisible to modeled output.
    #[must_use]
    pub fn poisoned() -> PlanCache {
        PlanCache::with_budget(POISONED_BUDGET)
    }

    /// The artifact for `program` under `config`: a shared handle on a
    /// hit, a fresh compile (inserted, possibly evicting) on a miss.
    ///
    /// # Errors
    ///
    /// [`VmError::BadProgram`] when a miss fails validation. Invalid
    /// programs are never cached.
    pub fn artifact(
        &self,
        program: &Program,
        config: &VmConfig,
    ) -> Result<Arc<CompiledArtifact>, VmError> {
        let fp = program_fingerprint(program);
        let key = Key::of(fp, config);
        let si = (fp as usize) & (SHARDS - 1);
        {
            let mut shard = self.shards[si].lock().expect("plan-cache stripe poisoned");
            if let Some(e) = shard.map.get_mut(&key) {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&e.artifact));
            }
        }

        // Compile outside the stripe lock so a cold miss never blocks
        // sibling workers hitting the same stripe.
        let artifact = Arc::new(compile_artifact(program, config)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compile_ns
            .fetch_add(artifact.compile_ns, Ordering::Relaxed);
        let bytes = artifact.approx_bytes();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);

        let mut shard = self.shards[si].lock().expect("plan-cache stripe poisoned");
        if let Some(e) = shard.map.get_mut(&key) {
            // A sibling compiled the same key while we did: keep the
            // incumbent (interchangeable by construction).
            e.last_used = tick;
            return Ok(Arc::clone(&e.artifact));
        }
        shard.map.insert(
            key,
            Entry {
                artifact: Arc::clone(&artifact),
                bytes,
                last_used: tick,
            },
        );
        shard.bytes += bytes;
        // LRU eviction down to budget; the entry just inserted is
        // exempt so a single oversized artifact still caches.
        while shard.bytes > self.shard_budget && shard.map.len() > 1 {
            let victim = shard
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(vk) = victim else { break };
            if let Some(e) = shard.map.remove(&vk) {
                shard.bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(artifact)
    }

    /// [`ifp_vm::run`] through the cache: identical results, amortized
    /// compile.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run(&self, program: &Program, config: &VmConfig) -> Result<RunResult, VmError> {
        let artifact = self.artifact(program, config)?;
        Vm::with_artifact(program, config, &artifact, VmHost::with_l1(config.l1)).run()
    }

    /// [`ifp_vm::run_pooled`] through the cache: same signature and
    /// host-return contract (`None` exactly on the `BadProgram` path),
    /// amortized compile.
    pub fn run_pooled(
        &self,
        program: &Program,
        config: &VmConfig,
        host: VmHost,
    ) -> (Result<RunResult, VmError>, Option<VmHost>) {
        match self.artifact(program, config) {
            Ok(artifact) => {
                let (result, host) =
                    Vm::with_artifact(program, config, &artifact, host).run_pooled();
                (result, Some(host))
            }
            Err(e) => (Err(e), None),
        }
    }

    /// Current counters (resident figures take each stripe lock).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut resident_bytes = 0u64;
        let mut resident_artifacts = 0u64;
        for s in &self.shards {
            let s = s.lock().expect("plan-cache stripe poisoned");
            resident_bytes += s.bytes as u64;
            resident_artifacts += s.map.len() as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
            resident_artifacts,
            compile_ns: self.compile_ns.load(Ordering::Relaxed),
        }
    }

    /// Drops every resident artifact (counters keep accumulating).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock().expect("plan-cache stripe poisoned");
            s.map.clear();
            s.bytes = 0;
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifp_vm::{run, AllocatorKind, Mode, Observation};

    #[test]
    fn one_artifact_serves_every_allocator_and_ablation() {
        let w = ifp_workloads::by_name("treeadd").expect("workload");
        let program = w.build_default();
        let cache = PlanCache::new();
        let modes = [
            Mode::instrumented(AllocatorKind::Wrapped),
            Mode::instrumented(AllocatorKind::Subheap),
            Mode::Instrumented {
                allocator: AllocatorKind::Wrapped,
                no_promote: true,
            },
            Mode::Instrumented {
                allocator: AllocatorKind::Subheap,
                no_promote: true,
            },
        ];
        let arts: Vec<_> = modes
            .iter()
            .map(|m| {
                cache
                    .artifact(&program, &VmConfig::with_mode(*m))
                    .expect("compiles")
            })
            .collect();
        for a in &arts[1..] {
            assert!(
                Arc::ptr_eq(&arts[0], a),
                "instrumented modes share one artifact"
            );
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 3));

        // Baseline, elided, and jit-tier lookups each get their own.
        let b = cache
            .artifact(&program, &VmConfig::default())
            .expect("compiles");
        assert!(!Arc::ptr_eq(&arts[0], &b));
        let mut ecfg = VmConfig::with_mode(modes[0]);
        ecfg.elide_checks = true;
        let e = cache.artifact(&program, &ecfg).expect("compiles");
        assert!(!Arc::ptr_eq(&arts[0], &e));
        let mut jcfg = VmConfig::with_mode(modes[0]);
        jcfg.exec_tier = ExecTier::Jit;
        let j = cache.artifact(&program, &jcfg).expect("compiles");
        assert!(!Arc::ptr_eq(&arts[0], &j));
        assert_eq!(cache.stats().resident_artifacts, 4);
    }

    #[test]
    fn structurally_identical_rebuilt_program_hits() {
        let w = ifp_workloads::by_name("em3d").expect("workload");
        let p1 = w.build_default();
        let p2 = w.build_default();
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
        let cache = PlanCache::new();
        let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
        let a1 = cache.artifact(&p1, &cfg).expect("compiles");
        let a2 = cache.artifact(&p2, &cfg).expect("compiles");
        assert!(Arc::ptr_eq(&a1, &a2), "content addressing, not identity");
    }

    #[test]
    fn cached_runs_are_byte_identical_to_fresh_on_both_tiers() {
        let cache = PlanCache::new();
        for wname in ["treeadd", "anagram"] {
            let w = ifp_workloads::by_name(wname).expect("workload");
            let program = w.build_default();
            for tier in [ExecTier::Interp, ExecTier::Jit] {
                let mut cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
                cfg.exec_tier = tier;
                let fresh = Observation::of(&run(&program, &cfg));
                // Twice through the cache: miss path, then hit path.
                assert_eq!(
                    fresh,
                    Observation::of(&cache.run(&program, &cfg)),
                    "{wname} cold"
                );
                assert_eq!(
                    fresh,
                    Observation::of(&cache.run(&program, &cfg)),
                    "{wname} warm"
                );
            }
        }
        assert!(cache.stats().hits >= 4);
    }

    #[test]
    fn poisoned_cache_thrashes_but_stays_invisible() {
        let cache = PlanCache::poisoned();
        let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Wrapped));
        let mut checked = 0;
        for _ in 0..2 {
            for w in ifp_workloads::all().iter().take(4) {
                let program = w.build_default();
                let fresh = Observation::of(&run(&program, &cfg));
                assert_eq!(
                    fresh,
                    Observation::of(&cache.run(&program, &cfg)),
                    "{}",
                    w.name
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 8);
        let s = cache.stats();
        assert!(s.evictions > 0, "poisoned budget must thrash: {s:?}");
        assert!(s.resident_bytes <= (POISONED_BUDGET * 2) as u64);
    }

    #[test]
    fn invalid_programs_are_not_cached() {
        let program = Program::default();
        let cache = PlanCache::new();
        let r = cache.artifact(&program, &VmConfig::default());
        assert!(matches!(r, Err(VmError::BadProgram(_))));
        assert_eq!(cache.stats().resident_artifacts, 0);
    }

    #[test]
    fn shared_cache_is_worker_count_invariant_in_results() {
        // The same suite of (workload, mode) runs through one shared
        // cache on 1 and 4 workers: observations must be identical
        // (telemetry like hit/miss split may differ; results may not).
        let cache = Arc::new(PlanCache::new());
        let inputs: Vec<(usize, Mode)> = (0..8)
            .map(|i| {
                (
                    i % 4,
                    if i % 2 == 0 {
                        Mode::instrumented(AllocatorKind::Subheap)
                    } else {
                        Mode::instrumented(AllocatorKind::Wrapped)
                    },
                )
            })
            .collect();
        let programs: Vec<_> = ifp_workloads::all()
            .iter()
            .take(4)
            .map(|w| w.build_default())
            .collect();
        let run_all = |workers: usize| -> Vec<Observation> {
            ifp_testutil::par_map(&inputs, workers, |(wi, mode)| {
                let mut cfg = VmConfig::with_mode(*mode);
                cfg.exec_tier = ExecTier::Jit;
                Observation::of(&cache.run(&programs[*wi], &cfg))
            })
        };
        assert_eq!(run_all(1), run_all(4));
    }
}
