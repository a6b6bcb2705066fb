//! Pooled-VM regression tests: a `VmHost` recycled through
//! [`ifp_vm::run_pooled`] must be observationally identical to a fresh
//! VM — every modeled statistic, the program output, and trap identity
//! are pinned against the fresh path, on the completion and the trap
//! path alike. The global-table row allocator must not leak rows
//! between pooled runs (its reset carries a `debug_assertions` leak
//! check; these tests run under the dev profile, so the check is live).

use ifp_compiler::{Operand, Program, ProgramBuilder};
use ifp_vm::{run, run_pooled, AllocatorKind, Mode, Observation, Verdict, VmConfig, VmHost};

fn modes() -> [Mode; 3] {
    [
        Mode::Baseline,
        Mode::instrumented(AllocatorKind::Wrapped),
        Mode::instrumented(AllocatorKind::Subheap),
    ]
}

/// Observes a run that must complete.
fn completed(result: &Result<ifp_vm::RunResult, ifp_vm::VmError>) -> Observation {
    let o = Observation::of(result);
    assert_eq!(o.verdict, Verdict::Completed, "{}", o.describe());
    o
}

/// A program with heap churn and an oversized global (which takes a
/// global-table row in instrumented modes). `oob_index` ≥ the array
/// length turns the last access into a spatial violation.
fn workout_program(oob_index: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.types.int64();
    let big = pb.types.array(i64t, 4096);
    let g = pb.global("big_table", big);

    // The global's address escapes through a call, so instrumented modes
    // must register it — and at 32 KiB it lands in the global table.
    let mut wf = pb.func("poke", 1);
    let p = wf.param(0);
    let slot = wf.index_addr(p, big, 7i64);
    wf.store(slot, 41i64, i64t);
    wf.ret(None);
    pb.finish_func(wf);

    let mut f = pb.func("main", 1);
    let gp = f.addr_of_global(g);
    f.call_void("poke", vec![Operand::Reg(gp)]);
    let slot = f.index_addr(gp, big, 7i64);
    let a = f.malloc_n(i64t, 16i64);
    let i = f.mov(oob_index); // runtime value, defeats static elision
    let p = f.index_addr(a, i64t, i);
    f.store(p, 1i64, i64t);
    let v = f.load(slot, i64t);
    f.print_int(v);
    f.free(a);
    f.ret(Some(Operand::Imm(0)));
    pb.finish_func(f);
    pb.build()
}

#[test]
fn pooled_run_stats_bit_identical_to_fresh() {
    let dirty = workout_program(3);
    for w in ["treeadd", "health", "anagram"] {
        let workload = ifp_workloads::by_name(w).expect("workload");
        let program = (workload.build)(4);
        for mode in modes() {
            let cfg = VmConfig::with_mode(mode);
            let fresh = completed(&run(&program, &cfg));

            // Dirty the host with a different program under a different
            // config before the run under test, so any state leaking
            // through the reset would show up in the comparison.
            let mut dirty_cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Wrapped));
            dirty_cfg.l1 = ifp::eval::sweep_l1(); // forces a geometry switch
            let (d, host) = run_pooled(&dirty, &dirty_cfg, VmHost::new());
            d.expect("dirtying run completes");
            let host = host.expect("host survives");

            let (pooled, host) = run_pooled(&program, &cfg, host);
            assert!(host.is_some(), "host survives a completed run");
            assert_eq!(
                completed(&pooled),
                fresh,
                "{w}/{mode}: pooled run diverged from fresh"
            );
        }
    }
}

#[test]
fn trap_path_hands_host_back_and_stays_identical() {
    let bad = workout_program(16);
    let good = workout_program(3);
    let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));

    let fresh_err = Observation::of(&run(&bad, &cfg));
    assert_eq!(fresh_err.verdict, Verdict::SafetyTrap, "fresh run traps");
    let fresh_good = completed(&run(&good, &cfg));

    // Trap on a dirtied host, then a clean run on the host the trap
    // handed back — both must match their fresh equivalents.
    let (d, host) = run_pooled(&good, &cfg, VmHost::new());
    d.expect("dirtying run completes");
    let (pooled_err, host) = run_pooled(&bad, &cfg, host.expect("host survives"));
    let host = host.expect("host survives the trap path");
    assert_eq!(
        Observation::of(&pooled_err),
        fresh_err,
        "trap identity, faulting function and stats at the trap"
    );

    let (after, _) = run_pooled(&good, &cfg, host);
    assert_eq!(
        completed(&after),
        fresh_good,
        "run after a trapped pooled run diverged"
    );
}

/// Concurrent pool reuse: hosts dirtied on other threads — each under a
/// different cache geometry — and handed across real thread boundaries
/// must behave exactly like fresh hosts. `MemSystem::reset` /
/// `Cache::reset` leave nothing geometry- or thread-specific behind,
/// and no host leaks global-table rows through the handoff.
#[test]
fn dirty_hosts_handed_across_threads_stay_bit_identical() {
    use std::sync::mpsc;

    let dirty = workout_program(3);
    let geometries = [
        ifp_mem::CacheConfig::default(),
        ifp::eval::sweep_l1(),
        ifp_mem::CacheConfig {
            line_size: 32,
            sets: 16,
            ways: 2,
        },
    ];

    let workload = ifp_workloads::by_name("treeadd").expect("workload");
    let program = (workload.build)(4);
    for mode in modes() {
        let cfg = VmConfig::with_mode(mode);
        let fresh = completed(&run(&program, &cfg));

        // Each producer thread dirties one host under its own geometry
        // and mode, then ships it through the channel; the consumer
        // (this thread) reuses every host under the reference config.
        let (tx, rx) = mpsc::channel::<(usize, VmHost)>();
        std::thread::scope(|s| {
            for (i, geo) in geometries.iter().enumerate() {
                let tx = tx.clone();
                let dirty = &dirty;
                s.spawn(move || {
                    let mut dirty_cfg =
                        VmConfig::with_mode(Mode::instrumented(AllocatorKind::Wrapped));
                    dirty_cfg.l1 = *geo;
                    let (d, host) = run_pooled(dirty, &dirty_cfg, VmHost::new());
                    d.expect("dirtying run completes");
                    tx.send((i, host.expect("host survives"))).expect("send");
                });
            }
            drop(tx);
            for (i, host) in rx {
                let (pooled, host_back) = run_pooled(&program, &cfg, host);
                let host_back = host_back.expect("host survives");
                assert_eq!(
                    completed(&pooled),
                    fresh,
                    "{mode}: host dirtied on thread {i} diverged from fresh"
                );
                assert_eq!(
                    host_back.leaked_rows(),
                    0,
                    "{mode}: host from thread {i} leaked global-table rows"
                );
            }
        });
    }
}

/// Shared-cache handoff: one `Arc<PlanCache>` serving real threads that
/// dirty pooled hosts and ship both the hosts *and* the warm artifacts
/// across thread boundaries. The consumer reuses every handed-off host
/// through the same cache — on both execution tiers — and every run
/// must stay bit-identical to a fresh, cache-less run. This is the
/// shard-pool shape: threads share compiled artifacts, never VM state.
#[test]
fn shared_plan_cache_handoff_across_threads_stays_bit_identical() {
    use std::sync::{mpsc, Arc};

    let cache = ifp_plancache::PlanCache::shared();
    let dirty = workout_program(3);
    let workload = ifp_workloads::by_name("treeadd").expect("workload");
    let program = (workload.build)(4);
    for mode in modes() {
        for tier in [ifp_vm::ExecTier::Interp, ifp_vm::ExecTier::Jit] {
            let mut cfg = VmConfig::with_mode(mode);
            cfg.exec_tier = tier;
            let fresh = completed(&run(&program, &cfg));

            // Producers dirty hosts through the shared cache (warming
            // the dirty program's artifacts as a side effect), then ship
            // them over a channel; the consumer reuses each host under
            // the reference config through the same cache.
            let (tx, rx) = mpsc::channel::<(usize, VmHost)>();
            std::thread::scope(|s| {
                for i in 0..3 {
                    let tx = tx.clone();
                    let cache = Arc::clone(&cache);
                    let dirty = &dirty;
                    s.spawn(move || {
                        let dirty_cfg =
                            VmConfig::with_mode(Mode::instrumented(AllocatorKind::Wrapped));
                        let (d, host) = cache.run_pooled(dirty, &dirty_cfg, VmHost::new());
                        d.expect("dirtying run completes");
                        tx.send((i, host.expect("host survives"))).expect("send");
                    });
                }
                drop(tx);
                for (i, host) in rx {
                    let (pooled, host_back) = cache.run_pooled(&program, &cfg, host);
                    let host_back = host_back.expect("host survives");
                    assert_eq!(
                        completed(&pooled),
                        fresh,
                        "{mode}/{tier:?}: cached run on a host dirtied by thread {i} \
                         diverged from fresh"
                    );
                    assert_eq!(
                        host_back.leaked_rows(),
                        0,
                        "{mode}/{tier:?}: host from thread {i} leaked global-table rows"
                    );
                }
            });
        }
    }
    let s = cache.stats();
    assert!(s.hits > 0, "shared cache never produced a hit: {s:?}");
    assert_eq!(s.evictions, 0, "default budget must not thrash: {s:?}");
}

#[test]
fn thousand_pooled_runs_keep_live_rows_stable() {
    let program = workout_program(3);
    let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Wrapped));
    let mut host = VmHost::new();
    let mut expected: Option<(usize, Observation)> = None;
    for i in 0..1_000 {
        let (r, h) = run_pooled(&program, &cfg, host);
        host = h.expect("host survives");
        // The oversized global's table row stays live at exit; its count
        // and the whole observation must be identical every cycle.
        let fp = (host.live_rows(), completed(&r));
        match &expected {
            None => {
                assert!(fp.0 > 0, "workout program should hold a table row");
                expected = Some(fp);
            }
            Some(e) => {
                assert_eq!(e.0, fp.0, "live_rows drifted at run {i}");
                assert_eq!(e.1, fp.1, "observation drifted at run {i}");
            }
        }
    }
}
