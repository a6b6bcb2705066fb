//! Layer kernels timed through their public functions, independent of
//! any workload: host ns per call, the median over batches.

use crate::stats::{median, ns_since};
use ifp_alloc::{GlobalTableManager, SubheapAllocator, WrappedAllocator};
use ifp_bench::fixtures::promote_fixture;
use ifp_hw::IfpUnit;
use ifp_mem::{Cache, CacheConfig, MemSystem};
use ifp_meta::{LayoutTable, LayoutTableBuilder, MacKey};
use ifp_tag::{Bounds, TaggedPtr};
use ifp_temporal::{TemporalPolicy, TemporalState};
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed batch.
const ITERS: usize = 20_000;
/// Timed batches per kernel (after one warm-up batch).
const BATCHES: usize = 9;

/// Host ns per call of each kernel.
pub struct Kernels {
    pub l1_access: f64,
    pub read_uint: f64,
    pub promote_local_offset: f64,
    pub promote_subheap: f64,
    pub promote_global_table: f64,
    pub narrow: f64,
    pub alloc_subheap: f64,
    pub alloc_wrapped: f64,
    pub temporal_check: f64,
    /// An `on_alloc` + `on_free` pair: a free needs a live allocation.
    pub temporal_free: f64,
}

/// Median ns per call of `op` over [`BATCHES`] batches, each on state
/// fresh from `fresh` (built outside the timed region).
fn per_call_ns<S>(mut fresh: impl FnMut() -> S, mut op: impl FnMut(&mut S, usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let mut s = fresh();
        let t0 = Instant::now();
        for i in 0..ITERS {
            op(&mut s, i);
        }
        let ns = ns_since(t0);
        if batch > 0 {
            samples.push(ns as f64 / ITERS as f64);
        }
    }
    median(&samples)
}

/// Addresses spread over 64 KiB (twice the default L1), 8-aligned.
fn address_stream() -> Vec<u64> {
    (0..4096u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 0x1_0000) & !7)
        .collect()
}

/// The Figure 9 layout (as in the promote fixture) and a narrowing
/// request into `S.array[1].v4`.
fn figure9_table() -> LayoutTable {
    let mut b = LayoutTableBuilder::new(24);
    b.child(0, 0, 4, 4).expect("figure 9 layout");
    let arr = b.child(0, 4, 20, 8).expect("figure 9 layout");
    b.child(arr, 0, 4, 4).expect("figure 9 layout");
    b.child(arr, 4, 8, 4).expect("figure 9 layout");
    b.child(0, 20, 24, 4).expect("figure 9 layout");
    b.build()
}

pub fn measure() -> Kernels {
    let addrs = address_stream();
    let l1_access = per_call_ns(
        || Cache::new(CacheConfig::default()),
        |c, i| {
            black_box(c.access(addrs[i & 4095], i & 3 == 0));
        },
    );
    let read_uint = per_call_ns(
        || {
            let mut m = MemSystem::with_default_l1();
            m.mem.map(0x10_0000, 0x1_0000);
            m
        },
        |m, i| {
            black_box(m.read_uint(0x10_0000 + addrs[i & 4095], 8).expect("mapped"));
        },
    );

    let unit = IfpUnit::default();
    let promote = |pick: fn(&ifp_bench::fixtures::PromoteFixture) -> TaggedPtr| {
        per_call_ns(promote_fixture, |fx, _| {
            let p = pick(fx);
            black_box(
                unit.promote(black_box(p), &mut fx.mem, &fx.ctrl)
                    .expect("valid"),
            );
        })
    };
    let promote_local_offset = promote(|fx| fx.local);
    let promote_subheap = promote(|fx| fx.subheap);
    let promote_global_table = promote(|fx| fx.global);

    let narrow = per_call_ns(figure9_table, |t, _| {
        let object = Bounds::from_base_size(0x2000, 24);
        black_box(
            t.narrow(black_box(object), black_box(0x2000 + 16), 4)
                .expect("in-bounds narrowing"),
        );
    });

    let key = MacKey::default_for_sim();
    // One pinned object keeps the block live, so malloc+free measures the
    // slot fast path rather than block churn.
    let alloc_subheap = per_call_ns(
        || {
            let mut mem = MemSystem::with_default_l1();
            let mut heap = SubheapAllocator::new(0x5000_0000, 26, key);
            heap.malloc(&mut mem, 40, 0).expect("pin");
            (mem, heap)
        },
        |(mem, heap), _| {
            let (p, _) = heap.malloc(mem, black_box(40), 0).expect("malloc");
            heap.free(mem, p.addr()).expect("free");
        },
    );
    let alloc_wrapped = per_call_ns(
        || {
            let mut mem = MemSystem::with_default_l1();
            let gt = GlobalTableManager::new(0x2000_0000);
            gt.map(&mut mem);
            (mem, gt, WrappedAllocator::new(0x4000_0000, 1 << 26, key))
        },
        |(mem, gt, heap), _| {
            let (p, _) = heap.malloc(mem, gt, black_box(40), 0).expect("malloc");
            heap.free(mem, gt, p.addr()).expect("free");
        },
    );

    // 256 live 48-byte regions, checked with their own keys.
    let temporal_check = per_call_ns(
        || {
            let mut t = TemporalState::new(TemporalPolicy::KeyCheck);
            let keys: Vec<u64> = (0..256u64)
                .map(|i| t.on_alloc(0x1000 + i * 64, 48))
                .collect();
            (t, keys)
        },
        |(t, keys), i| {
            let r = i & 255;
            black_box(t.check(0x1000 + r as u64 * 64 + 8, Some(keys[r])));
        },
    );
    // Fresh addresses each call: an allocator never hands out memory that
    // is still quarantined.
    let temporal_free = per_call_ns(
        || TemporalState::new(TemporalPolicy::Quarantine),
        |t, i| {
            let base = 0x1000 + i as u64 * 64;
            t.on_alloc(base, 48);
            black_box(t.on_free(base));
        },
    );

    Kernels {
        l1_access,
        read_uint,
        promote_local_offset,
        promote_subheap,
        promote_global_table,
        narrow,
        alloc_subheap,
        alloc_wrapped,
        temporal_check,
        temporal_free,
    }
}
