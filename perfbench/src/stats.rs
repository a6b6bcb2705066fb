//! Small numeric and hashing helpers shared by the workloads.

use ifp_testutil::Rng;
use ifp_vm::RunStats;
use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; 0.0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `values`: the best-of-N host time of one piece of
/// work. On a shared host, interference from other tenants only ever adds
/// time, so the fastest repeat is the steadiest estimate of its cost.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `num / den`, or 0.0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Fisher–Yates shuffle driven by the benchmark seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i + 1));
    }
}

/// FNV-1a, 64-bit: the digest behind every pinned correctness value.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Every modeled counter of `s`, field by field. Spelled out rather
    /// than hashed through `Debug` so that renaming a stats type cannot
    /// move a pinned digest.
    pub fn stats(&mut self, s: &RunStats) {
        let p = &s.promotes;
        let t = &s.temporal;
        let e = &s.elision;
        for v in [
            s.base_instrs,
            s.promote_instrs,
            s.ifp_arith_instrs,
            s.bounds_ls_instrs,
            s.cycles,
            p.total,
            p.valid,
            p.null_bypass,
            p.legacy_bypass,
            p.poisoned_input,
            p.narrow_requested,
            p.narrow_succeeded,
            p.narrow_coarsened,
            p.narrow_failed,
            s.stack_objects.objects,
            s.stack_objects.with_layout_table,
            s.heap_objects.objects,
            s.heap_objects.with_layout_table,
            s.global_objects.objects,
            s.global_objects.with_layout_table,
            s.l1.hits,
            s.l1.misses,
            s.l1.writebacks,
            s.peak_resident,
            s.heap_footprint_peak,
            s.calls,
            s.heap_allocs,
            s.heap_frees,
            t.stamped,
            t.revoked,
            t.quarantined,
            t.drained,
            t.checks,
            t.violations,
            e.checks_total,
            e.checks_elided,
            e.geps_elided,
            e.arith_elided,
            e.promotes_elided,
            e.summary_elided,
        ] {
            self.u64(v);
        }
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed integer kernel, independent of the simulator, timed right
/// before each measured unit to correct the unit's host time for
/// interference from other tenants of the host.
///
/// On a shared host the speed of a vCPU drifts by tens of percent within
/// seconds and between minutes. Dividing a unit's time by the reference
/// time taken just before it, and scaling by [`Reference::NOMINAL_S`],
/// expresses the unit's time at one fixed host speed. On the 2-vCPU build
/// host this narrowed `sweep_elide`'s run-to-run spread of `sim_mips` from
/// 21 % to 14 % of the median. It only suits units of milliseconds or
/// more: against microsecond units, the fastest-ratio pick rewards noise in
/// the reference instead.
pub struct Reference {
    table: Vec<u64>,
    last_s: f64,
}

impl Reference {
    /// The kernel's time on the uncontended build host. It only sets the
    /// scale of the corrected times.
    pub const NOMINAL_S: f64 = 1.85e-3;

    pub fn new() -> Reference {
        Reference {
            table: vec![0; 1 << 16],
            last_s: Self::NOMINAL_S,
        }
    }

    /// Random read-modify-writes over a 512 KiB table, with a data-driven
    /// branch each step: memory- and branch-bound, as the simulator is.
    fn kernel(&mut self) -> u64 {
        self.table.fill(0);
        let mut x = 1u64;
        let mut acc = 0u64;
        for _ in 0..200_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (x >> 48) as usize;
            match x >> 62 {
                0 => self.table[j] ^= acc,
                1 => acc = acc.wrapping_add(self.table[j]),
                2 => acc = acc.rotate_left(7) ^ self.table[j],
                _ => self.table[(j + 1) & 0xffff] = acc,
            }
        }
        acc
    }

    /// Times the kernel. Call it right before timing a unit.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(self.kernel());
        self.last_s = t0.elapsed().as_secs_f64();
    }

    /// `secs` of work, timed right after the last [`Reference::sample`],
    /// expressed at the nominal host speed.
    pub fn corrected(&self, secs: f64) -> f64 {
        secs * Self::NOMINAL_S / self.last_s
    }
}
