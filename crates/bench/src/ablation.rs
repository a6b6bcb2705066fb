//! Ablations over the design parameters the paper calls out (§6: "the
//! design parameter selection ... will benefit from a better knowledge of
//! application behaviors"; §5.2.4: cache-size sensitivity).

use ifp_mem::CacheConfig;
use ifp_vm::{run, Mode, VmConfig};

/// The local offset scheme's tag-bit split design space: `offset_bits +
/// index_bits = 12`. More offset bits mean larger objects; more index
/// bits mean more addressable subobjects (paper §3.3.1).
#[must_use]
pub fn tag_split_table() -> String {
    let mut out = String::from(
        "Ablation: local-offset tag-bit split (offset + subobject index = 12 bits)\n\
         | Offset bits | Max object (16 B granule) | Max layout entries |\n\
         |---|---|---|\n",
    );
    for offset_bits in 3u32..=9 {
        let index_bits = 12 - offset_bits;
        let max_obj = ((1u64 << offset_bits) - 1) * 16;
        let marker = if offset_bits == 6 {
            "  <- prototype"
        } else {
            ""
        };
        out.push_str(&format!(
            "| {offset_bits} | {max_obj} B | {}{marker} |\n",
            1u64 << index_bits
        ));
    }
    out
}

/// The granule-size trade-off: a larger granule covers larger objects
/// with the same offset bits but wastes more padding per object. The
/// waste column is measured against the allocation-size mix of the given
/// samples (object sizes in bytes).
#[must_use]
pub fn granule_table(sample_sizes: &[u64]) -> String {
    let mut out = String::from(
        "Ablation: local-offset granule size (6 offset bits)\n\
         | Granule | Max object | Mean padding over sampled sizes |\n\
         |---|---|---|\n",
    );
    for granule in [8u64, 16, 32, 64] {
        let max_obj = 63 * granule;
        let waste: u64 = sample_sizes
            .iter()
            .map(|&s| s.div_ceil(granule) * granule - s)
            .sum();
        let mean = waste as f64 / sample_sizes.len().max(1) as f64;
        let marker = if granule == 16 { "  <- prototype" } else { "" };
        out.push_str(&format!(
            "| {granule} B | {max_obj} B | {mean:.1} B/object{marker} |\n"
        ));
    }
    out
}

/// Empirical cache-size sweep on `health`. The wrapped allocator's
/// per-object metadata roughly doubles the metadata working set, so its
/// miss increase *peaks* at the cache size where the baseline just fits
/// but baseline+metadata does not, then collapses once the cache holds
/// everything — the §5.2.4 prediction that an ASIC with larger caches is
/// hurt less by metadata traffic. The subheap scheme's shared records
/// stay flat throughout.
///
/// Runs on up to `workers` threads — one ticket per L1 size, rows
/// assembled in size order, so the table is identical for any worker
/// count.
#[must_use]
pub fn cache_sweep(workers: usize) -> String {
    let program = ifp_workloads::olden::health::build(4);
    let sizes = [
        ("2 KiB", 32usize),
        ("4 KiB", 64),
        ("8 KiB", 128),
        ("16 KiB", 256),
        ("32 KiB", 512),
        ("64 KiB", 1024),
        ("128 KiB", 2048),
    ];
    let rows = ifp_testutil::par_map(&sizes, workers, |&(label, sets)| {
        let l1 = CacheConfig {
            line_size: 16,
            sets,
            ways: 4,
        };
        let misses = |mode: Mode| {
            let mut cfg = VmConfig::with_mode(mode);
            cfg.l1 = l1;
            run(&program, &cfg).expect("health runs").stats.l1.misses
        };
        let base = misses(Mode::Baseline).max(1) as f64;
        let sub = misses(Mode::instrumented(ifp_vm::AllocatorKind::Subheap)) as f64 / base - 1.0;
        let wrp = misses(Mode::instrumented(ifp_vm::AllocatorKind::Wrapped)) as f64 / base - 1.0;
        format!(
            "| {label} | {:+.1}% | {:+.1}% | {:.1} pts |\n",
            sub * 100.0,
            wrp * 100.0,
            (wrp - sub) * 100.0
        )
    });
    let mut out = String::from(
        "Ablation: L1 size sweep on health (miss-count increase vs baseline)\n\
         | L1 size | Subheap | Wrapped | Gap |\n\
         |---|---|---|---|\n",
    );
    for row in rows {
        out.push_str(&row);
    }
    out
}

/// Collects a realistic allocation-size sample from the treeadd/health/
/// em3d object mix (structurally: node sizes the workloads allocate).
#[must_use]
pub fn workload_size_sample() -> Vec<u64> {
    // Node sizes across the suite: tree nodes, list cells, graph nodes,
    // patients, hash entries, edges, bignum limbs...
    vec![
        24, 24, 24, 24, 32, 32, 40, 40, 40, 48, 16, 16, 16, 64, 24, 56, 88, 112, 20, 28,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_split_marks_the_prototype_point() {
        let t = tag_split_table();
        assert!(t.contains("| 6 | 1008 B | 64  <- prototype |"));
    }

    #[test]
    fn granule_waste_grows_with_granule() {
        let sizes = workload_size_sample();
        let t = granule_table(&sizes);
        assert!(t.contains("16 B | 1008 B"));
        // Extract the means and check monotonicity.
        let means: Vec<f64> = t
            .lines()
            .filter(|l| l.contains("B/object"))
            .map(|l| {
                l.split('|')
                    .nth(3)
                    .unwrap()
                    .trim()
                    .split(' ')
                    .next()
                    .unwrap()
                    .parse::<f64>()
                    .unwrap()
            })
            .collect();
        assert_eq!(means.len(), 4);
        assert!(means.windows(2).all(|w| w[0] <= w[1]), "{means:?}");
    }

    #[test]
    fn cache_sweep_gap_peaks_then_collapses() {
        let t = cache_sweep(1);
        let gaps: Vec<f64> = t
            .lines()
            .filter(|l| l.contains("pts"))
            .map(|l| {
                l.split('|')
                    .nth(4)
                    .unwrap()
                    .trim()
                    .split(' ')
                    .next()
                    .unwrap()
                    .parse::<f64>()
                    .unwrap()
            })
            .collect();
        assert_eq!(gaps.len(), 7);
        let peak = gaps.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            *gaps.last().unwrap() < peak / 2.0,
            "metadata thrashing should collapse once everything fits: {gaps:?}"
        );
    }
}
