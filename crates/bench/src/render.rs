//! Text rendering for the regenerated tables and figures.

use ifp::eval::{geomean_overhead, ModeSweep};
use ifp::taxonomy;
use ifp_hw::area::AreaModel;
use ifp_vm::RunStats;

fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

fn sci(x: u64) -> String {
    if x >= 1_000_000 {
        format!(
            "{:.2}e{}",
            x as f64 / 10f64.powi((x as f64).log10() as i32),
            (x as f64).log10() as i32
        )
    } else {
        x.to_string()
    }
}

/// Renders Table 1 (defense taxonomy).
#[must_use]
pub fn table1() -> String {
    let mut out = String::from(
        "Table 1: Comparison between In-Fat Pointer and related work\n\
         | Defense | Tagged ptr | Metadata subject | Granularity | Compat loss | Required feature |\n\
         |---|---|---|---|---|---|\n",
    );
    for r in taxonomy::table1() {
        out.push_str(&format!(
            "| {} | {} | {:?} | {:?} | {:?} | {:?} |\n",
            r.name,
            if r.tagged_pointer { "yes" } else { "-" },
            r.subject,
            r.granularity,
            r.compat_loss,
            r.required
        ));
    }
    out
}

/// Renders Table 2 (object metadata schemes).
#[must_use]
pub fn table2() -> String {
    let mut out = String::from(
        "Table 2: Object metadata schemes comparison\n\
         | Scheme | Constrains base | Max object size | Max objects | Use scenario |\n\
         |---|---|---|---|---|\n",
    );
    for r in taxonomy::table2() {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.name,
            if r.constrains_base { "B" } else { "-" },
            r.max_object_size
                .map_or("-".to_string(), |v| format!("{v} B")),
            r.max_objects.map_or("-".to_string(), |v| v.to_string()),
            r.use_scenario
        ));
    }
    out
}

/// Renders Table 3 (core instructions).
#[must_use]
pub fn table3() -> String {
    let mut out = String::from(
        "Table 3: Core instructions from In-Fat Pointer\n\
         | Mnemonic | Description | Unit | Class |\n\
         |---|---|---|---|\n",
    );
    for i in taxonomy::table3() {
        out.push_str(&format!(
            "| {}{} | {} | {} | {} |\n",
            i.mnemonic(),
            if i.has_variants() { "*" } else { "" },
            i.description(),
            if i.uses_ifp_unit() {
                "IFP unit"
            } else {
                "ALU/LSU"
            },
            i.class()
        ));
    }
    out.push_str("(* multiple variants exist)\n");
    out
}

/// Renders Table 4 (dynamic event counts) from the sweeps.
#[must_use]
pub fn table4(sweeps: &[ModeSweep]) -> String {
    let mut out = String::from(
        "Table 4: Dynamic event counts (subheap-version object statistics)\n\
         | Benchmark | Globals (%LT) | Locals (%LT) | Heap objs (%LT) | Valid promote (% of total) | Base instrs | Subheap | Wrapped |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for s in sweeps {
        let st = &s.subheap;
        let fmt_obj = |o: &ifp_vm::ObjectStats| {
            if o.objects == 0 {
                "0".to_string()
            } else if o.with_layout_table == 0 {
                sci(o.objects)
            } else {
                format!("{} ({:.0}%)", sci(o.objects), o.lt_percent())
            }
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} ({:.0}%) | {} | {:.2}x | {:.2}x |\n",
            s.name,
            fmt_obj(&st.global_objects),
            fmt_obj(&st.stack_objects),
            fmt_obj(&st.heap_objects),
            sci(st.promotes.valid),
            st.promotes.valid_ratio() * 100.0,
            sci(s.baseline.total_instrs()),
            s.instr_ratio(&s.subheap),
            s.instr_ratio(&s.wrapped),
        ));
    }
    out
}

/// Renders Figure 10 (runtime overhead) as a table of percentages.
#[must_use]
pub fn fig10(sweeps: &[ModeSweep]) -> String {
    let mut out = String::from(
        "Figure 10: Performance overhead of all benchmarks\n\
         | Benchmark | Subheap | Wrapped | Subheap (no promote) | Wrapped (no promote) |\n\
         |---|---|---|---|---|\n",
    );
    let mut cols: [Vec<f64>; 4] = Default::default();
    for s in sweeps {
        let vals = [
            s.runtime_overhead(&s.subheap),
            s.runtime_overhead(&s.wrapped),
            s.runtime_overhead(&s.subheap_nopromote),
            s.runtime_overhead(&s.wrapped_nopromote),
        ];
        for (c, v) in cols.iter_mut().zip(vals) {
            c.push(v);
        }
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            s.name,
            pct(vals[0]),
            pct(vals[1]),
            pct(vals[2]),
            pct(vals[3])
        ));
    }
    out.push_str(&format!(
        "| geo-mean | {} | {} | {} | {} |\n",
        pct(geomean_overhead(&cols[0])),
        pct(geomean_overhead(&cols[1])),
        pct(geomean_overhead(&cols[2])),
        pct(geomean_overhead(&cols[3])),
    ));
    out
}

/// Renders Figure 11 (new-instruction breakdown, % of baseline instrs).
#[must_use]
pub fn fig11(sweeps: &[ModeSweep]) -> String {
    let mut out = String::from(
        "Figure 11: Dynamic instruction counts for In-Fat Pointer instructions\n\
         (subheap configuration, as % of baseline instructions)\n\
         | Benchmark | Promote | IFP arithmetic | Bounds ld/st | Total |\n\
         |---|---|---|---|---|\n",
    );
    for s in sweeps {
        let b = s.instr_breakdown(&s.subheap);
        out.push_str(&format!(
            "| {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |\n",
            s.name,
            b.promote * 100.0,
            b.arithmetic * 100.0,
            b.bounds_ls * 100.0,
            b.total() * 100.0
        ));
    }
    out
}

/// Renders Figure 12 (memory overhead). Benchmarks with tiny footprints
/// are excluded like the paper's three sub-6MB programs.
#[must_use]
pub fn fig12(sweeps: &[ModeSweep], min_footprint: u64) -> String {
    let mut out = String::from(
        "Figure 12: Memory overhead of applicable benchmarks (heap footprint)\n\
         | Benchmark | Subheap | Wrapped |\n\
         |---|---|---|\n",
    );
    let mut sub = Vec::new();
    let mut wrp = Vec::new();
    let mut excluded = Vec::new();
    for s in sweeps {
        if s.baseline.heap_footprint_peak < min_footprint {
            excluded.push(s.name.clone());
            continue;
        }
        let so = s.memory_overhead(&s.subheap);
        let wo = s.memory_overhead(&s.wrapped);
        sub.push(so);
        wrp.push(wo);
        out.push_str(&format!("| {} | {} | {} |\n", s.name, pct(so), pct(wo)));
    }
    out.push_str(&format!(
        "| geo-mean | {} | {} |\n",
        pct(geomean_overhead(&sub)),
        pct(geomean_overhead(&wrp))
    ));
    if !excluded.is_empty() {
        out.push_str(&format!(
            "(excluded, footprint below threshold: {})\n",
            excluded.join(", ")
        ));
    }
    out
}

/// Renders Figure 13 (LUT increase decomposition).
#[must_use]
pub fn fig13() -> String {
    let m = AreaModel::prototype();
    let mut out = String::from(
        "Figure 13: LUT increase in the modified processor\n\
         | Module | Stage | Vanilla LUTs | Growth | Share of increase |\n\
         |---|---|---|---|---|\n",
    );
    let total_growth = m.growth_luts() as f64;
    for module in m.modules() {
        out.push_str(&format!(
            "| {} | {} | {} | +{} | {:.0}% |\n",
            module.name,
            module.stage,
            module.vanilla_luts,
            module.growth_luts,
            module.growth_luts as f64 / total_growth * 100.0
        ));
    }
    out.push_str(&format!(
        "| TOTAL |  | {} | +{} | ({} -> {} LUTs, {:+.0}%) |\n",
        m.vanilla_luts(),
        m.growth_luts(),
        m.vanilla_luts(),
        m.total_luts(),
        m.lut_increase_ratio() * 100.0
    ));
    for (stage, share) in m.growth_share_by_stage() {
        out.push_str(&format!(
            "  {stage} stage share of increase: {:.0}%\n",
            share * 100.0
        ));
    }
    let u = m.ifp_unit();
    out.push_str(&format!(
        "  IFP unit internals: layout walker {} LUTs ({:.0}%), schemes {} LUTs ({:.0}%)\n",
        u.layout_walker,
        u.layout_walker as f64 / u.total() as f64 * 100.0,
        u.schemes_total(),
        u.schemes_total() as f64 / u.total() as f64 * 100.0
    ));
    out.push_str(&format!(
        "  Ablations: no layout walker -> {} LUTs; no bounds registers -> {} LUTs ({:+.0}%)\n",
        m.without_layout_walker().total_luts(),
        m.without_bounds_registers().total_luts(),
        m.without_bounds_registers().lut_increase_ratio() * 100.0
    ));
    out
}

/// Renders the §5.2.2 cache analysis for the named workloads.
#[must_use]
pub fn cache_analysis(sweeps: &[ModeSweep], names: &[&str]) -> String {
    let mut out = String::from(
        "Cache behaviour (the §5.2.2 analysis)\n\
         | Benchmark | Baseline miss ratio | Subheap miss increase | Wrapped miss increase |\n\
         |---|---|---|---|\n",
    );
    let inc = |base: &RunStats, other: &RunStats| {
        if base.l1.misses == 0 {
            0.0
        } else {
            other.l1.misses as f64 / base.l1.misses as f64 - 1.0
        }
    };
    for s in sweeps.iter().filter(|s| names.contains(&s.name.as_str())) {
        out.push_str(&format!(
            "| {} | {:.3} | {} | {} |\n",
            s.name,
            s.baseline.l1.miss_ratio(),
            pct(inc(&s.baseline, &s.subheap)),
            pct(inc(&s.baseline, &s.wrapped))
        ));
    }
    out
}

/// Serializes the sweeps as a JSON document (hand-rolled writer — the
/// data is flat numbers, no serializer dependency needed). The schema is
/// stable: one object per workload with one sub-object per configuration.
#[must_use]
pub fn json(sweeps: &[ModeSweep]) -> String {
    fn stats(s: &RunStats) -> String {
        format!(
            "{{\"instructions\": {}, \"cycles\": {}, \"promotes\": {}, \"valid_promotes\": {}, \
             \"ifp_arith\": {}, \"bounds_ls\": {}, \"l1_misses\": {}, \"heap_peak\": {}, \
             \"narrow_ok\": {}, \"narrow_coarsened\": {}}}",
            s.total_instrs(),
            s.cycles,
            s.promotes.total,
            s.promotes.valid,
            s.ifp_arith_instrs,
            s.bounds_ls_instrs,
            s.l1.misses,
            s.heap_footprint_peak,
            s.promotes.narrow_succeeded,
            s.promotes.narrow_coarsened,
        )
    }
    let mut out = String::from("[\n");
    for (i, s) in sweeps.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"baseline\": {}, \"subheap\": {}, \"wrapped\": {}, \
             \"subheap_nopromote\": {}, \"wrapped_nopromote\": {}}}{}\n",
            s.name,
            stats(&s.baseline),
            stats(&s.subheap),
            stats(&s.wrapped),
            stats(&s.subheap_nopromote),
            stats(&s.wrapped_nopromote),
            if i + 1 == sweeps.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render_the_key_rows() {
        assert!(table1().contains("| In-Fat Pointer | yes | Object | Subobject | None | None |"));
        assert!(table2().contains("| Local Offset Scheme | - | 1008 B |"));
        assert!(table3().contains("| promote | pointer bounds retrieval | IFP unit |"));
        assert!(fig13().contains("37088 -> 59261"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let w = ifp_workloads::by_name("treeadd").unwrap();
        let sweep =
            ifp::eval::ModeSweep::run("treeadd", &(w.build)(5), ifp_vm::ExecTier::Interp, None)
                .unwrap();
        let doc = json(&[sweep]);
        assert!(doc.starts_with('['));
        assert!(doc.ends_with(']'));
        assert_eq!(doc.matches("\"name\"").count(), 1);
        assert_eq!(doc.matches("\"cycles\"").count(), 5);
        // Balanced braces.
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
    }
}
