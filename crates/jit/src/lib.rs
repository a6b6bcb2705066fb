//! Superinstruction fusion for the raw-speed execution tier.
//!
//! The tier-1 interpreter's fidelity lives in its *modeled* statistics;
//! its host speed is an implementation detail. This crate holds the
//! model-independent half of the second execution tier: a fusion pass
//! that classifies every block of the (already validated) mini-IR into
//! **segments** the VM's fused executor dispatches as single
//! superinstructions —
//!
//! * **arith runs**: maximal sequences of `Bin`/`Mov` ops, which are
//!   infallible and charge one base instruction each, so the executor
//!   can charge the whole run with two additions and execute the data
//!   operations back-to-back without re-entering the dispatch loop;
//! * **GEP+access pairs**: a `Gep` immediately consumed as the address
//!   of the next `Load`/`Store` — the chain the analyze pass classifies
//!   and (when proven) elides, so the pair executes as one fused op
//!   whose check variant is keyed off the [`ElisionPlan`]'s flags on
//!   the decoded stream;
//! * **singles**: everything else (allocation, calls, externals), which
//!   the executor routes to the interpreter's own handlers.
//!
//! The pass is purely syntactic over the program — it never looks at
//! dynamic state — so a [`FusionPlan`] is computed once per run setup
//! and shared with the stats-reconciliation layer in `ifp-vm`, which
//! guarantees the modeled `RunStats` stay bit-identical to tier 1.
//!
//! [`ElisionPlan`]: ifp_compiler::ElisionPlan

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ifp_compiler::ir::{Op, Operand, Program};
use ifp_compiler::InstrPlan;

/// Which executor the VM drives the run with.
///
/// Both tiers produce bit-identical [`RunStats`]; the jit tier is only
/// allowed to be *faster on the host*, never different. The golden
/// suite and the fuzz oracle's config table enforce that contract.
///
/// [`RunStats`]: https://docs.rs/ifp-vm
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// Tier 1: the pre-decoded reference interpreter.
    #[default]
    Interp,
    /// Tier 2: superinstruction-fused direct-threaded executor.
    Jit,
}

impl ExecTier {
    /// Stable CLI name (`interp` / `jit`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::Jit => "jit",
        }
    }

    /// Parses a stable CLI name back into a tier.
    #[must_use]
    pub fn from_name(s: &str) -> Option<ExecTier> {
        match s {
            "interp" => Some(ExecTier::Interp),
            "jit" => Some(ExecTier::Jit),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fused segment of a block's op list. Offsets index the block's
/// `ops` vector; segments tile the list exactly (every op belongs to
/// one segment, and fusion never crosses a block boundary, so branch
/// targets stay segment-aligned).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seg {
    /// `ops[start .. start + len]` are all `Bin`/`Mov`: one batched
    /// superinstruction (`len >= 1`).
    ArithRun {
        /// First op of the run.
        start: u32,
        /// Number of ops in the run.
        len: u32,
    },
    /// `ops[at]` is a `Gep` whose destination register is the pointer
    /// operand of `ops[at + 1]`, a `Load`.
    GepLoad {
        /// Offset of the `Gep`.
        at: u32,
    },
    /// `ops[at]` is a `Gep` whose destination register is the pointer
    /// operand of `ops[at + 1]`, a `Store`.
    GepStore {
        /// Offset of the `Gep`.
        at: u32,
    },
    /// An unfused op (still dispatch-specialized by the executor when
    /// it is a lone `Gep`, `Load`, or `Store`).
    Single {
        /// Offset of the op.
        at: u32,
    },
}

/// Fusion segments for one block.
#[derive(Clone, Debug, Default)]
pub struct BlockFusion {
    /// Segments in op order, tiling the block's op list.
    pub segs: Vec<Seg>,
}

/// Fusion segments for one function, indexed like its block list.
#[derive(Clone, Debug, Default)]
pub struct FuncFusion {
    /// Per-block segment lists.
    pub blocks: Vec<BlockFusion>,
}

/// The whole-program fusion classification the VM's fused executor
/// compiles its threaded streams from.
#[derive(Clone, Debug, Default)]
pub struct FusionPlan {
    /// Per-function fusion, indexed like `program.funcs`.
    pub funcs: Vec<FuncFusion>,
}

/// Static (per-program, not per-run) fusion coverage, for reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticCoverage {
    /// Total op slots in the program (terminators excluded).
    pub total_ops: u64,
    /// Ops inside arith runs.
    pub arith_ops: u64,
    /// Ops inside GEP+load/store pairs (two per pair).
    pub pair_ops: u64,
    /// Unfused ops.
    pub single_ops: u64,
    /// Of the pairs, how many have their GEP's tag update statically
    /// elided (the analyze handoff: proven accesses compile to the
    /// bare-address variant with poison-only guard).
    pub elided_pairs: u64,
}

impl StaticCoverage {
    /// Fraction of op slots covered by a fused segment, in percent.
    #[must_use]
    pub fn fused_percent(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            100.0 * (self.arith_ops + self.pair_ops) as f64 / self.total_ops as f64
        }
    }
}

/// Dynamic dispatch counters from one fused-tier run: how the executor
/// actually spent its dispatches. Deliberately **not** part of
/// `RunStats` — these describe the host executor, not the modeled
/// machine, and must not perturb golden-pinned output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Ops executed inside batched arith runs.
    pub arith_ops: u64,
    /// Arith-run superinstruction dispatches.
    pub arith_runs: u64,
    /// GEP+load/store superinstruction dispatches (two ops each).
    pub pairs: u64,
    /// Dispatches of specialized lone `Gep`/`Load`/`Store` slots.
    pub specialized: u64,
    /// Ops routed to the interpreter's generic handlers.
    pub generic: u64,
    /// Terminator dispatches (jumps, branches, returns).
    pub terminators: u64,
}

impl FusionStats {
    /// Dynamic ops executed (terminators excluded), matching the
    /// interpreter's op count for the same run.
    #[must_use]
    pub fn dynamic_ops(&self) -> u64 {
        self.arith_ops + 2 * self.pairs + self.specialized + self.generic
    }

    /// Dynamic ops executed via a fused superinstruction.
    #[must_use]
    pub fn fused_ops(&self) -> u64 {
        self.arith_ops + 2 * self.pairs
    }

    /// Percentage of dynamic ops executed fused.
    #[must_use]
    pub fn fused_percent(&self) -> f64 {
        if self.dynamic_ops() == 0 {
            0.0
        } else {
            100.0 * self.fused_ops() as f64 / self.dynamic_ops() as f64
        }
    }
}

fn is_arith(op: &Op) -> bool {
    matches!(op, Op::Bin { .. } | Op::Mov { .. })
}

/// The pointer operand of a memory access, when it is a register.
fn access_ptr_reg(op: &Op) -> Option<u32> {
    match op {
        Op::Load {
            ptr: Operand::Reg(r),
            ..
        }
        | Op::Store {
            ptr: Operand::Reg(r),
            ..
        } => Some(r.0),
        _ => None,
    }
}

/// Classifies every block of `program` into fused segments.
///
/// The rules are deliberately local (no cross-block or cross-op-reorder
/// fusion), so the fused stream's observable op order — and therefore
/// every charge, counter, trace event, and trap point — is exactly the
/// interpreter's:
///
/// 1. maximal `Bin`/`Mov` runs become [`Seg::ArithRun`];
/// 2. a `Gep` immediately followed by a `Load`/`Store` whose pointer
///    operand is the GEP's destination register becomes
///    [`Seg::GepLoad`]/[`Seg::GepStore`];
/// 3. everything else is a [`Seg::Single`].
pub fn fuse(program: &Program) -> FusionPlan {
    let mut funcs = Vec::with_capacity(program.funcs.len());
    for f in &program.funcs {
        let mut blocks = Vec::with_capacity(f.blocks.len());
        for b in &f.blocks {
            let ops = &b.ops;
            let mut segs = Vec::new();
            let mut i = 0usize;
            while i < ops.len() {
                if is_arith(&ops[i]) {
                    let start = i;
                    while i < ops.len() && is_arith(&ops[i]) {
                        i += 1;
                    }
                    segs.push(Seg::ArithRun {
                        start: start as u32,
                        len: (i - start) as u32,
                    });
                    continue;
                }
                if let Op::Gep { dst, .. } = &ops[i] {
                    if i + 1 < ops.len() && access_ptr_reg(&ops[i + 1]) == Some(dst.0) {
                        segs.push(match &ops[i + 1] {
                            Op::Load { .. } => Seg::GepLoad { at: i as u32 },
                            _ => Seg::GepStore { at: i as u32 },
                        });
                        i += 2;
                        continue;
                    }
                }
                segs.push(Seg::Single { at: i as u32 });
                i += 1;
            }
            blocks.push(BlockFusion { segs });
        }
        funcs.push(FuncFusion { blocks });
    }
    FusionPlan { funcs }
}

impl FusionPlan {
    /// Static coverage of `program` under this plan. When `plan` (the
    /// instrumentation plan produced by the analyze handoff) is given,
    /// pairs whose GEP tag update is statically elided are counted as
    /// elision-specialized.
    #[must_use]
    pub fn coverage(&self, program: &Program, plan: Option<&InstrPlan>) -> StaticCoverage {
        let mut c = StaticCoverage::default();
        for (fi, ff) in self.funcs.iter().enumerate() {
            for (bi, bf) in ff.blocks.iter().enumerate() {
                for seg in &bf.segs {
                    match *seg {
                        Seg::ArithRun { len, .. } => c.arith_ops += u64::from(len),
                        Seg::GepLoad { at } | Seg::GepStore { at } => {
                            c.pair_ops += 2;
                            if plan.is_some_and(|p| p.elide_flags(fi, bi, at as usize).tag_update) {
                                c.elided_pairs += 1;
                            }
                        }
                        Seg::Single { .. } => c.single_ops += 1,
                    }
                }
            }
        }
        c.total_ops = program
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.ops.len() as u64)
            .sum();
        c
    }
}

/// Fuses `program` with the instrumentation plan the analyze pipeline
/// would hand the VM for this configuration, returning the plan and the
/// static coverage in one call — the entry point reports use.
#[must_use]
pub fn fuse_with_coverage(
    program: &Program,
    instrumented: bool,
    elide: bool,
) -> (FusionPlan, StaticCoverage) {
    let plan = fuse(program);
    let instr = instrumented.then(|| ifp_analyze::instr_plan(program, elide));
    let coverage = plan.coverage(program, instr.as_ref());
    (plan, coverage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip() {
        for t in [ExecTier::Interp, ExecTier::Jit] {
            assert_eq!(ExecTier::from_name(t.name()), Some(t));
        }
        assert_eq!(ExecTier::from_name("native"), None);
        assert_eq!(ExecTier::default(), ExecTier::Interp);
    }

    #[test]
    fn segments_tile_every_block_in_order() {
        for w in ifp_workloads::all() {
            let program = w.build_default();
            let plan = fuse(&program);
            assert_eq!(plan.funcs.len(), program.funcs.len(), "{}", w.name);
            for (f, ff) in program.funcs.iter().zip(&plan.funcs) {
                assert_eq!(f.blocks.len(), ff.blocks.len());
                for (b, bf) in f.blocks.iter().zip(&ff.blocks) {
                    let mut next = 0u32;
                    for seg in &bf.segs {
                        let (start, len) = match *seg {
                            Seg::ArithRun { start, len } => (start, len),
                            Seg::GepLoad { at } | Seg::GepStore { at } => (at, 2),
                            Seg::Single { at } => (at, 1),
                        };
                        assert_eq!(start, next, "{}: segment gap or overlap", w.name);
                        assert!(len >= 1);
                        next = start + len;
                    }
                    assert_eq!(next as usize, b.ops.len(), "{}: block not tiled", w.name);
                }
            }
        }
    }

    #[test]
    fn segment_kinds_match_the_ops_they_cover() {
        for w in ifp_workloads::all() {
            let program = w.build_default();
            let plan = fuse(&program);
            for (f, ff) in program.funcs.iter().zip(&plan.funcs) {
                for (b, bf) in f.blocks.iter().zip(&ff.blocks) {
                    for seg in &bf.segs {
                        match *seg {
                            Seg::ArithRun { start, len } => {
                                for i in start..start + len {
                                    assert!(is_arith(&b.ops[i as usize]));
                                }
                            }
                            Seg::GepLoad { at } => {
                                let Op::Gep { dst, .. } = &b.ops[at as usize] else {
                                    panic!("pair head must be a Gep");
                                };
                                assert!(matches!(b.ops[at as usize + 1], Op::Load { .. }));
                                assert_eq!(access_ptr_reg(&b.ops[at as usize + 1]), Some(dst.0));
                            }
                            Seg::GepStore { at } => {
                                let Op::Gep { dst, .. } = &b.ops[at as usize] else {
                                    panic!("pair head must be a Gep");
                                };
                                assert!(matches!(b.ops[at as usize + 1], Op::Store { .. }));
                                assert_eq!(access_ptr_reg(&b.ops[at as usize + 1]), Some(dst.0));
                            }
                            Seg::Single { .. } => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn workloads_have_meaningful_static_coverage() {
        // The pass must actually find fusion opportunities in the real
        // workload family, or the tier is dispatch theater.
        let mut total = StaticCoverage::default();
        for w in ifp_workloads::all() {
            let program = w.build_default();
            let (_, c) = fuse_with_coverage(&program, true, false);
            total.total_ops += c.total_ops;
            total.arith_ops += c.arith_ops;
            total.pair_ops += c.pair_ops;
            total.single_ops += c.single_ops;
        }
        assert_eq!(
            total.total_ops,
            total.arith_ops + total.pair_ops + total.single_ops
        );
        assert!(
            total.fused_percent() > 30.0,
            "static fusion coverage collapsed: {:.1}%",
            total.fused_percent()
        );
    }

    #[test]
    fn elision_handoff_marks_proven_pairs() {
        // Under the elision plan at least one workload must yield
        // elision-specialized pairs, proving the analyze -> jit handoff
        // carries through.
        let elided: u64 = ifp_workloads::all()
            .iter()
            .map(|w| {
                let program = w.build_default();
                fuse_with_coverage(&program, true, true).1.elided_pairs
            })
            .sum();
        assert!(elided > 0, "no elision-specialized pairs found");
    }
}
