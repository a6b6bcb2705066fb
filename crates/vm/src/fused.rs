//! The superinstruction-fused executor (tier 2).
//!
//! `compile` lowers each function into a **threaded stream** of
//! [`FSlot`]s following the [`ifp_jit::FusionPlan`]: arith runs become
//! one slot holding a pre-lowered [`MicroOp`] batch, GEP+load/store
//! pairs become one slot holding both halves pre-resolved, and lone
//! GEPs/loads/stores become specialized slots with their type-table
//! facts (sizes, field offsets, element strides) baked in at compile
//! time. Everything else routes to the interpreter's own `exec_op`.
//!
//! **Stats reconciliation.** The executor never re-implements modeled
//! semantics: memory ops call the shared [`Vm::exec_load`] /
//! [`Vm::exec_store`] bodies, GEPs run a precomputed address walk that
//! is arithmetically identical to the interpreter's (const steps fold
//! under the low-48-bit address mask, which is exact because the mask
//! modulus divides 2^64) and then call the shared [`Vm::gep_apply`]
//! tail. Arith runs exploit two interpreter facts: `Bin`/`Mov` are
//! infallible and charge exactly one base instruction each, so a run of
//! `n` ops whose fuel window is clear charges `n` once and executes the
//! data operations straight-line; when the window is *not* clear the
//! slow path re-checks fuel per op, reproducing the interpreter's
//! out-of-fuel point exactly. Every charge, counter, trace event, and
//! trap coordinate is therefore bit-identical to tier 1 — enforced by
//! the golden suite and the fuzz oracle's config table, not argued.

use super::{eval_bin, Code, CompiledArtifact, Flow, FuncCode, Vm};
use crate::VmError;
use ifp_compiler::instrument::{ElideFlags, OpAction};
use ifp_compiler::ir::{BinOp, GepStep, Op, Operand, Program, Reg};
use ifp_compiler::types::Type;
use ifp_jit::{FusionPlan, FusionStats, Seg};
use ifp_tag::TaggedPtr;

/// A pre-lowered `Bin`/`Mov` with operand kinds resolved at compile
/// time (register/immediate splits, and immediate×immediate folded).
#[derive(Clone, Copy, Debug)]
enum MicroOp {
    /// `dst = a <op> b`, both registers.
    BinRR { op: BinOp, dst: u32, a: u32, b: u32 },
    /// `dst = a <op> imm`.
    BinRI { op: BinOp, dst: u32, a: u32, b: i64 },
    /// `dst = imm <op> b`.
    BinIR { op: BinOp, dst: u32, a: i64, b: u32 },
    /// Constant-folded result of an immediate×immediate `Bin` (also
    /// covers `Mov` from an immediate).
    ConstOut { dst: u32, val: u64 },
    /// Register-to-register `Mov` (copies value, bounds, and stamp).
    MovR { dst: u32, src: u32 },
}

/// One step of a precomputed GEP address walk. Runs of constant
/// `Field`/`Index` steps fold into a single `Const`; register indices
/// stay dynamic with their element stride pre-resolved.
#[derive(Clone, Copy, Debug)]
enum PStep {
    /// Advance by a compile-time delta. When the folded group contains
    /// `Field` steps, `field` is the delta (from the group's start) and
    /// size of the *last* one — the narrowing capture point.
    Const {
        total: u64,
        field: Option<(u64, u64)>,
    },
    /// `addr += reg * elem_size` (dynamic array index).
    Idx { o: Operand, elem_size: i64 },
}

/// A lone or pair-fused GEP with its walk precomputed.
#[derive(Clone, Debug)]
struct GepSpec {
    dst: Reg,
    base: Operand,
    base_cost: u64,
    new_index: Option<u16>,
    enters: bool,
    elide_tag: bool,
    psteps: Box<[PStep]>,
}

/// A lone or pair-fused load/store with its type facts precomputed.
#[derive(Clone, Copy, Debug)]
struct MemSpec {
    /// Destination register (loads only).
    dst: Reg,
    ptr: Operand,
    /// Stored value (stores only).
    val: Operand,
    size: u64,
    is_ptr: bool,
    promote: bool,
    demote: bool,
    elide: ElideFlags,
}

/// One slot of a function's fused stream. `Copy`, with the heavy
/// payloads (micro-op batches, specs) in side tables, so the dispatch
/// loop can lift a slot out of the stream without borrowing it across
/// the handler's `&mut self`.
#[derive(Clone, Copy, Debug)]
enum FSlot {
    /// A batched arith run (index into `runs`).
    Arith {
        run: u32,
    },
    /// A specialized lone GEP (index into `geps`).
    Gep {
        g: u32,
    },
    /// A specialized lone load (index into `mems`).
    Load {
        m: u32,
    },
    /// A specialized lone store (index into `mems`).
    Store {
        m: u32,
    },
    /// A fused GEP+load superinstruction.
    GepLoad {
        g: u32,
        m: u32,
    },
    /// A fused GEP+store superinstruction.
    GepStore {
        g: u32,
        m: u32,
    },
    /// Generic fallback: the interpreter's own handler. `op` indexes the
    /// decoded stream's owned ops table for the same function — the
    /// fused tier shares that table instead of duplicating it.
    Op {
        op: u32,
        action: OpAction,
        callee: u32,
        saves_bounds: bool,
        elide: ElideFlags,
    },
    Jmp {
        cost: u64,
        target: u32,
    },
    Br {
        cost: u64,
        cond: Operand,
        then_pc: u32,
        else_pc: u32,
    },
    Ret {
        cost: u64,
        val: Option<Operand>,
    },
}

/// One function's fused stream plus its side tables.
#[derive(Debug)]
pub(super) struct FusedFunc {
    code: Vec<FSlot>,
    runs: Vec<Box<[MicroOp]>>,
    geps: Vec<GepSpec>,
    mems: Vec<MemSpec>,
}

/// The whole program, fused. Owned — no borrow of the program or the
/// VM — so it lives inside a cached [`CompiledArtifact`] and the
/// dispatch loop can hold it alongside `&mut Vm`.
#[derive(Debug)]
pub(super) struct FusedProgram {
    funcs: Vec<FusedFunc>,
}

impl FusedProgram {
    /// Approximate heap footprint, for cache byte budgets.
    pub(super) fn approx_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for f in &self.funcs {
            bytes += f.code.len() * std::mem::size_of::<FSlot>();
            bytes += f
                .runs
                .iter()
                .map(|r| r.len() * std::mem::size_of::<MicroOp>())
                .sum::<usize>();
            bytes += f
                .geps
                .iter()
                .map(|g| {
                    std::mem::size_of::<GepSpec>() + g.psteps.len() * std::mem::size_of::<PStep>()
                })
                .sum::<usize>();
            bytes += f.mems.len() * std::mem::size_of::<MemSpec>();
        }
        bytes
    }
}

fn micro_of(op: &Op) -> MicroOp {
    match op {
        Op::Bin { dst, op, a, b } => match (a, b) {
            (Operand::Reg(ra), Operand::Reg(rb)) => MicroOp::BinRR {
                op: *op,
                dst: dst.0,
                a: ra.0,
                b: rb.0,
            },
            (Operand::Reg(ra), Operand::Imm(ib)) => MicroOp::BinRI {
                op: *op,
                dst: dst.0,
                a: ra.0,
                b: *ib,
            },
            (Operand::Imm(ia), Operand::Reg(rb)) => MicroOp::BinIR {
                op: *op,
                dst: dst.0,
                a: *ia,
                b: rb.0,
            },
            (Operand::Imm(ia), Operand::Imm(ib)) => MicroOp::ConstOut {
                dst: dst.0,
                val: eval_bin(*op, *ia, *ib).expect("eval_bin is infallible") as u64,
            },
        },
        Op::Mov { dst, a } => match a {
            Operand::Reg(src) => MicroOp::MovR {
                dst: dst.0,
                src: src.0,
            },
            Operand::Imm(v) => MicroOp::ConstOut {
                dst: dst.0,
                val: *v as u64,
            },
        },
        _ => unreachable!("arith runs contain only Bin/Mov"),
    }
}

/// Precomputes a GEP's address walk, folding constant step groups. The
/// type transitions mirror the interpreter's walk exactly.
fn build_psteps(
    program: &Program,
    base_ty: ifp_compiler::TypeId,
    steps: &[GepStep],
) -> Box<[PStep]> {
    let types = &program.types;
    let mut out: Vec<PStep> = Vec::new();
    let mut cur_ty = base_ty;
    let mut pend: u64 = 0;
    let mut pend_field: Option<(u64, u64)> = None;
    let flush = |pend: &mut u64, pend_field: &mut Option<(u64, u64)>, out: &mut Vec<PStep>| {
        if *pend != 0 || pend_field.is_some() {
            out.push(PStep::Const {
                total: *pend,
                field: pend_field.take(),
            });
            *pend = 0;
        }
    };
    for step in steps {
        match step {
            GepStep::Field(i) => {
                let field = types.field(cur_ty, *i);
                pend = pend.wrapping_add(u64::from(field.offset));
                cur_ty = field.ty;
                pend_field = Some((pend, u64::from(types.size_of(cur_ty))));
            }
            GepStep::Index(o) => {
                let elem = match types.get(cur_ty) {
                    Type::Array { elem, .. } => {
                        let e = *elem;
                        cur_ty = e;
                        e
                    }
                    _ => cur_ty,
                };
                let elem_size = i64::from(types.size_of(elem));
                match o {
                    Operand::Imm(n) => {
                        pend = pend.wrapping_add(n.wrapping_mul(elem_size) as u64);
                    }
                    Operand::Reg(_) => {
                        flush(&mut pend, &mut pend_field, &mut out);
                        out.push(PStep::Idx { o: *o, elem_size });
                    }
                }
            }
        }
    }
    flush(&mut pend, &mut pend_field, &mut out);
    out.into_boxed_slice()
}

fn gep_spec_of(program: &Program, op: &Op, action: OpAction, elide: ElideFlags) -> GepSpec {
    let Op::Gep {
        dst,
        base,
        base_ty,
        steps,
    } = op
    else {
        unreachable!("gep slot must hold a Gep");
    };
    let (new_index, enters) = match action {
        OpAction::GepUpdate {
            new_index,
            enters_subobject,
        } => (new_index, enters_subobject),
        _ => (None, false),
    };
    GepSpec {
        dst: *dst,
        base: *base,
        base_cost: steps.len().max(1) as u64,
        new_index,
        enters,
        elide_tag: elide.tag_update,
        psteps: build_psteps(program, *base_ty, steps),
    }
}

fn mem_spec_of(program: &Program, op: &Op, action: OpAction, elide: ElideFlags) -> MemSpec {
    match op {
        Op::Load { dst, ptr, ty } => MemSpec {
            dst: *dst,
            ptr: *ptr,
            val: Operand::Imm(0),
            size: u64::from(program.types.size_of(*ty)),
            is_ptr: program.types.is_ptr(*ty),
            promote: matches!(action, OpAction::PromoteAfterLoad),
            demote: false,
            elide,
        },
        Op::Store { ptr, val, ty } => MemSpec {
            dst: Reg(0),
            ptr: *ptr,
            val: *val,
            size: u64::from(program.types.size_of(*ty)),
            is_ptr: false,
            promote: false,
            demote: matches!(action, OpAction::DemoteOnStore),
            elide,
        },
        _ => unreachable!("mem slot must hold a Load/Store"),
    }
}

/// Decoded facts for the op at flat index `idx` of `dcode`. The first
/// element is the index into the function's owned ops table.
fn decoded_op(dcode: &[Code], idx: u32) -> (u32, OpAction, u32, bool, ElideFlags) {
    match dcode[idx as usize] {
        Code::Op {
            op,
            action,
            callee,
            saves_bounds,
            elide,
        } => (op, action, callee, saves_bounds, elide),
        _ => unreachable!("op index points at a terminator"),
    }
}

/// Lowers `plan` over `program` into per-function fused streams,
/// lifting actions/elisions/callees from the interpreter's own decoded
/// stream so both tiers key off identical instrumentation facts.
pub(super) fn compile(program: &Program, decoded: &[FuncCode], plan: &FusionPlan) -> FusedProgram {
    let mut funcs = Vec::with_capacity(program.funcs.len());
    for (fi, f) in program.funcs.iter().enumerate() {
        let ffus = &plan.funcs[fi];
        // Fused-stream and decoded-stream block starts (the decoded
        // layout matches `predecode`: ops then one terminator slot).
        let mut fstarts = Vec::with_capacity(f.blocks.len());
        let mut dstarts = Vec::with_capacity(f.blocks.len());
        let (mut fn_, mut dn) = (0u32, 0u32);
        for (bi, b) in f.blocks.iter().enumerate() {
            fstarts.push(fn_);
            dstarts.push(dn);
            fn_ += ffus.blocks[bi].segs.len() as u32 + 1;
            dn += b.ops.len() as u32 + 1;
        }
        let dcode = &decoded[fi].code;
        let dops = &decoded[fi].ops;
        let mut ff = FusedFunc {
            code: Vec::with_capacity(fn_ as usize),
            runs: Vec::new(),
            geps: Vec::new(),
            mems: Vec::new(),
        };
        for (bi, b) in f.blocks.iter().enumerate() {
            for seg in &ffus.blocks[bi].segs {
                match *seg {
                    Seg::ArithRun { start, len } => {
                        let ops: Vec<MicroOp> = (start..start + len)
                            .map(|oi| micro_of(&b.ops[oi as usize]))
                            .collect();
                        ff.code.push(FSlot::Arith {
                            run: ff.runs.len() as u32,
                        });
                        ff.runs.push(ops.into_boxed_slice());
                    }
                    Seg::GepLoad { at } | Seg::GepStore { at } => {
                        let (gop, gact, _, _, gel) = decoded_op(dcode, dstarts[bi] + at);
                        let (mop, mact, _, _, mel) = decoded_op(dcode, dstarts[bi] + at + 1);
                        let g = ff.geps.len() as u32;
                        let m = ff.mems.len() as u32;
                        ff.geps
                            .push(gep_spec_of(program, &dops[gop as usize], gact, gel));
                        ff.mems
                            .push(mem_spec_of(program, &dops[mop as usize], mact, mel));
                        ff.code.push(if matches!(seg, Seg::GepLoad { .. }) {
                            FSlot::GepLoad { g, m }
                        } else {
                            FSlot::GepStore { g, m }
                        });
                    }
                    Seg::Single { at } => {
                        let (oi, action, callee, saves_bounds, elide) =
                            decoded_op(dcode, dstarts[bi] + at);
                        match &dops[oi as usize] {
                            op @ Op::Gep { .. } => {
                                ff.code.push(FSlot::Gep {
                                    g: ff.geps.len() as u32,
                                });
                                ff.geps.push(gep_spec_of(program, op, action, elide));
                            }
                            op @ Op::Load { .. } => {
                                ff.code.push(FSlot::Load {
                                    m: ff.mems.len() as u32,
                                });
                                ff.mems.push(mem_spec_of(program, op, action, elide));
                            }
                            op @ Op::Store { .. } => {
                                ff.code.push(FSlot::Store {
                                    m: ff.mems.len() as u32,
                                });
                                ff.mems.push(mem_spec_of(program, op, action, elide));
                            }
                            _ => ff.code.push(FSlot::Op {
                                op: oi,
                                action,
                                callee,
                                saves_bounds,
                                elide,
                            }),
                        }
                    }
                }
            }
            // Terminator: targets re-resolved against the fused starts.
            match dcode[(dstarts[bi] + b.ops.len() as u32) as usize] {
                Code::Jmp { cost, .. } => {
                    let ifp_compiler::ir::Terminator::Jmp(t) = &b.term else {
                        unreachable!("decoded/term mismatch");
                    };
                    ff.code.push(FSlot::Jmp {
                        cost,
                        target: fstarts[*t],
                    });
                }
                Code::Br { cost, cond, .. } => {
                    let ifp_compiler::ir::Terminator::Br {
                        then_bb, else_bb, ..
                    } = &b.term
                    else {
                        unreachable!("decoded/term mismatch");
                    };
                    ff.code.push(FSlot::Br {
                        cost,
                        cond,
                        then_pc: fstarts[*then_bb],
                        else_pc: fstarts[*else_bb],
                    });
                }
                Code::Ret { cost, val } => ff.code.push(FSlot::Ret { cost, val }),
                Code::Op { .. } => unreachable!("terminator slot holds an op"),
            }
        }
        funcs.push(ff);
    }
    FusedProgram { funcs }
}

impl Vm<'_> {
    /// The fused dispatch loop. Same observable semantics as
    /// `run_loop`/`step_inner`, radically fewer dispatches. `art` is
    /// this VM's own artifact, lifted into a caller-held handle (it must
    /// carry a fused program).
    pub(super) fn run_loop_fused(
        &mut self,
        art: &CompiledArtifact,
        fs: &mut FusionStats,
    ) -> Result<i64, VmError> {
        let fp = art.fused.as_ref().expect("artifact carries fused streams");
        self.enter_main()?;
        loop {
            if self.stats.total_instrs() > self.config.fuel {
                return Err(VmError::OutOfFuel);
            }
            let frame = self.frames.last().expect("frame");
            let fi = frame.func;
            let ff = &fp.funcs[fi];
            let slot = ff.code[frame.pc];
            match slot {
                FSlot::Arith { run } => {
                    let ops = &ff.runs[run as usize];
                    fs.arith_runs += 1;
                    fs.arith_ops += ops.len() as u64;
                    self.frame().pc += 1;
                    self.run_arith(ops)?;
                }
                FSlot::Gep { g } => {
                    fs.specialized += 1;
                    self.frame().pc += 1;
                    self.exec_gep_spec(&ff.geps[g as usize]);
                }
                FSlot::Load { m } => {
                    fs.specialized += 1;
                    self.frame().pc += 1;
                    let m = ff.mems[m as usize];
                    self.exec_load(m.dst, m.ptr, m.size, m.is_ptr, m.promote, m.elide)?;
                }
                FSlot::Store { m } => {
                    fs.specialized += 1;
                    self.frame().pc += 1;
                    let m = ff.mems[m as usize];
                    self.exec_store(m.ptr, m.val, m.size, m.demote, m.elide)?;
                }
                FSlot::GepLoad { g, m } => {
                    fs.pairs += 1;
                    self.frame().pc += 1;
                    self.exec_gep_spec(&ff.geps[g as usize]);
                    // The interpreter's per-op fuel check sits between
                    // the halves of every pair.
                    if self.stats.total_instrs() > self.config.fuel {
                        return Err(VmError::OutOfFuel);
                    }
                    let m = ff.mems[m as usize];
                    self.exec_load(m.dst, m.ptr, m.size, m.is_ptr, m.promote, m.elide)?;
                }
                FSlot::GepStore { g, m } => {
                    fs.pairs += 1;
                    self.frame().pc += 1;
                    self.exec_gep_spec(&ff.geps[g as usize]);
                    if self.stats.total_instrs() > self.config.fuel {
                        return Err(VmError::OutOfFuel);
                    }
                    let m = ff.mems[m as usize];
                    self.exec_store(m.ptr, m.val, m.size, m.demote, m.elide)?;
                }
                FSlot::Op {
                    op,
                    action,
                    callee,
                    saves_bounds,
                    elide,
                } => {
                    fs.generic += 1;
                    self.frame().pc += 1;
                    let op = &art.decoded[fi].ops[op as usize];
                    if let Flow::Finished(code) =
                        self.exec_op(op, action, callee, saves_bounds, elide)?
                    {
                        return Ok(code);
                    }
                }
                FSlot::Jmp { cost, target } => {
                    fs.terminators += 1;
                    self.charge_base(cost);
                    self.frame().pc = target as usize;
                }
                FSlot::Br {
                    cost,
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    fs.terminators += 1;
                    self.charge_base(cost);
                    let c = self.eval(cond);
                    self.frame().pc = (if c != 0 { then_pc } else { else_pc }) as usize;
                }
                FSlot::Ret { cost, val } => {
                    fs.terminators += 1;
                    self.charge_base(cost);
                    if let Flow::Finished(code) = self.exec_ret(val)? {
                        return Ok(code);
                    }
                }
            }
        }
    }

    /// Executes one batched arith run. The dispatcher has already
    /// checked fuel for the first op; if the whole run fits in the
    /// remaining window, charge it wholesale and execute straight-line.
    /// Otherwise fall back to per-op charging so the out-of-fuel point
    /// matches the interpreter's exactly.
    fn run_arith(&mut self, ops: &[MicroOp]) -> Result<(), VmError> {
        let n = ops.len() as u64;
        let alu = self.config.cycle_model.alu;
        let t0 = self.stats.total_instrs();
        if t0.saturating_add(n) - 1 <= self.config.fuel {
            self.stats.base_instrs += n;
            self.stats.cycles += n * alu;
            let f = self.frames.last_mut().expect("frame");
            for op in ops {
                arith_exec(f, op);
            }
            return Ok(());
        }
        for (i, op) in ops.iter().enumerate() {
            if t0 + i as u64 > self.config.fuel {
                return Err(VmError::OutOfFuel);
            }
            self.stats.base_instrs += 1;
            self.stats.cycles += alu;
            let f = self.frames.last_mut().expect("frame");
            arith_exec(f, op);
        }
        Ok(())
    }

    /// Precomputed GEP: run the folded address walk, then the shared
    /// tag/narrowing tail.
    fn exec_gep_spec(&mut self, g: &GepSpec) {
        let bp = TaggedPtr::from_raw(self.eval(g.base));
        let mut addr = bp.addr();
        let mut last_field: Option<(u64, u64)> = None;
        for step in g.psteps.iter() {
            match *step {
                PStep::Const { total, field } => {
                    if let Some((d, sz)) = field {
                        last_field = Some((addr.wrapping_add(d) & ifp_tag::ADDR_MASK, sz));
                    }
                    addr = addr.wrapping_add(total) & ifp_tag::ADDR_MASK;
                }
                PStep::Idx { o, elem_size } => {
                    let n = self.eval(o) as i64;
                    addr = addr.wrapping_add(n.wrapping_mul(elem_size) as u64) & ifp_tag::ADDR_MASK;
                }
            }
        }
        self.gep_apply(
            g.dst,
            g.base,
            bp,
            addr,
            last_field,
            g.base_cost,
            g.new_index,
            g.enters,
            g.elide_tag,
        );
    }
}

/// The data half of one micro-op; charging happened at the run level.
/// Semantics mirror the interpreter's `Bin`/`Mov` arms: `Bin` writes
/// clear bounds and stamp, `Mov` copies all three columns.
fn arith_exec(f: &mut super::Frame, op: &MicroOp) {
    match *op {
        MicroOp::BinRR { op, dst, a, b } => {
            let va = f.regs[a as usize] as i64;
            let vb = f.regs[b as usize] as i64;
            let r = eval_bin(op, va, vb).expect("eval_bin is infallible") as u64;
            f.regs[dst as usize] = r;
            f.bounds[dst as usize] = None;
            f.stamps[dst as usize] = None;
        }
        MicroOp::BinRI { op, dst, a, b } => {
            let va = f.regs[a as usize] as i64;
            let r = eval_bin(op, va, b).expect("eval_bin is infallible") as u64;
            f.regs[dst as usize] = r;
            f.bounds[dst as usize] = None;
            f.stamps[dst as usize] = None;
        }
        MicroOp::BinIR { op, dst, a, b } => {
            let vb = f.regs[b as usize] as i64;
            let r = eval_bin(op, a, vb).expect("eval_bin is infallible") as u64;
            f.regs[dst as usize] = r;
            f.bounds[dst as usize] = None;
            f.stamps[dst as usize] = None;
        }
        MicroOp::ConstOut { dst, val } => {
            f.regs[dst as usize] = val;
            f.bounds[dst as usize] = None;
            f.stamps[dst as usize] = None;
        }
        MicroOp::MovR { dst, src } => {
            f.regs[dst as usize] = f.regs[src as usize];
            f.bounds[dst as usize] = f.bounds[src as usize];
            f.stamps[dst as usize] = f.stamps[src as usize];
        }
    }
}
