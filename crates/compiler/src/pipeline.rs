//! The end-to-end compilation driver.
//!
//! `validate → unroll → cluster-assign → schedule → bind registers →
//! emit instructions → lay out` — the whole VEX-style pipeline in one call.

use crate::cluster::{assign_clusters, ClusteredBlock, ClusteredFunction};
use crate::ir::{IrFunction, IrOp, Terminator};
use crate::program::{Program, TermKind};
use crate::regalloc::{allocate, RegAssignment};
use crate::sched::{schedule_block, verify_schedule, BlockSchedule};
use crate::unroll::unroll_self_loops;
use vliw_isa::{BranchInfo, InstrBuilder, MachineConfig, Opcode, Operation, VliwInstruction};

/// Knobs of the compilation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Self-loop unroll factor (1 = off). The workload generator uses this
    /// as its main ILP-exposure knob, standing in for trace scheduling.
    pub unroll: u32,
    /// Run the (debug-cost) schedule verifier on every block.
    ///
    /// **Contract:** the default is `cfg!(debug_assertions)` — debug builds
    /// verify every schedule, release builds verify *nothing* on this path.
    /// Release-mode confidence comes from two independent mechanisms
    /// instead: the CI release tier runs one full compile pass of every
    /// benchmark × geometry with `verify: true` (catching drift between
    /// `verify_schedule` and the emitted code), and the compiler-blind
    /// `vliw-analyze` crate re-checks the *emitted* images from scratch
    /// (`paper --lint`, or env-gated at `ImageCache` insertion via
    /// `VLIW_VERIFY_IMAGES=1`). Set this to `true` explicitly when
    /// compiling untrusted or hand-written IR in release builds.
    pub verify: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            unroll: 1,
            verify: cfg!(debug_assertions),
        }
    }
}

/// Compile an IR function into an executable [`Program`].
///
/// Fails, naming the op class, when no cluster of `machine` has a unit for
/// one of `func`'s ops (a multiply on a machine without multipliers, say).
pub fn compile(
    machine: &MachineConfig,
    func: &IrFunction,
    opts: CompileOptions,
) -> Result<Program, String> {
    func.validate()?;
    let unplaceable =
        |op: &&IrOp| (0..machine.n_clusters).all(|c| machine.class_capacity(c, op.class()) == 0);
    if let Some(op) = func.blocks.iter().flat_map(|b| &b.ops).find(unplaceable) {
        return Err(format!(
            "no cluster has a {} unit for op {}",
            op.class(),
            op.opcode.mnemonic()
        ));
    }
    let func = unroll_self_loops(func, opts.unroll);
    let cf = assign_clusters(machine, &func);
    let ra = allocate(machine, &cf);

    let mut blocks = Vec::with_capacity(cf.blocks.len());
    for block in &cf.blocks {
        let sched = schedule_block(machine, block);
        if opts.verify {
            verify_schedule(machine, block, &sched)?;
        }
        let instrs = emit_block(machine, block, &sched, &ra)?;
        let term = match block.term {
            Terminator::FallThrough => TermKind::FallThrough,
            Terminator::Jump { target } => TermKind::Jump { target },
            Terminator::CondBranch {
                taken,
                taken_permille,
                ..
            } => TermKind::CondBranch {
                taken,
                taken_permille,
            },
            Terminator::Return => TermKind::Return,
        };
        blocks.push((instrs, term));
    }
    let live_ins = entry_live_ins(&cf, &ra);
    let program = Program::new(cf.name.clone(), blocks, cf.entry, cf.n_streams, live_ins);
    program.validate()?;
    Ok(program)
}

/// Physical registers that may be read before being written on some path
/// from the entry block — the program's declared live-ins.
///
/// Computed by classic backward liveness over the *clustered* virtual code
/// (the final op list, copies included), then mapped through the register
/// assignment. Virtual liveness over-approximates physical
/// uninitialised-readability: the allocator's round-robin reuse only *adds*
/// physical writes before a read, never removes one, so any physical read
/// not dominated by a write maps back to a virtual read of a live-in vreg.
/// That containment is what lets `vliw-analyze` treat "read not covered by
/// a write and not declared live-in" as a hard error.
fn entry_live_ins(cf: &ClusteredFunction, ra: &RegAssignment) -> Vec<vliw_isa::Reg> {
    let n = cf.n_vregs as usize;
    let nb = cf.blocks.len();
    // Per-block gen (read before any def in the block, in program order)
    // and kill (defined anywhere in the block) sets.
    let mut gen = vec![vec![false; n]; nb];
    let mut kill = vec![vec![false; n]; nb];
    for (b, block) in cf.blocks.iter().enumerate() {
        for op in &block.ops {
            for s in op.src_iter() {
                if !kill[b][s.0 as usize] {
                    gen[b][s.0 as usize] = true;
                }
            }
            if let Some(d) = op.dst {
                kill[b][d.0 as usize] = true;
            }
        }
        if let Terminator::CondBranch { pred: Some(p), .. } = block.term {
            if !kill[b][p.0 as usize] {
                gen[b][p.0 as usize] = true;
            }
        }
    }
    let succs = |b: usize| -> Vec<usize> {
        match cf.blocks[b].term {
            Terminator::FallThrough => vec![b + 1],
            Terminator::Jump { target } => vec![target as usize],
            Terminator::CondBranch { taken, .. } => {
                let mut v = vec![taken as usize];
                if b + 1 < nb {
                    v.push(b + 1);
                }
                v
            }
            Terminator::Return => vec![],
        }
    };
    // Backward fixpoint: live_in = gen ∪ (∪succ live_in − kill).
    let mut live_in = gen.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            for s in succs(b) {
                for v in 0..n {
                    if live_in[s][v] && !kill[b][v] && !live_in[b][v] {
                        live_in[b][v] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    (0..n)
        .filter(|&v| live_in[cf.entry as usize][v])
        .map(|v| ra.map[v])
        .collect()
}

/// Emit the instruction words of one scheduled block.
fn emit_block(
    machine: &MachineConfig,
    block: &ClusteredBlock,
    sched: &BlockSchedule,
    ra: &RegAssignment,
) -> Result<Vec<VliwInstruction>, String> {
    let n_cycles = sched.n_cycles as usize;
    let mut builders: Vec<InstrBuilder> =
        (0..n_cycles).map(|_| InstrBuilder::new(machine)).collect();

    for (i, op) in block.ops.iter().enumerate() {
        let p = sched.placements[i];
        let mut mop = Operation::new(op.opcode, p.cluster);
        if let Some(d) = op.dst {
            mop.dest = Some(ra.map[d.0 as usize]);
        }
        for (k, s) in op.src_iter().enumerate() {
            mop.srcs[k] = Some(ra.map[s.0 as usize]);
        }
        mop.imm = op.imm;
        mop.mem = op.mem;
        builders[p.cycle as usize]
            .push_at(mop, p.slot)
            .map_err(|e| format!("emit op {i}: {e}"))?;
    }

    // Terminator branch operation.
    if let Some(bp) = sched.branch {
        let (opcode, info, pred) = match block.term {
            Terminator::Jump { target } => (
                Opcode::Goto,
                BranchInfo {
                    taken_permille: 1000,
                    target,
                },
                None,
            ),
            Terminator::Return => (
                Opcode::Return,
                BranchInfo {
                    taken_permille: 1000,
                    target: 0,
                },
                None,
            ),
            Terminator::CondBranch {
                taken,
                taken_permille,
                pred,
            } => (
                Opcode::Br,
                BranchInfo {
                    taken_permille,
                    target: taken,
                },
                pred,
            ),
            Terminator::FallThrough => unreachable!("fall-through emits no branch"),
        };
        let mut bop = Operation::new(opcode, bp.cluster).with_branch(info);
        if let Some(p) = pred {
            bop.srcs[0] = Some(ra.map[p.0 as usize]);
        }
        builders[bp.cycle as usize]
            .push_at(bop, bp.slot)
            .map_err(|e| format!("emit branch: {e}"))?;
    }

    Ok(builders.into_iter().map(|b| b.build()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrBlock, IrOp, VirtReg};
    use vliw_isa::OpClass;

    fn v(i: u32) -> VirtReg {
        VirtReg(i)
    }

    /// A small loop kernel compiles end to end and the emitted code has
    /// the right op counts and a branch in the last instruction.
    #[test]
    fn compiles_loop_kernel() {
        let m = MachineConfig::paper_baseline();
        let mut f = IrFunction::new("kernel");
        for _ in 0..8 {
            f.fresh_vreg();
        }
        let s = f.fresh_stream();
        let body = vec![
            IrOp::new(Opcode::Ldw).dst(v(1)).srcs(&[v(0)]).mem(s, false),
            IrOp::new(Opcode::Add).dst(v(2)).srcs(&[v(1), v(2)]),
            IrOp::new(Opcode::Mpy).dst(v(3)).srcs(&[v(1), v(2)]),
            IrOp::new(Opcode::Add).dst(v(0)).srcs(&[v(0)]).imm(4),
            IrOp::new(Opcode::CmpLt).dst(v(4)).srcs(&[v(0), v(5)]),
        ];
        f.push_block(IrBlock::new(body).with_term(Terminator::CondBranch {
            taken: 0,
            taken_permille: 900,
            pred: Some(v(4)),
        }));
        f.push_block(IrBlock::new(vec![]).with_term(Terminator::Return));

        let p = compile(
            &m,
            &f,
            CompileOptions {
                unroll: 1,
                verify: true,
            },
        )
        .unwrap();
        assert_eq!(p.blocks.len(), 2);
        // Ops: 5 body ops (+ possible copies) + 1 branch.
        let b0 = &p.blocks[0];
        let total_ops: usize = b0.instrs.iter().map(|i| i.n_ops()).sum();
        assert!(total_ops >= 6);
        let last = b0.instrs.last().unwrap();
        assert!(
            last.ops().iter().any(|o| o.class() == OpClass::Branch),
            "branch must be in the last instruction"
        );
        assert!(matches!(b0.term, TermKind::CondBranch { taken: 0, .. }));
    }

    #[test]
    fn unrolling_increases_density() {
        let m = MachineConfig::paper_baseline();
        let mut f = IrFunction::new("unroll");
        for _ in 0..8 {
            f.fresh_vreg();
        }
        let s = f.fresh_stream();
        // Independent-iteration loop: unrolling should raise ops/instr.
        let body = vec![
            IrOp::new(Opcode::Ldw).dst(v(1)).srcs(&[v(0)]).mem(s, false),
            IrOp::new(Opcode::Add).dst(v(2)).srcs(&[v(1)]).imm(3),
            IrOp::new(Opcode::Add).dst(v(0)).srcs(&[v(0)]).imm(4),
        ];
        f.push_block(IrBlock::new(body).with_term(Terminator::CondBranch {
            taken: 0,
            taken_permille: 980,
            pred: None,
        }));
        f.push_block(IrBlock::new(vec![]).with_term(Terminator::Return));

        let p1 = compile(
            &m,
            &f,
            CompileOptions {
                unroll: 1,
                verify: true,
            },
        )
        .unwrap();
        let p8 = compile(
            &m,
            &f,
            CompileOptions {
                unroll: 8,
                verify: true,
            },
        )
        .unwrap();
        let d1 = p1.stats(&m).ops_per_instr;
        let d8 = p8.stats(&m).ops_per_instr;
        assert!(d8 > d1, "unrolled density {d8} must beat {d1}");
    }

    #[test]
    fn compile_is_deterministic() {
        let m = MachineConfig::paper_baseline();
        let mut f = IrFunction::new("det");
        for _ in 0..20 {
            f.fresh_vreg();
        }
        let ops: Vec<IrOp> = (0..12)
            .map(|i| IrOp::new(Opcode::Add).dst(v(i + 1)).srcs(&[v(i)]))
            .collect();
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let a = compile(&m, &f, CompileOptions::default()).unwrap();
        let b = compile(&m, &f, CompileOptions::default()).unwrap();
        assert_eq!(a.code_bytes, b.code_bytes);
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.instrs, y.instrs);
        }
    }

    #[test]
    fn invalid_ir_is_rejected() {
        let m = MachineConfig::paper_baseline();
        let f = IrFunction::new("empty");
        assert!(compile(&m, &f, CompileOptions::default()).is_err());
    }
}
