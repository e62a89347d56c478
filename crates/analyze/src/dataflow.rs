//! Register dataflow over physical registers.
//!
//! Two families of checks, plus the unreachable-block lint:
//!
//! * **Undefined reads** — a forward *must-define* analysis over the
//!   reconstructed CFG proves every read is covered on all paths from the
//!   entry block, seeded by the program's declared live-in set. Same-cycle
//!   writes do *not* cover reads: VLIW register-file semantics deliver the
//!   old value to every operation in the issuing instruction.
//! * **Trailing latency** — the scheduler pads each block so every
//!   operation *completes* inside it (issue cycle + latency ≤ block
//!   length); a schedule violating this leaks writebacks into an
//!   unpredictable successor block.

use crate::cfg::Cfg;
use crate::diag::{Diagnostic, Location, Rule};
use vliw_compiler::Program;
use vliw_isa::{MachineConfig, Reg};

/// Dense bitset over `n_clusters * regs_per_cluster` physical registers.
#[derive(Clone, PartialEq, Eq)]
struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    fn empty(nbits: usize) -> Self {
        RegSet {
            words: vec![0; nbits.div_ceil(64)],
        }
    }

    fn full(nbits: usize) -> Self {
        let mut s = Self::empty(nbits);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s
    }

    fn insert(&mut self, bit: usize) {
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    fn contains(&self, bit: usize) -> bool {
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// `self &= other`; returns whether `self` changed.
    fn intersect_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    fn union_with(&mut self, other: &RegSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// Dense key for a physical register; `None` when the register is outside
/// the machine (those are the bundle pass's findings, not ours).
fn key(machine: &MachineConfig, r: Reg) -> Option<usize> {
    if r.cluster >= machine.n_clusters || r.index >= machine.regs_per_cluster {
        return None;
    }
    Some(r.cluster as usize * machine.regs_per_cluster as usize + r.index as usize)
}

/// Run the dataflow checks. `cfg` must come from
/// [`build_cfg`](crate::cfg::build_cfg) on the same program.
pub fn check_dataflow(
    machine: &MachineConfig,
    program: &Program,
    cfg: &Cfg,
    diags: &mut Vec<Diagnostic>,
) {
    let nb = program.blocks.len();
    let nbits = machine.n_clusters as usize * machine.regs_per_cluster as usize;

    for (bid, &r) in cfg.reachable.iter().enumerate() {
        if !r {
            diags.push(Diagnostic::warning(
                Rule::UnreachableBlock,
                Location::block(bid as u32),
                "no path from the entry block reaches this block",
            ));
        }
    }

    // Per-block must-define set: every write executes unconditionally in a
    // VLIW block, so defs(b) is simply all destinations written in b.
    let mut defs: Vec<RegSet> = Vec::with_capacity(nb);
    for b in &program.blocks {
        let mut d = RegSet::empty(nbits);
        for instr in &b.instrs {
            for op in instr.ops() {
                if let Some(k) = op.dest.and_then(|r| key(machine, r)) {
                    d.insert(k);
                }
            }
        }
        defs.push(d);
    }

    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); nb];
    for (bid, succs) in cfg.succs.iter().enumerate() {
        for &s in succs {
            preds[s as usize].push(bid as u32);
        }
    }

    // Live-ins the compiler declares for the entry block, as physical regs.
    let mut entry_in = RegSet::empty(nbits);
    for &r in &program.live_ins {
        if let Some(k) = key(machine, r) {
            entry_in.insert(k);
        }
    }

    // Forward must-define fixpoint, decreasing from TOP. The entry block's
    // boundary fact is its live-in set: the empty path from program start
    // defines exactly those registers, so back edges into the entry can
    // only ever *intersect* with it.
    let mut ins: Vec<RegSet> = (0..nb).map(|_| RegSet::full(nbits)).collect();
    ins[program.entry as usize] = entry_in.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            let mut new_in = if b == program.entry as usize {
                entry_in.clone()
            } else if preds[b].is_empty() {
                continue; // unreachable, stays TOP: nothing to report there
            } else {
                RegSet::full(nbits)
            };
            for &p in &preds[b] {
                let mut out = ins[p as usize].clone();
                out.union_with(&defs[p as usize]);
                new_in.intersect_with(&out);
            }
            if new_in != ins[b] {
                ins[b] = new_in;
                changed = true;
            }
        }
    }

    // Flag reads not covered on every path, and trailing-latency escapes.
    for (bid, b) in program.blocks.iter().enumerate() {
        let n = b.instrs.len() as u32;
        let mut defined = ins[bid].clone();
        for (i, instr) in b.instrs.iter().enumerate() {
            let loc = Location::instr(bid as u32, i);
            // Reads see the register file *before* this cycle's writeback.
            for op in instr.ops() {
                for s in op.src_regs() {
                    if let Some(k) = key(machine, s) {
                        if !defined.contains(k) {
                            diags.push(Diagnostic::error(
                                Rule::UndefinedRead,
                                loc,
                                format!(
                                    "{} reads {s}, which is not written on every path here",
                                    op.opcode
                                ),
                            ));
                        }
                    }
                }
                let lat = u32::from(machine.latency_of(op.class()));
                if i as u32 + lat > n {
                    diags.push(Diagnostic::error(
                        Rule::OpOutlivesBlock,
                        loc,
                        format!(
                            "{} (latency {lat}) completes after the block's {n} cycles",
                            op.opcode
                        ),
                    ));
                }
            }
            for op in instr.ops() {
                if let Some(k) = op.dest.and_then(|r| key(machine, r)) {
                    defined.insert(k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use vliw_compiler::TermKind;
    use vliw_isa::{Opcode, Operation, VliwInstruction};

    fn m() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    fn op(opc: Opcode, dest: Option<Reg>, srcs: &[Reg]) -> Operation {
        let mut o = Operation::new(
            opc,
            srcs.first()
                .map_or(dest.map_or(0, |d| d.cluster), |s| s.cluster),
        );
        o.dest = dest;
        for (i, &s) in srcs.iter().enumerate() {
            o.srcs[i] = Some(s);
        }
        o
    }

    fn run(program: &Program) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        let cfg = build_cfg(program);
        check_dataflow(&m(), program, &cfg, &mut d);
        d
    }

    #[test]
    fn covered_read_is_clean() {
        let w =
            VliwInstruction::from_ops_unchecked(vec![op(Opcode::Add, Some(Reg::new(0, 1)), &[])]);
        let pad = VliwInstruction::from_ops_unchecked(vec![]);
        let r = VliwInstruction::from_ops_unchecked(vec![op(
            Opcode::Add,
            Some(Reg::new(0, 2)),
            &[Reg::new(0, 1)],
        )]);
        let p = Program::new(
            "t".into(),
            vec![(vec![w, pad.clone(), r, pad], TermKind::Return)],
            0,
            0,
            vec![],
        );
        let d = run(&p);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn same_cycle_write_does_not_cover_read() {
        let both = VliwInstruction::from_ops_unchecked(vec![
            op(Opcode::Add, Some(Reg::new(0, 1)), &[]),
            op(Opcode::Sub, Some(Reg::new(0, 2)), &[Reg::new(0, 1)]),
        ]);
        let pad = VliwInstruction::from_ops_unchecked(vec![]);
        let p = Program::new(
            "t".into(),
            vec![(vec![both, pad], TermKind::Return)],
            0,
            0,
            vec![],
        );
        let d = run(&p);
        assert!(d.iter().any(|x| x.rule == Rule::UndefinedRead), "{d:?}");
    }

    #[test]
    fn live_in_covers_entry_read() {
        let r = VliwInstruction::from_ops_unchecked(vec![op(
            Opcode::Add,
            Some(Reg::new(0, 2)),
            &[Reg::new(0, 7)],
        )]);
        let pad = VliwInstruction::from_ops_unchecked(vec![]);
        let blocks = vec![(vec![r, pad], TermKind::Return)];
        let bare = Program::new("t".into(), blocks.clone(), 0, 0, vec![]);
        assert!(run(&bare).iter().any(|x| x.rule == Rule::UndefinedRead));
        let declared = Program::new("t".into(), blocks, 0, 0, vec![Reg::new(0, 7)]);
        let d = run(&declared);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn must_def_requires_all_paths() {
        // entry: cond-branch to 2; block 1 defines r5 and falls through;
        // block 2 reads r5 — defined on the fall-through path only.
        let pad = VliwInstruction::from_ops_unchecked(vec![]);
        let def =
            VliwInstruction::from_ops_unchecked(vec![op(Opcode::Add, Some(Reg::new(1, 5)), &[])]);
        let read = VliwInstruction::from_ops_unchecked(vec![op(
            Opcode::Add,
            Some(Reg::new(1, 6)),
            &[Reg::new(1, 5)],
        )]);
        let p = Program::new(
            "t".into(),
            vec![
                (
                    vec![pad.clone()],
                    TermKind::CondBranch {
                        taken: 2,
                        taken_permille: 500,
                    },
                ),
                (vec![def], TermKind::FallThrough),
                (vec![read, pad], TermKind::Return),
            ],
            0,
            0,
            vec![],
        );
        let d = run(&p);
        assert!(d.iter().any(|x| x.rule == Rule::UndefinedRead), "{d:?}");
    }

    #[test]
    fn trailing_latency_violation_detected() {
        // A multiply (latency 2) in a 1-cycle block.
        let mul =
            VliwInstruction::from_ops_unchecked(vec![op(Opcode::Mpy, Some(Reg::new(0, 1)), &[])]);
        let p = Program::new(
            "t".into(),
            vec![(vec![mul], TermKind::Return)],
            0,
            0,
            vec![],
        );
        let d = run(&p);
        assert!(d.iter().any(|x| x.rule == Rule::OpOutlivesBlock), "{d:?}");
    }

    #[test]
    fn unreachable_block_warned() {
        let pad = VliwInstruction::from_ops_unchecked(vec![]);
        let p = Program::new(
            "t".into(),
            vec![
                (vec![pad.clone()], TermKind::Return),
                (vec![pad], TermKind::Return),
            ],
            0,
            0,
            vec![],
        );
        let d = run(&p);
        assert!(
            d.iter()
                .any(|x| x.rule == Rule::UnreachableBlock && x.location.block == Some(1)),
            "{d:?}"
        );
    }
}
