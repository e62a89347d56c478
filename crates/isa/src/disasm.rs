//! Human-readable rendering of instructions, in the style of the paper's
//! Figure 1: one row per instruction, one column group per cluster, `-` for
//! vacant slots.

use crate::instr::VliwInstruction;
use crate::machine::MachineConfig;
use std::fmt::Write as _;

/// Render one instruction as a slot grid: `[add sub - - | - mpy ld - | ...]`.
pub fn render_instr(machine: &MachineConfig, instr: &VliwInstruction) -> String {
    let mut grid: Vec<Vec<Option<&str>>> = (0..machine.n_clusters)
        .map(|_| vec![None; machine.issue_per_cluster as usize])
        .collect();
    for op in instr.ops() {
        grid[op.cluster as usize][op.slot as usize] = Some(op.opcode.mnemonic());
    }
    let mut out = String::from("[");
    for (c, slots) in grid.iter().enumerate() {
        if c > 0 {
            out.push_str(" | ");
        }
        for (s, op) in slots.iter().enumerate() {
            if s > 0 {
                out.push(' ');
            }
            out.push_str(op.unwrap_or("-"));
        }
    }
    out.push(']');
    out
}

/// Render a block of instructions, one grid row each, prefixed with indices.
pub fn render_block(machine: &MachineConfig, instrs: &[VliwInstruction]) -> String {
    let mut out = String::new();
    for (i, instr) in instrs.iter().enumerate() {
        let _ = writeln!(out, "{i:4}: {}", render_instr(machine, instr));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrBuilder;
    use crate::op::Opcode;
    use crate::operation::Operation;

    #[test]
    fn grid_rendering_marks_vacant_slots() {
        let m = MachineConfig::new(2, 2).unwrap();
        let mut b = InstrBuilder::new(&m);
        b.push(Operation::new(Opcode::Add, 0)).unwrap();
        let i = b.build();
        let s = render_instr(&m, &i);
        assert_eq!(s, "[add - | - -]");
    }

    #[test]
    fn block_rendering_numbers_rows() {
        let m = MachineConfig::new(2, 2).unwrap();
        let i = VliwInstruction::nop();
        let s = render_block(&m, &[i.clone(), i]);
        assert!(s.contains("   0: "));
        assert!(s.contains("   1: "));
    }
}
