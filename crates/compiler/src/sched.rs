//! Resource-aware cycle/slot list scheduler.
//!
//! Operates on a cluster-assigned block: each op already has a cluster, the
//! scheduler picks the cycle and issue slot. Classic list scheduling with
//! critical-path-height priority:
//!
//! * a node is *ready* when all dependence predecessors have issued and its
//!   earliest start (issue time + edge latency) has arrived;
//! * each cycle, ready nodes are tried in priority order and placed if
//!   their cluster still has a free slot legal for their class;
//! * the terminator's branch operation goes into the block's last
//!   instruction, after every producer of its predicate is complete;
//! * the block is padded so every operation *completes* inside it —
//!   cross-block scheduling is out of scope (the paper's compiler does it,
//!   but its effect is simply denser schedules, which the workload
//!   generator's ILP calibration already controls for).

use crate::cluster::ClusteredBlock;
use crate::ddg::Ddg;
use crate::ir::Terminator;
use vliw_isa::MachineConfig;

/// Placement of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Cycle within the block (0-based instruction index).
    pub cycle: u32,
    /// Cluster (copied from the assignment).
    pub cluster: u8,
    /// Issue slot within the cluster.
    pub slot: u8,
}

/// A scheduled block: placements parallel to the input ops, total length,
/// and the branch placement if the terminator produces an operation.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// One placement per input op.
    pub placements: Vec<Placement>,
    /// Number of instructions in the block (cycles).
    pub n_cycles: u32,
    /// Placement of the terminator's branch op, if any.
    pub branch: Option<Placement>,
}

/// Schedule one cluster-assigned block.
pub fn schedule_block(machine: &MachineConfig, block: &ClusteredBlock) -> BlockSchedule {
    let n = block.ops.len();
    let ddg = Ddg::build_ops(machine, &block.ops);

    let mut indeg: Vec<u32> = ddg.preds.iter().map(|p| p.len() as u32).collect();
    let mut earliest: Vec<u32> = vec![0; n];
    let mut placed: Vec<Option<Placement>> = vec![None; n];
    let mut n_placed = 0usize;

    // Ready pool (indices); small blocks, linear scans are fine and
    // deterministic.
    let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();

    // Per-cycle, per-cluster occupancy masks; grown on demand.
    let mut taken: Vec<[u8; vliw_isa::MAX_CLUSTERS]> = Vec::new();

    let mut cycle = 0u32;
    let mut last_op_completion = 0u32; // max issue+latency-1 over placed ops
    while n_placed < n {
        if taken.len() <= cycle as usize {
            taken.resize(cycle as usize + 1, [0u8; vliw_isa::MAX_CLUSTERS]);
        }
        // Highest priority first; ties by program order for determinism.
        ready.sort_by_key(|&i| (std::cmp::Reverse(ddg.height[i as usize]), i));

        let mut i = 0;
        while i < ready.len() {
            let op_idx = ready[i] as usize;
            if earliest[op_idx] > cycle {
                i += 1;
                continue;
            }
            let cluster = block.clusters[op_idx];
            let class = block.ops[op_idx].class();
            let plan = machine.slot_plan(cluster);
            let free = plan.slots_for(class) & !taken[cycle as usize][cluster as usize];
            if free == 0 {
                i += 1;
                continue;
            }
            let slot = free.trailing_zeros() as u8;
            taken[cycle as usize][cluster as usize] |= 1 << slot;
            let p = Placement {
                cycle,
                cluster,
                slot,
            };
            placed[op_idx] = Some(p);
            n_placed += 1;
            let lat = u32::from(machine.latency_of(class));
            last_op_completion = last_op_completion.max(cycle + lat - 1);
            // Release successors.
            for &ei in &ddg.succs[op_idx] {
                let e = ddg.edges[ei as usize];
                let succ = e.to as usize;
                earliest[succ] = earliest[succ].max(cycle + u32::from(e.latency));
                indeg[succ] -= 1;
                if indeg[succ] == 0 {
                    ready.push(e.to);
                }
            }
            ready.swap_remove(i);
            // Restore priority order cheaply: re-sort on next outer pass;
            // continue scanning from the same index.
        }
        cycle += 1;
    }

    let body_end = if n == 0 { 0 } else { cycle - 1 };

    // Branch placement.
    let (has_branch, pred) = match block.term {
        Terminator::FallThrough => (false, None),
        Terminator::Jump { .. } => (true, None),
        Terminator::Return => (true, None),
        Terminator::CondBranch { pred, .. } => (true, pred),
    };

    // The machine may have no branch unit (narrow clusters); control flow
    // is then implicit (no branch op is emitted, the penalty still applies
    // at run time).
    let branch_cluster = (0..machine.n_clusters).find(|&c| machine.cluster_has_branch(c));

    let mut n_cycles = body_end.max(last_op_completion) + 1;
    let mut branch = None;
    if has_branch {
        if let Some(bc) = branch_cluster {
            // Earliest cycle the branch may issue: after its predicate is
            // ready; it must sit in the last instruction.
            let mut bcycle = n_cycles - 1;
            if let Some(p) = pred {
                for (i, op) in block.ops.iter().enumerate() {
                    if op.dst == Some(p) {
                        let pl = placed[i].expect("all ops placed");
                        let lat = u32::from(machine.latency_of(op.class()));
                        bcycle = bcycle.max(pl.cycle + lat);
                    }
                }
            }
            // Find a cycle >= bcycle with a free branch slot; extend the
            // block if needed (the branch must be in the final instruction,
            // so extending moves the end).
            loop {
                if taken.len() <= bcycle as usize {
                    taken.resize(bcycle as usize + 1, [0u8; vliw_isa::MAX_CLUSTERS]);
                }
                let plan = machine.slot_plan(bc);
                let free = plan.branch_slot & !taken[bcycle as usize][bc as usize];
                if free != 0 {
                    let slot = free.trailing_zeros() as u8;
                    taken[bcycle as usize][bc as usize] |= 1 << slot;
                    branch = Some(Placement {
                        cycle: bcycle,
                        cluster: bc,
                        slot,
                    });
                    break;
                }
                bcycle += 1;
            }
            n_cycles = n_cycles.max(branch.unwrap().cycle + 1);
        }
    }
    // Empty fall-through blocks still occupy one (nop) instruction.
    if n == 0 && branch.is_none() {
        n_cycles = n_cycles.max(1);
    }

    BlockSchedule {
        placements: placed.into_iter().map(|p| p.expect("op placed")).collect(),
        n_cycles,
        branch,
    }
}

/// Verify a schedule against the dependence graph and resource limits —
/// used by tests and debug assertions.
pub fn verify_schedule(
    machine: &MachineConfig,
    block: &ClusteredBlock,
    sched: &BlockSchedule,
) -> Result<(), String> {
    let ddg = Ddg::build_ops(machine, &block.ops);
    for e in &ddg.edges {
        let pf = sched.placements[e.from as usize];
        let pt = sched.placements[e.to as usize];
        if pt.cycle < pf.cycle + u32::from(e.latency) {
            return Err(format!(
                "dependence violated: op {} @{} -> op {} @{} needs distance {}",
                e.from, pf.cycle, e.to, pt.cycle, e.latency
            ));
        }
    }
    // Slot uniqueness and legality.
    let mut seen = std::collections::HashSet::new();
    for (i, p) in sched.placements.iter().enumerate() {
        let class = block.ops[i].class();
        let plan = machine.slot_plan(p.cluster);
        if plan.slots_for(class) & (1 << p.slot) == 0 {
            return Err(format!("op {i}: class {class} on illegal slot {}", p.slot));
        }
        if !seen.insert((p.cycle, p.cluster, p.slot)) {
            return Err(format!("op {i}: slot collision at {p:?}"));
        }
        if p.cluster != block.clusters[i] {
            return Err(format!("op {i}: cluster changed by scheduler"));
        }
        let lat = u32::from(machine.latency_of(class));
        if p.cycle + lat > sched.n_cycles {
            return Err(format!("op {i} completes after block end"));
        }
    }
    if let Some(b) = sched.branch {
        if b.cycle != sched.n_cycles - 1 {
            return Err("branch not in last instruction".into());
        }
        if !seen.insert((b.cycle, b.cluster, b.slot)) {
            return Err("branch slot collision".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign_clusters;
    use crate::ir::{IrBlock, IrFunction, IrOp, VirtReg};
    use vliw_isa::Opcode;

    fn m() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    fn v(i: u32) -> VirtReg {
        VirtReg(i)
    }

    fn schedule_fn(f: &IrFunction) -> (crate::cluster::ClusteredFunction, Vec<BlockSchedule>) {
        f.validate().unwrap();
        let cf = assign_clusters(&m(), f);
        let scheds: Vec<BlockSchedule> =
            cf.blocks.iter().map(|b| schedule_block(&m(), b)).collect();
        for (b, s) in cf.blocks.iter().zip(&scheds) {
            verify_schedule(&m(), b, s).unwrap();
        }
        (cf, scheds)
    }

    #[test]
    fn wide_block_schedules_densely() {
        // 16 independent ALU ops on a 16-issue machine: 1 cycle + padding.
        let mut f = IrFunction::new("wide");
        for _ in 0..17 {
            f.fresh_vreg();
        }
        let ops: Vec<IrOp> = (0..16)
            .map(|i| IrOp::new(Opcode::Add).dst(v(i + 1)).imm(i as i32))
            .collect();
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let (_, scheds) = schedule_fn(&f);
        // 16 ALU ops fit one cycle; the return branch needs its own look:
        // it can share cycle 0's branch slot only if free — cluster 0 has
        // 4 ALUs in slot 0..3 so the branch pushes to cycle 1... but only
        // 4 ALU ops land on cluster 0; the branch slot (slot 3) holds an
        // ALU op. The scheduler may thus need 2 cycles.
        assert!(scheds[0].n_cycles <= 2);
    }

    #[test]
    fn chain_takes_chain_length() {
        let mut f = IrFunction::new("chain");
        for _ in 0..9 {
            f.fresh_vreg();
        }
        let ops: Vec<IrOp> = (0..8)
            .map(|i| IrOp::new(Opcode::Add).dst(v(i + 1)).srcs(&[v(i)]))
            .collect();
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let (_, scheds) = schedule_fn(&f);
        assert!(scheds[0].n_cycles >= 8);
    }

    #[test]
    fn latency_respected_across_loads() {
        let mut f = IrFunction::new("lat");
        for _ in 0..4 {
            f.fresh_vreg();
        }
        let s = f.fresh_stream();
        let ops = vec![
            IrOp::new(Opcode::Ldw).dst(v(1)).srcs(&[v(0)]).mem(s, false),
            IrOp::new(Opcode::Add).dst(v(2)).srcs(&[v(1), v(1)]),
        ];
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let (_, scheds) = schedule_fn(&f);
        let p = &scheds[0].placements;
        assert!(p[1].cycle >= p[0].cycle + 2);
    }

    #[test]
    fn mem_ops_serialize_on_single_unit() {
        // 3 independent loads of one cluster-bound chain: only 1 mem unit
        // per cluster, but loads on different streams may spread clusters.
        // Force one cluster by chaining address computation.
        let mut f = IrFunction::new("mem");
        for _ in 0..10 {
            f.fresh_vreg();
        }
        let s0 = f.fresh_stream();
        let ops = vec![
            IrOp::new(Opcode::Ldw)
                .dst(v(1))
                .srcs(&[v(0)])
                .mem(s0, false),
            IrOp::new(Opcode::Ldw)
                .dst(v(2))
                .srcs(&[v(1)])
                .mem(s0, false),
            IrOp::new(Opcode::Ldw)
                .dst(v(3))
                .srcs(&[v(2)])
                .mem(s0, false),
        ];
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let (_, scheds) = schedule_fn(&f);
        // Chain of 2-cycle loads: >= 1 + 2 + 2 cycles.
        assert!(scheds[0].n_cycles >= 5);
    }

    #[test]
    fn branch_is_last_and_after_predicate() {
        let mut f = IrFunction::new("br");
        for _ in 0..4 {
            f.fresh_vreg();
        }
        let ops = vec![
            IrOp::new(Opcode::Mov).dst(v(0)).imm(1),
            IrOp::new(Opcode::CmpLt).dst(v(1)).srcs(&[v(0), v(0)]),
        ];
        f.push_block(IrBlock::new(ops).with_term(Terminator::CondBranch {
            taken: 0,
            taken_permille: 500,
            pred: Some(v(1)),
        }));
        f.push_block(IrBlock::new(vec![]).with_term(Terminator::Return));
        let (cf, scheds) = schedule_fn(&f);
        let b = scheds[0].branch.expect("cond branch emits an op");
        assert_eq!(b.cycle, scheds[0].n_cycles - 1);
        // Predicate def completes before the branch issues.
        if let Terminator::CondBranch { pred: Some(p), .. } = cf.blocks[0].term {
            let def = cf.blocks[0]
                .ops
                .iter()
                .position(|o| o.dst == Some(p))
                .unwrap();
            assert!(b.cycle > scheds[0].placements[def].cycle);
        }
    }

    #[test]
    fn empty_fallthrough_block_gets_a_nop_cycle() {
        let mut f = IrFunction::new("empty");
        f.push_block(IrBlock::new(vec![]));
        f.push_block(IrBlock::new(vec![]).with_term(Terminator::Return));
        let (_, scheds) = schedule_fn(&f);
        assert_eq!(scheds[0].n_cycles, 1);
        assert!(scheds[0].branch.is_none());
    }

    #[test]
    fn block_padded_for_trailing_latency() {
        // A lone load: completes at cycle 1, so the block must be 2 long
        // (the branchless fall-through case).
        let mut f = IrFunction::new("pad");
        for _ in 0..2 {
            f.fresh_vreg();
        }
        let s = f.fresh_stream();
        f.push_block(IrBlock::new(vec![IrOp::new(Opcode::Ldw)
            .dst(v(1))
            .srcs(&[v(0)])
            .mem(s, false)]));
        f.push_block(IrBlock::new(vec![]).with_term(Terminator::Return));
        let (_, scheds) = schedule_fn(&f);
        assert_eq!(scheds[0].n_cycles, 2);
    }
}
