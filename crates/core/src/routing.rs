//! Operation routing: building the concrete execution packet.
//!
//! When the merge network accepts a set of instructions, the per-cluster
//! *routing blocks* (paper Figure 2) move operations to free slots: ALU
//! operations may go to any slot, fixed-class operations stay within their
//! class's slot set. Because the machine's fixed-class slot sets are
//! disjoint, a greedy assignment — fixed classes first, ALUs into whatever
//! remains — succeeds exactly when the counting check
//! [`InstrSignature::smt_compatible`] passed. [`route_packet`] performs the
//! assignment; the simulator never routes a packet, and the property
//! tests (`crates/core/tests/prop_merge.rs`) call it to check the counting
//! argument.

use vliw_isa::{InstrSignature, MachineConfig, OpClass, Operation, VliwInstruction};

/// One operation of a merged execution packet, tagged with the port whose
/// instruction contributed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedOp {
    /// Contributing thread port.
    pub port: u8,
    /// The operation with its post-routing slot.
    pub op: Operation,
}

/// Routing failure: no free slot for an operation (can only happen when the
/// inputs were not validated by a merge check first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteError {
    /// Port whose operation could not be placed.
    pub port: u8,
    /// Cluster that ran out of slots.
    pub cluster: u8,
    /// Class of the unplaceable operation.
    pub class: OpClass,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no free {} slot on cluster {} for port {}",
            self.class, self.cluster, self.port
        )
    }
}

impl std::error::Error for RouteError {}

/// Route the operations of the accepted instructions onto concrete slots.
///
/// `parts` are (port, instruction) pairs in priority order. Returns the
/// routed operations sorted by (cluster, slot).
pub fn route_packet(
    machine: &MachineConfig,
    parts: &[(u8, &VliwInstruction)],
) -> Result<Vec<RoutedOp>, RouteError> {
    let mut taken = [0u8; vliw_isa::MAX_CLUSTERS];
    let mut out = Vec::with_capacity(parts.iter().map(|(_, i)| i.n_ops()).sum());

    // Fixed classes first (their slot sets are the scarce ones), ALUs last.
    for class in [OpClass::Branch, OpClass::Mem, OpClass::Mul, OpClass::Alu] {
        for &(port, instr) in parts {
            for op in instr.ops().iter().filter(|o| o.class() == class) {
                let plan = machine.slot_plan(op.cluster);
                let free = plan.slots_for(class) & !taken[op.cluster as usize];
                if free == 0 {
                    return Err(RouteError {
                        port,
                        cluster: op.cluster,
                        class,
                    });
                }
                let slot = free.trailing_zeros() as u8;
                taken[op.cluster as usize] |= 1 << slot;
                let mut routed = *op;
                routed.slot = slot;
                out.push(RoutedOp { port, op: routed });
            }
        }
    }
    out.sort_by_key(|r| (r.op.cluster, r.op.slot));
    Ok(out)
}

/// Combined signature of a packet (for checking against merge decisions).
pub fn packet_signature(routed: &[RoutedOp]) -> InstrSignature {
    let mut res = vliw_isa::ResourceVec::zero();
    let mut mask = 0u8;
    for r in routed {
        res.bump(r.op.cluster, r.op.class());
        mask |= 1 << r.op.cluster;
    }
    InstrSignature {
        res,
        clusters: mask,
        n_ops: routed.len() as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_isa::{InstrBuilder, Opcode};

    fn instr(machine: &MachineConfig, ops: &[(Opcode, u8)]) -> VliwInstruction {
        let mut b = InstrBuilder::new(machine);
        for &(opc, cluster) in ops {
            b.push(Operation::new(opc, cluster)).unwrap();
        }
        b.build()
    }

    #[test]
    fn routes_two_threads_into_one_cluster() {
        let m = MachineConfig::paper_baseline();
        let a = instr(&m, &[(Opcode::Add, 0), (Opcode::Ldw, 0)]);
        let b = instr(&m, &[(Opcode::Mpy, 0), (Opcode::Sub, 0)]);
        let routed = route_packet(&m, &[(0, &a), (1, &b)]).unwrap();
        assert_eq!(routed.len(), 4);
        // No slot reused.
        let mut seen = std::collections::HashSet::new();
        for r in &routed {
            assert!(seen.insert((r.op.cluster, r.op.slot)));
            let plan = m.slot_plan(r.op.cluster);
            assert!(plan.slots_for(r.op.class()) & (1 << r.op.slot) != 0);
        }
    }

    #[test]
    fn routing_fails_when_class_capacity_exceeded() {
        let m = MachineConfig::paper_baseline();
        let a = instr(&m, &[(Opcode::Ldw, 2)]);
        let b = instr(&m, &[(Opcode::Stw, 2)]);
        let err = route_packet(&m, &[(0, &a), (1, &b)]).unwrap_err();
        assert_eq!(err.class, OpClass::Mem);
        assert_eq!(err.cluster, 2);
        assert_eq!(err.port, 1);
    }

    #[test]
    fn packet_signature_matches_merge_arithmetic() {
        let m = MachineConfig::paper_baseline();
        let a = instr(&m, &[(Opcode::Add, 0), (Opcode::Mpy, 1)]);
        let b = instr(&m, &[(Opcode::Sub, 2)]);
        let routed = route_packet(&m, &[(0, &a), (1, &b)]).unwrap();
        let sig = packet_signature(&routed);
        assert_eq!(sig, a.signature().merged_with(b.signature()));
    }

    #[test]
    fn alu_ops_move_out_of_fixed_slots_way() {
        let m = MachineConfig::paper_baseline();
        // Four ALU ops from one thread would naturally occupy slots 0..3;
        // merging with a thread needing the mem slot must still fail (4+1
        // ops > 4 slots), but 3 ALU + ld fits because ALUs avoid slot 2.
        let a = instr(&m, &[(Opcode::Add, 0), (Opcode::Sub, 0), (Opcode::Shl, 0)]);
        let b = instr(&m, &[(Opcode::Ldw, 0)]);
        let routed = route_packet(&m, &[(0, &a), (1, &b)]).unwrap();
        let ld = routed.iter().find(|r| r.op.opcode == Opcode::Ldw).unwrap();
        assert_eq!(ld.op.slot, 2, "load must sit on the memory slot");
        assert_eq!(routed.len(), 4);
    }
}
