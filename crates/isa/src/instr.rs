//! VLIW instruction words: checked construction, signatures, slot placement.

use crate::machine::MachineConfig;
use crate::op::OpClass;
use crate::operation::Operation;
use crate::signature::{InstrSignature, ResourceVec};
use std::fmt;

/// Errors raised while building a [`VliwInstruction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstrError {
    /// Operation names a cluster the machine does not have.
    BadCluster(u8),
    /// Slot index beyond the cluster issue width.
    BadSlot {
        /// offending cluster
        cluster: u8,
        /// offending slot
        slot: u8,
    },
    /// Two operations were placed on the same (cluster, slot).
    SlotTaken {
        /// offending cluster
        cluster: u8,
        /// offending slot
        slot: u8,
    },
    /// Operation class not executable on the requested slot.
    ClassSlotMismatch {
        /// offending cluster
        cluster: u8,
        /// offending slot
        slot: u8,
        /// operation class that does not fit there
        class: OpClass,
    },
    /// No free slot remains for the operation class on that cluster.
    NoFreeSlot {
        /// offending cluster
        cluster: u8,
        /// operation class that could not be placed
        class: OpClass,
    },
    /// Intra-operation invariant violated (wrong-cluster operand, ...).
    BadOperation(String),
}

impl fmt::Display for InstrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrError::BadCluster(c) => write!(f, "cluster {c} out of range"),
            InstrError::BadSlot { cluster, slot } => {
                write!(f, "slot {slot} out of range on cluster {cluster}")
            }
            InstrError::SlotTaken { cluster, slot } => {
                write!(f, "slot {slot} on cluster {cluster} already taken")
            }
            InstrError::ClassSlotMismatch {
                cluster,
                slot,
                class,
            } => write!(
                f,
                "class {class} cannot execute on cluster {cluster} slot {slot}"
            ),
            InstrError::NoFreeSlot { cluster, class } => {
                write!(f, "no free {class} slot on cluster {cluster}")
            }
            InstrError::BadOperation(msg) => write!(f, "bad operation: {msg}"),
        }
    }
}

impl std::error::Error for InstrError {}

/// One VLIW instruction: a set of operations with concrete (cluster, slot)
/// placements, plus its precomputed merge signature.
///
/// Instructions are immutable once built; construct them through
/// [`InstrBuilder`], which enforces the machine's slot plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VliwInstruction {
    ops: Vec<Operation>,
    signature: InstrSignature,
}

impl VliwInstruction {
    /// The empty instruction (an explicit `nop` cycle).
    pub fn nop() -> Self {
        VliwInstruction {
            ops: Vec::new(),
            signature: InstrSignature::EMPTY,
        }
    }

    /// Operations, ordered by (cluster, slot).
    #[inline]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations in the word.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// True if the word carries no operations.
    #[inline]
    pub fn is_nop(&self) -> bool {
        self.ops.is_empty()
    }

    /// Precomputed merge signature.
    #[inline]
    pub fn signature(&self) -> InstrSignature {
        self.signature
    }

    /// Wrap raw operations into an instruction **without legality checks**.
    ///
    /// The signature is recomputed from the operations (so it is always
    /// self-consistent), but no slot-plan, cluster-range or operand
    /// validation happens — the result may be an illegal word for every
    /// machine. This exists for verification tooling (`vliw-analyze`'s
    /// mutation harness builds deliberately-corrupt instructions to prove
    /// the analyzer catches them); production code paths must go through
    /// [`InstrBuilder`].
    pub fn from_ops_unchecked(mut ops: Vec<Operation>) -> Self {
        ops.sort_by_key(|o| (o.cluster, o.slot));
        let mut res = ResourceVec::zero();
        let mut mask = 0u8;
        for op in &ops {
            res.bump(op.cluster, op.class());
            mask |= 1 << op.cluster;
        }
        let signature = InstrSignature {
            res,
            clusters: mask,
            n_ops: ops.len() as u8,
        };
        VliwInstruction { ops, signature }
    }

    /// The conditional/unconditional branch operation, if any.
    pub fn branch_op(&self) -> Option<&Operation> {
        self.ops.iter().find(|o| o.class() == OpClass::Branch)
    }

    /// Maximum completion latency of the word's operations.
    pub fn max_latency(&self, machine: &MachineConfig) -> u8 {
        self.ops
            .iter()
            .map(|o| machine.latency_of(o.class()))
            .max()
            .unwrap_or(1)
    }
}

/// Checked builder for [`VliwInstruction`].
///
/// `push` auto-places an operation in the lowest legal free slot of its
/// cluster; `push_at` places it at an explicit slot. Both enforce the
/// machine's [`crate::SlotPlan`].
pub struct InstrBuilder<'m> {
    machine: &'m MachineConfig,
    ops: Vec<Operation>,
    /// Per-cluster occupied-slot mask.
    taken: [u8; crate::MAX_CLUSTERS],
}

impl<'m> InstrBuilder<'m> {
    /// Start building an instruction for `machine`.
    pub fn new(machine: &'m MachineConfig) -> Self {
        InstrBuilder {
            machine,
            ops: Vec::with_capacity(machine.total_issue()),
            taken: [0; crate::MAX_CLUSTERS],
        }
    }

    /// Place `op` in the lowest legal free slot of its cluster.
    pub fn push(&mut self, op: Operation) -> Result<u8, InstrError> {
        let cluster = op.cluster;
        self.check_common(&op)?;
        let plan = self.machine.slot_plan(cluster);
        let legal = plan.slots_for(op.class());
        let free = legal & !self.taken[cluster as usize];
        if free == 0 {
            return Err(InstrError::NoFreeSlot {
                cluster,
                class: op.class(),
            });
        }
        let slot = free.trailing_zeros() as u8;
        self.place(op, slot);
        Ok(slot)
    }

    /// Place `op` at an explicit slot.
    pub fn push_at(&mut self, op: Operation, slot: u8) -> Result<(), InstrError> {
        let cluster = op.cluster;
        self.check_common(&op)?;
        if slot >= self.machine.issue_per_cluster {
            return Err(InstrError::BadSlot { cluster, slot });
        }
        let plan = self.machine.slot_plan(cluster);
        if plan.slots_for(op.class()) & (1 << slot) == 0 {
            return Err(InstrError::ClassSlotMismatch {
                cluster,
                slot,
                class: op.class(),
            });
        }
        if self.taken[cluster as usize] & (1 << slot) != 0 {
            return Err(InstrError::SlotTaken { cluster, slot });
        }
        self.place(op, slot);
        Ok(())
    }

    fn check_common(&self, op: &Operation) -> Result<(), InstrError> {
        if op.cluster >= self.machine.n_clusters {
            return Err(InstrError::BadCluster(op.cluster));
        }
        op.check().map_err(InstrError::BadOperation)?;
        Ok(())
    }

    fn place(&mut self, mut op: Operation, slot: u8) {
        op.slot = slot;
        self.taken[op.cluster as usize] |= 1 << slot;
        self.ops.push(op);
    }

    /// Number of operations placed so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing was placed yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finish: sort operations by (cluster, slot) and compute the signature.
    pub fn build(mut self) -> VliwInstruction {
        self.ops.sort_by_key(|o| (o.cluster, o.slot));
        let mut res = ResourceVec::zero();
        let mut mask = 0u8;
        for op in &self.ops {
            res.bump(op.cluster, op.class());
            mask |= 1 << op.cluster;
        }
        let signature = InstrSignature {
            res,
            clusters: mask,
            n_ops: self.ops.len() as u8,
        };
        VliwInstruction {
            ops: self.ops,
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;
    use crate::operation::{Operation, Reg};

    fn machine() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    #[test]
    fn auto_placement_respects_slot_plan() {
        let m = machine();
        let mut b = InstrBuilder::new(&m);
        // Memory op must land on slot 2 (after the two mul slots).
        let s = b.push(Operation::new(Opcode::Ldw, 0)).unwrap();
        assert_eq!(s, 2);
        // Multiplies land on slots 0 and 1.
        assert_eq!(b.push(Operation::new(Opcode::Mpy, 0)).unwrap(), 0);
        assert_eq!(b.push(Operation::new(Opcode::Mpyl, 0)).unwrap(), 1);
        // Third multiply has no slot.
        assert!(matches!(
            b.push(Operation::new(Opcode::Mpyh, 0)),
            Err(InstrError::NoFreeSlot { .. })
        ));
        // ALU fills the remaining slot 3.
        assert_eq!(b.push(Operation::new(Opcode::Add, 0)).unwrap(), 3);
        // Cluster now full.
        assert!(matches!(
            b.push(Operation::new(Opcode::Sub, 0)),
            Err(InstrError::NoFreeSlot { .. })
        ));
        let i = b.build();
        assert_eq!(i.n_ops(), 4);
        assert_eq!(i.signature().clusters, 0b0001);
    }

    #[test]
    fn branch_only_on_branch_cluster() {
        // Restrict branch capability to cluster 0 (the no-renaming form).
        let m = machine().with_branch_clusters(0b1).unwrap();
        let mut b = InstrBuilder::new(&m);
        assert_eq!(b.push(Operation::new(Opcode::Goto, 0)).unwrap(), 3);
        let mut b = InstrBuilder::new(&m);
        assert!(matches!(
            b.push(Operation::new(Opcode::Goto, 1)),
            Err(InstrError::NoFreeSlot { .. })
        ));
    }

    #[test]
    fn explicit_placement_checks() {
        let m = machine();
        let mut b = InstrBuilder::new(&m);
        // Mul on an ALU-only slot is rejected.
        assert!(matches!(
            b.push_at(Operation::new(Opcode::Mpy, 0), 3),
            Err(InstrError::ClassSlotMismatch { .. })
        ));
        b.push_at(Operation::new(Opcode::Add, 0), 3).unwrap();
        assert!(matches!(
            b.push_at(Operation::new(Opcode::Sub, 0), 3),
            Err(InstrError::SlotTaken { .. })
        ));
        assert!(matches!(
            b.push_at(Operation::new(Opcode::Add, 9), 0),
            Err(InstrError::BadCluster(9))
        ));
        assert!(matches!(
            b.push_at(Operation::new(Opcode::Add, 0), 8),
            Err(InstrError::BadSlot { .. })
        ));
    }

    #[test]
    fn signature_matches_ops() {
        let m = machine();
        let mut b = InstrBuilder::new(&m);
        b.push(Operation::new(Opcode::Add, 0)).unwrap();
        b.push(Operation::new(Opcode::Mpy, 1)).unwrap();
        b.push(Operation::new(Opcode::Ldw, 3)).unwrap();
        let i = b.build();
        let sig = i.signature();
        assert_eq!(sig.n_ops, 3);
        assert_eq!(sig.clusters, 0b1011);
        assert_eq!(sig.res.get(0, OpClass::Alu), 1);
        assert_eq!(sig.res.get(1, OpClass::Mul), 1);
        assert_eq!(sig.res.get(3, OpClass::Mem), 1);
    }

    #[test]
    fn ops_sorted_by_cluster_slot() {
        let m = machine();
        let mut b = InstrBuilder::new(&m);
        b.push(Operation::new(Opcode::Add, 3)).unwrap();
        b.push(Operation::new(Opcode::Add, 0)).unwrap();
        b.push(Operation::new(Opcode::Sub, 0)).unwrap();
        let i = b.build();
        let placements: Vec<(u8, u8)> = i.ops().iter().map(|o| (o.cluster, o.slot)).collect();
        let mut sorted = placements.clone();
        sorted.sort();
        assert_eq!(placements, sorted);
    }

    #[test]
    fn nop_is_empty() {
        let i = VliwInstruction::nop();
        assert!(i.is_nop());
        assert_eq!(i.signature(), InstrSignature::EMPTY);
    }

    #[test]
    fn bad_operand_rejected_at_build_time() {
        let m = machine();
        let mut b = InstrBuilder::new(&m);
        let op = Operation::new(Opcode::Add, 0).with_dest(Reg::new(1, 0));
        assert!(matches!(b.push(op), Err(InstrError::BadOperation(_))));
    }

    #[test]
    fn max_latency_reflects_classes() {
        let m = machine();
        let mut b = InstrBuilder::new(&m);
        b.push(Operation::new(Opcode::Add, 0)).unwrap();
        let i = b.build();
        assert_eq!(i.max_latency(&m), 1);
        let mut b = InstrBuilder::new(&m);
        b.push(Operation::new(Opcode::Ldw, 0)).unwrap();
        let i = b.build();
        assert_eq!(i.max_latency(&m), 2);
    }
}
