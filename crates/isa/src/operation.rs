//! Concrete operations: opcode + registers + placement + timing annotations.

use crate::op::{OpClass, Opcode};
use std::fmt;

/// A register reference inside a cluster register file.
///
/// Clustered VLIWs have one architectural register file per cluster; an
/// operation may only name registers of the cluster it executes on (the
/// cluster assigner inserts [`Opcode::Copy`] operations to move values
/// between files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg {
    /// Owning cluster.
    pub cluster: u8,
    /// Register index within the cluster file.
    pub index: u16,
}

impl Reg {
    /// Construct a register reference.
    #[inline]
    pub const fn new(cluster: u8, index: u16) -> Self {
        Reg { cluster, index }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$r{}.{}", self.cluster, self.index)
    }
}

/// Timing-relevant annotation for a memory operation.
///
/// The simulator is trace-driven: it does not interpret data values, but it
/// must generate a realistic address stream to drive the data cache. Each
/// static memory operation carries the id of the address stream it draws
/// from (streams are owned by the executing thread, see `vliw-workloads`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemInfo {
    /// Address stream this operation draws addresses from.
    pub stream: u16,
    /// True for stores (write accesses), false for loads/prefetches.
    pub is_store: bool,
}

/// Timing-relevant annotation for a branch operation.
///
/// `taken_permille` drives the simulator's deterministic branch-outcome
/// draw; `target` names the successor basic block taken branches redirect
/// to (the fall-through successor is implicit in the block layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Probability the branch is taken, in 1/1000 units (0..=1000).
    pub taken_permille: u16,
    /// Block id of the taken-path successor.
    pub target: u32,
}

/// One operation (one "syllable") of a VLIW instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operation {
    /// What the operation does.
    pub opcode: Opcode,
    /// Cluster the operation executes on.
    pub cluster: u8,
    /// Issue slot within the cluster (filled in by the scheduler/builder).
    pub slot: u8,
    /// Destination register, if the opcode writes one.
    pub dest: Option<Reg>,
    /// Source registers (up to 3; unused entries are `None`).
    pub srcs: [Option<Reg>; 3],
    /// Immediate operand, if any.
    pub imm: Option<i32>,
    /// Memory annotation for mem-class opcodes.
    pub mem: Option<MemInfo>,
    /// Branch annotation for branch-class opcodes.
    pub branch: Option<BranchInfo>,
}

impl Operation {
    /// A bare operation on `cluster` with no operands wired yet.
    pub fn new(opcode: Opcode, cluster: u8) -> Self {
        Operation {
            opcode,
            cluster,
            slot: 0,
            dest: None,
            srcs: [None; 3],
            imm: None,
            mem: None,
            branch: None,
        }
    }

    /// Set the destination register.
    pub fn with_dest(mut self, dest: Reg) -> Self {
        self.dest = Some(dest);
        self
    }

    /// Set the source registers from a slice (at most 3).
    pub fn with_srcs(mut self, srcs: &[Reg]) -> Self {
        assert!(srcs.len() <= 3, "at most 3 sources");
        for (i, r) in srcs.iter().enumerate() {
            self.srcs[i] = Some(*r);
        }
        self
    }

    /// Set the immediate operand.
    pub fn with_imm(mut self, imm: i32) -> Self {
        self.imm = Some(imm);
        self
    }

    /// Attach a branch annotation (must be a branch-class opcode).
    pub fn with_branch(mut self, branch: BranchInfo) -> Self {
        debug_assert_eq!(self.opcode.class(), OpClass::Branch);
        self.branch = Some(branch);
        self
    }

    /// Functional-unit class of this operation.
    #[inline]
    pub fn class(&self) -> OpClass {
        self.opcode.class()
    }

    /// Number of register sources actually wired.
    pub fn n_srcs(&self) -> usize {
        self.srcs.iter().filter(|s| s.is_some()).count()
    }

    /// Iterator over wired source registers.
    pub fn src_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().filter_map(|s| *s)
    }

    /// Check intra-operation invariants: operands live on the executing
    /// cluster, annotations match the opcode class.
    ///
    /// [`Opcode::Copy`] is the one exception: it executes on the *source*
    /// cluster (occupying an issue slot and the inter-cluster bus there)
    /// and writes a register in another cluster's file.
    pub fn check(&self) -> Result<(), String> {
        if let Some(d) = self.dest {
            if d.cluster != self.cluster && self.opcode != Opcode::Copy {
                return Err(format!(
                    "dest {d} not on executing cluster {}",
                    self.cluster
                ));
            }
            if !self.opcode.has_dest() {
                return Err(format!("{} cannot write a destination", self.opcode));
            }
        }
        for s in self.src_regs() {
            if s.cluster != self.cluster {
                return Err(format!("src {s} not on executing cluster {}", self.cluster));
            }
        }
        if self.mem.is_some() && self.class() != OpClass::Mem {
            return Err(format!("mem annotation on non-mem opcode {}", self.opcode));
        }
        if self.branch.is_some() && self.class() != OpClass::Branch {
            return Err(format!(
                "branch annotation on non-branch opcode {}",
                self.opcode
            ));
        }
        if let Some(b) = self.branch {
            if b.taken_permille > 1000 {
                return Err(format!("taken_permille {} > 1000", b.taken_permille));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        if let Some(d) = self.dest {
            write!(f, " {d} =")?;
        }
        for s in self.src_regs() {
            write!(f, " {s}")?;
        }
        if let Some(i) = self.imm {
            write!(f, " #{i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_operands() {
        let op = Operation::new(Opcode::Add, 2)
            .with_dest(Reg::new(2, 5))
            .with_srcs(&[Reg::new(2, 1), Reg::new(2, 2)])
            .with_imm(4);
        assert_eq!(op.n_srcs(), 2);
        assert_eq!(op.dest, Some(Reg::new(2, 5)));
        assert_eq!(op.imm, Some(4));
        assert!(op.check().is_ok());
    }

    #[test]
    fn cross_cluster_operand_rejected() {
        let op = Operation::new(Opcode::Add, 0).with_dest(Reg::new(1, 0));
        assert!(op.check().is_err());
        let op = Operation::new(Opcode::Add, 0).with_srcs(&[Reg::new(3, 0)]);
        assert!(op.check().is_err());
    }

    #[test]
    fn annotation_class_mismatch_rejected() {
        let mut op = Operation::new(Opcode::Add, 0);
        op.mem = Some(MemInfo {
            stream: 0,
            is_store: false,
        });
        assert!(op.check().is_err());

        let mut op = Operation::new(Opcode::Ldw, 0);
        op.branch = Some(BranchInfo {
            taken_permille: 500,
            target: 1,
        });
        assert!(op.check().is_err());
    }

    #[test]
    fn store_with_dest_rejected() {
        let op = Operation::new(Opcode::Stw, 0).with_dest(Reg::new(0, 1));
        assert!(op.check().is_err());
    }

    #[test]
    fn branch_probability_bounds() {
        let op = Operation::new(Opcode::Br, 0).with_branch(BranchInfo {
            taken_permille: 1001,
            target: 0,
        });
        assert!(op.check().is_err());
    }

    #[test]
    fn display_formats() {
        let op = Operation::new(Opcode::Add, 1)
            .with_dest(Reg::new(1, 3))
            .with_srcs(&[Reg::new(1, 1)]);
        assert_eq!(format!("{op}"), "add $r1.3 = $r1.1");
    }
}
