//! Machine configuration: cluster geometry, slot plan, latencies.
//!
//! The paper's base machine (§5.1): 4 clusters, 4-issue per cluster
//! (16-issue total), per cluster 4 ALUs + 2 multipliers + 1 load/store unit,
//! branch unit on cluster 0, multiply/memory latency 2 cycles, everything
//! else 1 cycle, 2-cycle taken-branch penalty, no branch predictor.

use crate::op::OpClass;
use crate::{MAX_CLUSTERS, MAX_ISSUE};
use std::fmt;

/// Errors produced when validating a [`MachineConfig`] or parsing a
/// [`crate::spec::MachineSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Cluster count outside `1..=MAX_CLUSTERS`.
    BadClusterCount(u8),
    /// Issue width outside `1..=MAX_ISSUE`.
    BadIssueWidth(u8),
    /// More fixed-slot functional units than issue slots.
    FixedUnitsExceedIssue {
        /// multipliers + memory units + branch unit requested
        fixed: u8,
        /// issue slots available
        issue: u8,
    },
    /// A latency of zero cycles was configured.
    ZeroLatency(OpClass),
    /// A machine-spec spelling matched neither a preset name nor the
    /// `CxI[+muls+mems]` grammar (see [`crate::spec::MachineSpec`]).
    UnknownSpec(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::BadClusterCount(n) => {
                write!(f, "cluster count {n} outside 1..={MAX_CLUSTERS}")
            }
            MachineError::BadIssueWidth(w) => {
                write!(f, "issue width {w} outside 1..={MAX_ISSUE}")
            }
            MachineError::FixedUnitsExceedIssue { fixed, issue } => write!(
                f,
                "fixed-slot units ({fixed}) exceed issue width ({issue}); \
                 slot classes must occupy disjoint slots"
            ),
            MachineError::ZeroLatency(c) => write!(f, "latency of class {c} must be >= 1"),
            MachineError::UnknownSpec(s) => {
                write!(f, "unknown machine spec {s:?}; valid specs: ")?;
                for p in crate::spec::MachineSpec::presets() {
                    write!(f, "{p}, ")?;
                }
                write!(f, "or CxI[+muls+mems] (e.g. 4x4+2+1)")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Which issue slots of a cluster each operation class may occupy.
///
/// The plan is derived from the functional-unit counts and is the concrete
/// form of the paper's footnote 1: "while ALU operations may be executed at
/// any issue slot, operations like memory load/store, multiply and branch can
/// only be executed at their fixed slots". Fixed-slot classes are assigned
/// *disjoint* slot ranges (multipliers first, then memory units, branch unit
/// in the last slot), which makes SMT merge feasibility a pure counting
/// problem — the property the paper's SMT merge-control hardware relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPlan {
    /// Bitmask of slots usable by multiply operations.
    pub mul_slots: u8,
    /// Bitmask of slots usable by memory operations.
    pub mem_slots: u8,
    /// Bitmask of slots usable by branch operations (empty on clusters
    /// without a branch unit).
    pub branch_slot: u8,
    /// Bitmask of all slots (ALU operations may use any of them).
    pub all_slots: u8,
}

impl SlotPlan {
    /// Slot mask available to a given class on this cluster.
    #[inline]
    pub fn slots_for(&self, class: OpClass) -> u8 {
        match class {
            OpClass::Alu => self.all_slots,
            OpClass::Mul => self.mul_slots,
            OpClass::Mem => self.mem_slots,
            OpClass::Branch => self.branch_slot,
        }
    }
}

/// Full description of the simulated machine.
///
/// Construct via [`MachineConfig::paper_baseline`] (the §5.1 machine) or
/// [`MachineConfig::new`] and refine with the builder-style `with_*` methods;
/// every constructor validates the geometry. Hashable, so compiled-image
/// caches can key by the geometry a program was built for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of clusters (1..=8).
    pub n_clusters: u8,
    /// Issue slots per cluster (1..=8).
    pub issue_per_cluster: u8,
    /// Multipliers per cluster (fixed slots).
    pub muls_per_cluster: u8,
    /// Load/store units per cluster (fixed slots).
    pub mems_per_cluster: u8,
    /// Bitmask of clusters owning a branch unit (VEX: cluster 0 only).
    pub branch_clusters: u8,
    /// General-purpose registers per cluster register file.
    pub regs_per_cluster: u16,
    /// Latency in cycles per operation class.
    pub latency: [u8; 4],
    /// Extra cycles lost after a taken branch (squash penalty, paper: 2).
    pub taken_branch_penalty: u8,
}

impl MachineConfig {
    /// The paper's evaluation machine: 4 clusters x 4-issue, 2 multipliers
    /// and 1 load/store unit per cluster, branch unit on cluster 0,
    /// mul/mem latency 2, taken-branch penalty 2 (paper §5.1).
    pub fn paper_baseline() -> Self {
        Self::new(4, 4).expect("paper baseline geometry is valid")
    }

    /// A machine with `n_clusters` clusters of `issue` slots, VEX-style
    /// functional-unit mix scaled to the issue width.
    ///
    /// Wide clusters (4+ slots) get the paper's mix: 2 multipliers, 1
    /// load/store unit, branch unit on cluster 0. Narrower clusters scale
    /// the mix down so the fixed-slot classes stay disjoint: 3-issue gets
    /// 1 multiplier + 1 memory unit + branch; 2-issue gets 1 multiplier +
    /// 1 memory unit and *no* branch unit; 1-issue is ALU-only.
    pub fn new(n_clusters: u8, issue: u8) -> Result<Self, MachineError> {
        // Branch capability exists on every cluster's last slot: under the
        // per-context cluster renaming of the multithreaded machine, each
        // context's (virtual) branch cluster may land on any physical
        // cluster. The compiler still emits branches on virtual cluster 0
        // only, as VEX does.
        let all = if n_clusters >= 8 {
            0xFF
        } else {
            (1u8 << n_clusters) - 1
        };
        let (muls, mems, branch_clusters) = match issue {
            0 => (0, 0, 0),
            1 => (0, 0, 0),
            2 => (1, 1, 0),
            3 => (1, 1, all),
            _ => (2, 1, all),
        };
        let cfg = MachineConfig {
            n_clusters,
            issue_per_cluster: issue,
            muls_per_cluster: muls,
            mems_per_cluster: mems,
            branch_clusters,
            regs_per_cluster: 64,
            latency: [1, 2, 2, 1],
            taken_branch_penalty: 2,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Override the functional-unit mix.
    pub fn with_units(mut self, muls: u8, mems: u8) -> Result<Self, MachineError> {
        self.muls_per_cluster = muls;
        self.mems_per_cluster = mems;
        self.validate()?;
        Ok(self)
    }

    /// Override the set of clusters owning a branch unit.
    pub fn with_branch_clusters(mut self, mask: u8) -> Result<Self, MachineError> {
        self.branch_clusters = mask;
        self.validate()?;
        Ok(self)
    }

    /// Check geometry invariants.
    pub fn validate(&self) -> Result<(), MachineError> {
        if self.n_clusters == 0 || self.n_clusters as usize > MAX_CLUSTERS {
            return Err(MachineError::BadClusterCount(self.n_clusters));
        }
        if self.issue_per_cluster == 0 || self.issue_per_cluster as usize > MAX_ISSUE {
            return Err(MachineError::BadIssueWidth(self.issue_per_cluster));
        }
        // Worst case fixed-unit pressure: a branch-owning cluster.
        let fixed =
            self.muls_per_cluster + self.mems_per_cluster + u8::from(self.branch_clusters != 0);
        if fixed > self.issue_per_cluster {
            return Err(MachineError::FixedUnitsExceedIssue {
                fixed,
                issue: self.issue_per_cluster,
            });
        }
        for class in OpClass::ALL {
            if self.latency[class.index()] == 0 {
                return Err(MachineError::ZeroLatency(class));
            }
        }
        Ok(())
    }

    /// Total machine issue width (`clusters * issue_per_cluster`).
    #[inline]
    pub fn total_issue(&self) -> usize {
        self.n_clusters as usize * self.issue_per_cluster as usize
    }

    /// Latency of an operation class in cycles.
    #[inline]
    pub fn latency_of(&self, class: OpClass) -> u8 {
        self.latency[class.index()]
    }

    /// Whether `cluster` owns a branch unit.
    #[inline]
    pub fn cluster_has_branch(&self, cluster: u8) -> bool {
        self.branch_clusters & (1 << cluster) != 0
    }

    /// The slot plan for `cluster`.
    ///
    /// Layout: multipliers occupy the lowest slots, memory units the next
    /// ones, the branch unit (if present on this cluster) the highest slot.
    /// ALUs back every slot. The fixed-class slot sets are disjoint by
    /// construction (guaranteed by [`MachineConfig::validate`]).
    pub fn slot_plan(&self, cluster: u8) -> SlotPlan {
        let w = self.issue_per_cluster;
        let all = mask_lo(w);
        let mul = mask_lo(self.muls_per_cluster);
        let mem = mask_lo(self.mems_per_cluster) << self.muls_per_cluster;
        let br = if self.cluster_has_branch(cluster) {
            1u8 << (w - 1)
        } else {
            0
        };
        debug_assert_eq!(mul & mem, 0);
        debug_assert_eq!((mul | mem) & br, 0);
        SlotPlan {
            mul_slots: mul,
            mem_slots: mem,
            branch_slot: br,
            all_slots: all,
        }
    }

    /// Per-cluster capacity of an operation class (how many ops of that
    /// class a single execution packet may carry on `cluster`).
    pub fn class_capacity(&self, cluster: u8, class: OpClass) -> u8 {
        match class {
            OpClass::Alu => self.issue_per_cluster,
            OpClass::Mul => self.muls_per_cluster,
            OpClass::Mem => self.mems_per_cluster,
            OpClass::Branch => u8::from(self.cluster_has_branch(cluster)),
        }
    }
}

#[inline]
fn mask_lo(n: u8) -> u8 {
    if n >= 8 {
        0xFF
    } else {
        (1u8 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_geometry() {
        let m = MachineConfig::paper_baseline();
        assert_eq!(m.n_clusters, 4);
        assert_eq!(m.issue_per_cluster, 4);
        assert_eq!(m.muls_per_cluster, 2);
        assert_eq!(m.mems_per_cluster, 1);
        assert_eq!(m.total_issue(), 16);
        assert_eq!(m.taken_branch_penalty, 2);
        assert_eq!(m.latency_of(OpClass::Mul), 2);
        assert_eq!(m.latency_of(OpClass::Mem), 2);
        assert_eq!(m.latency_of(OpClass::Alu), 1);
    }

    #[test]
    fn slot_plan_disjoint_fixed_classes() {
        let m = MachineConfig::paper_baseline();
        let p = m.slot_plan(0);
        assert_eq!(p.mul_slots, 0b0011);
        assert_eq!(p.mem_slots, 0b0100);
        assert_eq!(p.branch_slot, 0b1000);
        assert_eq!(p.all_slots, 0b1111);
        // Every cluster carries branch capability (per-context cluster
        // renaming may land any context's branch cluster anywhere).
        let p1 = m.slot_plan(1);
        assert_eq!(p1.branch_slot, 0b1000);
        // A cluster-0-only machine (no renaming) drops it elsewhere.
        let m1 = MachineConfig::paper_baseline()
            .with_branch_clusters(0b1)
            .unwrap();
        assert_eq!(m1.slot_plan(1).branch_slot, 0);
    }

    #[test]
    fn eight_issue_four_cluster_example_from_fig1() {
        // Figure 1 of the paper uses a 4-cluster 2-issue machine.
        let m = MachineConfig::new(4, 2).unwrap();
        assert_eq!(m.total_issue(), 8);
        let p = m.slot_plan(1);
        assert_eq!(p.all_slots, 0b11);
        assert_eq!(p.mul_slots, 0b01);
        assert_eq!(p.mem_slots, 0b10);
        // 2-issue clusters have no room for a dedicated branch slot.
        assert_eq!(m.branch_clusters, 0);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(matches!(
            MachineConfig::new(0, 4),
            Err(MachineError::BadClusterCount(0))
        ));
        assert!(matches!(
            MachineConfig::new(4, 0),
            Err(MachineError::BadIssueWidth(0))
        ));
        let too_many_units = MachineConfig::paper_baseline().with_units(4, 4);
        assert!(matches!(
            too_many_units,
            Err(MachineError::FixedUnitsExceedIssue { .. })
        ));
    }

    #[test]
    fn class_capacities_match_units() {
        let m = MachineConfig::paper_baseline();
        assert_eq!(m.class_capacity(0, OpClass::Alu), 4);
        assert_eq!(m.class_capacity(0, OpClass::Mul), 2);
        assert_eq!(m.class_capacity(0, OpClass::Mem), 1);
        assert_eq!(m.class_capacity(0, OpClass::Branch), 1);
        assert_eq!(m.class_capacity(3, OpClass::Branch), 1);
        let m1 = MachineConfig::paper_baseline()
            .with_branch_clusters(0b1)
            .unwrap();
        assert_eq!(m1.class_capacity(3, OpClass::Branch), 0);
    }

    #[test]
    fn branch_cluster_mask_roundtrip() {
        let m = MachineConfig::paper_baseline()
            .with_branch_clusters(0b0101)
            .unwrap();
        assert!(m.cluster_has_branch(0));
        assert!(!m.cluster_has_branch(1));
        assert!(m.cluster_has_branch(2));
    }
}
