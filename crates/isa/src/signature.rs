//! Packed per-cluster resource usage summaries.
//!
//! The merge-control hardware of the paper never looks at full instructions:
//!
//! * CSMT merge control inspects only *which clusters* an instruction uses
//!   (one bit per cluster) — [`ClusterMask`];
//! * SMT merge control inspects *per-cluster, per-class operation counts*
//!   (how many ALU/multiply/memory/branch syllables land on each cluster) —
//!   [`ResourceVec`].
//!
//! The simulator evaluates a merge network every cycle, so both checks are
//! packed into machine words: a [`ResourceVec`] holds one byte per
//! (cluster, class) counter in two `u128` lanes (clusters 0..3 in `lo`,
//! 4..7 in `hi`). The per-class capacity test is a pair of adds plus a
//! mask — a classic SWAR saturation check. Counts are bounded by the issue
//! width (<= 8), so the high bit of every byte is free to act as the guard
//! bit. The per-cluster issue-width test folds each cluster's four bytes
//! into one 32-bit total (a byte-lane horizontal add) and guards bit 15 of
//! each total the same way, so the whole SMT check has no branch and no
//! loop.

use crate::machine::MachineConfig;
use crate::op::OpClass;
use crate::MAX_CLUSTERS;
use std::fmt;

/// One bit per cluster used by an instruction.
pub type ClusterMask = u8;

const HI_BITS: u128 = 0x8080_8080_8080_8080_8080_8080_8080_8080;
/// The low byte of every 16-bit lane.
const BYTE_PAIRS: u128 = 0x00FF_00FF_00FF_00FF_00FF_00FF_00FF_00FF;
/// The low half of every 32-bit (per-cluster) lane.
const HALF_PAIRS: u128 = 0x0000_FFFF_0000_FFFF_0000_FFFF_0000_FFFF;
/// The guard bit (bit 15) of every 32-bit per-cluster total.
const TOTAL_GUARDS: u128 = 0x0000_8000_0000_8000_0000_8000_0000_8000;
/// Clusters per `u128` lane (4 clusters x 4 classes x 1 byte = 16 bytes).
const CLUSTERS_PER_LANE: u8 = 4;

/// Per-cluster operation totals of one lane: each cluster's four class
/// bytes summed into the low 16 bits of its 32-bit lane.
#[inline]
fn cluster_totals(lane: u128) -> u128 {
    let pairs = (lane & BYTE_PAIRS) + ((lane >> 8) & BYTE_PAIRS);
    (pairs & HALF_PAIRS) + ((pairs >> 16) & HALF_PAIRS)
}

/// Per-cluster, per-class operation counts packed one byte per counter.
///
/// Counter for `(cluster c, class k)` lives at byte `(c % 4) * 4 + k` of
/// lane `c / 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResourceVec {
    /// Clusters 0..=3.
    pub lo: u128,
    /// Clusters 4..=7.
    pub hi: u128,
}

impl ResourceVec {
    /// The empty usage vector.
    #[inline]
    pub const fn zero() -> Self {
        ResourceVec { lo: 0, hi: 0 }
    }

    #[inline]
    fn shift_of(cluster: u8, class: OpClass) -> u32 {
        ((cluster % CLUSTERS_PER_LANE) as u32 * 4 + class.index() as u32) * 8
    }

    /// Count for `(cluster, class)`.
    #[inline]
    pub fn get(&self, cluster: u8, class: OpClass) -> u8 {
        debug_assert!((cluster as usize) < MAX_CLUSTERS);
        let lane = if cluster < CLUSTERS_PER_LANE {
            self.lo
        } else {
            self.hi
        };
        (lane >> Self::shift_of(cluster, class)) as u8
    }

    /// Increment the counter for `(cluster, class)` by one.
    #[inline]
    pub fn bump(&mut self, cluster: u8, class: OpClass) {
        debug_assert!((cluster as usize) < MAX_CLUSTERS);
        let inc = 1u128 << Self::shift_of(cluster, class);
        if cluster < CLUSTERS_PER_LANE {
            self.lo += inc;
        } else {
            self.hi += inc;
        }
    }

    /// Component-wise sum of two usage vectors.
    ///
    /// Sound as long as every resulting byte stays below 128; merge logic
    /// only sums vectors whose per-byte values are bounded by the issue
    /// width, so sums stay tiny and never carry across bytes.
    #[inline]
    pub fn sum(self, other: ResourceVec) -> ResourceVec {
        debug_assert_eq!(self.lo & HI_BITS, 0);
        debug_assert_eq!(other.lo & HI_BITS, 0);
        ResourceVec {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }

    /// True if any counter of `self` exceeds the corresponding capacity.
    ///
    /// `caps.addend_*` hold `0x7F - cap` per byte, so `v > cap` iff
    /// `v + (0x7F - cap)` sets the guard bit `0x80`.
    #[inline]
    pub fn exceeds(self, caps: &ResourceCaps) -> bool {
        self.class_guards(caps) != 0
    }

    /// The guard bit of every counter over its class capacity.
    #[inline]
    fn class_guards(self, caps: &ResourceCaps) -> u128 {
        ((self.lo + caps.addend_lo) | (self.hi + caps.addend_hi)) & HI_BITS
    }

    /// Total operation count across all clusters and classes.
    pub fn total_ops(self) -> u32 {
        let bytes = |v: u128| v.to_le_bytes().iter().map(|&b| u32::from(b)).sum::<u32>();
        bytes(self.lo) + bytes(self.hi)
    }

    /// Per-cluster total operation count (all classes).
    #[inline]
    pub fn cluster_total(self, cluster: u8) -> u32 {
        let lane = if cluster < CLUSTERS_PER_LANE {
            self.lo
        } else {
            self.hi
        };
        let word = (lane >> ((cluster % CLUSTERS_PER_LANE) as u32 * 32)) as u32;
        (word & 0xFF) + ((word >> 8) & 0xFF) + ((word >> 16) & 0xFF) + ((word >> 24) & 0xFF)
    }

    /// Move every counter of cluster `c` to cluster `(c + by) % n_clusters`
    /// one by one: the rotation of cluster counts no preset geometry uses,
    /// kept out of line so the lane rotates inline.
    #[cold]
    #[inline(never)]
    fn rotate_counters(self, by: u8, n_clusters: u8) -> ResourceVec {
        let mut out = ResourceVec::zero();
        for c in 0..n_clusters {
            let dst = (c + by) % n_clusters;
            for k in OpClass::ALL {
                for _ in 0..self.get(c, k) {
                    out.bump(dst, k);
                }
            }
        }
        out
    }

    /// Derive the cluster usage mask (bit c set iff cluster c has any op).
    pub fn cluster_mask(self) -> ClusterMask {
        let mut mask = 0u8;
        for c in 0..MAX_CLUSTERS as u8 {
            if self.cluster_total(c) != 0 {
                mask |= 1 << c;
            }
        }
        mask
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in 0..MAX_CLUSTERS as u8 {
            let counts: Vec<u8> = OpClass::ALL.iter().map(|&k| self.get(c, k)).collect();
            if counts.iter().all(|&x| x == 0) {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(
                f,
                "c{c}[a{} m{} l{} b{}]",
                counts[0], counts[1], counts[2], counts[3]
            )?;
        }
        if first {
            write!(f, "empty")?;
        }
        Ok(())
    }
}

/// Precomputed per-(cluster, class) capacities in SWAR-check form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceCaps {
    /// Per-byte `0x7F - capacity` values for clusters 0..=3.
    pub addend_lo: u128,
    /// Per-byte `0x7F - capacity` values for clusters 4..=7.
    pub addend_hi: u128,
    /// Per-32-bit-lane `0x7FFF - issue width` values for clusters 0..=3.
    pub issue_addend_lo: u128,
    /// Per-32-bit-lane `0x7FFF - issue width` values for clusters 4..=7.
    pub issue_addend_hi: u128,
}

impl ResourceCaps {
    /// Derive capacities from a machine description. Clusters beyond the
    /// machine get capacity and issue width 0, so any op placed there
    /// trips the check.
    pub fn of(machine: &MachineConfig) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        let mut issue_lo = 0u128;
        let mut issue_hi = 0u128;
        for c in 0..MAX_CLUSTERS as u8 {
            let in_machine = c < machine.n_clusters;
            let issue = if in_machine {
                machine.issue_per_cluster
            } else {
                0
            };
            let total_addend =
                u128::from(0x7FFF - u16::from(issue)) << ((c % CLUSTERS_PER_LANE) as u32 * 32);
            for k in OpClass::ALL {
                let cap = if in_machine {
                    machine.class_capacity(c, k)
                } else {
                    0
                };
                let byte = (c % CLUSTERS_PER_LANE) as usize * 4 + k.index();
                if c < CLUSTERS_PER_LANE {
                    lo[byte] = 0x7F - cap;
                } else {
                    hi[byte] = 0x7F - cap;
                }
            }
            if c < CLUSTERS_PER_LANE {
                issue_lo |= total_addend;
            } else {
                issue_hi |= total_addend;
            }
        }
        ResourceCaps {
            addend_lo: u128::from_le_bytes(lo),
            addend_hi: u128::from_le_bytes(hi),
            issue_addend_lo: issue_lo,
            issue_addend_hi: issue_hi,
        }
    }
}

/// Compact, precomputed summary of one VLIW instruction, sufficient for all
/// merge-control decisions and cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InstrSignature {
    /// Per-cluster per-class operation counts.
    pub res: ResourceVec,
    /// Clusters used by the instruction.
    pub clusters: ClusterMask,
    /// Total operation count (for IPC accounting).
    pub n_ops: u8,
}

impl InstrSignature {
    /// The empty signature (a fully vacant instruction / bubble).
    pub const EMPTY: InstrSignature = InstrSignature {
        res: ResourceVec { lo: 0, hi: 0 },
        clusters: 0,
        n_ops: 0,
    };

    /// Signature of the union of two instructions (assumes the merge was
    /// validated first).
    #[inline]
    pub fn merged_with(self, other: InstrSignature) -> InstrSignature {
        InstrSignature {
            res: self.res.sum(other.res),
            clusters: self.clusters | other.clusters,
            n_ops: self.n_ops + other.n_ops,
        }
    }

    /// Cluster-level conflict test — the CSMT merge condition (paper §2.1):
    /// two instructions may merge iff they use disjoint clusters.
    #[inline]
    pub fn cluster_disjoint(self, other: InstrSignature) -> bool {
        self.clusters & other.clusters == 0
    }

    /// Rotate the signature's cluster usage by `by` positions (mod
    /// `n_clusters`).
    ///
    /// Multithreaded clustered machines wire each hardware context's
    /// virtual clusters onto physical clusters with a fixed per-context
    /// rotation, so that compact (few-cluster) threads occupy *different*
    /// physical clusters and can merge at cluster level. Every preset
    /// geometry has 2, 4 or 8 clusters, where the counters move as whole
    /// 32-bit cluster lanes: a rotate of the low 64 bits, of `lo`, or of
    /// the 256-bit `(lo, hi)` pair, with no division unless `by >=
    /// n_clusters`. Other cluster counts rebuild the counters one by one.
    #[inline]
    pub fn rotate_clusters(self, by: u8, n_clusters: u8) -> InstrSignature {
        if by == 0 || self.clusters == 0 {
            return self;
        }
        let by = if by >= n_clusters {
            by % n_clusters
        } else {
            by
        };
        if by == 0 {
            return self;
        }
        let n = u32::from(n_clusters);
        let by32 = u32::from(by);
        let mask_n: u16 = (1u16 << n) - 1;
        let m = u16::from(self.clusters) & mask_n;
        let clusters = (((m << by32) | (m >> (n - by32))) & mask_n) as u8;
        let bits = 32 * by32;
        let res = match n_clusters {
            2 => ResourceVec {
                lo: u128::from((self.res.lo as u64).rotate_left(bits)),
                hi: 0,
            },
            4 => ResourceVec {
                lo: self.res.lo.rotate_left(bits),
                hi: 0,
            },
            8 => {
                // Rotating by four clusters swaps the lanes; the rest is a
                // double-width shift.
                let (a, b) = if by >= CLUSTERS_PER_LANE {
                    (self.res.hi, self.res.lo)
                } else {
                    (self.res.lo, self.res.hi)
                };
                let s = bits % 128;
                if s == 0 {
                    ResourceVec { lo: a, hi: b }
                } else {
                    ResourceVec {
                        lo: (a << s) | (b >> (128 - s)),
                        hi: (b << s) | (a >> (128 - s)),
                    }
                }
            }
            _ => self.res.rotate_counters(by, n_clusters),
        };
        InstrSignature {
            res,
            clusters,
            n_ops: self.n_ops,
        }
    }

    /// Operation-level conflict test — the SMT merge condition: the combined
    /// per-cluster per-class counts must fit the machine capacities *and*
    /// the combined per-cluster totals must fit the issue width.
    ///
    /// Because the machine assigns disjoint slot sets to the fixed classes
    /// (see [`MachineConfig::slot_plan`]) these counting checks are exact:
    /// they succeed iff a conflict-free slot assignment (routing) exists.
    ///
    /// Both checks run on every cluster at once, with no branch: the class
    /// guard bits of [`ResourceVec::exceeds`] and, per cluster, the guard
    /// bit of `total + (0x7FFF - issue)`, which is set iff `total > issue`.
    #[inline]
    pub fn smt_compatible(self, other: InstrSignature, caps: &ResourceCaps) -> bool {
        let sum = self.res.sum(other.res);
        let issue = (cluster_totals(sum.lo) + caps.issue_addend_lo)
            | (cluster_totals(sum.hi) + caps.issue_addend_hi);
        sum.class_guards(caps) | (issue & TOTAL_GUARDS) == 0
    }
}

impl fmt::Display for InstrSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sig{{ops={}, clusters={:04b}, {}}}",
            self.n_ops, self.clusters, self.res
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn caps() -> ResourceCaps {
        ResourceCaps::of(&MachineConfig::paper_baseline())
    }

    fn sig(parts: &[(u8, OpClass, u8)]) -> InstrSignature {
        let mut res = ResourceVec::zero();
        let mut n = 0u8;
        let mut mask = 0u8;
        for &(cluster, class, count) in parts {
            for _ in 0..count {
                res.bump(cluster, class);
                n += 1;
            }
            if count > 0 {
                mask |= 1 << cluster;
            }
        }
        InstrSignature {
            res,
            clusters: mask,
            n_ops: n,
        }
    }

    #[test]
    fn bump_and_get_roundtrip() {
        let mut v = ResourceVec::zero();
        v.bump(0, OpClass::Alu);
        v.bump(0, OpClass::Alu);
        v.bump(3, OpClass::Mem);
        v.bump(7, OpClass::Mul);
        assert_eq!(v.get(0, OpClass::Alu), 2);
        assert_eq!(v.get(3, OpClass::Mem), 1);
        assert_eq!(v.get(7, OpClass::Mul), 1);
        assert_eq!(v.get(1, OpClass::Mul), 0);
        assert_eq!(v.total_ops(), 4);
        assert_eq!(v.cluster_mask(), 0b1000_1001);
    }

    #[test]
    fn exceeds_detects_class_overflow() {
        let c = caps();
        // 2 muls fit on a cluster, 3 do not.
        assert!(!sig(&[(1, OpClass::Mul, 2)]).res.exceeds(&c));
        assert!(sig(&[(1, OpClass::Mul, 3)]).res.exceeds(&c));
        // 1 mem fits, 2 do not.
        assert!(!sig(&[(2, OpClass::Mem, 1)]).res.exceeds(&c));
        assert!(sig(&[(2, OpClass::Mem, 2)]).res.exceeds(&c));
        // One branch per cluster fits; two do not.
        assert!(!sig(&[(0, OpClass::Branch, 1)]).res.exceeds(&c));
        assert!(sig(&[(1, OpClass::Branch, 2)]).res.exceeds(&c));
        // A cluster-0-only branch machine rejects branches elsewhere.
        let m1 = MachineConfig::paper_baseline()
            .with_branch_clusters(0b1)
            .unwrap();
        let c1 = ResourceCaps::of(&m1);
        assert!(sig(&[(1, OpClass::Branch, 1)]).res.exceeds(&c1));
        // Clusters beyond the machine have zero capacity.
        assert!(sig(&[(5, OpClass::Alu, 1)]).res.exceeds(&c));
    }

    #[test]
    fn smt_compat_counts_total_issue() {
        let c = caps();
        // 3 ALU + 2 MUL on one cluster = 5 ops > 4 issue slots even though
        // each class individually fits.
        let a = sig(&[(0, OpClass::Alu, 3)]);
        let b = sig(&[(0, OpClass::Mul, 2)]);
        assert!(!a.smt_compatible(b, &c));
        // 2 ALU + 2 MUL = 4 ops fits exactly.
        let a = sig(&[(0, OpClass::Alu, 2)]);
        assert!(a.smt_compatible(b, &c));
    }

    #[test]
    fn csmt_is_stricter_than_smt() {
        let c = caps();
        let a = sig(&[(0, OpClass::Alu, 1)]);
        let b = sig(&[(0, OpClass::Alu, 1)]);
        assert!(a.smt_compatible(b, &c));
        assert!(!a.cluster_disjoint(b));
        let d = sig(&[(1, OpClass::Alu, 1)]);
        assert!(a.cluster_disjoint(d));
        assert!(a.smt_compatible(d, &c));
    }

    #[test]
    fn merged_signature_accumulates() {
        let a = sig(&[(0, OpClass::Alu, 2), (1, OpClass::Mem, 1)]);
        let b = sig(&[(2, OpClass::Mul, 1)]);
        let m = a.merged_with(b);
        assert_eq!(m.n_ops, 4);
        assert_eq!(m.clusters, 0b0111);
        assert_eq!(m.res.get(0, OpClass::Alu), 2);
        assert_eq!(m.res.get(2, OpClass::Mul), 1);
    }

    #[test]
    fn empty_signature_merges_with_anything() {
        let c = caps();
        let a = sig(&[(0, OpClass::Alu, 4)]);
        assert!(InstrSignature::EMPTY.smt_compatible(a, &c));
        assert!(InstrSignature::EMPTY.cluster_disjoint(a));
        assert_eq!(InstrSignature::EMPTY.merged_with(a), a);
    }

    #[test]
    fn cluster_totals_per_lane() {
        let a = sig(&[(0, OpClass::Alu, 2), (4, OpClass::Alu, 3)]);
        assert_eq!(a.res.cluster_total(0), 2);
        assert_eq!(a.res.cluster_total(4), 3);
        assert_eq!(a.res.cluster_total(2), 0);
    }
}
