//! Property tests: packed signature arithmetic must agree with a naive
//! per-counter model on every machine geometry, and builder-produced
//! instructions must always be legal placements.

use proptest::prelude::*;
use vliw_isa::{
    InstrBuilder, InstrSignature, MachineConfig, MachineSpec, OpClass, Opcode, Operation,
    ResourceCaps, ResourceVec,
};

/// Every preset geometry (4x4, 2x8 with 8-wide clusters, 8x2 using the
/// `hi` lane, the reduced 4x4 mix) and an odd custom one whose cluster
/// count is neither a lane size nor a power of two.
fn machines() -> Vec<MachineConfig> {
    let mut all: Vec<MachineConfig> = MachineSpec::presets().iter().map(|p| p.config()).collect();
    all.push("3x4".parse::<MachineSpec>().unwrap().config());
    all
}

/// The placements folded onto `m`'s clusters, keeping each one only if
/// the instruction so far still fits `m` on its own.
fn legal_on(m: &MachineConfig, items: &[(u8, OpClass)]) -> Vec<(u8, OpClass)> {
    let mut counts = NaiveCounts::default();
    let mut kept = Vec::new();
    for &(c, k) in items {
        let c = c % m.n_clusters;
        counts.bump(c, k);
        if counts.exceeds(m) || counts.cluster_over_issue(m) {
            counts.0[c as usize][k.index()] -= 1;
        } else {
            kept.push((c, k));
        }
    }
    kept
}

/// Packed signature of a bag of placements.
fn build_sig(items: &[(u8, OpClass)]) -> InstrSignature {
    let mut res = ResourceVec::zero();
    let mut mask = 0u8;
    for &(c, k) in items {
        res.bump(c, k);
        mask |= 1 << c;
    }
    InstrSignature {
        res,
        clusters: mask,
        n_ops: items.len() as u8,
    }
}

/// Naive reference: per-(cluster, class) counts as a plain array.
#[derive(Default, Clone)]
struct NaiveCounts([[u8; 4]; 8]);

impl NaiveCounts {
    fn bump(&mut self, cluster: u8, class: OpClass) {
        self.0[cluster as usize][class.index()] += 1;
    }
    fn sum(&self, other: &NaiveCounts) -> NaiveCounts {
        let mut out = NaiveCounts::default();
        for c in 0..8 {
            for k in 0..4 {
                out.0[c][k] = self.0[c][k] + other.0[c][k];
            }
        }
        out
    }
    fn exceeds(&self, m: &MachineConfig) -> bool {
        for c in 0..8u8 {
            for k in OpClass::ALL {
                let cap = if c < m.n_clusters {
                    m.class_capacity(c, k)
                } else {
                    0
                };
                if self.0[c as usize][k.index()] > cap {
                    return true;
                }
            }
        }
        false
    }
    fn cluster_over_issue(&self, m: &MachineConfig) -> bool {
        (0..m.n_clusters).any(|c| {
            self.0[c as usize].iter().map(|&x| x as u32).sum::<u32>()
                > u32::from(m.issue_per_cluster)
        })
    }
}

fn class_strategy() -> impl Strategy<Value = OpClass> {
    prop_oneof![
        Just(OpClass::Alu),
        Just(OpClass::Mul),
        Just(OpClass::Mem),
        Just(OpClass::Branch),
    ]
}

/// A random small bag of (cluster, class) placements.
fn placements(max_len: usize) -> impl Strategy<Value = Vec<(u8, OpClass)>> {
    prop::collection::vec((0u8..8, class_strategy()), 0..max_len)
}

proptest! {
    #[test]
    fn packed_matches_naive_counts(items in placements(24)) {
        let mut packed = ResourceVec::zero();
        let mut naive = NaiveCounts::default();
        for &(c, k) in &items {
            packed.bump(c, k);
            naive.bump(c, k);
        }
        for c in 0..8u8 {
            for k in OpClass::ALL {
                prop_assert_eq!(packed.get(c, k), naive.0[c as usize][k.index()]);
            }
        }
        prop_assert_eq!(packed.total_ops() as usize, items.len());
    }

    #[test]
    fn packed_sum_matches_naive_sum(a in placements(12), b in placements(12)) {
        let mut pa = ResourceVec::zero();
        let mut na = NaiveCounts::default();
        for &(c, k) in &a { pa.bump(c, k); na.bump(c, k); }
        let mut pb = ResourceVec::zero();
        let mut nb = NaiveCounts::default();
        for &(c, k) in &b { pb.bump(c, k); nb.bump(c, k); }
        let ps = pa.sum(pb);
        let ns = na.sum(&nb);
        for c in 0..8u8 {
            for k in OpClass::ALL {
                prop_assert_eq!(ps.get(c, k), ns.0[c as usize][k.index()]);
            }
        }
    }

    #[test]
    fn swar_exceeds_matches_naive(items in placements(16)) {
        let mut packed = ResourceVec::zero();
        let mut naive = NaiveCounts::default();
        for &(c, k) in &items {
            packed.bump(c, k);
            naive.bump(c, k);
        }
        for m in machines() {
            let caps = ResourceCaps::of(&m);
            prop_assert_eq!(packed.exceeds(&caps), naive.exceeds(&m), "{:?}", m);
        }
    }

    /// Checked twice per machine: on the raw placements, and on each side
    /// cut down to an instruction the machine can issue alone (what the
    /// merge network compares), where the per-cluster issue bound rather
    /// than a zero capacity decides — 2x8's 8-wide clusters, 8x2's `hi`
    /// lane.
    #[test]
    fn smt_compat_matches_naive(a in placements(10), b in placements(10)) {
        for m in machines() {
            let caps = ResourceCaps::of(&m);
            for (a, b) in [(a.clone(), b.clone()), (legal_on(&m, &a), legal_on(&m, &b))] {
                let mut ns = NaiveCounts::default();
                for &(c, k) in a.iter().chain(&b) { ns.bump(c, k); }
                let naive_ok = !ns.exceeds(&m) && !ns.cluster_over_issue(&m);
                prop_assert_eq!(build_sig(&a).smt_compatible(build_sig(&b), &caps), naive_ok,
                    "{:?}", m);
            }
        }
    }

    /// Rotation moves each (cluster, class) counter to cluster
    /// `(c + by) mod n` and rotates the cluster mask alike, for every
    /// cluster count and every shift including whole turns.
    #[test]
    fn rotate_clusters_matches_naive(items in placements(16), n in 1u8..9, by in 0u8..16) {
        let items: Vec<(u8, OpClass)> = items.iter().map(|&(c, k)| (c % n, k)).collect();
        let sig = build_sig(&items);
        let rotated = sig.rotate_clusters(by, n);
        let mut naive = NaiveCounts::default();
        let mut mask = 0u8;
        for &(c, k) in &items {
            let dst = (c + by) % n;
            naive.bump(dst, k);
            mask |= 1 << dst;
        }
        for c in 0..8u8 {
            for k in OpClass::ALL {
                prop_assert_eq!(rotated.res.get(c, k), naive.0[c as usize][k.index()],
                    "n={} by={} cluster {} {:?}", n, by, c, k);
            }
        }
        prop_assert_eq!(rotated.clusters, mask, "n={} by={}", n, by);
        prop_assert_eq!(rotated.n_ops, sig.n_ops);
    }

    /// Whatever the builder accepts is a legal placement: classes sit on
    /// allowed slots, no slot is used twice, signature matches the ops.
    #[test]
    fn builder_placements_are_legal(ops in prop::collection::vec(
        (0u8..4, prop_oneof![
            Just(Opcode::Add), Just(Opcode::Mpy), Just(Opcode::Ldw),
            Just(Opcode::Stw), Just(Opcode::Goto), Just(Opcode::Shl),
        ]), 0..20))
    {
        let m = MachineConfig::paper_baseline();
        let mut b = InstrBuilder::new(&m);
        let mut accepted = Vec::new();
        for (cluster, opcode) in ops {
            if b.push(Operation::new(opcode, cluster)).is_ok() {
                accepted.push((cluster, opcode));
            }
        }
        let instr = b.build();
        prop_assert_eq!(instr.n_ops(), accepted.len());
        let mut seen = std::collections::HashSet::new();
        for op in instr.ops() {
            let plan = m.slot_plan(op.cluster);
            prop_assert!(plan.slots_for(op.class()) & (1 << op.slot) != 0,
                "class {:?} on illegal slot {}", op.class(), op.slot);
            prop_assert!(seen.insert((op.cluster, op.slot)), "slot reused");
        }
        // Signature counts agree with a recount over ops.
        let sig = instr.signature();
        let mut recount = ResourceVec::zero();
        for op in instr.ops() {
            recount.bump(op.cluster, op.class());
        }
        prop_assert_eq!(sig.res, recount);
        prop_assert_eq!(sig.clusters, recount.cluster_mask());
    }
}
