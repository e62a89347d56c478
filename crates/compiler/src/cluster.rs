//! Bottom-Up-Greedy-style cluster assignment.
//!
//! The VEX compiler assigns operations to clusters with Ellis's Bottom-Up
//! Greedy algorithm: walk the dependence structure, place each operation on
//! the cluster that minimises its estimated completion time given where its
//! operands live and how loaded each cluster is, and materialise explicit
//! copy operations when a value must cross clusters.
//!
//! This pass reproduces that behaviour with a deterministic greedy sweep in
//! program order (program order is topological for block-local DDGs):
//!
//! * the estimated start time on cluster `c` is the max over operands of
//!   their ready time, plus the copy latency for operands living elsewhere;
//! * a per-cluster, per-cycle resource reservation table supplies the
//!   earliest cycle with a free functional unit of the op's class;
//! * ties prefer the cluster of the operands (keeping dependence chains
//!   local — which is why low-ILP code ends up occupying few clusters, the
//!   property CSMT merging exploits), then the least-loaded cluster.
//!
//! Copies execute on the *source* cluster (they occupy an issue slot and
//! the inter-cluster bus there) and define a fresh virtual register homed on
//! the destination cluster, mirroring Lx/ST200 send/receive pairs.

use crate::ir::{IrFunction, IrOp, Terminator, VirtReg};
use vliw_isa::{MachineConfig, OpClass, Opcode};

/// A block after cluster assignment: ops (including inserted copies) with
/// their cluster, still in dependence-respecting order.
#[derive(Debug, Clone)]
pub struct ClusteredBlock {
    /// Operations (copies included).
    pub ops: Vec<IrOp>,
    /// Cluster of each operation (parallel to `ops`).
    pub clusters: Vec<u8>,
    /// Terminator (predicate rewritten to a branch-cluster register if a
    /// copy was required).
    pub term: Terminator,
}

/// A function after cluster assignment.
#[derive(Debug, Clone)]
pub struct ClusteredFunction {
    /// Function name.
    pub name: String,
    /// Clustered blocks, same ids as the input function.
    pub blocks: Vec<ClusteredBlock>,
    /// Entry block.
    pub entry: u32,
    /// Home cluster of every virtual register (indexed by vreg id).
    pub vreg_home: Vec<u8>,
    /// Total virtual registers after copy insertion.
    pub n_vregs: u32,
    /// Memory streams (unchanged).
    pub n_streams: u16,
}

/// Per-cluster reservation table used for load estimation.
struct Reservation {
    /// `counts[cluster][cycle][class]`.
    counts: Vec<Vec<[u8; 4]>>,
    machine: MachineConfig,
}

impl Reservation {
    fn new(machine: &MachineConfig) -> Self {
        Reservation {
            counts: vec![Vec::new(); machine.n_clusters as usize],
            machine: machine.clone(),
        }
    }

    fn ensure(&mut self, cluster: u8, cycle: u32) {
        let v = &mut self.counts[cluster as usize];
        if v.len() <= cycle as usize {
            v.resize(cycle as usize + 1, [0; 4]);
        }
    }

    /// Earliest cycle >= `from` with a free `class` unit on `cluster`.
    fn earliest_free(&mut self, cluster: u8, class: OpClass, from: u32) -> u32 {
        let cap = self.machine.class_capacity(cluster, class);
        let issue = self.machine.issue_per_cluster;
        let mut t = from;
        loop {
            self.ensure(cluster, t);
            let slot = self.counts[cluster as usize][t as usize];
            let total: u32 = slot.iter().map(|&x| u32::from(x)).sum();
            if slot[class.index()] < cap && total < u32::from(issue) {
                return t;
            }
            t += 1;
        }
    }

    fn reserve(&mut self, cluster: u8, class: OpClass, cycle: u32) {
        self.ensure(cluster, cycle);
        self.counts[cluster as usize][cycle as usize][class.index()] += 1;
    }

    /// Total reserved ops on a cluster (load balance tie-breaker).
    fn load(&self, cluster: u8) -> u32 {
        self.counts[cluster as usize]
            .iter()
            .flat_map(|c| c.iter())
            .map(|&x| u32::from(x))
            .sum()
    }
}

/// Assign clusters for a whole function.
///
/// # Panics
///
/// If no cluster has a unit for some op's class; [`compile`](crate::compile)
/// rejects such a function with an error before it gets here.
pub fn assign_clusters(machine: &MachineConfig, func: &IrFunction) -> ClusteredFunction {
    let n_clusters = machine.n_clusters;
    // Home cluster per vreg; u8::MAX = not yet defined. Live-ins that are
    // never defined before use get a deterministic spread.
    let mut home: Vec<u8> = vec![u8::MAX; func.n_vregs as usize];
    let mut n_vregs = func.n_vregs;
    let mut out_blocks = Vec::with_capacity(func.blocks.len());

    // Pre-pass: record the defining cluster preference of loop-carried
    // values by giving still-undefined vregs a stable default home.
    let default_home = |v: u32| (v % u32::from(n_clusters)) as u8;

    for block in &func.blocks {
        let mut res = Reservation::new(machine);
        // Ready time of each vreg *within this block* (cycle its value can
        // first be consumed on its home cluster). Live-ins are ready at 0.
        let mut ready: Vec<u32> = vec![0; n_vregs as usize];
        // Copies already materialised in this block: (vreg, cluster) -> new vreg.
        let mut copy_cache: std::collections::HashMap<(u32, u8), VirtReg> =
            std::collections::HashMap::new();

        let mut ops: Vec<IrOp> = Vec::with_capacity(block.ops.len() + 4);
        let mut clusters: Vec<u8> = Vec::with_capacity(block.ops.len() + 4);
        // Clusters already opened by this block. Narrow code should stay
        // compact: occupying a new cluster is only worth it when it
        // improves the start cycle. This is the behaviour that gives
        // low-ILP threads small per-instruction cluster footprints — the
        // property CSMT merging depends on (paper §2.1).
        let mut used_clusters: u8 = 0;

        // Materialise a copy of `v` onto `target`, returning the register
        // to read there.
        #[allow(clippy::too_many_arguments)]
        fn get_on_cluster(
            v: VirtReg,
            target: u8,
            home: &mut Vec<u8>,
            ready: &mut Vec<u32>,
            copy_cache: &mut std::collections::HashMap<(u32, u8), VirtReg>,
            ops: &mut Vec<IrOp>,
            clusters: &mut Vec<u8>,
            res: &mut Reservation,
            n_vregs: &mut u32,
            _default_home: &dyn Fn(u32) -> u8,
        ) -> (VirtReg, u32) {
            let h = home[v.0 as usize];
            if h == u8::MAX {
                // Live-in not yet referenced anywhere: it simply lives
                // where it is first used — no copy.
                home[v.0 as usize] = target;
                return (v, ready[v.0 as usize]);
            }
            if h == target {
                return (v, ready[v.0 as usize]);
            }
            if let Some(&c) = copy_cache.get(&(v.0, target)) {
                return (c, ready[c.0 as usize]);
            }
            // Copy executes on the source cluster.
            let start = res.earliest_free(h, OpClass::Alu, ready[v.0 as usize]);
            res.reserve(h, OpClass::Alu, start);
            let dst = VirtReg(*n_vregs);
            *n_vregs += 1;
            home.push(target);
            ready.push(start + 1); // copy latency 1
            ops.push(IrOp::new(Opcode::Copy).dst(dst).srcs(&[v]));
            clusters.push(h);
            copy_cache.insert((v.0, target), dst);
            (dst, start + 1)
        }

        for op in &block.ops {
            // Candidate evaluation: estimated finish on each cluster.
            let class = op.class();
            let mut best: Option<(u32, u32, u32, u8)> = None; // (finish, open, load, cluster)
            let mut operand_cluster: Option<u8> = None;
            for s in op.src_iter() {
                let h = home[s.0 as usize];
                if h != u8::MAX && operand_cluster.is_none() {
                    operand_cluster = Some(h);
                }
            }
            // A register file is chosen once per virtual register: if the
            // destination already has a home (live-in default, earlier def,
            // or a loop-carried use), the redefinition is pinned there —
            // all reads of one vreg must name one physical file.
            let pinned: Option<u8> = op.dst.and_then(|d| {
                let h = home[d.0 as usize];
                (h != u8::MAX).then_some(h)
            });
            for c in 0..n_clusters {
                if let Some(p) = pinned {
                    if c != p {
                        continue;
                    }
                }
                // Branch-class ops never appear here (terminators only),
                // but memory/mul classes may have zero capacity on narrow
                // machines.
                if machine.class_capacity(c, class) == 0 {
                    continue;
                }
                let mut est = 0u32;
                for s in op.src_iter() {
                    let h = home[s.0 as usize];
                    let r = ready[s.0 as usize];
                    // Cross-cluster operand: one copy (issue >= ready, +1).
                    // Homeless operands (live-ins not yet referenced) cost
                    // nothing anywhere: they will live where first used.
                    est = est.max(if h == c || h == u8::MAX { r } else { r + 1 });
                }
                let start = res.earliest_free(c, class, est);
                let load = res.load(c);
                let open_cost = u32::from(used_clusters & (1 << c) == 0);
                let prefer_operand = operand_cluster == Some(c);
                let key = (start, open_cost, load, c);
                let better = match best {
                    None => true,
                    Some((bs, bo, bl, bc)) => {
                        (key.0, key.1, key.2) < (bs, bo, bl)
                            || ((key.0, key.1, key.2) == (bs, bo, bl)
                                && prefer_operand
                                && operand_cluster != Some(bc))
                    }
                };
                if better {
                    best = Some((key.0, key.1, key.2, c));
                }
            }
            // A pinned cluster that cannot host the class (possible on
            // asymmetric machines) falls back to the free choice; the
            // result is copied back into the home file below.
            if best.is_none() && pinned.is_some() {
                for c in 0..n_clusters {
                    if machine.class_capacity(c, class) == 0 {
                        continue;
                    }
                    let mut est = 0u32;
                    for s in op.src_iter() {
                        let h = home[s.0 as usize];
                        let r = ready[s.0 as usize];
                        est = est.max(if h == c || h == u8::MAX { r } else { r + 1 });
                    }
                    let start = res.earliest_free(c, class, est);
                    let load = res.load(c);
                    let open_cost = u32::from(used_clusters & (1 << c) == 0);
                    if best.is_none_or(|(bs, bo, bl, _)| (start, open_cost, load) < (bs, bo, bl)) {
                        best = Some((start, open_cost, load, c));
                    }
                }
            }
            let (_, _, _, cluster) = best.expect("at least one cluster can host the op");
            used_clusters |= 1 << cluster;
            let needs_writeback = pinned.is_some_and(|p| p != cluster);
            // Redefinition invalidates cached cross-cluster copies of the
            // old value.
            if let Some(d) = op.dst {
                copy_cache.retain(|&(vid, _), _| vid != d.0);
            }

            // Materialise operand copies and rewrite sources.
            let mut new_op = op.clone();
            let mut start_lb = 0u32;
            for slot in new_op.srcs.iter_mut() {
                if let Some(s) = *slot {
                    let (r, t) = get_on_cluster(
                        s,
                        cluster,
                        &mut home,
                        &mut ready,
                        &mut copy_cache,
                        &mut ops,
                        &mut clusters,
                        &mut res,
                        &mut n_vregs,
                        &default_home,
                    );
                    *slot = Some(r);
                    start_lb = start_lb.max(t);
                }
            }
            let start = res.earliest_free(cluster, class, start_lb);
            res.reserve(cluster, class, start);
            if needs_writeback {
                // Compute into a fresh register on `cluster`, then copy the
                // value back into the destination's home file so every read
                // of the vreg keeps naming one physical register.
                let d = new_op.dst.expect("writeback implies a destination");
                let home_cluster = pinned.expect("writeback implies a pin");
                let tmp = VirtReg(n_vregs);
                n_vregs += 1;
                home.push(cluster);
                let done = start + u32::from(machine.latency_of(class));
                ready.push(done);
                new_op.dst = Some(tmp);
                ops.push(new_op);
                clusters.push(cluster);
                let cstart = res.earliest_free(cluster, OpClass::Alu, done);
                res.reserve(cluster, OpClass::Alu, cstart);
                ops.push(IrOp::new(Opcode::Copy).dst(d).srcs(&[tmp]));
                clusters.push(cluster);
                ready[d.0 as usize] = cstart + 1;
                let _ = home_cluster; // home[d] stays pinned
            } else {
                if let Some(d) = new_op.dst {
                    if d.0 as usize >= home.len() {
                        // Defensive: vregs are dense, but copies may have
                        // grown the vectors already.
                        home.resize(d.0 as usize + 1, u8::MAX);
                        ready.resize(d.0 as usize + 1, 0);
                    }
                    home[d.0 as usize] = cluster;
                    ready[d.0 as usize] = start + u32::from(machine.latency_of(class));
                }
                ops.push(new_op);
                clusters.push(cluster);
            }
        }

        // Terminator predicate must live on a branch-capable cluster.
        let mut term = block.term;
        if let Terminator::CondBranch { pred: Some(p), .. } = term {
            let branch_cluster = (0..n_clusters)
                .find(|&c| machine.cluster_has_branch(c))
                .unwrap_or(0);
            let (r, _) = get_on_cluster(
                p,
                branch_cluster,
                &mut home,
                &mut ready,
                &mut copy_cache,
                &mut ops,
                &mut clusters,
                &mut res,
                &mut n_vregs,
                &default_home,
            );
            if let Terminator::CondBranch { pred, .. } = &mut term {
                *pred = Some(r);
            }
        }

        out_blocks.push(ClusteredBlock {
            ops,
            clusters,
            term,
        });
    }

    // Fill any never-defined homes.
    for (v, h) in home.iter_mut().enumerate() {
        if *h == u8::MAX {
            *h = default_home(v as u32);
        }
    }

    ClusteredFunction {
        name: func.name.clone(),
        blocks: out_blocks,
        entry: func.entry,
        vreg_home: home,
        n_vregs,
        n_streams: func.n_streams,
    }
}

impl ClusteredFunction {
    /// Distinct clusters used by straight-line code (diagnostic: low-ILP
    /// functions should touch few).
    pub fn clusters_used(&self) -> u8 {
        let mut mask = 0u8;
        for b in &self.blocks {
            for &c in &b.clusters {
                mask |= 1 << c;
            }
        }
        mask
    }

    /// Number of copy operations inserted.
    pub fn n_copies(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .filter(|o| o.opcode == Opcode::Copy)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrBlock;

    fn m() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    fn v(i: u32) -> VirtReg {
        VirtReg(i)
    }

    /// A pure dependence chain stays on one cluster (no copies).
    #[test]
    fn chain_stays_local() {
        let mut f = IrFunction::new("chain");
        for _ in 0..9 {
            f.fresh_vreg();
        }
        let ops: Vec<IrOp> = (0..8)
            .map(|i| IrOp::new(Opcode::Add).dst(v(i + 1)).srcs(&[v(i), v(i)]))
            .collect();
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        f.validate().unwrap();
        let cf = assign_clusters(&m(), &f);
        assert_eq!(cf.n_copies(), 0);
        assert_eq!(cf.clusters_used().count_ones(), 1);
    }

    /// Many independent ops spread across clusters.
    #[test]
    fn independent_ops_spread() {
        let mut f = IrFunction::new("wide");
        for _ in 0..33 {
            f.fresh_vreg();
        }
        let ops: Vec<IrOp> = (0..32)
            .map(|i| IrOp::new(Opcode::Add).dst(v(i + 1)).imm(i as i32))
            .collect();
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let cf = assign_clusters(&m(), &f);
        assert_eq!(
            cf.clusters_used().count_ones(),
            4,
            "32 ops must use all 4 clusters"
        );
        assert_eq!(cf.n_copies(), 0);
    }

    /// A consumer of two values produced on different clusters needs a copy.
    #[test]
    fn cross_cluster_use_inserts_copy() {
        let mut f = IrFunction::new("cross");
        for _ in 0..20 {
            f.fresh_vreg();
        }
        let mut ops = Vec::new();
        // Two independent wide groups to force spreading.
        for i in 0..8 {
            ops.push(IrOp::new(Opcode::Add).dst(v(i)).imm(i as i32));
        }
        // A consumer of many of them: some operands must cross clusters.
        ops.push(IrOp::new(Opcode::Add).dst(v(10)).srcs(&[v(0), v(7)]));
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let cf = assign_clusters(&m(), &f);
        // Ops 0..8 spread; the consumer reads two of them. At least one
        // copy unless both operands landed on the same cluster — with 8
        // independent ops over 4 clusters and the deterministic greedy,
        // v0 and v7 land on different clusters.
        assert!(cf.n_copies() >= 1);
        // Copies are Copy-opcode ops executing on the source cluster with
        // dest homed elsewhere.
        for b in &cf.blocks {
            for (op, &c) in b.ops.iter().zip(&b.clusters) {
                if op.opcode == Opcode::Copy {
                    let src = op.srcs[0].unwrap();
                    assert_eq!(
                        cf.vreg_home[src.0 as usize], c,
                        "copy runs on source cluster"
                    );
                    let dst = op.dst.unwrap();
                    assert_ne!(
                        cf.vreg_home[dst.0 as usize], c,
                        "copy dest on another cluster"
                    );
                }
            }
        }
    }

    /// Copies are cached: two uses of the same remote value share one copy.
    #[test]
    fn copy_reuse_within_block() {
        let mut f = IrFunction::new("reuse");
        for _ in 0..24 {
            f.fresh_vreg();
        }
        let mut ops = Vec::new();
        for i in 0..8 {
            ops.push(IrOp::new(Opcode::Add).dst(v(i)).imm(i as i32));
        }
        ops.push(IrOp::new(Opcode::Add).dst(v(10)).srcs(&[v(0), v(7)]));
        ops.push(IrOp::new(Opcode::Sub).dst(v(11)).srcs(&[v(10), v(7)]));
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let cf = assign_clusters(&m(), &f);
        // v7 is consumed twice on v10's cluster; the copy must be shared.
        let copies_of_v7 = cf.blocks[0]
            .ops
            .iter()
            .filter(|o| o.opcode == Opcode::Copy && o.srcs[0] == Some(v(7)))
            .count();
        assert!(copies_of_v7 <= 1);
    }

    /// Branch predicates are made available on the branch cluster.
    #[test]
    fn branch_predicate_reaches_cluster0() {
        let mut f = IrFunction::new("br");
        for _ in 0..40 {
            f.fresh_vreg();
        }
        let mut ops = Vec::new();
        // Load cluster 0 heavily so the predicate computation lands elsewhere.
        for i in 0..16 {
            ops.push(IrOp::new(Opcode::Add).dst(v(i)).imm(i as i32));
        }
        ops.push(IrOp::new(Opcode::CmpLt).dst(v(20)).srcs(&[v(15), v(14)]));
        let b0 = IrBlock::new(ops).with_term(Terminator::CondBranch {
            taken: 0,
            taken_permille: 900,
            pred: Some(v(20)),
        });
        f.push_block(b0);
        f.push_block(IrBlock::new(vec![]).with_term(Terminator::Return));
        let cf = assign_clusters(&m(), &f);
        if let Terminator::CondBranch { pred: Some(p), .. } = cf.blocks[0].term {
            assert_eq!(
                cf.vreg_home[p.0 as usize], 0,
                "predicate must live on cluster 0"
            );
        } else {
            panic!("terminator lost");
        }
    }

    /// Assignment is deterministic.
    #[test]
    fn deterministic() {
        let mut f = IrFunction::new("det");
        for _ in 0..30 {
            f.fresh_vreg();
        }
        let ops: Vec<IrOp> = (0..16)
            .map(|i| {
                if i % 3 == 0 {
                    IrOp::new(Opcode::Add).dst(v(i + 1)).srcs(&[v(i)])
                } else {
                    IrOp::new(Opcode::Add).dst(v(i + 1)).imm(i as i32)
                }
            })
            .collect();
        f.push_block(IrBlock::new(ops).with_term(Terminator::Return));
        let a = assign_clusters(&m(), &f);
        let b = assign_clusters(&m(), &f);
        assert_eq!(a.blocks[0].clusters, b.blocks[0].clusters);
        assert_eq!(a.n_vregs, b.n_vregs);
    }
}
