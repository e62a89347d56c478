//! Per-cycle functional evaluation of merging schemes.
//!
//! The simulator calls this every cycle, so the scheme tree is *compiled*
//! once into a flat list of pairwise joins over per-port slots
//! ([`CompiledScheme`]), evaluated in place with no allocation. A
//! subtree's selection lives in the slot of its leftmost port. Each merge
//! block consumes its operands left-to-right exactly like the hardware
//! cascade: the leftmost ready operand anchors the selection, each further
//! operand joins if the block's conflict check passes and is dropped (for
//! this cycle) otherwise.
//!
//! The parallel CSMT implementation enumerates candidate subsets in
//! hardware but is functionally equivalent to the serial cascade (paper §3);
//! the evaluator therefore runs the same algorithm for both — the
//! distinction only matters for `vliw-hwcost`. A property test pins this
//! equivalence down.

use crate::scheme::{MergeKind, MergeScheme, SchemeNode};
use crate::stats::MergeStats;
use vliw_isa::{InstrSignature, ResourceCaps};

/// What one thread port offers the merge network this cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortInput {
    /// Signature of the instruction at the head of this port.
    pub sig: InstrSignature,
    /// False if the thread is stalled (cache miss, branch bubble, not
    /// mapped) — the port then contributes nothing.
    pub ready: bool,
}

impl PortInput {
    /// A ready port offering `sig`.
    pub fn ready(sig: InstrSignature) -> Self {
        PortInput { sig, ready: true }
    }

    /// A stalled/vacant port.
    pub fn stalled() -> Self {
        PortInput {
            sig: InstrSignature::EMPTY,
            ready: false,
        }
    }
}

/// Result of one merge-network evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Ports whose instructions issue this cycle (bitmask).
    pub issued_ports: u8,
    /// Signature of the combined execution packet.
    pub packet: InstrSignature,
}

impl MergeOutcome {
    /// Number of threads issuing together.
    pub fn n_issued(&self) -> u32 {
        self.issued_ports.count_ones()
    }
}

/// One pairwise join of the compiled network: block `node` checks the
/// selection in slot `src` against the one in slot `dst` and, on success,
/// merges it into `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Join {
    kind: MergeKind,
    dst: u8,
    src: u8,
    node: u16,
}

/// A scheme flattened to pairwise joins over per-port slots.
#[derive(Debug, Clone)]
pub struct CompiledScheme {
    /// Joins in evaluation order: every child subtree's joins before its
    /// parent block's, each block's operands left to right.
    joins: Vec<Join>,
    /// The slot holding the whole network's selection (the root's
    /// leftmost port).
    root: u8,
    n_ports: u8,
    n_nodes: u16,
    name: String,
}

impl CompiledScheme {
    /// Number of thread ports.
    pub fn n_ports(&self) -> u8 {
        self.n_ports
    }

    /// Number of merge blocks (for sizing [`MergeStats`]).
    pub fn n_nodes(&self) -> u16 {
        self.n_nodes
    }

    /// Scheme display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl MergeScheme {
    /// Flatten the scheme tree into pairwise joins. Merge blocks are
    /// numbered in postorder, as [`MergeStats`] reports them.
    pub fn compile(&self) -> CompiledScheme {
        let mut joins = Vec::new();
        let mut next_node = 0u16;
        let root = flatten(self.root(), &mut joins, &mut next_node);
        CompiledScheme {
            joins,
            root,
            n_ports: self.n_ports(),
            n_nodes: next_node,
            name: self.name().to_string(),
        }
    }
}

/// Append the joins of `node`'s subtree; returns its leftmost port, the
/// slot its selection ends up in.
fn flatten(node: &SchemeNode, joins: &mut Vec<Join>, next_node: &mut u16) -> u8 {
    match node {
        SchemeNode::Port(p) => *p,
        SchemeNode::Merge { kind, children, .. } => {
            let slots: Vec<u8> = children
                .iter()
                .map(|c| flatten(c, joins, next_node))
                .collect();
            let node_id = *next_node;
            *next_node += 1;
            joins.extend(slots[1..].iter().map(|&src| Join {
                kind: *kind,
                dst: slots[0],
                src,
                node: node_id,
            }));
            slots[0]
        }
    }
}

/// Accumulated selection during evaluation: which ports are in, and the
/// combined signature.
#[derive(Debug, Clone, Copy, Default)]
struct Selection {
    sig: InstrSignature,
    members: u8,
}

impl Selection {
    const EMPTY: Selection = Selection {
        sig: InstrSignature::EMPTY,
        members: 0,
    };

    #[inline]
    fn is_empty(&self) -> bool {
        self.members == 0
    }
}

/// Evaluates compiled schemes against a machine's resource capacities.
#[derive(Debug, Clone)]
pub struct MergeEvaluator {
    caps: ResourceCaps,
}

impl MergeEvaluator {
    /// Build an evaluator for a machine (capacities are precomputed once).
    pub fn new(machine: &vliw_isa::MachineConfig) -> Self {
        MergeEvaluator {
            caps: ResourceCaps::of(machine),
        }
    }

    /// Access the resource capacities (for routing validation).
    pub fn caps(&self) -> &ResourceCaps {
        &self.caps
    }

    /// Evaluate `scheme` against the per-port inputs.
    ///
    /// `inputs` must cover every port of the scheme. Ports beyond
    /// `inputs.len()` are treated as stalled.
    #[inline]
    pub fn evaluate(&self, scheme: &CompiledScheme, inputs: &[PortInput]) -> MergeOutcome {
        self.eval_inner::<false>(scheme, inputs, None)
    }

    /// Evaluate and record per-block attempt/success statistics.
    pub fn evaluate_with_stats(
        &self,
        scheme: &CompiledScheme,
        inputs: &[PortInput],
        stats: &mut MergeStats,
    ) -> MergeOutcome {
        self.eval_inner::<true>(scheme, inputs, Some(stats))
    }

    fn eval_inner<const STATS: bool>(
        &self,
        scheme: &CompiledScheme,
        inputs: &[PortInput],
        mut stats: Option<&mut MergeStats>,
    ) -> MergeOutcome {
        let ports = inputs.len().min(scheme.n_ports as usize);
        let mut slots = [Selection::EMPTY; crate::MAX_PORTS];
        for (p, inp) in inputs[..ports].iter().enumerate() {
            if inp.ready {
                slots[p] = Selection {
                    sig: inp.sig,
                    members: 1 << p,
                };
            }
        }
        for join in &scheme.joins {
            let cand = slots[join.src as usize];
            if cand.is_empty() {
                continue;
            }
            let acc = &mut slots[join.dst as usize];
            if acc.is_empty() {
                *acc = cand;
                continue;
            }
            let ok = match join.kind {
                MergeKind::Csmt => acc.sig.cluster_disjoint(cand.sig),
                MergeKind::Smt => acc.sig.smt_compatible(cand.sig, &self.caps),
            };
            if STATS {
                if let Some(stats) = stats.as_deref_mut() {
                    stats.record_attempt(join.node, ok);
                }
            }
            if ok {
                acc.sig = acc.sig.merged_with(cand.sig);
                acc.members |= cand.members;
            }
        }
        let selection = slots[scheme.root as usize];
        if STATS {
            if let Some(stats) = stats {
                stats.record_packet(selection.members.count_ones(), selection.sig.n_ops);
            }
        }
        MergeOutcome {
            issued_ports: selection.members,
            packet: selection.sig,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use vliw_isa::{MachineConfig, OpClass};

    fn sig(parts: &[(u8, OpClass, u8)]) -> InstrSignature {
        let mut res = vliw_isa::ResourceVec::zero();
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

    fn evaluator() -> MergeEvaluator {
        MergeEvaluator::new(&MachineConfig::paper_baseline())
    }

    #[test]
    fn two_thread_smt_merges_disjoint_slots() {
        let ev = evaluator();
        let s = catalog::by_name("1S").unwrap().compile();
        let a = PortInput::ready(sig(&[(0, OpClass::Alu, 2)]));
        let b = PortInput::ready(sig(&[(0, OpClass::Alu, 2)]));
        let out = ev.evaluate(&s, &[a, b]);
        assert_eq!(out.issued_ports, 0b11);
        assert_eq!(out.packet.n_ops, 4);
    }

    #[test]
    fn smt_drops_conflicting_thread() {
        let ev = evaluator();
        let s = catalog::by_name("1S").unwrap().compile();
        let a = PortInput::ready(sig(&[(0, OpClass::Alu, 3)]));
        let b = PortInput::ready(sig(&[(0, OpClass::Alu, 2)]));
        let out = ev.evaluate(&s, &[a, b]);
        assert_eq!(out.issued_ports, 0b01);
        assert_eq!(out.packet.n_ops, 3);
    }

    #[test]
    fn csmt_requires_disjoint_clusters() {
        let ev = evaluator();
        let scheme = catalog::csmt_serial(2).compile();
        let a = PortInput::ready(sig(&[(0, OpClass::Alu, 1)]));
        let b = PortInput::ready(sig(&[(0, OpClass::Alu, 1)]));
        // Same cluster -> only the anchor issues.
        assert_eq!(ev.evaluate(&scheme, &[a, b]).issued_ports, 0b01);
        // Disjoint clusters -> both issue.
        let b2 = PortInput::ready(sig(&[(1, OpClass::Alu, 1)]));
        assert_eq!(ev.evaluate(&scheme, &[a, b2]).issued_ports, 0b11);
    }

    #[test]
    fn stalled_anchor_falls_through() {
        let ev = evaluator();
        let s = catalog::by_name("3CCC").unwrap().compile();
        let inputs = [
            PortInput::stalled(),
            PortInput::ready(sig(&[(0, OpClass::Alu, 1)])),
            PortInput::stalled(),
            PortInput::ready(sig(&[(1, OpClass::Alu, 1)])),
        ];
        let out = ev.evaluate(&s, &inputs);
        assert_eq!(out.issued_ports, 0b1010);
        assert_eq!(out.packet.n_ops, 2);
    }

    #[test]
    fn all_ports_stalled_yields_bubble() {
        let ev = evaluator();
        let s = catalog::by_name("3SSS").unwrap().compile();
        let out = ev.evaluate(&s, &[PortInput::stalled(); 4]);
        assert_eq!(out.issued_ports, 0);
        assert_eq!(out.packet.n_ops, 0);
    }

    /// The paper's Figure 1, reproduced literally: a 4-cluster 2-issue
    /// machine; three pairs of instructions.
    #[test]
    fn fig1_pairs() {
        let m = MachineConfig::new(4, 2).unwrap();
        let ev = MergeEvaluator::new(&m);
        let smt = catalog::smt_cascade(2).compile();
        let csmt = catalog::csmt_serial(2).compile();

        // Pair I:
        //   T0: c0[add -] c1[- ld] c2[sub add] c3[- -]
        //   T1: c0[- mpy] c1[add add] c2[- -]  c3[sub -]
        // Conflicts at operation level on clusters 0,1,3? The paper says
        // neither SMT nor CSMT can merge pair I (conflicts at clusters 0, 1
        // and 3 at both levels). Model: cluster loads are on the mem slot,
        // mpy on the mul slot. We reproduce the conflict with ALU counts.
        let t0 = sig(&[
            (0, OpClass::Alu, 1),
            (1, OpClass::Mem, 1),
            (2, OpClass::Alu, 2),
        ]);
        let t1 = sig(&[
            (0, OpClass::Mul, 1),
            (1, OpClass::Alu, 2),
            (3, OpClass::Alu, 1),
        ]);
        // Cluster 1: T0 uses the mem slot + T1 needs 2 slots -> 3 ops on a
        // 2-issue cluster: SMT conflict. Cluster masks overlap: CSMT fails.
        let out_smt = ev.evaluate(&smt, &[PortInput::ready(t0), PortInput::ready(t1)]);
        assert_eq!(out_smt.issued_ports, 0b01, "SMT cannot merge pair I");
        let out_csmt = ev.evaluate(&csmt, &[PortInput::ready(t0), PortInput::ready(t1)]);
        assert_eq!(out_csmt.issued_ports, 0b01, "CSMT cannot merge pair I");

        // Pair II (paper: SMT merges, CSMT does not):
        //   T0: add@c0, ld@c2, st@c3      T1: mov@c0, mpy@c2, add@c3, sub@c3...
        // Modelled: overlapping clusters but complementary slot classes.
        let t0 = sig(&[
            (0, OpClass::Alu, 1),
            (2, OpClass::Mem, 1),
            (3, OpClass::Alu, 1),
        ]);
        let t1 = sig(&[
            (0, OpClass::Mul, 1),
            (2, OpClass::Alu, 1),
            (3, OpClass::Mul, 1),
        ]);
        let out_smt = ev.evaluate(&smt, &[PortInput::ready(t0), PortInput::ready(t1)]);
        assert_eq!(out_smt.issued_ports, 0b11, "SMT merges pair II");
        let out_csmt = ev.evaluate(&csmt, &[PortInput::ready(t0), PortInput::ready(t1)]);
        assert_eq!(out_csmt.issued_ports, 0b01, "CSMT cannot merge pair II");

        // Pair III (both merge): T0 uses clusters 1,2 only; T1 uses 0,3.
        let t0 = sig(&[
            (1, OpClass::Mem, 1),
            (1, OpClass::Alu, 1),
            (2, OpClass::Mem, 1),
        ]);
        let t1 = sig(&[
            (0, OpClass::Alu, 2),
            (3, OpClass::Alu, 1),
            (3, OpClass::Mul, 1),
        ]);
        let out_smt = ev.evaluate(&smt, &[PortInput::ready(t0), PortInput::ready(t1)]);
        assert_eq!(out_smt.issued_ports, 0b11, "SMT merges pair III");
        let out_csmt = ev.evaluate(&csmt, &[PortInput::ready(t0), PortInput::ready(t1)]);
        assert_eq!(out_csmt.issued_ports, 0b11, "CSMT merges pair III");
    }

    #[test]
    fn tree_pair_failure_drops_low_priority_side() {
        // 2CC: if (P2,P3) conflict, only P2 survives to the top level.
        let ev = evaluator();
        let s = catalog::by_name("2CC").unwrap().compile();
        let inputs = [
            PortInput::ready(sig(&[(0, OpClass::Alu, 1)])),
            PortInput::ready(sig(&[(1, OpClass::Alu, 1)])),
            PortInput::ready(sig(&[(2, OpClass::Alu, 1)])),
            PortInput::ready(sig(&[(2, OpClass::Alu, 1)])), // conflicts with P2
        ];
        let out = ev.evaluate(&s, &inputs);
        assert_eq!(out.issued_ports, 0b0111);
    }

    #[test]
    fn tree_merge_can_lose_vs_cascade() {
        // Paper §4.1: merging T2,T3 first can produce a packet too large to
        // join (T0,T1) even though T2 alone would fit.
        let ev = evaluator();
        let tree = catalog::by_name("2CC").unwrap().compile();
        let cascade = catalog::by_name("3CCC").unwrap().compile();
        let inputs = [
            PortInput::ready(sig(&[(0, OpClass::Alu, 1)])),
            PortInput::ready(sig(&[(1, OpClass::Alu, 1)])),
            PortInput::ready(sig(&[(2, OpClass::Alu, 1)])),
            // P3 uses clusters 0 and 3: merges with P2 at level 1 into a
            // packet using clusters {0,2,3}, which then conflicts with
            // (P0,P1)'s {0,1}. The cascade issues P0,P1,P2 instead.
            PortInput::ready(sig(&[(0, OpClass::Alu, 1), (3, OpClass::Alu, 1)])),
        ];
        let tree_out = ev.evaluate(&tree, &inputs);
        let casc_out = ev.evaluate(&cascade, &inputs);
        assert_eq!(tree_out.issued_ports.count_ones(), 2); // (P0,P1) only...
        assert_eq!(casc_out.issued_ports, 0b0111);
        assert!(casc_out.n_issued() > tree_out.n_issued());
    }
}
