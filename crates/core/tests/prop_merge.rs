//! Property tests for the merge-scheme evaluator.
//!
//! Pinned invariants:
//! * issued threads are always a subset of ready threads, and the anchor
//!   (highest-priority ready port) always issues;
//! * merged packets never exceed machine capacities;
//! * serial and parallel CSMT implementations are functionally identical
//!   (paper §3) — `3CCC` ≡ `C4`, `3SCC` ≡ `2SC3`, `3CCS` ≡ `2C3S`;
//! * whatever CSMT merges, SMT merges too (cluster disjointness implies
//!   operation-level compatibility);
//! * the SMT counting check is exact: a validated merge can always be
//!   routed onto concrete slots, a rejected pair never can;
//! * the compiled evaluator agrees with a recursive interpreter of the
//!   scheme tree — issued ports, packet, per-block attempts and successes
//!   and the packet histogram — for every paper scheme and for wider
//!   trees and cascades up to eight ports, on the 4x4 and 8x2 machines.

use proptest::prelude::*;
use vliw_core::{catalog, parser, routing, MergeEvaluator, MergeKind, MergeScheme, MergeStats};
use vliw_core::{PortInput, SchemeNode, MAX_PORTS};
use vliw_isa::{
    InstrBuilder, InstrSignature, MachineConfig, MachineSpec, Opcode, Operation, ResourceCaps,
};

/// Reference semantics of a merge network, read straight off the scheme
/// tree: each block folds its operands left to right; the first non-empty
/// operand anchors, and each later non-empty operand is checked against
/// the accumulated selection and joins if the check passes. Blocks are
/// numbered in postorder.
struct Reference {
    attempts: Vec<u64>,
    successes: Vec<u64>,
    packets: [u64; MAX_PORTS + 1],
}

impl Reference {
    fn new(scheme: &MergeScheme) -> Self {
        let blocks = scheme.root().count_blocks(MergeKind::Smt)
            + scheme.root().count_blocks(MergeKind::Csmt);
        Reference {
            attempts: vec![0; blocks],
            successes: vec![0; blocks],
            packets: [0; MAX_PORTS + 1],
        }
    }

    /// One cycle: the issued ports and the packet.
    fn eval(
        &mut self,
        scheme: &MergeScheme,
        inputs: &[PortInput],
        caps: &ResourceCaps,
    ) -> (u8, InstrSignature) {
        let mut next_block = 0;
        let out = self.node(scheme.root(), inputs, caps, &mut next_block);
        self.packets[out.0.count_ones() as usize] += 1;
        out
    }

    fn node(
        &mut self,
        node: &SchemeNode,
        inputs: &[PortInput],
        caps: &ResourceCaps,
        next_block: &mut usize,
    ) -> (u8, InstrSignature) {
        match node {
            SchemeNode::Port(p) => match inputs.get(*p as usize) {
                Some(inp) if inp.ready => (1 << p, inp.sig),
                _ => (0, InstrSignature::EMPTY),
            },
            SchemeNode::Merge { kind, children, .. } => {
                let operands: Vec<(u8, InstrSignature)> = children
                    .iter()
                    .map(|c| self.node(c, inputs, caps, next_block))
                    .collect();
                let block = *next_block;
                *next_block += 1;
                let mut acc = (0u8, InstrSignature::EMPTY);
                for (members, sig) in operands {
                    if members == 0 {
                        continue;
                    }
                    if acc.0 == 0 {
                        acc = (members, sig);
                        continue;
                    }
                    let ok = match kind {
                        MergeKind::Csmt => acc.1.cluster_disjoint(sig),
                        MergeKind::Smt => acc.1.smt_compatible(sig, caps),
                    };
                    self.attempts[block] += 1;
                    if ok {
                        self.successes[block] += 1;
                        acc = (acc.0 | members, acc.1.merged_with(sig));
                    }
                }
                acc
            }
        }
    }
}

/// Run `scheme` over `cycles` through the compiled evaluator and the
/// reference interpreter, and assert that every outcome and every
/// statistic agrees.
fn assert_matches_reference(m: &MachineConfig, scheme: &MergeScheme, cycles: &[Vec<PortInput>]) {
    let ev = MergeEvaluator::new(m);
    let caps = ResourceCaps::of(m);
    let compiled = scheme.compile();
    let mut stats = MergeStats::new(compiled.n_nodes());
    let mut reference = Reference::new(scheme);
    for inputs in cycles {
        let out = ev.evaluate_with_stats(&compiled, inputs, &mut stats);
        let (ports, packet) = reference.eval(scheme, inputs, &caps);
        assert_eq!(out.issued_ports, ports, "{}: issued ports", scheme.name());
        assert_eq!(out.packet, packet, "{}: packet", scheme.name());
    }
    assert_eq!(
        stats.attempts(),
        &reference.attempts[..],
        "{}: attempts",
        scheme.name()
    );
    assert_eq!(
        stats.successes(),
        &reference.successes[..],
        "{}: successes",
        scheme.name()
    );
    assert_eq!(
        stats.packet_histogram(),
        &reference.packets,
        "{}: packets",
        scheme.name()
    );
}

/// Every paper scheme, both 8-port balanced trees and parsed cascades of
/// five to eight ports.
fn schemes_up_to_8_ports() -> Vec<MergeScheme> {
    let mut all = catalog::paper_schemes();
    all.push(catalog::balanced_tree(MergeKind::Smt, 8));
    all.push(catalog::balanced_tree(MergeKind::Csmt, 8));
    for name in ["4SSCC", "5SCCCC", "6CSSCSC", "7SSSSSSS", "7CCCCCCC", "C8"] {
        all.push(parser::parse(name).unwrap());
    }
    all
}

/// An instruction built on `m` from (cluster, opcode) requests; requests
/// the machine cannot place are dropped.
fn build_on(m: &MachineConfig, ops: &[(u8, Opcode)]) -> vliw_isa::VliwInstruction {
    let mut b = InstrBuilder::new(m);
    for &(cluster, opc) in ops {
        let _ = b.push(Operation::new(opc, cluster));
    }
    b.build()
}

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::Add),
        Just(Opcode::Sub),
        Just(Opcode::Shl),
        Just(Opcode::Mov),
        Just(Opcode::Mpy),
        Just(Opcode::Mpyl),
        Just(Opcode::Ldw),
        Just(Opcode::Stw),
        Just(Opcode::Goto),
    ]
}

/// Eight ports' worth of (placement requests, ready) for a few cycles,
/// lowered per machine by [`build_on`].
type RawCycle = Vec<(Vec<(u8, Opcode)>, bool)>;

fn arb_cycles() -> impl Strategy<Value = Vec<RawCycle>> {
    let port = (
        prop::collection::vec((0u8..8, arb_opcode()), 0..8),
        any::<bool>(),
    );
    prop::collection::vec(prop::collection::vec(port, MAX_PORTS), 4)
}

/// Random instruction on the paper machine: a bag of opcodes over clusters,
/// built through the checked builder (overflowing ops are dropped).
fn arb_instr() -> impl Strategy<Value = vliw_isa::VliwInstruction> {
    prop::collection::vec((0u8..4, arb_opcode()), 0..10)
        .prop_map(|ops| build_on(&MachineConfig::paper_baseline(), &ops))
}

fn arb_inputs() -> impl Strategy<Value = Vec<PortInput>> {
    prop::collection::vec(
        (arb_instr(), any::<bool>()).prop_map(|(i, ready)| PortInput {
            sig: i.signature(),
            ready,
        }),
        4,
    )
}

fn evaluator() -> MergeEvaluator {
    MergeEvaluator::new(&MachineConfig::paper_baseline())
}

proptest! {
    #[test]
    fn issued_subset_of_ready_and_anchor_issues(inputs in arb_inputs()) {
        let ev = evaluator();
        let ready_mask: u8 = inputs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.ready)
            .fold(0, |m, (i, _)| m | (1 << i));
        for scheme in catalog::paper_schemes() {
            if scheme.n_ports() != 4 { continue; }
            let compiled = scheme.compile();
            let out = ev.evaluate(&compiled, &inputs);
            prop_assert_eq!(out.issued_ports & !ready_mask, 0,
                "{}: issued non-ready port", scheme.name());
            if ready_mask != 0 {
                let anchor = ready_mask.trailing_zeros() as u8;
                prop_assert!(out.issued_ports & (1 << anchor) != 0,
                    "{}: anchor port {} did not issue", scheme.name(), anchor);
            } else {
                prop_assert_eq!(out.issued_ports, 0);
            }
        }
    }

    #[test]
    fn packets_respect_capacities(inputs in arb_inputs()) {
        let m = MachineConfig::paper_baseline();
        let caps = ResourceCaps::of(&m);
        let ev = evaluator();
        for scheme in catalog::paper_schemes() {
            if scheme.n_ports() != 4 { continue; }
            let out = ev.evaluate(&scheme.compile(), &inputs);
            prop_assert!(!out.packet.res.exceeds(&caps),
                "{}: packet exceeds class capacities", scheme.name());
            for c in 0..m.n_clusters {
                prop_assert!(out.packet.res.cluster_total(c) <= u32::from(m.issue_per_cluster),
                    "{}: cluster {} over-subscribed", scheme.name(), c);
            }
        }
    }

    /// Paper §3/§4.1: parallel CSMT is functionally equivalent to the
    /// serial cascade, so these scheme pairs produce identical outcomes on
    /// every input.
    #[test]
    fn serial_parallel_equivalences(inputs in arb_inputs()) {
        let ev = evaluator();
        let pairs = [("3CCC", "C4"), ("3SCC", "2SC3"), ("3CCS", "2C3S")];
        for (a, b) in pairs {
            let sa = catalog::by_name(a).unwrap().compile();
            let sb = catalog::by_name(b).unwrap().compile();
            let oa = ev.evaluate(&sa, &inputs);
            let ob = ev.evaluate(&sb, &inputs);
            prop_assert_eq!(oa, ob, "{} != {}", a, b);
        }
    }

    /// Anything CSMT can merge, SMT can merge — *pairwise*: whenever two
    /// instructions use disjoint clusters, the operation-level check also
    /// passes. (The whole-cascade analogue is false: greedy selections are
    /// not pointwise monotone — SMT may accept an early wide thread that
    /// blocks a later one CSMT would have taken.)
    #[test]
    fn csmt_mergeable_implies_smt_mergeable(a in arb_instr(), b in arb_instr()) {
        let m = MachineConfig::paper_baseline();
        let caps = ResourceCaps::of(&m);
        let (sa, sb) = (a.signature(), b.signature());
        if sa.cluster_disjoint(sb) {
            prop_assert!(sa.smt_compatible(sb, &caps),
                "disjoint clusters must be SMT-mergeable: {} | {}", sa, sb);
        }
        // And the 2-thread schemes agree with the pairwise checks.
        let ev = evaluator();
        let smt2 = catalog::smt_cascade(2).compile();
        let csmt2 = catalog::csmt_serial(2).compile();
        let inp = [PortInput::ready(sa), PortInput::ready(sb)];
        let o_s = ev.evaluate(&smt2, &inp);
        let o_c = ev.evaluate(&csmt2, &inp);
        prop_assert_eq!(o_c.issued_ports & !o_s.issued_ports, 0,
            "2-thread CSMT issued something 2-thread SMT refused");
    }

    /// The counting check is exact: a pair accepted by `smt_compatible`
    /// always routes onto concrete slots; a rejected pair never does.
    #[test]
    fn smt_check_iff_routable(a in arb_instr(), b in arb_instr()) {
        let m = MachineConfig::paper_baseline();
        let caps = ResourceCaps::of(&m);
        let compatible = a.signature().smt_compatible(b.signature(), &caps);
        let routed = routing::route_packet(&m, &[(0, &a), (1, &b)]);
        prop_assert_eq!(compatible, routed.is_ok(),
            "counting check and routing disagree: a={} b={}",
            a.signature(), b.signature());
        if let Ok(routed) = routed {
            let sig = routing::packet_signature(&routed);
            prop_assert_eq!(sig, a.signature().merged_with(b.signature()));
        }
    }

    /// Scheme evaluation is a pure function: same inputs, same outcome.
    #[test]
    fn evaluation_is_deterministic(inputs in arb_inputs()) {
        let ev = evaluator();
        for scheme in [catalog::by_name("2SC3").unwrap(), catalog::by_name("2SS").unwrap()] {
            let c = scheme.compile();
            prop_assert_eq!(ev.evaluate(&c, &inputs), ev.evaluate(&c, &inputs));
        }
    }

    /// The compiled evaluator is the reference interpreter, statistics
    /// included, on the paper machine and on the 8-cluster machine whose
    /// upper clusters live in the signature's `hi` lane.
    #[test]
    fn evaluator_matches_reference_interpreter(raw in arb_cycles()) {
        for machine in [MachineSpec::Paper4x4, MachineSpec::Narrow8x2] {
            let m = machine.config();
            let cycles: Vec<Vec<PortInput>> = raw
                .iter()
                .map(|ports| {
                    ports
                        .iter()
                        .map(|(ops, ready)| PortInput {
                            sig: build_on(&m, ops).signature(),
                            ready: *ready,
                        })
                        .collect()
                })
                .collect();
            for scheme in schemes_up_to_8_ports() {
                assert_matches_reference(&m, &scheme, &cycles);
            }
        }
    }

    /// Issuing alone: with only one ready port, every scheme issues exactly
    /// that port and the packet equals its signature.
    #[test]
    fn single_ready_port_passes_through(instr in arb_instr(), which in 0u8..4) {
        let ev = evaluator();
        let mut inputs = vec![PortInput::stalled(); 4];
        inputs[which as usize] = PortInput::ready(instr.signature());
        for scheme in catalog::paper_schemes() {
            if scheme.n_ports() != 4 { continue; }
            let out = ev.evaluate(&scheme.compile(), &inputs);
            prop_assert_eq!(out.issued_ports, 1 << which, "{}", scheme.name());
            prop_assert_eq!(out.packet, instr.signature(), "{}", scheme.name());
        }
    }
}

/// Exhaustive mini-model check on tiny signatures: every paper scheme
/// against the reference interpreter, for all 3^4 combinations of single-op
/// instructions on cluster 0, on cluster 1, or a stalled port. The
/// interpreter itself is anchored to the greedy cascade rules first.
#[test]
fn exhaustive_tiny_model() {
    let m = MachineConfig::paper_baseline();
    let caps = ResourceCaps::of(&m);
    // Each thread uses cluster 0, cluster 1, or is stalled.
    let mk = |choice: u8| -> PortInput {
        match choice {
            0 => PortInput::stalled(),
            c => {
                let mut res = vliw_isa::ResourceVec::zero();
                res.bump(c - 1, vliw_isa::OpClass::Alu);
                PortInput::ready(InstrSignature {
                    res,
                    clusters: 1 << (c - 1),
                    n_ops: 1,
                })
            }
        }
    };
    let mut cycles = Vec::new();
    for combo in 0..81u32 {
        let choices = [
            (combo % 3) as u8,
            ((combo / 3) % 3) as u8,
            ((combo / 9) % 3) as u8,
            ((combo / 27) % 3) as u8,
        ];
        let inputs: Vec<PortInput> = choices.iter().map(|&c| mk(c)).collect();
        // CSMT serial cascade: greedily add threads with disjoint cluster
        // usage.
        let mut used = 0u8;
        let mut expect = 0u8;
        for (i, &c) in choices.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let mask = 1u8 << (c - 1);
            if used & mask == 0 {
                used |= mask;
                expect |= 1 << i;
            }
        }
        let csmt = catalog::csmt_serial(4);
        let (ports, _) = Reference::new(&csmt).eval(&csmt, &inputs, &caps);
        assert_eq!(ports, expect, "combo {choices:?}");
        // SMT merges everything that is ready here (ALU counts of 1 or 2
        // per cluster always fit a 4-wide cluster).
        let ready: u8 = choices
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .fold(0, |m, (i, _)| m | (1 << i));
        let smt = catalog::smt_cascade(4);
        let (ports, _) = Reference::new(&smt).eval(&smt, &inputs, &caps);
        assert_eq!(ports, ready, "combo {choices:?}");
        cycles.push(inputs);
    }
    for scheme in catalog::paper_schemes() {
        assert_matches_reference(&m, &scheme, &cycles);
    }
}
