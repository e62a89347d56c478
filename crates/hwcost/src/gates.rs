//! Static-CMOS gate library and netlist accumulator.
//!
//! Transistor counts are standard static-CMOS figures (INV 2, NAND2/NOR2 4,
//! complex gates 2 per input pair, transmission-gate MUX2 with buffered
//! select 12, mirror full adder 28). Delay is counted in *gate delays* as
//! the paper does: one level per simple gate, two for XOR/MUX/adder stages.

/// One gate type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input AND (NAND + INV).
    And2,
    /// 2-input OR (NOR + INV).
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2:1 multiplexer (transmission gates + select buffer).
    Mux2,
    /// AND-OR-INVERT 2-2 complex gate.
    Aoi22,
    /// Half adder (XOR + AND).
    HalfAdder,
    /// Full adder (mirror adder).
    FullAdder,
}

impl Gate {
    /// Transistor count.
    pub const fn transistors(self) -> u64 {
        match self {
            Gate::Inv => 2,
            Gate::Nand2 | Gate::Nor2 => 4,
            Gate::Nand3 => 6,
            Gate::Nand4 => 8,
            Gate::And2 | Gate::Or2 => 6,
            Gate::Aoi22 => 8,
            Gate::Xor2 => 8,
            Gate::Mux2 => 12,
            Gate::HalfAdder => 14,
            Gate::FullAdder => 28,
        }
    }

    /// Delay in gate-delay units.
    pub const fn delay(self) -> u32 {
        match self {
            Gate::Inv => 1,
            Gate::Nand2 | Gate::Nor2 | Gate::Nand3 | Gate::Nand4 => 1,
            Gate::And2 | Gate::Or2 | Gate::Aoi22 => 1,
            Gate::Xor2 | Gate::Mux2 => 2,
            Gate::HalfAdder => 2,
            Gate::FullAdder => 2,
        }
    }
}

/// Handle to a netlist node (a gate output or primary input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

/// A netlist accumulator: tracks total transistors and per-node depth.
///
/// The structure is deliberately lean: nodes carry only their arrival depth
/// (the full gate graph is never needed — costs and critical paths are all
/// the paper's figures use).
#[derive(Debug, Default, Clone)]
pub struct Netlist {
    depth: Vec<u32>,
    transistors: u64,
    n_gates: u64,
}

impl Netlist {
    /// Empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// A primary input (depth 0).
    pub fn input(&mut self) -> NodeId {
        self.depth.push(0);
        NodeId(self.depth.len() as u32 - 1)
    }

    /// An input that arrives at a given depth (signal from another block).
    pub fn input_at(&mut self, depth: u32) -> NodeId {
        self.depth.push(depth);
        NodeId(self.depth.len() as u32 - 1)
    }

    /// Add a gate driven by `inputs`; returns its output node.
    pub fn gate(&mut self, g: Gate, inputs: &[NodeId]) -> NodeId {
        let d = inputs
            .iter()
            .map(|i| self.depth[i.0 as usize])
            .max()
            .unwrap_or(0)
            + g.delay();
        self.transistors += g.transistors();
        self.n_gates += 1;
        self.depth.push(d);
        NodeId(self.depth.len() as u32 - 1)
    }

    /// Depth (arrival time) of a node.
    pub fn depth_of(&self, n: NodeId) -> u32 {
        self.depth[n.0 as usize]
    }

    /// Total transistors so far.
    pub fn transistors(&self) -> u64 {
        self.transistors
    }

    /// Total gates so far.
    pub fn n_gates(&self) -> u64 {
        self.n_gates
    }

    /// Critical path over all nodes.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Balanced OR-reduction of `nodes` (identity for a single node).
    pub fn or_tree(&mut self, nodes: &[NodeId]) -> NodeId {
        self.reduce(Gate::Or2, nodes)
    }

    /// Balanced AND-reduction of `nodes`.
    pub fn and_tree(&mut self, nodes: &[NodeId]) -> NodeId {
        self.reduce(Gate::And2, nodes)
    }

    fn reduce(&mut self, g: Gate, nodes: &[NodeId]) -> NodeId {
        assert!(!nodes.is_empty(), "cannot reduce zero nodes");
        let mut level: Vec<NodeId> = nodes.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.gate(g, pair));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// Ripple add of two equal-width values; returns sum bits (with carry).
    pub fn adder(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry: Option<NodeId> = None;
        for (&x, &y) in a.iter().zip(b) {
            let s = match carry {
                None => self.gate(Gate::HalfAdder, &[x, y]),
                Some(c) => self.gate(Gate::FullAdder, &[x, y, c]),
            };
            carry = Some(self.gate(Gate::Inv, &[s]));
            out.push(s);
        }
        out.push(carry.expect("non-empty add"));
        out
    }

    /// "value > cap" detector over `bits` (cap a small constant): modelled
    /// as a 2-level AND-OR over the bit patterns exceeding the cap.
    pub fn exceeds_const(&mut self, bits: &[NodeId], _cap: u8) -> NodeId {
        // Cost model: one AND per minterm group + OR reduce; approximated
        // by an AND2 per bit followed by an OR tree (the exact minterm
        // count varies with the cap by at most a couple of gates).
        let ands: Vec<NodeId> = bits.windows(2).map(|w| self.gate(Gate::And2, w)).collect();
        let all = if ands.is_empty() { bits.to_vec() } else { ands };
        self.or_tree(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_accumulates_along_paths() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let x = n.gate(Gate::And2, &[a, b]);
        let y = n.gate(Gate::Or2, &[x, a]);
        assert_eq!(n.depth_of(x), 1);
        assert_eq!(n.depth_of(y), 2);
        assert_eq!(n.transistors(), 12);
        assert_eq!(n.max_depth(), 2);
    }

    #[test]
    fn or_tree_depth_is_logarithmic() {
        let mut n = Netlist::new();
        let inputs: Vec<NodeId> = (0..16).map(|_| n.input()).collect();
        let out = n.or_tree(&inputs);
        assert_eq!(n.depth_of(out), 4);
        // 15 OR2 gates.
        assert_eq!(n.n_gates(), 15);
    }

    #[test]
    fn single_node_reduction_is_free() {
        let mut n = Netlist::new();
        let a = n.input();
        let out = n.or_tree(&[a]);
        assert_eq!(out, a);
        assert_eq!(n.transistors(), 0);
    }

    #[test]
    fn adder_produces_carry_out() {
        let mut n = Netlist::new();
        let a: Vec<NodeId> = (0..3).map(|_| n.input()).collect();
        let b: Vec<NodeId> = (0..3).map(|_| n.input()).collect();
        let s = n.adder(&a, &b);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn input_at_offsets_depth() {
        let mut n = Netlist::new();
        let late = n.input_at(7);
        let x = n.gate(Gate::Inv, &[late]);
        assert_eq!(n.depth_of(x), 8);
    }
}
