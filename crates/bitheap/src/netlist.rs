use std::fmt;

/// Index of a node in a [`Netlist`].
pub type NodeId = usize;

/// A boolean node: either a primary input, a constant, or a gate over
/// previously defined nodes.
///
/// The gate set is exactly what bit-heap work needs: AND for partial
/// products, XOR/MAJ for compressors, and a generic ≤6-input lookup table
/// for the "out of band" auxiliary functions of §III (modern FPGAs are
/// built from 6-input LUTs, so any 6-input truth table costs one LUT —
/// "however random these entries may seem", §II-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeOp {
    /// A primary input bit.
    Input,
    /// A constant bit.
    Const(bool),
    /// Logical AND of the operands.
    And(Vec<NodeId>),
    /// Logical XOR of the operands.
    Xor(Vec<NodeId>),
    /// Majority of exactly three operands (the carry of a full adder).
    Maj(NodeId, NodeId, NodeId),
    /// Negation.
    Not(NodeId),
    /// A lookup table over up to 6 operands; bit `i` of `table` is the
    /// output when the operands spell the integer `i` (operand 0 is the
    /// LSB).
    Lut {
        /// Operand nodes, LSB first.
        inputs: Vec<NodeId>,
        /// Truth table, one bit per input combination.
        table: u64,
    },
}

/// A flat, append-only boolean netlist.
///
/// Nodes are evaluated in definition order, so gates may only reference
/// earlier nodes — construction order doubles as a topological order,
/// which keeps evaluation a single linear pass.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    nodes: Vec<NodeOp>,
    input_count: usize,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The operation of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn op(&self, id: NodeId) -> &NodeOp {
        &self.nodes[id]
    }

    /// Appends a primary input and returns its id.
    pub fn add_input(&mut self) -> NodeId {
        self.input_count += 1;
        self.push(NodeOp::Input)
    }

    /// Appends `k` primary inputs (LSB first) and returns their ids.
    pub fn add_inputs(&mut self, k: usize) -> Vec<NodeId> {
        (0..k).map(|_| self.add_input()).collect()
    }

    /// Appends a constant node.
    pub fn constant(&mut self, v: bool) -> NodeId {
        self.push(NodeOp::Const(v))
    }

    /// Appends an AND gate.
    ///
    /// # Panics
    ///
    /// Panics if any operand id is not yet defined.
    pub fn and(&mut self, ops: &[NodeId]) -> NodeId {
        self.check(ops);
        self.push(NodeOp::And(ops.to_vec()))
    }

    /// Appends an XOR gate.
    ///
    /// # Panics
    ///
    /// Panics if any operand id is not yet defined.
    pub fn xor(&mut self, ops: &[NodeId]) -> NodeId {
        self.check(ops);
        self.push(NodeOp::Xor(ops.to_vec()))
    }

    /// Appends a 3-input majority gate (full-adder carry).
    ///
    /// # Panics
    ///
    /// Panics if any operand id is not yet defined.
    pub fn maj(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        self.check(&[a, b, c]);
        self.push(NodeOp::Maj(a, b, c))
    }

    /// Appends a NOT gate.
    ///
    /// # Panics
    ///
    /// Panics if the operand id is not yet defined.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.check(&[a]);
        self.push(NodeOp::Not(a))
    }

    /// Appends a LUT node.
    ///
    /// # Panics
    ///
    /// Panics if more than 6 inputs are given or any operand id is not yet
    /// defined.
    pub fn lut(&mut self, inputs: &[NodeId], table: u64) -> NodeId {
        assert!(inputs.len() <= 6, "LUTs have at most 6 inputs");
        self.check(inputs);
        self.push(NodeOp::Lut {
            inputs: inputs.to_vec(),
            table,
        })
    }

    fn check(&self, ops: &[NodeId]) {
        for &o in ops {
            assert!(o < self.nodes.len(), "operand {o} not yet defined");
        }
    }

    fn push(&mut self, op: NodeOp) -> NodeId {
        self.nodes.push(op);
        self.nodes.len() - 1
    }

    /// Evaluates every node under the given input assignment and returns
    /// node values in definition order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`Self::input_count`].
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let mut vals = Vec::with_capacity(self.nodes.len());
        let mut next_input = 0;
        for op in &self.nodes {
            let v = match op {
                NodeOp::Input => {
                    let v = inputs[next_input];
                    next_input += 1;
                    v
                }
                NodeOp::Const(c) => *c,
                NodeOp::And(ops) => ops.iter().all(|&o| vals[o]),
                NodeOp::Xor(ops) => ops.iter().fold(false, |acc, &o| acc ^ vals[o]),
                NodeOp::Maj(a, b, c) => {
                    (u8::from(vals[*a]) + u8::from(vals[*b]) + u8::from(vals[*c])) >= 2
                }
                NodeOp::Not(a) => !vals[*a],
                NodeOp::Lut { inputs, table } => {
                    let mut idx = 0u64;
                    for (i, &o) in inputs.iter().enumerate() {
                        idx |= u64::from(vals[o]) << i;
                    }
                    (table >> idx) & 1 == 1
                }
            };
            vals.push(v);
        }
        vals
    }

    /// Builds an input assignment from integer-valued buses, where each
    /// `(bus, value)` pair assigns bit `i` of `value` to `bus[i]`.
    ///
    /// Bus node ids must be primary inputs created in order; the assignment
    /// vector is indexed by input ordinal (creation order).
    #[must_use]
    pub fn assignment_from_ints(buses: &[(&[NodeId], u64)]) -> Vec<bool> {
        let total: usize = buses.iter().map(|(b, _)| b.len()).sum();
        let mut assign = vec![false; total];
        let mut ordinal = 0;
        for (bus, value) in buses {
            for i in 0..bus.len() {
                assign[ordinal] = (value >> i) & 1 == 1;
                ordinal += 1;
            }
        }
        assign
    }

    /// Logic depth of a node: longest path to an input (inputs and
    /// constants have depth 0, every gate adds 1).
    #[must_use]
    pub fn depth(&self, id: NodeId) -> u32 {
        let mut depths = vec![0u32; self.nodes.len()];
        for (i, op) in self.nodes.iter().enumerate() {
            depths[i] = match op {
                NodeOp::Input | NodeOp::Const(_) => 0,
                NodeOp::And(ops) | NodeOp::Xor(ops) => {
                    1 + ops.iter().map(|&o| depths[o]).max().unwrap_or(0)
                }
                NodeOp::Maj(a, b, c) => 1 + depths[*a].max(depths[*b]).max(depths[*c]),
                NodeOp::Not(a) => 1 + depths[*a],
                NodeOp::Lut { inputs, .. } => {
                    1 + inputs.iter().map(|&o| depths[o]).max().unwrap_or(0)
                }
            };
            if i == id {
                break;
            }
        }
        depths[id]
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist({} nodes, {} inputs)",
            self.nodes.len(),
            self.input_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_evaluate() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let and = n.and(&[a, b]);
        let xor = n.xor(&[a, b, c]);
        let maj = n.maj(a, b, c);
        let not = n.not(a);
        for bits in 0..8u32 {
            let assign = vec![bits & 1 == 1, bits & 2 == 2, bits & 4 == 4];
            let v = n.eval(&assign);
            assert_eq!(v[and], assign[0] && assign[1]);
            assert_eq!(v[xor], assign[0] ^ assign[1] ^ assign[2]);
            #[expect(
                clippy::nonminimal_bool,
                reason = "the textbook 3-input majority form, kept as-is for clarity"
            )]
            let expect_maj =
                (assign[0] && assign[1]) || (assign[0] && assign[2]) || (assign[1] && assign[2]);
            assert_eq!(v[maj], expect_maj);
            assert_eq!(v[not], !assign[0]);
        }
    }

    #[test]
    fn lut_implements_arbitrary_truth_table() {
        let mut n = Netlist::new();
        let ins = n.add_inputs(3);
        // The redundant-carry function of §III: a2 & b0 & a1 & b1 — here a
        // 3-input example: out = exactly-two-ones.
        let mut table = 0u64;
        for i in 0..8u64 {
            if i.count_ones() == 2 {
                table |= 1 << i;
            }
        }
        let lut = n.lut(&ins, table);
        for i in 0..8u64 {
            let assign = Netlist::assignment_from_ints(&[(&ins, i)]);
            assert_eq!(n.eval(&assign)[lut], i.count_ones() == 2, "input {i}");
        }
    }

    #[test]
    fn depth_counts_gate_levels() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let b = n.add_input();
        let x1 = n.xor(&[a, b]);
        let x2 = n.xor(&[x1, a]);
        let x3 = n.xor(&[x2, x1]);
        assert_eq!(n.depth(a), 0);
        assert_eq!(n.depth(x1), 1);
        assert_eq!(n.depth(x2), 2);
        assert_eq!(n.depth(x3), 3);
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn forward_references_rejected() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let _ = n.and(&[a, 99]);
    }

    #[test]
    #[should_panic(expected = "at most 6")]
    fn wide_luts_rejected() {
        let mut n = Netlist::new();
        let ins = n.add_inputs(7);
        let _ = n.lut(&ins, 0);
    }
}
