//! XOR-majority graphs (XMGs).
//!
//! An [`Xmg`] is a logic network whose internal nodes are two-input XORs and
//! three-input majority gates, with complemented edges (Haaswijk et al.,
//! ASP-DAC 2017). The representation is advantageous for reversible logic
//! synthesis because
//!
//! * a MAJ gate costs a single Toffoli (same T-count as AND/OR while being
//!   strictly more expressive),
//! * an XOR gate costs only CNOTs — zero T gates — and
//! * XOR/MAJ can be applied *in place* when operands are no longer needed.
//!
//! AND and OR are the special cases `MAJ(a, b, 0)` and `MAJ(a, b, 1)`.

use crate::aig::Lit;
use crate::hash::FxHashMap;
use crate::tt::{MultiTruthTable, TruthTable};
use std::fmt;

/// An internal XMG node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum XmgNode {
    /// Two-input exclusive OR.
    Xor([Lit; 2]),
    /// Three-input majority.
    Maj([Lit; 3]),
}

/// An XOR-majority graph.
///
/// Node 0 is the constant false and nodes `1..=num_pis` are primary inputs,
/// mirroring the [`crate::aig::Aig`] conventions (the two structures share
/// the [`Lit`] literal type).
///
/// # Example
///
/// ```
/// use qda_logic::xmg::Xmg;
///
/// let mut xmg = Xmg::new(3);
/// let (a, b, c) = (xmg.pi(0), xmg.pi(1), xmg.pi(2));
/// let s = xmg.xor(a, b);
/// let f = xmg.maj(s, b, c);
/// xmg.add_po(f);
/// assert_eq!(xmg.num_xors(), 1);
/// assert_eq!(xmg.num_majs(), 1);
/// ```
#[derive(Clone)]
pub struct Xmg {
    nodes: Vec<XmgNode>,
    num_pis: usize,
    pos: Vec<Lit>,
    strash: FxHashMap<XmgNode, usize>,
}

impl Xmg {
    /// Creates an XMG with `num_pis` primary inputs.
    pub fn new(num_pis: usize) -> Self {
        // Slots for constant + PIs are placeholders, never inspected.
        let filler = XmgNode::Xor([Lit::FALSE; 2]);
        Self {
            nodes: vec![filler; num_pis + 1],
            num_pis,
            pos: Vec::new(),
            strash: FxHashMap::default(),
        }
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Number of primary outputs.
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// Number of internal gates.
    pub fn num_gates(&self) -> usize {
        self.nodes.len() - self.num_pis - 1
    }

    /// Number of XOR gates.
    pub fn num_xors(&self) -> usize {
        self.gate_indices()
            .filter(|&n| matches!(self.nodes[n], XmgNode::Xor(_)))
            .count()
    }

    /// Number of MAJ gates (each costs one Toffoli downstream).
    pub fn num_majs(&self) -> usize {
        self.gate_indices()
            .filter(|&n| matches!(self.nodes[n], XmgNode::Maj(_)))
            .count()
    }

    /// Indices of internal gate nodes in topological order.
    pub fn gate_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (self.num_pis + 1)..self.nodes.len()
    }

    /// Whether `node` is an internal gate.
    pub fn is_gate(&self, node: usize) -> bool {
        node > self.num_pis
    }

    /// The gate stored at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a gate.
    pub fn gate(&self, node: usize) -> XmgNode {
        assert!(self.is_gate(node), "node {node} is not a gate");
        self.nodes[node]
    }

    /// The literal of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_pis`.
    pub fn pi(&self, i: usize) -> Lit {
        assert!(i < self.num_pis, "PI {i} out of range");
        Lit::new(i + 1, false)
    }

    /// The primary-output literals.
    pub fn pos(&self) -> &[Lit] {
        &self.pos
    }

    /// Registers a primary output; returns its index.
    pub fn add_po(&mut self, lit: Lit) -> usize {
        self.pos.push(lit);
        self.pos.len() - 1
    }

    /// Creates (or reuses) an XOR gate. Complements are pulled to the
    /// output so stored XOR nodes always have positive fanins.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return Lit::FALSE;
        }
        if a == !b {
            return Lit::TRUE;
        }
        if a.is_const() {
            return b ^ (a == Lit::TRUE);
        }
        if b.is_const() {
            return a ^ (b == Lit::TRUE);
        }
        let compl = a.is_complement() ^ b.is_complement();
        let (mut x, mut y) = (Lit::new(a.node(), false), Lit::new(b.node(), false));
        if x > y {
            std::mem::swap(&mut x, &mut y);
        }
        let key = XmgNode::Xor([x, y]);
        let n = *self.strash.entry(key).or_insert_with(|| {
            self.nodes.push(key);
            self.nodes.len() - 1
        });
        Lit::new(n, compl)
    }

    /// Creates (or reuses) a MAJ gate, applying trivial rules
    /// (`maj(a,a,b) = a`, `maj(a,!a,b) = b`) and operand sorting.
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let mut ops = [a, b, c];
        ops.sort_unstable();
        let [a, b, c] = ops;
        // Trivial rules.
        if a == b {
            return a;
        }
        if b == c {
            return b;
        }
        if a == !b {
            return c;
        }
        if b == !c {
            return a;
        }
        if a == !c {
            return b;
        }
        // Constant folding: after sorting, constants are first.
        if a == Lit::FALSE {
            // maj(0,b,c) = b & c — still a MAJ node by convention.
        }
        // Self-duality canonicalization: if two or more operands are
        // complemented, complement all and the output.
        let ncompl = ops.iter().filter(|l| l.is_complement()).count();
        if ncompl >= 2 {
            let out = self.maj(!a, !b, !c);
            return !out;
        }
        let mut key_ops = [a, b, c];
        key_ops.sort_unstable();
        let key = XmgNode::Maj(key_ops);
        let n = *self.strash.entry(key).or_insert_with(|| {
            self.nodes.push(key);
            self.nodes.len() - 1
        });
        Lit::new(n, false)
    }

    /// AND as `MAJ(a, b, 0)`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        self.maj(a, b, Lit::FALSE)
    }

    /// OR as `MAJ(a, b, 1)`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.maj(a, b, Lit::TRUE)
    }

    /// Multiplexer `s ? t : e` = `maj(maj(s,t,0), maj(!s,e,0), 1)`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// Evaluates all outputs on one assignment.
    pub fn eval(&self, x: u64) -> u64 {
        let mut values = vec![false; self.nodes.len()];
        for i in 0..self.num_pis {
            values[i + 1] = (x >> i) & 1 == 1;
        }
        let read = |values: &[bool], l: Lit| values[l.node()] ^ l.is_complement();
        for n in (self.num_pis + 1)..self.nodes.len() {
            values[n] = match self.nodes[n] {
                XmgNode::Xor([a, b]) => read(&values, a) ^ read(&values, b),
                XmgNode::Maj([a, b, c]) => {
                    let (va, vb, vc) = (read(&values, a), read(&values, b), read(&values, c));
                    (va as u8 + vb as u8 + vc as u8) >= 2
                }
            };
        }
        let mut y = 0u64;
        for (j, po) in self.pos.iter().enumerate() {
            if read(&values, *po) {
                y |= 1 << j;
            }
        }
        y
    }

    /// Explicit truth tables of all outputs (use for `num_pis ≤ 20`).
    pub fn to_truth_tables(&self) -> MultiTruthTable {
        let n = self.num_pis;
        let mut outs = vec![TruthTable::zero(n); self.pos.len()];
        for x in 0..(1u64 << n) {
            let y = self.eval(x);
            for (j, t) in outs.iter_mut().enumerate() {
                if (y >> j) & 1 == 1 {
                    t.set(x, true);
                }
            }
        }
        MultiTruthTable::from_outputs(outs)
    }

    /// Logic level of every node (PIs at level 0).
    pub fn levels(&self) -> Vec<usize> {
        let mut lv = vec![0usize; self.nodes.len()];
        for n in (self.num_pis + 1)..self.nodes.len() {
            lv[n] = 1 + match self.nodes[n] {
                XmgNode::Xor([a, b]) => lv[a.node()].max(lv[b.node()]),
                XmgNode::Maj([a, b, c]) => lv[a.node()].max(lv[b.node()]).max(lv[c.node()]),
            };
        }
        lv
    }

    /// Depth (max output level).
    pub fn depth(&self) -> usize {
        let lv = self.levels();
        self.pos.iter().map(|po| lv[po.node()]).max().unwrap_or(0)
    }

    /// Fanout count per node (how many gate fanins / POs reference it).
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for n in self.gate_indices() {
            match self.nodes[n] {
                XmgNode::Xor([a, b]) => {
                    counts[a.node()] += 1;
                    counts[b.node()] += 1;
                }
                XmgNode::Maj([a, b, c]) => {
                    counts[a.node()] += 1;
                    counts[b.node()] += 1;
                    counts[c.node()] += 1;
                }
            }
        }
        for po in &self.pos {
            counts[po.node()] += 1;
        }
        counts
    }

    /// Removes unreachable gates; returns the compacted XMG.
    pub fn cleanup(&self) -> Xmg {
        let mut reach = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.pos.iter().map(|p| p.node()).collect();
        while let Some(n) = stack.pop() {
            if reach[n] {
                continue;
            }
            reach[n] = true;
            if self.is_gate(n) {
                match self.nodes[n] {
                    XmgNode::Xor([a, b]) => {
                        stack.push(a.node());
                        stack.push(b.node());
                    }
                    XmgNode::Maj([a, b, c]) => {
                        stack.push(a.node());
                        stack.push(b.node());
                        stack.push(c.node());
                    }
                }
            }
        }
        let mut out = Xmg::new(self.num_pis);
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.nodes.len()];
        for (i, m) in map.iter_mut().enumerate().take(self.num_pis + 1) {
            *m = Lit::new(i, false);
        }
        let remap = |map: &[Lit], l: Lit| map[l.node()] ^ l.is_complement();
        for n in self.gate_indices() {
            if !reach[n] {
                continue;
            }
            map[n] = match self.nodes[n] {
                XmgNode::Xor([a, b]) => {
                    let (x, y) = (remap(&map, a), remap(&map, b));
                    out.xor(x, y)
                }
                XmgNode::Maj([a, b, c]) => {
                    let (x, y, z) = (remap(&map, a), remap(&map, b), remap(&map, c));
                    out.maj(x, y, z)
                }
            };
        }
        for po in &self.pos {
            let l = remap(&map, *po);
            out.add_po(l);
        }
        out
    }
}

impl fmt::Debug for Xmg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Xmg({} PIs, {} XOR, {} MAJ, {} POs, depth {})",
            self.num_pis,
            self.num_xors(),
            self.num_majs(),
            self.pos.len(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_semantics() {
        let mut xmg = Xmg::new(3);
        let (a, b, c) = (xmg.pi(0), xmg.pi(1), xmg.pi(2));
        let x = xmg.xor(a, b);
        let m = xmg.maj(a, b, c);
        let n = xmg.and(a, b);
        let o = xmg.or(a, c);
        xmg.add_po(x);
        xmg.add_po(m);
        xmg.add_po(n);
        xmg.add_po(o);
        for input in 0..8u64 {
            let (va, vb, vc) = (input & 1, (input >> 1) & 1, (input >> 2) & 1);
            let y = xmg.eval(input);
            assert_eq!(y & 1, va ^ vb);
            assert_eq!((y >> 1) & 1, u64::from(va + vb + vc >= 2));
            assert_eq!((y >> 2) & 1, va & vb);
            assert_eq!((y >> 3) & 1, va | vc);
        }
    }

    #[test]
    fn xor_complement_canonicalization() {
        let mut xmg = Xmg::new(2);
        let (a, b) = (xmg.pi(0), xmg.pi(1));
        let f = xmg.xor(a, b);
        let g = xmg.xor(!a, b);
        assert_eq!(g, !f);
        assert_eq!(xmg.num_gates(), 1);
    }

    #[test]
    fn maj_self_duality() {
        let mut xmg = Xmg::new(3);
        let (a, b, c) = (xmg.pi(0), xmg.pi(1), xmg.pi(2));
        let f = xmg.maj(a, b, c);
        let g = xmg.maj(!a, !b, !c);
        assert_eq!(g, !f);
        assert_eq!(xmg.num_gates(), 1);
    }

    #[test]
    fn maj_trivial_rules() {
        let mut xmg = Xmg::new(2);
        let (a, b) = (xmg.pi(0), xmg.pi(1));
        assert_eq!(xmg.maj(a, a, b), a);
        assert_eq!(xmg.maj(a, !a, b), b);
        assert_eq!(xmg.num_gates(), 0);
    }

    #[test]
    fn mux_semantics() {
        let mut xmg = Xmg::new(3);
        let (s, t, e) = (xmg.pi(0), xmg.pi(1), xmg.pi(2));
        let m = xmg.mux(s, t, e);
        xmg.add_po(m);
        for input in 0..8u64 {
            let (vs, vt, ve) = (input & 1, (input >> 1) & 1, (input >> 2) & 1);
            assert_eq!(xmg.eval(input), if vs == 1 { vt } else { ve });
        }
    }

    #[test]
    fn cleanup_preserves_semantics() {
        let mut xmg = Xmg::new(3);
        let (a, b, c) = (xmg.pi(0), xmg.pi(1), xmg.pi(2));
        let _dead = xmg.maj(a, b, c);
        let live = xmg.xor(a, c);
        xmg.add_po(live);
        let cleaned = xmg.cleanup();
        assert_eq!(cleaned.num_gates(), 1);
        for x in 0..8u64 {
            assert_eq!(cleaned.eval(x), xmg.eval(x));
        }
    }

    #[test]
    fn truth_tables_match_eval() {
        let mut xmg = Xmg::new(4);
        let pis: Vec<Lit> = (0..4).map(|i| xmg.pi(i)).collect();
        let s = xmg.xor(pis[0], pis[1]);
        let t = xmg.maj(s, pis[2], !pis[3]);
        xmg.add_po(t);
        let tts = xmg.to_truth_tables();
        for x in 0..16u64 {
            assert_eq!(u64::from(tts.outputs()[0].get(x)), xmg.eval(x));
        }
    }
}
