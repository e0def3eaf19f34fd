//! Hierarchical (structural) reversible synthesis from XMGs — the paper's
//! scalable third flow (§IV-C).
//!
//! Every XMG gate is computed onto an ancilla line:
//!
//! * XOR gates cost only CNOTs (zero T) and can be applied **in place**
//!   when an operand value is no longer needed — both advantages the paper
//!   cites for the XMG representation;
//! * MAJ gates cost exactly one Toffoli via the conjugation identity
//!   `maj(a,b,c) = a ⊕ ((a⊕b) ∧ (a⊕c))`;
//! * AND/OR (MAJ with a constant operand) cost one Toffoli.
//!
//! Cleanup strategies mirror REVS' "different strategies for cleaning up
//! intermediate calculations and re-using the qubits that have been freed
//! up":
//!
//! * [`CleanupStrategy::Bennett`] — compute everything, copy the outputs,
//!   uncompute everything (clean ancillae, inputs preserved);
//! * [`CleanupStrategy::PerOutput`] — compute one output cone at a time and
//!   uncompute it before the next (fewer simultaneous lines, recomputation
//!   cost for shared logic);
//! * [`CleanupStrategy::KeepGarbage`] — no uncomputation (cheapest gates,
//!   dirty ancillae).

use qda_logic::aig::Lit;
use qda_logic::xmg::{Xmg, XmgNode};
use qda_rev::circuit::{Circuit, LineAllocator};
use qda_rev::gate::{Control, Gate};

/// Ancilla cleanup policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CleanupStrategy {
    /// Whole-network Bennett compute–copy–uncompute.
    Bennett,
    /// Per-output compute–copy–uncompute (qubit reuse across cones).
    PerOutput,
    /// Leave intermediate values as garbage.
    KeepGarbage,
}

/// Options for [`synthesize_xmg`].
#[derive(Clone, Copy, Debug)]
pub struct HierarchicalOptions {
    /// Cleanup policy.
    pub strategy: CleanupStrategy,
    /// Allow XOR gates to overwrite a dying operand line instead of
    /// allocating a fresh ancilla.
    pub inplace_xor: bool,
}

impl Default for HierarchicalOptions {
    fn default() -> Self {
        Self {
            strategy: CleanupStrategy::Bennett,
            inplace_xor: true,
        }
    }
}

/// Result of hierarchical synthesis.
#[derive(Clone, Debug)]
pub struct HierarchicalSynthesis {
    /// The synthesized circuit.
    pub circuit: Circuit,
    /// Input lines (`0..n`), preserved by the circuit.
    pub input_lines: Vec<usize>,
    /// Output lines, clean before execution, carrying the results after.
    pub output_lines: Vec<usize>,
    /// Mid-circuit ancilla release events `(line, gate_position)` from
    /// the per-output recycling strategy (empty for the others): before
    /// the gate at `gate_position`, `line` went back to the allocator
    /// and must hold |0⟩ — the contract the static lifecycle analysis
    /// checks.
    pub releases: Vec<(usize, usize)>,
}

/// Synthesizes a reversible circuit computing all XMG outputs.
///
/// Inputs arrive on lines `0..n`; outputs appear on
/// [`HierarchicalSynthesis::output_lines`]. With the Bennett and PerOutput
/// strategies all ancillae end clean and inputs are preserved.
///
/// # Example
///
/// ```
/// use qda_logic::xmg::Xmg;
/// use qda_revsynth::hierarchical::{synthesize_xmg, HierarchicalOptions};
///
/// let mut xmg = Xmg::new(2);
/// let (a, b) = (xmg.pi(0), xmg.pi(1));
/// let f = xmg.xor(a, b);
/// xmg.add_po(f);
/// let s = synthesize_xmg(&xmg, &HierarchicalOptions::default());
/// let out = s.circuit.simulate_u64(0b01);
/// assert_eq!(out >> s.output_lines[0] & 1, 1);
/// ```
pub fn synthesize_xmg(xmg: &Xmg, options: &HierarchicalOptions) -> HierarchicalSynthesis {
    match options.strategy {
        CleanupStrategy::Bennett | CleanupStrategy::KeepGarbage => {
            synthesize_whole(xmg, options, options.strategy == CleanupStrategy::Bennett)
        }
        CleanupStrategy::PerOutput => synthesize_per_output(xmg, options),
    }
}

/// Tracks where each XMG node's (positive) value lives.
struct Frame {
    /// node index → line holding its value (usize::MAX = not computed).
    line_of: Vec<usize>,
}

impl Frame {
    fn new(xmg: &Xmg) -> Self {
        let mut line_of = vec![usize::MAX; xmg.num_pis() + xmg.num_gates() + 1];
        for i in 0..xmg.num_pis() {
            line_of[i + 1] = i;
        }
        Self { line_of }
    }

    fn line(&self, node: usize) -> usize {
        let l = self.line_of[node];
        assert_ne!(l, usize::MAX, "node {node} not computed");
        l
    }
}

/// Appends the gates computing `node` onto a line to `gates`.
fn compute_node(
    xmg: &Xmg,
    node: usize,
    frame: &mut Frame,
    gates: &mut Vec<Gate>,
    alloc: &mut LineAllocator,
    remaining_uses: &mut [usize],
    options: &HierarchicalOptions,
) {
    let gate = xmg.gate(node);
    match gate {
        XmgNode::Xor([a, b]) => {
            // XOR fanins are stored positive by canonicalization.
            let (la, lb) = (frame.line(a.node()), frame.line(b.node()));
            // In-place: overwrite a dying gate-operand line.
            let dying =
                |l: Lit, remaining: &[usize]| xmg.is_gate(l.node()) && remaining[l.node()] == 1;
            if options.inplace_xor && dying(a, remaining_uses) {
                gates.push(Gate::cnot(lb, la));
                frame.line_of[node] = la;
                frame.line_of[a.node()] = usize::MAX; // consumed
            } else if options.inplace_xor && dying(b, remaining_uses) {
                gates.push(Gate::cnot(la, lb));
                frame.line_of[node] = lb;
                frame.line_of[b.node()] = usize::MAX; // consumed
            } else {
                let t = alloc.alloc();
                gates.push(Gate::cnot(la, t));
                gates.push(Gate::cnot(lb, t));
                frame.line_of[node] = t;
            }
            remaining_uses[a.node()] = remaining_uses[a.node()].saturating_sub(1);
            remaining_uses[b.node()] = remaining_uses[b.node()].saturating_sub(1);
        }
        XmgNode::Maj([a, b, c]) => {
            let t = alloc.alloc();
            let consts: Vec<Lit> = [a, b, c].iter().copied().filter(|l| l.is_const()).collect();
            let vars: Vec<Lit> = [a, b, c]
                .iter()
                .copied()
                .filter(|l| !l.is_const())
                .collect();
            match consts.as_slice() {
                [] => {
                    // t ^= maj(a,b,c) via conjugation. Fold operand
                    // complements with X conjugation on their lines.
                    let lines: Vec<usize> = vars.iter().map(|l| frame.line(l.node())).collect();
                    let flips: Vec<usize> = vars
                        .iter()
                        .zip(&lines)
                        .filter(|(l, _)| l.is_complement())
                        .map(|(_, &ln)| ln)
                        .collect();
                    gates.extend(flips.iter().map(|&f| Gate::not(f)));
                    let (la, lb, lc) = (lines[0], lines[1], lines[2]);
                    gates.extend([
                        Gate::cnot(la, t),
                        Gate::cnot(la, lb),
                        Gate::cnot(la, lc),
                        Gate::toffoli(lb, lc, t),
                        Gate::cnot(la, lb),
                        Gate::cnot(la, lc),
                    ]);
                    gates.extend(flips.iter().map(|&f| Gate::not(f)));
                }
                [k] => {
                    // AND (k = 0) or OR (k = 1) of the two variable operands.
                    let is_or = *k == Lit::TRUE;
                    let controls: Vec<Control> = vars
                        .iter()
                        .map(|l| {
                            let line = frame.line(l.node());
                            // OR(a,b) = ¬(¬a ∧ ¬b): invert control phases.
                            if l.is_complement() ^ is_or {
                                Control::negative(line)
                            } else {
                                Control::positive(line)
                            }
                        })
                        .collect();
                    gates.push(Gate::mct(controls, t));
                    if is_or {
                        gates.push(Gate::not(t));
                    }
                }
                _ => unreachable!("maj with two constants folds away"),
            }
            frame.line_of[node] = t;
            for l in vars {
                remaining_uses[l.node()] = remaining_uses[l.node()].saturating_sub(1);
            }
        }
    }
}

/// Appends the gates copying `po`'s value onto the clean line `t`.
fn copy_output(frame: &Frame, gates: &mut Vec<Gate>, po: Lit, t: usize) {
    if po.is_const() {
        if po == Lit::TRUE {
            gates.push(Gate::not(t));
        }
    } else {
        gates.push(Gate::cnot(frame.line(po.node()), t));
        if po.is_complement() {
            gates.push(Gate::not(t));
        }
    }
}

/// Appends the inverse of the compute range `gates[start..computed]`
/// (MPMCT gates are self-inverse, so it is the range reversed).
fn uncompute(gates: &mut Vec<Gate>, start: usize, computed: usize) {
    let from = gates.len();
    gates.extend_from_within(start..computed);
    gates[from..].reverse();
}

/// Packs the gate list once, on the allocator's final line count.
fn pack(
    gates: Vec<Gate>,
    alloc: &LineAllocator,
    n: usize,
    output_lines: Vec<usize>,
) -> HierarchicalSynthesis {
    let mut circuit = Circuit::new(alloc.high_water());
    for g in gates {
        circuit.add_gate(g);
    }
    HierarchicalSynthesis {
        releases: alloc.release_events().to_vec(),
        circuit,
        input_lines: (0..n).collect(),
        output_lines,
    }
}

fn synthesize_whole(
    xmg: &Xmg,
    options: &HierarchicalOptions,
    uncompute_all: bool,
) -> HierarchicalSynthesis {
    let n = xmg.num_pis();
    let mut gates = Vec::new();
    let mut alloc = LineAllocator::new(n);
    let mut frame = Frame::new(xmg);
    let mut remaining = xmg.fanout_counts();
    // With uncomputation pending, every value is used once more (by the
    // inverse pass); in-place consumption is still safe because the inverse
    // pass undoes consumption in reverse order. PO-referenced nodes must
    // never be consumed before the copy, so bump their counts.
    for po in xmg.pos() {
        remaining[po.node()] += 1;
    }
    for node in xmg.gate_indices() {
        compute_node(
            xmg,
            node,
            &mut frame,
            &mut gates,
            &mut alloc,
            &mut remaining,
            options,
        );
    }
    let computed = gates.len();
    let mut output_lines = Vec::with_capacity(xmg.num_pos());
    for &po in xmg.pos() {
        let t = alloc.alloc();
        copy_output(&frame, &mut gates, po, t);
        output_lines.push(t);
    }
    if uncompute_all {
        uncompute(&mut gates, 0, computed);
    }
    pack(gates, &alloc, n, output_lines)
}

fn synthesize_per_output(xmg: &Xmg, options: &HierarchicalOptions) -> HierarchicalSynthesis {
    let n = xmg.num_pis();
    let mut gates = Vec::new();
    let mut alloc = LineAllocator::new(n);
    // Pre-allocate output lines so they survive cone recycling.
    let output_lines = alloc.alloc_many(xmg.num_pos());
    let opts = HierarchicalOptions {
        // In-place XOR interacts with cross-cone reuse; keep it only for
        // Bennett where the full inverse pass restores lines.
        inplace_xor: false,
        ..*options
    };
    for (&po, &out) in xmg.pos().iter().zip(&output_lines) {
        // Nodes in this output's cone, topological order.
        let cone = cone_of(xmg, po);
        let mut frame = Frame::new(xmg);
        // Per-cone fanout counts (uses inside the cone only), +1 for PO.
        let mut remaining = cone_fanouts(xmg, &cone);
        if !po.is_const() {
            remaining[po.node()] += 1;
        }
        let start = gates.len();
        for &node in &cone {
            compute_node(
                xmg,
                node,
                &mut frame,
                &mut gates,
                &mut alloc,
                &mut remaining,
                &opts,
            );
        }
        let computed = gates.len();
        copy_output(&frame, &mut gates, po, out);
        // Uncompute the cone and recycle its lines.
        uncompute(&mut gates, start, computed);
        for &node in &cone {
            let l = frame.line_of[node];
            if l != usize::MAX && l >= n {
                alloc.release_at(l, gates.len());
            }
        }
    }
    pack(gates, &alloc, n, output_lines)
}

/// Gate nodes in the cone of `po`, topological order.
fn cone_of(xmg: &Xmg, po: Lit) -> Vec<usize> {
    let mut in_cone = vec![false; xmg.num_pis() + xmg.num_gates() + 1];
    let mut stack = vec![po.node()];
    while let Some(v) = stack.pop() {
        if in_cone[v] || !xmg.is_gate(v) {
            continue;
        }
        in_cone[v] = true;
        match xmg.gate(v) {
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
    xmg.gate_indices().filter(|&v| in_cone[v]).collect()
}

/// Fanout counts restricted to uses inside `cone`.
fn cone_fanouts(xmg: &Xmg, cone: &[usize]) -> Vec<usize> {
    let mut counts = vec![0usize; xmg.num_pis() + xmg.num_gates() + 1];
    for &v in cone {
        match xmg.gate(v) {
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
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_rev::equiv::{verify_computes, VerifyOptions, VerifyOutcome};

    fn sample_xmg() -> Xmg {
        let mut xmg = Xmg::new(4);
        let pis: Vec<Lit> = (0..4).map(|i| xmg.pi(i)).collect();
        let s = xmg.xor(pis[0], pis[1]);
        let t = xmg.maj(s, pis[2], pis[3]);
        let u = xmg.and(s, !pis[3]);
        let v = xmg.or(t, u);
        let w = xmg.xor(t, v);
        xmg.add_po(v);
        xmg.add_po(!w);
        xmg
    }

    fn oracle(xmg: &Xmg) -> impl Fn(u64) -> u64 + '_ {
        move |x| xmg.eval(x)
    }

    fn verify(xmg: &Xmg, options: &HierarchicalOptions, clean: bool) -> HierarchicalSynthesis {
        let s = synthesize_xmg(xmg, options);
        let outcome = verify_computes(
            &s.circuit,
            &s.input_lines,
            &s.output_lines,
            oracle(xmg),
            &VerifyOptions {
                check_ancilla_clean: clean,
                check_inputs_preserved: clean,
                ..Default::default()
            },
        );
        assert_eq!(outcome, VerifyOutcome::Verified, "{options:?}");
        s
    }

    #[test]
    fn bennett_strategy_is_clean() {
        let xmg = sample_xmg();
        verify(
            &xmg,
            &HierarchicalOptions {
                strategy: CleanupStrategy::Bennett,
                inplace_xor: false,
            },
            true,
        );
    }

    #[test]
    fn bennett_with_inplace_xor_is_clean_and_narrower() {
        let xmg = {
            // XOR-heavy network benefits from in-place application.
            let mut x = Xmg::new(5);
            let pis: Vec<Lit> = (0..5).map(|i| x.pi(i)).collect();
            let mut acc = x.xor(pis[0], pis[1]);
            for &p in &pis[2..] {
                acc = x.xor(acc, p);
            }
            let m = x.maj(acc, pis[0], pis[4]);
            x.add_po(m);
            x
        };
        let wide = verify(
            &xmg,
            &HierarchicalOptions {
                strategy: CleanupStrategy::Bennett,
                inplace_xor: false,
            },
            true,
        );
        let narrow = verify(
            &xmg,
            &HierarchicalOptions {
                strategy: CleanupStrategy::Bennett,
                inplace_xor: true,
            },
            true,
        );
        assert!(
            narrow.circuit.num_lines() < wide.circuit.num_lines(),
            "narrow {} wide {}",
            narrow.circuit.num_lines(),
            wide.circuit.num_lines()
        );
    }

    #[test]
    fn per_output_strategy_reuses_lines() {
        let xmg = sample_xmg();
        let bennett = verify(
            &xmg,
            &HierarchicalOptions {
                strategy: CleanupStrategy::Bennett,
                inplace_xor: false,
            },
            true,
        );
        let per_output = verify(
            &xmg,
            &HierarchicalOptions {
                strategy: CleanupStrategy::PerOutput,
                inplace_xor: false,
            },
            true,
        );
        // Per-output recycles cone ancillae; for multi-output networks with
        // small cones it needs no more lines than Bennett.
        assert!(per_output.circuit.num_lines() <= bennett.circuit.num_lines());
        // …at the price of recomputation (≥ gates).
        assert!(per_output.circuit.num_gates() >= bennett.circuit.num_gates());
    }

    #[test]
    fn keep_garbage_is_functional_but_dirty() {
        let xmg = sample_xmg();
        let s = verify(
            &xmg,
            &HierarchicalOptions {
                strategy: CleanupStrategy::KeepGarbage,
                inplace_xor: false,
            },
            false,
        );
        let bennett = verify(
            &xmg,
            &HierarchicalOptions {
                strategy: CleanupStrategy::Bennett,
                inplace_xor: false,
            },
            true,
        );
        assert!(s.circuit.num_gates() < bennett.circuit.num_gates());
    }

    #[test]
    fn maj_with_complemented_operands() {
        let mut xmg = Xmg::new(3);
        let (a, b, c) = (xmg.pi(0), xmg.pi(1), xmg.pi(2));
        let m = xmg.maj(!a, b, c);
        xmg.add_po(m);
        verify(&xmg, &HierarchicalOptions::default(), true);
    }

    #[test]
    fn constant_outputs_and_passthrough() {
        let mut xmg = Xmg::new(2);
        let a = xmg.pi(0);
        xmg.add_po(Lit::TRUE);
        xmg.add_po(Lit::FALSE);
        xmg.add_po(a);
        xmg.add_po(!a);
        verify(&xmg, &HierarchicalOptions::default(), true);
    }

    #[test]
    fn t_count_comes_from_majs_only() {
        let mut xmg = Xmg::new(4);
        let pis: Vec<Lit> = (0..4).map(|i| xmg.pi(i)).collect();
        let x1 = xmg.xor(pis[0], pis[1]);
        let x2 = xmg.xor(x1, pis[2]);
        let x3 = xmg.xor(x2, pis[3]);
        xmg.add_po(x3);
        let s = verify(&xmg, &HierarchicalOptions::default(), true);
        // Pure-XOR network: zero T gates.
        assert_eq!(s.circuit.cost().t_count, 0);
    }
}
