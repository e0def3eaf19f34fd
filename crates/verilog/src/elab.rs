//! Elaboration: parsed [`Module`] → bit-blasted [`Aig`].
//!
//! Signals become `Vec<Lit>` words (LSB first). Inputs are mapped onto AIG
//! primary inputs in port order, LSB first; outputs onto primary outputs
//! the same way. Assignments are evaluated in dependency order (wires may
//! be declared and assigned in any textual order, but combinational cycles
//! are rejected). Hostile input is refused at [`MAX_NESTING`],
//! [`MAX_WORD_BITS`] and [`MAX_AIG_NODES`].

use crate::ast::{ports_of, Assign, BinOp, Expr, Module, Signal, SignalKind, UnOp};
use crate::words;
use crate::{VerilogError, MAX_AIG_NODES, MAX_NESTING, MAX_WORD_BITS};
use qda_logic::aig::{Aig, Lit};
use std::collections::{HashMap, HashSet};

fn too_wide(bits: usize) -> VerilogError {
    VerilogError::elaborate(format!(
        "word of {bits} bits is wider than {MAX_WORD_BITS} bits"
    ))
}

/// Refuses to let `more` AND nodes take the AIG past [`MAX_AIG_NODES`].
fn charge(aig: &Aig, more: usize) -> Result<(), VerilogError> {
    if aig.num_ands().saturating_add(more) > MAX_AIG_NODES {
        return Err(VerilogError::elaborate(format!(
            "design needs more than {MAX_AIG_NODES} AND nodes"
        )));
    }
    Ok(())
}

/// Worst-case AND nodes of an operator whose cost grows with the product
/// of its operand widths, charged before it runs: sixteen per cell of an
/// `(|a| + |b|) × (|b| + 1)` array bounds the multiplier, the restoring
/// divider and the barrel shifter. Other operators are linear.
fn quadratic_cost(op: BinOp, a: &[Lit], b: &[Lit]) -> usize {
    let cells = (a.len() + b.len()) * (b.len() + 1);
    match op {
        BinOp::Mul | BinOp::Div | BinOp::Mod => 16 * cells,
        BinOp::Shl | BinOp::Shr if !b.iter().all(|l| l.is_const()) => 16 * cells,
        _ => 0,
    }
}

/// Elaborates a module into an AIG.
///
/// # Errors
///
/// Returns [`VerilogError::Elaborate`] on undeclared/unassigned signals,
/// multiple drivers, combinational cycles, out-of-range selects, a
/// division that cannot be bit-blasted, or a design past the nesting,
/// width or node bounds.
pub fn elaborate(module: &Module) -> Result<Aig, VerilogError> {
    // Every name resolves through one table.
    let signals = module.signal_table();
    // Map input bits onto PIs in port order.
    let inputs = ports_of(&module.ports, &signals, SignalKind::Input);
    let outputs = ports_of(&module.ports, &signals, SignalKind::Output);
    let num_pis: usize = inputs.iter().map(|s| s.width()).sum();
    let num_po_bits: usize = outputs.iter().map(|s| s.width()).sum();
    if num_pis + num_po_bits > MAX_AIG_NODES {
        return Err(VerilogError::elaborate(format!(
            "{num_pis} input and {num_po_bits} output bits exceed {MAX_AIG_NODES}"
        )));
    }
    let mut aig = Aig::new(num_pis);
    let mut env: HashMap<String, Vec<Lit>> = HashMap::new();
    let mut next_pi = 0;
    for sig in &inputs {
        let word: Vec<Lit> = (0..sig.width()).map(|k| aig.pi(next_pi + k)).collect();
        next_pi += sig.width();
        env.insert(sig.name.clone(), word);
    }

    // One driver per signal.
    let mut by_target: HashMap<&str, &Assign> = HashMap::new();
    for a in &module.assigns {
        let sig = signals
            .get(a.target.as_str())
            .ok_or_else(|| VerilogError::elaborate(format!("assign to undeclared {}", a.target)))?;
        if sig.kind == SignalKind::Input {
            return Err(VerilogError::elaborate(format!(
                "assign to input {}",
                a.target
            )));
        }
        if by_target.insert(&a.target, a).is_some() {
            return Err(VerilogError::elaborate(format!(
                "multiple drivers for {}",
                a.target
            )));
        }
    }

    // Evaluate on demand with cycle detection; `depth` counts levels and hops.
    fn eval_signal(
        name: &str,
        signals: &HashMap<&str, &Signal>,
        by_target: &HashMap<&str, &Assign>,
        aig: &mut Aig,
        env: &mut HashMap<String, Vec<Lit>>,
        visiting: &mut HashSet<String>,
        depth: usize,
    ) -> Result<Vec<Lit>, VerilogError> {
        if let Some(w) = env.get(name) {
            return Ok(w.clone());
        }
        let sig = signals
            .get(name)
            .ok_or_else(|| VerilogError::elaborate(format!("undeclared signal {name}")))?;
        let assign = by_target
            .get(name)
            .ok_or_else(|| VerilogError::elaborate(format!("no driver for {name}")))?;
        if !visiting.insert(name.to_string()) {
            return Err(VerilogError::elaborate(format!(
                "combinational cycle through {name}"
            )));
        }
        let hop = depth + 1;
        let word = eval_expr(&assign.expr, signals, by_target, aig, env, visiting, hop)?;
        visiting.remove(name);
        // Resize to the declared width (Verilog truncates/zero-extends).
        let word = words::resize(&word, sig.width());
        env.insert(name.to_string(), word.clone());
        Ok(word)
    }

    fn eval_expr(
        expr: &Expr,
        signals: &HashMap<&str, &Signal>,
        by_target: &HashMap<&str, &Assign>,
        aig: &mut Aig,
        env: &mut HashMap<String, Vec<Lit>>,
        visiting: &mut HashSet<String>,
        depth: usize,
    ) -> Result<Vec<Lit>, VerilogError> {
        if depth > MAX_NESTING {
            return Err(VerilogError::elaborate(format!(
                "expression levels plus wire hops exceed {MAX_NESTING}"
            )));
        }
        let mut eval = |e: &Expr, aig: &mut Aig| {
            eval_expr(e, signals, by_target, aig, env, visiting, depth + 1)
        };
        let word = match expr {
            Expr::Ident(name) => eval_signal(name, signals, by_target, aig, env, visiting, depth)?,
            Expr::Literal { bits, .. } => words::constant(bits.len().max(1), bits),
            Expr::Index(inner, i) => {
                let w = eval(inner, aig)?;
                let bit = w.get(*i).copied().ok_or_else(|| {
                    VerilogError::elaborate(format!("bit select [{i}] out of range"))
                })?;
                vec![bit]
            }
            Expr::Range(inner, msb, lsb) => {
                let w = eval(inner, aig)?;
                if *msb >= w.len() {
                    return Err(VerilogError::elaborate(format!(
                        "part select [{msb}:{lsb}] out of range (width {})",
                        w.len()
                    )));
                }
                w[*lsb..=*msb].to_vec()
            }
            Expr::Concat(items) => {
                // First item is most significant.
                let mut word = Vec::new();
                for item in items.iter().rev() {
                    let w = eval(item, aig)?;
                    if word.len() + w.len() > MAX_WORD_BITS {
                        return Err(too_wide(word.len() + w.len()));
                    }
                    word.extend(w);
                }
                word
            }
            Expr::Repeat(k, inner) => {
                let w = eval(inner, aig)?;
                let bits = k.saturating_mul(w.len());
                if bits > MAX_WORD_BITS {
                    return Err(too_wide(bits));
                }
                w.repeat(*k)
            }
            Expr::Unary(op, inner) => {
                let w = eval(inner, aig)?;
                match op {
                    UnOp::Not => words::not_word(&w),
                    UnOp::LogicalNot => vec![!words::red_or(aig, &w)],
                    UnOp::Neg => words::neg(aig, &w),
                    UnOp::RedOr => vec![words::red_or(aig, &w)],
                    UnOp::RedAnd => vec![words::red_and(aig, &w)],
                    UnOp::RedXor => vec![words::red_xor(aig, &w)],
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = eval(lhs, aig)?;
                let b = eval(rhs, aig)?;
                charge(aig, quadratic_cost(*op, &a, &b))?;
                match op {
                    BinOp::Add => words::add(aig, &a, &b).0,
                    BinOp::Sub => words::sub(aig, &a, &b).0,
                    BinOp::Mul => words::mul(aig, &a, &b),
                    BinOp::Div => words::divmod(aig, &a, &b).0,
                    BinOp::Mod => words::divmod(aig, &a, &b).1,
                    BinOp::Shl => shift(aig, &a, &b, true),
                    BinOp::Shr => shift(aig, &a, &b, false),
                    BinOp::And => words::bitwise(aig, &a, &b, qda_logic::Aig::and),
                    BinOp::Or => words::bitwise(aig, &a, &b, qda_logic::Aig::or),
                    BinOp::Xor => words::bitwise(aig, &a, &b, qda_logic::Aig::xor),
                    BinOp::LogicalAnd => {
                        let la = words::red_or(aig, &a);
                        let lb = words::red_or(aig, &b);
                        vec![aig.and(la, lb)]
                    }
                    BinOp::LogicalOr => {
                        let la = words::red_or(aig, &a);
                        let lb = words::red_or(aig, &b);
                        vec![aig.or(la, lb)]
                    }
                    BinOp::Eq => vec![words::eq(aig, &a, &b)],
                    BinOp::Ne => vec![!words::eq(aig, &a, &b)],
                    BinOp::Lt => vec![words::ult(aig, &a, &b)],
                    BinOp::Ge => vec![!words::ult(aig, &a, &b)],
                    BinOp::Gt => vec![words::ult(aig, &b, &a)],
                    BinOp::Le => vec![!words::ult(aig, &b, &a)],
                }
            }
            Expr::Ternary(c, t, e) => {
                let cw = eval(c, aig)?;
                let s = words::red_or(aig, &cw);
                let tw = eval(t, aig)?;
                let ew = eval(e, aig)?;
                words::mux(aig, s, &tw, &ew)
            }
        };
        charge(aig, 0)?;
        if word.len() > MAX_WORD_BITS {
            return Err(too_wide(word.len()));
        }
        Ok(word)
    }

    /// Shift with a constant-detecting fast path.
    fn shift(aig: &mut Aig, a: &[Lit], s: &[Lit], left: bool) -> Vec<Lit> {
        if s.iter().all(|l| l.is_const()) {
            let k: usize = s
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    if l == Lit::TRUE {
                        1usize << i.min(31)
                    } else {
                        0
                    }
                })
                .sum();
            return if left {
                words::shl_const(a, k.min(a.len()))
            } else {
                words::shr_const(a, k.min(a.len()))
            };
        }
        if left {
            words::shl_var(aig, a, s)
        } else {
            words::shr_var(aig, a, s)
        }
    }

    // Drive all outputs.
    let mut visiting = HashSet::new();
    for sig in &outputs {
        let word = eval_signal(
            &sig.name,
            &signals,
            &by_target,
            &mut aig,
            &mut env,
            &mut visiting,
            0,
        )?;
        for &bit in &word {
            aig.add_po(bit);
        }
    }
    Ok(aig.cleanup())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn build(src: &str) -> Aig {
        elaborate(&parse_module(src).expect("parse")).expect("elaborate")
    }

    #[test]
    fn adder_module() {
        let aig = build(
            "module add4(a, b, s);
               input [3:0] a, b;
               output [4:0] s;
               assign s = a + b;
             endmodule",
        );
        // s is declared 5 bits but a+b is 4 bits zero-extended: check mod-16
        // semantics at the declared width.
        for x in 0..16u64 {
            for y in 0..16u64 {
                assert_eq!(aig.eval(x | (y << 4)), (x + y) & 15);
            }
        }
    }

    #[test]
    fn wide_sum_via_concat() {
        let aig = build(
            "module add4c(a, b, s);
               input [3:0] a, b;
               output [4:0] s;
               assign s = {1'b0, a} + {1'b0, b};
             endmodule",
        );
        for x in 0..16u64 {
            for y in 0..16u64 {
                assert_eq!(aig.eval(x | (y << 4)), x + y);
            }
        }
    }

    #[test]
    fn division_module_matches_intdiv_shape() {
        let aig = build(
            "module div(x, y);
               input [4:0] x;
               output [4:0] y;
               assign y = 5'd16 / x;
             endmodule",
        );
        for x in 1..32u64 {
            assert_eq!(aig.eval(x), 16 / x, "16/{x}");
        }
    }

    #[test]
    fn wires_in_any_order_and_selects() {
        let aig = build(
            "module m(a, y);
               input [3:0] a;
               output [1:0] y;
               wire [3:0] t;
               assign y = t[3:2];
               assign t = a ^ {4{a[0]}};
             endmodule",
        );
        for x in 0..16u64 {
            let t = x ^ if x & 1 == 1 { 15 } else { 0 };
            assert_eq!(aig.eval(x), (t >> 2) & 3);
        }
    }

    #[test]
    fn ternary_and_relational() {
        let aig = build(
            "module max(a, b, y);
               input [2:0] a, b;
               output [2:0] y;
               assign y = (a >= b) ? a : b;
             endmodule",
        );
        for x in 0..8u64 {
            for y in 0..8u64 {
                assert_eq!(aig.eval(x | (y << 3)), x.max(y));
            }
        }
    }

    #[test]
    fn variable_shift() {
        let aig = build(
            "module sh(a, k, y);
               input [7:0] a;
               input [2:0] k;
               output [7:0] y;
               assign y = a >> k;
             endmodule",
        );
        for x in [0u64, 0xA5, 0xFF, 0x80] {
            for k in 0..8u64 {
                assert_eq!(aig.eval(x | (k << 8)), x >> k, "{x} >> {k}");
            }
        }
    }

    #[test]
    fn rejects_cycle() {
        let r = parse_module(
            "module m(y);
               output y;
               wire a, b;
               assign a = b;
               assign b = a;
               assign y = a;
             endmodule",
        )
        .map(|m| elaborate(&m));
        assert!(matches!(r, Ok(Err(VerilogError::Elaborate { .. }))));
    }

    #[test]
    fn rejects_multiple_drivers_and_undeclared() {
        let double = parse_module(
            "module m(a, y);
               input a; output y;
               assign y = a;
               assign y = ~a;
             endmodule",
        )
        .unwrap();
        assert!(elaborate(&double).is_err());
        let undeclared = parse_module(
            "module m(a, y);
               input a; output y;
               assign y = ghost;
             endmodule",
        )
        .unwrap();
        assert!(elaborate(&undeclared).is_err());
    }

    fn elaborate_body(body: &str) -> Result<Aig, VerilogError> {
        elaborate(&parse_module(&crate::module(body)).expect("parse"))
    }

    #[test]
    fn expression_levels_plus_wire_hops_are_bounded() {
        // y = w_k, w_i = w_{i-1}, w_0 = a: the deepest call is k + 2
        // levels down.
        let chain = |k: usize| {
            let wires = (1..=k).fold("wire w0; assign w0 = a;".to_string(), |src, i| {
                src + &format!(" wire w{i}; assign w{i} = w{};", i - 1)
            });
            elaborate_body(&format!("{wires} assign y = w{k};"))
        };
        crate::on_worker_stack(move || {
            assert!(chain(MAX_NESTING - 2).is_ok());
            let deeper = chain(MAX_NESTING - 1);
            assert!(matches!(deeper, Err(VerilogError::Elaborate { .. })));
            // The deepest expression the parser accepts elaborates.
            let sum = vec!["a"; MAX_NESTING].join(" ^ ");
            let deepest = elaborate_body(&format!("assign y = {sum};")).unwrap();
            assert_eq!(deepest.eval(1), 0);
        });
    }

    #[test]
    fn words_are_bounded_at_max_word_bits() {
        // A replication, a concatenation and a product `bits` wide.
        let shapes: [fn(usize) -> String; 3] = [
            |bits| format!("{{{bits}{{a}}}}"),
            |bits| format!("{{{{{}{{a}}}}, a}}", bits - 1),
            |bits| format!("{{{}{{a}}}} * {{a, a}}", bits - 2),
        ];
        for shape in shapes {
            let elab = |bits| elaborate_body(&format!("assign y = ^({});", shape(bits)));
            assert!(elab(MAX_WORD_BITS).is_ok(), "{}", shape(4));
            let wider = matches!(elab(MAX_WORD_BITS + 1), Err(VerilogError::Elaborate { .. }));
            assert!(wider, "{}", shape(4));
        }
    }

    #[test]
    fn and_nodes_are_budgeted() {
        // The product of two 1 500-bit words is refused before it runs.
        let wide = vec!["a"; 1_500].join(", ");
        let product = elaborate_body(&format!("assign y = ^({{{wide}}} * {{{wide}}});"));
        let refused = matches!(&product, Err(VerilogError::Elaborate { message }) if message.contains("AND nodes"));
        assert!(refused, "{product:?}");
        // Interface bits count against the same budget.
        let n = MAX_AIG_NODES / MAX_WORD_BITS;
        let names: String = (0..n).map(|i| format!(", a{i}")).collect();
        let msb = MAX_WORD_BITS - 1;
        let src = format!(
            "module m(y, b{names}); input [{msb}:0] b{names}; output y; assign y = b[0]; endmodule"
        );
        let r = elaborate(&parse_module(&src).unwrap());
        assert!(matches!(r, Err(VerilogError::Elaborate { .. })));
    }

    #[test]
    fn modulo_operator() {
        let aig = build(
            "module m(a, y);
               input [3:0] a;
               output [2:0] y;
               assign y = a % 3'd5;
             endmodule",
        );
        for x in 0..16u64 {
            assert_eq!(aig.eval(x), x % 5);
        }
    }

    #[test]
    fn thirty_thousand_declared_wires_elaborate() {
        // Each `assign` resolves its target by name; a linear scan per
        // name made this module quadratic to elaborate.
        let n = 30_000;
        let mut body = String::new();
        for i in 0..n {
            body.push_str(&format!("wire w{i};\n"));
        }
        for i in 0..n {
            body.push_str(&format!("assign w{i} = a;\n"));
        }
        body.push_str(&format!("assign y = w{};\n", n - 1));
        let aig = elaborate_body(&body).expect("elaborate");
        assert_eq!((aig.num_pis(), aig.num_pos()), (1, 1));
        assert_eq!((aig.eval(0), aig.eval(1)), (0, 1));
    }

    #[test]
    fn the_first_declaration_of_a_name_wins() {
        // `a` is first a 2-bit input, `y` first a 1-bit output: the
        // later declarations neither widen them nor change their kind.
        let aig = build(
            "module m(a, y);
               input [1:0] a;
               wire [3:0] a;
               output y;
               output [2:0] y;
               assign y = a;
             endmodule",
        );
        assert_eq!((aig.num_pis(), aig.num_pos()), (2, 1));
        for x in 0..4u64 {
            assert_eq!(aig.eval(x), x & 1, "y = a[0] at a = {x}");
        }
    }
}
