//! Hand-crafted reversible arithmetic building blocks.
//!
//! These are the components the paper's *manual* baseline designs are made
//! of: the Cuccaro ripple-carry adder \[25\], controlled adders/subtractors,
//! comparators and textbook shift-and-add multipliers. `qda-arith` uses
//! them to assemble the RESDIV and QNEWTON baselines of Table I.
//!
//! All functions *append* gates to an existing [`Circuit`]; registers are
//! slices of line indices, least-significant bit first. Every block keeps
//! its ancillae clean (returns them to zero).

use crate::circuit::Circuit;
use crate::gate::{Control, Gate};

/// Validates the line arguments of a block builder **before any gate is
/// appended**: every line must fit the circuit and every named role must
/// be disjoint from every other (a register sharing a line with an
/// ancilla or control would silently compute the wrong function). Until
/// this check existed, an out-of-range index could slip through whenever
/// the builder happened to append no gate on it (e.g. a zero bit of
/// [`load_constant`]), only failing much later in simulation.
///
/// # Panics
///
/// Panics with the offending role name on an out-of-range or shared line.
fn validate_roles(circuit: &Circuit, roles: &[(&str, &[usize])]) {
    let n = circuit.num_lines();
    let mut owner: Vec<Option<&str>> = vec![None; n];
    for (name, lines) in roles {
        for &line in *lines {
            assert!(
                line < n,
                "block register `{name}` line {line} out of range for a {n}-line circuit"
            );
            match owner[line] {
                Some(prev) => panic!(
                    "block registers `{prev}` and `{name}` share line {line}; \
                     roles must be disjoint"
                ),
                None => owner[line] = Some(name),
            }
        }
    }
}

/// [`validate_roles`] plus the optional carry/borrow and control roles
/// shared by the adder family.
fn validate_adder_roles(
    circuit: &Circuit,
    a: &[usize],
    b: &[usize],
    ancilla: usize,
    carry_out: Option<usize>,
    control: Option<Control>,
) {
    let carry: Vec<usize> = carry_out.into_iter().collect();
    let ctl: Vec<usize> = control.into_iter().map(Control::line).collect();
    validate_roles(
        circuit,
        &[
            ("a", a),
            ("b", b),
            ("ancilla", &[ancilla]),
            ("carry_out", &carry),
            ("control", &ctl),
        ],
    );
}

/// Appends `b ← b + a (mod 2^n)` using the Cuccaro/CDKM ripple-carry adder.
///
/// * `a`, `b` — equal-width registers; `a` is preserved.
/// * `ancilla` — one clean (zero) line, returned clean.
/// * `carry_out` — optional line receiving `carry XOR`; must be clean to
///   read the true carry.
/// * `control` — optional extra control making the whole addition
///   conditional (only gates writing into `b`/`carry_out` are controlled;
///   the ripple scaffolding self-cancels when the control is off).
///
/// # Panics
///
/// Panics if the registers differ in width or are empty.
///
/// # Example
///
/// ```
/// use qda_rev::blocks::cuccaro_add;
/// use qda_rev::circuit::Circuit;
/// use qda_rev::state::BitState;
///
/// let mut c = Circuit::new(9); // a:0..4, b:4..8, ancilla:8
/// cuccaro_add(&mut c, &[0, 1, 2, 3], &[4, 5, 6, 7], 8, None, None);
/// let mut s = BitState::zeros(9);
/// s.write_register(&[0, 1, 2, 3], 5);
/// s.write_register(&[4, 5, 6, 7], 9);
/// c.apply(&mut s);
/// assert_eq!(s.read_register(&[4, 5, 6, 7]), 14);
/// ```
pub fn cuccaro_add(
    circuit: &mut Circuit,
    a: &[usize],
    b: &[usize],
    ancilla: usize,
    carry_out: Option<usize>,
    control: Option<Control>,
) {
    assert_eq!(a.len(), b.len(), "register width mismatch");
    assert!(!a.is_empty(), "empty registers");
    validate_adder_roles(circuit, a, b, ancilla, carry_out, control);
    let n = a.len();
    // Gate helpers: `plain` gates self-cancel when the control is off,
    // `ctl` CNOTs write into the result and carry the extra control.
    let ctl = |circuit: &mut Circuit, source: usize, target: usize| {
        let controls = std::iter::once(Control::positive(source)).chain(control);
        circuit.add_gate(Gate::mct(controls.collect(), target));
    };
    // Carry lines: c_0 = ancilla, c_i = a[i-1] for i >= 1.
    let carry = |i: usize| if i == 0 { ancilla } else { a[i - 1] };
    // MAJ sweep.
    for i in 0..n {
        ctl(circuit, a[i], b[i]);
        circuit.cnot(a[i], carry(i));
        circuit.toffoli(carry(i), b[i], a[i]);
    }
    if let Some(z) = carry_out {
        ctl(circuit, a[n - 1], z);
    }
    // UMA sweep (reverse order).
    for i in (0..n).rev() {
        circuit.toffoli(carry(i), b[i], a[i]);
        circuit.cnot(a[i], carry(i));
        ctl(circuit, carry(i), b[i]);
    }
}

/// Appends `b ← b − a (mod 2^n)` via the identity `b − a = ¬(¬b + a)`.
///
/// `borrow_out`, if given, receives `XOR` of the borrow flag
/// (`1` iff `b < a` as unsigned integers).
///
/// The complementing X gates are unconditional — with `control` off they
/// cancel pairwise, so the subtraction as a whole is conditional.
///
/// # Panics
///
/// Panics if the registers differ in width or are empty.
pub fn cuccaro_sub(
    circuit: &mut Circuit,
    a: &[usize],
    b: &[usize],
    ancilla: usize,
    borrow_out: Option<usize>,
    control: Option<Control>,
) {
    // Validate before the complementing NOTs: a bad register must not
    // leave half-applied flips behind.
    validate_adder_roles(circuit, a, b, ancilla, borrow_out, control);
    for &line in b {
        circuit.not(line);
    }
    // ¬b + a carries out exactly when b < a… check: ¬b + a = 2^n−1−b+a ≥ 2^n
    // iff a ≥ b+1 iff b < a.
    cuccaro_add(circuit, a, b, ancilla, borrow_out, control);
    for &line in b {
        circuit.not(line);
    }
}

/// Appends gates computing `target ^= (b < a)` (unsigned), preserving `a`
/// and `b`. Costs one subtraction + one addition.
///
/// # Panics
///
/// Panics if the registers differ in width or are empty.
pub fn less_than(circuit: &mut Circuit, a: &[usize], b: &[usize], ancilla: usize, target: usize) {
    cuccaro_sub(circuit, a, b, ancilla, Some(target), None);
    cuccaro_add(circuit, a, b, ancilla, None, None);
}

/// Appends `out ← out + a·b` (textbook shift-and-add), preserving `a` and
/// `b`.
///
/// Requirements: `out.len() >= a.len() + b.len()`, and the high
/// `out[a.len()..]` lines above the current partial-sum width must be clean
/// for carries to land correctly — which holds when `out` starts at zero
/// (the usual case).
///
/// # Panics
///
/// Panics if `out` is narrower than `a.len() + b.len()`.
pub fn multiply_add(
    circuit: &mut Circuit,
    a: &[usize],
    b: &[usize],
    out: &[usize],
    ancilla: usize,
) {
    assert!(
        out.len() >= a.len() + b.len(),
        "product register too narrow: {} < {} + {}",
        out.len(),
        a.len(),
        b.len()
    );
    validate_roles(
        circuit,
        &[("a", a), ("b", b), ("out", out), ("ancilla", &[ancilla])],
    );
    let na = a.len();
    for (i, &bi) in b.iter().enumerate() {
        let window: Vec<usize> = out[i..i + na].to_vec();
        cuccaro_add(
            circuit,
            a,
            &window,
            ancilla,
            Some(out[i + na]),
            Some(Control::positive(bi)),
        );
    }
}

/// Appends CNOTs copying register `src` into clean register `dst`
/// (`dst ^= src`).
///
/// # Panics
///
/// Panics if the widths differ.
pub fn copy_register(circuit: &mut Circuit, src: &[usize], dst: &[usize]) {
    assert_eq!(src.len(), dst.len(), "register width mismatch");
    validate_roles(circuit, &[("src", src), ("dst", dst)]);
    for (&s, &d) in src.iter().zip(dst) {
        circuit.cnot(s, d);
    }
}

/// Appends X gates writing the classical constant `value` into a clean
/// register.
pub fn load_constant(circuit: &mut Circuit, dst: &[usize], value: u64) {
    validate_roles(circuit, &[("dst", dst)]);
    for (i, &d) in dst.iter().enumerate() {
        if (value >> i) & 1 == 1 {
            circuit.not(d);
        }
    }
}

/// Appends X gates writing an arbitrary-width constant (bits LSB first)
/// into a clean register. Bits beyond `dst.len()` are ignored.
pub fn load_constant_bits(circuit: &mut Circuit, dst: &[usize], bits: &[bool]) {
    validate_roles(circuit, &[("dst", dst)]);
    for (i, &d) in dst.iter().enumerate() {
        if *bits.get(i).unwrap_or(&false) {
            circuit.not(d);
        }
    }
}

/// Appends swaps realizing a cyclic left rotation of the register lines by
/// `k` positions (value × 2^k mod (2^n − 1)-ish relabeling; used for the
/// constant shifts of the Newton designs, where a *logical* shift is a pure
/// relabeling and only a rotation needs gates).
pub fn rotate_left(circuit: &mut Circuit, reg: &[usize], k: usize) {
    validate_roles(circuit, &[("reg", reg)]);
    let n = reg.len();
    if n == 0 {
        return;
    }
    let k = k % n;
    if k == 0 {
        return;
    }
    // Reversal trick: rotate = reverse(whole) after reversing both halves.
    let mut order: Vec<usize> = (0..n).collect();
    order.rotate_left(n - k);
    // Apply the permutation with swaps (cycle decomposition).
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut cycle = vec![start];
        let mut cur = order[start];
        while cur != start {
            cycle.push(cur);
            cur = order[cur];
        }
        for &c in &cycle {
            visited[c] = true;
        }
        for w in cycle.windows(2) {
            circuit.swap(reg[w[0]], reg[w[1]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BitState;

    fn run(circuit: &Circuit, writes: &[(&[usize], u64)], read: &[usize]) -> u64 {
        let mut s = BitState::zeros(circuit.num_lines());
        for (reg, v) in writes {
            s.write_register(reg, *v);
        }
        circuit.apply(&mut s);
        s.read_register(read)
    }

    #[test]
    fn adder_exhaustive_4bit() {
        let a: Vec<usize> = (0..4).collect();
        let b: Vec<usize> = (4..8).collect();
        let mut c = Circuit::new(10);
        cuccaro_add(&mut c, &a, &b, 8, Some(9), None);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut s = BitState::zeros(10);
                s.write_register(&a, x);
                s.write_register(&b, y);
                c.apply(&mut s);
                assert_eq!(s.read_register(&b), (x + y) & 15, "sum {x}+{y}");
                assert_eq!(s.read_register(&a), x, "addend preserved");
                assert!(!s.get(8), "ancilla clean");
                assert_eq!(u64::from(s.get(9)), (x + y) >> 4, "carry {x}+{y}");
            }
        }
    }

    #[test]
    fn adder_1bit_edge_case() {
        let mut c = Circuit::new(4);
        cuccaro_add(&mut c, &[0], &[1], 2, Some(3), None);
        for x in 0..2u64 {
            for y in 0..2u64 {
                let mut s = BitState::zeros(4);
                s.write_register(&[0], x);
                s.write_register(&[1], y);
                c.apply(&mut s);
                assert_eq!(s.read_register(&[1]), (x + y) & 1);
                assert_eq!(u64::from(s.get(3)), (x + y) >> 1);
            }
        }
    }

    #[test]
    fn controlled_adder_obeys_control() {
        let a: Vec<usize> = (0..3).collect();
        let b: Vec<usize> = (3..6).collect();
        let mut c = Circuit::new(9);
        cuccaro_add(&mut c, &a, &b, 6, Some(7), Some(Control::positive(8)));
        for ctl in 0..2u64 {
            for x in 0..8u64 {
                for y in 0..8u64 {
                    let mut s = BitState::zeros(9);
                    s.write_register(&a, x);
                    s.write_register(&b, y);
                    s.set(8, ctl == 1);
                    c.apply(&mut s);
                    let expected = if ctl == 1 { (x + y) & 7 } else { y };
                    assert_eq!(s.read_register(&b), expected, "ctl={ctl} {x}+{y}");
                    assert_eq!(s.read_register(&a), x);
                    assert!(!s.get(6), "ancilla clean");
                    let exp_carry = if ctl == 1 { (x + y) >> 3 } else { 0 };
                    assert_eq!(u64::from(s.get(7)), exp_carry);
                }
            }
        }
    }

    #[test]
    fn subtractor_and_borrow() {
        let a: Vec<usize> = (0..4).collect();
        let b: Vec<usize> = (4..8).collect();
        let mut c = Circuit::new(10);
        cuccaro_sub(&mut c, &a, &b, 8, Some(9), None);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut s = BitState::zeros(10);
                s.write_register(&a, x);
                s.write_register(&b, y);
                c.apply(&mut s);
                assert_eq!(s.read_register(&b), y.wrapping_sub(x) & 15, "{y}-{x}");
                assert_eq!(u64::from(s.get(9)), u64::from(y < x), "borrow {y}<{x}");
                assert!(!s.get(8));
            }
        }
    }

    #[test]
    fn controlled_subtractor() {
        let a: Vec<usize> = (0..3).collect();
        let b: Vec<usize> = (3..6).collect();
        let mut c = Circuit::new(8);
        cuccaro_sub(&mut c, &a, &b, 6, None, Some(Control::positive(7)));
        for ctl in 0..2u64 {
            for x in 0..8u64 {
                for y in 0..8u64 {
                    let mut s = BitState::zeros(8);
                    s.write_register(&a, x);
                    s.write_register(&b, y);
                    s.set(7, ctl == 1);
                    c.apply(&mut s);
                    let expected = if ctl == 1 { y.wrapping_sub(x) & 7 } else { y };
                    assert_eq!(s.read_register(&b), expected, "ctl={ctl} {y}-{x}");
                }
            }
        }
    }

    #[test]
    fn comparator_preserves_operands() {
        let a: Vec<usize> = (0..3).collect();
        let b: Vec<usize> = (3..6).collect();
        let mut c = Circuit::new(8);
        less_than(&mut c, &a, &b, 6, 7);
        for x in 0..8u64 {
            for y in 0..8u64 {
                let mut s = BitState::zeros(8);
                s.write_register(&a, x);
                s.write_register(&b, y);
                c.apply(&mut s);
                assert_eq!(u64::from(s.get(7)), u64::from(y < x), "{y} < {x}");
                assert_eq!(s.read_register(&a), x);
                assert_eq!(s.read_register(&b), y);
                assert!(!s.get(6));
            }
        }
    }

    #[test]
    fn multiplier_3x3() {
        let a: Vec<usize> = (0..3).collect();
        let b: Vec<usize> = (3..6).collect();
        let out: Vec<usize> = (6..12).collect();
        let mut c = Circuit::new(13);
        multiply_add(&mut c, &a, &b, &out, 12);
        for x in 0..8u64 {
            for y in 0..8u64 {
                let mut s = BitState::zeros(13);
                s.write_register(&a, x);
                s.write_register(&b, y);
                c.apply(&mut s);
                assert_eq!(s.read_register(&out), x * y, "{x}*{y}");
                assert_eq!(s.read_register(&a), x);
                assert_eq!(s.read_register(&b), y);
                assert!(!s.get(12));
            }
        }
    }

    #[test]
    fn rotation_by_swaps() {
        let reg: Vec<usize> = (0..5).collect();
        let mut c = Circuit::new(5);
        rotate_left(&mut c, &reg, 2);
        for v in [0b00001u64, 0b10110, 0b11111, 0b01010] {
            let mut s = BitState::zeros(5);
            s.write_register(&reg, v);
            c.apply(&mut s);
            let expected = ((v << 2) | (v >> 3)) & 0b11111;
            assert_eq!(s.read_register(&reg), expected, "rot {v:#07b}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn load_constant_rejects_out_of_range_lines_even_for_zero_bits() {
        // Bit 9 of the value is 0, so no gate would ever touch line 9 —
        // the old code accepted this silently.
        let mut c = Circuit::new(4);
        load_constant(&mut c, &[0, 1, 9], 0b011);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rotate_left_rejects_out_of_range_lines_even_for_zero_rotation() {
        let mut c = Circuit::new(3);
        rotate_left(&mut c, &[0, 1, 7], 0);
    }

    #[test]
    #[should_panic(expected = "share line")]
    fn adder_rejects_overlapping_registers_before_appending() {
        let mut c = Circuit::new(10);
        cuccaro_add(&mut c, &[0, 1, 2], &[2, 3, 4], 8, None, None);
    }

    #[test]
    #[should_panic(expected = "ancilla")]
    fn adder_rejects_ancilla_inside_a_register() {
        let mut c = Circuit::new(10);
        cuccaro_add(&mut c, &[0, 1, 2], &[3, 4, 5], 4, None, None);
    }

    #[test]
    fn subtractor_validation_fires_before_any_gate_lands() {
        let mut c = Circuit::new(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cuccaro_sub(&mut c, &[0, 1], &[1, 2], 6, None, None);
        }));
        assert!(result.is_err(), "overlap must be rejected");
        assert_eq!(c.num_gates(), 0, "no half-applied complementing NOTs");
    }

    #[test]
    #[should_panic(expected = "share line")]
    fn copy_register_rejects_aliased_lines() {
        let mut c = Circuit::new(4);
        copy_register(&mut c, &[0, 1], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "`b` and `control` share line 1")]
    fn adder_rejects_control_inside_a_register() {
        let mut c = Circuit::new(9);
        cuccaro_add(
            &mut c,
            &[2, 3],
            &[0, 1],
            4,
            None,
            Some(Control::positive(1)),
        );
    }

    #[test]
    fn copy_and_load() {
        let mut c = Circuit::new(8);
        load_constant(&mut c, &[0, 1, 2, 3], 0b1001);
        copy_register(&mut c, &[0, 1, 2, 3], &[4, 5, 6, 7]);
        let out = run(&c, &[], &[4, 5, 6, 7]);
        assert_eq!(out, 0b1001);
    }
}
