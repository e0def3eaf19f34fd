//! Verilog source generators for the two reciprocal designs (paper §III).
//!
//! The design flows of the paper start from Verilog, so the designs are
//! *generated as source text* and re-enter the toolchain through the
//! `qda-verilog` parser — the same journey a hand-written design would
//! take.

/// Binary literal (MSB-first digits) of `⌊num·2^frac / den⌋`, `width` bits,
/// computed by streaming long division so it works far beyond `u64`
/// (needed for `NEWTON(128)` constants).
fn ratio_literal(num: u64, den: u64, frac: usize, width: usize) -> String {
    // Dividend bits, MSB first: `num` then `frac` zeros.
    let num_bits = 64 - num.leading_zeros() as usize;
    let mut quotient = String::new();
    let mut rem: u64 = 0;
    for i in 0..(num_bits + frac) {
        let bit = if i < num_bits {
            (num >> (num_bits - 1 - i)) & 1
        } else {
            0
        };
        rem = rem * 2 + bit;
        if rem >= den {
            rem -= den;
            quotient.push('1');
        } else {
            quotient.push('0');
        }
    }
    let trimmed = quotient.trim_start_matches('0');
    let digits = if trimmed.is_empty() { "0" } else { trimmed };
    assert!(
        digits.len() <= width,
        "constant does not fit in {width} bits"
    );
    format!("{width}'b{}{}", "0".repeat(width - digits.len()), digits)
}

/// Binary literal of `2^exp` with the given width.
fn power_of_two_literal(exp: usize, width: usize) -> String {
    assert!(exp < width);
    format!(
        "{width}'b{}1{}",
        "0".repeat(width - exp - 1),
        "0".repeat(exp)
    )
}

/// Generates `INTDIV(n)`: the reciprocal via Verilog's integer division
/// operator (paper §III-1). `y` is the low `n` bits of the `(n+1)`-bit
/// quotient `2ⁿ / x`.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Example
///
/// ```
/// let src = qda_arith::intdiv_verilog(8);
/// let module = qda_verilog::parse_module(&src)?;
/// assert_eq!(module.name, "intdiv_8");
/// # Ok::<(), qda_verilog::VerilogError>(())
/// ```
pub fn intdiv_verilog(n: usize) -> String {
    assert!(n >= 2, "n must be at least 2");
    let top = n; // widths in [msb:lsb] form
    let pw2 = power_of_two_literal(n, n + 1);
    format!(
        "// INTDIV({n}): y = low {n} bits of (2^{n} / x), both (n+1)-bit unsigned.\n\
         module intdiv_{n}(x, y);\n\
         \x20 input [{xm}:0] x;\n\
         \x20 output [{xm}:0] y;\n\
         \x20 wire [{top}:0] xe;\n\
         \x20 wire [{top}:0] q;\n\
         \x20 assign xe = {{1'b0, x}};\n\
         \x20 assign q = {pw2} / xe;\n\
         \x20 assign y = q[{xm}:0];\n\
         endmodule\n",
        xm = n - 1,
    )
}

/// Generates `NEWTON(n)`: the reciprocal via the Newton–Raphson method on
/// fixed-point numbers (paper §III-2).
///
/// Layout of the generated design:
///
/// 1. normalization `x' = x / 2^e ∈ [1/2, 1)` by a leading-one priority
///    chain (all shifts by constants),
/// 2. initial value `x₀ = 48/17 − (32/17) ∗ x'`,
/// 3. `I = ⌈log₂((n+1)/log₂17)⌉` iterations
///    `xᵢ ← xᵢ₋₁ + xᵢ₋₁ ∗ (1 − x' ∗ xᵢ₋₁)` in `Q3.2n`,
/// 4. denormalization `y' = x_I ≫ e` (variable shift) and extraction of
///    the top `n` fractional bits.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn newton_verilog(n: usize) -> String {
    assert!(n >= 4, "n must be at least 4");
    let iterations = crate::recip::newton_iterations(n);
    let p = n + 3; // Q3.n raw width
    let w = 2 * n + 3; // Q3.2n raw width
    let eb = usize::BITS as usize - n.leading_zeros() as usize; // bits for e ∈ [0, n]
    let mut s = String::new();
    s.push_str(&format!(
        "// NEWTON({n}): reciprocal via Newton-Raphson in Q3.{m} fixed point,\n\
         // {iterations} iteration(s).\n\
         module newton_{n}(x, y);\n\
         \x20 input [{xm}:0] x;\n\
         \x20 output [{xm}:0] y;\n",
        m = 2 * n,
        xm = n - 1
    ));
    // Normalization chain.
    s.push_str(&format!(
        "  wire [{pm}:0] xe;\n  assign xe = {{3'b000, x}};\n  wire [{pm}:0] xpn;\n  wire [{em}:0] e;\n",
        pm = p - 1,
        em = eb - 1
    ));
    // xpn = xe << (n-1-k) for the highest set bit k; e = k+1.
    s.push_str("  assign xpn = ");
    for k in (0..n).rev() {
        s.push_str(&format!("x[{k}] ? (xe << {sh}) : ", sh = n - 1 - k));
    }
    s.push_str(&format!("{p}'b{};\n", "0".repeat(p)));
    s.push_str("  assign e = ");
    for k in (0..n).rev() {
        s.push_str(&format!("x[{k}] ? {eb}'d{v} : ", v = k + 1));
    }
    s.push_str(&format!("{eb}'d0;\n"));
    // x' widened to Q3.2n.
    s.push_str(&format!(
        "  wire [{wm}:0] xpw;\n  assign xpw = {{xpn, {n}'b{z}}};\n",
        wm = w - 1,
        z = "0".repeat(n)
    ));
    // x0 = C1 - C2 * x'.
    let c1 = ratio_literal(48, 17, 2 * n, w);
    let c2 = ratio_literal(32, 17, n, p);
    // The 1/8 bias keeps x0 strictly below 1/x' so the recurrence stays
    // non-negative in unsigned arithmetic (see `newton_iterations`).
    let bias = power_of_two_literal(2 * n - 3, w);
    s.push_str(&format!(
        "  wire [{fm}:0] m0full;\n  assign m0full = {c2} * xpn;\n\
         \x20 wire [{wm}:0] x_0;\n  assign x_0 = ({c1} - m0full[{wm}:0]) - {bias};\n",
        fm = 2 * p - 1,
        wm = w - 1
    ));
    // Iterations.
    let one = power_of_two_literal(2 * n, w);
    for i in 0..iterations {
        let (cur, next) = (format!("x_{i}"), format!("x_{}", i + 1));
        s.push_str(&format!(
            "  wire [{ffm}:0] tfull_{i};\n  assign tfull_{i} = xpw * {cur};\n\
             \x20 wire [{wm}:0] t_{i};\n  assign t_{i} = tfull_{i}[{hi}:{lo}];\n\
             \x20 wire [{wm}:0] d_{i};\n  assign d_{i} = {one} - t_{i};\n\
             \x20 wire [{ffm}:0] ufull_{i};\n  assign ufull_{i} = {cur} * d_{i};\n\
             \x20 wire [{wm}:0] u_{i};\n  assign u_{i} = ufull_{i}[{hi}:{lo}];\n\
             \x20 wire [{wm}:0] {next};\n  assign {next} = {cur} + u_{i};\n",
            ffm = 2 * w - 1,
            wm = w - 1,
            hi = w + 2 * n - 1,
            lo = 2 * n,
        ));
    }
    // Denormalize and extract.
    s.push_str(&format!(
        "  wire [{wm}:0] yp;\n  assign yp = x_{iterations} >> e;\n\
         \x20 assign y = yp[{hi}:{n}];\n\
         endmodule\n",
        wm = w - 1,
        hi = 2 * n - 1,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recip::{recip_intdiv, recip_newton};
    use qda_verilog::{elaborate, parse_module};

    #[test]
    fn ratio_literal_values() {
        // 48/17 * 2^8 = 722.8… → 722 = 0b1011010010.
        let lit = ratio_literal(48, 17, 8, 12);
        assert_eq!(lit, "12'b001011010010");
        // 1/1 * 2^4 = 16.
        assert_eq!(ratio_literal(1, 1, 4, 6), "6'b010000");
    }

    #[test]
    fn intdiv_elaborates_and_matches_model() {
        for n in [4usize, 6, 8] {
            let src = intdiv_verilog(n);
            let module = parse_module(&src).expect("parse");
            let aig = elaborate(&module).expect("elaborate");
            assert_eq!(aig.num_pis(), n);
            assert_eq!(aig.num_pos(), n);
            for x in 1..(1u64 << n) {
                assert_eq!(aig.eval(x), recip_intdiv(n, x), "n={n} x={x}");
            }
        }
    }

    #[test]
    fn newton_elaborates_and_matches_model() {
        for n in [4usize, 6, 8] {
            let src = newton_verilog(n);
            let module = parse_module(&src).expect("parse");
            let aig = elaborate(&module).expect("elaborate");
            assert_eq!(aig.num_pis(), n);
            assert_eq!(aig.num_pos(), n);
            for x in 1..(1u64 << n) {
                assert_eq!(aig.eval(x), recip_newton(n, x), "n={n} x={x}");
            }
        }
    }

    #[test]
    fn generators_scale_to_large_n() {
        // Parse + elaborate only (no exhaustive simulation). n = 128, the
        // daemon's largest, must fit the front end's bounds.
        let worker = std::thread::Builder::new().stack_size(qda_verilog::STACK_BYTES);
        let sizes = worker.spawn(|| {
            for (src, n) in [
                (intdiv_verilog(64), 64),
                (intdiv_verilog(128), 128),
                (newton_verilog(32), 32),
                (newton_verilog(128), 128),
            ] {
                let aig = elaborate(&parse_module(&src).unwrap()).unwrap();
                assert_eq!(aig.num_pis(), n);
            }
        });
        sizes.unwrap().join().unwrap();
    }
}
