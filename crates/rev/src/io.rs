//! Circuit interchange: RevKit `.real`.
//!
//! The paper's toolchain passes reversible circuits between RevKit, REVS
//! and downstream quantum compilers; `.real` is RevKit's native format.
//! This module writes it and reads it back for round-tripping.

use crate::circuit::Circuit;
use crate::gate::{Control, Gate};
use std::fmt::Write as _;

/// Serializes a circuit in RevKit `.real` format.
///
/// Gates are written as `t<k>` lines with `-` prefixes marking negative
/// controls, the format RevKit 1.x and tools derived from it consume.
///
/// # Example
///
/// ```
/// use qda_rev::circuit::Circuit;
/// use qda_rev::io::{to_real, from_real};
///
/// let mut c = Circuit::new(3);
/// c.toffoli(0, 1, 2);
/// let text = to_real(&c);
/// let back = from_real(&text).unwrap();
/// assert_eq!(back.num_gates(), 1);
/// ```
pub fn to_real(circuit: &Circuit) -> String {
    let n = circuit.num_lines();
    let mut out = String::new();
    let _ = writeln!(out, "# generated by qda-rev");
    let _ = writeln!(out, ".version 2.0");
    let _ = writeln!(out, ".numvars {n}");
    let vars: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
    let _ = writeln!(out, ".variables {}", vars.join(" "));
    let _ = writeln!(out, ".begin");
    for g in circuit.gates() {
        let k = g.num_controls() + 1;
        let mut line = format!("t{k}");
        for c in g.controls() {
            if c.is_positive() {
                let _ = write!(line, " x{}", c.line());
            } else {
                let _ = write!(line, " -x{}", c.line());
            }
        }
        let _ = write!(line, " x{}", g.target());
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, ".end");
    out
}

/// Largest `.numvars` the `.real` parser accepts.
///
/// `.numvars` sizes every per-line allocation downstream (circuit lines,
/// simulation lane words), so an untrusted one-line header like
/// `.numvars 999999999` must not be allowed to allocate an absurd
/// circuit before any gate is even read. 4096 lines is far beyond every
/// workload in this workspace (the paper tops out at n = 128, hierarchical
/// ancillae included stay in the hundreds).
pub const MAX_NUMVARS: usize = 4096;

/// Error from parsing a `.real` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRealError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseRealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseRealError {}

/// Parses a RevKit `.real` file (the subset emitted by [`to_real`]:
/// Toffoli-family gates with optional negative controls).
///
/// # Errors
///
/// Returns [`ParseRealError`] (naming the offending 1-based line) on
/// malformed headers or gate lines: a `.numvars` beyond [`MAX_NUMVARS`]
/// (an untrusted header must not size an absurd allocation), an operand
/// index at or beyond `.numvars`, a `t<k>` gate whose operand count
/// differs from its declared arity `k`, or an operand used twice in one
/// gate (duplicate control, or a target that is also a control) — each of
/// which would otherwise build an out-of-range or contradictory gate that
/// only fails later, in simulation.
pub fn from_real(text: &str) -> Result<Circuit, ParseRealError> {
    let mut num_lines: Option<usize> = None;
    let mut circuit: Option<Circuit> = None;
    let err = |line: usize, message: &str| ParseRealError {
        line,
        message: message.to_string(),
    };
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".numvars") {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| err(lineno, "invalid .numvars"))?;
            if n > MAX_NUMVARS {
                return Err(err(
                    lineno,
                    &format!(".numvars {n} exceeds the supported maximum {MAX_NUMVARS}"),
                ));
            }
            num_lines = Some(n);
            continue;
        }
        if line.starts_with(".begin") {
            let n = num_lines.ok_or_else(|| err(lineno, ".begin before .numvars"))?;
            circuit = Some(Circuit::new(n));
            continue;
        }
        if line.starts_with(".end") {
            break;
        }
        if line.starts_with('.') {
            continue; // other headers (.version, .variables, …)
        }
        // Gate line: t<k> operands…
        let Some(c) = circuit.as_mut() else {
            return Err(err(lineno, "gate before .begin"));
        };
        let n = c.num_lines();
        let mut parts = line.split_whitespace();
        let head = parts.next().expect("non-empty line");
        let Some(arity) = head.strip_prefix('t') else {
            return Err(err(lineno, "only Toffoli-family gates supported"));
        };
        let arity: usize = arity
            .parse()
            .map_err(|_| err(lineno, &format!("bad gate arity in {head:?}")))?;
        let operands: Vec<&str> = parts.collect();
        if operands.is_empty() {
            return Err(err(lineno, "gate without operands"));
        }
        if operands.len() != arity {
            return Err(err(
                lineno,
                &format!(
                    "t{arity} declares {arity} operands but {} given",
                    operands.len()
                ),
            ));
        }
        let parse_var = |s: &str| -> Result<(usize, bool), ParseRealError> {
            let (neg, name) = match s.strip_prefix('-') {
                Some(rest) => (true, rest),
                None => (false, s),
            };
            let idx: usize = name
                .strip_prefix('x')
                .and_then(|d| d.parse().ok())
                .ok_or_else(|| err(lineno, &format!("bad operand name {s:?}")))?;
            if idx >= n {
                return Err(err(
                    lineno,
                    &format!("operand x{idx} out of range (.numvars {n})"),
                ));
            }
            Ok((idx, neg))
        };
        let (target, tneg) = parse_var(operands[operands.len() - 1])?;
        if tneg {
            return Err(err(lineno, "negative target is not meaningful"));
        }
        let mut lines_used = vec![target];
        let mut controls = Vec::with_capacity(operands.len() - 1);
        for op in &operands[..operands.len() - 1] {
            let (l, neg) = parse_var(op)?;
            if lines_used.contains(&l) {
                return Err(err(
                    lineno,
                    &format!("operand x{l} appears more than once in the gate"),
                ));
            }
            lines_used.push(l);
            controls.push(if neg {
                Control::negative(l)
            } else {
                Control::positive(l)
            });
        }
        c.add_gate(Gate::mct(controls, target));
    }
    circuit.ok_or_else(|| err(text.lines().count(), "no circuit body found"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        c.not(0);
        c.cnot(0, 1);
        c.mct(
            vec![
                Control::positive(0),
                Control::negative(1),
                Control::positive(2),
            ],
            3,
        );
        c
    }

    #[test]
    fn real_round_trip_preserves_semantics() {
        let c = sample();
        let text = to_real(&c);
        let back = from_real(&text).unwrap();
        assert_eq!(back.num_lines(), c.num_lines());
        for x in 0..16u64 {
            assert_eq!(back.simulate_u64(x), c.simulate_u64(x));
        }
    }

    #[test]
    fn real_format_shape() {
        let text = to_real(&sample());
        assert!(text.contains(".numvars 4"));
        assert!(text.contains("t1 x0"));
        assert!(text.contains("t2 x0 x1"));
        assert!(text.contains("t4 x0 -x1 x2 x3"));
        assert!(text.trim_end().ends_with(".end"));
    }

    #[test]
    fn real_parser_rejects_garbage() {
        assert!(from_real("nonsense").is_err());
        assert!(from_real(".numvars 2\n.begin\nf2 x0 x1\n.end").is_err());
        assert!(from_real(".begin\nt1 x0\n.end").is_err());
    }

    #[test]
    fn real_parser_rejects_out_of_range_operands() {
        // 3-line circuit, control on x9: used to build a gate that only
        // panicked later, in simulation.
        let e = from_real(".numvars 3\n.begin\nt2 x1 x9\n.end").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("x9"), "{e}");
        assert!(e.message.contains(".numvars 3"), "{e}");
        // Out-of-range target.
        let e = from_real(".numvars 2\n.begin\nt1 x2\n.end").unwrap_err();
        assert!(e.message.contains("x2"), "{e}");
    }

    #[test]
    fn real_parser_caps_numvars() {
        // `.numvars 999999999` must be rejected at the header, before the
        // parser sizes any allocation from it — a one-line untrusted
        // request must not reserve an absurd circuit.
        let e = from_real(".numvars 999999999\n.begin\nt1 x0\n.end").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("999999999"), "{e}");
        assert!(e.message.contains("4096"), "{e}");
        // The boundary itself is accepted…
        let at_cap = format!(".numvars {MAX_NUMVARS}\n.begin\nt1 x0\n.end");
        assert_eq!(from_real(&at_cap).unwrap().num_lines(), MAX_NUMVARS);
        // …one past it is not.
        let over = format!(".numvars {}\n.begin\nt1 x0\n.end", MAX_NUMVARS + 1);
        assert!(from_real(&over).is_err());
    }

    #[test]
    fn real_parser_rejects_arity_mismatch() {
        // t3 declares three operands; two given.
        let e = from_real(".numvars 3\n.begin\nt3 x0 x2\n.end").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("t3"), "{e}");
        // Too many operands for t1.
        assert!(from_real(".numvars 3\n.begin\nt1 x0 x1\n.end").is_err());
        // Non-numeric arity.
        assert!(from_real(".numvars 3\n.begin\ntx x0\n.end").is_err());
    }

    #[test]
    fn real_parser_rejects_non_disjoint_operands() {
        // Duplicate control.
        let e = from_real(".numvars 3\n.begin\nt3 x0 x0 x1\n.end").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("x0"), "{e}");
        // Target doubling as a control.
        let e = from_real(".numvars 3\n.begin\nt2 x1 x1\n.end").unwrap_err();
        assert!(e.message.contains("x1"), "{e}");
        // Same line with both polarities (would never fire).
        assert!(from_real(".numvars 3\n.begin\nt3 x0 -x0 x1\n.end").is_err());
    }

    #[test]
    fn real_parser_errors_name_the_line() {
        let text = "# comment\n.version 2.0\n.numvars 2\n.begin\nt1 x0\nt2 x0 x5\n.end";
        let e = from_real(text).unwrap_err();
        assert_eq!(e.line, 6);
        assert_eq!(e.to_string(), format!("line 6: {}", e.message));
    }
}
