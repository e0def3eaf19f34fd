//! Structured diagnostics: codes, severities, spans, and rendering.
//!
//! Every analysis reports through [`Diagnostic`]. Codes are stable
//! (`QDA-A0xx`) so tests, CI gates, and downstream tooling can match on
//! them; severities encode policy: [`Severity::Deny`] diagnostics are
//! *proven* violations and abort flows, [`Severity::Warning`] marks
//! provable waste, and [`Severity::Note`] marks facts the analyzer could
//! not prove either way. An analysis must never emit `Deny` for anything
//! it has not proven — uncertainty degrades to `Note`.

use std::fmt;

/// How serious a diagnostic is, and what the flows do about it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// An observation the analyzer could not resolve (e.g. an ancilla
    /// found clean on sampled inputs only). Never fails anything.
    Note,
    /// A proven inefficiency or suspicious structure. Surfaced in
    /// reports and benches; does not fail flows.
    Warning,
    /// A proven contract violation. Flows abort with
    /// `FlowError::AnalysisViolation`.
    Deny,
}

impl Severity {
    /// Lower-case name used in the human rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. The numeric block encodes the analysis:
/// `A00x` ancilla lifecycle, `A01x` constant propagation, `A02x` dead
/// cones, `A03x` structural well-formedness.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Code {
    /// `QDA-A001`: an ancilla is provably nonzero at the end of the
    /// circuit although the interface requires it clean.
    DirtyAncilla,
    /// `QDA-A002`: a gate reads a line after its release and before any
    /// re-initialising write.
    UseAfterRelease,
    /// `QDA-A003`: a line is provably nonzero at the point it is
    /// released back to the allocator.
    ReleaseOfLive,
    /// `QDA-A004`: the ancilla was 0 on every sampled input, but the
    /// interface has too many inputs to sweep them all, so it is not
    /// proven clean.
    UnprovenAncilla,
    /// `QDA-A010`: a gate can never fire because a control is provably
    /// constant with the opposite polarity.
    ConstDeadGate,
    /// `QDA-A011`: a control is provably constant with its own polarity
    /// and can be dropped.
    ConstControl,
    /// `QDA-A020`: a gate's effect never reaches an observable line.
    DeadGate,
    /// `QDA-A030`: a gate addresses a line outside the circuit.
    LineOutOfBounds,
    /// `QDA-A031`: the declared interface is inconsistent (duplicate
    /// roles, out-of-range lines, releases past the end, ...).
    BadInterface,
    /// `QDA-A032`: a gate's masks break an arena invariant — its target
    /// is also a control, or a polarity bit sits outside the control
    /// mask (defense in depth; unreachable through the safe
    /// constructors).
    MalformedGate,
}

impl Code {
    /// The stable `QDA-A0xx` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DirtyAncilla => "QDA-A001",
            Code::UseAfterRelease => "QDA-A002",
            Code::ReleaseOfLive => "QDA-A003",
            Code::UnprovenAncilla => "QDA-A004",
            Code::ConstDeadGate => "QDA-A010",
            Code::ConstControl => "QDA-A011",
            Code::DeadGate => "QDA-A020",
            Code::LineOutOfBounds => "QDA-A030",
            Code::BadInterface => "QDA-A031",
            Code::MalformedGate => "QDA-A032",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::DirtyAncilla
            | Code::UseAfterRelease
            | Code::ReleaseOfLive
            | Code::LineOutOfBounds
            | Code::BadInterface
            | Code::MalformedGate => Severity::Deny,
            Code::ConstDeadGate | Code::ConstControl | Code::DeadGate => Severity::Warning,
            Code::UnprovenAncilla => Severity::Note,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the circuit a diagnostic points.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// Inclusive range of gate indices, if the diagnostic is anchored to
    /// specific gates.
    pub gates: Option<(usize, usize)>,
    /// The circuit line the diagnostic is about, if any.
    pub line: Option<usize>,
}

impl Span {
    /// A span covering a single gate.
    pub fn gate(index: usize) -> Self {
        Span {
            gates: Some((index, index)),
            line: None,
        }
    }

    /// A span covering a single line with no specific gate.
    pub fn line(line: usize) -> Self {
        Span {
            gates: None,
            line: Some(line),
        }
    }

    /// A span covering one gate acting on one line.
    pub fn gate_line(index: usize, line: usize) -> Self {
        Span {
            gates: Some((index, index)),
            line: Some(line),
        }
    }
}

/// One finding of one analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable code; determines [`Diagnostic::severity`].
    pub code: Code,
    /// Severity, always `code.severity()`.
    pub severity: Severity,
    /// Where the finding is anchored.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
    /// A concrete remediation, when one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic; the severity comes from the code.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggested fix.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        match (self.span.gates, self.span.line) {
            (Some((a, b)), Some(l)) if a == b => write!(f, " gate {a}, line {l}:")?,
            (Some((a, b)), Some(l)) => write!(f, " gates {a}..={b}, line {l}:")?,
            (Some((a, b)), None) if a == b => write!(f, " gate {a}:")?,
            (Some((a, b)), None) => write!(f, " gates {a}..={b}:")?,
            (None, Some(l)) => write!(f, " line {l}:")?,
            (None, None) => {}
        }
        write!(f, " {}", self.message)?;
        if let Some(fix) = &self.suggestion {
            write!(f, " (fix: {fix})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_stably_and_carry_fixed_severities() {
        assert_eq!(Code::DirtyAncilla.as_str(), "QDA-A001");
        assert_eq!(Code::MalformedGate.as_str(), "QDA-A032");
        assert_eq!(Code::DirtyAncilla.severity(), Severity::Deny);
        assert_eq!(Code::ConstDeadGate.severity(), Severity::Warning);
        assert_eq!(Code::UnprovenAncilla.severity(), Severity::Note);
        assert!(Severity::Note < Severity::Warning && Severity::Warning < Severity::Deny);
    }

    #[test]
    fn diagnostics_render_human_and_json_forms() {
        let d = Diagnostic::new(
            Code::ReleaseOfLive,
            Span::gate_line(7, 3),
            "line 3 is released while provably nonzero",
        )
        .with_suggestion("uncompute line 3 before releasing it");
        assert_eq!(
            d.to_string(),
            "deny[QDA-A003] gate 7, line 3: line 3 is released while provably nonzero \
             (fix: uncompute line 3 before releasing it)"
        );
    }
}
