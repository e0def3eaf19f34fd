//! Paper-style result tables.

use crate::dse::{configuration_name, PortfolioOutcome};
use crate::flow::FlowOutcome;
use qda_analyze::Severity;
use std::fmt;

/// A plain-text table with the look of the paper's result tables.
///
/// # Example
///
/// ```
/// use qda_core::report::Table;
///
/// let mut t = Table::new("TABLE X", vec!["n", "qubits", "T-count"]);
/// t.add_row(vec!["8".into(), "15".into(), "51 386".into()]);
/// assert!(t.to_string().contains("TABLE X"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: Vec<&str>) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// An empty per-stage timing table whose columns match
    /// [`Table::stage_row`].
    pub fn stages() -> Self {
        Self::new(
            "per-stage timings (s)",
            vec![
                "flow",
                "parse+elab",
                "optimize",
                "synthesis",
                "post-opt",
                "resynth",
                "analyze",
                "verify",
                "total",
            ],
        )
    }

    /// Renders the per-stage timing breakdown of a [`FlowOutcome`]:
    /// flow name, then seconds for parse+elaborate, optimize, synthesis,
    /// post-synthesis circuit optimization, windowed resynthesis, static
    /// analysis, verification, and the total.
    pub fn stage_row(outcome: &FlowOutcome) -> Vec<String> {
        let s = |d: std::time::Duration| format!("{:.3}", d.as_secs_f64());
        vec![
            outcome.flow_name.clone(),
            s(outcome.stages.parse_elaborate),
            s(outcome.stages.optimize),
            s(outcome.stages.synthesis),
            s(outcome.stages.post_opt),
            s(outcome.stages.resynth),
            s(outcome.stages.analyze),
            s(outcome.stages.verification),
            s(outcome.stages.total()),
        ]
    }
}

/// A timing-free exploration report: one line per outcome, in exploration
/// order, listing design, flow, qubits, T-count, gate count, and (when
/// the analyze stage ran) the static-lint warning/note counts and
/// T-depth.
///
/// Deliberately excludes wall-clock figures so a parallel
/// [`crate::dse::DesignSpaceExplorer::explore_matrix`] run renders
/// **byte-identical** to a serial run of the same matrix — the
/// determinism contract the regression tests pin down (the static
/// analyzer is deterministic, so its cells keep that contract).
pub fn deterministic_report(outcomes: &[FlowOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let lint = match &o.analysis {
            Some(r) => format!(
                " | lint {}w/{}n | T-depth {}",
                r.count(Severity::Warning),
                r.count(Severity::Note),
                r.metrics.depth.t_depth,
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "{} | {} | qubits {} | T {} | gates {}{}\n",
            o.design.name(),
            o.flow_name,
            o.cost.qubits,
            group_digits(o.cost.t_count),
            o.cost.gates,
            lint,
        ));
    }
    out
}

/// A timing-free portfolio report: one line per configuration, in
/// portfolio order, listing design, configuration, qubits, T-count, gate
/// count and race status.
///
/// Like [`deterministic_report`], excludes wall-clock figures, so a
/// parallel [`crate::dse::DesignSpaceExplorer::explore_portfolio`] run
/// renders **byte-identical** for every worker count.
pub fn portfolio_report(outcomes: &[PortfolioOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let status = if o.cut_off { "cut off" } else { "ran" };
        out.push_str(&format!(
            "{} | {} | qubits {} | T {} | gates {} | {}\n",
            o.design.name(),
            configuration_name(&o.flow_name, o.post_opt, o.post_resynth),
            o.cost.qubits,
            group_digits(o.cost.t_count),
            o.cost.gates,
            status,
        ));
    }
    out
}

/// Formats an integer with thin thousand groups, as the paper prints
/// T-counts (`51 386`).
pub fn group_digits(value: u64) -> String {
    let digits = value.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths.
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} ", w = w)?;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_grouping_matches_paper_style() {
        assert_eq!(group_digits(51386), "51 386");
        assert_eq!(group_digits(71155258), "71 155 258");
        assert_eq!(group_digits(597), "597");
        assert_eq!(group_digits(0), "0");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("TABLE II", vec!["n", "qubits", "T-count", "runtime"]);
        t.add_row(vec!["4".into(), "7".into(), "597".into(), "0.10".into()]);
        t.add_row(vec![
            "8".into(),
            "15".into(),
            "51 386".into(),
            "0.74".into(),
        ]);
        let s = t.to_string();
        assert!(s.contains("TABLE II"));
        assert!(s.contains("51 386"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T", vec!["a", "b"]);
        t.add_row(vec!["1".into()]);
    }
}
