//! Abstract syntax tree of the Verilog subset.

use std::collections::HashMap;

/// Direction / kind of a signal declaration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignalKind {
    /// `input` port.
    Input,
    /// `output` port.
    Output,
    /// internal `wire`.
    Wire,
}

/// A declared signal with an optional `[msb:lsb]` range
/// (absent range = 1 bit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signal {
    /// Signal name.
    pub name: String,
    /// Declaration kind.
    pub kind: SignalKind,
    /// Most-significant bit index (0 for scalars).
    pub msb: usize,
    /// Least-significant bit index (0 for scalars).
    pub lsb: usize,
}

impl Signal {
    /// Bit width of the signal.
    pub fn width(&self) -> usize {
        self.msb - self.lsb + 1
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// Bitwise NOT `~`.
    Not,
    /// Logical NOT `!` (1-bit result).
    LogicalNot,
    /// Arithmetic negation `-` (two's complement).
    Neg,
    /// Reduction OR `|a`.
    RedOr,
    /// Reduction AND `&a`.
    RedAnd,
    /// Reduction XOR `^a`.
    RedXor,
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+` (width = max, wrapping)
    Add,
    /// `-` (width = max, wrapping)
    Sub,
    /// `*` (width = sum)
    Mul,
    /// `/` unsigned (width = left)
    Div,
    /// `%` unsigned (width = right)
    Mod,
    /// `<<` (width = left)
    Shl,
    /// `>>` logical (width = left)
    Shr,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `&&` (1 bit)
    LogicalAnd,
    /// `||` (1 bit)
    LogicalOr,
    /// `==` (1 bit)
    Eq,
    /// `!=` (1 bit)
    Ne,
    /// `<` unsigned (1 bit)
    Lt,
    /// `<=` unsigned (1 bit)
    Le,
    /// `>` unsigned (1 bit)
    Gt,
    /// `>=` unsigned (1 bit)
    Ge,
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Signal reference.
    Ident(String),
    /// Literal with LSB-first bits (sized) or minimal width (unsized).
    Literal {
        /// Bits, least significant first.
        bits: Vec<bool>,
        /// Whether the literal was explicitly sized.
        sized: bool,
    },
    /// Bit select `a[i]`.
    Index(Box<Expr>, usize),
    /// Part select `a[msb:lsb]`.
    Range(Box<Expr>, usize, usize),
    /// Concatenation `{a, b, …}` (first element = most significant,
    /// Verilog convention).
    Concat(Vec<Expr>),
    /// Replication `{k{expr}}`.
    Repeat(usize, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional `cond ? then : else`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// A continuous assignment `assign target = expr;` (target must be a full
/// declared signal in this subset).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assign {
    /// Assigned signal name.
    pub target: String,
    /// Right-hand side.
    pub expr: Expr,
}

/// A parsed module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Port order as written in the header.
    pub ports: Vec<String>,
    /// All declared signals.
    pub signals: Vec<Signal>,
    /// Continuous assignments in source order.
    pub assigns: Vec<Assign>,
}

impl Module {
    /// Every declared signal by name. A name declared twice resolves to
    /// its first declaration.
    pub fn signal_table(&self) -> HashMap<&str, &Signal> {
        let mut table = HashMap::with_capacity(self.signals.len());
        for s in &self.signals {
            table.entry(s.name.as_str()).or_insert(s);
        }
        table
    }

    /// Input signals in port order.
    pub fn inputs(&self) -> Vec<&Signal> {
        ports_of(&self.ports, &self.signal_table(), SignalKind::Input)
    }

    /// Output signals in port order.
    pub fn outputs(&self) -> Vec<&Signal> {
        ports_of(&self.ports, &self.signal_table(), SignalKind::Output)
    }
}

/// The ports of one kind, in port order, resolved through a
/// [`Module::signal_table`].
pub(crate) fn ports_of<'m>(
    ports: &[String],
    table: &HashMap<&str, &'m Signal>,
    kind: SignalKind,
) -> Vec<&'m Signal> {
    ports
        .iter()
        .filter_map(|p| table.get(p.as_str()).copied())
        .filter(|s| s.kind == kind)
        .collect()
}
