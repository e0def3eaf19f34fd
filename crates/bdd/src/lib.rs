//! A reduced ordered binary decision diagram (ROBDD) package.
//!
//! BDDs are the symbolic function representation at the *reversible
//! synthesis level* interface of the paper's ESOP flow: the optimized AIG
//! is collapsed into BDDs (ABC `collapse`), and ESOP expressions are
//! extracted from them via PSDKRO expansion.
//!
//! The manager uses a unique table for canonicity and an operation cache for
//! memoized apply. No complement edges, no dynamic reordering — variable
//! order is the natural input order, which is adequate for the arithmetic
//! functions of the paper.
//!
//! # Example
//!
//! ```
//! use qda_bdd::BddManager;
//!
//! let mut mgr = BddManager::new(3);
//! let x0 = mgr.var(0);
//! let x1 = mgr.var(1);
//! let f = mgr.and(x0, x1);
//! assert_eq!(mgr.sat_count(f), 2); // x2 free
//! ```

use qda_logic::hash::{FxHashMap, FxHashSet};
use std::fmt;

/// Handle to a BDD node inside a [`BddManager`].
///
/// Handles are only meaningful with the manager that created them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant-false BDD.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true BDD.
    pub const TRUE: Bdd = Bdd(1);

    /// Whether this is a terminal node.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Raw index (for diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// The BDD manager: owns all nodes, the unique table, and operation caches.
pub struct BddManager {
    num_vars: usize,
    nodes: Vec<Node>,
    unique: FxHashMap<Node, Bdd>,
    cache: FxHashMap<(Op, Bdd, Bdd), Bdd>,
    not_cache: FxHashMap<Bdd, Bdd>,
}

impl BddManager {
    /// Creates a manager over `num_vars` variables (order = index order).
    pub fn new(num_vars: usize) -> Self {
        // Slots 0/1 are the terminals; their fields are sentinels.
        let term = Node {
            var: u32::MAX,
            lo: Bdd::FALSE,
            hi: Bdd::FALSE,
        };
        Self {
            num_vars,
            nodes: vec![term, term],
            unique: FxHashMap::default(),
            cache: FxHashMap::default(),
            not_cache: FxHashMap::default(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total allocated nodes (including both terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from `f` (its BDD size), terminals
    /// excluded.
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_const() || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.0 as usize];
            stack.push(node.lo);
            stack.push(node.hi);
        }
        seen.len()
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&b) = self.unique.get(&node) {
            return b;
        }
        let b = Bdd(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, b);
        b
    }

    /// The projection function of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars`.
    pub fn var(&mut self, i: usize) -> Bdd {
        assert!(i < self.num_vars, "variable {i} out of range");
        self.mk(i as u32, Bdd::FALSE, Bdd::TRUE)
    }

    /// Top variable of `f` (`u32::MAX` for terminals).
    pub fn top_var(&self, f: Bdd) -> u32 {
        if f.is_const() {
            u32::MAX
        } else {
            self.nodes[f.0 as usize].var
        }
    }

    /// Children of `f` assuming its top variable is `var` (returns `(f, f)`
    /// if `f` does not test `var`).
    pub fn branches(&self, f: Bdd, var: u32) -> (Bdd, Bdd) {
        if f.is_const() || self.nodes[f.0 as usize].var != var {
            (f, f)
        } else {
            let n = self.nodes[f.0 as usize];
            (n.lo, n.hi)
        }
    }

    fn apply(&mut self, op: Op, f: Bdd, g: Bdd) -> Bdd {
        match op {
            Op::And => {
                if f == Bdd::FALSE || g == Bdd::FALSE {
                    return Bdd::FALSE;
                }
                if f == Bdd::TRUE {
                    return g;
                }
                if g == Bdd::TRUE || f == g {
                    return f;
                }
            }
            Op::Or => {
                if f == Bdd::TRUE || g == Bdd::TRUE {
                    return Bdd::TRUE;
                }
                if f == Bdd::FALSE {
                    return g;
                }
                if g == Bdd::FALSE || f == g {
                    return f;
                }
            }
            Op::Xor => {
                if f == g {
                    return Bdd::FALSE;
                }
                if f == Bdd::FALSE {
                    return g;
                }
                if g == Bdd::FALSE {
                    return f;
                }
            }
        }
        // Canonical argument order for the commutative ops.
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = self.cache.get(&(op, f, g)) {
            return r;
        }
        let var = self.top_var(f).min(self.top_var(g));
        let (f0, f1) = self.branches(f, var);
        let (g0, g1) = self.branches(g, var);
        let lo = self.apply(op, f0, g0);
        let hi = self.apply(op, f1, g1);
        let r = self.mk(var, lo, hi);
        self.cache.insert((op, f, g), r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::And, f, g)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Xor, f, g)
    }

    /// Negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        if f == Bdd::FALSE {
            return Bdd::TRUE;
        }
        if f == Bdd::TRUE {
            return Bdd::FALSE;
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return r;
        }
        let node = self.nodes[f.0 as usize];
        let lo = self.not(node.lo);
        let hi = self.not(node.hi);
        let r = self.mk(node.var, lo, hi);
        self.not_cache.insert(f, r);
        r
    }

    /// Shannon cofactor of `f` with variable `var` fixed to `value`.
    pub fn cofactor(&mut self, f: Bdd, var: usize, value: bool) -> Bdd {
        if f.is_const() {
            return f;
        }
        let node = self.nodes[f.0 as usize];
        match node.var.cmp(&(var as u32)) {
            std::cmp::Ordering::Greater => f,
            std::cmp::Ordering::Equal => {
                if value {
                    node.hi
                } else {
                    node.lo
                }
            }
            std::cmp::Ordering::Less => {
                let lo = self.cofactor(node.lo, var, value);
                let hi = self.cofactor(node.hi, var, value);
                self.mk(node.var, lo, hi)
            }
        }
    }

    /// Evaluates `f` on an assignment (bit `i` of `x` = variable `i`).
    pub fn eval(&self, f: Bdd, x: u64) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let node = self.nodes[cur.0 as usize];
            cur = if (x >> node.var) & 1 == 1 {
                node.hi
            } else {
                node.lo
            };
        }
        cur == Bdd::TRUE
    }

    /// Number of satisfying assignments over all `num_vars` variables.
    pub fn sat_count(&self, f: Bdd) -> u128 {
        fn rec(mgr: &BddManager, f: Bdd, memo: &mut FxHashMap<Bdd, u128>) -> u128 {
            // Count over variables strictly below (after) top_var(f).
            if f == Bdd::FALSE {
                return 0;
            }
            if f == Bdd::TRUE {
                return 1;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let node = mgr.nodes[f.0 as usize];
            let lo = rec(mgr, node.lo, memo);
            let hi = rec(mgr, node.hi, memo);
            let lo_var = mgr.top_var(node.lo).min(mgr.num_vars as u32);
            let hi_var = mgr.top_var(node.hi).min(mgr.num_vars as u32);
            let c = (lo << (lo_var - node.var - 1)) + (hi << (hi_var - node.var - 1));
            memo.insert(f, c);
            c
        }
        let mut memo = FxHashMap::default();
        let c = rec(self, f, &mut memo);
        let top = self.top_var(f).min(self.num_vars as u32);
        c << top
    }

    /// The variables `f` depends on.
    pub fn support(&self, f: Bdd) -> Vec<usize> {
        let mut vars = std::collections::BTreeSet::new();
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_const() || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.0 as usize];
            vars.insert(node.var as usize);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        vars.into_iter().collect()
    }

    /// Builds the BDD of an explicit truth table.
    ///
    /// Reduces bottom-up: one unique-table lookup per pair of sibling
    /// sub-tables, `2^n − 1` in all.
    ///
    /// # Panics
    ///
    /// Panics if the table has more variables than the manager.
    pub fn from_truth_table(&mut self, tt: &qda_logic::tt::TruthTable) -> Bdd {
        assert!(tt.num_vars() <= self.num_vars, "arity exceeds manager");
        let mut level: Vec<Bdd> = (0..tt.num_bits())
            .map(|x| if tt.get(x) { Bdd::TRUE } else { Bdd::FALSE })
            .collect();
        // Variable 0 is the top of the order and the lowest index bit, so
        // the bottom variable splits the table into contiguous halves.
        for var in (0..tt.num_vars()).rev() {
            let half = level.len() / 2;
            for a in 0..half {
                level[a] = self.mk(var as u32, level[a], level[a + half]);
            }
            level.truncate(half);
        }
        level[0]
    }

    /// Expands `f` back into an explicit truth table over `num_vars`
    /// variables (verification; exponential).
    pub fn to_truth_table(&self, f: Bdd) -> qda_logic::tt::TruthTable {
        qda_logic::tt::TruthTable::from_fn(self.num_vars, |x| self.eval(f, x))
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BddManager({} vars, {} nodes)",
            self.num_vars,
            self.nodes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_logic::tt::TruthTable;

    #[test]
    fn basic_operations() {
        let mut mgr = BddManager::new(3);
        let x0 = mgr.var(0);
        let x1 = mgr.var(1);
        let x2 = mgr.var(2);
        let f = mgr.and(x0, x1);
        let g = mgr.or(f, x2);
        for x in 0..8u64 {
            let expected = ((x & 1 == 1) && (x >> 1) & 1 == 1) || (x >> 2) & 1 == 1;
            assert_eq!(mgr.eval(g, x), expected);
        }
    }

    #[test]
    fn canonicity_equal_functions_share_node() {
        let mut mgr = BddManager::new(2);
        let x0 = mgr.var(0);
        let x1 = mgr.var(1);
        // (x0 & x1) | (x0 & !x1) == x0
        let nx1 = mgr.not(x1);
        let a = mgr.and(x0, x1);
        let b = mgr.and(x0, nx1);
        let f = mgr.or(a, b);
        assert_eq!(f, x0);
    }

    #[test]
    fn xor_and_not() {
        let mut mgr = BddManager::new(4);
        let vars: Vec<Bdd> = (0..4).map(|i| mgr.var(i)).collect();
        let mut f = vars[0];
        for &v in &vars[1..] {
            f = mgr.xor(f, v);
        }
        assert_eq!(mgr.sat_count(f), 8);
        let nf = mgr.not(f);
        assert_eq!(mgr.sat_count(nf), 8);
        let both = mgr.and(f, nf);
        assert_eq!(both, Bdd::FALSE);
    }

    #[test]
    fn sat_count_with_free_variables() {
        let mut mgr = BddManager::new(5);
        let x2 = mgr.var(2);
        assert_eq!(mgr.sat_count(x2), 16);
        assert_eq!(mgr.sat_count(Bdd::TRUE), 32);
        assert_eq!(mgr.sat_count(Bdd::FALSE), 0);
    }

    #[test]
    fn cofactor_fixes_variable() {
        let mut mgr = BddManager::new(3);
        let x0 = mgr.var(0);
        let x1 = mgr.var(1);
        let x2 = mgr.var(2);
        let t = mgr.and(x1, x2);
        // f = x0 ? x1 ∧ x2 : x2
        let then = mgr.and(x0, t);
        let nx0 = mgr.not(x0);
        let other = mgr.and(nx0, x2);
        let f = mgr.or(then, other);
        let f1 = mgr.cofactor(f, 0, true);
        let f0 = mgr.cofactor(f, 0, false);
        assert_eq!(f1, t);
        assert_eq!(f0, x2);
        // Cofactor on a deeper variable: f with x2=0 is x0 & x1 & 0 | ... = 0.
        let f_x2_0 = mgr.cofactor(f, 2, false);
        assert_eq!(f_x2_0, Bdd::FALSE);
    }

    #[test]
    fn truth_table_round_trip() {
        let tt = TruthTable::from_fn(5, |x| (x * 7) % 11 < 5);
        let mut mgr = BddManager::new(5);
        let f = mgr.from_truth_table(&tt);
        assert_eq!(mgr.to_truth_table(f), tt);
        assert_eq!(mgr.sat_count(f) as u64, tt.count_ones());
    }

    #[test]
    fn truth_table_reduction_shares_nodes_with_apply() {
        // A 3-variable table in a 5-variable manager: the bottom-up
        // reduction must land on the very nodes apply builds.
        let mut mgr = BddManager::new(5);
        let tt = TruthTable::from_fn(3, |x| (x & 1 == 1) ^ ((x >> 1) & (x >> 2) & 1 == 1));
        let f = mgr.from_truth_table(&tt);
        let vars: Vec<Bdd> = (0..3).map(|i| mgr.var(i)).collect();
        let x12 = mgr.and(vars[1], vars[2]);
        assert_eq!(f, mgr.xor(vars[0], x12));
        assert_eq!(mgr.from_truth_table(&TruthTable::zero(0)), Bdd::FALSE);
        assert_eq!(mgr.from_truth_table(&TruthTable::one(4)), Bdd::TRUE);
    }

    #[test]
    fn support_and_size() {
        let mut mgr = BddManager::new(4);
        let x0 = mgr.var(0);
        let x3 = mgr.var(3);
        let f = mgr.xor(x0, x3);
        assert_eq!(mgr.support(f), vec![0, 3]);
        assert_eq!(mgr.size(f), 3); // one x0 node + two x3 nodes
    }
}
