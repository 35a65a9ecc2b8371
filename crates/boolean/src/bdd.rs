//! Reduced Ordered Binary Decision Diagrams.
//!
//! A compact ROBDD package with complement edges, a unique table and an
//! ITE computed cache, under the fixed variable order `x0 < x1 < …`. The
//! SOP engine ([`crate::minimize`]) is heuristic; BDDs give the *exact*
//! side: tautology, equivalence, complementation and satisfy-count, used
//! to cross-check covers and to validate the minimizer in tests.
//! Variables use the same indices as [`crate::Cube`].
//!
//! On top of the classic connectives the manager provides the symbolic
//! model-checking primitives — set-wise quantification
//! ([`Bdd::exists_set`]), the relational product ([`Bdd::and_exists`]),
//! order-preserving variable renaming ([`Bdd::rename`]) and
//! set-restricted satisfy counting ([`Bdd::sat_count_set`]) — used by the
//! symbolic reachability engine. Those set-based operations work on up to
//! [`MAX_BDD_VARS`] variables; the minterm-code APIs ([`Bdd::eval`],
//! [`Bdd::sat_count`]) and the [`Cube`]/[`Cover`] conversions remain
//! bounded by [`crate::cube::MAX_VARS`] (= 64) and assert it.
//!
//! # Complement edges
//!
//! Negation is a constant-time bit flip: a [`BddRef`] carries a
//! complement bit next to its node index, and canonicity is maintained by
//! never storing a complemented `hi` edge. All observable behavior is
//! unchanged — equality of refs is still function equality within one
//! manager, [`BddRef::TRUE`]/[`BddRef::FALSE`] are still the terminal
//! constants — but shared subgraphs now serve both polarities, roughly
//! halving node counts on negation-heavy workloads.
//!
//! Nodes are never freed: they live as long as the manager, so every
//! [`BddRef`] it returned stays valid. The symbolic reachability engine
//! creates one manager per call and drops it with the result.

use crate::cover::Cover;
use crate::cube::{Cube, Literal};
use std::collections::HashMap;

/// Hard cap on BDD variable indices. Far above [`crate::cube::MAX_VARS`]
/// (the bound that still applies to the cube/cover conversions): symbolic
/// state vectors interleave current/next copies of every place and signal
/// of a net, which overflows the 64-variable cube world long before it
/// stresses the node store.
pub const MAX_BDD_VARS: usize = 4096;

/// A set of BDD variables, used by the quantification, relational-product
/// and counting operations. Stored as a bitset; construction order is
/// irrelevant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarSet {
    bits: Vec<u64>,
}

impl VarSet {
    /// The empty set.
    pub fn new() -> Self {
        VarSet::default()
    }

    /// Adds a variable to the set.
    ///
    /// # Panics
    /// Panics if `var >= MAX_BDD_VARS`.
    pub fn insert(&mut self, var: usize) {
        assert!(var < MAX_BDD_VARS, "variable index {var} out of range");
        let word = var / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1u64 << (var % 64);
    }

    /// Whether `var` is in the set.
    pub fn contains(&self, var: usize) -> bool {
        self.bits.get(var / 64).is_some_and(|w| w >> (var % 64) & 1 == 1)
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| (0..64).filter(move |b| w >> b & 1 == 1).map(move |b| i * 64 + b))
    }

    /// The largest member, if any.
    pub fn max(&self) -> Option<usize> {
        self.bits
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + 63 - w.leading_zeros() as usize)
    }
}

impl FromIterator<usize> for VarSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = VarSet::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

/// Reference to a BDD node (terminals included). Only meaningful together
/// with the [`Bdd`] manager that produced it.
///
/// Bit 0 is the complement flag; the remaining bits are the node index,
/// so negation never allocates. Equality of refs is function equality
/// within one manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-true terminal (the shared terminal node, plain).
    pub const TRUE: BddRef = BddRef(0);
    /// The constant-false terminal (the shared terminal node, complemented).
    pub const FALSE: BddRef = BddRef(1);

    /// Whether this is one of the two terminals.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    fn complement(self) -> BddRef {
        BddRef(self.0 ^ 1)
    }

    fn regular(self) -> BddRef {
        BddRef(self.0 & !1)
    }

    fn from_index(index: u32, complemented: bool) -> BddRef {
        BddRef(index << 1 | complemented as u32)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
}

/// The shared terminal slot. Its `var`, `u32::MAX`, places it below every
/// real variable in the order, so [`Bdd::var_of`] needs no terminal case.
const TERMINAL: Node = Node { var: u32::MAX, lo: BddRef::TRUE, hi: BddRef::TRUE };

/// A BDD manager: owns the node store, the unique table and the
/// operation cache. The variable order is fixed: `x0 < x1 < …`.
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<Node, u32>,
    ite_cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
    /// `created[v]`: whether [`Bdd::var`] has ever been called for `v`.
    /// No node can test a variable that was never created.
    created: Vec<bool>,
}

impl Default for Bdd {
    fn default() -> Self {
        Bdd::new()
    }
}

impl Bdd {
    /// Creates an empty manager.
    pub fn new() -> Self {
        // Slot 0 is the shared terminal; TRUE and FALSE are its two
        // polarities.
        Bdd {
            nodes: vec![TERMINAL],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            created: Vec::new(),
        }
    }

    /// Number of non-terminal nodes the manager has created. Nodes live
    /// as long as the manager.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 1
    }

    fn is_created(&self, var: usize) -> bool {
        self.created.get(var).copied().unwrap_or(false)
    }

    /// The variable `r` tests, which is also its level in the fixed
    /// order; `u32::MAX` for the terminals.
    fn var_of(&self, r: BddRef) -> u32 {
        self.nodes[r.index()].var
    }

    // ---- node construction ---------------------------------------------

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        if lo == hi {
            return lo;
        }
        if hi.is_complemented() {
            return self.mk_regular(var, lo.complement(), hi.complement()).complement();
        }
        self.mk_regular(var, lo, hi)
    }

    fn mk_regular(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        debug_assert!(!hi.is_complemented());
        debug_assert!(self.var_of(lo) > var);
        debug_assert!(self.var_of(hi) > var);
        let node = Node { var, lo, hi };
        if let Some(&idx) = self.unique.get(&node) {
            return BddRef::from_index(idx, false);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.unique.insert(node, idx);
        BddRef::from_index(idx, false)
    }

    /// Cofactors of `r` with respect to `var`, with the complement bit
    /// pushed through to the children.
    fn cofactors(&self, r: BddRef, var: u32) -> (BddRef, BddRef) {
        if r.is_terminal() {
            return (r, r);
        }
        let n = self.nodes[r.index()];
        if n.var != var {
            return (r, r);
        }
        if r.is_complemented() {
            (n.lo.complement(), n.hi.complement())
        } else {
            (n.lo, n.hi)
        }
    }

    // ---- core operations -------------------------------------------------

    /// The single-variable function `x_var`.
    ///
    /// # Panics
    /// Panics if `var >= MAX_BDD_VARS`. (The [`Cube`]/[`Cover`]
    /// conversions stay bounded by the tighter [`crate::cube::MAX_VARS`].)
    pub fn var(&mut self, var: usize) -> BddRef {
        assert!(var < MAX_BDD_VARS, "variable index {var} out of range");
        if var >= self.created.len() {
            self.created.resize(var + 1, false);
        }
        self.created[var] = true;
        self.mk(var as u32, BddRef::FALSE, BddRef::TRUE)
    }

    /// The literal `x_var` or `x̄_var`.
    pub fn literal(&mut self, lit: Literal) -> BddRef {
        let v = self.var(lit.var);
        if lit.phase {
            v
        } else {
            v.complement()
        }
    }

    /// If-then-else: the universal connective all operations reduce to.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        // Terminal cases.
        if f == BddRef::TRUE {
            return g;
        }
        if f == BddRef::FALSE {
            return h;
        }
        let (mut f, mut g, mut h) = (f, g, h);
        if g == f {
            g = BddRef::TRUE;
        } else if g == f.complement() {
            g = BddRef::FALSE;
        }
        if h == f {
            h = BddRef::FALSE;
        } else if h == f.complement() {
            h = BddRef::TRUE;
        }
        if g == h {
            return g;
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return f;
        }
        if g == BddRef::FALSE && h == BddRef::TRUE {
            return f.complement();
        }
        // Canonicalize the cache key: plain condition, plain then-branch.
        if f.is_complemented() {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        let flip = g.is_complemented();
        if flip {
            g = g.complement();
            h = h.complement();
        }
        let key = (f, g, h);
        if let Some(&r) = self.ite_cache.get(&key) {
            return if flip { r.complement() } else { r };
        }
        let tv = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, tv);
        let (g0, g1) = self.cofactors(g, tv);
        let (h0, h1) = self.cofactors(h, tv);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(tv, lo, hi);
        self.ite_cache.insert(key, r);
        if flip {
            r.complement()
        } else {
            r
        }
    }

    /// Conjunction.
    pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.ite(a, b, BddRef::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.ite(a, BddRef::TRUE, b)
    }

    /// Negation (a constant-time complement-bit flip).
    pub fn not(&mut self, a: BddRef) -> BddRef {
        a.complement()
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.ite(a, b.complement(), b)
    }

    /// Builds the BDD of a cube (conjunction of literals).
    pub fn from_cube(&mut self, cube: &Cube) -> BddRef {
        let mut acc = BddRef::TRUE;
        // Build bottom-up (highest variable first) for linear growth.
        let lits: Vec<Literal> = cube.literals().collect();
        for lit in lits.into_iter().rev() {
            let l = self.literal(lit);
            acc = self.and(l, acc);
        }
        acc
    }

    /// Builds the BDD of a sum-of-products cover.
    pub fn from_cover(&mut self, cover: &Cover) -> BddRef {
        let mut acc = BddRef::FALSE;
        for cube in cover.cubes() {
            let c = self.from_cube(cube);
            acc = self.or(acc, c);
        }
        acc
    }
    /// Evaluates the function on a minterm code. A `u64` code addresses
    /// 64 variables, so like every minterm-code API this is only defined
    /// for functions whose support stays below [`crate::cube::MAX_VARS`].
    ///
    /// # Panics
    /// Panics if the function depends on a variable `>= 64`.
    pub fn eval(&self, r: BddRef, code: u64) -> bool {
        let mut r = r;
        let mut neg = false;
        loop {
            neg ^= r.is_complemented();
            if r.index() == 0 {
                return !neg;
            }
            let n = self.nodes[r.index()];
            assert!(n.var < 64, "eval takes u64 minterm codes; variable {} is out of range", n.var);
            r = if code >> n.var & 1 == 1 { n.hi } else { n.lo };
        }
    }

    /// Whether the function is the constant true (canonicity makes this a
    /// pointer test).
    pub fn is_tautology(&self, r: BddRef) -> bool {
        r == BddRef::TRUE
    }

    /// Whether two covers denote the same boolean function.
    pub fn covers_equal(&mut self, a: &Cover, b: &Cover) -> bool {
        let ra = self.from_cover(a);
        let rb = self.from_cover(b);
        ra == rb
    }

    /// Whether cover `a` implies cover `b` (`a ⊆ b` as sets of minterms).
    pub fn cover_implies(&mut self, a: &Cover, b: &Cover) -> bool {
        let ra = self.from_cover(a);
        let rb = self.from_cover(b);
        self.and(ra, rb.complement()) == BddRef::FALSE
    }

    /// Number of satisfying assignments over `nvars` variables. The
    /// function's support must lie within `0..nvars` (use
    /// [`Bdd::sat_count_set`] for sparse or high-index variable sets).
    ///
    /// # Panics
    /// Panics if the function depends on a variable `>= nvars`.
    pub fn sat_count(&self, r: BddRef, nvars: usize) -> u64 {
        for v in self.support(r) {
            assert!(
                v < nvars,
                "sat_count over {nvars} variables, but the function depends on variable {v}"
            );
        }
        let vars: VarSet = (0..nvars).collect();
        let count = self.count_minterms(r, &vars);
        u64::try_from(count).unwrap_or(u64::MAX)
    }

    /// Extracts an (irredundant-path) SOP cover: one cube per 1-path.
    /// Cubes are bounded by [`crate::cube::MAX_VARS`], so the function's
    /// support must stay below 64 (the [`Literal`] constructor asserts).
    pub fn to_cover(&self, r: BddRef) -> Cover {
        let mut cubes = Vec::new();
        let mut path: Vec<Literal> = Vec::new();
        self.paths(r, false, &mut path, &mut cubes);
        Cover::from_cubes(cubes)
    }

    fn paths(&self, r: BddRef, neg: bool, path: &mut Vec<Literal>, out: &mut Vec<Cube>) {
        let neg = neg ^ r.is_complemented();
        if r.index() == 0 {
            if !neg {
                out.push(Cube::from_literals(path.iter().copied()).expect("path is consistent"));
            }
            return;
        }
        let n = self.nodes[r.index()];
        path.push(Literal::neg(n.var as usize));
        self.paths(n.lo, neg, path, out);
        path.pop();
        path.push(Literal::pos(n.var as usize));
        self.paths(n.hi, neg, path, out);
        path.pop();
    }

    /// Existential quantification of a variable.
    pub fn exists(&mut self, r: BddRef, var: usize) -> BddRef {
        let (lo, hi) = self.restrict_pair(r, var);
        self.or(lo, hi)
    }

    /// Universal quantification of a variable.
    pub fn forall(&mut self, r: BddRef, var: usize) -> BddRef {
        let (lo, hi) = self.restrict_pair(r, var);
        self.and(lo, hi)
    }

    /// Restriction `f|_{var=value}`.
    pub fn restrict(&mut self, r: BddRef, var: usize, value: bool) -> BddRef {
        let (lo, hi) = self.restrict_pair(r, var);
        if value {
            hi
        } else {
            lo
        }
    }

    fn restrict_pair(&mut self, r: BddRef, var: usize) -> (BddRef, BddRef) {
        if !self.is_created(var) {
            // Never-created variable: nothing can depend on it.
            return (r, r);
        }
        let v = var as u32;
        fn rec(
            bdd: &mut Bdd,
            r: BddRef,
            v: u32,
            value: bool,
            memo: &mut HashMap<BddRef, BddRef>,
        ) -> BddRef {
            if bdd.var_of(r) > v {
                return r;
            }
            if let Some(&m) = memo.get(&r) {
                return m;
            }
            let n = bdd.nodes[r.index()];
            let (lo, hi) = bdd.cofactors(r, n.var);
            let res = if n.var == v {
                if value {
                    hi
                } else {
                    lo
                }
            } else {
                let lo = rec(bdd, lo, v, value, memo);
                let hi = rec(bdd, hi, v, value, memo);
                bdd.mk(n.var, lo, hi)
            };
            memo.insert(r, res);
            res
        }
        let lo = rec(self, r, v, false, &mut HashMap::new());
        let hi = rec(self, r, v, true, &mut HashMap::new());
        (lo, hi)
    }

    /// Whether the function depends on `var`.
    pub fn depends_on(&mut self, r: BddRef, var: usize) -> bool {
        let (lo, hi) = self.restrict_pair(r, var);
        lo != hi
    }

    /// The decomposition of a non-terminal node: `(var, lo, hi)` with
    /// `lo = f|_{var=0}` and `hi = f|_{var=1}`. `None` for terminals.
    pub fn node(&self, r: BddRef) -> Option<(usize, BddRef, BddRef)> {
        if r.is_terminal() {
            None
        } else {
            let n = self.nodes[r.index()];
            let (lo, hi) = if r.is_complemented() {
                (n.lo.complement(), n.hi.complement())
            } else {
                (n.lo, n.hi)
            };
            Some((n.var as usize, lo, hi))
        }
    }

    /// The support of a function: every variable it depends on, ascending.
    pub fn support(&self, r: BddRef) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = Vec::new();
        let mut stack = vec![r.index()];
        while let Some(x) = stack.pop() {
            if x == 0 || !seen.insert(x) {
                continue;
            }
            let n = self.nodes[x];
            vars.push(n.var as usize);
            stack.push(n.lo.index());
            stack.push(n.hi.index());
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Existential quantification of every variable in `vars` at once
    /// (`∃ vars. f`). Equivalent to chaining [`Bdd::exists`] but with one
    /// memoized traversal.
    pub fn exists_set(&mut self, r: BddRef, vars: &VarSet) -> BddRef {
        let Some(max) = self.deepest_created(vars) else { return r };
        let mut memo = HashMap::new();
        self.exists_set_rec(r, vars, max, &mut memo)
    }

    /// The deepest *created* member of `vars`; `None` if no member has
    /// ever been created (then nothing depends on them).
    fn deepest_created(&self, vars: &VarSet) -> Option<u32> {
        vars.iter().filter(|&v| self.is_created(v)).max().map(|v| v as u32)
    }

    fn exists_set_rec(
        &mut self,
        r: BddRef,
        vars: &VarSet,
        max: u32,
        memo: &mut HashMap<BddRef, BddRef>,
    ) -> BddRef {
        // Below the deepest quantified variable the function is untouched.
        if self.var_of(r) > max {
            return r;
        }
        if let Some(&m) = memo.get(&r) {
            return m;
        }
        let var = self.nodes[r.index()].var;
        let (lo, hi) = self.cofactors(r, var);
        let lo = self.exists_set_rec(lo, vars, max, memo);
        let hi = self.exists_set_rec(hi, vars, max, memo);
        let res = if vars.contains(var as usize) { self.or(lo, hi) } else { self.mk(var, lo, hi) };
        memo.insert(r, res);
        res
    }

    /// The relational product `∃ vars. f ∧ g` in one pass — the image
    /// operator of symbolic reachability (`f` a state set, `g` a
    /// transition relation, `vars` the current-state variables). Avoids
    /// ever building the (often much larger) conjunction.
    pub fn and_exists(&mut self, f: BddRef, g: BddRef, vars: &VarSet) -> BddRef {
        let max = match self.deepest_created(vars) {
            Some(m) => m,
            None => return self.and(f, g),
        };
        let mut memo = HashMap::new();
        self.and_exists_rec(f, g, vars, max, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: BddRef,
        g: BddRef,
        vars: &VarSet,
        max: u32,
        memo: &mut HashMap<(BddRef, BddRef), BddRef>,
    ) -> BddRef {
        if f == BddRef::FALSE || g == BddRef::FALSE {
            return BddRef::FALSE;
        }
        if f == BddRef::TRUE && g == BddRef::TRUE {
            return BddRef::TRUE;
        }
        let tv = self.var_of(f).min(self.var_of(g));
        if tv > max {
            // No quantified variable remains below: plain conjunction.
            return self.and(f, g);
        }
        // ∧ commutes: normalize the cache key.
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let (f0, f1) = self.cofactors(f, tv);
        let (g0, g1) = self.cofactors(g, tv);
        let lo = self.and_exists_rec(f0, g0, vars, max, memo);
        let res = if vars.contains(tv as usize) {
            if lo == BddRef::TRUE {
                // ∃x. (… ∨ hi) is already true: skip the hi branch.
                BddRef::TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, vars, max, memo);
                self.or(lo, hi)
            }
        } else {
            let hi = self.and_exists_rec(f1, g1, vars, max, memo);
            self.mk(tv, lo, hi)
        };
        memo.insert(key, res);
        res
    }

    /// Renames variables along `map` — sorted `(from, to)` pairs. The
    /// mapping must be order-preserving (sources ascending, targets
    /// ascending) and total on the support of `r`; this is exactly the
    /// current↔next swap of an interleaved symbolic state encoding.
    ///
    /// # Panics
    /// Panics if the pairs are unsorted, if targets are not strictly
    /// increasing, or if a support variable of `r` has no mapping.
    pub fn rename(&mut self, r: BddRef, map: &[(usize, usize)]) -> BddRef {
        assert!(
            map.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
            "rename map must be sorted with strictly increasing targets"
        );
        assert!(map.iter().all(|&(_, to)| to < MAX_BDD_VARS));
        let mut memo = HashMap::new();
        self.rename_rec(r, map, &mut memo)
    }

    fn rename_rec(
        &mut self,
        r: BddRef,
        map: &[(usize, usize)],
        memo: &mut HashMap<BddRef, BddRef>,
    ) -> BddRef {
        if r.is_terminal() {
            return r;
        }
        // Renaming commutes with complement: memoize the plain node.
        let reg = r.regular();
        let res = if let Some(&m) = memo.get(&reg) {
            m
        } else {
            let n = self.nodes[reg.index()];
            let to = map
                .binary_search_by_key(&(n.var as usize), |&(from, _)| from)
                .map(|i| map[i].1)
                .unwrap_or_else(|_| panic!("support variable {} has no rename mapping", n.var));
            let lo = self.rename_rec(n.lo, map, memo);
            let hi = self.rename_rec(n.hi, map, memo);
            let tv = self.var(to);
            let res = self.ite(tv, hi, lo);
            memo.insert(reg, res);
            res
        };
        if r.is_complemented() {
            res.complement()
        } else {
            res
        }
    }

    /// Number of satisfying assignments counted over exactly the
    /// variables in `vars` (the support of `r` must be contained in
    /// `vars`; variables outside the set contribute no factor). Saturates
    /// at `u64::MAX`.
    ///
    /// # Panics
    /// Panics if `r` depends on a variable outside `vars`.
    pub fn sat_count_set(&self, r: BddRef, vars: &VarSet) -> u64 {
        assert!(vars.len() < 128, "sat_count_set supports at most 127 variables");
        let count = self.count_minterms(r, vars);
        u64::try_from(count).unwrap_or(u64::MAX)
    }

    /// Path-counting core shared by [`Bdd::sat_count`] and
    /// [`Bdd::sat_count_set`]: counts minterms of `r` over exactly the
    /// variables in `vars`, ranking set members by index (the fixed
    /// order).
    fn count_minterms(&self, r: BddRef, vars: &VarSet) -> u128 {
        // rank(v) = how many set variables sit above v in the order.
        let members: Vec<usize> = vars.iter().collect();
        let total = members.len() as u32;
        let rank = |v: u32| -> u32 {
            if v == u32::MAX {
                return total;
            }
            assert!(vars.contains(v as usize), "support variable {v} is not in the counting set");
            members.binary_search(&(v as usize)).expect("set member present") as u32
        };
        // base(idx) = minterms of the plain node function over the set
        // positions at and below its own rank.
        fn edge(
            bdd: &Bdd,
            e: BddRef,
            from: u32,
            total: u32,
            rank: &dyn Fn(u32) -> u32,
            memo: &mut HashMap<usize, u128>,
        ) -> u128 {
            let ke = rank(bdd.var_of(e));
            let b = if e.index() == 0 { 1 } else { base(bdd, e.index(), total, rank, memo) };
            let b = if e.is_complemented() { (1u128 << (total - ke)) - b } else { b };
            b << (ke - from)
        }
        fn base(
            bdd: &Bdd,
            idx: usize,
            total: u32,
            rank: &dyn Fn(u32) -> u32,
            memo: &mut HashMap<usize, u128>,
        ) -> u128 {
            if let Some(&c) = memo.get(&idx) {
                return c;
            }
            let n = bdd.nodes[idx];
            let k = rank(n.var);
            let c = edge(bdd, n.lo, k + 1, total, rank, memo)
                + edge(bdd, n.hi, k + 1, total, rank, memo);
            memo.insert(idx, c);
            c
        }
        let mut memo = HashMap::new();
        edge(self, r, 0, total, &rank, &mut memo)
    }
}

/// Exact check that a cover agrees with an ON/OFF specification: covers
/// all ON minterms and avoids all OFF minterms (don't-cares free). The
/// exact counterpart of the debug assertions in [`crate::minimize`].
pub fn cover_matches_spec(cover: &Cover, nvars: usize, on: &[u64], off: &[u64]) -> bool {
    let mut bdd = Bdd::new();
    let f = bdd.from_cover(cover);
    let mut on_set = BddRef::FALSE;
    for &m in on {
        let c = bdd.from_cube(&Cube::minterm(m, nvars));
        on_set = bdd.or(on_set, c);
    }
    let mut off_set = BddRef::FALSE;
    for &m in off {
        let c = bdd.from_cube(&Cube::minterm(m, nvars));
        off_set = bdd.or(off_set, c);
    }
    let nf = bdd.not(f);
    let miss = bdd.and(on_set, nf);
    let clash = bdd.and(off_set, f);
    miss == BddRef::FALSE && clash == BddRef::FALSE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits.iter().map(|&(v, p)| Literal::new(v, p))).unwrap()
    }

    #[test]
    fn terminals_and_literals() {
        let mut bdd = Bdd::new();
        let x = bdd.var(0);
        assert!(bdd.eval(x, 0b1));
        assert!(!bdd.eval(x, 0b0));
        let nx = bdd.not(x);
        assert!(bdd.eval(nx, 0b0));
        assert_eq!(bdd.not(nx), x, "double negation is canonical");
    }

    #[test]
    fn canonicity_of_equivalent_forms() {
        let mut bdd = Bdd::new();
        // a·b + a·c == a·(b + c)
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b);
        let ac = bdd.and(a, c);
        let lhs = bdd.or(ab, ac);
        let bc = bdd.or(b, c);
        let rhs = bdd.and(a, bc);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn complement_edges_share_both_polarities() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let before = bdd.node_count();
        let nf = bdd.not(f);
        assert_eq!(bdd.node_count(), before, "negation allocates nothing");
        assert_ne!(f, nf);
        assert_eq!(bdd.not(nf), f);
        for code in 0..4u64 {
            assert_eq!(bdd.eval(nf, code), !bdd.eval(f, code));
        }
    }

    #[test]
    fn xor_and_sat_count() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let x = bdd.xor(a, b);
        assert_eq!(bdd.sat_count(x, 2), 2);
        assert_eq!(bdd.sat_count(x, 3), 4); // free third variable doubles it
        assert_eq!(bdd.sat_count(BddRef::TRUE, 5), 32);
        assert_eq!(bdd.sat_count(BddRef::FALSE, 5), 0);
    }

    #[test]
    fn cover_roundtrip() {
        let mut bdd = Bdd::new();
        let cover =
            Cover::from_cubes([cube(&[(0, true), (1, true)]), cube(&[(2, false), (3, true)])]);
        let r = bdd.from_cover(&cover);
        for code in 0..16u64 {
            assert_eq!(bdd.eval(r, code), cover.eval(code), "code {code:04b}");
        }
        let back = bdd.to_cover(r);
        let mut bdd2 = Bdd::new();
        assert!(bdd2.covers_equal(&cover, &back));
    }

    #[test]
    fn implication_and_equality() {
        let mut bdd = Bdd::new();
        let small = Cover::from_cube(cube(&[(0, true), (1, true)]));
        let big = Cover::from_cube(cube(&[(0, true)]));
        assert!(bdd.cover_implies(&small, &big));
        assert!(!bdd.cover_implies(&big, &small));
        assert!(!bdd.covers_equal(&small, &big));
    }

    #[test]
    fn quantification() {
        let mut bdd = Bdd::new();
        // f = a·b: ∃a.f = b ; ∀a.f = 0 ; f|a=1 = b.
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        assert_eq!(bdd.exists(f, 0), b);
        assert_eq!(bdd.forall(f, 0), BddRef::FALSE);
        assert_eq!(bdd.restrict(f, 0, true), b);
        assert_eq!(bdd.restrict(f, 0, false), BddRef::FALSE);
        assert!(bdd.depends_on(f, 0));
        assert!(!bdd.depends_on(b, 0));
    }

    #[test]
    fn spec_matching() {
        // ON = {11}, OFF = {00} over 2 vars; x0 matches (1 on 11, 0 on 00).
        let f = Cover::from_cube(cube(&[(0, true)]));
        assert!(cover_matches_spec(&f, 2, &[0b11], &[0b00]));
        assert!(!cover_matches_spec(&f, 2, &[0b10], &[0b01]));
    }

    #[test]
    fn tautology_detection() {
        let mut bdd = Bdd::new();
        let taut = Cover::from_cubes([cube(&[(0, true)]), cube(&[(0, false)])]);
        let r = bdd.from_cover(&taut);
        assert!(bdd.is_tautology(r));
    }

    #[test]
    fn varset_basics() {
        let set: VarSet = [3usize, 70, 3].into_iter().collect();
        assert_eq!(set.len(), 2);
        assert!(set.contains(3) && set.contains(70));
        assert!(!set.contains(4) && !set.contains(1000));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 70]);
        assert_eq!(set.max(), Some(70));
        assert!(VarSet::new().is_empty());
        assert_eq!(VarSet::new().max(), None);
    }

    #[test]
    fn exists_set_matches_chained_exists() {
        let mut bdd = Bdd::new();
        // f = (a ∧ b) ∨ (c ∧ ¬a)
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b);
        let na = bdd.not(a);
        let cna = bdd.and(c, na);
        let f = bdd.or(ab, cna);
        let set: VarSet = [0usize, 2].into_iter().collect();
        let chained = {
            let e0 = bdd.exists(f, 0);
            bdd.exists(e0, 2)
        };
        assert_eq!(bdd.exists_set(f, &set), chained);
        assert_eq!(bdd.exists_set(f, &VarSet::new()), f);
    }

    #[test]
    fn and_exists_is_the_relational_product() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let f = bdd.or(a, b);
        let nc = bdd.not(c);
        let g = bdd.xor(a, nc);
        let set: VarSet = [0usize].into_iter().collect();
        let conj = bdd.and(f, g);
        let direct = bdd.exists_set(conj, &set);
        assert_eq!(bdd.and_exists(f, g, &set), direct);
        // Empty quantification degrades to conjunction.
        assert_eq!(bdd.and_exists(f, g, &VarSet::new()), conj);
    }

    #[test]
    fn rename_shifts_interleaved_variables() {
        let mut bdd = Bdd::new();
        // f over "next" variables 1, 3: x1 ∧ ¬x3.
        let x1 = bdd.var(1);
        let x3 = bdd.var(3);
        let n3 = bdd.not(x3);
        let f = bdd.and(x1, n3);
        let down = bdd.rename(f, &[(1, 0), (3, 2)]);
        let x0 = bdd.var(0);
        let x2 = bdd.var(2);
        let n2 = bdd.not(x2);
        assert_eq!(down, bdd.and(x0, n2));
        // Shifting back is the identity.
        assert_eq!(bdd.rename(down, &[(0, 1), (2, 3)]), f);
    }

    #[test]
    fn sat_count_set_counts_over_the_given_set() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let c = bdd.var(2);
        let f = bdd.xor(a, c); // depends on vars {0, 2} only
        let exact: VarSet = [0usize, 2].into_iter().collect();
        assert_eq!(bdd.sat_count_set(f, &exact), 2);
        // A free extra variable doubles the count; contiguous sets agree
        // with the classic counter.
        let wider: VarSet = [0usize, 2, 7].into_iter().collect();
        assert_eq!(bdd.sat_count_set(f, &wider), 4);
        let all: VarSet = (0..3).collect();
        assert_eq!(bdd.sat_count_set(f, &all), bdd.sat_count(f, 3));
        let set40: VarSet = (0..40).collect();
        assert_eq!(bdd.sat_count_set(BddRef::TRUE, &set40), 1 << 40);
        assert_eq!(bdd.sat_count_set(BddRef::FALSE, &set40), 0);
    }

    #[test]
    fn node_and_support_expose_structure() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(5);
        let f = bdd.and(a, b);
        let (var, lo, hi) = bdd.node(f).expect("non-terminal");
        assert_eq!(var, 0);
        assert_eq!(lo, BddRef::FALSE);
        assert_eq!(hi, b);
        assert_eq!(bdd.node(BddRef::TRUE), None);
        assert_eq!(bdd.support(f), vec![0, 5]);
        assert_eq!(bdd.support(BddRef::FALSE), Vec::<usize>::new());
    }

    #[test]
    fn variables_beyond_the_cube_world_work() {
        // Symbolic state vectors use indices past MAX_VARS: the classic
        // connectives must keep functioning there.
        let mut bdd = Bdd::new();
        let hi = bdd.var(200);
        let lo = bdd.var(3);
        let f = bdd.and(hi, lo);
        let set: VarSet = [3usize, 200].into_iter().collect();
        assert_eq!(bdd.sat_count_set(f, &set), 1);
        let e = bdd.exists_set(f, &[200usize].into_iter().collect());
        assert_eq!(e, lo);
    }

    #[test]
    #[should_panic(expected = "eval takes u64 minterm codes")]
    fn eval_rejects_high_variables() {
        let mut bdd = Bdd::new();
        let r = bdd.var(100);
        bdd.eval(r, 0);
    }

    #[test]
    #[should_panic(expected = "depends on variable")]
    fn sat_count_rejects_out_of_range_support() {
        let mut bdd = Bdd::new();
        let r = bdd.var(5);
        bdd.sat_count(r, 3);
    }

    #[test]
    fn node_sharing_keeps_store_small() {
        let mut bdd = Bdd::new();
        // Build the same function many times: the store must not grow.
        let mut r = BddRef::FALSE;
        for _ in 0..10 {
            let c = bdd.from_cover(&Cover::from_cubes([
                cube(&[(0, true), (1, true)]),
                cube(&[(2, true), (3, true)]),
            ]));
            r = bdd.or(r, c);
        }
        let after_first = bdd.node_count();
        for _ in 0..10 {
            let c = bdd.from_cover(&Cover::from_cubes([
                cube(&[(0, true), (1, true)]),
                cube(&[(2, true), (3, true)]),
            ]));
            r = bdd.or(r, c);
        }
        assert_eq!(bdd.node_count(), after_first);
    }
}
