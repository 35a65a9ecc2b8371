//! Property tests for the BDD manager against a brute-force truth-table
//! oracle: every connective, quantifier and the symbolic-reachability
//! primitives (`and_exists`, `rename`, `sat_count_set`) are checked
//! pointwise over the full 2^N input space of randomly generated
//! functions (N = 8 ≤ 10, so the oracle stays exhaustive).

use proptest::prelude::*;
use simap_boolean::{Bdd, BddRef, Cover, Cube, Literal, VarSet};

const N: usize = 8;
const SIZE: usize = 1 << N;

/// An exhaustive truth table over `N` variables — the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Table(Vec<bool>);

impl Table {
    fn of_cover(cover: &Cover) -> Table {
        Table((0..SIZE as u64).map(|code| cover.eval(code)).collect())
    }

    fn zip(&self, other: &Table, f: impl Fn(bool, bool) -> bool) -> Table {
        Table(self.0.iter().zip(&other.0).map(|(&a, &b)| f(a, b)).collect())
    }

    fn not(&self) -> Table {
        Table(self.0.iter().map(|&a| !a).collect())
    }

    /// Existentially quantifies one variable.
    fn exists(&self, var: usize) -> Table {
        let bit = 1usize << var;
        Table((0..SIZE).map(|code| self.0[code & !bit] || self.0[code | bit]).collect())
    }

    /// Universally quantifies one variable.
    fn forall(&self, var: usize) -> Table {
        let bit = 1usize << var;
        Table((0..SIZE).map(|code| self.0[code & !bit] && self.0[code | bit]).collect())
    }

    fn restrict(&self, var: usize, value: bool) -> Table {
        let bit = 1usize << var;
        Table((0..SIZE).map(|code| self.0[if value { code | bit } else { code & !bit }]).collect())
    }

    /// Existentially quantifies every variable in `mask`.
    fn exists_mask(&self, mask: u64) -> Table {
        let mut t = self.clone();
        for v in 0..N {
            if mask >> v & 1 == 1 {
                t = t.exists(v);
            }
        }
        t
    }

    fn count(&self) -> u64 {
        self.0.iter().filter(|&&b| b).count() as u64
    }

    /// Checks the BDD agrees on every input code.
    fn matches(&self, bdd: &Bdd, r: BddRef) -> bool {
        (0..SIZE).all(|code| bdd.eval(r, code as u64) == self.0[code])
    }
}

/// A random cube as per-variable trits (0 absent, 1 positive, 2 negative).
fn arb_cube() -> impl Strategy<Value = Cube> {
    proptest::collection::vec(0u8..3, N).prop_map(|trits| {
        Cube::from_literals(trits.iter().enumerate().filter_map(|(v, &t)| match t {
            1 => Some(Literal::pos(v)),
            2 => Some(Literal::neg(v)),
            _ => None,
        }))
        .expect("distinct variables cannot conflict")
    })
}

fn arb_cover() -> impl Strategy<Value = Cover> {
    proptest::collection::vec(arb_cube(), 1..6).prop_map(Cover::from_cubes)
}

fn mask_to_varset(mask: u64) -> VarSet {
    (0..N).filter(|&v| mask >> v & 1 == 1).collect()
}

proptest! {
    /// `ite` is pointwise if-then-else (and the basis everything else
    /// reduces to).
    #[test]
    fn ite_matches_the_truth_table(f in arb_cover(), g in arb_cover(), h in arb_cover()) {
        let mut bdd = Bdd::new();
        let (rf, rg, rh) = (bdd.from_cover(&f), bdd.from_cover(&g), bdd.from_cover(&h));
        let r = bdd.ite(rf, rg, rh);
        let (tf, tg, th) = (Table::of_cover(&f), Table::of_cover(&g), Table::of_cover(&h));
        let expected = Table(
            (0..SIZE).map(|c| if tf.0[c] { tg.0[c] } else { th.0[c] }).collect(),
        );
        prop_assert!(expected.matches(&bdd, r));
    }

    /// and/or/xor/not agree with the oracle, and canonicity makes
    /// equivalent formulations pointer-equal (De Morgan).
    #[test]
    fn connectives_match_the_truth_table(f in arb_cover(), g in arb_cover()) {
        let mut bdd = Bdd::new();
        let (rf, rg) = (bdd.from_cover(&f), bdd.from_cover(&g));
        let (tf, tg) = (Table::of_cover(&f), Table::of_cover(&g));
        let and = bdd.and(rf, rg);
        prop_assert!(tf.zip(&tg, |a, b| a && b).matches(&bdd, and));
        let or = bdd.or(rf, rg);
        prop_assert!(tf.zip(&tg, |a, b| a || b).matches(&bdd, or));
        let xor = bdd.xor(rf, rg);
        prop_assert!(tf.zip(&tg, |a, b| a != b).matches(&bdd, xor));
        let not = bdd.not(rf);
        prop_assert!(tf.not().matches(&bdd, not));
        // De Morgan, canonically: ¬(f ∧ g) is the same node as ¬f ∨ ¬g.
        let nand = bdd.not(and);
        let ng = bdd.not(rg);
        let demorgan = bdd.or(not, ng);
        prop_assert_eq!(nand, demorgan);
    }

    /// exists/forall/restrict match the per-variable oracle.
    #[test]
    fn quantifiers_match_the_truth_table(f in arb_cover(), var in 0usize..N) {
        let mut bdd = Bdd::new();
        let rf = bdd.from_cover(&f);
        let tf = Table::of_cover(&f);
        let ex = bdd.exists(rf, var);
        prop_assert!(tf.exists(var).matches(&bdd, ex));
        let fa = bdd.forall(rf, var);
        prop_assert!(tf.forall(var).matches(&bdd, fa));
        let r1 = bdd.restrict(rf, var, true);
        prop_assert!(tf.restrict(var, true).matches(&bdd, r1));
        let r0 = bdd.restrict(rf, var, false);
        prop_assert!(tf.restrict(var, false).matches(&bdd, r0));
    }

    /// Satisfy counts — classic and set-restricted — equal the oracle's
    /// popcount.
    #[test]
    fn sat_counts_match_the_truth_table(f in arb_cover()) {
        let mut bdd = Bdd::new();
        let rf = bdd.from_cover(&f);
        let tf = Table::of_cover(&f);
        prop_assert_eq!(bdd.sat_count(rf, N), tf.count());
        let all: VarSet = (0..N).collect();
        prop_assert_eq!(bdd.sat_count_set(rf, &all), tf.count());
        // Two spare variables outside the support double the count twice.
        let wider: VarSet = (0..N + 2).collect();
        prop_assert_eq!(bdd.sat_count_set(rf, &wider), tf.count() << 2);
    }

    /// The relational product `∃S. f ∧ g` equals quantifying the
    /// conjunction — against the oracle and against the BDD's own
    /// two-step computation.
    #[test]
    fn relational_product_matches_the_truth_table(
        f in arb_cover(),
        g in arb_cover(),
        mask in 0u64..(1 << N),
    ) {
        let mut bdd = Bdd::new();
        let (rf, rg) = (bdd.from_cover(&f), bdd.from_cover(&g));
        let set = mask_to_varset(mask);
        let product = bdd.and_exists(rf, rg, &set);
        let expected = Table::of_cover(&f)
            .zip(&Table::of_cover(&g), |a, b| a && b)
            .exists_mask(mask);
        prop_assert!(expected.matches(&bdd, product));
        let conj = bdd.and(rf, rg);
        let two_step = bdd.exists_set(conj, &set);
        prop_assert_eq!(product, two_step);
    }

    /// exists_set on its own also matches the oracle.
    #[test]
    fn exists_set_matches_the_truth_table(f in arb_cover(), mask in 0u64..(1 << N)) {
        let mut bdd = Bdd::new();
        let rf = bdd.from_cover(&f);
        let set = mask_to_varset(mask);
        let r = bdd.exists_set(rf, &set);
        prop_assert!(Table::of_cover(&f).exists_mask(mask).matches(&bdd, r));
    }

    /// Variables the manager never created cannot occur in any node:
    /// restriction and quantification over them return the input (the
    /// plain conjunction for `and_exists`) without creating a node, and
    /// each one padded onto a counting set doubles the count.
    #[test]
    fn never_created_variables_are_inert(
        f in arb_cover(),
        g in arb_cover(),
        var in N..2 * N,
        pad in 1usize..N,
    ) {
        let mut bdd = Bdd::new();
        let (rf, rg) = (bdd.from_cover(&f), bdd.from_cover(&g));
        let conj = bdd.and(rf, rg);
        let unseen: VarSet = (N..N + pad).collect();
        let nodes = bdd.node_count();
        prop_assert_eq!(bdd.restrict(rf, var, true), rf);
        prop_assert_eq!(bdd.restrict(rf, var, false), rf);
        prop_assert_eq!(bdd.exists(rf, var), rf);
        prop_assert_eq!(bdd.forall(rf, var), rf);
        prop_assert!(!bdd.depends_on(rf, var));
        prop_assert_eq!(bdd.exists_set(rf, &unseen), rf);
        prop_assert_eq!(bdd.and_exists(rf, rg, &unseen), conj);
        prop_assert_eq!(bdd.node_count(), nodes, "no node is created");
        let padded: VarSet = (0..N + pad).collect();
        prop_assert_eq!(bdd.sat_count_set(rf, &padded), Table::of_cover(&f).count() << pad);
    }

    /// Renaming along the interleave map `v → 2v` relocates every input
    /// bit, and renaming back restores the exact original node.
    #[test]
    fn rename_is_an_order_preserving_bijection(f in arb_cover()) {
        let mut bdd = Bdd::new();
        let rf = bdd.from_cover(&f);
        let tf = Table::of_cover(&f);
        let spread: Vec<(usize, usize)> = (0..N).map(|v| (v, 2 * v)).collect();
        let wide = bdd.rename(rf, &spread);
        // Evaluate the renamed function on spread-out codes.
        for code in 0..SIZE {
            let mut spread_code = 0u64;
            for v in 0..N {
                if code >> v & 1 == 1 {
                    spread_code |= 1 << (2 * v);
                }
            }
            prop_assert_eq!(bdd.eval(wide, spread_code), tf.0[code]);
        }
        let narrow: Vec<(usize, usize)> = (0..N).map(|v| (2 * v, v)).collect();
        prop_assert_eq!(bdd.rename(wide, &narrow), rf, "round-trip is the identity node");
    }
}
