//! Garbage-collection correctness: rooted functions keep their semantics
//! across collections, unrooted garbage is reclaimed completely, reclaimed
//! slots are reused, and hash-consing stays canonical afterwards.

use proptest::prelude::*;
use pv_bdd::{Bdd, BddManager, Var};

/// A small random Boolean expression over `n` variables.
#[derive(Clone, Debug)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

fn arb_expr(nvars: usize, depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = (0..nvars).prop_map(Expr::Var);
    leaf.prop_recursive(depth, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn build(m: &mut BddManager, vars: &[Var], e: &Expr) -> Bdd {
    match e {
        Expr::Var(i) => m.var(vars[*i]),
        Expr::Not(a) => {
            let x = build(m, vars, a);
            m.not(x)
        }
        Expr::And(a, b) => {
            let (x, y) = (build(m, vars, a), build(m, vars, b));
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let (x, y) = (build(m, vars, a), build(m, vars, b));
            m.or(x, y)
        }
        Expr::Xor(a, b) => {
            let (x, y) = (build(m, vars, a), build(m, vars, b));
            m.xor(x, y)
        }
    }
}

fn eval_expr(e: &Expr, assignment: u32) -> bool {
    match e {
        Expr::Var(i) => assignment >> i & 1 == 1,
        Expr::Not(a) => !eval_expr(a, assignment),
        Expr::And(a, b) => eval_expr(a, assignment) && eval_expr(b, assignment),
        Expr::Or(a, b) => eval_expr(a, assignment) || eval_expr(b, assignment),
        Expr::Xor(a, b) => eval_expr(a, assignment) ^ eval_expr(b, assignment),
    }
}

const NVARS: usize = 5;

proptest! {
    /// Build two random formulas, root one, collect: the rooted formula's
    /// truth table is unchanged, the dead-node count drops to zero (an
    /// immediate second collection reclaims nothing), and the reclaimed slots
    /// can be reused to rebuild the dropped formula with correct semantics
    /// and restored canonicity.
    #[test]
    fn gc_preserves_rooted_semantics((fe, ge) in (arb_expr(NVARS, 4), arb_expr(NVARS, 4))) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &fe);
        let g = build(&mut m, &vars, &ge);
        let _ = g; // dropped: not rooted, so the collection may reclaim it
        m.add_root(f);
        let reachable_from_f = if f.is_const() { 2 } else { m.node_count(f) };
        let stats = m.gc();
        // Everything not reachable from the root is gone...
        prop_assert_eq!(stats.live, reachable_from_f);
        prop_assert_eq!(m.live_nodes(), reachable_from_f);
        // ...so a second collection finds no dead nodes at all.
        prop_assert_eq!(m.gc().collected, 0);
        // The rooted formula still agrees with its truth table.
        for a in 0u32..1 << NVARS {
            let expected = eval_expr(&fe, a);
            prop_assert_eq!(m.eval(f, |v| a >> v.index() & 1 == 1), expected);
        }
        // Reclaimed slots are reused without corrupting semantics, and
        // hash-consing is canonical across the collection: rebuilding the
        // rooted formula reproduces the *same handle*.
        let g2 = build(&mut m, &vars, &ge);
        for a in 0u32..1 << NVARS {
            let expected = eval_expr(&ge, a);
            prop_assert_eq!(m.eval(g2, |v| a >> v.index() & 1 == 1), expected);
        }
        let f2 = build(&mut m, &vars, &fe);
        prop_assert_eq!(f2, f);
    }

    /// With no roots registered, a collection reclaims every decision node:
    /// only the two terminals stay live, and total allocation is monotone.
    #[test]
    fn unrooted_garbage_is_reclaimed_completely(e in arb_expr(NVARS, 4)) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &e);
        let _ = f;
        let allocated_before = m.total_nodes();
        let live_before = m.live_nodes();
        let stats = m.gc();
        prop_assert_eq!(stats.collected, live_before - 2);
        prop_assert_eq!(stats.live, 2);
        prop_assert_eq!(m.live_nodes(), 2);
        // The total-allocation counter never goes backwards.
        prop_assert_eq!(m.total_nodes(), allocated_before);
        // The manager is still fully usable: rebuild and re-check.
        let f2 = build(&mut m, &vars, &e);
        for a in 0u32..1 << NVARS {
            prop_assert_eq!(m.eval(f2, |v| a >> v.index() & 1 == 1), eval_expr(&e, a));
        }
    }

    /// Quantification, cofactoring, the generalized cofactor and the
    /// relational product give identical (canonical) results before and
    /// after an interposed collection. The second round runs against the
    /// table the first round warmed, minus the entries the collection
    /// filtered out (the unrooted garbage below dies with them), so the
    /// filter cannot change a result.
    #[test]
    fn operations_agree_across_gc(
        (fe, ge, idx) in (arb_expr(NVARS, 4), arb_expr(NVARS, 3), 0..NVARS)
    ) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &fe);
        let g = build(&mut m, &vars, &ge);
        // An empty care set has no generalized cofactor; fall back to ¬g.
        let care = if g.is_false() { m.not(g) } else { g };
        let v = vars[idx];
        let before_exists = m.exists(f, &[v]);
        let before_restrict = m.restrict(f, v, true);
        let before_constrain = m.constrain(f, care);
        let before_and_exists = m.and_exists(f, g, &[v]);
        let garbage = m.xor(f, g);
        let _ = m.constrain(garbage, care);
        for h in [f, g, care, before_exists, before_restrict, before_constrain, before_and_exists] {
            m.add_root(h);
        }
        m.gc();
        let after_exists = m.exists(f, &[v]);
        let after_restrict = m.restrict(f, v, true);
        let after_constrain = m.constrain(f, care);
        let after_and_exists = m.and_exists(f, g, &[v]);
        prop_assert_eq!(before_exists, after_exists);
        prop_assert_eq!(before_restrict, after_restrict);
        prop_assert_eq!(before_constrain, after_constrain);
        prop_assert_eq!(before_and_exists, after_and_exists);
        // The warm answers are also the right ones: ∃v.(f ∧ g) built from
        // cofactors, and agreement with f wherever the care set holds.
        let conj = m.and(f, g);
        let (c0, c1) = (m.restrict(conj, v, false), m.restrict(conj, v, true));
        prop_assert_eq!(after_and_exists, m.or(c0, c1));
        for a in 0u32..1 << NVARS {
            let at = |x: pv_bdd::Var| a >> x.index() & 1 == 1;
            if m.eval(care, at) {
                prop_assert_eq!(m.eval(after_constrain, at), m.eval(f, at));
            }
        }
    }
}
