//! The budget abort contract: a budgeted computation unwinds with the typed
//! [`BudgetExceeded`] payload at a safe point, overshoots its node limit by
//! at most the amortized check interval, and leaves the manager
//! allocation-consistent — collectable, re-budgetable and reusable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use pv_bdd::{Bdd, BddManager, Budget, BudgetExceeded, Var};

/// Builds an n-bit ripple-carry "greater than" chain — enough ITE traffic
/// to drive the amortized miss-path check — returning the final function.
fn build_chain(m: &mut BddManager, bits: usize) -> Bdd {
    let xs = m.new_vars(bits);
    let ys = m.new_vars(bits);
    let mut acc = Bdd::FALSE;
    for (x, y) in xs.iter().zip(&ys) {
        let (vx, vy) = (m.var(*x), m.var(*y));
        let not_y = m.not(vy);
        let gt = m.and(vx, not_y);
        let eq = m.xnor(vx, vy);
        let keep = m.and(eq, acc);
        acc = m.or(gt, keep);
    }
    acc
}

/// Runs `f`, expecting it to unwind with a `BudgetExceeded` payload;
/// anything else (success or a foreign panic) fails the test.
fn expect_abort<T>(f: impl FnOnce() -> T) -> BudgetExceeded {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => panic!("the computation must abort"),
        Err(err) => *err
            .downcast_ref::<BudgetExceeded>()
            .expect("the panic payload is the typed BudgetExceeded"),
    }
}

#[test]
fn node_budget_aborts_with_bounded_overshoot() {
    let mut m = BddManager::new();
    let limit = 2_000;
    m.set_budget(Budget::unlimited().with_node_limit(limit));

    let exceeded = expect_abort(|| {
        // Unbounded, this would allocate far beyond the limit.
        for _ in 0..64 {
            build_chain(&mut m, 24);
        }
    });
    assert_eq!(exceeded, BudgetExceeded::Nodes);

    // Overshoot past the limit is bounded by the amortized check interval
    // (1024 misses, each allocating at most one node) plus the per-call
    // slack before the first tick.
    let allocated = m.stats().allocated;
    assert!(allocated > limit, "the abort fired past the limit");
    assert!(
        allocated <= limit + 2 * 1024,
        "overshoot {} exceeds a small multiple of the safe-point interval",
        allocated - limit
    );
}

#[test]
fn cancelled_budgets_abort_and_deadline_zero_aborts() {
    let mut m = BddManager::new();
    let budget = Budget::unlimited();
    budget.cancel();
    m.set_budget(budget);
    assert_eq!(
        expect_abort(|| build_chain(&mut m, 24)),
        BudgetExceeded::Cancelled
    );

    let mut m = BddManager::new();
    m.set_budget(Budget::unlimited().with_deadline(Duration::ZERO));
    assert_eq!(
        expect_abort(|| build_chain(&mut m, 24)),
        BudgetExceeded::Deadline
    );
}

#[test]
fn manager_stays_consistent_and_reusable_after_abort() {
    let mut m = BddManager::new();
    m.set_budget(Budget::unlimited().with_node_limit(1_500));
    expect_abort(|| {
        for _ in 0..64 {
            build_chain(&mut m, 24);
        }
    });

    // The aborted computation's handles are dead, but the manager is not:
    // collect everything, lift the budget and verify fresh work is correct.
    let stats = m.gc();
    assert!(stats.collected > 0, "the abort left collectable garbage");
    m.clear_budget();

    let xs = m.new_vars(4);
    let mut conj = Bdd::TRUE;
    for x in &xs {
        let v = m.var(*x);
        conj = m.and(conj, v);
    }
    assert!(m.eval(conj, |_| true));
    assert!(!m.eval(conj, |v| v != xs[0]));

    // Re-budgeting with headroom lets the same manager finish real work.
    m.set_budget(Budget::unlimited().with_node_limit(m.stats().allocated + 100_000));
    build_chain(&mut m, 8);
}

#[test]
fn safe_point_checks_fire_without_ite_traffic() {
    // `maybe_gc` is the per-cycle safe point; it must observe cancellation
    // even when no ITE miss ever ticks the amortized counter.
    let mut m = BddManager::new();
    let budget = Budget::unlimited();
    m.set_budget(budget.child());
    budget.cancel();
    assert_eq!(expect_abort(|| m.maybe_gc(&[])), BudgetExceeded::Cancelled);
}

#[test]
fn an_abort_inside_exists_leaves_a_canonical_computed_table() {
    // x > y over 12-bit words; ∃x. x > y holds unless y is all ones.
    let bits = 12;
    let mut m = BddManager::new();
    let f = build_chain(&mut m, bits);
    m.add_root(f);
    let xs: Vec<Var> = (0..bits).map(Var::from_index).collect();
    let ys: Vec<Var> = (bits..2 * bits).map(Var::from_index).collect();

    // The quantifier reaches the amortized ITE-miss check through `or`
    // (this one needs about 4,000 misses), so the abort unwinds out of the
    // middle of the recursion and leaves the table half-filled.
    let budget = Budget::unlimited();
    budget.cancel();
    m.set_budget(budget);
    assert_eq!(expect_abort(|| m.exists(f, &xs)), BudgetExceeded::Cancelled);
    m.clear_budget();
    m.gc();

    let quantified = m.exists(f, &xs);
    let y_lits: Vec<Bdd> = ys.iter().map(|&y| m.var(y)).collect();
    let all_ones = m.and_many(&y_lits);
    assert_eq!(quantified, m.not(all_ones));
    // The completed call is cached: asking again costs no ITE miss.
    let misses = m.stats().ite_misses;
    assert_eq!(m.exists(f, &xs), quantified);
    assert_eq!(m.stats().ite_misses, misses);
}
