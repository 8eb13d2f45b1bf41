//! Cross-analysis consistency checks: the same quantity computed by
//! independent routes (interval semantics, branching processes, number trees,
//! random-walk matrices, intersection-type counting) must agree — exactly
//! where closed forms exist, and as ordered bounds elsewhere.

use probterm::core::astver::verify_ast;
use probterm::core::counting::{recursive_rank_bound, tree_family_weight, NumberTree};
use probterm::core::intervalsem::{lower_bound, LowerBoundConfig};
use probterm::core::itypes::recursive_rank_bound_nii;
use probterm::core::numerics::Rational;
use probterm::core::rwalk::{GeneratingFunction, WalkMatrix};
use probterm::core::spcf::{
    catalog, estimate_termination, MonteCarloConfig, Strategy, Term,
};
use proptest::prelude::*;

fn r(n: i64, d: i64) -> Rational {
    Rational::from_ratio(n, d)
}

/// The sub-AST printer (Ex. 1.1 (2), p = 1/4) terminates with probability
/// exactly 1/3: the interval-semantics lower bounds, the branching-process
/// extinction probability, the number-tree weights and a seeded Monte-Carlo
/// estimate all agree on that value (the first three from below, the
/// estimator within statistical noise).
#[test]
fn printer_quarter_four_routes_to_one_third() {
    let limit = r(1, 3);
    // Route 1: branching process — exact.
    let counting = probterm::core::rwalk::CountingDistribution::from_pairs([
        (0, r(1, 4)),
        (2, r(3, 4)),
    ]);
    let extinction = GeneratingFunction::new(&counting)
        .extinction_probability_exact()
        .expect("quadratic generating equation");
    assert_eq!(extinction, limit);
    // Route 2: number-tree weights — monotone lower bounds.
    let w7 = tree_family_weight(&counting, 7);
    let w11 = tree_family_weight(&counting, 11);
    assert!(w7 < w11 && w11 < limit);
    // Route 3: interval-semantics lower bounds — monotone and below 1/3.
    let b = catalog::printer_nonaffine(r(1, 4));
    let shallow = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(40));
    let deep = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(70));
    assert!(shallow.probability <= deep.probability);
    assert!(deep.probability <= limit);
    assert!(deep.probability > r(29, 100), "bounds converge towards 1/3");
    // Route 4: Monte-Carlo — 1 200 machine runs put the 99% interval well
    // inside ±0.05 of the closed form (terminating runs of this program are
    // dozens of steps, so the 800-step budget truncates nothing measurable).
    let estimate = estimate_termination(
        &b.term,
        &MonteCarloConfig {
            runs: 1_200,
            max_steps: 800,
            seed: 29,
            strategy: Strategy::CallByName,
            profile: false,
        },
    );
    assert!(
        (estimate.probability() - 1.0 / 3.0).abs() < 0.05,
        "estimate {} strays from 1/3",
        estimate.probability()
    );
    assert!(estimate.confidence_99() < 0.05);
}

/// The non-idempotent intersection bound on the recursive rank agrees with the
/// syntactic call-site count on every Table 2 benchmark, and with the rank the
/// AST verifier observes in its symbolic execution tree.
#[test]
fn rank_bounds_agree_across_analyses() {
    for b in catalog::table2_benchmarks() {
        let nii = recursive_rank_bound_nii(&b.term).expect("fixpoint benchmark") as u64;
        let fixpoint = match &b.term {
            Term::App(f, _) => (**f).clone(),
            other => other.clone(),
        };
        let syntactic = recursive_rank_bound(&fixpoint).expect("fixpoint benchmark");
        assert_eq!(nii, syntactic, "{}", b.name);
        let verification = verify_ast(&b.term).expect("supported benchmark");
        assert_eq!(verification.rank, nii, "{}", b.name);
    }
}

/// For every verified Table 2 benchmark, the random walk generated by the
/// verifier's `P_approx` is absorbed with high probability within a few
/// hundred steps — Definition 5.3 made concrete with exact matrix powers.
#[test]
fn verified_papprox_walks_are_absorbed() {
    for b in catalog::table2_benchmarks() {
        let verification = verify_ast(&b.term).expect("supported benchmark");
        assert!(verification.verified_ast, "{}", b.name);
        let walk = WalkMatrix::new(&verification.step_distribution, 64);
        let absorbed = walk.absorption_within(1, 300);
        assert!(
            absorbed > r(7, 10),
            "{}: P_approx walk only absorbed with probability {absorbed}",
            b.name
        );
    }
}

/// The extinction probability of the verifier's `P_approx` is a lower bound on
/// the interval-semantics view of the termination probability for the fair
/// printer (both are 1 here), and strictly less than 1 for the failing one.
#[test]
fn papprox_extinction_matches_ast_verdict() {
    let good = catalog::printer_nonaffine(r(1, 2));
    let verification = verify_ast(&good.term).expect("supported");
    let g = GeneratingFunction::new(&verification.papprox);
    assert!(verification.verified_ast);
    assert!(g.is_almost_surely_extinct());

    let bad = catalog::printer_nonaffine(r(2, 5));
    let verification = verify_ast(&bad.term).expect("supported");
    assert!(!verification.verified_ast);
    let g = GeneratingFunction::new(&verification.papprox);
    assert!(!g.is_almost_surely_extinct());
    assert_eq!(g.extinction_probability_exact(), Some(r(2, 3)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Number trees and terminating relative runs are in bijection
    /// (Lemma D.6): every enumerated tree round-trips through its run, and
    /// every valid run parses back to a tree with consistent statistics.
    #[test]
    fn number_tree_run_bijection(seed in 0usize..1000) {
        let degrees = [0u64, 1, 2, 3];
        let trees = NumberTree::enumerate(7, &degrees);
        let tree = &trees[seed % trees.len()];
        let run = tree.to_relative_run();
        prop_assert_eq!(run.len(), tree.node_count());
        prop_assert_eq!(run.iter().sum::<i64>(), -1);
        let back = NumberTree::from_relative_run(&run).expect("valid run");
        prop_assert_eq!(&back, tree);
        let absolute = tree.to_absolute_run();
        prop_assert_eq!(absolute.len(), tree.node_count() + 1);
        prop_assert_eq!(absolute[0], 1);
        prop_assert_eq!(*absolute.last().unwrap(), 0);
    }

    /// Theorem 5.4 agrees with the branching-process criterion on random
    /// two-point counting distributions p·δ0 + (1−p)·δk.
    #[test]
    fn theorem_5_4_matches_branching_processes(num in 1i64..100, k in 1u64..6) {
        let p = Rational::from_ratio(num, 100);
        let counting = probterm::core::rwalk::CountingDistribution::from_pairs([
            (0, p.clone()),
            (k, Rational::one() - p),
        ]);
        let walk_says = counting.shifted().is_ast();
        let branching_says = GeneratingFunction::new(&counting).is_almost_surely_extinct();
        prop_assert_eq!(walk_says, branching_says);
    }
}
