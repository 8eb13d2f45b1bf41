//! Cross-crate integration tests of the analysis pipeline itself:
//! parser ↔ pretty-printer ↔ semantics ↔ interval semantics ↔ type system.

use probterm::core::astver::{try_verify_ast, verify_ast};
use probterm::core::itypes::{derive_from_exploration, derive_set_type};
use probterm::core::intervalsem::{
    lower_bound, run_interval, try_lower_bound, IntervalTrace, ITerm, LowerBoundConfig,
};
use probterm::core::spcf::{
    catalog, estimate_termination, infer_type, parse_term, run, terminates_on_trace,
    try_estimate_termination, FixedTrace, MonteCarloConfig, SimpleType, Strategy,
};
use probterm::numerics::{Interval, Rational};
use proptest::prelude::*;

/// Every catalogue program parses, pretty-prints and re-parses to the same AST,
/// and is a closed, simply typed program of base type.
#[test]
fn catalogue_roundtrips_through_the_pretty_printer() {
    let mut all = catalog::table1_benchmarks();
    all.extend(catalog::table2_benchmarks());
    all.push(catalog::triangle_example());
    for b in &all {
        let printed = b.term.to_string();
        let reparsed = parse_term(&printed)
            .unwrap_or_else(|e| panic!("{}: failed to reparse `{printed}`: {e}", b.name));
        assert_eq!(reparsed, b.term, "{}", b.name);
        assert_eq!(infer_type(&b.term).unwrap(), SimpleType::Real, "{}", b.name);
    }
}

/// Lemma B.2 (used for soundness): if an interval trace terminates for the
/// embedded term, every standard trace refining it terminates for the original
/// term with the same step count. Checked on the non-affine printer.
#[test]
fn refining_standard_traces_terminate_with_equal_step_counts() {
    let b = catalog::printer_nonaffine(Rational::from_ratio(1, 2));
    // Interval trace: first print fails, both reprints succeed.
    // The failure interval must stay strictly above 1/2 so the branch is
    // decided (cf. Fig. 9); it still contains all three standard traces below.
    let itrace = IntervalTrace::from_ratios(&[(51, 100, 1, 1), (0, 1, 1, 2), (0, 1, 1, 2)]);
    // The interval machine embeds `(·)^2ℑ` implicitly; `ITerm::embed` remains
    // the specification artifact and must refine the source term.
    assert!(ITerm::embed(&b.term).refines(&b.term));
    let outcome = run_interval(&b.term, &itrace, 100_000);
    let steps = match outcome {
        probterm::core::intervalsem::IOutcome::Terminated { steps, .. } => steps,
        other => panic!("interval run did not terminate: {other:?}"),
    };
    for raw in [
        [(3i64, 4i64), (1, 4), (1, 4)],
        [(9, 10), (1, 3), (2, 5)],
        [(51, 100), (1, 100), (49, 100)],
    ] {
        let trace = FixedTrace::from_ratios(&raw);
        let result = terminates_on_trace(Strategy::CallByName, &b.term, trace, 100_000)
            .expect("standard trace must terminate");
        assert_eq!(result.steps, steps);
    }
}

/// Theorem 4.1 (soundness direction) end to end: set-type judgements derived
/// from interval traces give lower bounds below the exact lower-bound engine's
/// result at matching depth, which in turn is below the true probability.
#[test]
fn set_type_weights_chain_below_the_lower_bound_engine() {
    let b = catalog::geometric(Rational::from_ratio(1, 2));
    let judgement = derive_from_exploration(&b.term, 60);
    let weight = judgement.termination_lower_bound();
    assert!(weight > Rational::from_ratio(1, 2));
    assert!(weight <= Rational::one());
    let engine = probterm::core::intervalsem::lower_bound(
        &b.term,
        &probterm::core::intervalsem::LowerBoundConfig::default().with_depth(60),
    );
    assert!(weight <= engine.probability);
}

/// Hand-built set-type derivation for the fair coin: exact weight 1 and the
/// exact expected step count.
#[test]
fn manual_set_type_for_a_single_coin() {
    let term = parse_term("if sample <= 1/2 then 0 else 1").unwrap();
    let judgement = derive_set_type(
        &term,
        &[
            IntervalTrace::new(vec![Interval::from_ratios(0, 1, 1, 2)]),
            IntervalTrace::new(vec![Interval::from_ratios(3, 5, 1, 1)]),
        ],
    )
    .unwrap();
    assert_eq!(judgement.termination_lower_bound(), Rational::from_ratio(9, 10));
    assert!(
        judgement.expected_steps_lower_bound()
            >= Rational::from_ratio(9, 10) * Rational::from_int(2)
    );
}

/// Hooks only observe: profiling, and a stop hook that never fires, leave
/// every engine's result unchanged. Each hooked `try_` call is compared with
/// its plain call after blanking the fields that are observations by design
/// (the profile and the wall-clock time).
#[test]
fn hooks_only_observe() {
    let terms = [
        catalog::geometric(Rational::from_ratio(1, 2)),
        catalog::printer_nonaffine(Rational::from_ratio(1, 4)),
        catalog::triangle_example(),
    ];
    for b in &terms {
        let name = &b.name;

        let config = LowerBoundConfig::default().with_depth(40);
        let plain = lower_bound(&b.term, &config);
        let (mut hooked, _checkpoint) =
            try_lower_bound(&b.term, &config.clone().with_profile(true), None, &mut || false);
        assert!(hooked.profile.take().is_some(), "{name}: lower profile missing");
        hooked.elapsed = plain.elapsed;
        assert_eq!(hooked, plain, "{name}: lower");
        assert!(!hooked.interrupted, "{name}: lower");

        let plain = verify_ast(&b.term);
        let hooked = try_verify_ast(&b.term, true, &mut || false).map(|mut v| {
            assert!(v.profile.take().is_some(), "{name}: verify profile missing");
            v.elapsed = plain.as_ref().map_or(v.elapsed, |p| p.elapsed);
            v
        });
        assert_eq!(hooked, plain, "{name}: verify");

        let config =
            MonteCarloConfig { runs: 200, max_steps: 2_000, seed: 5, ..Default::default() };
        let plain = estimate_termination(&b.term, &config);
        let profiled = MonteCarloConfig { profile: true, ..config };
        let mut hooked = try_estimate_termination(&b.term, &profiled, &mut || false)
            .expect("a stop hook that never fires");
        assert!(hooked.profile.take().is_some(), "{name}: simulate profile missing");
        assert_eq!(hooked, plain, "{name}: simulate");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CbN and CbV evaluation of the (first-order, sample-free) arithmetic
    /// fragment agree and match direct rational evaluation.
    #[test]
    fn strategies_agree_on_deterministic_arithmetic(a in -20i64..20, b in -20i64..20, c in 1i64..20) {
        // Negative arguments must be parenthesised: `f -5` parses as the
        // subtraction `f - 5`, not an application.
        let src = format!("(lam x. lam y. (x + y) * {c} - min(x, y)) ({a}) ({b})");
        let term = parse_term(&src).unwrap();
        let mut t1 = FixedTrace::new(vec![]);
        let mut t2 = FixedTrace::new(vec![]);
        let r1 = run(Strategy::CallByName, &term, &mut t1, 10_000);
        let r2 = run(Strategy::CallByValue, &term, &mut t2, 10_000);
        let expected = Rational::from_int((a + b) * c - a.min(b));
        match (&r1.outcome, &r2.outcome) {
            (
                probterm::core::spcf::Outcome::Terminated(v1),
                probterm::core::spcf::Outcome::Terminated(v2),
            ) => {
                prop_assert_eq!(v1.as_num().unwrap(), &expected);
                prop_assert_eq!(v2.as_num().unwrap(), &expected);
            }
            other => prop_assert!(false, "unexpected outcomes {:?}", other),
        }
    }

    /// The geometric program terminates on every trace that eventually has a
    /// sample below p, and the returned numeral counts the failures.
    #[test]
    fn geometric_counts_failures(failures in 0usize..8) {
        let term = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let mut samples: Vec<(i64, i64)> = vec![(3, 4); failures];
        samples.push((1, 4));
        let trace = FixedTrace::from_ratios(&samples);
        let result = terminates_on_trace(Strategy::CallByName, &term, trace, 100_000).unwrap();
        match result.outcome {
            probterm::core::spcf::Outcome::Terminated(v) => {
                prop_assert_eq!(v.as_num().unwrap(), &Rational::from_int(failures as i64));
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// Interval-trace weights of disjoint dyadic splits certify the coin up
    /// to the single boundary cell.
    #[test]
    fn dyadic_splits_cover_the_coin(k in 1u32..6) {
        let term = parse_term("if sample <= 1/2 then 0 else 1").unwrap();
        let pieces = Interval::unit().split(1usize << k);
        let mut total = Rational::zero();
        for piece in pieces {
            let trace = IntervalTrace::new(vec![piece]);
            let outcome = run_interval(&term, &trace, 10_000);
            if outcome.is_terminated() {
                total = total + trace.weight();
            }
        }
        // Intervals are closed, so the cell whose lower endpoint *is* 1/2
        // still contains the then-branch trace r = 1/2 and stays undecided
        // (cf. Ex. B.4 and `iterm`'s boundary tests); every other cell is
        // decided. The certified weight is therefore exactly 1 − 2^−k, and
        // it converges to 1 as the split refines.
        prop_assert_eq!(total, Rational::one() - Rational::from_ratio(1, 1i64 << k));
    }
}
