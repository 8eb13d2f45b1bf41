//! Cross-crate integration tests: the worked examples of the paper.
//!
//! Each test reproduces a concrete claim made in the paper (§1.1, §3, §5, §6)
//! end to end, exercising the parser, the reference semantics, the interval
//! lower-bound engine, the counting analysis and the AST verifier together.

use probterm::core::astver::verify_ast;
use probterm::core::counting::{check_guard_independence, recursive_rank_bound};
use probterm::core::intervalsem::{lower_bound, LowerBoundConfig};
use probterm::core::rwalk::epsilon_ra_implies_ast;
use probterm::core::spcf::{catalog, parse_term, Term};
use probterm::numerics::Rational;

fn r(n: i64, d: i64) -> Rational {
    Rational::from_ratio(n, d)
}

/// Example 1.1: program (1) is AST for every p > 0; program (2) is AST iff p ≥ 1/2.
#[test]
fn example_1_1_thresholds() {
    for p in ["0.5", "0.25", "0.05"] {
        let affine = catalog::printer_affine(Rational::parse(p).unwrap());
        assert!(
            verify_ast(&affine.term).unwrap().verified_ast,
            "affine printer p = {p} must be AST"
        );
    }
    for (p, expected) in [("0.5", true), ("0.75", true), ("0.49", false), ("0.25", false)] {
        let nonaffine = catalog::printer_nonaffine(Rational::parse(p).unwrap());
        assert_eq!(
            verify_ast(&nonaffine.term).unwrap().verified_ast,
            expected,
            "non-affine printer p = {p}"
        );
    }
}

/// Example 1.1 (2) with p = 1/4: the termination probability is p/(1-p) = 1/3.
/// The lower bounds converge to it from below and never cross it.
#[test]
fn example_1_1_quarter_lower_bounds_converge_to_one_third() {
    let b = catalog::printer_nonaffine(r(1, 4));
    let shallow = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(40));
    let deep = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(70));
    assert!(shallow.probability <= deep.probability);
    assert!(deep.probability < r(1, 3));
    assert!(deep.probability > r(31, 100));
}

/// Example 3.5: the triangle program is AST and its terminating traces cannot
/// be written as a countable union of boxes — yet interval traces approximate
/// its termination probability arbitrarily well.
#[test]
fn example_3_5_triangle_completeness() {
    let b = catalog::triangle_example();
    let shallow = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(40));
    let deep = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(90));
    // The first path alone already certifies 1/2.
    assert!(shallow.probability >= r(1, 2));
    // Deeper exploration strictly improves the bound towards 1.
    assert!(deep.probability > shallow.probability);
    assert!(deep.probability > r(4, 5));
    assert!(deep.probability < Rational::one());
}

/// Example 5.8 / 5.11: the counting pattern of Ex. 5.1 and its AST threshold 3/5.
#[test]
fn example_5_11_tired_printer_threshold() {
    let ok = catalog::tired_printer(Rational::parse("0.6").unwrap());
    let v = verify_ast(&ok.term).unwrap();
    assert!(v.verified_ast);
    assert_eq!(v.papprox.probability(0), Rational::parse("0.6").unwrap());
    assert_eq!(v.papprox.probability(2), r(1, 5));
    assert_eq!(v.papprox.probability(3), r(1, 5));
    let below = catalog::tired_printer(Rational::parse("0.55").unwrap());
    assert!(!verify_ast(&below.term).unwrap().verified_ast);
}

/// Example 5.14: Corollary 5.13 applies to Ex. 1.1 (2) exactly when p ≥ 1/2,
/// and for Ex. 5.1 only from p ≥ 2/3 (it is strictly weaker than Thm. 5.9).
#[test]
fn example_5_14_corollary_vs_theorem() {
    let two_sites = catalog::printer_nonaffine(r(1, 2));
    let Term::App(fix, _) = &two_sites.term else { panic!() };
    let rank = recursive_rank_bound(fix).unwrap();
    assert_eq!(rank, 2);
    assert!(epsilon_ra_implies_ast(rank, &r(1, 2)));
    // Ex. 5.1 at p = 0.6: the corollary needs 3(1-ε) ≤ 1, i.e. ε ≥ 2/3 — not applicable,
    // while the full verifier (Thm. 5.9) succeeds.
    let tired = catalog::tired_printer(Rational::parse("0.6").unwrap());
    let v = verify_ast(&tired.term).unwrap();
    assert!(v.verified_ast);
    assert!(!v.verified_by_corollary_5_13);
    assert!(!epsilon_ra_implies_ast(3, &Rational::parse("0.6").unwrap()));
}

/// Example 5.15: AST holds exactly from the threshold √7 − 2, and the verifier
/// computes the P_approx reported in Table 2 for p = 0.65.
#[test]
fn example_5_15_error_reuse_threshold() {
    let ok = catalog::error_reuse_printer(Rational::parse("0.65").unwrap());
    let v = verify_ast(&ok.term).unwrap();
    assert!(v.verified_ast);
    assert_eq!(v.papprox.probability(2), Rational::parse("0.06125").unwrap());
    assert_eq!(v.papprox.probability(3), Rational::parse("0.28875").unwrap());
    let below = catalog::error_reuse_printer(Rational::parse("0.645").unwrap());
    assert!(!verify_ast(&below.term).unwrap().verified_ast);
}

/// The guard-independence (progress) type system accepts every Table 2 program
/// and rejects programs that branch on recursive outcomes.
#[test]
fn guard_independence_across_the_catalogue() {
    for b in catalog::table2_benchmarks() {
        let Term::App(fix, _) = b.term.clone() else { panic!() };
        assert!(check_guard_independence(&fix).is_ok(), "{}", b.name);
    }
    let bad = parse_term("fix phi x. if phi x <= 0 then 0 else phi (x + 1)").unwrap();
    assert!(check_guard_independence(&bad).is_err());
}

/// Soundness sanity check across the whole Table 1 catalogue: the exact lower
/// bound never exceeds the known termination probability, and the Monte-Carlo
/// estimate is consistent with both.
///
/// Run counts are tuned per benchmark now that machine runs are cheap:
/// thin-tailed programs (geometric retries, biased/subcritical recursion)
/// get 4× the runs of the old 400×6000 budget at a trimmed step budget —
/// tighter statistical slack at roughly equal wall-clock — while the three
/// heavy-tailed ones (the fair continuous walks and the critical printer,
/// whose hitting times have polynomial tails) keep the full step budget so
/// truncation bias stays small.
#[test]
fn table1_lower_bounds_are_sound_and_consistent_with_simulation() {
    use probterm::core::spcf::{estimate_termination, MonteCarloConfig, Strategy};
    let heavy_tailed = ["pedestrian", "1dRW(1/2,1)", "Ex1.1(2) p=1/2"];
    for b in catalog::table1_benchmarks() {
        let depth = if b.name == "pedestrian" { 25 } else { 40 };
        let result = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(depth));
        if let Some(p) = b.expected_pterm {
            assert!(
                result.probability.to_f64() <= p + 1e-9,
                "{}: lower bound {} exceeds Pterm {}",
                b.name,
                result.probability.to_f64(),
                p
            );
        }
        let (runs, max_steps, slack) = if heavy_tailed.contains(&b.name.as_str()) {
            (600, 6_000, 0.12)
        } else {
            (1_600, 2_500, 0.07)
        };
        let estimate = estimate_termination(
            &b.term,
            &MonteCarloConfig {
                runs,
                max_steps,
                seed: 13,
                strategy: Strategy::CallByName,
                profile: false,
            },
        );
        // The Monte-Carlo estimate can only undershoot the truth by truncation,
        // so the exact lower bound must not exceed it by more than noise.
        assert!(
            result.probability.to_f64() <= estimate.probability() + slack,
            "{}: lower bound {} vs estimate {} ({} runs)",
            b.name,
            result.probability.to_f64(),
            estimate.probability(),
            runs
        );
    }
}

/// The verifier's P_approx is always ⊑-below the empirical counting pattern
/// (Theorem 6.2), checked on the three-call-site printer.
#[test]
fn papprox_lower_bounds_the_counting_pattern() {
    use probterm::core::counting::empirical_counting_pattern;
    let b = catalog::three_print(r(2, 3));
    let v = verify_ast(&b.term).unwrap();
    let Term::App(fix, _) = &b.term else { panic!() };
    // 12 000 one-shot body samples (up from 5 000 — machine runs are cheap)
    // support halving the statistical slack on the cumulative weights.
    let empirical = empirical_counting_pattern(fix, &Rational::from_int(1), 12_000, 3)
        .unwrap()
        .to_distribution();
    let slack = r(1, 40);
    for n in 0..=3u64 {
        assert!(
            v.papprox.cumulative(n) <= empirical.cumulative(n) + &slack,
            "cumulative at {n}: {} vs {}",
            v.papprox.cumulative(n),
            empirical.cumulative(n)
        );
    }
}
