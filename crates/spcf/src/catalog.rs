//! The benchmark-term catalogue.
//!
//! Every SPCF term used in the paper's evaluation (§7, Tables 1 and 2) plus
//! the worked examples from §1.1, §3 and §5 is defined here once, so that the
//! lower-bound engine, the AST verifier, the examples, the tests and the
//! benchmark harness all agree on the programs being analysed.

use crate::ast::Term;
use crate::parser::parse_term;
use probterm_numerics::Rational;

/// A named benchmark program together with reference information.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short name used in tables (e.g. `geo(1/2)`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The program itself.
    pub term: Term,
    /// The true probability of termination, when known in closed form.
    pub expected_pterm: Option<f64>,
    /// Whether the program is almost-surely terminating (when known).
    pub expected_ast: Option<bool>,
}

fn parse(name: &str, src: &str) -> Term {
    parse_term(src).unwrap_or_else(|e| panic!("catalogue term `{name}` failed to parse: {e}"))
}

fn rational_str(p: &Rational) -> String {
    p.to_string()
}

/// The geometric program `geo_p` (paper Table 1): repeatedly retry until a
/// sample falls below `p`, counting the attempts.
pub fn geometric(p: Rational) -> Benchmark {
    let src = format!(
        "(fix phi x. if sample <= {} then x else phi (x + 1)) 0",
        rational_str(&p)
    );
    Benchmark {
        name: format!("geo({})", p),
        description: "geometric distribution: retry until a uniform sample falls below p".into(),
        term: parse("geo", &src),
        expected_pterm: if p.is_positive() { Some(1.0) } else { Some(0.0) },
        expected_ast: Some(p.is_positive()),
    }
}

/// The biased one-dimensional random walk `1dRW_{p,s}` (paper Table 1, after
/// [McIver et al. 2018]): from position `x > 0`, step down with probability `p`
/// and up with probability `1 - p`; terminate at `0`.
pub fn random_walk_1d(p: Rational, start: i64) -> Benchmark {
    let src = format!(
        "(fix phi x. if x <= 0 then x else flip({}, phi (x - 1), phi (x + 1))) {}",
        rational_str(&p),
        start
    );
    let ast = p >= Rational::from_ratio(1, 2);
    Benchmark {
        name: format!("1dRW({},{})", p, start),
        description: "biased random walk on the naturals, absorbed at zero".into(),
        term: parse("1dRW", &src),
        expected_pterm: if ast { Some(1.0) } else { None },
        expected_ast: Some(ast),
    }
}

/// The golden-ratio program `gr` (paper Table 1, after [Olmedo et al. 2016]):
/// terminates with probability `(√5 − 1)/2`.
pub fn golden_ratio() -> Benchmark {
    let src = "(fix phi x. if sample <= 1/2 then x else phi (phi (phi x))) 0";
    Benchmark {
        name: "gr".into(),
        description: "three recursive calls with probability 1/2; Pterm is the inverse golden ratio"
            .into(),
        term: parse("gr", src),
        expected_pterm: Some((5f64.sqrt() - 1.0) / 2.0),
        expected_ast: Some(false),
    }
}

/// Paper Example 1.1, program (1): the affine 3D-printer model. AST for every
/// `p > 0`.
pub fn printer_affine(p: Rational) -> Benchmark {
    let src = format!(
        "(fix phi x. if sample <= {} then x else phi (x + 1)) 1",
        rational_str(&p)
    );
    Benchmark {
        name: format!("Ex1.1(1) p={}", p),
        description: "unreliable 3D printer, one reprint per failure (affine recursion)".into(),
        term: parse("printer_affine", &src),
        expected_pterm: if p.is_positive() { Some(1.0) } else { Some(0.0) },
        expected_ast: Some(p.is_positive()),
    }
}

/// Paper Example 1.1, program (2): the non-affine printer that prints an
/// additional copy on every failure. AST iff `p ≥ 1/2`; for `p < 1/2` the
/// termination probability is `p / (1 - p)`.
pub fn printer_nonaffine(p: Rational) -> Benchmark {
    let src = format!(
        "(fix phi x. if sample <= {} then x else phi (phi (x + 1))) 1",
        rational_str(&p)
    );
    let ast = p >= Rational::from_ratio(1, 2);
    let pterm = if ast {
        1.0
    } else {
        let pf = p.to_f64();
        pf / (1.0 - pf)
    };
    Benchmark {
        name: format!("Ex1.1(2) p={}", p),
        description: "unreliable 3D printer with an extra copy per failure (two call sites)".into(),
        term: parse("printer_nonaffine", &src),
        expected_pterm: Some(pterm),
        expected_ast: Some(ast),
    }
}

/// The `3print_p` program (paper Table 1/2): three recursive call sites per
/// failure. AST iff the fixpoint of `q = p + (1-p) q³` at 1 is reached, i.e.
/// iff `p ≥ 2/3`... more precisely AST iff `(1-p)·3 ≤ 1` fails in general; the
/// exact criterion from the random-walk reduction is `3(1-p) ≤ 1 + 2p`, i.e.
/// the mean of the shifted counting distribution is non-positive: `p ≥ 1/2`
/// does *not* suffice — the threshold is `p ≥ 2/3` by Thm. 5.4
/// (`E[shift] = 3(1-p) - 1 ≤ 0 ⟺ p ≥ 2/3`).
pub fn three_print(p: Rational) -> Benchmark {
    let src = format!(
        "(fix phi x. if sample <= {} then x else phi (phi (phi (x + 1)))) 1",
        rational_str(&p)
    );
    let ast = p >= Rational::from_ratio(2, 3);
    let pterm = if ast {
        Some(1.0)
    } else {
        // Pterm is the least fixpoint of q = p + (1-p) q³ in [0, 1].
        let pf = p.to_f64();
        let mut q = 0.0f64;
        for _ in 0..10_000 {
            q = pf + (1.0 - pf) * q * q * q;
        }
        Some(q)
    };
    Benchmark {
        name: format!("3print({})", p),
        description: "printer variant spawning three reprints per failure (three call sites)".into(),
        term: parse("three_print", &src),
        expected_pterm: pterm,
        expected_ast: Some(ast),
    }
}

/// The one-directional random walk `bin_{p,s}` (paper Table 1): from `x > 0`
/// move down with probability `p`, otherwise stay. AST for every `p > 0`.
pub fn one_directional_walk(p: Rational, start: i64) -> Benchmark {
    let src = format!(
        "(fix phi x. if x <= 0 then 0 else flip({}, phi (x - 1), phi x)) {}",
        rational_str(&p),
        start
    );
    Benchmark {
        name: format!("bin({},{})", p, start),
        description: "one-directional random walk: step down with probability p, else stay".into(),
        term: parse("bin", &src),
        expected_pterm: Some(if p.is_positive() { 1.0 } else { 0.0 }),
        expected_ast: Some(p.is_positive()),
    }
}

/// A pedestrian model inspired by [Mak et al. 2021] (paper Table 1): a
/// pedestrian is lost a uniformly random distance from home and repeatedly
/// walks a uniformly random step towards or away from it, accumulating the
/// distance walked; the program returns the total distance.
pub fn pedestrian() -> Benchmark {
    let src = "(fix phi x. lam d. \
                   if x <= 0 then d \
                   else flip(1/2, phi (x - sample) (d + 1), phi (x + sample) (d + 1))) \
               (3 * sample) 0";
    Benchmark {
        name: "pedestrian".into(),
        description: "random-walking pedestrian accumulating distance until reaching home".into(),
        term: parse("pedestrian", src),
        expected_pterm: Some(1.0),
        expected_ast: Some(true),
    }
}

/// Paper Example 3.5: terminates iff the sum of two samples is at most one —
/// a terminating-trace set that is *not* a countable union of boxes, yet the
/// interval semantics is complete for it.
pub fn triangle_example() -> Benchmark {
    let src = "(fix phi x. if sample + sample - 1 then x else phi x) 0";
    Benchmark {
        name: "Ex3.5".into(),
        description: "terminating traces form the triangle r1 + r2 <= 1 (completeness witness)"
            .into(),
        term: parse("triangle", src),
        expected_pterm: Some(1.0),
        expected_ast: Some(true),
    }
}

/// Paper Example 5.1: the tired-operator printer, where the probability of
/// printing three copies instead of two grows (via the sigmoid) with the day
/// count. AST for `p ≥ 3/5` by Thm. 5.9 / Lem. 5.10.
pub fn tired_printer(p: Rational) -> Benchmark {
    let src = format!(
        "(fix phi x. flip({p}, x, \
             flip(sig(x), \
                  flip(1/2, phi (phi (phi (x + 1))), phi (phi (x + 1))), \
                  phi (phi (x + 1))))) 1",
        p = rational_str(&p)
    );
    Benchmark {
        name: format!("Ex5.1 p={}", p),
        description: "printer with argument-dependent (sigmoid) mistake probability".into(),
        term: parse("tired_printer", &src),
        expected_pterm: if p >= Rational::from_ratio(3, 5) { Some(1.0) } else { None },
        expected_ast: if p >= Rational::from_ratio(3, 5) { Some(true) } else { None },
    }
}

/// Paper Example 5.15: the printer variant that *reuses the sampled error
/// value* both in the acceptance test and as the probability of the second
/// branching. AST for `p ≥ √7 − 2 ≈ 0.6458`.
pub fn error_reuse_printer(p: Rational) -> Benchmark {
    let src = format!(
        "(fix phi x. let e = sample in \
            if e <= {p} then x \
            else (if sample <= sig(x) \
                  then (if sample <= e \
                        then phi (phi (phi (x + 1))) \
                        else phi (phi (x + 1))) \
                  else phi (phi (x + 1)))) 1",
        p = rational_str(&p)
    );
    let threshold = 7f64.sqrt() - 2.0;
    let pf = p.to_f64();
    Benchmark {
        name: format!("Ex5.15 p={}", p),
        description: "printer reusing a continuous sample as a first-class branching probability"
            .into(),
        term: parse("error_reuse_printer", &src),
        expected_pterm: if pf >= threshold + 1e-9 { Some(1.0) } else { None },
        expected_ast: if pf >= threshold + 1e-9 { Some(true) } else { None },
    }
}

/// All rows of the paper's Table 1 (lower-bound computation benchmarks).
pub fn table1_benchmarks() -> Vec<Benchmark> {
    vec![
        geometric(Rational::from_ratio(1, 2)),
        geometric(Rational::from_ratio(1, 5)),
        random_walk_1d(Rational::from_ratio(1, 2), 1),
        random_walk_1d(Rational::from_ratio(7, 10), 1),
        golden_ratio(),
        printer_nonaffine(Rational::from_ratio(1, 2)),
        printer_nonaffine(Rational::from_ratio(1, 4)),
        three_print(Rational::from_ratio(3, 4)),
        one_directional_walk(Rational::from_ratio(1, 2), 2),
        pedestrian(),
    ]
}

/// All rows of the paper's Table 2 (AST-verification benchmarks).
pub fn table2_benchmarks() -> Vec<Benchmark> {
    vec![
        printer_affine(Rational::from_ratio(1, 2)),
        printer_nonaffine(Rational::from_ratio(1, 2)),
        three_print(Rational::from_ratio(2, 3)),
        tired_printer(Rational::parse("0.6").unwrap()),
        error_reuse_printer(Rational::parse("0.65").unwrap()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Strategy;
    use crate::montecarlo::{estimate_termination, MonteCarloConfig};
    use crate::types::{infer_type, SimpleType};

    #[test]
    fn all_catalogue_terms_are_closed_and_typed() {
        let mut all = table1_benchmarks();
        all.extend(table2_benchmarks());
        all.push(triangle_example());
        for b in &all {
            assert!(b.term.is_closed(), "{} is not closed", b.name);
            let ty = infer_type(&b.term)
                .unwrap_or_else(|e| panic!("{} is ill-typed: {e}", b.name));
            assert_eq!(ty, SimpleType::Real, "{} has type {}", b.name, ty);
        }
    }

    #[test]
    fn table_sizes_match_the_paper() {
        assert_eq!(table1_benchmarks().len(), 10);
        assert_eq!(table2_benchmarks().len(), 5);
    }

    #[test]
    fn monte_carlo_agrees_with_expected_probabilities() {
        // Spot-check a few closed-form termination probabilities (cheap runs).
        let config = MonteCarloConfig {
            runs: 1_200,
            // Estimates are unchanged down from 8 000 steps; divergent runs
            // dominate the cost and always burn the whole budget.
            max_steps: 1_500,
            seed: 99,
            strategy: Strategy::CallByValue,
            profile: false,
        };
        for b in [
            printer_nonaffine(Rational::from_ratio(1, 4)),
            golden_ratio(),
            geometric(Rational::from_ratio(1, 5)),
            three_print(Rational::from_ratio(1, 2)),
        ] {
            let expected = b.expected_pterm.unwrap();
            let estimate = estimate_termination(&b.term, &config).probability();
            assert!(
                (estimate - expected).abs() < 0.06,
                "{}: expected {expected}, estimated {estimate}",
                b.name
            );
        }
    }

    #[test]
    fn pedestrian_and_walks_terminate_in_simulation() {
        let config = MonteCarloConfig {
            runs: 200,
            // The pedestrian's fair continuous walk has a heavy hitting-time
            // tail (P[T > n] ~ n^{-1/2}), so this budget cannot drop to the
            // ~1 500 the other suites use without biasing the estimate; at
            // 20 000 steps the truncated mass is ≈2% against a 0.9 threshold.
            max_steps: 20_000,
            seed: 3,
            strategy: Strategy::CallByValue,
            profile: false,
        };
        for b in [
            pedestrian(),
            random_walk_1d(Rational::from_ratio(7, 10), 1),
            one_directional_walk(Rational::from_ratio(1, 2), 2),
        ] {
            let estimate = estimate_termination(&b.term, &config);
            assert!(
                estimate.probability() > 0.9,
                "{} estimated only {}",
                b.name,
                estimate.probability()
            );
        }
    }
}
