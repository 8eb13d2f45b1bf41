//! Quickstart: parse an SPCF program, simulate it, compute a certified lower
//! bound on its termination probability, and try to prove it almost-surely
//! terminating.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use probterm::core::{analyze, AnalysisConfig};
use probterm::spcf::{parse_term, run, FixedTrace, Strategy};

fn main() {
    // Example 1.1 (2) from the paper: the 3D-printing company that prints an
    // additional copy each day a print fails. With success probability 1/2 the
    // program is almost-surely terminating (but only barely: p < 1/2 is not).
    let source = "(fix phi x. if sample <= 0.5 then x else phi (phi (x + 1))) 1";
    let program = parse_term(source).expect("the quickstart program parses");
    println!("program        : {program}");

    // 1. Deterministic evaluation on an explicit trace (the sampling-style
    //    semantics of §2.3): the first print fails, the two reprints succeed.
    let mut trace = FixedTrace::from_ratios(&[(3, 4), (1, 4), (1, 3)]);
    let run_result = run(Strategy::CallByValue, &program, &mut trace, 10_000);
    println!("one run        : {:?} after {} steps", run_result.outcome, run_result.steps);

    // 2. The combined analysis: interval-semantics lower bound (§3), AST
    //    verification (§5–6) and a Monte-Carlo cross-check.
    let report = analyze(
        &program,
        &AnalysisConfig {
            lower_bound_depth: 90,
            monte_carlo_runs: 2_000,
            monte_carlo_steps: 10_000,
            seed: 2021,
            ..Default::default()
        },
    )
    .expect("the printer program is simply typed");
    println!("{report}");

    assert_eq!(report.ast_verified, Some(true), "the fair printer is AST");
    println!("=> the unreliable printing company does finish every job, almost surely.");
}
