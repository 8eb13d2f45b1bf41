//! Asserts the evaluator's cost is linear — not quadratic — in `max_steps`.
//!
//! The `gr` term on an all-failing trace grows its pending-work term linearly
//! as it runs, which made the old substitution stepper quadratic in the step
//! budget. The environment machine must make doubling the budget cost about
//! double the time. Wall-clock assertions are noisy on a busy single-CPU box,
//! so each measurement takes the minimum of several repetitions and the
//! accepted ratio (< 3× per doubling, vs ~4× for quadratic growth) leaves
//! slack.

use probterm_spcf::{catalog, run_machine_summary, FixedTrace, Strategy, SummaryOutcome};
use std::time::{Duration, Instant};

fn time_truncated_run(max_steps: usize) -> Duration {
    let gr = catalog::golden_ratio().term;
    let ratios = vec![(9i64, 10i64); max_steps];
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let mut trace = FixedTrace::from_ratios(&ratios);
        let start = Instant::now();
        let run = run_machine_summary(Strategy::CallByValue, &gr, &mut trace, max_steps, None);
        let elapsed = start.elapsed();
        assert_eq!(run.outcome, SummaryOutcome::OutOfFuel);
        assert_eq!(run.steps, max_steps);
        best = best.min(elapsed);
    }
    best
}

#[test]
fn doubling_max_steps_scales_linearly_not_quadratically() {
    // Warm up allocators and caches.
    let _ = time_truncated_run(2_000);
    let base_steps = 20_000;
    let base = time_truncated_run(base_steps);
    let doubled = time_truncated_run(base_steps * 2);
    let ratio = doubled.as_secs_f64() / base.as_secs_f64().max(1e-9);
    // Quadratic growth would quadruple per doubling; 3.0 still separates
    // cleanly while tolerating scheduler noise on a loaded single-CPU box
    // (2.54 has been observed for the genuinely linear machine).
    assert!(
        ratio < 3.0,
        "doubling max_steps ({base_steps} -> {}) multiplied wall time by {ratio:.2} \
         ({base:?} -> {doubled:?}); evaluator cost is super-linear in the step budget",
        base_steps * 2
    );
}
