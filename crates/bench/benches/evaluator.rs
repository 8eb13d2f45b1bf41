//! Criterion benchmark for the SPCF evaluators: the environment machine
//! (`run_machine`, the default behind `run`) against the substitution-based
//! reference stepper (`run_substitution`).
//!
//! Two workload shapes matter:
//!
//! * **Truncated divergent runs** (`gr` on an all-failing trace): the residual
//!   term grows linearly with the step count, so the reference stepper is
//!   quadratic in `max_steps` while the machine is linear. This is the shape
//!   that dominates Monte-Carlo estimation of non-AST terms.
//! * **Full Monte-Carlo estimation** (`gr`, 400 runs × 6000 steps — the
//!   budget the integration tests use): end-to-end effect on the statistical
//!   cross-checks.
//!
//! Run with `CRITERION_JSON=... cargo bench -p probterm-bench --bench
//! evaluator` to capture the numbers recorded in `BENCH_evaluator.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use probterm_spcf::{
    catalog, estimate_termination, run_machine, run_substitution, FixedTrace, MonteCarloConfig,
    Strategy,
};

/// An all-failing trace for `gr`: every sample is 0.9 > 1/2, so the term
/// keeps spawning recursive calls until the step budget runs out.
fn failing_trace(len: usize) -> FixedTrace {
    FixedTrace::from_ratios(&vec![(9, 10); len])
}

fn bench_truncated_divergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator_truncated_gr");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(2));
    let gr = catalog::golden_ratio().term;
    for max_steps in [500usize, 1_000, 2_000, 4_000] {
        group.bench_with_input(
            BenchmarkId::new("machine", max_steps),
            &max_steps,
            |b, &max_steps| {
                b.iter(|| {
                    let mut trace = failing_trace(max_steps);
                    run_machine(Strategy::CallByValue, &gr, &mut trace, max_steps)
                })
            },
        );
        // The reference stepper is quadratic here; keep its sizes in range.
        if max_steps <= 2_000 {
            group.bench_with_input(
                BenchmarkId::new("substitution", max_steps),
                &max_steps,
                |b, &max_steps| {
                    b.iter(|| {
                        let mut trace = failing_trace(max_steps);
                        run_substitution(Strategy::CallByValue, &gr, &mut trace, max_steps)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_terminating_geometric(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator_geometric_cbn");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(2));
    let geo = catalog::geometric(probterm_numerics::Rational::from_ratio(1, 2)).term;
    // 200 failures then success: a long but terminating CbN run.
    let mut ratios = vec![(9i64, 10i64); 200];
    ratios.push((1, 10));
    group.bench_function("machine", |b| {
        b.iter(|| {
            let mut trace = FixedTrace::from_ratios(&ratios);
            run_machine(Strategy::CallByName, &geo, &mut trace, 100_000)
        })
    });
    group.bench_function("substitution", |b| {
        b.iter(|| {
            let mut trace = FixedTrace::from_ratios(&ratios);
            run_substitution(Strategy::CallByName, &geo, &mut trace, 100_000)
        })
    });
    group.finish();
}

fn bench_monte_carlo_gr(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator_monte_carlo_gr");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(5));
    let gr = catalog::golden_ratio().term;
    // The integration-test budget that used to take ~15 minutes on the
    // substitution stepper; `estimate_termination` now runs on the machine.
    let config = MonteCarloConfig {
        runs: 400,
        max_steps: 6_000,
        seed: 13,
        strategy: Strategy::CallByValue,
        profile: false,
    };
    group.bench_function("estimate_400x6000", |b| {
        b.iter(|| {
            let estimate = estimate_termination(&gr, &config);
            assert!(estimate.terminated > 0);
            estimate
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_truncated_divergence,
    bench_terminating_geometric,
    bench_monte_carlo_gr
);
criterion_main!(benches);
