//! Micro-benchmarks of the substrates every analysis is built on: exact
//! rational arithmetic, exact polytope volumes (the §7.2 volume oracle),
//! random-walk decisions and matrix powers (§5.1), and branching-process
//! extinction probabilities. These quantify where the wall-clock time of the
//! table benchmarks goes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use probterm_numerics::{BigUint, Interval, Rational};
use probterm_polytope::Polytope;
use probterm_rwalk::{GeneratingFunction, CountingDistribution, StepDistribution, WalkMatrix};

fn bench_rational(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_rational_arithmetic");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("harmonic_sum_300_terms", |b| {
        b.iter(|| {
            let mut total = Rational::zero();
            for k in 1..=300i64 {
                total += Rational::from_ratio(1, k);
            }
            total
        })
    });
    // One sample is a batch of 1,000 operations on small operands (numerator
    // and denominator below 2^20); divide a reported time by 1,000 for the
    // cost of one operation.
    let small = small_rationals(1001);
    group.bench_function("small_mul_x1000", |b| {
        b.iter(|| {
            for pair in small.windows(2) {
                black_box(&pair[0] * &pair[1]);
            }
        })
    });
    group.bench_function("small_add_x1000", |b| {
        b.iter(|| {
            for pair in small.windows(2) {
                black_box(&pair[0] + &pair[1]);
            }
        })
    });
    group.bench_function("small_cmp_x1000", |b| {
        b.iter(|| {
            for pair in small.windows(2) {
                black_box(pair[0].cmp(&pair[1]));
            }
        })
    });
    // Two operands sharing a common factor, so the GCD does real work.
    for bits in [100u64, 256] {
        let shared = BigUint::from(0x9e37_79b9_7f4a_7c15u64);
        let a = &shared * &(BigUint::one().shl_bits(bits - 64) + BigUint::from(3u64));
        let b = &shared * &(BigUint::one().shl_bits(bits - 65) + BigUint::from(5u64));
        group.bench_function(format!("biguint_gcd_{bits}_bits"), |bench| {
            bench.iter(|| black_box(&a).gcd(black_box(&b)))
        });
    }
    let intervals: Vec<Interval> = small
        .windows(2)
        .take(101)
        .map(|pair| Interval::point(pair[0].clone()).hull(&Interval::point(pair[1].clone())))
        .collect();
    group.bench_function("interval_mul_x100", |b| {
        b.iter(|| {
            for pair in intervals.windows(2) {
                black_box(pair[0].mul(&pair[1]));
            }
        })
    });
    group.finish();
}

/// `n` deterministic pseudo-random signed rationals with numerator and
/// denominator below 2^20.
fn small_rationals(n: usize) -> Vec<Rational> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 44) as i64
    };
    (0..n)
        .map(|_| {
            let num = next() - (1 << 19);
            Rational::from_ratio(num, next() + 1)
        })
        .collect()
}

fn bench_polytope_volume(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_polytope_volume");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    for dimension in [2usize, 3, 4, 5] {
        group.bench_with_input(
            BenchmarkId::new("unit_simplex", dimension),
            &dimension,
            |b, &dimension| {
                b.iter(|| {
                    // {x ∈ [0,1]^d | Σ x_i ≤ 1} has volume 1/d!.
                    let mut polytope = Polytope::unit_cube(dimension);
                    polytope.add_constraint(vec![Rational::one(); dimension], Rational::one());
                    let volume = polytope.volume();
                    let factorial: i64 = (1..=dimension as i64).product();
                    assert_eq!(volume, Rational::from_ratio(1, factorial));
                    volume
                })
            },
        );
    }
    group.finish();
}

fn bench_random_walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_random_walks");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    let fair = StepDistribution::from_pairs([
        (-1, Rational::from_ratio(1, 2)),
        (1, Rational::from_ratio(1, 2)),
    ]);
    group.bench_function("theorem_5_4_decision", |b| {
        b.iter(|| {
            assert!(fair.is_ast());
            fair.ast_violations()
        })
    });
    group.bench_function("exact_matrix_power_200_steps", |b| {
        let walk = WalkMatrix::new(&fair, 48);
        b.iter(|| walk.absorption_within(1, 200))
    });
    group.bench_function("extinction_probability_gr", |b| {
        let gr = CountingDistribution::from_pairs([
            (0, Rational::from_ratio(1, 2)),
            (3, Rational::from_ratio(1, 2)),
        ]);
        let generating = GeneratingFunction::new(&gr);
        b.iter(|| generating.extinction_probability_f64(1e-12, 100_000))
    });
    group.finish();
}

criterion_group!(benches, bench_rational, bench_polytope_volume, bench_random_walks);
criterion_main!(benches);
