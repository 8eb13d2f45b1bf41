//! Monte-Carlo reference estimator for termination probabilities.
//!
//! The trace semantics interprets `Pterm(M)` as the measure of terminating
//! traces (Definition 2.1). This module estimates that measure by repeated
//! randomised evaluation. It is *not* part of the paper's contribution — the
//! whole point of §3 is that enumeration of runs cannot give sound lower
//! bounds — but it provides an invaluable statistical cross-check for the
//! exact analyses implemented in the other crates, and is used as such by the
//! integration tests and the benchmark harness.

use crate::ast::Term;
use crate::eval::Strategy;
use crate::machine::{run_machine_summary, SummaryOutcome};
use crate::trace::RandomSampler;
use probterm_telemetry::{EngineProfile, ProfileCell};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for a Monte-Carlo estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of independent runs.
    pub runs: usize,
    /// Step budget per run; runs exceeding it are counted as non-terminating.
    pub max_steps: usize,
    /// RNG seed (fixed for reproducibility).
    pub seed: u64,
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// When `true`, an aggregate machine profile (steps and event kinds
    /// summed over every run) is reported in [`MonteCarloEstimate::profile`].
    pub profile: bool,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            runs: 10_000,
            max_steps: 10_000,
            seed: 0xC0FFEE,
            strategy: Strategy::CallByName,
            profile: false,
        }
    }
}

/// The result of a Monte-Carlo estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloEstimate {
    /// Number of runs performed.
    pub runs: usize,
    /// Number of runs that terminated within the step budget.
    pub terminated: usize,
    /// Number of runs that got stuck (score failure, domain error, …).
    pub stuck: usize,
    /// Number of runs that exhausted the step budget.
    pub out_of_fuel: usize,
    /// Average number of small steps over terminating runs.
    pub mean_steps: f64,
    /// Average number of samples consumed over terminating runs.
    pub mean_samples: f64,
    /// Aggregate machine profile over every run, present iff
    /// [`MonteCarloConfig::profile`] was set.
    pub profile: Option<EngineProfile>,
}

impl MonteCarloEstimate {
    /// The estimated probability of termination.
    ///
    /// An estimate over zero runs carries no information; it reports `0.0`
    /// rather than `NaN`.
    pub fn probability(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.terminated as f64 / self.runs as f64
    }

    /// A half-width of the 99% confidence interval for the estimated
    /// probability, using the Wilson score interval.
    ///
    /// The Wilson interval stays meaningful at the boundary `p̂ ∈ {0, 1}`
    /// (where the naive normal approximation degenerates to width zero even
    /// after a handful of runs) — exactly the regime AST benchmarks live in.
    /// For zero runs the uncertainty is total and the half-width is `1.0`.
    pub fn confidence_99(&self) -> f64 {
        if self.runs == 0 {
            return 1.0;
        }
        let n = self.runs as f64;
        let p = self.probability();
        let z = 2.576f64; // 99% two-sided normal quantile
        let z2 = z * z;
        (z / (1.0 + z2 / n)) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt()
    }
}

/// Estimates the probability of termination of a closed term.
///
/// # Examples
///
/// ```
/// use probterm_spcf::{estimate_termination, parse_term, MonteCarloConfig};
///
/// let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
/// let config = MonteCarloConfig { runs: 500, ..Default::default() };
/// let estimate = estimate_termination(&geo, &config);
/// assert!(estimate.probability() > 0.95);
/// ```
pub fn estimate_termination(term: &Term, config: &MonteCarloConfig) -> MonteCarloEstimate {
    try_estimate_termination(term, config, &mut || false)
        .expect("a stop hook that never fires cannot interrupt")
}

/// Runs between stop-hook polls.
const POLL_EVERY: usize = 32;

/// Like [`estimate_termination`], with the stop hook: `stop()` is polled
/// before every 32nd run (runs 0, 32, 64, …) and, when it returns `true`,
/// the estimation aborts — the cooperative-interruption hook the analysis
/// service uses to enforce per-request deadlines between runs.
///
/// Run `i` always draws from `StdRng::seed_from_u64(seed + i)`, so an
/// uninterrupted call returns exactly what [`estimate_termination`] does.
///
/// # Errors
///
/// Returns the number of runs completed when `stop` fired, discarding the
/// partial tally.
pub fn try_estimate_termination(
    term: &Term,
    config: &MonteCarloConfig,
    stop: &mut dyn FnMut() -> bool,
) -> Result<MonteCarloEstimate, usize> {
    let profile = config.profile.then(ProfileCell::shared);
    let mut terminated = 0usize;
    let mut stuck = 0usize;
    let mut out_of_fuel = 0usize;
    let mut total_steps = 0usize;
    let mut total_samples = 0usize;
    for i in 0..config.runs {
        if i % POLL_EVERY == 0 && stop() {
            return Err(i);
        }
        let rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64));
        let mut sampler = RandomSampler::new(rng);
        // The summary entry point skips materialising result/residual terms
        // the estimator would discard (the dominant cost of truncated runs).
        let result = run_machine_summary(
            config.strategy,
            term,
            &mut sampler,
            config.max_steps,
            profile.as_ref(),
        );
        match result.outcome {
            SummaryOutcome::Terminated => {
                terminated += 1;
                total_steps += result.steps;
                total_samples += result.samples;
            }
            SummaryOutcome::Stuck(_) => stuck += 1,
            SummaryOutcome::OutOfFuel => out_of_fuel += 1,
        }
    }
    let denom = terminated.max(1) as f64;
    Ok(MonteCarloEstimate {
        runs: config.runs,
        terminated,
        stuck,
        out_of_fuel,
        mean_steps: total_steps as f64 / denom,
        mean_samples: total_samples as f64 / denom,
        profile: profile.map(|cell| cell.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;

    fn estimate(src: &str, strategy: Strategy) -> MonteCarloEstimate {
        let term = parse_term(src).unwrap();
        estimate_termination(
            &term,
            &MonteCarloConfig {
                // Terminating runs of these programs are orders of magnitude
                // shorter than 1 500 steps, so the estimates are unchanged
                // from the old 8 000-step budget while divergent runs (which
                // always burn the whole budget) cost 5× less.
                runs: 1_500,
                max_steps: 1_500,
                seed: 7,
                strategy,
                profile: false,
            },
        )
    }

    #[test]
    fn ast_terms_estimate_close_to_one() {
        let e = estimate(
            "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0",
            Strategy::CallByName,
        );
        assert!(e.probability() > 0.98, "estimate {e:?}");
        assert!(e.stuck == 0);
    }

    #[test]
    fn nonterminating_fraction_of_unfair_printer_matches_closed_form() {
        // Ex. 1.1 (2) with p = 1/4: Pterm = 1/3.
        let e = estimate(
            "(fix phi x. if sample <= 1/4 then x else phi (phi (x + 1))) 1",
            Strategy::CallByValue,
        );
        let p = e.probability();
        assert!((p - 1.0 / 3.0).abs() < 0.05, "estimate {p}");
    }

    #[test]
    fn golden_ratio_term_estimate() {
        // gr: Pterm = (√5 - 1)/2 ≈ 0.618.
        let e = estimate(
            "(fix phi x. if sample <= 1/2 then x else phi (phi (phi x))) 0",
            Strategy::CallByValue,
        );
        let expected = (5f64.sqrt() - 1.0) / 2.0;
        assert!((e.probability() - expected).abs() < 0.05, "estimate {e:?}");
    }

    #[test]
    fn diverging_term_estimates_zero() {
        let e = estimate("(fix phi x. phi x) 0", Strategy::CallByName);
        assert_eq!(e.terminated, 0);
        assert!(e.probability() < 1e-9);
        assert_eq!(e.out_of_fuel, e.runs);
    }

    #[test]
    fn zero_runs_yield_no_nan_and_total_uncertainty() {
        let term = parse_term("0").unwrap();
        let e = estimate_termination(
            &term,
            &MonteCarloConfig {
                runs: 0,
                max_steps: 10,
                seed: 1,
                strategy: Strategy::CallByName,
                profile: false,
            },
        );
        assert_eq!(e.probability(), 0.0);
        assert!(!e.probability().is_nan());
        assert_eq!(e.confidence_99(), 1.0);
    }

    #[test]
    fn wilson_interval_is_positive_at_the_boundary() {
        // Every run of a value terminates: p̂ = 1. The normal approximation
        // would report a zero-width interval; Wilson must not.
        let term = parse_term("1 + 1").unwrap();
        let e = estimate_termination(
            &term,
            &MonteCarloConfig {
                runs: 100,
                max_steps: 10,
                seed: 1,
                strategy: Strategy::CallByName,
                profile: false,
            },
        );
        assert_eq!(e.probability(), 1.0);
        let half_width = e.confidence_99();
        assert!(half_width > 0.0, "degenerate interval at p = 1");
        assert!(half_width < 0.1, "implausibly wide interval {half_width}");
        // More runs must tighten the interval.
        let tighter = estimate_termination(
            &term,
            &MonteCarloConfig {
                runs: 400,
                max_steps: 10,
                seed: 1,
                strategy: Strategy::CallByName,
                profile: false,
            },
        );
        assert!(tighter.confidence_99() < half_width);
    }

    #[test]
    fn confidence_interval_is_reasonable() {
        let e = estimate(
            "if sample <= 1/2 then 0 else (fix phi x. phi x) 0",
            Strategy::CallByName,
        );
        assert!((e.probability() - 0.5).abs() < 0.05);
        assert!(e.confidence_99() < 0.05);
    }
}
