//! The lower-bound engine (paper §3 and §7.1).
//!
//! The engine combines
//!
//! 1. bounded stochastic symbolic execution ([`crate::symbolic`], running on
//!    the shared environment machine), which enumerates the (countably many)
//!    branching behaviours `κ ∈ {L,R}*` and the associated path constraints,
//!    with
//! 2. exact polytope volumes for affine path constraints and an adaptive
//!    box-splitting sweep (interval arithmetic) for the rest,
//!
//! to produce sound, monotonically improving lower bounds on the probability
//! of termination `Pterm(M)` and — via the step counts of each path — on the
//! expected number of reduction steps of terminating runs, exactly as
//! justified by soundness of the interval semantics (Theorem 3.4) and made
//! effective by its completeness (Theorem 3.8).
//!
//! Because every terminating symbolic path contributes *independently* sound
//! mass, the engine is an **anytime algorithm**: [`try_lower_bound`] can be
//! cancelled mid-exploration (the analysis service does so on `deadline_ms`)
//! and the bound computed so far is still valid — merely smaller than what a
//! completed run would certify.
//!
//! The engine has two entry points: [`lower_bound`], and [`try_lower_bound`],
//! which carries every hook — a resume checkpoint and a stop hook
//! `&mut dyn FnMut() -> bool` (`true` means stop); profiling and live
//! progress ride in [`LowerBoundConfig`]. [`crate::explain`] runs on the same
//! private core.

use crate::symbolic::{
    frontier_seeds, try_explore_seeded_progress, Exploration, ExplorationConfig, ReplaySeed,
};
use probterm_numerics::Rational;
use probterm_spcf::Term;
use probterm_telemetry::{EngineProfile, ProgressCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the volume contribution of one terminated symbolic path was computed.
///
/// Recorded per path by the engine and surfaced verbatim in
/// the provenance artifact ([`crate::provenance`]), so a reported bound can be
/// audited path by path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeMethod {
    /// Exact polytope volume — the constraint system is affine.
    Exact,
    /// Adaptive box-splitting sweep with the given box budget: a sound lower
    /// bound on the region's volume, generally below the true volume.
    /// An interrupted sweep reports its sound partial sum here too.
    BoxSweep {
        /// The box budget the sweep ran with.
        max_boxes: usize,
    },
}

/// The volume contribution of one terminated path, aligned index-for-index
/// with `Exploration::terminated`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PathMeasure {
    /// The (sound lower bound on the) volume of the path region.
    pub volume: Rational,
    /// How `volume` was obtained.
    pub method: VolumeMethod,
}

/// Configuration of the lower-bound computation.
///
/// All defaults live here; the CLI, the analysis service and the benchmark
/// harness derive their configurations through the `with_*` builders.
#[derive(Debug, Clone)]
pub struct LowerBoundConfig {
    /// Exploration depth: the maximum number of small steps per symbolic path
    /// (the column `d` of Table 1).
    pub depth: usize,
    /// Maximum number of symbolic paths to process.
    pub max_paths: usize,
    /// Budget (number of boxes) for the splitting sweep on non-linear paths.
    pub boxes_per_path: usize,
    /// When `true`, the underlying exploration attaches a machine profile,
    /// reported in [`LowerBoundResult::profile`].
    pub profile: bool,
    /// Live-progress cell the engine publishes into at its stop-hook
    /// poll points (steps, frontier, depth) and on every path termination
    /// (path count, monotone bound). `None` — the default — costs one
    /// `Option` check at each poll point, guarded by the telemetry overhead
    /// test.
    pub progress: Option<Arc<ProgressCell>>,
}

impl Default for LowerBoundConfig {
    fn default() -> Self {
        LowerBoundConfig {
            depth: 200,
            max_paths: 50_000,
            boxes_per_path: 2_000,
            profile: false,
            progress: None,
        }
    }
}

/// Equality compares the *analysis* parameters; the progress handle is an
/// observer, not part of the configured analysis (two configs differing only
/// in where they publish progress compute identical results).
impl PartialEq for LowerBoundConfig {
    fn eq(&self, other: &Self) -> bool {
        self.depth == other.depth
            && self.max_paths == other.max_paths
            && self.boxes_per_path == other.boxes_per_path
            && self.profile == other.profile
    }
}

impl Eq for LowerBoundConfig {}

impl LowerBoundConfig {
    /// Builder: sets the exploration depth.
    #[must_use]
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Builder: sets the symbolic-path budget.
    #[must_use]
    pub fn with_max_paths(mut self, max_paths: usize) -> Self {
        self.max_paths = max_paths;
        self
    }

    /// Builder: enables or disables machine profiling.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Builder: attaches a live-progress cell. The engine publishes
    /// steps/frontier/depth at its stop-hook poll points and the
    /// monotone bound-so-far the instant each path's volume lands, so
    /// concurrent observers (the analysis service's `inspect` op, streamed
    /// progress frames) see a consistent, never-regressing view mid-run.
    #[must_use]
    pub fn with_progress(mut self, progress: Arc<ProgressCell>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// The exploration configuration this lower-bound configuration induces.
    pub fn exploration(&self) -> ExplorationConfig {
        ExplorationConfig::default()
            .with_max_steps_per_path(self.depth)
            .with_max_paths(self.max_paths)
            .with_profile(self.profile)
    }
}

/// The result of a lower-bound computation.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundResult {
    /// A sound lower bound on the probability of termination.
    pub probability: Rational,
    /// A sound lower bound on `Σ_{terminating traces} weight · steps`, i.e. on
    /// the expected number of reduction steps restricted to terminating runs
    /// (equals a lower bound on `Eterm` for AST programs, Thm. 3.4).
    pub expected_steps: Rational,
    /// Number of terminating symbolic paths found.
    pub paths: usize,
    /// Number of paths abandoned because the step budget ran out (or the
    /// computation was interrupted).
    pub unexplored_paths: usize,
    /// Number of stuck paths (score failures, domain errors).
    pub stuck_paths: usize,
    /// `true` when the computation was cancelled by the stop hook of
    /// [`try_lower_bound`] before it finished. The bounds are still sound —
    /// partial explorations only lose mass (Thm. 3.4).
    pub interrupted: bool,
    /// Monotonic elapsed time of the computation (measured on
    /// `std::time::Instant`).
    pub elapsed: Duration,
    /// Machine profile of the symbolic exploration, present iff
    /// [`LowerBoundConfig::profile`] was set.
    pub profile: Option<EngineProfile>,
}

impl LowerBoundResult {
    /// The lower bound rendered with `digits` decimal digits (truncated), the
    /// format used by Table 1.
    pub fn probability_decimal(&self, digits: usize) -> String {
        self.probability.to_decimal_string(digits)
    }
}

/// Computes a lower bound on the termination probability of a closed SPCF
/// term under call-by-name evaluation.
///
/// # Examples
///
/// ```
/// use probterm_intervalsem::{lower_bound, LowerBoundConfig};
/// use probterm_numerics::Rational;
/// use probterm_spcf::parse_term;
///
/// let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
/// let result = lower_bound(&geo, &LowerBoundConfig::default().with_depth(120));
/// assert!(result.probability > Rational::from_ratio(99, 100));
/// assert!(result.probability < Rational::one());
/// ```
pub fn lower_bound(term: &Term, config: &LowerBoundConfig) -> LowerBoundResult {
    run_accumulated(term, config, None, &mut || false).0
}

/// A paused lower-bound computation, complete enough to *resume*: the mass
/// accumulated so far (exact rationals) plus the replayable frontier — one
/// [`ReplaySeed`] per unexplored subtree. A resumed run explores exactly
/// those subtrees and adds its mass to the checkpointed tallies, so chaining
/// runs reproduces a from-scratch run at the combined budget with
/// exact-rational equality (the terminated paths partition identically), and
/// no measured path is ever re-explored.
///
/// The rationals and seeds round-trip through strings
/// ([`Rational`]'s `Display`/`parse`, [`ReplaySeed::render`]/`parse`), which
/// is how the analysis service stores checkpoints in partial-result cache
/// entries.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundCheckpoint {
    /// Termination mass accumulated across all runs so far.
    pub probability: Rational,
    /// Expected-steps mass accumulated across all runs so far.
    pub expected_steps: Rational,
    /// Terminated (and measured) paths across all runs so far.
    pub paths: usize,
    /// Stuck paths across all runs so far.
    pub stuck_paths: usize,
    /// The unexplored frontier: replay seeds for every paused subtree. Empty
    /// iff the exploration ran to completion (nothing left to resume).
    pub frontier: Vec<ReplaySeed>,
}

/// Like [`lower_bound`], with every hook: `resume` and `stop`.
///
/// `stop()` is polled inside the symbolic exploration (once per path and
/// every 256 machine steps) and every 64 boxes of a box sweep. When it
/// returns `true` the result carries `interrupted: true` together with the
/// **sound partial bound** accumulated so far: every terminating path found
/// before the interruption certifies its probability mass (Thm. 3.4), so a
/// deadline-bounded caller still gets a nonzero monotone lower bound instead
/// of nothing. Volumes are measured *incrementally, inside the exploration
/// loop*, the instant each path terminates — there is no deadline-blind
/// post-hoc measurement phase, and even the non-affine box sweep is
/// interruptible mid-flight (its partial sum stays counted). The bound
/// therefore tightens monotonically in real time and the engine can stop
/// within one poll interval of any step.
///
/// `resume = Some(checkpoint)` continues a previously interrupted
/// computation from its saved frontier instead of recomputing from scratch.
/// The returned checkpoint is the one to pass to the *next* resume. The
/// result's tallies are cumulative — they include the checkpointed mass — so
/// callers can treat a resumed reply exactly like a from-scratch one.
/// `max_paths` is a per-run safety valve and starts afresh each resume.
pub fn try_lower_bound(
    term: &Term,
    config: &LowerBoundConfig,
    resume: Option<&LowerBoundCheckpoint>,
    stop: &mut dyn FnMut() -> bool,
) -> (LowerBoundResult, LowerBoundCheckpoint) {
    let (result, exploration, _) = run_accumulated(term, config, resume, stop);
    let checkpoint = LowerBoundCheckpoint {
        probability: result.probability.clone(),
        expected_steps: result.expected_steps.clone(),
        paths: result.paths,
        stuck_paths: result.stuck_paths,
        frontier: frontier_seeds(&exploration.frontier),
    };
    (result, checkpoint)
}

/// The single engine core: seeded exploration with in-loop measurement and
/// cumulative accounting. Besides the result it returns the underlying
/// [`Exploration`] and one [`PathMeasure`] per terminated path, aligned
/// index-for-index with `Exploration::terminated` — which is what makes the
/// provenance artifact's per-path volumes sum *exactly* (rational
/// arithmetic, no float drift) to [`LowerBoundResult::probability`]: they
/// are the same numbers.
pub(crate) fn run_accumulated(
    term: &Term,
    config: &LowerBoundConfig,
    resume: Option<&LowerBoundCheckpoint>,
    stop: &mut dyn FnMut() -> bool,
) -> (LowerBoundResult, Exploration, Vec<PathMeasure>) {
    let start = Instant::now();
    let boxes_per_path = config.boxes_per_path;
    let progress = config.progress.as_deref();
    // Live-bound accumulator: floats here only feed the progress display
    // (the result itself stays exact rational); the cell's fixed-point
    // ratchet keeps the published bound monotone regardless of drift. A
    // resumed run starts from the checkpointed mass, so the streamed and
    // inspected progress stays monotone across the resume chain.
    let mut live_bound = resume.map_or(0.0, |c| c.probability.to_f64());
    let mut live_paths = resume.map_or(0, |c| c.paths as u64);
    if let Some(cell) = progress {
        cell.publish_terminated(live_paths, live_bound);
    }
    // Every terminating path is measured the moment it terminates (exact
    // polytope volume when affine, interruptible box sweep otherwise), so
    // `measures` stays aligned with `exploration.terminated` — even across
    // interruptions.
    let mut measures: Vec<PathMeasure> = Vec::new();
    let exploration = try_explore_seeded_progress(
        term,
        &config.exploration(),
        resume.map(|c| c.frontier.as_slice()),
        progress,
        stop,
        &mut |path, stop| {
            let (measure, stopped) = match path.exact_probability() {
                Some(volume) => (PathMeasure { volume, method: VolumeMethod::Exact }, false),
                None => {
                    // An interrupted sweep keeps its partial sum: boxes
                    // already proven inside the region are sound mass.
                    let (volume, stopped) = path.try_box_lower_bound(boxes_per_path, stop);
                    let method = VolumeMethod::BoxSweep { max_boxes: boxes_per_path };
                    (PathMeasure { volume, method }, stopped)
                }
            };
            if let Some(cell) = progress {
                live_bound += measure.volume.to_f64();
                live_paths += 1;
                cell.publish_terminated(live_paths, live_bound);
            }
            measures.push(measure);
            stopped
        },
    );
    let mut probability = Rational::zero();
    let mut expected_steps = Rational::zero();
    for (path, measure) in exploration.terminated.iter().zip(&measures) {
        expected_steps += &measure.volume * &Rational::from_int(path.steps as i64);
        probability += measure.volume.clone();
    }
    let mut paths = measures.len();
    let mut stuck = exploration.stuck;
    if let Some(prior) = resume {
        probability += prior.probability.clone();
        expected_steps += prior.expected_steps.clone();
        paths += prior.paths;
        stuck += prior.stuck_paths;
    }
    let result = LowerBoundResult {
        probability,
        expected_steps,
        paths,
        unexplored_paths: exploration.out_of_fuel,
        stuck_paths: stuck,
        interrupted: exploration.interrupted,
        elapsed: start.elapsed(),
        profile: exploration.profile.clone(),
    };
    (result, exploration, measures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_spcf::catalog;
    use probterm_spcf::parse_term;

    /// A stop hook that lets `budget` polls pass and stops at the next one.
    fn stop_after(mut budget: usize) -> impl FnMut() -> bool {
        move || {
            if budget == 0 {
                true
            } else {
                budget -= 1;
                false
            }
        }
    }

    fn lb(src: &str, depth: usize) -> LowerBoundResult {
        let term = parse_term(src).unwrap();
        lower_bound(&term, &LowerBoundConfig::default().with_depth(depth))
    }

    #[test]
    fn deterministic_terms_get_probability_one() {
        let r = lb("1 + 2", 50);
        assert_eq!(r.probability, Rational::one());
        assert_eq!(r.paths, 1);
        assert_eq!(r.unexplored_paths, 0);
        assert!(!r.interrupted);
    }

    #[test]
    fn diverging_terms_get_probability_zero() {
        let r = lb("(fix phi x. phi x) 0", 100);
        assert_eq!(r.probability, Rational::zero());
        assert_eq!(r.paths, 0);
        assert!(r.unexplored_paths > 0);
    }

    #[test]
    fn geometric_lower_bounds_approach_one() {
        let geo = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
        let shallow = lb(geo, 40);
        let deep = lb(geo, 120);
        assert!(shallow.probability < deep.probability);
        assert!(deep.probability < Rational::one());
        assert!(deep.probability > Rational::from_ratio(999, 1000));
        // The expected-steps lower bound is positive and grows with depth.
        assert!(deep.expected_steps > shallow.expected_steps);
        assert!(deep.expected_steps > Rational::from_int(3));
    }

    #[test]
    fn fifty_fifty_divergence_is_bounded_by_half() {
        let r = lb("if sample <= 1/2 then 0 else (fix phi x. phi x) 0", 200);
        assert_eq!(r.probability, Rational::from_ratio(1, 2));
    }

    #[test]
    fn nonaffine_printer_quarter_converges_to_one_third() {
        // Ex. 1.1 (2) with p = 1/4 has Pterm = 1/3 (CbN and CbV agree for this term).
        let b = catalog::printer_nonaffine(Rational::from_ratio(1, 4));
        let r = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(80));
        assert!(r.probability < Rational::from_ratio(1, 3));
        assert!(
            r.probability > Rational::from_ratio(29, 100),
            "lower bound too weak: {}",
            r.probability
        );
    }

    #[test]
    fn triangle_example_gets_exact_volumes_per_path() {
        let b = catalog::triangle_example();
        let r = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(80));
        // The first path alone contributes exactly 1/2; deeper paths add more.
        assert!(r.probability >= Rational::from_ratio(1, 2));
        assert!(r.probability < Rational::one());
        assert!(r.probability > Rational::from_ratio(7, 10));
    }

    #[test]
    fn bounds_are_sound_wrt_known_probabilities() {
        // For every Table 1 benchmark with a known Pterm, the computed bound
        // never exceeds it (soundness, Thm. 3.4). Kept to modest depths so the
        // test stays fast; the bench harness pushes depths much further.
        for b in catalog::table1_benchmarks() {
            if matches!(b.name.as_str(), "pedestrian") {
                continue; // slower: exercised in the bench harness and integration tests
            }
            let r = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(35));
            if let Some(expected) = b.expected_pterm {
                assert!(
                    r.probability.to_f64() <= expected + 1e-9,
                    "{}: lower bound {} exceeds true probability {}",
                    b.name,
                    r.probability.to_f64(),
                    expected
                );
            }
            assert!(r.probability >= Rational::zero());
        }
    }

    #[test]
    fn profile_is_monotone_in_depth() {
        let term = parse_term("(fix phi x. if sample <= 1/3 then x else phi (x + 1)) 0").unwrap();
        let profile: Vec<LowerBoundResult> = [20, 60, 120]
            .iter()
            .map(|&d| lower_bound(&term, &LowerBoundConfig::default().with_depth(d)))
            .collect();
        assert_eq!(profile.len(), 3);
        assert!(profile[0].probability <= profile[1].probability);
        assert!(profile[1].probability <= profile[2].probability);
    }

    #[test]
    fn decimal_rendering_matches_table_format() {
        let r = lb("if sample <= 1/3 then 0 else 1", 50);
        assert_eq!(r.probability, Rational::one());
        assert_eq!(r.probability_decimal(10), "1.0000000000");
    }

    #[test]
    fn interrupted_lower_bounds_are_nonzero_sound_partials() {
        let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = LowerBoundConfig::default().with_depth(300);
        let full = lower_bound(&geo, &config);
        // Cancel after a small fixed amount of exploration work.
        let (partial, _) = try_lower_bound(&geo, &config, None, &mut stop_after(8));
        assert!(partial.interrupted);
        assert!(partial.probability > Rational::zero(), "partial bound must be nonzero");
        // Every path that terminated before the cutoff is affine here, so the
        // partial must carry the mass of all of them, not just the first.
        assert!(partial.paths > 1, "all exactly-measurable terminated paths count");
        assert!(partial.probability <= full.probability, "partial bounds are monotone");
        assert!(partial.expected_steps <= full.expected_steps);
        // Builders: defaults live in exactly one place.
        assert_eq!(
            LowerBoundConfig::default().with_depth(300),
            LowerBoundConfig { depth: 300, ..Default::default() }
        );
        assert_eq!(config.exploration().max_steps_per_path, 300);
        assert_eq!(config.exploration().max_paths, config.max_paths);
    }

    #[test]
    fn resumed_runs_equal_from_scratch_runs_exactly() {
        let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = LowerBoundConfig::default().with_depth(200).with_profile(true);
        let full = lower_bound(&geo, &config);
        // Interrupt early, then resume to completion from the checkpoint.
        let (partial, checkpoint) = try_lower_bound(&geo, &config, None, &mut stop_after(10));
        assert!(partial.interrupted);
        assert!(!checkpoint.frontier.is_empty(), "interrupted run must leave a frontier");
        assert_eq!(checkpoint.probability, partial.probability);
        let (resumed, done) = try_lower_bound(&geo, &config, Some(&checkpoint), &mut || false);
        assert!(!resumed.interrupted);
        // What is left to resume is exactly what a from-scratch run leaves:
        // the fuel-exhausted leaves at depth 200 (geo never fully explores).
        assert_eq!(resumed.unexplored_paths, full.unexplored_paths);
        assert_eq!(done.frontier.len(), full.unexplored_paths);
        // Exact-rational equality with the from-scratch run at the same
        // depth: the two runs' terminated paths partition identically.
        assert_eq!(resumed.probability, full.probability);
        assert_eq!(resumed.expected_steps, full.expected_steps);
        assert_eq!(resumed.paths, full.paths);
        assert_eq!(resumed.stuck_paths, full.stuck_paths);
        // Monotone tightening: the resumed bound dominates the partial.
        assert!(partial.probability < resumed.probability);
        // No re-exploration of measured paths: the resumed run's machine
        // steps (replay + new work) stay strictly below a from-scratch run.
        let full_steps = full.profile.as_ref().expect("profile on").steps;
        let resumed_steps = resumed.profile.as_ref().expect("profile on").steps;
        assert!(
            resumed_steps < full_steps,
            "resume re-explored measured paths: {resumed_steps} vs {full_steps} steps"
        );
    }

    #[test]
    fn exhausted_frontier_seeds_short_circuit_without_replay() {
        // Depth-limited run: every frontier path exhausted its fuel. Resuming
        // at the same depth must not grind through the replays — the seeds
        // are re-tallied directly and the result matches the original run.
        let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = LowerBoundConfig::default().with_depth(40).with_profile(true);
        let (first, checkpoint) = try_lower_bound(&geo, &config, None, &mut || false);
        assert!(!first.interrupted);
        assert!(!checkpoint.frontier.is_empty(), "depth 40 leaves out-of-fuel paths");
        let (again, checkpoint2) = try_lower_bound(&geo, &config, Some(&checkpoint), &mut || false);
        assert!(!again.interrupted);
        // No new mass at the same depth; the frontier survives verbatim.
        assert_eq!(again.probability, first.probability);
        assert_eq!(checkpoint2.frontier, checkpoint.frontier);
        // Short-circuit: no machine ran at all in the resumed pass.
        assert_eq!(again.profile.as_ref().expect("profile on").steps, 0);
    }
}
