//! Environment strategies, path probabilities and `P_approx` (paper §6.2, §7.2).
//!
//! Given the symbolic execution tree of a recursion body, the Environment
//! resolves every `⊛`-dependent branch. For each strategy `𝔖` the remaining
//! branching is purely probabilistic and the probability `P(𝔖, n)` of making
//! at most `n` recursive calls is a sum of exact polytope volumes (the
//! volume-computation oracle of §7.2). The counting distribution
//!
//! ```text
//! P_approx(0) = min_𝔖 P(𝔖, 0)
//! P_approx(n) = min_𝔖 P(𝔖, n) − min_𝔖 P(𝔖, n−1)
//! ```
//!
//! lower-bounds (w.r.t. `⊑`) the counting pattern of the program for *every*
//! argument (Theorem 6.2); if its shift is AST (Theorem 5.4) the program is
//! AST on every argument (Theorem 5.9).

use crate::tree::{try_build_tree, ExecTree, SymbolicTree, TreeError};
use probterm_telemetry::{EngineProfile, ProfileCell};
use probterm_numerics::Rational;
use probterm_polytope::UnitCubePolytope;
use probterm_rwalk::{epsilon_ra_implies_ast, CountingDistribution, StepDistribution};
use probterm_spcf::Term;
use std::fmt;
use std::time::{Duration, Instant};

/// Errors raised by the AST verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The symbolic execution tree could not be built.
    Tree(TreeError),
    /// A probabilistic guard is not affine in the sample variables, so the
    /// exact volume oracle does not apply (the paper's implementation makes
    /// the same restriction, §7.2).
    NonLinearGuard(String),
    /// There are too many Environment nodes to enumerate all strategies.
    TooManyEnvironmentNodes(usize),
    /// The stop hook of [`try_verify_ast`] cancelled the verification
    /// (e.g. the analysis service enforcing a per-request deadline).
    Interrupted,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Tree(e) => write!(f, "{e}"),
            VerifyError::NonLinearGuard(g) => write!(
                f,
                "probabilistic guard `{g}` is not affine in the sample variables"
            ),
            VerifyError::TooManyEnvironmentNodes(n) => {
                write!(f, "too many Environment nodes ({n}) to enumerate strategies")
            }
            VerifyError::Interrupted => write!(f, "AST verification was interrupted"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<TreeError> for VerifyError {
    fn from(e: TreeError) -> Self {
        VerifyError::Tree(e)
    }
}

/// A strategy for the Environment: one branch decision per Environment node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strategy {
    choices: Vec<bool>, // true = then-branch
}

impl Strategy {
    /// The decision for Environment node `id` (`true` = then-branch).
    pub fn takes_then(&self, id: usize) -> bool {
        self.choices.get(id).copied().unwrap_or(true)
    }

    /// Enumerates all strategies for `env_count` Environment nodes.
    pub fn enumerate(env_count: usize) -> Vec<Strategy> {
        (0..(1usize << env_count))
            .map(|bits| Strategy {
                choices: (0..env_count).map(|i| (bits >> i) & 1 == 1).collect(),
            })
            .collect()
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.choices.is_empty() {
            return write!(f, "(trivial)");
        }
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "env#{i}→{}", if *c { "then" } else { "else" })?;
        }
        Ok(())
    }
}

/// A path of the tree under a fixed strategy: the affine constraints that the
/// sample variables must satisfy and the number of `μ` nodes passed.
#[derive(Debug, Clone)]
struct StrategyPath {
    constraints: Vec<(Vec<Rational>, Rational)>,
    mu_count: u64,
    stuck: bool,
}

fn collect_paths(
    tree: &ExecTree,
    dimension: usize,
    strategy: &Strategy,
) -> Result<Vec<StrategyPath>, VerifyError> {
    fn go(
        node: &ExecTree,
        dimension: usize,
        strategy: &Strategy,
        current: &mut StrategyPath,
        out: &mut Vec<StrategyPath>,
    ) -> Result<(), VerifyError> {
        match node {
            ExecTree::Leaf => {
                out.push(current.clone());
                Ok(())
            }
            ExecTree::Stuck => {
                let mut path = current.clone();
                path.stuck = true;
                out.push(path);
                Ok(())
            }
            ExecTree::Mu(rest) => {
                current.mu_count += 1;
                go(rest, dimension, strategy, current, out)?;
                current.mu_count -= 1;
                Ok(())
            }
            ExecTree::Score { value, rest } => {
                // score(V) succeeds iff V ≥ 0, i.e. -V ≤ 0.
                let (coeffs, constant) = value
                    .as_affine(dimension)
                    .ok_or_else(|| VerifyError::NonLinearGuard(value.to_string()))?;
                current
                    .constraints
                    .push((coeffs.iter().map(|c| -c).collect(), constant));
                go(rest, dimension, strategy, current, out)?;
                current.constraints.pop();
                Ok(())
            }
            ExecTree::Prob { guard, then, els } => {
                let (coeffs, constant) = guard
                    .as_affine(dimension)
                    .ok_or_else(|| VerifyError::NonLinearGuard(guard.to_string()))?;
                // then-branch: guard ≤ 0 ⟺ coeffs·α ≤ -constant
                current.constraints.push((coeffs.clone(), -&constant));
                go(then, dimension, strategy, current, out)?;
                current.constraints.pop();
                // else-branch: guard > 0 ⟺ -coeffs·α ≤ constant (closure is fine)
                current
                    .constraints
                    .push((coeffs.iter().map(|c| -c).collect(), constant));
                go(els, dimension, strategy, current, out)?;
                current.constraints.pop();
                Ok(())
            }
            ExecTree::Env { id, then, els, .. } => {
                let chosen = if strategy.takes_then(*id) { then } else { els };
                go(chosen, dimension, strategy, current, out)
            }
        }
    }
    let mut out = Vec::new();
    let mut current = StrategyPath {
        constraints: Vec::new(),
        mu_count: 0,
        stuck: false,
    };
    go(tree, dimension, strategy, &mut current, &mut out)?;
    Ok(out)
}

fn path_volume(path: &StrategyPath, dimension: usize) -> Rational {
    let mut poly = UnitCubePolytope::new(dimension);
    for (coeffs, bound) in &path.constraints {
        poly.add(coeffs.clone(), bound.clone());
    }
    poly.probability()
}

/// `P(𝔖, n)` for one strategy: the probability of reaching a leaf after at
/// most `n` recursive calls. Stuck leaves never count as "at most n calls",
/// which only makes the bound more conservative.
fn strategy_cumulative(
    paths: &[(Rational, u64, bool)],
    n: u64,
) -> Rational {
    paths
        .iter()
        .filter(|(_, calls, stuck)| !*stuck && *calls <= n)
        .map(|(p, _, _)| p.clone())
        .sum()
}

/// The result of the counting-based AST verification.
#[derive(Debug, Clone, PartialEq)]
pub struct AstVerification {
    /// The computed counting distribution `P_approx` (the quantity reported in
    /// Table 2 of the paper).
    pub papprox: CountingDistribution,
    /// The shifted step distribution analysed by Theorem 5.4.
    pub step_distribution: StepDistribution,
    /// `true` iff `P_approx` (shifted) is AST, which by Theorems 6.2 and 5.9
    /// proves that the program is AST on every argument.
    pub verified_ast: bool,
    /// Number of Environment nodes in the symbolic execution tree.
    pub env_nodes: usize,
    /// Number of strategies enumerated.
    pub strategies: usize,
    /// Number of sample variables in the tree.
    pub sample_variables: usize,
    /// The recursive rank observable in the tree (max `μ` nodes on a path).
    pub rank: u64,
    /// Whether the weaker Corollary 5.13 (`rank · (1 − P_approx(0)) ≤ 1`)
    /// already suffices for AST.
    pub verified_by_corollary_5_13: bool,
    /// Monotonic elapsed time of the verification (measured on
    /// `std::time::Instant`).
    pub elapsed: Duration,
    /// Machine profile of the execution-tree construction, present iff the
    /// verification ran through [`try_verify_ast`] with profiling on.
    pub profile: Option<EngineProfile>,
}

impl fmt::Display for AstVerification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P_approx = {} ({} strategies over {} environment nodes): {}",
            self.papprox,
            self.strategies,
            self.env_nodes,
            if self.verified_ast { "AST" } else { "not verified" }
        )
    }
}

/// Maximum number of Environment nodes for which strategy enumeration is attempted.
const MAX_ENV_NODES: usize = 20;

/// Verifies almost-sure termination of a (possibly applied) first-order
/// fixpoint program by the counting-based proof system of §6.
///
/// # Errors
///
/// Returns a [`VerifyError`] when the program shape is unsupported, a
/// probabilistic guard is not affine in the sample variables, or there are too
/// many Environment nodes.
///
/// # Examples
///
/// ```
/// use probterm_astver::verify_ast;
/// use probterm_numerics::Rational;
/// use probterm_spcf::catalog;
///
/// // Ex. 1.1 (2) with p = 1/2 is AST (Table 2, second row).
/// let bench = catalog::printer_nonaffine(Rational::from_ratio(1, 2));
/// let result = verify_ast(&bench.term).unwrap();
/// assert!(result.verified_ast);
/// assert_eq!(result.papprox.probability(2), Rational::from_ratio(1, 2));
/// ```
pub fn verify_ast(term: &Term) -> Result<AstVerification, VerifyError> {
    try_verify_ast(term, false, &mut || false)
}

/// Like [`verify_ast`], with every hook. With `profile` set, a machine
/// profile of the execution-tree construction lands in the result's
/// `profile` field. `stop` is polled inside the symbolic execution tree
/// construction and between Environment strategies; when it returns `true`
/// the verification aborts with [`VerifyError::Interrupted`]. This is the
/// hook through which the analysis service enforces `deadline_ms` *inside* a
/// running verification instead of only before/after it.
///
/// # Errors
///
/// As [`verify_ast`], plus [`VerifyError::Interrupted`].
pub fn try_verify_ast(
    term: &Term,
    profile: bool,
    stop: &mut dyn FnMut() -> bool,
) -> Result<AstVerification, VerifyError> {
    let start = Instant::now();
    let profile_cell = profile.then(ProfileCell::shared);
    let SymbolicTree {
        tree,
        sample_count,
        env_count,
    } = try_build_tree(term, profile_cell.as_ref(), stop).map_err(|e| match e {
        TreeError::Interrupted => VerifyError::Interrupted,
        other => VerifyError::Tree(other),
    })?;
    if env_count > MAX_ENV_NODES {
        return Err(VerifyError::TooManyEnvironmentNodes(env_count));
    }
    let strategies = Strategy::enumerate(env_count);
    let rank = tree.max_mu_per_path();

    // Pre-compute, per strategy, the (volume, μ-count, stuck) triple of each path.
    let mut per_strategy: Vec<Vec<(Rational, u64, bool)>> = Vec::with_capacity(strategies.len());
    for strategy in &strategies {
        if stop() {
            return Err(VerifyError::Interrupted);
        }
        let paths = collect_paths(&tree, sample_count, strategy)?;
        per_strategy.push(
            paths
                .iter()
                .map(|p| (path_volume(p, sample_count), p.mu_count, p.stuck))
                .collect(),
        );
    }

    // P_approx via minima of cumulative probabilities.
    let mut papprox_pairs: Vec<(u64, Rational)> = Vec::new();
    let mut previous_min = Rational::zero();
    for n in 0..=rank {
        let min_cumulative = per_strategy
            .iter()
            .map(|paths| strategy_cumulative(paths, n))
            .min()
            .unwrap_or_else(Rational::zero);
        let mass = &min_cumulative - &previous_min;
        if mass.is_positive() {
            papprox_pairs.push((n, mass));
        }
        previous_min = min_cumulative;
    }
    let papprox = CountingDistribution::from_pairs(papprox_pairs);
    let step_distribution = papprox.shifted();
    let verified_ast = step_distribution.is_ast();
    let verified_by_corollary = papprox.probability(0).in_unit_interval()
        && epsilon_ra_implies_ast(rank.max(1), &papprox.probability(0));
    Ok(AstVerification {
        papprox,
        step_distribution,
        verified_ast,
        env_nodes: env_count,
        strategies: strategies.len(),
        sample_variables: sample_count,
        rank,
        verified_by_corollary_5_13: verified_by_corollary,
        elapsed: start.elapsed(),
        profile: profile_cell.as_ref().map(|cell| cell.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_spcf::catalog;
    use probterm_spcf::parse_term;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn table2_row1_affine_printer() {
        // Ex. 1.1 (1), p = 1/2: P_approx = 1/2 δ0 + 1/2 δ1.
        let b = catalog::printer_affine(r(1, 2));
        let v = verify_ast(&b.term).unwrap();
        assert!(v.verified_ast);
        assert_eq!(v.papprox.probability(0), r(1, 2));
        assert_eq!(v.papprox.probability(1), r(1, 2));
        assert_eq!(v.rank, 1);
        assert!(v.verified_by_corollary_5_13);
        assert_eq!(v.strategies, 1);
    }

    #[test]
    fn table2_row2_nonaffine_printer() {
        // Ex. 1.1 (2), p = 1/2: P_approx = 1/2 δ0 + 1/2 δ2.
        let b = catalog::printer_nonaffine(r(1, 2));
        let v = verify_ast(&b.term).unwrap();
        assert!(v.verified_ast);
        assert_eq!(v.papprox.probability(0), r(1, 2));
        assert_eq!(v.papprox.probability(2), r(1, 2));
        assert_eq!(v.rank, 2);
        // For p just below 1/2 verification fails.
        let bad = catalog::printer_nonaffine(r(49, 100));
        let v = verify_ast(&bad.term).unwrap();
        assert!(!v.verified_ast);
    }

    #[test]
    fn table2_row3_three_print() {
        // 3print(2/3): P_approx = 2/3 δ0 + 1/3 δ3.
        let b = catalog::three_print(r(2, 3));
        let v = verify_ast(&b.term).unwrap();
        assert!(v.verified_ast);
        assert_eq!(v.papprox.probability(0), r(2, 3));
        assert_eq!(v.papprox.probability(3), r(1, 3));
        assert_eq!(v.rank, 3);
        // 3print(1/2) must not verify (it is in fact not AST).
        let bad = catalog::three_print(r(1, 2));
        assert!(!verify_ast(&bad.term).unwrap().verified_ast);
    }

    #[test]
    fn table2_row4_tired_printer() {
        // Ex. 5.1, p = 0.6: P_approx = 0.6 δ0 + 0.2 δ2 + 0.2 δ3.
        let b = catalog::tired_printer(Rational::parse("0.6").unwrap());
        let v = verify_ast(&b.term).unwrap();
        assert!(v.verified_ast, "verification failed: {v}");
        assert_eq!(v.papprox.probability(0), Rational::parse("0.6").unwrap());
        assert_eq!(v.papprox.probability(2), r(1, 5));
        assert_eq!(v.papprox.probability(3), r(1, 5));
        assert_eq!(v.env_nodes, 1);
        assert_eq!(v.strategies, 2);
        // The corollary needs p ≥ 2/3, so it does not apply at 0.6 (Ex. 5.14).
        assert!(!v.verified_by_corollary_5_13);
        // p = 0.59 is below the 3/5 threshold.
        let below = catalog::tired_printer(Rational::parse("0.59").unwrap());
        assert!(!verify_ast(&below.term).unwrap().verified_ast);
    }

    #[test]
    fn table2_row5_error_reuse_printer() {
        // Ex. 5.15, p = 0.65: P_approx = 0.65 δ0 + 0.06125 δ2 + 0.28875 δ3.
        let b = catalog::error_reuse_printer(Rational::parse("0.65").unwrap());
        let v = verify_ast(&b.term).unwrap();
        assert!(v.verified_ast, "verification failed: {v}");
        assert_eq!(v.papprox.probability(0), Rational::parse("0.65").unwrap());
        assert_eq!(v.papprox.probability(2), Rational::parse("0.06125").unwrap());
        assert_eq!(v.papprox.probability(3), Rational::parse("0.28875").unwrap());
        // p = 0.64 is below the √7 − 2 ≈ 0.6458 threshold and must not verify.
        let below = catalog::error_reuse_printer(Rational::parse("0.64").unwrap());
        assert!(!verify_ast(&below.term).unwrap().verified_ast);
    }

    #[test]
    fn environment_strategies_are_adversarial() {
        // A program that is AST only if the Environment is benign must NOT verify:
        // if the argument-dependent branch goes right, three calls are always made.
        let t = parse_term(
            "(fix phi x. if sample <= 0.55 then x else \
               (if sig(x) <= 1/2 then phi (x+1) else phi (phi (phi (x+1))))) 1",
        )
        .unwrap();
        let v = verify_ast(&t).unwrap();
        // Worst case: 0.55 δ0 + 0.45 δ3 has positive drift, so not verified.
        assert!(!v.verified_ast);
        assert_eq!(v.papprox.probability(3), Rational::parse("0.45").unwrap());
        assert_eq!(v.papprox.probability(1), Rational::zero());
    }

    #[test]
    fn zero_one_law_for_affine_recursion() {
        // Affine recursion (rank 1) with any positive exit probability is AST
        // (the functional zero-one law, §5.4).
        for p in ["0.1", "0.01", "0.9"] {
            let b = catalog::printer_affine(Rational::parse(p).unwrap());
            let v = verify_ast(&b.term).unwrap();
            assert!(v.verified_ast, "affine printer with p = {p}");
            assert!(v.verified_by_corollary_5_13);
        }
    }

    #[test]
    fn random_walk_guard_on_argument_is_beyond_the_counting_method() {
        // 1dRW(1/2, 1): termination hinges on the *size* of the argument
        // (the x ≤ 0 exit test), which the counting-based method deliberately
        // ignores — the Environment can adversarially refuse to exit, so the
        // method reports "not verified" even though the program is AST.
        // (This is the announced orthogonality to Dal Lago & Grellois's
        // sized-type analysis, paper §1.1 and §8.)
        let b = catalog::random_walk_1d(r(1, 2), 1);
        let v = verify_ast(&b.term).unwrap();
        assert!(!v.verified_ast);
        assert!(v.env_nodes >= 1);
        // Every strategy makes exactly one call per unfolding once the exit is
        // refused, so the approximation is δ1.
        assert_eq!(v.papprox.probability(1), Rational::one());
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        assert!(matches!(
            verify_ast(&parse_term("1 + 1").unwrap()),
            Err(VerifyError::Tree(_))
        ));
        // Non-affine guard over samples: multiplication of two samples.
        let t = parse_term(
            "(fix phi x. if sample * sample <= 1/2 then x else phi (phi (x+1))) 0",
        )
        .unwrap();
        assert!(matches!(
            verify_ast(&t),
            Err(VerifyError::NonLinearGuard(_))
        ));
    }

    #[test]
    fn strategy_enumeration_and_display() {
        assert_eq!(Strategy::enumerate(0).len(), 1);
        assert_eq!(Strategy::enumerate(3).len(), 8);
        let s = &Strategy::enumerate(2)[1];
        assert!(s.takes_then(0));
        assert!(!s.takes_then(1));
        assert!(s.to_string().contains("env#0"));
        assert_eq!(Strategy::enumerate(0)[0].to_string(), "(trivial)");
        let b = catalog::printer_affine(r(1, 2));
        let v = verify_ast(&b.term).unwrap();
        assert!(v.to_string().contains("AST"));
    }
}
