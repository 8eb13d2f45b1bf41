//! Automated almost-sure-termination (AST) verification for non-affine
//! recursive SPCF programs.
//!
//! This crate implements the proof system of §6 of *"On Probabilistic
//! Termination of Functional Programs with Continuous Distributions"*
//! (Beutner & Ong, PLDI 2021) and its automation (§7.2):
//!
//! 1. [`build_tree`] constructs the **stochastic symbolic execution tree** of
//!    a first-order fixpoint body (Fig. 6a): sample variables for random
//!    draws, `μ`-nodes for recursive calls, probabilistic branch nodes for
//!    sample-only guards and Environment nodes for guards that depend on the
//!    (unknown) argument or on recursive outcomes.
//! 2. [`verify_ast`] enumerates all **Environment strategies** (Fig. 6b),
//!    computes each path probability as an exact convex-polytope volume
//!    (the volume oracle of §7.2, provided by `probterm-polytope`), derives
//!    the counting distribution **`P_approx`** and decides AST of its shift by
//!    the linear-time random-walk criterion (Thm. 5.4). By Theorems 6.2 and
//!    5.9, a positive answer proves AST of the program on every argument.
//!
//! # Example
//!
//! ```
//! use probterm_astver::verify_ast;
//! use probterm_numerics::Rational;
//! use probterm_spcf::catalog;
//!
//! // Table 2, row "Ex 5.1, p = 0.6": P_approx = 0.6δ0 + 0.2δ2 + 0.2δ3.
//! let bench = catalog::tired_printer(Rational::parse("0.6").unwrap());
//! let verification = verify_ast(&bench.term).unwrap();
//! assert!(verification.verified_ast);
//! ```

#![warn(missing_docs)]

mod papprox;
mod tree;

pub use papprox::{try_verify_ast, verify_ast, AstVerification, Strategy, VerifyError};
pub use tree::{build_tree, try_build_tree, ExecTree, GuardValue, SymbolicTree, TreeError};
