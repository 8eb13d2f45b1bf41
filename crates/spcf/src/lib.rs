//! Statistical PCF (SPCF): the probabilistic functional language studied by
//! *"On Probabilistic Termination of Functional Programs with Continuous
//! Distributions"* (Beutner & Ong, PLDI 2021).
//!
//! This crate is the language substrate of the `probterm` workspace. It
//! provides:
//!
//! * the abstract syntax and capture-avoiding substitution ([`Term`],
//!   [`Prim`]), plus α-invariant canonical forms and 128-bit content hashes
//!   ([`Term::canonical_form`], [`Term::canonical_key`]) used by the analysis
//!   service to content-address its result cache,
//! * the simple type system and inference ([`infer_type`], [`SimpleType`]),
//! * a parser and pretty-printer for a small surface syntax ([`parse_term`]),
//! * the call-by-name and call-by-value sampling-style small-step semantics
//!   over explicit traces ([`FixedTrace`]) or random samplers
//!   ([`RandomSampler`]): [`run`] executes on an O(1)-per-step environment
//!   machine ([`machine`]), with the literal substitution stepper kept as
//!   the reference semantics ([`run_substitution`]),
//! * a Monte-Carlo reference estimator ([`estimate_termination`]) used to
//!   cross-validate the exact analyses,
//! * the catalogue of benchmark programs used in the paper's evaluation
//!   ([`catalog`]).
//!
//! # Quick example
//!
//! ```
//! use probterm_spcf::{parse_term, run, FixedTrace, Strategy};
//!
//! // Example 1.1 (1): the unreliable 3D printer.
//! let printer = parse_term(
//!     "(fix phi x. if sample <= 0.5 then x else phi (x + 1)) 1",
//! ).unwrap();
//!
//! // Deterministic evaluation on the trace (0.9, 0.1): one failed print, then success.
//! let mut trace = FixedTrace::from_ratios(&[(9, 10), (1, 10)]);
//! let result = run(Strategy::CallByName, &printer, &mut trace, 1_000);
//! assert!(result.outcome.is_terminated());
//! ```

#![warn(missing_docs)]

pub mod absmachine;
mod ast;
mod canon;
pub mod catalog;
mod eval;
mod lexer;
pub mod machine;
mod montecarlo;
mod oracle;
mod parser;
mod pretty;
mod trace;
mod types;

pub use ast::{fresh_ident, ident, Ident, Prim, Term};
pub use eval::{
    run, run_substitution, step, terminates_on_trace, Outcome, Run, Step, Strategy, StuckReason,
};
pub use machine::{run_machine, run_machine_summary, RunSummary, SummaryOutcome};
pub use lexer::{tokenize, LexError, Token, TokenKind};
pub use oracle::{
    branching_behaviour, oracle_string, run_with_oracle, Direction, Oracle, OracleRun,
};
pub use montecarlo::{
    estimate_termination, try_estimate_termination, MonteCarloConfig, MonteCarloEstimate,
};
pub use parser::{parse_term, ParseError};
pub use trace::{trace_len, FixedTrace, RandomSampler, Sampler, Trace};
pub use types::{infer_type, infer_type_in, is_first_order_fixpoint, is_program, SimpleType, TypeError};
