//! # eram-relalg
//!
//! The relational-algebra layer of the ERAM engine (Hou, Özsoyoğlu &
//! Taneja, SIGMOD 1989). The paper processes queries of the form
//! `COUNT(E)` where `E` is an arbitrary RA expression over the
//! operators Select, Project, Join, Union, Difference, and Intersect.
//!
//! This crate provides:
//!
//! * [`Expr`] — the RA expression AST, with schema inference and
//!   validation against a [`Catalog`] of stored relations;
//! * [`Predicate`] — selection formulas (comparisons over columns and
//!   constants combined with and/or/not), including the comparison
//!   count that parameterizes the paper's selection cost formula;
//! * [`Catalog`] — named base relations backed by
//!   [`eram_storage::HeapFile`]s;
//! * [`eval`] — an exact, set-semantics evaluator (ground truth for
//!   the estimators; reads blocks *uncharged* so it never consumes a
//!   query's simulated time quota);
//! * [`histogram`] — the *prestored statistics* alternative the
//!   paper contrasts with (equi-depth histograms per column, PsCo 84
//!   / MuDe 88 style), for the comparison ablation;
//! * [`parser`] — the textual query language (ERAM "uses relational
//!   algebra expressions as its query language"); round-trips with
//!   [`Expr`]'s `Display`;
//! * [`pie`] — the **Principle of Inclusion–Exclusion** rewrite
//!   (Section 2 of the paper): `COUNT(E)` over an expression with
//!   union/difference becomes a signed sum `Σᵢ cᵢ·COUNT(Eᵢ')` where
//!   every `Eᵢ'` uses only Select/Join/Intersect/Project.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod catalog;
pub mod eval;
pub mod expr;
pub mod histogram;
pub mod optimize;
pub mod parser;
pub mod pie;
pub mod predicate;

pub use catalog::Catalog;
pub use expr::{Expr, ExprError, OpKind};
pub use histogram::{EquiDepthHistogram, StatsCatalog, TableStats};
pub use optimize::push_selections;
pub use parser::{parse_expr, parse_predicate, ParseError};
pub use pie::{CountTerm, PieRewrite};
pub use predicate::{CmpOp, CompiledPredicate, Operand, Predicate};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, ExprError>;
