//! # eram-sampling
//!
//! Sampling plans and statistical estimators for `COUNT(E)` queries —
//! the machinery of [HoOT 88] ("Statistical Estimators for Relational
//! Algebra Expressions", PODS 1988) that the SIGMOD 1989 paper's
//! time-constrained evaluator iterates.
//!
//! An RA expression `E` over operand relations `r₁,…,rₙ` is modeled
//! as an n-dimensional **point space** with `∏|rᵢ|` points; a point is
//! 1 iff the corresponding tuple combination yields an output tuple.
//! `COUNT(E)` is then the number of 1-points, estimated from samples:
//!
//! * [`srs`] — simple random sampling without replacement, including
//!   *staged* draws (each stage samples from the not-yet-drawn rest,
//!   as the stage loop requires);
//! * [`plan`] — the **cluster sampling plan**: one disk block per
//!   relation forms a *space block*, and blocks are the sample units;
//! * [`estimator`] — the point-space accumulator producing the
//!   `û(E) = N·(y/m)` and `Ŷᵦ(E) = B·(Σyᵢ/b)` estimates with their
//!   variance formulas and normal-theory confidence intervals;
//! * [`algebra`] — the estimator algebra those estimates instantiate:
//!   the [`AggregateEstimator`] trait carrying
//!   `(estimate, second moment, CI)` through sampling-operator
//!   composition, with COUNT/SUM/AVG/distinct instances and the
//!   [`Linear`] inclusion–exclusion combinator;
//! * [`goodman`] — Goodman's (1949) unbiased estimator of the number
//!   of distinct classes, used when `E` contains a projection;
//! * [`distinct`] — stable alternatives (Chao1, first-order
//!   jackknife) for the small-fraction regime where Goodman's
//!   unbiased estimator is too volatile;
//! * [`zerosel`] — the combinatorial zero-selectivity correction of
//!   Section 3.4 (a sampled selectivity of 0 must not be taken at
//!   face value or later stages blow the quota);
//! * [`stats`] — normal quantiles/CDF and running moments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algebra;
pub mod distinct;
pub mod estimator;
pub mod goodman;
pub mod plan;
pub mod srs;
pub mod stats;
pub mod zerosel;

pub use algebra::{
    AggregateEstimator, ClusterCount, DistinctCount, Linear, RatioAvg, SrsCount, SrsSum,
};
pub use distinct::{chao1, jackknife1, DistinctEstimator};
pub use estimator::{CountEstimate, PointSpaceAccumulator};
pub use goodman::goodman_estimate;
pub use plan::BlockSampler;
pub use srs::{sample_without_replacement, srs_proportion_variance};
pub use stats::{normal_cdf, normal_quantile, RunningMoments};
pub use zerosel::{zero_selectivity_closed, zero_selectivity_hypergeometric};
