//! Statistical conformance harness for the estimator algebra: every
//! [`AggregateEstimator`] instance (COUNT, SUM, AVG, and their
//! inclusion–exclusion composition) must be **unbiased** and must
//! produce confidence intervals that **achieve their nominal
//! coverage** under simple random sampling without replacement.
//!
//! Method: seeded multi-replication Monte Carlo. For each population
//! shape, draw `REPS` independent SRS samples, form the estimator's
//! snapshot from each, and check
//!
//! 1. **Unbiasedness** — the replication mean of the estimates lands
//!    within a few Monte-Carlo standard errors of the ground truth;
//! 2. **Coverage** — the fraction of nominal-95% CIs containing the
//!    truth is at least [`MIN_COVERAGE`] (90%: ~5 points of slack
//!    below nominal absorbs both the normal approximation and the
//!    coverage estimate's own ~1% Monte-Carlo error at 400 reps).
//!
//! The COUNT path is additionally cross-checked against the
//! `goodman.rs` oracle: the `DistinctCount` instance must reproduce
//! `goodman_estimate` exactly on the same occupancies.
//!
//! The harness is pure sampling-layer code (no database): conformance
//! is a property of the estimator algebra, not of a particular random
//! stream. One cell is the exception: the shared-draw validity cell
//! at the bottom drives the full server to prove that pooled block
//! draws leave every estimator's input stream untouched.

use eram_sampling::{
    goodman_estimate, sample_without_replacement, AggregateEstimator, CountEstimate, DistinctCount,
    DistinctEstimator, Linear, RatioAvg, SrsCount, SrsSum,
};
use eram_storage::Rng;
use testkit::prelude::*;

/// Replications per conformance cell.
const REPS: u64 = 400;
/// Sample size per replication.
const M: u64 = 250;
/// Population size.
const N: u64 = 10_000;
/// Required empirical coverage of nominal-95% intervals.
const MIN_COVERAGE: f64 = 0.90;

/// A synthetic population: `ones[i]` says whether point `i`
/// qualifies, `values[i]` is its value column.
struct Population {
    ones: Vec<bool>,
    values: Vec<f64>,
}

impl Population {
    /// Deterministic population: selectivity `sel`, values on an
    /// arithmetic lattice with dispersion `spread` shifted by `base`
    /// (skew-free but non-constant, so SUM and AVG have real
    /// variance).
    fn build(sel: f64, base: f64, spread: f64) -> Self {
        let cut = (sel * N as f64) as u64;
        let ones: Vec<bool> = (0..N).map(|i| (i * 7919) % N < cut).collect();
        let values: Vec<f64> = (0..N)
            .map(|i| base + ((i * 37) % 100) as f64 / 100.0 * spread)
            .collect();
        Population { ones, values }
    }

    fn true_count(&self) -> f64 {
        self.ones.iter().filter(|&&b| b).count() as f64
    }

    fn true_sum(&self) -> f64 {
        self.ones
            .iter()
            .zip(&self.values)
            .filter(|(b, _)| **b)
            .map(|(_, v)| *v)
            .sum()
    }

    fn true_avg(&self) -> f64 {
        self.true_sum() / self.true_count()
    }

    /// One SRS replication: sample statistics for every estimator.
    fn draw(&self, seed: u64) -> SampleStats {
        let mut rng = Rng::seed_from_u64(seed);
        let idx = sample_without_replacement(N, M, &mut rng);
        let mut s = SampleStats::default();
        for i in idx {
            let i = i as usize;
            if self.ones[i] {
                s.ones += 1.0;
                s.sum += self.values[i];
                s.sum_sq += self.values[i] * self.values[i];
            }
        }
        s
    }
}

#[derive(Default)]
struct SampleStats {
    ones: f64,
    sum: f64,
    sum_sq: f64,
}

impl SampleStats {
    fn count(&self) -> CountEstimate {
        SrsCount {
            total_points: N as f64,
            points_sampled: M as f64,
            ones: self.ones,
        }
        .snapshot()
    }

    fn sum(&self) -> CountEstimate {
        SrsSum {
            total_points: N as f64,
            points_sampled: M as f64,
            sum: self.sum,
            sum_sq: self.sum_sq,
        }
        .snapshot()
    }

    fn avg(&self) -> CountEstimate {
        RatioAvg {
            ones: self.ones,
            points_sampled: M as f64,
            total_points: N as f64,
            sum: self.sum,
            sum_sq: self.sum_sq,
        }
        .snapshot()
    }
}

/// Runs the Monte-Carlo cell for one estimator and asserts both
/// conformance properties.
fn assert_conformant(label: &str, truth: f64, seed_base: u64, draw: impl Fn(u64) -> CountEstimate) {
    let mut covered = 0u64;
    let mut mean = 0.0;
    let mut var_accum = 0.0;
    for r in 0..REPS {
        let est = draw(seed_base + r);
        let (lo, hi) = est.ci(0.95);
        if lo <= truth && truth <= hi {
            covered += 1;
        }
        mean += est.estimate / REPS as f64;
        var_accum += (est.estimate - truth) * (est.estimate - truth) / REPS as f64;
    }
    let coverage = covered as f64 / REPS as f64;
    assert!(
        coverage >= MIN_COVERAGE,
        "[{label}] empirical coverage {coverage:.3} below {MIN_COVERAGE}"
    );
    // Unbiasedness: the replication mean must sit within ~5 MC
    // standard errors of the truth (ratio estimators carry an O(1/m)
    // bias well inside this band).
    let mc_se = (var_accum / REPS as f64).sqrt();
    let tol = 5.0 * mc_se + 1e-9;
    assert!(
        (mean - truth).abs() <= tol,
        "[{label}] replication mean {mean} vs truth {truth} (tol {tol})"
    );
}

#[test]
fn count_estimator_is_unbiased_with_valid_coverage() {
    let pop = Population::build(0.5, 0.0, 100.0);
    assert_conformant("count", pop.true_count(), 0xC0, |seed| {
        pop.draw(seed).count()
    });
}

#[test]
fn sum_estimator_is_unbiased_with_valid_coverage() {
    let pop = Population::build(0.5, 50.0, 300.0);
    assert_conformant("sum", pop.true_sum(), 0x50, |seed| pop.draw(seed).sum());
}

#[test]
fn avg_estimator_is_unbiased_with_valid_coverage() {
    let pop = Population::build(0.6, 200.0, 150.0);
    assert_conformant("avg", pop.true_avg(), 0xA0, |seed| pop.draw(seed).avg());
}

#[test]
fn linear_composition_keeps_coverage_for_inclusion_exclusion() {
    // count(A ∪ B) = count(A) + count(B) − count(A ∩ B), each term
    // estimated from an independent SRS — the composed CI must still
    // cover the union's true size.
    let a = Population::build(0.5, 0.0, 1.0);
    let b = Population::build(0.3, 0.0, 1.0);
    let both: Vec<bool> = a.ones.iter().zip(&b.ones).map(|(x, y)| *x && *y).collect();
    let union_truth = a
        .ones
        .iter()
        .zip(&b.ones)
        .filter(|(x, y)| **x || **y)
        .count() as f64;
    let count_of = |ones: &[bool], seed: u64| {
        let mut rng = Rng::seed_from_u64(seed);
        let idx = sample_without_replacement(N, M, &mut rng);
        let hits = idx.iter().filter(|&&i| ones[i as usize]).count() as f64;
        SrsCount {
            total_points: N as f64,
            points_sampled: M as f64,
            ones: hits,
        }
        .snapshot()
    };
    assert_conformant("union", union_truth, 0x10E, |seed| {
        Linear::new()
            .with(1, count_of(&a.ones, seed))
            .with(1, count_of(&b.ones, seed ^ 0x9E37_79B9))
            .with(-1, count_of(&both, seed ^ 0x85EB_CA6B))
            .snapshot()
    });
}

#[test]
fn distinct_count_matches_the_goodman_oracle_exactly() {
    // The algebra's DistinctCount instance must reproduce the
    // goodman.rs closed form on identical occupancies — same estimate,
    // same feasible-range clamp.
    for (population, occupancies) in [
        (1_000.0, vec![1u64, 1, 2, 3, 1]),
        (5_000.0, vec![2u64, 2, 2, 2]),
        (100.0, vec![1u64; 60]),
        (10_000.0, vec![5u64, 1, 1, 1, 1, 1, 7]),
    ] {
        let sample: u64 = occupancies.iter().sum();
        let algebra = DistinctCount {
            distinct: DistinctEstimator::Goodman,
            population,
            occupancies: &occupancies,
            points_sampled: sample as f64,
            total_points: population,
        }
        .snapshot();
        let oracle = goodman_estimate(population, &occupancies);
        assert!(
            (algebra.estimate - oracle).abs() < 1e-9,
            "algebra {} vs oracle {oracle} (N={population})",
            algebra.estimate
        );
    }
}

/// Shared-draw validity cell: when the server pools co-resident
/// base-relation reads (`--concurrency interleaved`), each
/// subscriber still draws its *own* seeded sample stream and is
/// charged for every read — the pool only dedups the physical device
/// work. So each job's estimate and confidence interval must be
/// byte-identical to the sequential oracle, where every job reads the
/// device alone. Sharing is an I/O-layer optimization, not a
/// statistical coupling: the unbiasedness and coverage properties
/// proved by the cells above transfer verbatim to shared-draw
/// execution.
#[test]
fn shared_draws_do_not_perturb_the_estimators() {
    use eram_core::{Concurrency, Database, QueryServer, ServerJob};
    use eram_relalg::Expr;
    use eram_storage::{ColumnType, Schema, Tuple, Value};
    use std::time::Duration;

    let run = |mode: Concurrency| {
        let mut db = Database::sim_default(77);
        let schema = Schema::new(vec![("k", ColumnType::Int)]).padded_to(200);
        db.load_relation(
            "t",
            schema,
            (0..N).map(|i| Tuple::new(vec![Value::Int(i as i64)])),
        )
        .unwrap();
        let jobs = vec![
            ServerJob::count("x", Expr::relation("t"), Duration::from_secs(8)),
            ServerJob::count("y", Expr::relation("t"), Duration::from_secs(16)),
        ];
        QueryServer::new().concurrency(mode).run(&mut db, jobs)
    };
    let seq = run(Concurrency::Sequential);
    let inter = run(Concurrency::Interleaved);
    assert_eq!(
        seq.jobs, inter.jobs,
        "per-job reports must not see the sharing"
    );
    for (s, i) in seq.jobs.iter().zip(&inter.jobs) {
        let (se, ie) = (
            s.estimate.expect("job completed"),
            i.estimate.expect("job completed"),
        );
        assert_eq!(
            se.estimate.to_bits(),
            ie.estimate.to_bits(),
            "{}: estimate must be bit-identical",
            s.name
        );
        let (slo, shi) = se.ci(0.95);
        let (ilo, ihi) = ie.ci(0.95);
        assert_eq!(
            (slo.to_bits(), shi.to_bits()),
            (ilo.to_bits(), ihi.to_bits()),
            "{}: CI must be bit-identical",
            s.name
        );
    }
    // And the sharing actually happened: two co-resident scans of the
    // same relation fed from one pool.
    let sched = inter.schedule.as_ref().expect("schedule rides the outcome");
    assert!(sched.blocks_shared > 0, "no draws were pooled");
    assert_eq!(seq.schedule.as_ref().unwrap().blocks_shared, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Conformance holds across population shapes, not just the
    /// hand-picked cells: any moderate selectivity and value
    /// dispersion keeps COUNT/SUM/AVG unbiased with valid coverage.
    #[test]
    fn conformance_holds_across_population_shapes(
        sel in 0.25f64..0.75,
        base in 10.0f64..500.0,
        spread in 20.0f64..400.0,
        seed_base in any::<u32>(),
    ) {
        let pop = Population::build(sel, base, spread);
        let seed_base = u64::from(seed_base);
        assert_conformant("count", pop.true_count(), seed_base, |s| pop.draw(s).count());
        assert_conformant("sum", pop.true_sum(), seed_base ^ 0x5A5A, |s| pop.draw(s).sum());
        assert_conformant("avg", pop.true_avg(), seed_base ^ 0xA5A5, |s| pop.draw(s).avg());
    }
}
