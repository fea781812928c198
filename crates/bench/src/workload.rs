//! The paper's artificial relations and queries.
//!
//! All relations follow the Section 5 geometry: 10 000 tuples of
//! 200 bytes, 5 per 1 KB block, 2 000 blocks, values "randomly
//! distributed" across blocks. Each workload controls the exact
//! output cardinality of its query so the experiment rows match the
//! paper's ("zero output tuples", "5,000 output tuples", "70,000
//! output tuples", …).

use eram_core::Database;
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{ColumnType, Rng, Schema, Tuple, Value};

/// Paper geometry: tuples per relation.
pub const RELATION_TUPLES: u64 = 10_000;
/// Paper geometry: bytes per tuple.
pub const TUPLE_BYTES: usize = 200;

/// Which Section 5 experiment a workload reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// `COUNT(σ(r))` with a fixed output cardinality (Figure 5.1).
    Select {
        /// Exact number of qualifying tuples (0, 5 000, 10 000 in the
        /// paper).
        output_tuples: u64,
    },
    /// Like `Select`, but the qualifying tuples are *clustered* into
    /// contiguous disk blocks instead of the paper's "randomly
    /// distributed" layout — the adversarial case for cluster
    /// sampling (the block-total variance is maximal).
    SelectClustered {
        /// Exact number of qualifying tuples.
        output_tuples: u64,
    },
    /// `COUNT(r₁ ∩ r₂)` with a fixed overlap (Figure 5.2).
    Intersect {
        /// Number of common tuples.
        overlap: u64,
    },
    /// `COUNT(r₁ ⋈ r₂)` with a fixed join output (Figure 5.3:
    /// 70 000, actual selectivity ≈ 7·10⁻⁴).
    Join {
        /// Exact join output cardinality. Must decompose as
        /// `keys × left_per_key × right_per_key` with the paper's
        /// relation sizes; 70 000 = 1 000 keys × 10 × 7.
        output_tuples: u64,
    },
    /// `COUNT(π(r))` with a fixed number of distinct groups
    /// (estimator-accuracy ablation; "results of projection operation
    /// are not discussed" in the paper's Section 5).
    Project {
        /// Number of distinct groups.
        groups: u64,
    },
}

/// A loaded database plus the query reproducing one experiment.
pub struct Workload {
    /// The database with the artificial relation instance(s).
    pub db: Database,
    /// The experiment query.
    pub expr: Expr,
    /// The exact answer (for accuracy reporting).
    pub truth: u64,
    /// Which experiment this is.
    pub kind: WorkloadKind,
}

fn paper_schema() -> Schema {
    Schema::new(vec![
        ("id", ColumnType::Int),
        ("sel_key", ColumnType::Int),
        ("join_key", ColumnType::Int),
    ])
    .padded_to(TUPLE_BYTES)
}

/// Tuples with a shuffled `sel_key` permutation (so any prefix
/// predicate selects a random subset) and a shuffled `join_key`
/// layout.
fn paper_tuples(join_keys: Vec<i64>, seed: u64) -> Vec<Tuple> {
    let n = RELATION_TUPLES as i64;
    assert_eq!(join_keys.len() as i64, n);
    let mut rng = Rng::seed_from_u64(seed);
    let mut sel_keys: Vec<i64> = (0..n).collect();
    rng.shuffle(&mut sel_keys);
    let mut join_keys = join_keys;
    rng.shuffle(&mut join_keys);
    (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int(sel_keys[i as usize]),
                Value::Int(join_keys[i as usize]),
            ])
        })
        .collect()
}

impl Workload {
    /// Builds the workload with the paper's relation geometry.
    ///
    /// # Panics
    /// Panics if the requested cardinality is not realizable with
    /// 10 000-tuple relations.
    pub fn build(kind: WorkloadKind, seed: u64) -> Workload {
        Self::build_on(kind, seed, 0)
    }

    /// [`Workload::build`] with an LRU buffer cache of `cache_blocks`
    /// blocks in front of the simulated device (0 = none, the
    /// paper's setup).
    pub fn build_on(kind: WorkloadKind, seed: u64, cache_blocks: usize) -> Workload {
        let mut db = if cache_blocks > 0 {
            Database::sim_cached(eram_storage::DeviceProfile::sun_3_60(), seed, cache_blocks)
        } else {
            Database::sim_default(seed)
        };
        let n = RELATION_TUPLES as i64;
        match kind {
            WorkloadKind::Select { output_tuples } => {
                assert!(output_tuples <= RELATION_TUPLES);
                let tuples = paper_tuples((0..n).collect(), seed ^ 0xA11CE);
                db.load_relation("r", paper_schema(), tuples).unwrap();
                // sel_key is a permutation of 0..n: `< K` selects
                // exactly K tuples, spread randomly over the blocks.
                let expr = Expr::relation("r").select(Predicate::col_cmp(
                    1,
                    CmpOp::Lt,
                    output_tuples as i64,
                ));
                Workload {
                    db,
                    expr,
                    truth: output_tuples,
                    kind,
                }
            }
            WorkloadKind::SelectClustered { output_tuples } => {
                assert!(output_tuples <= RELATION_TUPLES);
                // sel_key = row position: the `< K` tuples occupy the
                // first K/5 blocks back to back.
                let tuples: Vec<Tuple> = (0..n)
                    .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i), Value::Int(i)]))
                    .collect();
                db.load_relation("r", paper_schema(), tuples).unwrap();
                let expr = Expr::relation("r").select(Predicate::col_cmp(
                    1,
                    CmpOp::Lt,
                    output_tuples as i64,
                ));
                Workload {
                    db,
                    expr,
                    truth: output_tuples,
                    kind,
                }
            }
            WorkloadKind::Intersect { overlap } => {
                assert!(overlap <= RELATION_TUPLES);
                // r1 holds ids 0..n; r2 holds ids (n−overlap)..(2n−overlap):
                // exactly `overlap` tuples in common. All three columns
                // are functions of id so whole tuples match.
                let make = |offset: i64, seed: u64| -> Vec<Tuple> {
                    let mut rng = Rng::seed_from_u64(seed);
                    let mut ids: Vec<i64> = (offset..offset + n).collect();
                    rng.shuffle(&mut ids);
                    ids.into_iter()
                        .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i), Value::Int(i)]))
                        .collect()
                };
                db.load_relation("r1", paper_schema(), make(0, seed ^ 0xB0B))
                    .unwrap();
                db.load_relation("r2", paper_schema(), make(n - overlap as i64, seed ^ 0xC0C))
                    .unwrap();
                let expr = Expr::relation("r1").intersect(Expr::relation("r2"));
                Workload {
                    db,
                    expr,
                    truth: overlap,
                    kind,
                }
            }
            WorkloadKind::Join { output_tuples } => {
                // 70 000 = 1 000 matching keys × 10 (r1) × 7 (r2).
                // Generalize: keys = 1 000, left 10 per key, right
                // output/(keys·left) per key; remaining r2 tuples get
                // non-matching keys.
                let keys = 1_000u64;
                let left_per_key = RELATION_TUPLES / keys; // 10
                assert!(
                    output_tuples % (keys * left_per_key) == 0,
                    "join output must be a multiple of {}",
                    keys * left_per_key
                );
                let right_per_key = output_tuples / (keys * left_per_key);
                assert!(right_per_key * keys <= RELATION_TUPLES);
                let left_keys: Vec<i64> = (0..RELATION_TUPLES as i64)
                    .map(|i| i % keys as i64)
                    .collect();
                let right_keys: Vec<i64> = (0..RELATION_TUPLES)
                    .map(|i| {
                        if i < right_per_key * keys {
                            (i % keys) as i64
                        } else {
                            // Non-matching filler keys.
                            (keys + i) as i64
                        }
                    })
                    .collect();
                db.load_relation("r1", paper_schema(), paper_tuples(left_keys, seed ^ 0xD0D))
                    .unwrap();
                db.load_relation("r2", paper_schema(), paper_tuples(right_keys, seed ^ 0xE0E))
                    .unwrap();
                let expr = Expr::relation("r1").join(Expr::relation("r2"), vec![(2, 2)]);
                Workload {
                    db,
                    expr,
                    truth: output_tuples,
                    kind,
                }
            }
            WorkloadKind::Project { groups } => {
                assert!(groups > 0 && groups <= RELATION_TUPLES);
                // join_key column cycles over `groups` values.
                let keys: Vec<i64> = (0..n).map(|i| i % groups as i64).collect();
                db.load_relation("r", paper_schema(), paper_tuples(keys, seed ^ 0xF0F))
                    .unwrap();
                let expr = Expr::relation("r").project(vec![2]);
                Workload {
                    db,
                    expr,
                    truth: groups,
                    kind,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_workload_has_exact_cardinality() {
        for out in [0u64, 5_000, 10_000] {
            let w = Workload::build(WorkloadKind::Select { output_tuples: out }, 1);
            assert_eq!(w.db.exact_count(&w.expr).unwrap(), out);
        }
    }

    #[test]
    fn paper_relation_geometry() {
        let w = Workload::build(WorkloadKind::Select { output_tuples: 0 }, 2);
        let r = w.db.catalog().relation("r").unwrap();
        assert_eq!(r.num_tuples(), 10_000);
        assert_eq!(r.num_blocks(), 2_000);
        assert_eq!(r.blocking_factor(), 5);
        assert_eq!(r.schema().record_size(), 200);
    }

    #[test]
    fn intersect_workload_overlap_is_exact() {
        let w = Workload::build(WorkloadKind::Intersect { overlap: 2_500 }, 3);
        assert_eq!(w.db.exact_count(&w.expr).unwrap(), 2_500);
    }

    #[test]
    fn join_workload_is_paper_cardinality() {
        let w = Workload::build(
            WorkloadKind::Join {
                output_tuples: 70_000,
            },
            4,
        );
        assert_eq!(w.db.exact_count(&w.expr).unwrap(), 70_000);
        // Actual selectivity ≈ 7e-4, as the paper notes.
        let sel: f64 = 70_000.0 / (10_000.0 * 10_000.0);
        assert!((sel - 7e-4).abs() < 1e-12);
    }

    #[test]
    fn project_workload_groups() {
        let w = Workload::build(WorkloadKind::Project { groups: 100 }, 5);
        assert_eq!(w.db.exact_count(&w.expr).unwrap(), 100);
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        let a = Workload::build(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            7,
        );
        let b = Workload::build(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            7,
        );
        let ta =
            a.db.catalog()
                .relation("r")
                .unwrap()
                .read_block_uncharged(0)
                .unwrap();
        let tb =
            b.db.catalog()
                .relation("r")
                .unwrap()
                .read_block_uncharged(0)
                .unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    #[should_panic]
    fn unrealizable_join_output_rejected() {
        let _ = Workload::build(
            WorkloadKind::Join {
                output_tuples: 12_345,
            },
            0,
        );
    }
}
