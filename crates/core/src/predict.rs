//! Stage cost prediction — `QCOST(fᵢ, SEL)` (Section 4).
//!
//! "The cost of the query, QCOST, is the sum of the costs of all the
//! operators", each operator cost a function of the sample fraction
//! and the selectivities of the operators below it ("n, the number of
//! input tuples to the operator, can always be expressed as a
//! function of the sample fraction and selectivities of the preceding
//! operators").
//!
//! The prediction walk mirrors [`crate::ops`] step for step — leaf
//! block reads; select scan + output pages (eq. 4.1); binary-operator
//! temp writes (eq. 4.2), sorts (eq. 4.3), and the full-fulfillment
//! merge grid (eq. 4.4, including the cross-stage run pairs that make
//! join/intersect stage cost grow with the stage number); projection
//! sort + dedup merge (Figure 4.7) — using the adaptive coefficients
//! of [`CostModel`]. Which selectivity each operator contributes is
//! delegated to a [`SelPolicy`], so the same walk serves the
//! One-at-a-Time-Interval strategy (inflated `sel⁺`), the
//! Single-Interval strategy (means, then per-operator perturbations
//! for the variance), and the heuristic.

use crate::costs::{CostCoeff, CostModel};
use crate::ops::{BinaryNode, Fulfillment, MemoryMode, Node, PhysTree};
use crate::seltrack::SelTracker;

/// How the prediction walk turns a tracker into a selectivity.
pub enum SelPolicy<'a> {
    /// `sel⁺ = μ̂ + d_β·√V̂ar` (equation 3.3) — One-at-a-Time.
    Inflated {
        /// The paper's `d_β` inflation multiplier.
        d_beta: f64,
    },
    /// The revised mean selectivity `selᵢ₋₁` with no inflation.
    Mean,
    /// Custom per-operator selectivity: called with the operator's
    /// pre-order index, its tracker, and the candidate stage's point
    /// count. Used for Single-Interval perturbations.
    PerOp(&'a dyn Fn(usize, &SelTracker, f64) -> f64),
}

impl SelPolicy<'_> {
    fn selectivity(&self, op_index: usize, tracker: &SelTracker, stage_points: f64) -> f64 {
        match self {
            SelPolicy::Inflated { d_beta } => tracker.inflated_selectivity(*d_beta, stage_points),
            SelPolicy::Mean => tracker.revised_selectivity(),
            SelPolicy::PerOp(f) => f(op_index, tracker, stage_points),
        }
    }
}

/// Predicted outcome of one stage at a candidate fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePrediction {
    /// Predicted stage cost in seconds (including stage overhead).
    pub cost_secs: f64,
    /// Predicted new output tuples at the root(s).
    pub out_tuples: f64,
    /// Predicted new disk blocks drawn from base relations.
    pub blocks_drawn: f64,
}

struct Walk<'a> {
    model: &'a CostModel,
    policy: &'a SelPolicy<'a>,
    op_index: usize,
    blocks: f64,
}

/// Predicted (new output tuples, cost seconds) for a subtree.
struct NodePrediction {
    out_tuples: f64,
    cost: f64,
}

/// Predicts one stage over a forest of compiled terms at fraction
/// `f`. Operator indices are assigned pre-order across the whole
/// forest, matching [`count_operators`].
pub fn predict_stage(
    trees: &[PhysTree],
    f: f64,
    model: &CostModel,
    policy: &SelPolicy<'_>,
) -> StagePrediction {
    let mut walk = Walk {
        model,
        policy,
        op_index: 0,
        blocks: 0.0,
    };
    let mut cost = model.predict(CostCoeff::StageOverhead, 1.0);
    let mut out = 0.0;
    for tree in trees {
        let p = walk.node(tree.root_ref(), f);
        cost += p.cost;
        out += p.out_tuples;
    }
    StagePrediction {
        cost_secs: cost,
        out_tuples: out,
        blocks_drawn: walk.blocks,
    }
}

/// Number of operator nodes across the forest (= number of
/// selectivity slots a [`SelPolicy::PerOp`] closure will be asked
/// about).
pub fn count_operators(trees: &[PhysTree]) -> usize {
    let mut n = 0;
    for t in trees {
        t.for_each_tracker(&mut |_| n += 1);
    }
    n
}

impl PhysTree {
    /// Internal accessor for the prediction walk.
    pub(crate) fn root_ref(&self) -> &Node {
        &self.root
    }
}

impl Walk<'_> {
    fn node(&mut self, node: &Node, f: f64) -> NodePrediction {
        match node {
            Node::Leaf(leaf) => {
                let total = leaf.sampler.population() as f64;
                let d = (f * total)
                    .round()
                    .max(1.0)
                    .min(leaf.sampler.remaining() as f64);
                let n = d * leaf.file.blocking_factor() as f64;
                self.blocks += d;
                NodePrediction {
                    out_tuples: n,
                    cost: self.model.predict(CostCoeff::BlockRead, d),
                }
            }
            Node::Select(s) => {
                let my_index = self.next_index();
                let child = self.node(&s.child, f);
                let n_in = child.out_tuples;
                let sel = self.policy.selectivity(my_index, &s.tracker, n_in);
                let out = sel * n_in;
                let write = match s.memory {
                    MemoryMode::DiskResident => self.model.predict(CostCoeff::WriteTuple, out),
                    MemoryMode::MainMemory => 0.0,
                };
                let cost = child.cost + self.model.predict(CostCoeff::ScanTuple, n_in) + write;
                NodePrediction {
                    out_tuples: out,
                    cost,
                }
            }
            Node::Project(p) => {
                let my_index = self.next_index();
                let child = self.node(&p.child, f);
                let n = child.out_tuples;
                let sel = self.policy.selectivity(my_index, &p.tracker, n);
                let new_groups = sel * n;
                let cum = p.occupancy.len() as f64;
                let write = match p.memory {
                    MemoryMode::DiskResident => {
                        self.model.predict(CostCoeff::WriteTuple, cum + new_groups)
                    }
                    MemoryMode::MainMemory => 0.0,
                };
                let cost = child.cost
                    + self.model.predict(CostCoeff::ScanTuple, n)
                    + self.model.predict(CostCoeff::SortUnit, nlogn(n))
                    + self.model.predict(CostCoeff::MergeTuple, n + cum)
                    + write;
                NodePrediction {
                    out_tuples: new_groups,
                    cost,
                }
            }
            Node::Binary(b) => {
                let my_index = self.next_index();
                let left = self.node(&b.left, f);
                let right = self.node(&b.right, f);
                let (n_l, n_r) = (left.out_tuples, right.out_tuples);

                let (pair_points, merge_units) = binary_pairs(b, n_l, n_r);
                let sel = self.policy.selectivity(my_index, &b.tracker, pair_points);
                let out = sel * pair_points;
                let write = match b.memory {
                    MemoryMode::DiskResident => {
                        self.model.predict(CostCoeff::WriteTuple, n_l + n_r)
                            + self.model.predict(CostCoeff::WriteTuple, out)
                    }
                    MemoryMode::MainMemory => 0.0,
                };
                let cost = left.cost
                    + right.cost
                    + self
                        .model
                        .predict(CostCoeff::SortUnit, nlogn(n_l) + nlogn(n_r))
                    + self.model.predict(CostCoeff::MergeTuple, merge_units)
                    + write;
                NodePrediction {
                    out_tuples: out,
                    cost,
                }
            }
        }
    }

    fn next_index(&mut self) -> usize {
        let i = self.op_index;
        self.op_index += 1;
        i
    }
}

/// Candidate-stage pair geometry for a binary node: how many tuple
/// pairs the new samples add, and how many tuples the merge passes
/// will touch (eq. 4.4's bracket, derived from the actual run list).
fn binary_pairs(b: &BinaryNode, n_l: f64, n_r: f64) -> (f64, f64) {
    let old_l: f64 = b.left_runs_tuples();
    let old_r: f64 = b.right_runs_tuples();
    match b.fulfillment {
        Fulfillment::Full => {
            let pair_points = n_l * (old_r + n_r) + old_l * n_r;
            // New-left merges against every right run (old + new);
            // every old left run merges against new-right.
            let merge_units = (b.right_run_count() as f64 + 1.0) * n_l
                + (old_r + n_r)
                + b.left_run_count() as f64 * n_r
                + old_l;
            (pair_points, merge_units)
        }
        Fulfillment::Partial => (n_l * n_r, n_l + n_r),
    }
}

fn nlogn(n: f64) -> f64 {
    if n < 2.0 {
        0.0
    } else {
        n * n.log2()
    }
}

/// Solves Figure 3.4's Sample-Size-Determine: bisection on `f` until
/// the predicted stage cost is within `eps_secs` of `target_secs`.
/// Returns `None` when even the minimum stage (one block per
/// relation) does not fit — the loop should stop and the leftover is
/// wasted.
pub fn solve_fraction(
    trees: &[PhysTree],
    model: &CostModel,
    policy: &SelPolicy<'_>,
    target_secs: f64,
    eps_secs: f64,
) -> Option<(f64, StagePrediction)> {
    debug_assert!(target_secs >= 0.0);
    // The smallest meaningful stage: the rounding in the leaf walk
    // draws one block per relation for any f ≈ 0.
    let floor = predict_stage(trees, 0.0, model, policy);
    if floor.cost_secs > target_secs {
        return None;
    }
    let ceiling = predict_stage(trees, 1.0, model, policy);
    if ceiling.cost_secs <= target_secs {
        return Some((1.0, ceiling));
    }

    let (mut low, mut high) = (0.0f64, 1.0f64);
    let mut best = (0.0, floor);
    for _ in 0..64 {
        let f = (low + high) / 2.0;
        let p = predict_stage(trees, f, model, policy);
        if p.cost_secs <= target_secs {
            best = (f, p);
            low = f;
        } else {
            high = f;
        }
        if (p.cost_secs - target_secs).abs() <= eps_secs && p.cost_secs <= target_secs {
            return Some((f, p));
        }
        // Overshooting candidate: keep narrowing from below.
        if high - low < 1e-9 {
            break;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ops::{PhysTree, StageEnv};
    use eram_relalg::{Catalog, CmpOp, Expr, Predicate};
    use eram_storage::Rng;
    use eram_storage::{ColumnType, DeviceProfile, Disk, HeapFile, Schema, SimClock, Tuple, Value};
    use std::sync::Arc;

    fn setup(n: i64) -> (Arc<Disk>, Catalog) {
        let disk = Disk::new(
            Arc::new(SimClock::new()),
            DeviceProfile::sun_3_60().without_jitter(),
            3,
        );
        let mut cat = Catalog::new();
        let schema =
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200);
        let hf = HeapFile::load(
            disk.clone(),
            schema,
            (0..n).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])),
        )
        .unwrap();
        cat.register("r", hf);
        let schema2 =
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200);
        let hf2 = HeapFile::load(
            disk.clone(),
            schema2,
            (0..n).map(|i| Tuple::new(vec![Value::Int(i * 2), Value::Int(i % 10)])),
        )
        .unwrap();
        cat.register("s", hf2);
        (disk, cat)
    }

    fn tree(expr: &Expr, disk: &Arc<Disk>, cat: &Catalog) -> PhysTree {
        let cfg = EngineConfig::default();
        PhysTree::build(expr, cat, disk, &cfg, &mut Rng::seed_from_u64(11)).unwrap()
    }

    #[test]
    fn cost_is_monotone_in_fraction() {
        let (disk, cat) = setup(10_000);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 5));
        let t = tree(&expr, &disk, &cat);
        let model = CostModel::generic_default();
        let policy = SelPolicy::Mean;
        let mut last = 0.0;
        for f in [0.001, 0.01, 0.05, 0.2, 0.5, 1.0] {
            let p = predict_stage(std::slice::from_ref(&t), f, &model, &policy);
            assert!(p.cost_secs >= last, "cost must not decrease with f (f={f})");
            last = p.cost_secs;
        }
    }

    #[test]
    fn inflated_policy_predicts_higher_cost_than_mean() {
        let (disk, cat) = setup(10_000);
        let expr = Expr::relation("r").join(Expr::relation("s"), vec![(0, 0)]);
        let mut t = tree(&expr, &disk, &cat);
        // Give the tracker some data so inflation has a variance.
        let cfg = EngineConfig::default();
        let mut env = StageEnv::new(disk.clone(), &cfg, None, 0.01);
        t.advance(&mut env).unwrap();
        let model = CostModel::generic_default();
        let mean = predict_stage(std::slice::from_ref(&t), 0.05, &model, &SelPolicy::Mean);
        let inflated = predict_stage(
            std::slice::from_ref(&t),
            0.05,
            &model,
            &SelPolicy::Inflated { d_beta: 48.0 },
        );
        assert!(inflated.cost_secs > mean.cost_secs);
    }

    #[test]
    fn solve_fraction_meets_target() {
        let (disk, cat) = setup(10_000);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 5));
        let t = tree(&expr, &disk, &cat);
        let model = CostModel::generic_default();
        let policy = SelPolicy::Inflated { d_beta: 0.0 };
        let trees = [t];
        let (f, p) = solve_fraction(&trees, &model, &policy, 10.0, 0.05).unwrap();
        assert!(f > 0.0 && f <= 1.0);
        assert!(p.cost_secs <= 10.0);
        assert!(
            p.cost_secs > 8.0,
            "should use most of the target: got {}",
            p.cost_secs
        );
    }

    #[test]
    fn solve_fraction_monotone_in_target() {
        let (disk, cat) = setup(10_000);
        let expr = Expr::relation("r").select(Predicate::True);
        let t = tree(&expr, &disk, &cat);
        let model = CostModel::generic_default();
        let policy = SelPolicy::Mean;
        let trees = [t];
        let mut last_f = 0.0;
        for target in [2.0, 5.0, 20.0, 100.0] {
            let (f, _) = solve_fraction(&trees, &model, &policy, target, 0.05).unwrap();
            assert!(f >= last_f, "fraction must grow with target");
            last_f = f;
        }
    }

    #[test]
    fn solve_fraction_refuses_impossible_target() {
        let (disk, cat) = setup(10_000);
        let expr = Expr::relation("r").select(Predicate::True);
        let t = tree(&expr, &disk, &cat);
        let model = CostModel::generic_default();
        let policy = SelPolicy::Mean;
        assert!(solve_fraction(&[t], &model, &policy, 1e-6, 1e-9).is_none());
    }

    #[test]
    fn census_affordable_returns_full_fraction() {
        let (disk, cat) = setup(100);
        let expr = Expr::relation("r");
        let t = tree(&expr, &disk, &cat);
        let model = CostModel::generic_default();
        let policy = SelPolicy::Mean;
        let (f, _) = solve_fraction(&[t], &model, &policy, 1e9, 0.05).unwrap();
        assert_eq!(f, 1.0);
    }

    #[test]
    fn operator_count_matches_structure() {
        let (disk, cat) = setup(100);
        let expr = Expr::relation("r")
            .select(Predicate::True)
            .join(Expr::relation("s"), vec![(0, 0)])
            .project(vec![0]);
        let t = tree(&expr, &disk, &cat);
        assert_eq!(count_operators(std::slice::from_ref(&t)), 3);
    }

    #[test]
    fn per_op_policy_receives_every_operator() {
        let (disk, cat) = setup(100);
        let expr = Expr::relation("r")
            .select(Predicate::True)
            .join(Expr::relation("s"), vec![(0, 0)]);
        let t = tree(&expr, &disk, &cat);
        let seen = std::cell::RefCell::new(Vec::new());
        let policy = SelPolicy::PerOp(&|i, tracker, _| {
            seen.borrow_mut().push((i, tracker.kind()));
            0.5
        });
        let model = CostModel::generic_default();
        let _ = predict_stage(std::slice::from_ref(&t), 0.1, &model, &policy);
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 2);
        // Indices are assigned pre-order (join = 0, select = 1) but
        // the walk asks for selectivities bottom-up, so the select is
        // consulted first.
        let mut indices: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![1, 0]);
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1]);
    }

    /// With a jitter-free device, informed coefficients, and a
    /// deterministic selectivity (a predicate every tuple passes),
    /// the prediction walk must reproduce the actual charged stage
    /// cost almost exactly — the invariant that makes
    /// Sample-Size-Determine meaningful. (With a *sampled*
    /// selectivity the residual is the stage-to-stage sampling noise
    /// the d_β machinery exists to absorb.)
    #[test]
    fn prediction_matches_actual_charges_when_informed() {
        let (disk, cat) = setup(10_000);
        let expr = Expr::relation("r").select(Predicate::True);
        let mut t = tree(&expr, &disk, &cat);
        let mut model = CostModel::oracle(disk.profile(), 5.0);
        // Stage 1 informs the tracker and fine-tunes coefficients.
        let cfg = EngineConfig::default();
        let mut env = StageEnv::new(disk.clone(), &cfg, None, 0.01);
        t.advance(&mut env).unwrap();
        for o in &env.observations {
            model.observe(o.coeff, o.units, o.elapsed);
        }
        // Predict stage 2 at a fixed fraction, then run it.
        let f = 0.02;
        let predicted = predict_stage(std::slice::from_ref(&t), f, &model, &SelPolicy::Mean)
            .cost_secs
            - model.predict(CostCoeff::StageOverhead, 1.0);
        let before = disk.clock().elapsed();
        let mut env = StageEnv::new(disk.clone(), &cfg, None, f);
        t.advance(&mut env).unwrap();
        let actual = (disk.clock().elapsed() - before).as_secs_f64();
        let rel = (predicted - actual).abs() / actual;
        assert!(
            rel < 0.02,
            "prediction {predicted:.3}s vs actual {actual:.3}s (rel {rel:.3})"
        );
    }

    #[test]
    fn full_fulfillment_merge_units_grow_with_stages() {
        let (disk, cat) = setup(10_000);
        let expr = Expr::relation("r").intersect(Expr::relation("s"));
        let mut t = tree(&expr, &disk, &cat);
        let model = CostModel::generic_default();
        let c1 = predict_stage(std::slice::from_ref(&t), 0.01, &model, &SelPolicy::Mean).cost_secs;
        let cfg = EngineConfig::default();
        // Advance two stages; the run grid grows, so the same f costs
        // more at the next stage (eq. 4.4's stage dependence).
        for _ in 0..2 {
            let mut env = StageEnv::new(disk.clone(), &cfg, None, 0.01);
            t.advance(&mut env).unwrap();
        }
        let model = CostModel::generic_default();
        let c3 = predict_stage(std::slice::from_ref(&t), 0.01, &model, &SelPolicy::Mean).cost_secs;
        assert!(c3 > c1, "stage cost should grow: {c1} → {c3}");
    }
}
