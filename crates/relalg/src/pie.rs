//! The Principle of Inclusion–Exclusion rewrite.
//!
//! Section 2 of the paper: "We first transform `COUNT(E)` into
//! `Σᵢ COUNT(Eᵢ')` using the Principle of Inclusion and Exclusion,
//! where `Eᵢ'` is an RA expression containing only Select, Join,
//! Intersect and Project operations" — so union and difference never
//! have to be estimated directly ("union and difference operations
//! are replaced by the intersection operation").
//!
//! ## Method
//!
//! We expand the *indicator function* of the expression as a signed
//! polynomial over indicator products. Writing `1_E(t)` for "tuple
//! `t` is in the output of `E`", set algebra gives
//!
//! ```text
//! 1_{A ∪ B} = 1_A + 1_B − 1_A·1_B
//! 1_{A − B} = 1_A − 1_A·1_B
//! 1_{A ∩ B} = 1_A·1_B
//! ```
//!
//! and a product of indicators is the indicator of an intersection.
//! Summing over the tuple domain turns each monomial into a `COUNT`
//! of a union/difference-free expression, handling arbitrarily nested
//! set operations (the textbook two-term identities
//! `COUNT(A∪B) = COUNT(A)+COUNT(B)−COUNT(A∩B)` and
//! `COUNT(A−B) = COUNT(A)−COUNT(A∩B)` are the degenerate cases).
//! Like terms are collected, so e.g. `COUNT(A − A)` rewrites to the
//! empty sum.
//!
//! Selection distributes through the polynomial
//! (`σ_p(E)` intersects `E` with the fixed set of `p`-satisfying
//! tuples, and intersection is the polynomial product); join of two
//! polynomials is the cross product of their terms. Projection is
//! *not* linear — `π(A−B) ≠ π(A)−π(B)` under set semantics — so we
//! first push projections through unions (where `π(A∪B) = πA ∪ πB`
//! does hold) and reject the remaining unsound cases with
//! [`ExprError::ProjectionOverSetOp`]. The paper's query class
//! (Select–Join–Intersect–Project bodies with set operations combined
//! by PIE) never hits that case.

use std::collections::BTreeMap;

use crate::expr::{Expr, ExprError};

/// One signed term of the rewrite: `coefficient · COUNT(expr)` where
/// `expr` contains only Select/Join/Intersect/Project.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountTerm {
    /// Signed integer coefficient (±1 for the classic identities;
    /// larger magnitudes can arise from deep nesting before like-term
    /// collection, never after).
    pub coefficient: i64,
    /// The union/difference-free expression to estimate.
    pub expr: Expr,
}

/// The result of rewriting `COUNT(E)`: `Σᵢ coefficientᵢ · COUNT(exprᵢ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PieRewrite {
    /// The signed terms. Empty when the rewrite proves the count is 0.
    pub terms: Vec<CountTerm>,
}

impl PieRewrite {
    /// Rewrites `COUNT(expr)` into a signed sum of union/difference-
    /// free counts.
    pub fn rewrite(expr: &Expr) -> Result<PieRewrite, ExprError> {
        let pushed = push_project_through_union(expr.clone());
        let poly = expand(&pushed)?;
        let mut terms: Vec<CountTerm> = poly
            .into_iter()
            .filter(|(_, c)| *c != 0)
            .map(|(atoms, coefficient)| CountTerm {
                coefficient,
                expr: fold_intersection(atoms),
            })
            .collect();
        // Deterministic order: positive high-coefficient terms first,
        // then by expression; keeps reports and tests stable.
        terms.sort_by(|a, b| {
            b.coefficient
                .cmp(&a.coefficient)
                .then_with(|| a.expr.cmp(&b.expr))
        });
        Ok(PieRewrite { terms })
    }
}

/// A monomial: the (sorted, deduplicated) set of intersected atoms.
type Atoms = Vec<Expr>;
/// A polynomial: monomial → integer coefficient.
type Poly = BTreeMap<Atoms, i64>;

/// `π(A ∪ B) → π(A) ∪ π(B)`, applied bottom-up everywhere.
fn push_project_through_union(expr: Expr) -> Expr {
    match expr {
        Expr::Relation(_) => expr,
        Expr::Select { input, predicate } => Expr::Select {
            input: Box::new(push_project_through_union(*input)),
            predicate,
        },
        Expr::Project { input, columns } => {
            let input = push_project_through_union(*input);
            if let Expr::Union { left, right } = input {
                let l = push_project_through_union(Expr::Project {
                    input: left,
                    columns: columns.clone(),
                });
                let r = push_project_through_union(Expr::Project {
                    input: right,
                    columns,
                });
                Expr::Union {
                    left: Box::new(l),
                    right: Box::new(r),
                }
            } else {
                Expr::Project {
                    input: Box::new(input),
                    columns,
                }
            }
        }
        Expr::Join { left, right, on } => Expr::Join {
            left: Box::new(push_project_through_union(*left)),
            right: Box::new(push_project_through_union(*right)),
            on,
        },
        Expr::Union { left, right } => Expr::Union {
            left: Box::new(push_project_through_union(*left)),
            right: Box::new(push_project_through_union(*right)),
        },
        Expr::Difference { left, right } => Expr::Difference {
            left: Box::new(push_project_through_union(*left)),
            right: Box::new(push_project_through_union(*right)),
        },
        Expr::Intersect { left, right } => Expr::Intersect {
            left: Box::new(push_project_through_union(*left)),
            right: Box::new(push_project_through_union(*right)),
        },
    }
}

fn singleton(expr: Expr) -> Poly {
    let mut p = Poly::new();
    p.insert(vec![expr], 1);
    p
}

fn add_term(poly: &mut Poly, atoms: Atoms, coeff: i64) {
    let entry = poly.entry(atoms).or_insert(0);
    *entry += coeff;
    // Keep the map small: drop cancelled terms eagerly.
    // (BTreeMap::entry gives us no remove-in-place; do it lazily at
    // the end — cancelled terms are filtered in `rewrite`.)
}

fn poly_add(a: Poly, b: &Poly, sign: i64) -> Poly {
    let mut out = a;
    for (atoms, c) in b {
        add_term(&mut out, atoms.clone(), c * sign);
    }
    out
}

fn poly_mul(a: &Poly, b: &Poly) -> Poly {
    let mut out = Poly::new();
    for (aa, ca) in a {
        for (ab, cb) in b {
            let mut atoms: Atoms = aa.iter().chain(ab.iter()).cloned().collect();
            atoms.sort();
            atoms.dedup();
            add_term(&mut out, atoms, ca * cb);
        }
    }
    out
}

/// Collapses every monomial of `p` into a single atom via `f`.
fn map_atoms(p: Poly, f: impl Fn(Expr) -> Expr) -> Poly {
    let mut out = Poly::new();
    for (atoms, c) in p {
        add_term(&mut out, vec![f(fold_intersection(atoms))], c);
    }
    out
}

/// Rebuilds the intersection expression of a monomial's atoms.
fn fold_intersection(atoms: Atoms) -> Expr {
    let mut iter = atoms.into_iter();
    let first = iter.next().expect("monomials are non-empty");
    iter.fold(first, |acc, atom| acc.intersect(atom))
}

fn expand(expr: &Expr) -> Result<Poly, ExprError> {
    match expr {
        Expr::Relation(_) => Ok(singleton(expr.clone())),
        Expr::Select { input, predicate } => {
            // σ_p(Σ cᵢ Tᵢ) = Σ cᵢ σ_p(Tᵢ): selection intersects with a
            // fixed set, which distributes over the signed sum.
            let p = expand(input)?;
            let predicate = predicate.clone();
            Ok(map_atoms(p, move |atom| atom.select(predicate.clone())))
        }
        Expr::Project { input, columns } => {
            let p = expand(input)?;
            if p.len() > 1 || p.values().any(|&c| c != 1) {
                // π over a non-trivial signed sum is unsound
                // (difference/intersection below a projection).
                return Err(ExprError::ProjectionOverSetOp);
            }
            let columns = columns.clone();
            Ok(map_atoms(p, move |atom| atom.project(columns.clone())))
        }
        Expr::Join { left, right, on } => {
            // (Σ cᵢ Tᵢ) ⋈ (Σ dⱼ Sⱼ) = Σᵢⱼ cᵢdⱼ (Tᵢ ⋈ Sⱼ): a joined pair
            // lies in the output iff its halves lie in the operands.
            let pl = expand(left)?;
            let pr = expand(right)?;
            let mut out = Poly::new();
            for (la, lc) in &pl {
                for (ra, rc) in &pr {
                    let atom = fold_intersection(la.clone())
                        .join(fold_intersection(ra.clone()), on.clone());
                    add_term(&mut out, vec![atom], lc * rc);
                }
            }
            Ok(out)
        }
        Expr::Union { left, right } => {
            let pl = expand(left)?;
            let pr = expand(right)?;
            let both = poly_mul(&pl, &pr);
            Ok(poly_add(poly_add(pl, &pr, 1), &both, -1))
        }
        Expr::Difference { left, right } => {
            let pl = expand(left)?;
            let pr = expand(right)?;
            let both = poly_mul(&pl, &pr);
            Ok(poly_add(pl, &both, -1))
        }
        Expr::Intersect { left, right } => {
            let pl = expand(left)?;
            let pr = expand(right)?;
            Ok(poly_mul(&pl, &pr))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};

    fn a() -> Expr {
        Expr::relation("a")
    }
    fn b() -> Expr {
        Expr::relation("b")
    }
    fn c() -> Expr {
        Expr::relation("c")
    }

    fn coeffs(r: &PieRewrite) -> Vec<i64> {
        r.terms.iter().map(|t| t.coefficient).collect()
    }

    #[test]
    fn sji_expression_is_trivial() {
        let e = a()
            .select(Predicate::col_cmp(0, CmpOp::Gt, 0))
            .intersect(b());
        let r = PieRewrite::rewrite(&e).unwrap();
        assert_eq!(coeffs(&r), vec![1]);
        assert!(!r.terms[0].expr.contains_union_or_difference());
    }

    #[test]
    fn union_gives_classic_three_terms() {
        let r = PieRewrite::rewrite(&a().union(b())).unwrap();
        assert_eq!(coeffs(&r), vec![1, 1, -1]);
        let negative = &r.terms[2].expr;
        assert_eq!(negative, &a().intersect(b()));
    }

    #[test]
    fn difference_gives_two_terms() {
        let r = PieRewrite::rewrite(&a().difference(b())).unwrap();
        assert_eq!(coeffs(&r), vec![1, -1]);
        assert_eq!(r.terms[1].expr, a().intersect(b()));
    }

    #[test]
    fn no_term_contains_union_or_difference() {
        let e = a().union(b()).difference(c()).union(a().intersect(c()));
        let r = PieRewrite::rewrite(&e).unwrap();
        assert!(!r.terms.is_empty());
        for t in &r.terms {
            assert!(!t.expr.contains_union_or_difference(), "{}", t.expr);
        }
    }

    #[test]
    fn self_difference_cancels_to_empty() {
        let r = PieRewrite::rewrite(&a().difference(a())).unwrap();
        assert!(r.terms.is_empty());
    }

    #[test]
    fn idempotent_union_collapses() {
        // a ∪ a: 1_a + 1_a − 1_a·1_a = 1_a.
        let r = PieRewrite::rewrite(&a().union(a())).unwrap();
        assert_eq!(r.terms.len(), 1);
        assert_eq!(r.terms[0].coefficient, 1);
        assert_eq!(r.terms[0].expr, a());
    }

    #[test]
    fn selection_distributes_into_terms() {
        let p = Predicate::col_cmp(0, CmpOp::Lt, 5);
        let e = a().union(b()).select(p.clone());
        let r = PieRewrite::rewrite(&e).unwrap();
        assert_eq!(coeffs(&r), vec![1, 1, -1]);
        for t in &r.terms {
            assert!(matches!(t.expr, Expr::Select { .. }), "{}", t.expr);
        }
    }

    #[test]
    fn join_of_unions_cross_multiplies() {
        let e = a().union(b()).join(c(), vec![(0, 0)]);
        let r = PieRewrite::rewrite(&e).unwrap();
        // (a∪b)⋈c → a⋈c + b⋈c − (a∩b)⋈c.
        assert_eq!(coeffs(&r), vec![1, 1, -1]);
        for t in &r.terms {
            assert!(matches!(t.expr, Expr::Join { .. }));
        }
    }

    #[test]
    fn projection_pushes_through_union() {
        let e = a().union(b()).project(vec![0]);
        let r = PieRewrite::rewrite(&e).unwrap();
        // π(a∪b) = πa ∪ πb → COUNT(πa) + COUNT(πb) − COUNT(πa ∩ πb).
        assert_eq!(coeffs(&r), vec![1, 1, -1]);
        assert!(matches!(r.terms[0].expr, Expr::Project { .. }));
        assert!(matches!(r.terms[1].expr, Expr::Project { .. }));
        assert_eq!(
            r.terms[2].expr,
            a().project(vec![0]).intersect(b().project(vec![0]))
        );
    }

    #[test]
    fn projection_over_difference_is_rejected() {
        let e = a().difference(b()).project(vec![0]);
        assert_eq!(PieRewrite::rewrite(&e), Err(ExprError::ProjectionOverSetOp));
    }

    #[test]
    fn nested_unions_collect_like_terms() {
        // (a ∪ b) ∪ a should equal a ∪ b.
        let r1 = PieRewrite::rewrite(&a().union(b()).union(a())).unwrap();
        let r2 = PieRewrite::rewrite(&a().union(b())).unwrap();
        assert_eq!(r1, r2);
    }
}
