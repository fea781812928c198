//! The relational-algebra expression AST.
//!
//! The paper's query language is relational algebra over six
//! operators: Select, Project, Join (equi-join), Union, Difference,
//! and Intersect. `COUNT(E)` queries over arbitrary such `E` are the
//! object of the whole system.

use eram_storage::json::{unknown_variant, FromJson, Json, JsonError, ToJson};
use eram_storage::{json, Schema};

use crate::catalog::Catalog;
use crate::predicate::Predicate;

/// Errors from building or validating expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    /// A leaf referenced a relation name the catalog does not know.
    UnknownRelation(String),
    /// A column index exceeded the input arity.
    ColumnOutOfRange {
        /// Offending index.
        column: usize,
        /// Input arity.
        arity: usize,
    },
    /// A comparison's two operands have different types. `Value`'s
    /// total order ranks different types by tag, so such an atom
    /// would hold for every tuple or for none whatever the data says.
    ComparisonTypeMismatch {
        /// The atom as the query language writes it (`#1 >= 50`).
        atom: String,
        /// Type of the left operand (`int`, `float`, `bool`, `str`).
        left: &'static str,
        /// Type of the right operand.
        right: &'static str,
    },
    /// Set-operation operands are not degree/attribute compatible.
    IncompatibleSchemas(String),
    /// A projection list was empty.
    EmptyProjection,
    /// An equi-join had no join attributes.
    EmptyJoinKeys,
    /// The inclusion–exclusion rewrite cannot soundly distribute a
    /// projection over difference/intersection (set cardinality is not
    /// preserved); the paper's query class does not require it.
    ProjectionOverSetOp,
}

impl std::fmt::Display for ExprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExprError::UnknownRelation(name) => write!(f, "unknown relation {name:?}"),
            ExprError::ColumnOutOfRange { column, arity } => {
                write!(f, "column #{column} out of range for arity {arity}")
            }
            ExprError::ComparisonTypeMismatch { atom, left, right } => write!(
                f,
                "comparison operand types differ in `{atom}`: {left} vs {right}"
            ),
            ExprError::IncompatibleSchemas(msg) => {
                write!(f, "incompatible schemas for set operation: {msg}")
            }
            ExprError::EmptyProjection => write!(f, "projection list must not be empty"),
            ExprError::EmptyJoinKeys => write!(f, "equi-join needs at least one key pair"),
            ExprError::ProjectionOverSetOp => write!(
                f,
                "cannot rewrite: projection above difference/intersection \
                 does not distribute under set semantics"
            ),
        }
    }
}

impl std::error::Error for ExprError {}

/// The kind of an operator node (for selectivity tracking and cost
/// formulas, which are per-operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Selection.
    Select,
    /// Projection (duplicate-eliminating).
    Project,
    /// Equi-join.
    Join,
    /// Set union.
    Union,
    /// Set difference.
    Difference,
    /// Set intersection.
    Intersect,
}

/// A relational-algebra expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// A named base relation.
    Relation(String),
    /// `σ_predicate(input)`.
    Select {
        /// Input expression.
        input: Box<Expr>,
        /// Selection formula.
        predicate: Predicate,
    },
    /// `π_columns(input)` with duplicate elimination (set semantics).
    Project {
        /// Input expression.
        input: Box<Expr>,
        /// Output columns, by input index, in output order.
        columns: Vec<usize>,
    },
    /// Equi-join on pairs `(left column, right column)`.
    Join {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
        /// Join key pairs.
        on: Vec<(usize, usize)>,
    },
    /// `left ∪ right`.
    Union {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
    },
    /// `left − right`.
    Difference {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
    },
    /// `left ∩ right`.
    Intersect {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
    },
}

/// `{"Relation": "r"}`, or `{"<Operator>": {<named operands>}}`.
impl ToJson for Expr {
    fn to_json(&self) -> Json {
        match self {
            Expr::Relation(name) => Json::variant("Relation", name.to_json()),
            Expr::Select { input, predicate } => {
                Json::variant("Select", json!({"input": input, "predicate": predicate}))
            }
            Expr::Project { input, columns } => {
                Json::variant("Project", json!({"input": input, "columns": columns}))
            }
            Expr::Join { left, right, on } => {
                Json::variant("Join", json!({"left": left, "right": right, "on": on}))
            }
            Expr::Union { left, right } => {
                Json::variant("Union", json!({"left": left, "right": right}))
            }
            Expr::Difference { left, right } => {
                Json::variant("Difference", json!({"left": left, "right": right}))
            }
            Expr::Intersect { left, right } => {
                Json::variant("Intersect", json!({"left": left, "right": right}))
            }
        }
    }
}

impl FromJson for Expr {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let (name, v) = value.as_variant()?;
        Ok(match name {
            "Relation" => Expr::Relation(String::from_json(v)?),
            "Select" => Expr::Select {
                input: v.field("input")?,
                predicate: v.field("predicate")?,
            },
            "Project" => Expr::Project {
                input: v.field("input")?,
                columns: v.field("columns")?,
            },
            "Join" => Expr::Join {
                left: v.field("left")?,
                right: v.field("right")?,
                on: v.field("on")?,
            },
            "Union" => Expr::Union {
                left: v.field("left")?,
                right: v.field("right")?,
            },
            "Difference" => Expr::Difference {
                left: v.field("left")?,
                right: v.field("right")?,
            },
            "Intersect" => Expr::Intersect {
                left: v.field("left")?,
                right: v.field("right")?,
            },
            other => return Err(unknown_variant("Expr", other)),
        })
    }
}

impl Expr {
    /// A base-relation leaf.
    pub fn relation(name: impl Into<String>) -> Expr {
        Expr::Relation(name.into())
    }

    /// Wraps this expression in a selection.
    pub fn select(self, predicate: Predicate) -> Expr {
        Expr::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Wraps this expression in a projection.
    pub fn project(self, columns: Vec<usize>) -> Expr {
        Expr::Project {
            input: Box::new(self),
            columns,
        }
    }

    /// Equi-joins this expression with `right`.
    pub fn join(self, right: Expr, on: Vec<(usize, usize)>) -> Expr {
        Expr::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
        }
    }

    /// Unions this expression with `right`.
    pub fn union(self, right: Expr) -> Expr {
        Expr::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Subtracts `right` from this expression.
    pub fn difference(self, right: Expr) -> Expr {
        Expr::Difference {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Intersects this expression with `right`.
    pub fn intersect(self, right: Expr) -> Expr {
        Expr::Intersect {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// The operator kind of this node (`None` for leaves).
    pub fn op_kind(&self) -> Option<OpKind> {
        match self {
            Expr::Relation(_) => None,
            Expr::Select { .. } => Some(OpKind::Select),
            Expr::Project { .. } => Some(OpKind::Project),
            Expr::Join { .. } => Some(OpKind::Join),
            Expr::Union { .. } => Some(OpKind::Union),
            Expr::Difference { .. } => Some(OpKind::Difference),
            Expr::Intersect { .. } => Some(OpKind::Intersect),
        }
    }

    /// Child expressions, left to right.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Relation(_) => vec![],
            Expr::Select { input, .. } | Expr::Project { input, .. } => vec![input],
            Expr::Join { left, right, .. }
            | Expr::Union { left, right }
            | Expr::Difference { left, right }
            | Expr::Intersect { left, right } => vec![left, right],
        }
    }

    /// True if the expression contains a projection anywhere
    /// (COUNT then needs Goodman's estimator).
    pub fn contains_projection(&self) -> bool {
        matches!(self, Expr::Project { .. })
            || self.children().iter().any(|c| c.contains_projection())
    }

    /// True if the expression contains union or difference anywhere
    /// (COUNT then needs the inclusion–exclusion rewrite first).
    pub fn contains_union_or_difference(&self) -> bool {
        matches!(self, Expr::Union { .. } | Expr::Difference { .. })
            || self
                .children()
                .iter()
                .any(|c| c.contains_union_or_difference())
    }

    /// Number of operator nodes (excluding leaves).
    pub fn num_operators(&self) -> usize {
        let own = usize::from(self.op_kind().is_some());
        own + self
            .children()
            .iter()
            .map(|c| c.num_operators())
            .sum::<usize>()
    }

    /// Infers the output schema and validates the whole expression
    /// against `catalog`.
    pub fn output_schema(&self, catalog: &Catalog) -> Result<Schema, ExprError> {
        match self {
            Expr::Relation(name) => catalog
                .schema_of(name)
                .cloned()
                .ok_or_else(|| ExprError::UnknownRelation(name.clone())),
            Expr::Select { input, predicate } => {
                let schema = input.output_schema(catalog)?;
                predicate.validate(&schema)?;
                Ok(schema)
            }
            Expr::Project { input, columns } => {
                if columns.is_empty() {
                    return Err(ExprError::EmptyProjection);
                }
                let schema = input.output_schema(catalog)?;
                for &c in columns {
                    if c >= schema.arity() {
                        return Err(ExprError::ColumnOutOfRange {
                            column: c,
                            arity: schema.arity(),
                        });
                    }
                }
                Ok(schema.project(columns))
            }
            Expr::Join { left, right, on } => {
                if on.is_empty() {
                    return Err(ExprError::EmptyJoinKeys);
                }
                let ls = left.output_schema(catalog)?;
                let rs = right.output_schema(catalog)?;
                for &(l, r) in on {
                    if l >= ls.arity() {
                        return Err(ExprError::ColumnOutOfRange {
                            column: l,
                            arity: ls.arity(),
                        });
                    }
                    if r >= rs.arity() {
                        return Err(ExprError::ColumnOutOfRange {
                            column: r,
                            arity: rs.arity(),
                        });
                    }
                    if ls.columns()[l].ty != rs.columns()[r].ty {
                        return Err(ExprError::IncompatibleSchemas(format!(
                            "join key types differ at pair (#{l}, #{r})"
                        )));
                    }
                }
                Ok(ls.concat(&rs))
            }
            Expr::Union { left, right }
            | Expr::Difference { left, right }
            | Expr::Intersect { left, right } => {
                let ls = left.output_schema(catalog)?;
                let rs = right.output_schema(catalog)?;
                if !ls.compatible_with(&rs) {
                    return Err(ExprError::IncompatibleSchemas(format!(
                        "arity {} vs {}",
                        ls.arity(),
                        rs.arity()
                    )));
                }
                Ok(ls)
            }
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Relation(name) => write!(f, "{name}"),
            Expr::Select { input, predicate } => write!(f, "select[{predicate}]({input})"),
            Expr::Project { input, columns } => {
                write!(f, "project[")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "#{c}")?;
                }
                write!(f, "]({input})")
            }
            Expr::Join { left, right, on } => {
                write!(f, "join[")?;
                for (i, (l, r)) in on.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "#{l}=#{r}")?;
                }
                write!(f, "]({left}, {right})")
            }
            Expr::Union { left, right } => write!(f, "({left} union {right})"),
            Expr::Difference { left, right } => write!(f, "({left} minus {right})"),
            Expr::Intersect { left, right } => write!(f, "({left} intersect {right})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use eram_storage::{ColumnType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_schema(
            "r1",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]),
        );
        c.register_schema(
            "r2",
            Schema::new(vec![("x", ColumnType::Int), ("y", ColumnType::Int)]),
        );
        c.register_schema("s", Schema::new(vec![("k", ColumnType::Bool)]));
        c
    }

    #[test]
    fn schema_inference_for_every_operator() {
        let c = catalog();
        let r1 = Expr::relation("r1");
        let r2 = Expr::relation("r2");

        assert_eq!(
            r1.clone()
                .select(Predicate::col_cmp(0, CmpOp::Gt, 1))
                .output_schema(&c)
                .unwrap()
                .arity(),
            2
        );
        assert_eq!(
            r1.clone()
                .project(vec![1])
                .output_schema(&c)
                .unwrap()
                .arity(),
            1
        );
        assert_eq!(
            r1.clone()
                .join(r2.clone(), vec![(0, 0)])
                .output_schema(&c)
                .unwrap()
                .arity(),
            4
        );
        assert_eq!(
            r1.clone()
                .union(r2.clone())
                .output_schema(&c)
                .unwrap()
                .arity(),
            2
        );
        assert_eq!(
            r1.clone()
                .difference(r2.clone())
                .output_schema(&c)
                .unwrap()
                .arity(),
            2
        );
        assert_eq!(r1.intersect(r2).output_schema(&c).unwrap().arity(), 2);
    }

    #[test]
    fn validation_errors() {
        let c = catalog();
        assert!(matches!(
            Expr::relation("nope").output_schema(&c),
            Err(ExprError::UnknownRelation(_))
        ));
        assert!(matches!(
            Expr::relation("r1").project(vec![5]).output_schema(&c),
            Err(ExprError::ColumnOutOfRange { .. })
        ));
        assert!(matches!(
            Expr::relation("r1").project(vec![]).output_schema(&c),
            Err(ExprError::EmptyProjection)
        ));
        assert!(matches!(
            Expr::relation("r1")
                .join(Expr::relation("r2"), vec![])
                .output_schema(&c),
            Err(ExprError::EmptyJoinKeys)
        ));
        assert!(matches!(
            Expr::relation("r1")
                .union(Expr::relation("s"))
                .output_schema(&c),
            Err(ExprError::IncompatibleSchemas(_))
        ));
        assert!(matches!(
            Expr::relation("r1")
                .select(Predicate::col_cmp(9, CmpOp::Eq, 0))
                .output_schema(&c),
            Err(ExprError::ColumnOutOfRange { .. })
        ));
    }

    #[test]
    fn structural_queries() {
        let e = Expr::relation("r1")
            .join(Expr::relation("r2"), vec![(0, 0)])
            .select(Predicate::True)
            .union(
                Expr::relation("r1")
                    .project(vec![0])
                    .join(Expr::relation("r2").project(vec![0]), vec![(0, 0)]),
            );
        assert!(e.contains_projection());
        assert!(e.contains_union_or_difference());
        assert_eq!(e.num_operators(), 6);
    }

    #[test]
    fn display_round_trips_structure() {
        let e = Expr::relation("r1")
            .select(Predicate::col_cmp(0, CmpOp::Lt, 3))
            .intersect(Expr::relation("r2"));
        assert_eq!(e.to_string(), "(select[#0 < 3](r1) intersect r2)");
    }

    #[test]
    fn join_type_mismatch_detected() {
        let c = catalog();
        let e = Expr::relation("r1").join(Expr::relation("s"), vec![(0, 0)]);
        assert!(matches!(
            e.output_schema(&c),
            Err(ExprError::IncompatibleSchemas(_))
        ));
    }
}
