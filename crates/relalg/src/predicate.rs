//! Selection formulas.
//!
//! The paper's selection operator evaluates "the qualification F" per
//! tuple; its cost formula charges `c₁` per tuple for "reading a tuple
//! from the disk and checking a tuple for the satisfaction of the
//! selection formula", with the coefficient depending on, among other
//! things, the number of "comparisons in selection formulas". The
//! experiments use formulas with one or two integer comparisons.
//! [`Predicate::num_comparisons`] exposes exactly that parameter.

use eram_storage::json::{unknown_variant, FromJson, Json, JsonError, ToJson};
use eram_storage::{
    json, json_unit_enum, ColumnData, ColumnType, ColumnarBlock, Schema, StorageError, Tuple, Value,
};

use crate::expr::ExprError;

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// A column of the input tuple, by index.
    Column(usize),
    /// A constant.
    Const(Value),
}

/// `{"Column": 2}` or `{"Const": <value>}`.
impl ToJson for Operand {
    fn to_json(&self) -> Json {
        match self {
            Operand::Column(i) => Json::variant("Column", i.to_json()),
            Operand::Const(v) => Json::variant("Const", v.to_json()),
        }
    }
}

impl FromJson for Operand {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_variant()? {
            ("Column", i) => usize::from_json(i).map(Operand::Column),
            ("Const", v) => Value::from_json(v).map(Operand::Const),
            (other, _) => Err(unknown_variant("Operand", other)),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

json_unit_enum!(CmpOp {
    Eq = "Eq",
    Ne = "Ne",
    Lt = "Lt",
    Le = "Le",
    Gt = "Gt",
    Ge = "Ge",
});

impl CmpOp {
    fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A selection formula.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Predicate {
    /// Always true (selects every tuple).
    True,
    /// Always false (selects no tuple; used to produce the paper's
    /// "zero output tuples" selection workload).
    False,
    /// `left op right`.
    Compare {
        /// Left operand.
        left: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

/// `"True"`, `"False"`, `{"Compare": {left, op, right}}`,
/// `{"And": [p, q]}`, `{"Or": [p, q]}`, `{"Not": p}`.
impl ToJson for Predicate {
    fn to_json(&self) -> Json {
        match self {
            Predicate::True => Json::from("True"),
            Predicate::False => Json::from("False"),
            Predicate::Compare { left, op, right } => {
                Json::variant("Compare", json!({"left": left, "op": op, "right": right}))
            }
            Predicate::And(p, q) => Json::variant("And", Json::Arr(vec![p.to_json(), q.to_json()])),
            Predicate::Or(p, q) => Json::variant("Or", Json::Arr(vec![p.to_json(), q.to_json()])),
            Predicate::Not(p) => Json::variant("Not", p.to_json()),
        }
    }
}

impl FromJson for Predicate {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_variant()? {
            ("True", _) => Ok(Predicate::True),
            ("False", _) => Ok(Predicate::False),
            ("Compare", c) => Ok(Predicate::Compare {
                left: c.field("left")?,
                op: c.field("op")?,
                right: c.field("right")?,
            }),
            ("And", pq) => FromJson::from_json(pq).map(|(p, q)| Predicate::And(p, q)),
            ("Or", pq) => FromJson::from_json(pq).map(|(p, q)| Predicate::Or(p, q)),
            ("Not", p) => FromJson::from_json(p).map(Predicate::Not),
            (other, _) => Err(unknown_variant("Predicate", other)),
        }
    }
}

impl Predicate {
    /// `column op constant` — the paper's typical atom.
    pub fn col_cmp(column: usize, op: CmpOp, constant: impl Into<Value>) -> Self {
        Predicate::Compare {
            left: Operand::Column(column),
            op,
            right: Operand::Const(constant.into()),
        }
    }

    /// `column op column`.
    pub fn col_col(left: usize, op: CmpOp, right: usize) -> Self {
        Predicate::Compare {
            left: Operand::Column(left),
            op,
            right: Operand::Column(right),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Number of comparison atoms — the cost-formula parameter the
    /// paper calls "comparisons in selection formulas".
    pub fn num_comparisons(&self) -> u64 {
        match self {
            Predicate::True | Predicate::False => 0,
            Predicate::Compare { .. } => 1,
            Predicate::And(a, b) | Predicate::Or(a, b) => a.num_comparisons() + b.num_comparisons(),
            Predicate::Not(a) => a.num_comparisons(),
        }
    }

    /// Checks the formula against `schema`: every column reference in
    /// range, and the two operands of every comparison of one type.
    /// A formula is valid exactly when it compiles.
    pub fn validate(&self, schema: &Schema) -> Result<(), ExprError> {
        self.compile(schema).map(|_| ())
    }

    /// Binds the formula to `schema`'s record layout: each column
    /// reference becomes a byte offset and a type, so
    /// [`CompiledPredicate::eval`] runs on an encoded record in place.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPredicate, ExprError> {
        Ok(CompiledPredicate {
            root: self.compile_node(schema)?,
            record_size: schema.record_size(),
        })
    }

    fn compile_node(&self, schema: &Schema) -> Result<Compiled, ExprError> {
        Ok(match self {
            Predicate::True => Compiled::Const(true),
            Predicate::False => Compiled::Const(false),
            Predicate::Compare { left, op, right } => {
                let (l, r) = (Resolved::of(left, schema)?, Resolved::of(right, schema)?);
                let atom = if let (Some(a), Some(b)) = (l.int(), r.int()) {
                    Atom::Int(a, b)
                } else if let (Some(a), Some(b)) = (l.float(), r.float()) {
                    Atom::Float(a, b)
                } else if let (Some(a), Some(b)) = (l.bool(), r.bool()) {
                    Atom::Bool(a, b)
                } else if let (Some(a), Some(b)) = (l.str(), r.str()) {
                    Atom::Str(a, b)
                } else {
                    return Err(ExprError::ComparisonTypeMismatch {
                        atom: self.to_string(),
                        left: l.type_name(),
                        right: r.type_name(),
                    });
                };
                Compiled::Compare(*op, atom)
            }
            Predicate::And(a, b) => Compiled::And(
                Box::new(a.compile_node(schema)?),
                Box::new(b.compile_node(schema)?),
            ),
            Predicate::Or(a, b) => Compiled::Or(
                Box::new(a.compile_node(schema)?),
                Box::new(b.compile_node(schema)?),
            ),
            Predicate::Not(a) => Compiled::Not(Box::new(a.compile_node(schema)?)),
        })
    }

    /// Evaluates the formula against a tuple.
    ///
    /// # Panics
    /// Panics if a column index is out of range (call
    /// [`Predicate::validate`] first).
    pub fn eval(&self, t: &Tuple) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Compare { left, op, right } => {
                let l = match left {
                    Operand::Column(i) => t.value(*i),
                    Operand::Const(v) => v,
                };
                let r = match right {
                    Operand::Column(i) => t.value(*i),
                    Operand::Const(v) => v,
                };
                op.apply(l.cmp(r))
            }
            Predicate::And(a, b) => a.eval(t) && b.eval(t),
            Predicate::Or(a, b) => a.eval(t) || b.eval(t),
            Predicate::Not(a) => !a.eval(t),
        }
    }

    /// Evaluates the formula against every record of a columnar
    /// block at once, producing a selection bitmap with one entry per
    /// record.
    ///
    /// This is the columnar counterpart of [`Predicate::eval`] and
    /// must agree with it record for record — the engine's layout
    /// equivalence suites compare the two directly. Comparison atoms
    /// over same-typed operands run as tight loops over the typed
    /// column arrays (floats via `total_cmp`, exactly like
    /// [`Value::cmp`]); mixed-type atoms fall back to materializing
    /// [`Value`]s per record so cross-type ordering stays identical
    /// to the row path.
    ///
    /// # Panics
    /// Panics if a column index is out of range (call
    /// [`Predicate::validate`] first).
    pub fn eval_mask(&self, block: &ColumnarBlock) -> Vec<bool> {
        match self {
            Predicate::True => vec![true; block.len()],
            Predicate::False => vec![false; block.len()],
            Predicate::Compare { left, op, right } => compare_mask(left, *op, right, block),
            Predicate::And(a, b) => {
                let mut m = a.eval_mask(block);
                for (x, y) in m.iter_mut().zip(b.eval_mask(block)) {
                    *x = *x && y;
                }
                m
            }
            Predicate::Or(a, b) => {
                let mut m = a.eval_mask(block);
                for (x, y) in m.iter_mut().zip(b.eval_mask(block)) {
                    *x = *x || y;
                }
                m
            }
            Predicate::Not(a) => {
                let mut m = a.eval_mask(block);
                for x in &mut m {
                    *x = !*x;
                }
                m
            }
        }
    }
}

/// A [`Predicate`] bound to one record layout by
/// [`Predicate::compile`]: the formula evaluates on the encoded
/// record where it lies in the page, with no [`Tuple`] in between.
///
/// The order is [`Value`]'s, type by type — integers and booleans by
/// `Ord`, floats by `total_cmp` (so NaN and the signed zeros order as
/// they do in a decoded tuple), strings as borrowed `&str` — and a
/// comparison across types does not compile.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    root: Compiled,
    record_size: usize,
}

#[derive(Debug, Clone)]
enum Compiled {
    Const(bool),
    Compare(CmpOp, Atom),
    And(Box<Compiled>, Box<Compiled>),
    Or(Box<Compiled>, Box<Compiled>),
    Not(Box<Compiled>),
}

/// One comparison, its operands already of one type.
#[derive(Debug, Clone)]
enum Atom {
    Int(Src<i64>, Src<i64>),
    Float(Src<f64>, Src<f64>),
    Bool(Src<bool>, Src<bool>),
    Str(StrSrc, StrSrc),
}

/// Where a fixed-width operand comes from: the field at a byte
/// offset of the record, or a constant.
#[derive(Debug, Clone, Copy)]
enum Src<T> {
    Field(usize),
    Const(T),
}

/// A string operand: the field at a byte offset (its length prefix)
/// with the column's declared width, or a constant.
#[derive(Debug, Clone)]
enum StrSrc {
    Field { offset: usize, width: u16 },
    Const(String),
}

/// An operand looked up in the schema, before its type is known to
/// match the other side's.
enum Resolved<'a> {
    Field(usize, ColumnType),
    Const(&'a Value),
}

impl<'a> Resolved<'a> {
    fn of(operand: &'a Operand, schema: &Schema) -> Result<Self, ExprError> {
        match operand {
            Operand::Column(i) if *i >= schema.arity() => Err(ExprError::ColumnOutOfRange {
                column: *i,
                arity: schema.arity(),
            }),
            Operand::Column(i) => Ok(Resolved::Field(
                schema.column_offset(*i),
                schema.columns()[*i].ty,
            )),
            Operand::Const(v) => Ok(Resolved::Const(v)),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Resolved::Field(_, ty) => ty.name(),
            Resolved::Const(v) => v.type_name(),
        }
    }

    fn int(&self) -> Option<Src<i64>> {
        match self {
            Resolved::Field(offset, ColumnType::Int) => Some(Src::Field(*offset)),
            Resolved::Const(Value::Int(k)) => Some(Src::Const(*k)),
            _ => None,
        }
    }

    fn float(&self) -> Option<Src<f64>> {
        match self {
            Resolved::Field(offset, ColumnType::Float) => Some(Src::Field(*offset)),
            Resolved::Const(Value::Float(k)) => Some(Src::Const(*k)),
            _ => None,
        }
    }

    fn bool(&self) -> Option<Src<bool>> {
        match self {
            Resolved::Field(offset, ColumnType::Bool) => Some(Src::Field(*offset)),
            Resolved::Const(Value::Bool(k)) => Some(Src::Const(*k)),
            _ => None,
        }
    }

    fn str(&self) -> Option<StrSrc> {
        match self {
            Resolved::Field(offset, ColumnType::Str { width }) => Some(StrSrc::Field {
                offset: *offset,
                width: *width,
            }),
            Resolved::Const(Value::Str(k)) => Some(StrSrc::Const(k.clone())),
            _ => None,
        }
    }
}

fn word(record: &[u8], offset: usize) -> [u8; 8] {
    record[offset..offset + 8].try_into().expect("sized slice")
}

impl Src<i64> {
    fn get(self, record: &[u8]) -> i64 {
        match self {
            Src::Field(offset) => i64::from_le_bytes(word(record, offset)),
            Src::Const(k) => k,
        }
    }
}

impl Src<f64> {
    fn get(self, record: &[u8]) -> f64 {
        match self {
            Src::Field(offset) => f64::from_le_bytes(word(record, offset)),
            Src::Const(k) => k,
        }
    }
}

impl Src<bool> {
    fn get(self, record: &[u8]) -> bool {
        match self {
            Src::Field(offset) => record[offset] != 0,
            Src::Const(k) => k,
        }
    }
}

impl StrSrc {
    fn get<'a>(&'a self, record: &'a [u8]) -> Result<&'a str, StorageError> {
        match self {
            StrSrc::Field { offset, width } => ColumnType::read_str(&record[*offset..], *width),
            StrSrc::Const(k) => Ok(k),
        }
    }
}

impl CompiledPredicate {
    /// Evaluates the formula against one encoded record of the
    /// schema it was compiled for; agrees with [`Predicate::eval`] on
    /// the decoded tuple.
    ///
    /// Only the fields the formula reads are looked at, so only they
    /// can fail: a string field it compares is checked (length,
    /// UTF-8) as a full decode would check it.
    pub fn eval(&self, record: &[u8]) -> Result<bool, StorageError> {
        if record.len() < self.record_size {
            return Err(StorageError::SchemaMismatch(format!(
                "record of {} bytes, predicate compiled for {}",
                record.len(),
                self.record_size
            )));
        }
        self.root.eval(record)
    }
}

impl Compiled {
    fn eval(&self, record: &[u8]) -> Result<bool, StorageError> {
        Ok(match self {
            Compiled::Const(b) => *b,
            Compiled::Compare(op, atom) => op.apply(match atom {
                Atom::Int(l, r) => l.get(record).cmp(&r.get(record)),
                Atom::Float(l, r) => l.get(record).total_cmp(&r.get(record)),
                Atom::Bool(l, r) => l.get(record).cmp(&r.get(record)),
                Atom::Str(l, r) => l.get(record)?.cmp(r.get(record)?),
            }),
            Compiled::And(a, b) => a.eval(record)? && b.eval(record)?,
            Compiled::Or(a, b) => a.eval(record)? || b.eval(record)?,
            Compiled::Not(a) => !a.eval(record)?,
        })
    }
}

/// One comparison atom over a whole block. Same-typed operand pairs
/// take the typed fast path; everything else defers to [`Value`]'s
/// total order per record.
fn compare_mask(left: &Operand, op: CmpOp, right: &Operand, block: &ColumnarBlock) -> Vec<bool> {
    match (left, right) {
        (Operand::Const(l), Operand::Const(r)) => vec![op.apply(l.cmp(r)); block.len()],
        (Operand::Column(i), Operand::Const(v)) => match (block.column(*i), v) {
            (ColumnData::Int(col), Value::Int(k)) => {
                col.iter().map(|x| op.apply(x.cmp(k))).collect()
            }
            (ColumnData::Float(col), Value::Float(k)) => {
                col.iter().map(|x| op.apply(x.total_cmp(k))).collect()
            }
            (ColumnData::Bool(col), Value::Bool(k)) => {
                col.iter().map(|x| op.apply(x.cmp(k))).collect()
            }
            (ColumnData::Str(col), Value::Str(k)) => col
                .iter()
                .map(|x| op.apply(x.as_str().cmp(k.as_str())))
                .collect(),
            (col, v) => (0..block.len())
                .map(|r| op.apply(col.value(r).cmp(v)))
                .collect(),
        },
        (Operand::Const(v), Operand::Column(i)) => match (v, block.column(*i)) {
            (Value::Int(k), ColumnData::Int(col)) => {
                col.iter().map(|x| op.apply(k.cmp(x))).collect()
            }
            (Value::Float(k), ColumnData::Float(col)) => {
                col.iter().map(|x| op.apply(k.total_cmp(x))).collect()
            }
            (Value::Bool(k), ColumnData::Bool(col)) => {
                col.iter().map(|x| op.apply(k.cmp(x))).collect()
            }
            (Value::Str(k), ColumnData::Str(col)) => col
                .iter()
                .map(|x| op.apply(k.as_str().cmp(x.as_str())))
                .collect(),
            (v, col) => (0..block.len())
                .map(|r| op.apply(v.cmp(&col.value(r))))
                .collect(),
        },
        (Operand::Column(i), Operand::Column(j)) => match (block.column(*i), block.column(*j)) {
            (ColumnData::Int(a), ColumnData::Int(b)) => {
                a.iter().zip(b).map(|(x, y)| op.apply(x.cmp(y))).collect()
            }
            (ColumnData::Float(a), ColumnData::Float(b)) => a
                .iter()
                .zip(b)
                .map(|(x, y)| op.apply(x.total_cmp(y)))
                .collect(),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => {
                a.iter().zip(b).map(|(x, y)| op.apply(x.cmp(y))).collect()
            }
            (ColumnData::Str(a), ColumnData::Str(b)) => {
                a.iter().zip(b).map(|(x, y)| op.apply(x.cmp(y))).collect()
            }
            (a, b) => (0..block.len())
                .map(|r| op.apply(a.value(r).cmp(&b.value(r))))
                .collect(),
        },
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Compare { left, op, right } => {
                let sym = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                let fmt_operand = |f: &mut std::fmt::Formatter<'_>, o: &Operand| match o {
                    Operand::Column(i) => write!(f, "#{i}"),
                    Operand::Const(v) => write!(f, "{v}"),
                };
                fmt_operand(f, left)?;
                write!(f, " {sym} ")?;
                fmt_operand(f, right)
            }
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
            Predicate::Not(a) => write!(f, "not ({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: Vec<i64>) -> Tuple {
        Tuple::new(values.into_iter().map(Value::Int).collect())
    }

    #[test]
    fn comparisons_evaluate_correctly() {
        let row = t(vec![5, 10]);
        assert!(Predicate::col_cmp(0, CmpOp::Eq, 5).eval(&row));
        assert!(Predicate::col_cmp(0, CmpOp::Lt, 6).eval(&row));
        assert!(Predicate::col_cmp(1, CmpOp::Ge, 10).eval(&row));
        assert!(!Predicate::col_cmp(1, CmpOp::Ne, 10).eval(&row));
        assert!(Predicate::col_col(0, CmpOp::Lt, 1).eval(&row));
    }

    #[test]
    fn boolean_connectives() {
        let row = t(vec![5]);
        let p = Predicate::col_cmp(0, CmpOp::Gt, 0).and(Predicate::col_cmp(0, CmpOp::Lt, 10));
        assert!(p.eval(&row));
        let q = Predicate::col_cmp(0, CmpOp::Gt, 7).or(Predicate::col_cmp(0, CmpOp::Lt, 7));
        assert!(q.eval(&row));
        assert!(!q.clone().not().eval(&row));
        assert!(Predicate::True.eval(&row));
        assert!(!Predicate::False.eval(&row));
    }

    #[test]
    fn comparison_count_matches_structure() {
        let p = Predicate::col_cmp(0, CmpOp::Gt, 1)
            .and(Predicate::col_cmp(0, CmpOp::Lt, 9).or(Predicate::True))
            .not();
        assert_eq!(p.num_comparisons(), 2);
        assert_eq!(Predicate::False.num_comparisons(), 0);
    }

    #[test]
    fn validate_catches_bad_columns() {
        let schema = Schema::new(vec![("a", ColumnType::Int)]);
        assert!(Predicate::col_cmp(0, CmpOp::Eq, 1)
            .validate(&schema)
            .is_ok());
        assert!(Predicate::col_cmp(1, CmpOp::Eq, 1)
            .validate(&schema)
            .is_err());
        assert!(Predicate::col_col(0, CmpOp::Lt, 3)
            .validate(&schema)
            .is_err());
    }

    fn typed_schema() -> Schema {
        Schema::new(vec![
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("b", ColumnType::Bool),
            ("s", ColumnType::Str { width: 8 }),
            ("t", ColumnType::Str { width: 3 }),
        ])
    }

    #[test]
    fn validate_refuses_every_cross_type_column_constant_pair() {
        // `Value::cmp` orders different types by tag, so `#1 >= 50`
        // on a float column would hold for every row: the atom must
        // not validate, whichever pair of types it mixes.
        let schema = typed_schema();
        let constants = [
            Value::Int(50),
            Value::Float(50.0),
            Value::Bool(true),
            Value::Str("50".into()),
        ];
        let names = ["int", "float", "bool", "str"];
        for (column, column_ty) in names.iter().enumerate() {
            for (constant, constant_ty) in constants.iter().zip(names) {
                let p = Predicate::col_cmp(column, CmpOp::Ge, constant.clone());
                let flipped = Predicate::Compare {
                    left: Operand::Const(constant.clone()),
                    op: CmpOp::Ge,
                    right: Operand::Column(column),
                };
                if *column_ty == constant_ty {
                    assert_eq!(p.validate(&schema), Ok(()), "{p}");
                    assert_eq!(flipped.validate(&schema), Ok(()), "{flipped}");
                } else {
                    assert_eq!(
                        p.validate(&schema),
                        Err(ExprError::ComparisonTypeMismatch {
                            atom: p.to_string(),
                            left: column_ty,
                            right: constant_ty,
                        })
                    );
                    assert_eq!(
                        flipped.validate(&schema),
                        Err(ExprError::ComparisonTypeMismatch {
                            atom: flipped.to_string(),
                            left: constant_ty,
                            right: column_ty,
                        })
                    );
                }
            }
        }
    }

    #[test]
    fn validate_checks_types_of_column_pairs_constants_and_nested_atoms() {
        let schema = typed_schema();
        // Strings of different widths share one order.
        assert_eq!(
            Predicate::col_col(3, CmpOp::Lt, 4).validate(&schema),
            Ok(())
        );
        assert!(matches!(
            Predicate::col_col(0, CmpOp::Lt, 1).validate(&schema),
            Err(ExprError::ComparisonTypeMismatch {
                left: "int",
                right: "float",
                ..
            })
        ));
        let consts = |l: Value, r: Value| Predicate::Compare {
            left: Operand::Const(l),
            op: CmpOp::Eq,
            right: Operand::Const(r),
        };
        assert_eq!(consts(1i64.into(), 2i64.into()).validate(&schema), Ok(()));
        assert!(consts(1i64.into(), 2.0f64.into())
            .validate(&schema)
            .is_err());
        // The mismatch is found wherever the atom sits, and the
        // message names it.
        let nested = Predicate::col_cmp(0, CmpOp::Lt, 3i64).and(
            Predicate::col_cmp(1, CmpOp::Ge, 50i64)
                .not()
                .or(Predicate::True),
        );
        let err = nested.validate(&schema).unwrap_err();
        assert_eq!(
            err.to_string(),
            "comparison operand types differ in `#1 >= 50`: float vs int"
        );
        // A bad column is still reported as such, before any type.
        assert!(matches!(
            Predicate::col_cmp(9, CmpOp::Eq, 1.5f64).validate(&schema),
            Err(ExprError::ColumnOutOfRange {
                column: 9,
                arity: 5
            })
        ));
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::col_cmp(0, CmpOp::Le, 3).and(Predicate::col_col(1, CmpOp::Eq, 2));
        assert_eq!(p.to_string(), "(#0 <= 3 and #1 = #2)");
    }

    fn mixed_rows() -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(vec![
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("b", ColumnType::Bool),
            ("s", ColumnType::Str { width: 8 }),
            ("j", ColumnType::Int),
        ]);
        let rows = (0..17)
            .map(|k| {
                Tuple::new(vec![
                    Value::Int(k % 5 - 2),
                    Value::Float(if k == 7 {
                        f64::NAN
                    } else {
                        k as f64 * 0.5 - 3.0
                    }),
                    Value::Bool(k % 3 == 0),
                    Value::Str(format!("s{}", k % 4)),
                    Value::Int(k % 2),
                ])
            })
            .collect();
        (schema, rows)
    }

    fn assert_mask_matches_eval(p: &Predicate, schema: &Schema, rows: &[Tuple]) {
        let block = eram_storage::ColumnarBlock::from_tuples(schema, rows).unwrap();
        let mask = p.eval_mask(&block);
        let expect: Vec<bool> = rows.iter().map(|t| p.eval(t)).collect();
        assert_eq!(mask, expect, "eval_mask diverged from eval for {p}");
    }

    #[test]
    fn eval_mask_agrees_with_eval_on_every_atom_shape() {
        let (schema, rows) = mixed_rows();
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for op in ops {
            // Typed fast paths, one per column type.
            assert_mask_matches_eval(&Predicate::col_cmp(0, op, 0i64), &schema, &rows);
            assert_mask_matches_eval(&Predicate::col_cmp(1, op, 0.5f64), &schema, &rows);
            assert_mask_matches_eval(&Predicate::col_cmp(2, op, true), &schema, &rows);
            assert_mask_matches_eval(&Predicate::col_cmp(3, op, "s2"), &schema, &rows);
            // NaN handling must follow total_cmp like the row path.
            assert_mask_matches_eval(&Predicate::col_cmp(1, op, f64::NAN), &schema, &rows);
            // Column-to-column, same type and mixed type.
            assert_mask_matches_eval(&Predicate::col_col(0, op, 4), &schema, &rows);
            assert_mask_matches_eval(&Predicate::col_col(0, op, 1), &schema, &rows);
            // Mixed-type constant (cross-type total order) and the
            // reversed const-vs-column orientation.
            assert_mask_matches_eval(&Predicate::col_cmp(0, op, 1.0f64), &schema, &rows);
            assert_mask_matches_eval(
                &Predicate::Compare {
                    left: Operand::Const(Value::Int(1)),
                    op,
                    right: Operand::Column(0),
                },
                &schema,
                &rows,
            );
            // Const-vs-const broadcast.
            assert_mask_matches_eval(
                &Predicate::Compare {
                    left: Operand::Const(Value::Int(1)),
                    op,
                    right: Operand::Const(Value::Int(2)),
                },
                &schema,
                &rows,
            );
        }
    }

    #[test]
    fn eval_mask_agrees_with_eval_on_connectives() {
        let (schema, rows) = mixed_rows();
        let p = Predicate::col_cmp(0, CmpOp::Gt, -1i64)
            .and(
                Predicate::col_cmp(1, CmpOp::Lt, 2.0f64).or(Predicate::col_cmp(2, CmpOp::Eq, true)),
            )
            .and(Predicate::col_cmp(3, CmpOp::Ne, "s1").not());
        assert_mask_matches_eval(&p, &schema, &rows);
        assert_mask_matches_eval(&Predicate::True, &schema, &rows);
        assert_mask_matches_eval(&Predicate::False, &schema, &rows);
    }

    #[test]
    fn eval_mask_on_empty_block_is_empty() {
        let (schema, _) = mixed_rows();
        let block = eram_storage::ColumnarBlock::from_tuples(&schema, &[]).unwrap();
        assert!(Predicate::col_cmp(0, CmpOp::Eq, 0i64)
            .eval_mask(&block)
            .is_empty());
        assert!(Predicate::True.eval_mask(&block).is_empty());
    }
}
