//! Property test: a compiled predicate evaluated on the encoded
//! record agrees with [`Predicate::eval`] on the decoded tuple — for
//! random schemas, random tuples drawn from each type's awkward
//! values, and random formulas over every comparison and connective.
//! The engine's fused scan rests on exactly this equality.

use std::sync::Arc;

use testkit::prelude::*;

use eram_relalg::{CmpOp, Operand, Predicate};
use eram_storage::{
    ColumnType, DeviceProfile, Disk, HeapFile, Rng, Schema, SimClock, Tuple, Value,
};

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn pick<T: Clone>(rng: &mut Rng, pool: &[T]) -> T {
    pool[rng.gen_range(0..=pool.len() as u64 - 1) as usize].clone()
}

fn random_schema(rng: &mut Rng) -> Schema {
    let arity = rng.gen_range(1..=6) as usize;
    let columns = (0..arity)
        .map(|i| {
            let ty = match rng.gen_range(0..=3) {
                0 => ColumnType::Int,
                1 => ColumnType::Float,
                2 => ColumnType::Bool,
                _ => ColumnType::Str {
                    width: rng.gen_range(0..=9) as u16,
                },
            };
            (format!("c{i}"), ty)
        })
        .collect();
    let schema = Schema::new(columns);
    let padding = rng.gen_range(0..=16) as usize;
    let size = schema.record_size() + padding;
    schema.padded_to(size)
}

/// A value of `ty`, biased to the values an order can get wrong: the
/// integer extremes; NaN of both signs, the signed zeros and the
/// infinities; the empty and the full-width string, and strings that
/// share a prefix.
fn random_value(ty: ColumnType, rng: &mut Rng) -> Value {
    match ty {
        ColumnType::Int => {
            let any = rng.next_u64() as i64;
            Value::Int(pick(rng, &[i64::MIN, -2, -1, 0, 1, 2, i64::MAX, any]))
        }
        ColumnType::Float => {
            let any = rng.next_f64() * 4.0 - 2.0;
            Value::Float(pick(
                rng,
                &[
                    f64::NAN,
                    -f64::NAN,
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1.5,
                    -1.5,
                    f64::MIN_POSITIVE,
                    any,
                ],
            ))
        }
        ColumnType::Bool => Value::Bool(rng.gen_range(0..=1) == 1),
        ColumnType::Str { width } => {
            let any = rng.gen_range(0..=9) as usize;
            let len = pick(rng, &[0, usize::from(width), any]).min(usize::from(width));
            Value::Str((0..len).map(|_| pick(rng, &['a', 'a', 'b', 'z'])).collect())
        }
    }
}

fn random_tuple(schema: &Schema, rng: &mut Rng) -> Tuple {
    Tuple::new(
        schema
            .columns()
            .iter()
            .map(|c| random_value(c.ty, rng))
            .collect(),
    )
}

/// A type-correct atom over `schema`: a column against a constant of
/// its type (either orientation), against a column of its type
/// (itself included), or two constants.
fn random_atom(schema: &Schema, rng: &mut Rng) -> Predicate {
    let column = rng.gen_range(0..=schema.arity() as u64 - 1) as usize;
    let ty = schema.columns()[column].ty;
    let same_type: Vec<usize> = (0..schema.arity())
        .filter(|&i| schema.columns()[i].ty.name() == ty.name())
        .collect();
    let (left, right) = match rng.gen_range(0..=3) {
        0 => (
            Operand::Column(column),
            Operand::Const(random_value(ty, rng)),
        ),
        1 => (
            Operand::Const(random_value(ty, rng)),
            Operand::Column(column),
        ),
        2 => (
            Operand::Column(column),
            Operand::Column(pick(rng, &same_type)),
        ),
        _ => (
            Operand::Const(random_value(ty, rng)),
            Operand::Const(random_value(ty, rng)),
        ),
    };
    Predicate::Compare {
        left,
        op: pick(rng, &OPS),
        right,
    }
}

fn random_formula(schema: &Schema, rng: &mut Rng, depth: u32) -> Predicate {
    let connective = if depth == 0 { 0 } else { rng.gen_range(0..=5) };
    match connective {
        0 | 1 => match rng.gen_range(0..=9) {
            0 => Predicate::True,
            1 => Predicate::False,
            _ => random_atom(schema, rng),
        },
        2 => random_formula(schema, rng, depth - 1).and(random_formula(schema, rng, depth - 1)),
        3 => random_formula(schema, rng, depth - 1).or(random_formula(schema, rng, depth - 1)),
        _ => random_formula(schema, rng, depth - 1).not(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compiled_eval_on_the_encoded_record_equals_eval_on_the_tuple(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let schema = random_schema(&mut rng);
        let formula = random_formula(&schema, &mut rng, 3);
        let compiled = formula.compile(&schema).expect("type-correct by construction");
        for _ in 0..24 {
            let t = random_tuple(&schema, &mut rng);
            let record = schema.encode(&t).unwrap();
            prop_assert_eq!(
                compiled.eval(&record).unwrap(),
                formula.eval(&t),
                "{} on {:?}",
                formula,
                t
            );
        }
    }
}

#[test]
fn records_of_a_partial_tail_block_are_scanned_and_no_further() {
    // 13 tuples at 5 to a block: the last block holds 3 records and
    // two slots of zero bytes, which must be neither evaluated nor
    // counted.
    let disk = Disk::new(
        Arc::new(SimClock::new()),
        DeviceProfile::sun_3_60().without_jitter(),
        0,
    );
    let schema = Schema::new(vec![
        ("k", ColumnType::Int),
        ("s", ColumnType::Str { width: 4 }),
    ])
    .padded_to(200);
    let tuples: Vec<Tuple> = (0..13)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i % 4 - 1),
                Value::Str("ab".repeat(i as usize % 3)),
            ])
        })
        .collect();
    let file = HeapFile::load(disk.clone(), schema.clone(), tuples).unwrap();
    // Zero bytes decode as `(0, "")`, which this formula accepts: a
    // scan that ran into the padding would over-count.
    let formula = Predicate::col_cmp(0, CmpOp::Eq, 0i64).or(Predicate::col_cmp(1, CmpOp::Le, "ab"));
    let compiled = formula.compile(&schema).unwrap();
    let mut scanned = 0;
    for b in 0..file.num_blocks() {
        let block = disk.read_block_uncharged(file.file_id(), b).unwrap();
        let on_bytes: Vec<bool> = file
            .records(b, &block)
            .map(|record| compiled.eval(record).unwrap())
            .collect();
        let on_tuples: Vec<bool> = file
            .decode_block(b, &block)
            .unwrap()
            .iter()
            .map(|t| formula.eval(t))
            .collect();
        assert_eq!(on_bytes, on_tuples, "block {b}");
        scanned += on_bytes.len();
    }
    assert_eq!(scanned, 13);
}

#[test]
fn only_the_fields_a_formula_reads_are_validated() {
    // The one intended difference from decoding first: a field the
    // formula does not reference is not looked at, so a record whose
    // *other* string column is malformed still evaluates — and fails
    // only when someone materializes it. (A page that rots on disk is
    // the block digest's to catch, not the decoder's.)
    let schema = Schema::new(vec![
        ("k", ColumnType::Int),
        ("s", ColumnType::Str { width: 4 }),
    ]);
    let mut record = schema
        .encode(&Tuple::new(vec![Value::Int(7), Value::Str("ok".into())]))
        .unwrap();
    record[8..10].copy_from_slice(&9u16.to_le_bytes()); // length 9 > width 4
    assert!(schema.decode(&record).is_err());
    let on_k = Predicate::col_cmp(0, CmpOp::Eq, 7i64)
        .compile(&schema)
        .unwrap();
    assert_eq!(on_k.eval(&record).ok(), Some(true));
    // A formula that does read the bad field reports it, as a decode
    // would — unless a connective short-circuits past it.
    let on_s = Predicate::col_cmp(1, CmpOp::Eq, "ok")
        .compile(&schema)
        .unwrap();
    assert!(on_s.eval(&record).is_err());
    let guarded = Predicate::col_cmp(0, CmpOp::Lt, 0i64)
        .and(Predicate::col_cmp(1, CmpOp::Eq, "ok"))
        .compile(&schema)
        .unwrap();
    assert_eq!(guarded.eval(&record).ok(), Some(false));
    // A record cut short is refused, not read out of bounds.
    assert!(on_k.eval(&record[..record.len() - 1]).is_err());
}
