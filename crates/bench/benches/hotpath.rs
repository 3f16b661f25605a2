//! Micro-benchmarks of the SQL hot path on column batches:
//!
//! * the preparation query's filter + projecting hash join;
//! * a `Filter`→`Project` chain, which the executor runs as one pass
//!   per partition (one batch kernel per operator);
//! * the [`FlatRecodeApplier`] over a column batch (one `HashMap` probe
//!   per *dictionary entry*), per row (one probe per categorical cell —
//!   the naive baseline's external job), and the nested-`BTreeMap`
//!   `RecodeMap::code` walk both replaced, over identical data.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_sqlengine::{Batch, Engine, EngineConfig};
use sqlml_transform::{FlatRecodeApplier, RecodeMap, TransformSpec};

fn engine(carts: usize, users: usize) -> Engine {
    let e = Engine::new(EngineConfig::with_workers(4));
    let mut rng = SplitMix64::new(5);
    let cart_schema = Schema::new(vec![
        Field::new("userid", DataType::Int),
        Field::new("amount", DataType::Double),
        Field::categorical("abandoned"),
    ]);
    let user_schema = Schema::new(vec![
        Field::new("userid", DataType::Int),
        Field::new("age", DataType::Int),
        Field::categorical("country"),
    ]);
    let cart_rows: Vec<Row> = (0..carts)
        .map(|_| {
            Row::new(vec![
                Value::Int(rng.next_below(users as u64) as i64),
                Value::Double(rng.next_f64() * 200.0),
                Value::str(if rng.chance(0.3) { "Yes" } else { "No" }),
            ])
        })
        .collect();
    let user_rows: Vec<Row> = (0..users)
        .map(|uid| {
            Row::new(vec![
                Value::Int(uid as i64),
                Value::Int(rng.range_i64(18, 80)),
                Value::str(if rng.chance(0.55) { "USA" } else { "CA" }),
            ])
        })
        .collect();
    e.register_rows("carts", cart_schema, cart_rows);
    e.register_rows("users", user_schema, user_rows);
    e
}

fn bench_join(c: &mut Criterion) {
    let e = engine(100_000, 10_000);
    let prep = "SELECT U.age, C.amount, C.abandoned FROM carts C, users U \
                WHERE C.userid = U.userid AND U.country = 'USA'";
    let mut group = c.benchmark_group("hotpath");
    group.bench_function("join_prep_query_100k_x_10k", |b| {
        b.iter(|| e.query(black_box(prep)).unwrap().num_rows())
    });
    group.finish();
}

fn bench_fusion(c: &mut Criterion) {
    let e = engine(100_000, 10_000);
    // A three-operator chain: filter, compute, filter again.
    let q = "SELECT amount * 2.0 AS a2 FROM carts WHERE amount > 50.0 AND amount < 190.0";
    let mut group = c.benchmark_group("hotpath");
    group.bench_function("filter_project_fused_100k", |b| {
        b.iter(|| e.query(black_box(q)).unwrap().num_rows())
    });
    group.finish();
}

/// The pre-PR per-row transform: nested `BTreeMap` walks per cell via
/// [`RecodeMap::code`], with per-row column-membership scans. Kept here
/// (only) as the before-side of the comparison.
fn reference_apply(row: &Row, schema: &Schema, spec: &TransformSpec, map: &RecodeMap) -> Row {
    let recode_columns = spec.effective_recode_columns(schema);
    let mut values = Vec::with_capacity(row.len());
    for (i, f) in schema.fields().iter().enumerate() {
        let is_recoded = recode_columns
            .iter()
            .any(|c| c.eq_ignore_ascii_case(&f.name));
        let is_dummy = spec
            .dummy_code_columns
            .iter()
            .any(|c| c.eq_ignore_ascii_case(&f.name));
        let v = row.get(i);
        if is_dummy {
            let k = map.cardinality(&f.name);
            let code = match v {
                Value::Null => 0,
                Value::Str(s) => map.code(&f.name, s).unwrap(),
                other => panic!("non-categorical {other}"),
            };
            for j in 1..=k as i64 {
                values.push(Value::Int((j == code) as i64));
            }
        } else if is_recoded {
            match v {
                Value::Null => values.push(Value::Null),
                Value::Str(s) => values.push(Value::Int(map.code(&f.name, s).unwrap())),
                other => panic!("non-categorical {other}"),
            }
        } else {
            values.push(v.clone());
        }
    }
    Row::new(values)
}

fn bench_recode_apply(c: &mut Criterion) {
    let schema = Schema::new(vec![
        Field::new("age", DataType::Int),
        Field::categorical("gender"),
        Field::new("amount", DataType::Double),
        Field::categorical("country"),
    ]);
    let countries = ["USA", "CA", "UK", "DE", "FR", "JP", "BR", "IN"];
    let mut rng = SplitMix64::new(11);
    let rows: Vec<Row> = (0..100_000)
        .map(|_| {
            Row::new(vec![
                Value::Int(rng.range_i64(18, 80)),
                Value::str(if rng.chance(0.5) { "F" } else { "M" }),
                Value::Double(rng.next_f64() * 200.0),
                Value::str(countries[rng.next_below(countries.len() as u64) as usize]),
            ])
        })
        .collect();
    let mut pairs = vec![
        ("gender".to_string(), "F".to_string()),
        ("gender".to_string(), "M".to_string()),
    ];
    pairs.extend(
        countries
            .iter()
            .map(|c| ("country".to_string(), c.to_string())),
    );
    let map = RecodeMap::from_pairs(pairs);
    let spec = TransformSpec::new(&["country"]);
    let applier = FlatRecodeApplier::new(&map, &schema, &spec).unwrap();

    let batch = Batch::from_rows(&schema, &rows);
    let mut group = c.benchmark_group("hotpath");
    group.bench_function("recode_apply_batch_100k", |b| {
        b.iter(|| applier.apply_batch(black_box(&batch)).unwrap().len())
    });
    group.bench_function("recode_apply_flat_100k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for r in &rows {
                n += applier.apply(black_box(r)).unwrap().len();
            }
            n
        })
    });
    group.bench_function("recode_apply_btreemap_100k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for r in &rows {
                n += reference_apply(black_box(r), &schema, &spec, &map).len();
            }
            n
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_join, bench_fusion, bench_recode_apply
}
criterion_main!(benches);
