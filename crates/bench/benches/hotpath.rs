//! Micro-benchmarks of the SQL hot path on column batches:
//!
//! * the preparation query's filter + projecting hash join;
//! * a `Filter`→`Project` chain, which the executor runs as one pass
//!   per partition (one batch kernel per operator);
//! * the [`FlatRecodeApplier`] over a column batch (one binary search
//!   per *dictionary entry*, then a gather and the dummy expansion).

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
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_join, bench_fusion, bench_recode_apply
}
criterion_main!(benches);
