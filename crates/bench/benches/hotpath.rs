//! Micro-benchmarks of the SQL hot path on column batches:
//!
//! * the preparation query's filter + projecting hash join, on dense
//!   `userid` keys (the direct-addressed table) and on the same keys
//!   spread a prime stride apart (the hashed table);
//! * a `Filter`→`Project` chain, which the executor runs as one pass
//!   per partition (one batch kernel per operator);
//! * the [`FlatRecodeApplier`] over a column batch (one binary search
//!   per *dictionary entry*, then a gather and the dummy expansion);
//! * the Naive external transform's two jobs over one 55K-line part-file
//!   of the preparation query's result (`age|gender|amount|abandoned`):
//!   job 1 collecting the recode columns' distinct values, job 2
//!   rewriting every line with gender dummy-coded;
//! * the linear models' gradient: one round over a 220K-row partition on
//!   one thread (ns/row) — the SVM's hinge at widths 4 and 5 (the width
//!   `explore-session`'s wide query trains at), logistic regression's
//!   log-loss at width 4 — and ten `par_rounds` SVM rounds over four
//!   55K × 4 partitions, the `stream-batch` training shape.

use std::ops::ControlFlow;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{codec, Row, SplitMix64, Value};
use sqlml_core::naive::recode_values;
use sqlml_mlengine::dataset::par_rounds;
use sqlml_mlengine::linalg::{gradient, Loss};
use sqlml_mlengine::svm::SvmModel;
use sqlml_mlengine::{Dataset, PartitionBlock, PartitionView};
use sqlml_sqlengine::{Batch, Engine, EngineConfig};
use sqlml_transform::{FlatRecodeApplier, RecodeMap, TransformSpec};

/// Sparse keys sit this far apart: far beyond the join's density bound,
/// so the build side hashes them.
const SPARSE_STRIDE: i64 = 1_000_003;

/// `carts` carts over `users` users, user `u` keyed `u * stride`.
fn engine(carts: usize, users: usize, stride: i64) -> Engine {
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
                Value::Int(rng.next_below(users as u64) as i64 * stride),
                Value::Double(rng.next_f64() * 200.0),
                Value::str(if rng.chance(0.3) { "Yes" } else { "No" }),
            ])
        })
        .collect();
    let user_rows: Vec<Row> = (0..users)
        .map(|uid| {
            Row::new(vec![
                Value::Int(uid as i64 * stride),
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
    let (dense, sparse) = (
        engine(100_000, 10_000, 1),
        engine(100_000, 10_000, SPARSE_STRIDE),
    );
    let prep = "SELECT U.age, C.amount, C.abandoned FROM carts C, users U \
                WHERE C.userid = U.userid AND U.country = 'USA'";
    let mut group = c.benchmark_group("hotpath");
    group.bench_function("join_prep_query_100k_x_10k", |b| {
        b.iter(|| dense.query(black_box(prep)).unwrap().num_rows())
    });
    group.bench_function("join_prep_query_sparse_keys_100k_x_10k", |b| {
        b.iter(|| sparse.query(black_box(prep)).unwrap().num_rows())
    });
    group.finish();
}

fn bench_fusion(c: &mut Criterion) {
    let e = engine(100_000, 10_000, 1);
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
    let applier = FlatRecodeApplier::new(&map, &spec.bind(&schema).unwrap()).unwrap();

    let batch = Batch::from_rows(&schema, &rows);
    let mut group = c.benchmark_group("hotpath");
    group.bench_function("recode_apply_batch_100k", |b| {
        b.iter(|| applier.apply_batch(black_box(&batch)).unwrap().len())
    });
    group.finish();
}

fn bench_naive_jobs(c: &mut Criterion) {
    let schema = Schema::new(vec![
        Field::new("age", DataType::Int),
        Field::categorical("gender"),
        Field::new("amount", DataType::Double),
        Field::categorical("abandoned"),
    ]);
    let mut rng = SplitMix64::new(100);
    let rows: Vec<Row> = (0..55_000)
        .map(|_| {
            Row::new(vec![
                Value::Int(rng.range_i64(18, 80)),
                Value::str(if rng.chance(0.5) { "F" } else { "M" }),
                Value::Double(rng.next_below(20_000) as f64 / 100.0),
                Value::str(if rng.chance(0.3) { "Yes" } else { "No" }),
            ])
        })
        .collect();
    let text = codec::encode_text_batch(&rows);
    let spec = TransformSpec::new(&["gender"]);
    let bound = spec.bind(&schema).unwrap();
    let columns: Vec<(String, usize)> = (bound.recoded())
        .map(|(at, name)| (name.to_string(), at))
        .collect();
    let pairs = recode_values(&[&text], &schema, &columns).unwrap();
    let applier = FlatRecodeApplier::new(&RecodeMap::from_pairs(pairs), &bound).unwrap();

    let mut group = c.benchmark_group("hotpath");
    group.bench_function("naive_job1_distinct_values_55k_lines", |b| {
        b.iter(|| recode_values(&[black_box(&text)], &schema, &columns).map(|p| p.len()))
    });
    group.bench_function("naive_job2_rewrite_55k_lines", |b| {
        b.iter(|| applier.rewrite_text(black_box(&text)).unwrap().1)
    });
    group.finish();
}

/// `partitions` blocks of `rows` standard-normal rows of width `dim`,
/// each with a fair {0, 1} label.
fn linear_data(partitions: usize, rows: usize, dim: usize) -> Dataset {
    let mut rng = SplitMix64::new(100);
    let blocks = (0..partitions).map(|_| {
        let mut block = PartitionBlock::new(Some(0));
        let mut row = vec![0.0; 1 + dim];
        for _ in 0..rows {
            row[0] = if rng.chance(0.5) { 1.0 } else { 0.0 };
            row[1..].iter_mut().for_each(|x| *x = rng.next_gaussian());
            block.push_row(&row).unwrap();
        }
        block
    });
    Dataset::from_blocks(blocks.collect()).unwrap()
}

fn bench_linear_gradient(c: &mut Criterion) {
    let model = SvmModel {
        weights: vec![0.8, -0.6, 0.4, 0.2],
        intercept: 0.1,
    };
    let wide = SvmModel {
        weights: vec![0.8, -0.6, 0.4, 0.2, -0.3],
        intercept: 0.1,
    };
    let one = linear_data(1, 220_000, 4);
    let one_wide = linear_data(1, 220_000, 5);
    let four = linear_data(4, 55_000, 4);
    let n = four.num_points() as f64;
    let mut group = c.benchmark_group("hotpath");
    group.throughput(Throughput::Elements(220_000));
    group.bench_function("svm_gradient_round_220k_x_4", |b| {
        b.iter(|| model.hinge_subgradient(black_box(&one).partition(0)))
    });
    group.bench_function("svm_gradient_round_220k_x_5", |b| {
        b.iter(|| wide.hinge_subgradient(black_box(&one_wide).partition(0)))
    });
    group.bench_function("logreg_gradient_round_220k_x_4", |b| {
        b.iter(|| {
            let part = black_box(&one).partition(0);
            let (w, b) = (&model.weights, model.intercept);
            gradient(Loss::Logistic, w, b, part.features(), part.labels())
        })
    });
    // Ten full-batch rounds, each a step on the summed gradient: rows
    // visited = 10 × 220K.
    group.throughput(Throughput::Elements(10 * 220_000));
    group.bench_function("svm_par_rounds_10_x_4_partitions_55k_x_4", |b| {
        b.iter(|| {
            let map =
                |(m, _): &(SvmModel, usize), part: PartitionView<'_>| m.hinge_subgradient(part);
            let reduce = |(m, t): &mut (SvmModel, usize), partials: Vec<(Vec<f64>, f64)>| {
                for (gw, gb) in partials {
                    for (wi, gi) in m.weights.iter_mut().zip(&gw) {
                        *wi -= 0.1 * gi / n;
                    }
                    m.intercept -= 0.1 * gb / n;
                }
                *t += 1;
                if *t == 10 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            };
            par_rounds(black_box(&four), (model.clone(), 0), map, reduce)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_join, bench_fusion, bench_recode_apply, bench_naive_jobs, bench_linear_gradient
}
criterion_main!(benches);
