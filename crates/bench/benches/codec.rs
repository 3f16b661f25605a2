//! Micro-benchmarks of the codecs: the text format every DFS hand-off
//! pays (twice more in the naive pipeline than in insql), the compact
//! varint row format message-queue records use, and the numeric
//! column-run frame the streaming transfer pays instead of either.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sqlml_common::codec::{self, NumericColumn, NumericFrame};
use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_core::workload::{Warehouse, WorkloadScale};
use sqlml_sqlengine::Batch;

fn sample_rows(n: usize) -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        Field::new("age", DataType::Int),
        Field::categorical("gender"),
        Field::new("amount", DataType::Double),
        Field::categorical("abandoned"),
    ]);
    let mut rng = SplitMix64::new(3);
    let rows = (0..n)
        .map(|_| {
            Row::new(vec![
                Value::Int(rng.range_i64(18, 80)),
                Value::str(if rng.chance(0.5) { "F" } else { "M" }),
                Value::Double(rng.next_f64() * 200.0),
                Value::str(if rng.chance(0.3) { "Yes" } else { "No" }),
            ])
        })
        .collect();
    (schema, rows)
}

fn bench_codecs(c: &mut Criterion) {
    let (schema, rows) = sample_rows(10_000);
    let text = codec::encode_text_batch(&rows);
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("text_encode_10k_rows", |b| {
        b.iter(|| codec::encode_text_batch(black_box(&rows)))
    });
    group.bench_function("text_decode_10k_rows", |b| {
        b.iter(|| codec::decode_text_batch(black_box(&text), &schema).unwrap())
    });
    group.finish();

    // The compact varint+dictionary row codec at a small and a jumbo
    // batch. Encoding reuses one scratch buffer across iterations. The
    // categorical columns repeat heavily, so the per-frame dictionary is
    // exercised on every row.
    let mut group = c.benchmark_group("codec_compact");
    for batch in [64usize, 1024] {
        let chunk = &rows[..batch];
        let mut encoded = Vec::new();
        codec::encode_compact_batch(chunk, &mut encoded).unwrap();
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        let mut scratch = Vec::with_capacity(encoded.len());
        group.bench_function(&format!("compact_batch_encode_{batch}_rows"), |b| {
            b.iter(|| {
                scratch.clear();
                codec::encode_compact_batch(black_box(chunk), &mut scratch).unwrap();
                scratch.len()
            })
        });
        group.bench_function(&format!("compact_batch_decode_{batch}_rows"), |b| {
            b.iter(|| codec::decode_compact_batch(black_box(&encoded)).unwrap())
        });
    }
    group.finish();

    // The numeric frame on the transformed-carts shape (age, two
    // indicators, amount, label: 12 B/row) at the 341 rows the default
    // 4 KiB cut gives it; decode scatters into a row-major block, as a
    // stream reader does.
    const ROWS: usize = 341;
    let mut rng = SplitMix64::new(3);
    let ints = |rng: &mut SplitMix64, lo, hi| -> Vec<i64> {
        (0..ROWS).map(|_| rng.range_i64(lo, hi)).collect()
    };
    let (age, female, label) = (
        ints(&mut rng, 18, 80),
        ints(&mut rng, 0, 1),
        ints(&mut rng, 1, 2),
    );
    let male: Vec<i64> = female.iter().map(|f| 1 - f).collect();
    let amount: Vec<f64> = (0..ROWS).map(|_| rng.next_f64() * 200.0).collect();
    let columns = [
        NumericColumn::int(&age, None),
        NumericColumn::int(&female, None),
        NumericColumn::int(&male, None),
        NumericColumn::double(&amount[..], None),
        NumericColumn::int(&label, None),
    ];
    let mut encoded = Vec::new();
    codec::encode_numeric_frame(&columns, 0..ROWS, &mut encoded).unwrap();
    let mut group = c.benchmark_group("codec_numeric");
    group.throughput(Throughput::Elements(ROWS as u64));
    let mut scratch = Vec::with_capacity(encoded.len());
    group.bench_function("numeric_frame_encode_341_rows", |b| {
        b.iter(|| {
            scratch.clear();
            codec::encode_numeric_frame(black_box(&columns), 0..ROWS, &mut scratch).unwrap();
            scratch.len()
        })
    });
    let mut block = vec![0.0f64; ROWS * columns.len()];
    group.bench_function("numeric_frame_decode_341_rows", |b| {
        b.iter(|| {
            let frame = NumericFrame::parse(black_box(&encoded)).unwrap();
            for c in 0..frame.cols() {
                frame.scatter(c, 0, &mut block[c..], frame.cols());
            }
            block[0]
        })
    });
    group.finish();
}

/// The text codec the product runs: `Batch::encode_text` and
/// `Batch::decode_text` on one 100K-row `carts` partition of the seeded
/// warehouse (400K carts, seed 100, four partitions), as the warehouse
/// load and the Naive hop call them.
fn bench_batch_text(c: &mut Criterion) {
    let scale = WorkloadScale::with_carts(400_000);
    let warehouse = Warehouse::generate(scale, 100, 4).expect("warehouse");
    let carts = &warehouse.carts;
    let part = &carts.partitions()[0];
    let text = part.encode_text();
    let mut group = c.benchmark_group("batch_text");
    group.throughput(Throughput::Elements(part.len() as u64));
    group.bench_function("encode_100k_carts", |b| {
        b.iter(|| black_box(part).encode_text())
    });
    group.bench_function("decode_100k_carts", |b| {
        b.iter(|| Batch::decode_text(black_box(&text), carts.schema()).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_codecs, bench_batch_text
}
criterion_main!(benches);
