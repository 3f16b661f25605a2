//! Micro-benchmarks of the row codecs: the text format every DFS
//! hand-off pays (twice more in the naive pipeline than in insql) and
//! the compact wire format the streaming transfer pays instead.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sqlml_common::codec;
use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};

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

    // The compact varint+dictionary wire codec at the sizes the streaming
    // data plane actually cuts: the default 64-row frame and a jumbo
    // 1024-row frame. Encoding reuses one scratch buffer across
    // iterations, as the sender does. The categorical columns repeat
    // heavily, so the per-frame dictionary is exercised on every row just
    // like a real streamed frame.
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
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_codecs
}
criterion_main!(benches);
