//! Micro-benchmarks of the streaming-transfer building blocks: wire
//! framing and the spillable send buffer, plus a full end-to-end
//! streaming session.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_mlengine::job::JobConfig;
use sqlml_mlengine::PartitionBlock;
use sqlml_sqlengine::{Batch, Engine, EngineConfig};
use sqlml_transfer::protocol::numeric_frame;
use sqlml_transfer::{SpillableBuffer, StreamSession, StreamSessionConfig};

fn sample_batch(n: usize) -> Vec<Row> {
    let mut rng = SplitMix64::new(21);
    (0..n)
        .map(|_| {
            Row::new(vec![
                Value::Double(rng.next_f64()),
                Value::Double(rng.next_f64()),
                Value::Int(rng.range_i64(0, 1)),
            ])
        })
        .collect()
}

fn points_schema() -> Schema {
    Schema::new(vec![
        Field::new("x", DataType::Double),
        Field::new("y", DataType::Double),
        Field::new("label", DataType::Int),
    ])
}

/// One data frame, the way the sender cuts it and a reader takes it:
/// 240 rows of (f64, f64, i8) are the default 4 KiB of runs.
fn bench_wire(c: &mut Criterion) {
    const ROWS: usize = 240;
    let batch = Batch::from_rows(&points_schema(), &sample_batch(ROWS));
    let columns: Vec<_> = (batch.columns().iter())
        .map(|c| c.numeric().unwrap())
        .collect();
    let frame = numeric_frame(&columns, 0..ROWS).unwrap();

    let mut group = c.benchmark_group("transfer_wire");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("encode_240_row_frame", |b| {
        b.iter(|| numeric_frame(black_box(&columns), 0..ROWS).unwrap())
    });
    group.bench_function("decode_240_row_frame", |b| {
        b.iter(|| {
            let mut block = PartitionBlock::new(Some(2));
            block.push_frame(black_box(&frame[5..]), 0).unwrap();
            block
        })
    });
    group.finish();
}

fn bench_buffer(c: &mut Criterion) {
    let chunk = vec![7u8; 4096];
    let mut group = c.benchmark_group("transfer_buffer");
    group.throughput(Throughput::Bytes((chunk.len() * 100) as u64));
    group.bench_function("buffer_inmemory_100x4k", |b| {
        b.iter(|| {
            let buf = SpillableBuffer::new(1 << 20, std::env::temp_dir(), "bench-mem");
            for _ in 0..100 {
                buf.push(chunk.clone()).unwrap();
                black_box(buf.pop().unwrap());
            }
        })
    });
    group.bench_function("buffer_spilling_100x4k", |b| {
        b.iter(|| {
            // 1-byte budget: everything after the first chunk spills.
            let buf = SpillableBuffer::new(1, std::env::temp_dir(), "bench-spill");
            for _ in 0..100 {
                buf.push(chunk.clone()).unwrap();
            }
            buf.close();
            while let Some(c) = buf.pop().unwrap() {
                black_box(c);
            }
        })
    });
    group.finish();
}

fn bench_session(c: &mut Criterion) {
    let engine = Engine::new(EngineConfig {
        num_workers: 2,
        nodes: (0..2).map(sqlml_dfs::node_name).collect(),
    });
    engine.register_rows("points", points_schema(), sample_batch(20_000));
    let session = StreamSession::start().unwrap();
    let cfg = StreamSessionConfig {
        ml_job: JobConfig {
            num_workers: 2,
            worker_nodes: (0..2).map(sqlml_dfs::node_name).collect(),
        },
        spill_dir: std::env::temp_dir().join("sqlml-bench-spill"),
        ..Default::default()
    };
    session.install_udf(&engine, &cfg, None);

    let mut group = c.benchmark_group("transfer_session");
    group.sample_size(10);
    group.bench_function("stream_20k_rows_end_to_end", |b| {
        b.iter(|| {
            session
                .run(&engine, "points", "nb label=2", &cfg)
                .unwrap()
                .stats
                .rows_ingested
        })
    });
    group.finish();
}

fn bench_broker(c: &mut Criterion) {
    use sqlml_mq::{broker::BrokerConfig, Broker};
    use std::time::Duration;
    let chunk = vec![9u8; 2048];
    let mut group = c.benchmark_group("transfer_mq");
    group.throughput(Throughput::Bytes((chunk.len() * 100) as u64));
    group.bench_function("broker_publish_100x2k", |b| {
        b.iter(|| {
            let broker = Broker::new(BrokerConfig::default());
            broker.create_topic("bench", 1).unwrap();
            for _ in 0..100 {
                broker.append("bench", 0, chunk.clone()).unwrap();
            }
            broker.seal("bench", 0).unwrap();
        })
    });
    let broker = Broker::new(BrokerConfig::default());
    broker.create_topic("read", 1).unwrap();
    for _ in 0..100 {
        broker.append("read", 0, chunk.clone()).unwrap();
    }
    broker.seal("read", 0).unwrap();
    group.bench_function("broker_replay_100x2k", |b| {
        b.iter(|| {
            let mut offset = 0;
            while let Some(rec) = broker
                .read("read", 0, offset, Duration::from_millis(50))
                .unwrap()
            {
                black_box(rec);
                offset += 1;
            }
            offset
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wire, bench_buffer, bench_session, bench_broker
}
criterion_main!(benches);
