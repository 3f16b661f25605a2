//! `naive-batch` and `stream-batch`: one analyst request (the paper's
//! preparation query, dummy-coded gender, an SVM) run back to back on an
//! otherwise idle cluster, under `Strategy::Naive` or
//! `Strategy::InSqlStream`.
//!
//! The two are partners: the first goes DFS → external transform → DFS →
//! text ingest and never touches `transfer`; the second goes SQL UDFs →
//! sockets → stream ingest and never touches `dfs`. A change to one path
//! is predicted to leave the other workload's numbers alone.

use std::time::Instant;

use sqlml_common::codec;
use sqlml_common::Row;
use sqlml_core::naive::run_external_transform;
use sqlml_core::{Pipeline, PipelineReport, PipelineRequest, SimCluster, Strategy};
use sqlml_mlengine::job::{JobRunner, TrainingSpec};
use sqlml_rewriter::QueryRewriter;
use sqlml_sqlengine::parser::parse_select;
use sqlml_sqlengine::PartitionedTable;
use sqlml_transfer::StreamStats;
use sqlml_transform::InSqlTransformer;

use crate::gen::{oracle_rows, Prep};
use crate::harness::{
    boot_cluster, check_report, end_to_end_metrics, set, timed_setup, zeroed_layers, Gate, Outcome,
    RunArgs, WARMUP_OPS,
};
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Frozen input size: 400K carts, 4K users.
const CARTS: usize = 400_000;
/// Rows per frame the streaming data plane cuts by default; the compact
/// codec is timed on frames of this size because its dictionary is
/// per frame.
const FRAME_ROWS: usize = 64;
/// Operations per block of `latency_s_p95`. A window holds 35 to 52
/// operations, two or three of them beyond a plain 95th percentile, so one
/// stall of the host decides it; the median over blocks of six
/// (`stats::blocked_p95`) shrugs off a stall that spans up to three blocks.
const TAIL_BLOCK: usize = 6;

pub fn run(args: &RunArgs, strategy: Strategy) -> Outcome {
    let scale = args.scale(CARTS);
    let prep = Prep::base("USA");
    let request = prep.request("svm");
    let expected = oracle_rows(scale, args.seed, &[prep])[&request.prep_sql];

    let (cluster, setup_times) = timed_setup(|| boot_cluster(scale, args.seed));
    let pipeline = Pipeline::new(&cluster);
    let mut gate = Gate::default();

    // The sequential Naive reference must agree with the oracle before
    // anything is measured against either.
    let reference = pipeline.run(&request, Strategy::Naive);
    gate.check(
        "naive reference",
        reference
            .map_err(|e| e.to_string())
            .and_then(|r| check_report(&r, expected, None)),
    );

    let run_checked = |gate: &mut Gate, op: usize| -> (f64, Option<PipelineReport>) {
        let t0 = Instant::now();
        let result = pipeline.run(&request, strategy);
        let wall = t0.elapsed().as_secs_f64();
        let verdict = match &result {
            Ok(r) => check_report(r, expected, None),
            Err(e) => Err(e.to_string()),
        };
        let ok = gate.check(&format!("op {op}"), verdict);
        (wall, result.ok().filter(|_| ok))
    };

    for _ in 0..WARMUP_OPS {
        pipeline
            .run(&request, strategy)
            .expect("warm-up run failed");
    }

    let mut op_s = Vec::new();
    let mut pipeline_s = Vec::new();
    let mut ok_rows = 0usize;
    let start = Instant::now();

    if !args.trace {
        while args.window_open(op_s.len(), start) {
            let (wall, report) = run_checked(&mut gate, op_s.len());
            op_s.push(wall);
            if let Some(r) = report {
                pipeline_s.push(r.pipeline_time().as_secs_f64());
                ok_rows += r.rows_to_ml;
            }
        }
        let window_s = start.elapsed().as_secs_f64();
        let metrics = end_to_end_metrics(
            &setup_times,
            &op_s,
            stats::blocked_p95(&op_s, TAIL_BLOCK),
            &pipeline_s,
            pipeline_s.len(),
            ok_rows,
            window_s,
        );
        return Outcome {
            scale,
            gate,
            metrics,
            ops: op_s.len(),
            window_s,
            timings: vec![
                ("setup_s", setup_times),
                ("op_s", op_s),
                ("pipeline_s", pipeline_s),
            ],
            tracer: None,
        };
    }

    // Traced run: alternate one real, untraced operation (for the stage
    // bars and transfer counters the program itself reports, and as the
    // yardstick for `trace.reenact_ratio`) with one re-enactment that
    // drives the same layers call by call under spans.
    let mut tracer = Tracer::new();
    let mut reports = Vec::new();
    let mut reenacted = Vec::new();
    while args.window_open(reenacted.len(), start) {
        let op = reenacted.len();
        let (wall, report) = run_checked(&mut gate, op);
        op_s.push(wall);
        reports.extend(report);
        let result = match strategy {
            Strategy::Naive => reenact_naive(&cluster, &request, op, &mut tracer),
            _ => reenact_stream(&cluster, &request, op, &mut tracer),
        };
        let verdict = result.and_then(|r| {
            if r.rows_to_ml == expected {
                Ok(r)
            } else {
                Err(format!(
                    "re-enacted rows_to_ml {} != reference {expected}",
                    r.rows_to_ml
                ))
            }
        });
        match verdict {
            Ok(r) => {
                gate.check(&format!("traced op {op}"), Ok(()));
                for (name, value) in &r.counts {
                    tracer.count(op, name, *value);
                }
                reenacted.push(r);
            }
            Err(why) => {
                gate.check(&format!("traced op {op}"), Err(why));
                break;
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let metrics = layer_metrics(strategy, &tracer, &reports, &reenacted);
    Outcome {
        scale,
        gate,
        metrics,
        ops: reenacted.len(),
        window_s,
        timings: vec![("setup_s", setup_times), ("op_s", op_s)],
        tracer: Some(tracer),
    }
}

/// What one re-enacted operation measured besides its spans.
struct Reenacted {
    rows_to_ml: usize,
    /// The re-enactment's blocking steps, training excluded — the
    /// counterpart of `PipelineReport::pipeline_time()`.
    pipeline_s: f64,
    counts: Vec<(&'static str, f64)>,
}

fn cleanup(cluster: &SimCluster, dir: &str) {
    for f in cluster.dfs.list(&format!("{dir}/")) {
        let _ = cluster.dfs.delete(&f.path);
    }
}

fn dir_bytes(cluster: &SimCluster, dir: &str) -> u64 {
    cluster
        .dfs
        .list(&format!("{dir}/"))
        .iter()
        .map(|f| f.len)
        .sum()
}

/// Rows the preparation query reads: it scans both base tables once.
pub fn scanned_rows(cluster: &SimCluster) -> f64 {
    ["carts", "users"]
        .iter()
        .map(|t| cluster.engine.table_rows(t).unwrap_or(0) as f64)
        .sum()
}

/// Seconds per row of `f` applied to `rows`, as nanoseconds.
fn ns_per_row(rows: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e9 / rows.max(1) as f64
}

/// `Strategy::Naive` step by step: parse → plan → query → `save_text` →
/// external transform → text ingest → train.
fn reenact_naive(
    cluster: &SimCluster,
    request: &PipelineRequest,
    op: usize,
    tr: &mut Tracer,
) -> Result<Reenacted, String> {
    let (engine, dfs) = (&cluster.engine, &cluster.dfs);
    let dir_prep = format!("/bench_trace/{op}/prep");
    let dir_tfm = format!("/bench_trace/{op}/trsfm");
    let err = |e: sqlml_common::SqlmlError| e.to_string();
    let ml_spec = TrainingSpec::parse(&request.ml_command).map_err(err)?;

    let rows_in = scanned_rows(cluster);
    let root = tr.open(op, None, "core.op");
    let body = (|| {
        let pl = tr.open(op, Some(root), "core.pipeline");
        let stmt = tr
            .span(op, Some(pl), "sqlengine.parse", || {
                parse_select(&request.prep_sql)
            })
            .map_err(err)?;
        let plan = tr
            .span(op, Some(pl), "sqlengine.plan", || engine.plan(&stmt))
            .map_err(err)?;
        let prep_schema = plan.schema();
        let prepared = tr
            .span(op, Some(pl), "sqlengine.prep_query", || {
                engine.query(&request.prep_sql)
            })
            .map_err(err)?;
        let prep_bytes = tr
            .span(op, Some(pl), "dfs.write", || {
                prepared.save_text(dfs, &dir_prep)
            })
            .map_err(err)?;
        let external = tr
            .span(op, Some(pl), "core.external_transform", || {
                run_external_transform(dfs, &dir_prep, &prep_schema, &request.spec, &dir_tfm)
            })
            .map_err(err)?;
        let format = cluster.text_input_format(&dir_tfm, external.schema.clone());
        let runner = JobRunner::new(cluster.ml_job_config());
        let (dataset, ingest) = tr
            .span(op, Some(pl), "mlengine.text_ingest", || {
                runner.ingest_dataset(&format, ml_spec.label_col())
            })
            .map_err(err)?;
        tr.close(pl);
        let pipeline_s = tr.spans()[pl].dur_s();
        tr.span(op, Some(root), "mlengine.train", || {
            runner.train(&dataset, &ml_spec)
        })
        .map_err(err)?;

        // Off the blocking path: the same layers' calls timed on their
        // own, over this operation's real data.
        let micro = tr.open(op, Some(root), "micro");
        let tfm_bytes = dir_bytes(cluster, &dir_tfm);
        let loaded = tr
            .span(op, Some(micro), "dfs.read", || {
                PartitionedTable::load_text(dfs, &dir_tfm, external.schema.clone())
            })
            .map_err(err)?;
        let rows: Vec<Row> = loaded.collect_rows();
        let mut text = String::new();
        let encode_ns = ns_per_row(rows.len(), || text = codec::encode_text_batch(&rows));
        let mut decoded = Ok(Vec::new());
        let decode_ns = ns_per_row(rows.len(), || {
            decoded = codec::decode_text_batch(&text, &external.schema)
        });
        if decoded.map_err(err)?.len() != rows.len() {
            return Err("text codec round trip lost rows".into());
        }
        if op == 0 {
            // Once per run: the In-SQL transformation of the same prep
            // result must equal the external transform's DFS output row
            // for row.
            let mut external_rows = rows;
            external_rows.sort();
            equal_to_insql(cluster, request, &external_rows)?;
        }
        tr.close(micro);

        Ok(Reenacted {
            rows_to_ml: ingest.rows,
            pipeline_s,
            counts: vec![
                ("common.text_encode_ns_per_row", encode_ns),
                ("common.text_decode_ns_per_row", decode_ns),
                // One write of the prep result and one of the transformed
                // result; the external transform reads its input in both
                // of its passes and the ML job reads the output once.
                ("dfs.bytes_written", (prep_bytes + tfm_bytes) as f64),
                ("dfs.bytes_read", (2 * prep_bytes + tfm_bytes) as f64),
                ("sqlengine.rows_in", rows_in),
                ("sqlengine.rows_out", prepared.num_rows() as f64),
                (
                    "sqlengine.rows_in_per_row_out",
                    rows_in / (prepared.num_rows() as f64).max(1.0),
                ),
                ("transform.rows_out", external.rows as f64),
                ("transform.cols_out", external.schema.len() as f64),
                ("mlengine.rows_ingested", ingest.rows as f64),
            ],
        })
    })();
    cleanup(cluster, &dir_prep);
    cleanup(cluster, &dir_tfm);
    tr.close(root);
    body
}

fn equal_to_insql(
    cluster: &SimCluster,
    request: &PipelineRequest,
    external_sorted: &[Row],
) -> Result<(), String> {
    let engine = &cluster.engine;
    let err = |e: sqlml_common::SqlmlError| e.to_string();
    let tmp = "__bench_insql_check";
    engine
        .execute(&format!("CREATE TABLE {tmp} AS {}", request.prep_sql))
        .map_err(err)?;
    let out = InSqlTransformer::new(engine.clone()).transform(tmp, &request.spec);
    let _ = engine.catalog().drop_table(tmp);
    let insql = out.map_err(err)?.table.collect_sorted();
    if insql.as_slice() == external_sorted {
        Ok(())
    } else {
        Err(format!(
            "In-SQL transform ({} rows) differs from external transform ({} rows)",
            insql.len(),
            external_sorted.len()
        ))
    }
}

/// `Strategy::InSqlStream` step by step: parse → plan → describe → CTAS
/// → recode pass 1 → pass 2 + dummy coding → `StreamSession::run`
/// (transfer overlapped with stream ingest, then training).
fn reenact_stream(
    cluster: &SimCluster,
    request: &PipelineRequest,
    op: usize,
    tr: &mut Tracer,
) -> Result<Reenacted, String> {
    let engine = &cluster.engine;
    let err = |e: sqlml_common::SqlmlError| e.to_string();
    let transformer = InSqlTransformer::new(engine.clone());
    let tmp = format!("__bench_prep_{op}");
    let streamed = format!("__bench_stream_{op}");

    let rows_in = scanned_rows(cluster);
    let root = tr.open(op, None, "core.op");
    let body = (|| {
        let pl = tr.open(op, Some(root), "core.pipeline");
        let stmt = tr
            .span(op, Some(pl), "sqlengine.parse", || {
                parse_select(&request.prep_sql)
            })
            .map_err(err)?;
        tr.span(op, Some(pl), "sqlengine.plan", || engine.plan(&stmt))
            .map_err(err)?;
        tr.span(op, Some(pl), "sqlengine.ctas", || {
            engine.execute(&format!("CREATE TABLE {tmp} AS {}", request.prep_sql))
        })
        .map_err(err)?;
        let prepared = engine.catalog().table(&tmp).map_err(err)?;
        let columns = request.spec.effective_recode_columns(prepared.schema());
        let map = tr
            .span(op, Some(pl), "transform.recode_map_build", || {
                transformer.build_recode_map(&tmp, &columns)
            })
            .map_err(err)?;
        let out = tr
            .span(op, Some(pl), "transform.apply", || {
                transformer.transform_with_map(&tmp, &request.spec, &map)
            })
            .map_err(err)?;
        engine.register_table(&streamed, out.table.clone());
        let outcome = stream_run(cluster, &streamed, request, op, pl, tr);
        let _ = engine.catalog().drop_table(&streamed);
        let outcome = outcome?;
        tr.close(pl);
        let train_s = outcome.job.train_duration.as_secs_f64();
        let pipeline_s = tr.spans()[pl].dur_s() - train_s;

        let micro = tr.open(op, Some(root), "micro");
        tr.span(op, Some(micro), "transform.total", || {
            transformer.transform(&tmp, &request.spec)
        })
        .map_err(err)?;
        tr.span(op, Some(micro), "sqlengine.prep_query", || {
            engine.query(&request.prep_sql)
        })
        .map_err(err)?;
        let rewriter = QueryRewriter::new(engine.clone());
        tr.span(op, Some(micro), "rewriter.rewrite", || {
            rewriter.rewrite(&request.prep_sql, &request.spec, None)
        })
        .map_err(err)?;
        let rows: Vec<Row> = out.table.collect_rows();
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(rows.len() / FRAME_ROWS + 1);
        let mut encoded = Ok(());
        let encode_ns = ns_per_row(rows.len(), || {
            for chunk in rows.chunks(FRAME_ROWS) {
                let mut buf = Vec::new();
                if let Err(e) = codec::encode_compact_batch(chunk, &mut buf) {
                    encoded = Err(e);
                    return;
                }
                frames.push(buf);
            }
        });
        encoded.map_err(err)?;
        let mut decoded_rows = 0usize;
        let mut decoded = Ok(());
        let decode_ns = ns_per_row(rows.len(), || {
            for frame in &frames {
                match codec::decode_compact_batch(frame) {
                    Ok(r) => decoded_rows += r.len(),
                    Err(e) => {
                        decoded = Err(e);
                        return;
                    }
                }
            }
        });
        decoded.map_err(err)?;
        if decoded_rows != rows.len() {
            return Err("compact codec round trip lost rows".into());
        }
        let frame_bytes: usize = frames.iter().map(Vec::len).sum();
        tr.close(micro);

        Ok(Reenacted {
            rows_to_ml: outcome.stats.rows_ingested,
            pipeline_s,
            counts: vec![
                ("common.compact_encode_ns_per_row", encode_ns),
                ("common.compact_decode_ns_per_row", decode_ns),
                (
                    "common.compact_bytes_per_row",
                    frame_bytes as f64 / rows.len().max(1) as f64,
                ),
                ("sqlengine.rows_in", rows_in),
                ("sqlengine.rows_out", prepared.num_rows() as f64),
                (
                    "sqlengine.rows_in_per_row_out",
                    rows_in / (prepared.num_rows() as f64).max(1.0),
                ),
                ("transform.rows_out", out.table.num_rows() as f64),
                ("transform.cols_out", out.table.schema().len() as f64),
                ("mlengine.rows_ingested", outcome.stats.rows_ingested as f64),
            ],
        })
    })();
    let _ = engine.catalog().drop_table(&tmp);
    tr.close(root);
    body
}

/// `StreamSession::run` over an already registered transformed table,
/// split after the fact into the hand-off (`transfer.stream`) and the
/// training the job reports (`mlengine.train`). Shared with the
/// exploration workload, whose every query ends in this call.
pub fn stream_run(
    cluster: &SimCluster,
    table: &str,
    request: &PipelineRequest,
    op: usize,
    parent: SpanId,
    tr: &mut Tracer,
) -> Result<sqlml_transfer::session::StreamRunOutcome, String> {
    let t0 = Instant::now();
    let result = cluster.stream.run(
        &cluster.engine,
        table,
        &request.ml_command,
        &cluster.stream_config(),
    );
    let t1 = Instant::now();
    let call = tr.record(op, Some(parent), "transfer.stream_run", t0, t1);
    if let Ok(outcome) = &result {
        let cut = t1
            .checked_sub(outcome.job.train_duration)
            .map_or(t0, |t| t.max(t0));
        tr.record(op, Some(call), "transfer.stream", t0, cut);
        tr.record(op, Some(call), "mlengine.train", cut, t1);
    }
    result.map_err(|e| e.to_string())
}

/// Transfer counters the program reports (`StreamStats`) for the real
/// runs: `ops` holds, per operation, the stats of each request in it.
/// Counts are summed over an operation's requests and the median taken
/// across operations; the two waits are medians over single requests.
pub fn transfer_metrics(
    layers: &mut std::collections::BTreeMap<&'static str, f64>,
    ops: &[Vec<&StreamStats>],
) {
    let requests: Vec<&StreamStats> = ops.iter().flatten().copied().collect();
    if requests.is_empty() {
        return;
    }
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let first_row: Vec<f64> = requests
        .iter()
        .filter_map(|s| s.receive.time_to_first_row.map(ms))
        .collect();
    let waits: Vec<f64> = requests
        .iter()
        .map(|s| ms(s.receive.prefetch_wait))
        .collect();
    set(
        layers,
        "transfer.first_row_ms_p50",
        stats::median(&first_row),
    );
    set(
        layers,
        "transfer.prefetch_wait_ms_p50",
        stats::median(&waits),
    );

    let per_op = |f: &dyn Fn(&StreamStats) -> u64| -> Vec<f64> {
        ops.iter()
            .map(|op| op.iter().map(|s| f(s)).sum::<u64>() as f64)
            .collect()
    };
    let total = |f: &dyn Fn(&StreamStats) -> u64| stats::median(&per_op(f));
    let (rows, bytes) = (total(&|s| s.rows_sent), total(&|s| s.bytes_sent));
    set(
        layers,
        "transfer.sender_stall_us",
        total(&|s| s.sender_stall_us),
    );
    set(layers, "transfer.rows_sent", rows);
    set(layers, "transfer.bytes_sent", bytes);
    set(layers, "transfer.batches_sent", total(&|s| s.batches_sent));
    set(layers, "transfer.bytes_per_row", bytes / rows.max(1.0));
    set(
        layers,
        "transfer.bytes_spilled",
        total(&|s| s.bytes_spilled),
    );
    set(layers, "transfer.spill_events", total(&|s| s.spill_events));
    let hits = total(&|s| s.dict_hits);
    let lookups = hits + total(&|s| s.dict_misses);
    set(layers, "transfer.dict_hit_ratio", hits / lookups.max(1.0));
    let deepest: Vec<f64> = ops
        .iter()
        .map(|op| op.iter().map(|s| s.queue_depth_hw).max().unwrap_or(0) as f64)
        .collect();
    set(layers, "transfer.queue_depth_hw", stats::median(&deepest));
    set(
        layers,
        "transfer.max_attempts",
        requests.iter().map(|s| s.max_attempts).max().unwrap_or(0) as f64,
    );
}

/// Median of one named stage bar over the real runs' `StageTimer`s.
fn stage_p50(reports: &[PipelineReport], stage: &str) -> f64 {
    let bars: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.timer.get(stage))
        .map(|d| d.as_secs_f64())
        .collect();
    stats::median(&bars)
}

fn layer_metrics(
    strategy: Strategy,
    tr: &Tracer,
    reports: &[PipelineReport],
    reenacted: &[Reenacted],
) -> std::collections::BTreeMap<&'static str, f64> {
    let mut m = zeroed_layers();
    for (metric, span, scale) in [
        ("sqlengine.parse_us_p50", "sqlengine.parse", 1e6),
        ("sqlengine.plan_us_p50", "sqlengine.plan", 1e6),
        ("sqlengine.prep_query_s_p50", "sqlengine.prep_query", 1.0),
        ("sqlengine.ctas_s_p50", "sqlengine.ctas", 1.0),
        ("dfs.write_s_p50", "dfs.write", 1.0),
        ("dfs.read_s_p50", "dfs.read", 1.0),
        (
            "core.external_transform_s_p50",
            "core.external_transform",
            1.0,
        ),
        (
            "transform.recode_map_build_s_p50",
            "transform.recode_map_build",
            1.0,
        ),
        ("transform.apply_s_p50", "transform.apply", 1.0),
        ("transform.total_s_p50", "transform.total", 1.0),
        ("transfer.stream_s_p50", "transfer.stream", 1.0),
        ("mlengine.text_ingest_s_p50", "mlengine.text_ingest", 1.0),
        ("mlengine.train_s_p50", "mlengine.train", 1.0),
        ("rewriter.rewrite_us_p50", "rewriter.rewrite", 1e6),
    ] {
        set(&mut m, metric, tr.p50(span) * scale);
    }
    // Counts and per-row costs: medians of the per-operation values (the
    // exact ones are the same in every operation).
    if let Some(first) = reenacted.first() {
        for (i, (name, _)) in first.counts.iter().enumerate() {
            let per_op: Vec<f64> = reenacted.iter().map(|r| r.counts[i].1).collect();
            set(&mut m, name, stats::median(&per_op));
        }
    }
    match strategy {
        Strategy::Naive => {
            set(&mut m, "core.stage_prep_s_p50", stage_p50(reports, "prep"));
            set(
                &mut m,
                "core.stage_trsfm_s_p50",
                stage_p50(reports, "trsfm"),
            );
            set(
                &mut m,
                "core.stage_input_s_p50",
                stage_p50(reports, "input for ml"),
            );
        }
        _ => set(
            &mut m,
            "core.stage_prep_trsfm_input_s_p50",
            stage_p50(reports, "prep+trsfm+input"),
        ),
    }
    let streamed: Vec<Vec<&StreamStats>> = reports
        .iter()
        .map(|r| r.stream_stats.iter().collect())
        .collect();
    transfer_metrics(&mut m, &streamed);

    let real: Vec<f64> = reports
        .iter()
        .map(|r| r.pipeline_time().as_secs_f64())
        .collect();
    let again: Vec<f64> = reenacted.iter().map(|r| r.pipeline_s).collect();
    let ratio = stats::median(&again) / stats::median(&real).max(f64::EPSILON);
    set(&mut m, "trace.reenact_ratio", ratio);
    set(&mut m, "trace.overhead_pct", (ratio - 1.0) * 100.0);
    m
}
