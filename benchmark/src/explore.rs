//! `explore-session`: an analyst iterating on variants of one query — the
//! user the §5 caches exist for. One operation is a session: a fresh
//! cached pipeline runs a fixed six-query script under `InSqlStream`, and
//! the cache is emptied before the next session.
//!
//! The script fixes how much work its queries share: Q0 misses and
//! stores, Q1–Q3 are §5.1 full-result hits (same query / extra predicate /
//! narrower projection), Q4 is a §5.2 recode-map hit (wider projection),
//! Q5 misses (another country). Four of six queries skip `transform`
//! entirely; none can skip `transfer`.

use std::sync::Arc;
use std::time::Instant;

use sqlml_cache::{CacheDecision, CacheManager, QueryDescriptor};
use sqlml_core::{CacheMode, Pipeline, PipelineReport, PipelineRequest, SimCluster, Strategy};
use sqlml_sqlengine::parser::parse_select;
use sqlml_transfer::StreamStats;
use sqlml_transform::InSqlTransformer;

use crate::batch::{scanned_rows, stream_run, transfer_metrics};
use crate::gen::{oracle_rows, session_script, Prep};
use crate::harness::{
    boot_cluster, check_report, end_to_end_metrics, set, timed_setup, zeroed_layers, Gate, Outcome,
    RunArgs, WARMUP_OPS,
};
use crate::stats;
use crate::trace::Tracer;

/// Frozen input size: 400K carts, 4K users.
const CARTS: usize = 400_000;

/// §5 reuse the script must get, query by query.
const EXPECTED_CACHE: [CacheMode; 6] = [
    CacheMode::None,
    CacheMode::FullResult,
    CacheMode::FullResult,
    CacheMode::FullResult,
    CacheMode::RecodeMap,
    CacheMode::None,
];

struct Query {
    request: PipelineRequest,
    expected_rows: usize,
    expected_cache: CacheMode,
}

/// One real session; returns its wall-clock seconds and, when every
/// query passed the gate, the six reports with each query's wall time.
fn run_session(
    cluster: &SimCluster,
    script: &[Query],
    gate: &mut Gate,
    op: usize,
) -> (f64, Option<Vec<(f64, PipelineReport)>>) {
    let pipeline = Pipeline::with_cache(cluster);
    let mut reports = Vec::with_capacity(script.len());
    let mut verdict = Ok(());
    let t0 = Instant::now();
    for (i, q) in script.iter().enumerate() {
        let tq = Instant::now();
        let result = pipeline.run(&q.request, Strategy::InSqlStream);
        let wall = tq.elapsed().as_secs_f64();
        match result {
            Ok(r) => {
                if let Err(why) = check_report(&r, q.expected_rows, Some(q.expected_cache)) {
                    verdict = verdict.and(Err(format!("Q{i}: {why}")));
                }
                reports.push((wall, r));
            }
            Err(e) => {
                verdict = Err(format!("Q{i}: {e}"));
                break;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    if let Some(cache) = pipeline.cache() {
        cache.invalidate_all();
    }
    let ok = gate.check(&format!("session {op}"), verdict);
    (wall, ok.then_some(reports))
}

pub fn run(args: &RunArgs) -> Outcome {
    let scale = args.scale(CARTS);
    let steps = session_script();
    let preps: Vec<Prep> = steps.iter().map(|(p, _)| *p).collect();
    let oracle = oracle_rows(scale, args.seed, &preps);
    let script: Vec<Query> = steps
        .iter()
        .zip(EXPECTED_CACHE)
        .map(|((prep, algorithm), expected_cache)| Query {
            request: prep.request(algorithm),
            expected_rows: oracle[&prep.sql()],
            expected_cache,
        })
        .collect();

    let (cluster, setup_times) = timed_setup(|| boot_cluster(scale, args.seed));
    let mut gate = Gate::default();

    // Sequential Naive reference, once per distinct preparation query.
    {
        let reference = Pipeline::new(&cluster);
        let mut seen = std::collections::BTreeSet::new();
        for q in &script {
            if seen.insert(q.request.prep_sql.clone()) {
                let verdict = reference
                    .run(&q.request, Strategy::Naive)
                    .map_err(|e| e.to_string())
                    .and_then(|r| check_report(&r, q.expected_rows, None));
                gate.check("naive reference", verdict);
            }
        }
    }

    let mut warmup = Gate::default();
    for op in 0..WARMUP_OPS {
        run_session(&cluster, &script, &mut warmup, op);
    }
    assert_eq!(warmup.failed, 0, "warm-up failed: {:?}", warmup.failures);

    let mut op_s = Vec::new();
    let mut query_s = Vec::new();
    let mut pipeline_s = Vec::new();
    let (mut ok_requests, mut ok_rows) = (0usize, 0usize);
    let start = Instant::now();

    if !args.trace {
        while args.window_open(op_s.len(), start) {
            let (wall, reports) = run_session(&cluster, &script, &mut gate, op_s.len());
            op_s.push(wall);
            if let Some(reports) = reports {
                query_s.extend(reports.iter().map(|(wall, _)| *wall));
                pipeline_s.push(
                    reports
                        .iter()
                        .map(|(_, r)| r.pipeline_time().as_secs_f64())
                        .sum(),
                );
                ok_requests += reports.len();
                ok_rows += reports.iter().map(|(_, r)| r.rows_to_ml).sum::<usize>();
            }
        }
        let window_s = start.elapsed().as_secs_f64();
        let metrics = end_to_end_metrics(
            &setup_times,
            &op_s,
            stats::percentile(&query_s, 95.0),
            &pipeline_s,
            ok_requests,
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
                ("query_s", query_s),
                ("pipeline_s", pipeline_s),
            ],
            tracer: None,
        };
    }

    // Traced run: real session, then the same session re-enacted call by
    // call (describe → lookup → cached select | CTAS + recode passes +
    // store → stream) against a cache manager of the harness's own.
    let mut tracer = Tracer::new();
    let mut sessions: Vec<Vec<(f64, PipelineReport)>> = Vec::new();
    let mut reenacted_s = Vec::new();
    let mut counts = None;
    while args.window_open(reenacted_s.len(), start) {
        let op = reenacted_s.len();
        let (wall, reports) = run_session(&cluster, &script, &mut gate, op);
        op_s.push(wall);
        sessions.extend(reports);
        match reenact_session(&cluster, &script, op, &mut tracer) {
            Ok(r) => {
                gate.check(&format!("traced session {op}"), Ok(()));
                for (name, value) in [
                    ("cache.full_hits", r.full_hits as f64),
                    ("cache.map_hits", r.map_hits as f64),
                    ("cache.misses", r.misses as f64),
                    ("sqlengine.rows_in", r.rows_in),
                    ("sqlengine.rows_out", r.rows_out),
                    ("transform.rows_out", r.transform_rows_out),
                    ("mlengine.rows_ingested", r.rows_ingested),
                ] {
                    tracer.count(op, name, value);
                }
                reenacted_s.push(r.pipeline_s);
                counts.get_or_insert(r);
            }
            Err(why) => {
                gate.check(&format!("traced session {op}"), Err(why));
                break;
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();

    let mut m = zeroed_layers();
    for (metric, span, scale) in [
        ("sqlengine.parse_us_p50", "sqlengine.parse", 1e6),
        ("sqlengine.ctas_s_p50", "sqlengine.ctas", 1.0),
        (
            "transform.recode_map_build_s_p50",
            "transform.recode_map_build",
            1.0,
        ),
        ("transform.apply_s_p50", "transform.apply", 1.0),
        ("transfer.stream_s_p50", "transfer.stream", 1.0),
        ("mlengine.train_s_p50", "mlengine.train", 1.0),
        ("cache.describe_us_p50", "cache.describe", 1e6),
        ("cache.lookup_us_p50", "cache.lookup", 1e6),
        ("cache.probe_us_p50", "cache.probe", 1e6),
        ("cache.store_full_s_p50", "cache.store_full", 1.0),
        ("cache.cached_select_s_p50", "cache.cached_select", 1.0),
    ] {
        set(&mut m, metric, tracer.p50(span) * scale);
    }
    if let Some(c) = &counts {
        let hits = (c.full_hits + c.map_hits) as f64;
        set(&mut m, "cache.full_hits", c.full_hits as f64);
        set(&mut m, "cache.map_hits", c.map_hits as f64);
        set(&mut m, "cache.misses", c.misses as f64);
        set(
            &mut m,
            "cache.hit_ratio",
            hits / (hits + c.misses as f64).max(1.0),
        );
        set(&mut m, "sqlengine.rows_in", c.rows_in);
        set(&mut m, "sqlengine.rows_out", c.rows_out);
        set(
            &mut m,
            "sqlengine.rows_in_per_row_out",
            c.rows_in / c.rows_out.max(1.0),
        );
        set(&mut m, "transform.rows_out", c.transform_rows_out);
        set(&mut m, "transform.cols_out", c.transform_cols_out);
        set(&mut m, "mlengine.rows_ingested", c.rows_ingested);
    }
    let all: Vec<&(f64, PipelineReport)> = sessions.iter().flatten().collect();
    for (metric, mode) in [
        ("cache.full_hit_run_s_p50", CacheMode::FullResult),
        ("cache.map_hit_run_s_p50", CacheMode::RecodeMap),
        ("cache.miss_run_s_p50", CacheMode::None),
    ] {
        let walls: Vec<f64> = all
            .iter()
            .filter(|(_, r)| r.cache_use == mode)
            .map(|(w, _)| *w)
            .collect();
        set(&mut m, metric, stats::median(&walls));
    }
    let stage: Vec<f64> = all
        .iter()
        .map(|(_, r)| r.pipeline_time().as_secs_f64())
        .collect();
    set(
        &mut m,
        "core.stage_prep_trsfm_input_s_p50",
        stats::median(&stage),
    );
    let streamed: Vec<Vec<&StreamStats>> = sessions
        .iter()
        .map(|s| {
            s.iter()
                .filter_map(|(_, r)| r.stream_stats.as_ref())
                .collect()
        })
        .collect();
    transfer_metrics(&mut m, &streamed);
    let real: Vec<f64> = sessions
        .iter()
        .map(|s| s.iter().map(|(_, r)| r.pipeline_time().as_secs_f64()).sum())
        .collect();
    let ratio = stats::median(&reenacted_s) / stats::median(&real).max(f64::EPSILON);
    set(&mut m, "trace.reenact_ratio", ratio);
    set(&mut m, "trace.overhead_pct", (ratio - 1.0) * 100.0);

    Outcome {
        scale,
        gate,
        metrics: m,
        ops: reenacted_s.len(),
        window_s,
        timings: vec![("setup_s", setup_times), ("op_s", op_s)],
        tracer: Some(tracer),
    }
}

/// Counts of one re-enacted session, summed over its six queries
/// (identical in every session).
struct SessionCounts {
    /// Blocking steps of all six queries, training excluded.
    pipeline_s: f64,
    full_hits: usize,
    map_hits: usize,
    misses: usize,
    rows_in: f64,
    rows_out: f64,
    transform_rows_out: f64,
    transform_cols_out: f64,
    rows_ingested: f64,
}

fn reenact_session(
    cluster: &SimCluster,
    script: &[Query],
    op: usize,
    tr: &mut Tracer,
) -> Result<SessionCounts, String> {
    let engine = &cluster.engine;
    let err = |e: sqlml_common::SqlmlError| e.to_string();
    let cache = Arc::new(CacheManager::new(engine.clone()));
    let transformer = InSqlTransformer::new(engine.clone());
    let mut c = SessionCounts {
        pipeline_s: 0.0,
        full_hits: 0,
        map_hits: 0,
        misses: 0,
        rows_in: 0.0,
        rows_out: 0.0,
        transform_rows_out: 0.0,
        transform_cols_out: 0.0,
        rows_ingested: 0.0,
    };

    let root = tr.open(op, None, "core.op");
    let body = (|| {
        for (i, q) in script.iter().enumerate() {
            let (sql, spec) = (&q.request.prep_sql, &q.request.spec);
            let tmp = format!("__bench_prep_{op}_{i}");
            let streamed = format!("__bench_stream_{op}_{i}");
            let ql = tr.open(op, Some(root), "core.pipeline");
            let stmt = tr
                .span(op, Some(ql), "sqlengine.parse", || parse_select(sql))
                .map_err(err)?;
            let descriptor = tr
                .span(op, Some(ql), "cache.describe", || {
                    QueryDescriptor::from_select(&stmt, engine.catalog())
                })
                .map_err(err)?
                .ok_or_else(|| format!("Q{i} is not a cacheable query"))?;
            let decision = tr.span(op, Some(ql), "cache.lookup", || {
                cache.lookup(&descriptor, spec)
            });
            let (table, mode) = match decision {
                CacheDecision::Full(reuse) => {
                    c.full_hits += 1;
                    let t = tr
                        .span(op, Some(ql), "cache.cached_select", || {
                            engine.query(&reuse.sql)
                        })
                        .map_err(err)?;
                    (t, CacheMode::FullResult)
                }
                other => {
                    tr.span(op, Some(ql), "sqlengine.ctas", || {
                        engine.execute(&format!("CREATE TABLE {tmp} AS {sql}"))
                    })
                    .map_err(err)?;
                    let prepared = engine.catalog().table(&tmp).map_err(err)?;
                    c.rows_in += scanned_rows(cluster);
                    c.rows_out += prepared.num_rows() as f64;
                    let (map, mode) = match other {
                        CacheDecision::RecodeMap(map) => {
                            c.map_hits += 1;
                            (map, CacheMode::RecodeMap)
                        }
                        _ => {
                            c.misses += 1;
                            let columns = spec.effective_recode_columns(prepared.schema());
                            let map = tr
                                .span(op, Some(ql), "transform.recode_map_build", || {
                                    transformer.build_recode_map(&tmp, &columns)
                                })
                                .map_err(err)?;
                            (map, CacheMode::None)
                        }
                    };
                    let out = tr.span(op, Some(ql), "transform.apply", || {
                        transformer.transform_with_map(&tmp, spec, &map)
                    });
                    let _ = engine.catalog().drop_table(&tmp);
                    let out = out.map_err(err)?;
                    c.transform_rows_out += out.table.num_rows() as f64;
                    c.transform_cols_out += out.table.schema().len() as f64;
                    if mode == CacheMode::None {
                        tr.span(op, Some(ql), "cache.store_full", || {
                            cache.store_full(
                                descriptor.clone(),
                                spec.clone(),
                                out.recode_map.clone(),
                                out.table.clone(),
                            )
                        });
                    }
                    (out.table, mode)
                }
            };
            if mode != q.expected_cache {
                return Err(format!(
                    "Q{i}: re-enacted cache decision {mode:?} != {:?}",
                    q.expected_cache
                ));
            }
            engine.register_table(&streamed, table);
            let outcome = stream_run(cluster, &streamed, &q.request, op, ql, tr);
            let _ = engine.catalog().drop_table(&streamed);
            let outcome = outcome?;
            tr.close(ql);
            c.pipeline_s += tr.spans()[ql].dur_s() - outcome.job.train_duration.as_secs_f64();
            if outcome.stats.rows_ingested != q.expected_rows {
                return Err(format!(
                    "Q{i}: re-enacted rows_to_ml {} != reference {}",
                    outcome.stats.rows_ingested, q.expected_rows
                ));
            }
            c.rows_ingested += outcome.stats.rows_ingested as f64;
            if i == 0 {
                // What the scheduler's router asks of a warm shard: would
                // the next query hit? (No SQL built, no counters bumped.)
                let next = parse_select(&script[2].request.prep_sql)
                    .and_then(|s| QueryDescriptor::from_select(&s, engine.catalog()))
                    .map_err(err)?
                    .ok_or("Q2 is not a cacheable query")?;
                let micro = tr.open(op, Some(root), "micro");
                tr.span(op, Some(micro), "cache.probe", || {
                    cache.probe(&next, &script[2].request.spec)
                });
                tr.close(micro);
            }
        }
        Ok(())
    })();
    cache.invalidate_all();
    tr.close(root);
    body.map(|()| c)
}
