//! The three end-to-end pipelines of the paper's evaluation, plus the §5
//! caching variants — the code behind Figures 3 and 4.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_cache::{CacheDecision, CacheManager, QueryDescriptor};
use sqlml_common::{CancelToken, Result, SqlmlError, StageTimer};
use sqlml_mlengine::job::{JobRunner, TrainedModel, TrainingSpec};
use sqlml_sqlengine::parser::parse_select;
use sqlml_sqlengine::PartitionedTable;
use sqlml_transfer::StreamStats;
use sqlml_transform::{InSqlTransformer, RecodeMap, TransformSpec};

use crate::cluster::SimCluster;
use crate::naive::run_external_transform;

/// The three approaches compared in Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// SQL → DFS → external transform → DFS → ML.
    Naive,
    /// Prep query materialized in the engine, In-SQL UDF transform of
    /// that table (two passes, or one with a cached map) → DFS → ML.
    InSql,
    /// Same prep + In-SQL transform → parallel streaming → ML. No file
    /// system.
    InSqlStream,
}

impl Strategy {
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::InSql => "insql",
            Strategy::InSqlStream => "insql+stream",
        }
    }
}

/// Which §5 cache reuse a run enjoyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    None,
    RecodeMap,
    FullResult,
}

/// One integration request: preparation query, transformation, target
/// algorithm.
#[derive(Debug, Clone)]
pub struct PipelineRequest {
    pub prep_sql: String,
    pub spec: TransformSpec,
    /// ML command, e.g. `svm label=4 iterations=10` — label indices refer
    /// to the *transformed* schema.
    pub ml_command: String,
}

/// The outcome of one pipeline run.
#[derive(Debug)]
pub struct PipelineReport {
    pub strategy: Strategy,
    /// Stage breakdown with Figure 3's stage names (`prep`, `trsfm`,
    /// `input for ml`, or the pipelined combinations). Training time is
    /// *excluded*, as in the paper.
    pub timer: StageTimer,
    pub model: TrainedModel,
    pub rows_to_ml: usize,
    pub cache_use: CacheMode,
    /// Present for [`Strategy::InSqlStream`] runs.
    pub stream_stats: Option<StreamStats>,
    /// Reported separately (the paper excludes it from the comparison).
    pub train_time: Duration,
}

impl PipelineReport {
    /// End-to-end time excluding training — the quantity Figure 3 plots.
    pub fn pipeline_time(&self) -> Duration {
        self.timer.total()
    }

    /// One-line transfer-throughput summary for streaming runs, rendered
    /// alongside the stage breakdown: rows/bytes/batches sent, wire
    /// throughput, spill activity, time to first row at the ML side,
    /// restart attempts, and the overlapped-plane counters (sender queue
    /// stall/depth, reader wait). `None` for strategies that never
    /// streamed.
    pub fn transfer_summary(&self) -> Option<String> {
        use sqlml_common::timer::{format_bytes, format_duration};
        let s = self.stream_stats.as_ref()?;
        let secs = self.pipeline_time().as_secs_f64().max(1e-9);
        let throughput = format_bytes((s.bytes_sent as f64 / secs) as u64);
        let first_row = s
            .receive
            .time_to_first_row
            .map_or_else(|| "n/a".to_string(), format_duration);
        Some(format!(
            "transfer: {} rows, {} in {} batches ({throughput}/s wire), \
             spilled {} ({} events), first row +{first_row}, attempts {}, \
             queue hw {} frames, sender stalled {}, readers waited {}",
            s.rows_sent,
            format_bytes(s.bytes_sent),
            s.batches_sent,
            format_bytes(s.bytes_spilled),
            s.spill_events,
            s.max_attempts,
            s.queue_depth_hw,
            format_duration(std::time::Duration::from_micros(s.sender_stall_us)),
            format_duration(s.receive.prefetch_wait),
        ))
    }
}

static RUN_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Parse a preparation query into its cacheable §5 descriptor against an
/// engine's catalog (`None` for queries outside the SPJ shape). Shared
/// by the pipeline's own cache path and by the serving plane's router,
/// which probes every shard's cache with the same descriptor before
/// placing a request.
pub fn describe_prep(
    engine: &sqlml_sqlengine::Engine,
    sql: &str,
) -> Result<Option<QueryDescriptor>> {
    let stmt = parse_select(sql)?;
    QueryDescriptor::from_select(&stmt, engine.catalog())
}

/// Pipeline driver bound to one simulated cluster.
pub struct Pipeline<'c> {
    cluster: &'c SimCluster,
    transformer: InSqlTransformer,
    cache: Option<Arc<CacheManager>>,
}

impl<'c> Pipeline<'c> {
    /// A pipeline without caching.
    pub fn new(cluster: &'c SimCluster) -> Pipeline<'c> {
        let transformer = InSqlTransformer::new(cluster.engine.clone());
        cluster
            .stream
            .install_udf(&cluster.engine, &cluster.stream_config(), None);
        Pipeline {
            cluster,
            transformer,
            cache: None,
        }
    }

    /// A pipeline with the §5 cache enabled.
    pub fn with_cache(cluster: &'c SimCluster) -> Pipeline<'c> {
        Pipeline::with_shared_cache(cluster, Arc::new(CacheManager::new(cluster.engine.clone())))
    }

    /// A pipeline over a **shared** cache manager — the serving-plane
    /// shape, where many concurrent pipelines populate and hit one §5
    /// cache on the same cluster.
    pub fn with_shared_cache(cluster: &'c SimCluster, cache: Arc<CacheManager>) -> Pipeline<'c> {
        let mut p = Pipeline::new(cluster);
        p.cache = Some(cache);
        p
    }

    pub fn cache(&self) -> Option<&Arc<CacheManager>> {
        self.cache.as_ref()
    }

    /// Run one request under the chosen strategy.
    pub fn run(&self, req: &PipelineRequest, strategy: Strategy) -> Result<PipelineReport> {
        self.run_with(req, strategy, &CancelToken::new())
    }

    /// [`Pipeline::run`] with a cooperative cancellation token. The token
    /// is polled at every stage boundary, and inside the streaming
    /// transfer at every frame cut; when it fires, the run unwinds with
    /// [`SqlmlError::Cancelled`] through the normal error path (temp
    /// tables dropped, DFS staging directories deleted, sockets closed).
    pub fn run_with(
        &self,
        req: &PipelineRequest,
        strategy: Strategy,
        cancel: &CancelToken,
    ) -> Result<PipelineReport> {
        let ml_spec = TrainingSpec::parse(&req.ml_command)?;
        cancel.check("admission")?;
        match strategy {
            Strategy::Naive => self.run_naive(req, &ml_spec, cancel),
            Strategy::InSql => self.run_insql(req, &ml_spec, cancel),
            Strategy::InSqlStream => self.run_insql_stream(req, &ml_spec, cancel),
        }
    }

    // -- naive ------------------------------------------------------------

    fn run_naive(
        &self,
        req: &PipelineRequest,
        ml_spec: &TrainingSpec,
        cancel: &CancelToken,
    ) -> Result<PipelineReport> {
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir_prep = format!("/tmp_pipeline/{seq}/prep");
        let dir_tfm = format!("/tmp_pipeline/{seq}/trsfm");
        let dfs = &self.cluster.dfs;
        let engine = &self.cluster.engine;
        let mut timer = StageTimer::new();

        // Staging directories must not outlive a cancelled (or failed)
        // run, so the staged work runs in a closure and the cleanup
        // happens on both exits.
        let staged = (|| {
            // Stage 1: run the query, materialize on the DFS.
            let prep_schema = engine.validate(&req.prep_sql)?;
            timer.time("prep", || {
                engine.query_to_dfs(&req.prep_sql, dfs, &dir_prep)
            })?;
            cancel.check("prep")?;

            // Stage 2: the external (Jaql-substitute) transformation,
            // DFS → DFS.
            let external = timer.time("trsfm", || {
                run_external_transform(dfs, &dir_prep, &prep_schema, &req.spec, &dir_tfm)
            })?;
            cancel.check("trsfm")?;

            // Stage 3: ML job ingests from the DFS.
            let fmt = self
                .cluster
                .text_input_format(&dir_tfm, external.schema.clone());
            let runner = JobRunner::new(self.cluster.ml_job_config());
            let (dataset, ingest) = runner.ingest_dataset(&fmt, ml_spec.label_col())?;
            timer.record("input for ml", ingest.duration);
            cancel.check("input for ml")?;

            let t_train = Instant::now();
            let model = runner.train(&dataset, ml_spec)?;
            Ok::<_, SqlmlError>((model, ingest.rows, t_train.elapsed()))
        })();
        self.cleanup_dir(&dir_prep);
        self.cleanup_dir(&dir_tfm);
        let (model, rows_to_ml, train_time) = staged?;
        Ok(PipelineReport {
            strategy: Strategy::Naive,
            timer,
            model,
            rows_to_ml,
            cache_use: CacheMode::None,
            stream_stats: None,
            train_time,
        })
    }

    // -- insql ------------------------------------------------------------

    fn run_insql(
        &self,
        req: &PipelineRequest,
        ml_spec: &TrainingSpec,
        cancel: &CancelToken,
    ) -> Result<PipelineReport> {
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir_tfm = format!("/tmp_pipeline/{seq}/insql");
        let dfs = &self.cluster.dfs;
        let mut timer = StageTimer::new();

        let staged = (|| {
            // Stage 1 (one bar, as in Figure 3): prep query + In-SQL
            // transformation inside the engine, then one materialization
            // onto the DFS for the hand-off.
            let (transformed, cache_use) = timer.time("prep+trsfm", || {
                let out = self.prepare_and_transform(req, cancel)?;
                out.0.save_text(dfs, &dir_tfm)?;
                Ok::<_, SqlmlError>(out)
            })?;
            cancel.check("prep+trsfm")?;

            // Stage 2: ML ingests the hand-off files.
            let fmt = self
                .cluster
                .text_input_format(&dir_tfm, transformed.schema().clone());
            let runner = JobRunner::new(self.cluster.ml_job_config());
            let (dataset, ingest) = runner.ingest_dataset(&fmt, ml_spec.label_col())?;
            timer.record("input for ml", ingest.duration);
            cancel.check("input for ml")?;

            let t_train = Instant::now();
            let model = runner.train(&dataset, ml_spec)?;
            Ok::<_, SqlmlError>((model, ingest.rows, cache_use, t_train.elapsed()))
        })();
        self.cleanup_dir(&dir_tfm);
        let (model, rows_to_ml, cache_use, train_time) = staged?;
        Ok(PipelineReport {
            strategy: Strategy::InSql,
            timer,
            model,
            rows_to_ml,
            cache_use,
            stream_stats: None,
            train_time,
        })
    }

    // -- insql + streaming --------------------------------------------------

    fn run_insql_stream(
        &self,
        req: &PipelineRequest,
        _ml_spec: &TrainingSpec,
        cancel: &CancelToken,
    ) -> Result<PipelineReport> {
        let engine = &self.cluster.engine;
        let mut timer = StageTimer::new();
        let t0 = Instant::now();

        // Prep + transform inside the engine (possibly from cache), then
        // stream straight into the freshly launched ML job — nothing
        // touches the file system.
        let (transformed, cache_use) = self.prepare_and_transform(req, cancel)?;
        cancel.check("prep+trsfm")?;
        let tmp = format!(
            "__pipeline_stream_{}",
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        engine.register_table(&tmp, transformed);
        let outcome = self.cluster.stream.run_with_cancel(
            engine,
            &tmp,
            &req.ml_command,
            &self.cluster.stream_config(),
            cancel,
        );
        let _ = engine.catalog().drop_table(&tmp);
        let outcome = outcome?;

        // One pipelined bar, as in Figure 3 — minus training, which the
        // paper excludes.
        let total = t0.elapsed().saturating_sub(outcome.job.train_duration);
        timer.record("prep+trsfm+input", total);

        Ok(PipelineReport {
            strategy: Strategy::InSqlStream,
            timer,
            model: outcome.job.model,
            rows_to_ml: outcome.stats.rows_ingested,
            cache_use,
            stream_stats: Some(outcome.stats),
            train_time: outcome.job.train_duration,
        })
    }

    // -- shared -----------------------------------------------------------

    /// Produce the transformed table for a request, consulting the cache
    /// first (§5) and populating it afterwards. `cancel` is polled
    /// between the prep CTAS and the transform.
    fn prepare_and_transform(
        &self,
        req: &PipelineRequest,
        cancel: &CancelToken,
    ) -> Result<(PartitionedTable, CacheMode)> {
        let engine = &self.cluster.engine;
        let descriptor = self.describe(&req.prep_sql)?;

        // Consult the cache.
        let mut cached_map: Option<RecodeMap> = None;
        if let (Some(cache), Some(d)) = (&self.cache, &descriptor) {
            match cache.lookup(d, &req.spec) {
                CacheDecision::Full(reuse) => {
                    // §5.1: the whole query + transformation collapses to
                    // one select over the materialization.
                    let table = engine.query(&reuse.sql)?;
                    return Ok((table, CacheMode::FullResult));
                }
                CacheDecision::RecodeMap(map) => cached_map = Some(map),
                CacheDecision::Miss => {}
            }
        }

        // Materialize the prep result, then transform it In-SQL.
        let tmp = format!(
            "__pipeline_prep_{}",
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        engine.execute(&format!("CREATE TABLE {tmp} AS {}", req.prep_sql))?;
        // The temp table is dropped on every exit, a cancel included.
        let result = cancel.check("prep").and_then(|()| match &cached_map {
            Some(map) => self.transformer.transform_with_map(&tmp, &req.spec, map),
            None => self.transformer.transform(&tmp, &req.spec),
        });
        engine.execute(&format!("DROP TABLE {tmp}"))?;
        let out = result?;
        let cache_use = if cached_map.is_some() {
            CacheMode::RecodeMap
        } else {
            CacheMode::None
        };

        // Populate the cache for future runs.
        if let (Some(cache), Some(d)) = (&self.cache, descriptor) {
            if cache_use == CacheMode::None {
                cache.store_full(
                    d,
                    req.spec.clone(),
                    out.recode_map.clone(),
                    out.table.clone(),
                );
            }
        }
        Ok((out.table, cache_use))
    }

    fn describe(&self, sql: &str) -> Result<Option<QueryDescriptor>> {
        describe_prep(&self.cluster.engine, sql)
    }

    fn cleanup_dir(&self, dir: &str) {
        for f in self.cluster.dfs.list(&format!("{dir}/")) {
            let _ = self.cluster.dfs.delete(&f.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::workload::{WorkloadScale, PREP_QUERY};

    fn request() -> PipelineRequest {
        PipelineRequest {
            prep_sql: PREP_QUERY.to_string(),
            spec: TransformSpec::new(&["gender"]),
            // Transformed layout: age, gender_F, gender_M, amount,
            // abandoned — label at index 4.
            ml_command: "svm label=4 iterations=10".to_string(),
        }
    }

    fn cluster() -> SimCluster {
        let c = SimCluster::start(ClusterConfig::for_tests()).unwrap();
        c.load_workload(WorkloadScale::TINY, 11).unwrap();
        c
    }

    #[test]
    fn all_three_strategies_deliver_identical_datasets() {
        let cluster = cluster();
        let pipeline = Pipeline::new(&cluster);
        let mut row_counts = Vec::new();
        for strategy in [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream] {
            let report = pipeline.run(&request(), strategy).unwrap();
            assert!(report.rows_to_ml > 0, "{strategy:?} sent nothing");
            row_counts.push(report.rows_to_ml);
            assert_eq!(report.strategy, strategy);
            assert_eq!(report.cache_use, CacheMode::None);
        }
        assert_eq!(row_counts[0], row_counts[1]);
        assert_eq!(row_counts[1], row_counts[2]);
    }

    /// Figure 3 compares the strategies by `pipeline_time()`, so a Naive
    /// run's stages plus its training must be the whole run: everything
    /// between the hand-off files and the trainable dataset belongs to
    /// the `"input for ml"` bar, as it does to the stream bar.
    #[test]
    fn naive_stages_plus_training_account_for_the_wall_clock() {
        let cluster = SimCluster::start(ClusterConfig::for_tests()).unwrap();
        cluster
            .load_workload(WorkloadScale::with_carts(40_000), 11)
            .unwrap();
        let pipeline = Pipeline::new(&cluster);
        // Outside the stages: parsing the request, the cancel checks and
        // deleting the two staging directories. Best of three, so one
        // scheduling hiccup in that remainder does not decide the test.
        let unaccounted = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let report = pipeline.run(&request(), Strategy::Naive).unwrap();
                let wall = t0.elapsed();
                let accounted = report.pipeline_time() + report.train_time;
                wall.saturating_sub(accounted).as_secs_f64() / wall.as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            unaccounted < 0.05,
            "{:.1}% of a Naive run is in no stage and not training",
            unaccounted * 100.0
        );
    }

    #[test]
    fn stage_names_match_figure_3() {
        let cluster = cluster();
        let pipeline = Pipeline::new(&cluster);
        let naive = pipeline.run(&request(), Strategy::Naive).unwrap();
        let names: Vec<&str> = naive
            .timer
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["prep", "trsfm", "input for ml"]);
        let insql = pipeline.run(&request(), Strategy::InSql).unwrap();
        let names: Vec<&str> = insql
            .timer
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["prep+trsfm", "input for ml"]);
        let stream = pipeline.run(&request(), Strategy::InSqlStream).unwrap();
        let names: Vec<&str> = stream
            .timer
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["prep+trsfm+input"]);
        assert!(stream.stream_stats.is_some());
        // Throughput counters ride along with the stage report instead of
        // adding stages of their own.
        assert!(naive.transfer_summary().is_none());
        let summary = stream.transfer_summary().unwrap();
        assert!(
            summary.contains("batches") && summary.contains("first row"),
            "{summary}"
        );
        let stats = stream.stream_stats.as_ref().unwrap();
        assert!(stats.batches_sent > 0);
        assert_eq!(stats.receive.rows_received, stats.rows_sent);
        assert_eq!(stats.receive.batches_received, stats.batches_sent);
        assert!(stats.receive.time_to_first_row.is_some());
    }

    #[test]
    fn cached_full_result_short_circuits_second_run() {
        let cluster = cluster();
        let pipeline = Pipeline::with_cache(&cluster);
        let first = pipeline.run(&request(), Strategy::InSqlStream).unwrap();
        assert_eq!(first.cache_use, CacheMode::None);
        let second = pipeline.run(&request(), Strategy::InSqlStream).unwrap();
        assert_eq!(second.cache_use, CacheMode::FullResult);
        assert_eq!(first.rows_to_ml, second.rows_to_ml);
        let (full, _, _) = pipeline.cache().unwrap().stats.snapshot();
        assert_eq!(full, 1);
    }

    #[test]
    fn recode_map_reuse_for_the_5_2_query() {
        let cluster = cluster();
        let pipeline = Pipeline::with_cache(&cluster);
        pipeline.run(&request(), Strategy::InSql).unwrap();
        // The §5.2 follow-up: extra predicate on an unprojected field and
        // a wider projection — full reuse impossible, map reuse expected.
        let second = PipelineRequest {
            prep_sql: "SELECT U.age, U.gender, C.amount, C.nitems, C.abandoned \
                       FROM carts C, users U \
                       WHERE C.userid = U.userid AND U.country = 'USA' AND C.year = 2014"
                .to_string(),
            spec: TransformSpec::new(&["gender"]),
            ml_command: "svm label=5 iterations=5".to_string(),
        };
        let report = pipeline.run(&second, Strategy::InSql).unwrap();
        assert_eq!(report.cache_use, CacheMode::RecodeMap);
    }

    #[test]
    fn models_learn_the_planted_signal() {
        let cluster = cluster();
        let pipeline = Pipeline::new(&cluster);
        let report = pipeline
            .run(
                &PipelineRequest {
                    ml_command: "svm label=4 iterations=80".to_string(),
                    ..request()
                },
                Strategy::InSqlStream,
            )
            .unwrap();
        // Young + expensive cart (features age, gender_F, gender_M,
        // amount) should score a higher abandonment margin than old +
        // cheap — equal margins would mean the model learned nothing.
        let TrainedModel::Svm(svm) = &report.model else {
            panic!("expected an SVM model");
        };
        let young_pricey = svm.margin(&[20.0, 1.0, 0.0, 220.0]);
        let old_cheap = svm.margin(&[75.0, 1.0, 0.0, 10.0]);
        assert!(
            young_pricey > old_cheap,
            "SVM learned no signal: {young_pricey} vs {old_cheap}"
        );
    }

    #[test]
    fn cancel_fired_during_prep_is_seen_before_the_transform() {
        use sqlml_sqlengine::udf::ScalarFn;
        let cluster = cluster();
        let pipeline = Pipeline::new(&cluster);
        for strategy in [Strategy::InSql, Strategy::InSqlStream] {
            // The token fires from inside the preparation query, so the
            // first checkpoint that can observe it is the one between
            // the prep CTAS and the transform.
            let cancel = CancelToken::new();
            let trip = cancel.clone();
            cluster
                .engine
                .register_scalar_udf(Arc::new(ScalarFn::new("trip", move |_| {
                    trip.cancel("fired mid-prep");
                    Ok(sqlml_common::Value::Double(1.0))
                })));
            let req = PipelineRequest {
                prep_sql: format!("{PREP_QUERY} AND trip(U.age) > 0.0"),
                ..request()
            };
            let err = pipeline.run_with(&req, strategy, &cancel).unwrap_err();
            assert!(err.is_cancelled(), "{strategy:?}: {err}");
            assert!(
                err.to_string().contains("prep: fired mid-prep"),
                "{strategy:?} ran the transform before noticing: {err}"
            );
            let leaked: Vec<String> = cluster
                .engine
                .catalog()
                .table_names()
                .into_iter()
                .filter(|t| t.starts_with("__pipeline_prep_"))
                .collect();
            assert!(leaked.is_empty(), "{strategy:?} leaked {leaked:?}");
        }
    }
}
