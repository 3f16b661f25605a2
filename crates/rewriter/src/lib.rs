//! The query rewriter (§4).
//!
//! "A user provides this query rewriter with her SQL query, the
//! transformations needed on the results of the query, and if parallel
//! data streaming is needed, the necessary information for calling the
//! target ML algorithm. Then, the query rewriter will extend the given
//! query into another query with UDFs, and other operations to perform
//! the required transformations and the data transfer."
//!
//! [`QueryRewriter::rewrite`] produces exactly that: a SQL script over
//! the engine's UDFs ([`script`]) implementing the whole pipeline, and
//! [`QueryRewriter::run`] executes it — the path every In-SQL pipeline
//! runs. Per §5's extension, the rewriter first consults the
//! [`CacheManager`], once: a §5.1 hit collapses the script to a single
//! query over the materialized result; a §5.2 hit drops the map-building
//! statements and registers the cached recode map in their place.

pub mod script;

pub use script::{RewritePlan, RewriteScript};

use std::sync::Arc;

use sqlml_cache::{CacheDecision, CacheManager, QueryDescriptor};
use sqlml_common::{CancelToken, Result, SqlmlError};
use sqlml_sqlengine::parser::parse_select;
use sqlml_sqlengine::{Engine, PartitionedTable};
use sqlml_transfer::TransferArgs;
use sqlml_transform::{
    read_recode_map, register_recode_map, register_udfs, RecodeMap, TransformSpec,
};

/// Parse a preparation query into its cacheable §5 descriptor against an
/// engine's catalog (`None` for queries outside the SPJ shape). Shared
/// by the rewriter's cache decision and by the serving plane's router,
/// which probes every shard's cache with the same descriptor before
/// placing a request.
pub fn describe_prep(engine: &Engine, sql: &str) -> Result<Option<QueryDescriptor>> {
    let stmt = parse_select(sql)?;
    QueryDescriptor::from_select(&stmt, engine.catalog())
}

/// The §4 rewriter: SQL + transformation spec (+ optional transfer
/// arguments) in, executable statement script out.
pub struct QueryRewriter {
    engine: Engine,
    cache: Option<Arc<CacheManager>>,
}

impl QueryRewriter {
    /// A rewriter without caching.
    pub fn new(engine: Engine) -> Self {
        register_udfs(&engine);
        QueryRewriter {
            engine,
            cache: None,
        }
    }

    /// A rewriter that consults (but does not populate) a cache.
    pub fn with_cache(engine: Engine, cache: Arc<CacheManager>) -> Self {
        QueryRewriter {
            cache: Some(cache),
            ..QueryRewriter::new(engine)
        }
    }

    pub fn cache(&self) -> Option<&Arc<CacheManager>> {
        self.cache.as_ref()
    }

    /// Decide how to execute — cached result, cached map, or fresh — with
    /// one cache lookup. Also returns the query's descriptor when there
    /// is a cache to store a fresh result in.
    pub fn plan(
        &self,
        sql: &str,
        spec: &TransformSpec,
    ) -> Result<(RewritePlan, Option<QueryDescriptor>)> {
        let Some(cache) = &self.cache else {
            return Ok((RewritePlan::Fresh, None));
        };
        let descriptor = describe_prep(&self.engine, sql)?;
        let plan = match descriptor.as_ref().map(|d| cache.lookup(d, spec)) {
            Some(CacheDecision::Full(reuse)) => RewritePlan::CachedResult {
                sql: reuse.sql,
                map: reuse.map,
            },
            Some(CacheDecision::RecodeMap(map)) => RewritePlan::CachedMap { map },
            Some(CacheDecision::Miss) | None => RewritePlan::Fresh,
        };
        Ok((plan, descriptor))
    }

    /// Produce the full rewritten script for a request. The script is
    /// plain SQL over the engine's registered UDFs; running its
    /// statements in order performs preparation, transformation, and
    /// (with transfer arguments) the streaming transfer.
    pub fn rewrite(
        &self,
        sql: &str,
        spec: &TransformSpec,
        stream: Option<&TransferArgs>,
    ) -> Result<RewriteScript> {
        let (plan, descriptor) = self.plan(sql, spec)?;
        // The user's query is validated, and the spec bound to its output
        // schema — unless a cached result answers it.
        let recoded: Vec<usize> = match plan {
            RewritePlan::CachedResult { .. } => Vec::new(),
            _ => (spec.bind(&self.engine.validate(sql)?)?.recoded())
                .map(|(at, _)| at)
                .collect(),
        };
        Ok(script::build_script(
            sql, &recoded, spec, stream, plan, descriptor,
        ))
    }

    /// Execute a script's statements in order, returning the last one's
    /// result (the transformed table, or the transfer statistics when the
    /// script streams) and the recode map the run built or reused.
    /// `check` sees each statement just before it runs, when the tables
    /// it names exist (planlint lints each plan there). `cancel` is
    /// polled after the first statement of a script that has more (as
    /// `"prep"`), and every temp table is dropped on every exit.
    pub fn run(
        &self,
        script: &RewriteScript,
        cancel: &CancelToken,
        mut check: impl FnMut(&str) -> Result<()>,
    ) -> Result<(PartitionedTable, RecodeMap)> {
        let engine = &self.engine;
        let ran = (|| {
            if let (RewritePlan::CachedMap { map }, Some(name)) = (&script.plan, &script.map_table)
            {
                register_recode_map(engine, name, map);
            }
            let mut last = None;
            for (i, stmt) in script.statements.iter().enumerate() {
                check(stmt)?;
                last = engine.execute(stmt)?;
                if i == 0 && script.statements.len() > 1 {
                    cancel.check("prep")?;
                }
            }
            let table = last.ok_or_else(|| {
                SqlmlError::Plan("rewritten script ended with a non-SELECT statement".into())
            })?;
            let map = match (&script.plan, &script.map_table) {
                (RewritePlan::CachedMap { map } | RewritePlan::CachedResult { map, .. }, _) => {
                    map.clone()
                }
                (RewritePlan::Fresh, Some(name)) => read_recode_map(engine.catalog(), name)?,
                (RewritePlan::Fresh, None) => RecodeMap::default(),
            };
            Ok((table, map))
        })();
        for t in &script.temp_tables {
            let _ = engine.catalog().drop_table(t);
        }
        ran
    }

    /// Convenience: rewrite, then run the script, returning the final
    /// statement's result table.
    pub fn rewrite_and_run(
        &self,
        sql: &str,
        spec: &TransformSpec,
        stream: Option<&TransferArgs>,
    ) -> Result<(PartitionedTable, RewriteScript)> {
        let rewritten = self.rewrite(sql, spec, stream)?;
        let (table, _) = self.run(&rewritten, &CancelToken::new(), |_| Ok(()))?;
        Ok((table, rewritten))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field, Schema};
    use sqlml_sqlengine::EngineConfig;

    fn engine() -> Engine {
        let e = Engine::new(EngineConfig::with_workers(2));
        let carts = Schema::new(vec![
            Field::new("userid", DataType::Int),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
        ]);
        let users = Schema::new(vec![
            Field::new("userid", DataType::Int),
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::categorical("country"),
        ]);
        e.register_rows(
            "carts",
            carts,
            (0..12)
                .map(|i| {
                    row![
                        (i % 4) as i64,
                        i as f64,
                        if i % 2 == 0 { "Yes" } else { "No" }
                    ]
                })
                .collect(),
        );
        e.register_rows(
            "users",
            users,
            (0..4)
                .map(|i| {
                    row![
                        i as i64,
                        20 + i as i64,
                        if i % 2 == 0 { "F" } else { "M" },
                        "USA"
                    ]
                })
                .collect(),
        );
        e
    }

    fn transfer_args(coord_addr: &str) -> TransferArgs {
        TransferArgs {
            coord_addr: coord_addr.into(),
            transfer_id: 9,
            command: "svm label=4 iterations=10".into(),
            config: sqlml_transfer::TransferConfig::default(),
        }
    }

    const PREP: &str = "SELECT U.age, U.gender, C.amount, C.abandoned \
                        FROM carts C, users U \
                        WHERE C.userid = U.userid AND U.country = 'USA'";

    #[test]
    fn fresh_script_contains_all_pipeline_stages() {
        let rw = QueryRewriter::new(engine());
        let script = rw
            .rewrite(PREP, &TransformSpec::new(&["gender"]), None)
            .unwrap();
        let all = script.statements.join(";\n");
        assert!(all.contains("distinct_values("), "{all}");
        assert!(all.contains("assign_recode_ids("), "{all}");
        assert!(all.contains("recode_dummy("), "{all}");
        assert!(!all.contains("stream_transfer("), "no stream requested");
        assert!(matches!(script.plan, RewritePlan::Fresh));
    }

    #[test]
    fn script_executes_end_to_end_and_cleans_up() {
        let rw = QueryRewriter::new(engine());
        let before = rw.engine.catalog().table_names().len();
        let (result, script) = rw
            .rewrite_and_run(PREP, &TransformSpec::new(&["gender"]), None)
            .unwrap();
        // 12 carts all join USA users.
        assert_eq!(result.num_rows(), 12);
        // gender expanded into two indicator columns named by value.
        assert_eq!(
            result.schema().names(),
            vec!["age", "gender_F", "gender_M", "amount", "abandoned"]
        );
        // Every row is fully numeric — ready for the ML side.
        for r in result.collect_rows() {
            assert!(r.to_f64_vec().is_ok());
        }
        assert!(!script.temp_tables.is_empty());
        let after = rw.engine.catalog().table_names().len();
        assert_eq!(before, after, "temporaries must be dropped");
    }

    #[test]
    fn a_failing_statement_leaves_no_temporaries_behind() {
        let rw = QueryRewriter::new(engine());
        let before = rw.engine.catalog().table_names();
        // `stream_transfer` is not registered on this engine, so the last
        // statement fails after the prep, map and recode tables exist.
        let target = transfer_args("127.0.0.1:1");
        let spec = TransformSpec::new(&["gender"]);
        let script = rw.rewrite(PREP, &spec, Some(&target)).unwrap();
        assert!(script.temp_tables.len() > 2, "{:?}", script.temp_tables);
        assert!(rw.rewrite_and_run(PREP, &spec, Some(&target)).is_err());
        assert_eq!(rw.engine.catalog().table_names(), before);
    }

    #[test]
    fn streaming_request_appends_transfer_statement() {
        let rw = QueryRewriter::new(engine());
        let target = transfer_args("127.0.0.1:4545");
        let script = rw
            .rewrite(PREP, &TransformSpec::default(), Some(&target))
            .unwrap();
        let last = script.statements.last().unwrap();
        assert!(last.contains("stream_transfer("), "{last}");
        assert!(last.contains("127.0.0.1:4545"), "{last}");
        assert!(last.contains("svm label=4"), "{last}");
    }

    #[test]
    fn cache_full_hit_collapses_to_single_statement() {
        use sqlml_transform::InSqlTransformer;
        let e = engine();
        let cache = Arc::new(CacheManager::new(e.clone()));
        // Prime: run prep + transform, store.
        e.execute(&format!("CREATE TABLE prep AS {PREP}")).unwrap();
        let tr = InSqlTransformer::new(e.clone());
        let spec = TransformSpec::default();
        let out = tr.transform("prep", &spec).unwrap();
        let stmt = parse_select(PREP).unwrap();
        let d = QueryDescriptor::from_select(&stmt, e.catalog())
            .unwrap()
            .unwrap();
        cache.store_full(d, spec.clone(), out.recode_map, out.table);
        e.execute("DROP TABLE prep").unwrap();

        let rw = QueryRewriter::with_cache(e.clone(), cache);
        let subset = "SELECT U.age, C.amount, C.abandoned FROM carts C, users U \
                      WHERE C.userid = U.userid AND U.country = 'USA' AND U.gender = 'F'";
        let script = rw.rewrite(subset, &spec, None).unwrap();
        assert_eq!(script.statements.len(), 1, "{:?}", script.statements);
        assert!(matches!(script.plan, RewritePlan::CachedResult { .. }));
        let (result, _) = rw.rewrite_and_run(subset, &spec, None).unwrap();
        // gender='F' selects users 0 and 2 => carts with userid 0 or 2: 6 rows.
        assert_eq!(result.num_rows(), 6);
    }

    #[test]
    fn cache_map_hit_removes_map_building_statements() {
        use sqlml_transform::InSqlTransformer;
        let e = engine();
        let cache = Arc::new(CacheManager::new(e.clone()));
        e.execute(&format!("CREATE TABLE prep AS {PREP}")).unwrap();
        let tr = InSqlTransformer::new(e.clone());
        let spec = TransformSpec::default();
        let out = tr.transform("prep", &spec).unwrap();
        let stmt = parse_select(PREP).unwrap();
        let d = QueryDescriptor::from_select(&stmt, e.catalog())
            .unwrap()
            .unwrap();
        cache.store_recode_map(d, out.recode_map);
        e.execute("DROP TABLE prep").unwrap();

        let rw = QueryRewriter::with_cache(e.clone(), cache);
        // §5.2-style query: extra conjunct, different projection.
        let q = "SELECT U.age, U.gender, C.amount, C.abandoned FROM carts C, users U \
                 WHERE C.userid = U.userid AND U.country = 'USA' AND C.amount > 3";
        let script = rw.rewrite(q, &spec, None).unwrap();
        assert!(matches!(script.plan, RewritePlan::CachedMap { .. }));
        let all = script.statements.join(";\n");
        assert!(
            !all.contains("distinct_values("),
            "map build must be skipped: {all}"
        );
        assert!(all.contains("recode_dummy("), "{all}");
        let (result, _) = rw.rewrite_and_run(q, &spec, None).unwrap();
        assert_eq!(result.num_rows(), 8); // amount in 4..=11 joined to USA users
        for r in result.collect_rows() {
            assert!(r.to_f64_vec().is_ok());
        }
    }

    #[test]
    fn rejects_invalid_input_queries() {
        let rw = QueryRewriter::new(engine());
        assert!(rw
            .rewrite("SELECT nope FROM users", &TransformSpec::default(), None)
            .is_err());
        assert!(rw
            .rewrite("NOT SQL AT ALL", &TransformSpec::default(), None)
            .is_err());
    }

    #[test]
    fn dummy_spec_on_non_categorical_column_fails() {
        let rw = QueryRewriter::new(engine());
        let spec = TransformSpec {
            recode_columns: vec![],
            coded_columns: vec![("age".into(), sqlml_transform::Coding::Dummy)],
        };
        let before = rw.engine.catalog().table_names();
        let err = rw.rewrite_and_run(PREP, &spec, None).unwrap_err();
        assert!(
            err.to_string().contains("is not among the recoded columns"),
            "{err}"
        );
        assert_eq!(rw.engine.catalog().table_names(), before);
    }
}
