//! The query rewriter (§4).
//!
//! "A user provides this query rewriter with her SQL query, the
//! transformations needed on the results of the query, and if parallel
//! data streaming is needed, the necessary information for calling the
//! target ML algorithm. Then, the query rewriter will extend the given
//! query into another query with UDFs, and other operations to perform
//! the required transformations and the data transfer."
//!
//! [`QueryRewriter::rewrite`] produces exactly that: a SQL script (a
//! sequence of statements over the engine's UDFs) implementing the whole
//! pipeline. Per §5's extension, the rewriter first consults the
//! [`CacheManager`]: a §5.1 hit collapses the script to a single query
//! over the materialized result; a §5.2 hit drops the map-building
//! statements and injects the cached recode map.

pub mod script;

pub use script::{RewritePlan, RewriteScript, StreamTarget};

use std::sync::Arc;

use sqlml_cache::{CacheDecision, CacheManager, QueryDescriptor};
use sqlml_common::{Result, SqlmlError};
use sqlml_sqlengine::parser::parse_select;
use sqlml_sqlengine::Engine;
use sqlml_transform::{register_udfs, TransformSpec};

/// The §4 rewriter: SQL + transformation spec (+ optional stream target)
/// in, executable statement script out.
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
        register_udfs(&engine);
        QueryRewriter {
            engine,
            cache: Some(cache),
        }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Normalize a preparation query into a descriptor (when it has the
    /// cacheable shape).
    pub fn describe(&self, sql: &str) -> Result<Option<QueryDescriptor>> {
        let stmt = parse_select(sql)?;
        QueryDescriptor::from_select(&stmt, self.engine.catalog())
    }

    /// Decide how to execute: cached result, cached map, or fresh.
    pub fn plan(&self, sql: &str, spec: &TransformSpec) -> Result<RewritePlan> {
        if let Some(cache) = &self.cache {
            if let Some(descriptor) = self.describe(sql)? {
                match cache.lookup(&descriptor, spec) {
                    CacheDecision::Full(reuse) => {
                        return Ok(RewritePlan::CachedResult {
                            sql: reuse.sql,
                            map: reuse.map,
                        })
                    }
                    CacheDecision::RecodeMap(map) => return Ok(RewritePlan::CachedMap { map }),
                    CacheDecision::Miss => {}
                }
            }
        }
        Ok(RewritePlan::Fresh)
    }

    /// Produce the full rewritten script for a request. The script is
    /// plain SQL over the engine's registered UDFs; running its
    /// statements in order performs preparation, transformation, and
    /// (optionally) the streaming transfer.
    pub fn rewrite(
        &self,
        sql: &str,
        spec: &TransformSpec,
        stream: Option<&StreamTarget>,
    ) -> Result<RewriteScript> {
        // Validate the user's query and get its output schema — needed to
        // know the categorical columns and generate the recode join.
        let schema = self.engine.validate(sql)?;
        let plan = self.plan(sql, spec)?;
        script::build_script(sql, &schema, spec, stream, plan)
    }

    /// Convenience: rewrite, then execute the script's statements in
    /// order, returning the final statement's result table.
    ///
    /// Handles the two runtime details a script alone cannot: a cached
    /// recode map is registered under the script's map-table name before
    /// execution, and `$K('col', map)` cardinality placeholders are
    /// resolved against the (built or injected) map table.
    pub fn rewrite_and_run(
        &self,
        sql: &str,
        spec: &TransformSpec,
        stream: Option<&StreamTarget>,
    ) -> Result<(sqlml_sqlengine::PartitionedTable, RewriteScript)> {
        let rewritten = self.rewrite(sql, spec, stream)?;
        if let RewritePlan::CachedMap { map } = &rewritten.plan {
            if let Some(map_table) = rewritten.map_table_name() {
                self.engine.register_table(
                    map_table,
                    sqlml_sqlengine::PartitionedTable::single(
                        sqlml_transform::recode::recode_map_schema(),
                        map.to_rows(),
                    ),
                );
            }
        }
        let mut last = None;
        for stmt in &rewritten.statements {
            let resolved = script::resolve_cardinality_placeholder(&self.engine, stmt)?;
            last = self.engine.execute(&resolved)?;
        }
        let result = last.ok_or_else(|| {
            SqlmlError::Plan("rewritten script ended with a non-SELECT statement".into())
        })?;
        // Drop the script's temporaries.
        for t in &rewritten.temp_tables {
            let _ = self.engine.catalog().drop_table(t);
        }
        Ok((result, rewritten))
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
        assert!(all.contains("recodeval AS gender"), "{all}");
        assert!(all.contains("dummy_code("), "{all}");
        assert!(!all.contains("stream_transfer("), "no stream requested");
        assert!(matches!(script.plan, RewritePlan::Fresh));
    }

    #[test]
    fn script_executes_end_to_end_and_cleans_up() {
        let rw = QueryRewriter::new(engine());
        let before = rw.engine().catalog().table_names().len();
        let (result, script) = rw
            .rewrite_and_run(PREP, &TransformSpec::new(&["gender"]), None)
            .unwrap();
        // 12 carts all join USA users.
        assert_eq!(result.num_rows(), 12);
        // gender expanded into two indicator columns (generic names: the
        // static script does not know the value names).
        assert_eq!(
            result.schema().names(),
            vec!["age", "gender_1", "gender_2", "amount", "abandoned"]
        );
        // Every row is fully numeric — ready for the ML side.
        for r in result.collect_rows() {
            assert!(r.to_f64_vec().is_ok());
        }
        assert!(!script.temp_tables.is_empty());
        let after = rw.engine().catalog().table_names().len();
        assert_eq!(before, after, "temporaries must be dropped");
    }

    #[test]
    fn streaming_request_appends_transfer_statement() {
        let rw = QueryRewriter::new(engine());
        let target = StreamTarget {
            coordinator_addr: "127.0.0.1:4545".into(),
            transfer_id: 9,
            command: "svm label=4 iterations=10".into(),
            splits_per_worker: 2,
            send_buffer_bytes: 4096,
        };
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
        assert!(all.contains("recodeval AS gender"), "{all}");
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
            dummy_code_columns: vec!["age".into()],
        };
        assert!(rw.rewrite(PREP, &spec, None).is_err());
    }
}
