//! The engine facade: SQL in, partitioned tables out.

use std::sync::{Arc, Weak};

use sqlml_common::schema::Field;
use sqlml_common::{Result, Row, Schema};
use sqlml_dfs::Dfs;

use crate::ast::{SelectStmt, Statement};
use crate::catalog::Catalog;
use crate::executor::ExecContext;
use crate::optimizer::optimize;
use crate::parser::{parse_select, parse_statement};
use crate::plan::Plan;
use crate::planner::plan_select;
use crate::table::PartitionedTable;
use crate::udf::{ScalarUdf, TableUdf};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of SQL worker threads (the paper's "SQL workers").
    pub num_workers: usize,
    /// Cluster node names the workers are placed on, round-robin. Empty
    /// means one synthetic node per worker.
    pub nodes: Vec<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: 4,
            nodes: Vec::new(),
        }
    }
}

impl EngineConfig {
    pub fn with_workers(num_workers: usize) -> Self {
        EngineConfig {
            num_workers,
            ..Default::default()
        }
    }
}

/// An MPP SQL engine instance: a catalog plus a worker pool. Cheap to
/// clone (shared catalog), so transformation layers can hold a handle.
///
/// ```
/// use sqlml_sqlengine::{Engine, EngineConfig};
/// use sqlml_common::schema::{DataType, Field, Schema};
/// use sqlml_common::row;
///
/// let engine = Engine::new(EngineConfig::with_workers(2));
/// engine.register_rows(
///     "users",
///     Schema::new(vec![
///         Field::new("age", DataType::Int),
///         Field::categorical("country"),
///     ]),
///     vec![row![34i64, "USA"], row![51i64, "CA"], row![29i64, "USA"]],
/// );
/// let result = engine
///     .query("SELECT age FROM users WHERE country = 'USA' ORDER BY age")
///     .unwrap();
/// assert_eq!(result.num_rows(), 2);
/// ```
#[derive(Clone)]
pub struct Engine {
    catalog: Arc<Catalog>,
    ctx: ExecContext,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        let catalog = Arc::new(Catalog::new());
        crate::functions::register_builtins(&catalog);
        Engine {
            catalog,
            ctx: ExecContext::new(config.num_workers, config.nodes),
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// A handle on the catalog that does not keep it alive — what a UDF
    /// registered *in* that catalog holds when it must read tables, so the
    /// catalog does not own itself through its own UDF registry.
    pub fn weak_catalog(&self) -> Weak<Catalog> {
        Arc::downgrade(&self.catalog)
    }

    pub fn num_workers(&self) -> usize {
        self.ctx.num_workers
    }

    pub fn exec_context(&self) -> &ExecContext {
        &self.ctx
    }

    // -- registration -----------------------------------------------------

    /// Register rows as a table partitioned across the worker pool.
    pub fn register_rows(&self, name: &str, schema: Schema, rows: Vec<Row>) {
        let t =
            PartitionedTable::partition_rows(schema, &rows, self.ctx.num_workers, &self.ctx.nodes);
        self.catalog.register_table(name, t);
    }

    /// Register an already-partitioned table.
    pub fn register_table(&self, name: &str, table: PartitionedTable) {
        self.catalog.register_table(name, table);
    }

    /// Load a text table from a DFS directory of part files, then
    /// repartition it across the worker pool.
    pub fn load_text_table(&self, name: &str, schema: Schema, dfs: &Dfs, dir: &str) -> Result<()> {
        let raw = PartitionedTable::load_text(dfs, dir, schema)?;
        let t = raw.repartition(self.ctx.num_workers, &self.ctx.nodes)?;
        self.catalog.register_table(name, t);
        Ok(())
    }

    pub fn register_scalar_udf(&self, udf: Arc<dyn ScalarUdf>) {
        self.catalog.register_scalar_udf(udf);
    }

    pub fn register_table_udf(&self, udf: Arc<dyn TableUdf>) {
        self.catalog.register_table_udf(udf);
    }

    // -- query execution ----------------------------------------------------

    /// Execute any statement. SELECT returns its result; DDL returns
    /// `None`.
    pub fn execute(&self, sql: &str) -> Result<Option<PartitionedTable>> {
        match parse_statement(sql)? {
            Statement::Select(stmt) => Ok(Some(self.run_select(&stmt)?)),
            Statement::CreateTable { name, columns } => {
                let fields = columns
                    .into_iter()
                    .map(|c| {
                        let mut f = Field::new(c.name, c.data_type);
                        f.categorical = c.categorical;
                        f
                    })
                    .collect();
                self.register_rows(&name, Schema::new(fields), Vec::new());
                Ok(None)
            }
            Statement::CreateTableAs { name, query } => {
                let result = self.run_select(&query)?;
                self.catalog.register_table(&name, result);
                Ok(None)
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(&name)?;
                Ok(None)
            }
            Statement::Explain(stmt) => {
                let text = self.plan(&stmt)?.explain();
                let rows = text
                    .lines()
                    .map(|l| Row::new(vec![sqlml_common::Value::Str(l.into())]))
                    .collect();
                Ok(Some(PartitionedTable::single(
                    Schema::new(vec![Field::new(
                        "plan",
                        sqlml_common::schema::DataType::Str,
                    )]),
                    rows,
                )))
            }
        }
    }

    /// Execute a SELECT, returning the partitioned result.
    pub fn query(&self, sql: &str) -> Result<PartitionedTable> {
        let stmt = parse_select(sql)?;
        self.run_select(&stmt)
    }

    /// Execute an already-parsed SELECT.
    pub fn run_select(&self, stmt: &SelectStmt) -> Result<PartitionedTable> {
        let plan = self.plan(stmt)?;
        crate::executor::execute(&plan, &self.ctx)
    }

    /// Plan (and optimize) a SELECT without executing it. With debug
    /// assertions on (dev and test profiles), the plan semantic analyzer
    /// runs after planning and again after the optimizer rewrite, so a
    /// broken invariant is a hard error long before execution; release
    /// builds skip the walk entirely.
    pub fn plan(&self, stmt: &SelectStmt) -> Result<Plan> {
        let unoptimized = plan_select(stmt, &self.catalog)?;
        self.debug_validate(&unoptimized)?;
        let plan = optimize(unoptimized);
        self.debug_validate(&plan)?;
        Ok(plan)
    }

    #[cfg(debug_assertions)]
    fn debug_validate(&self, plan: &Plan) -> Result<()> {
        crate::validate::validate(plan, &self.catalog).map(|_| ())
    }

    #[cfg(not(debug_assertions))]
    fn debug_validate(&self, _plan: &Plan) -> Result<()> {
        Ok(())
    }

    /// EXPLAIN: the optimized plan as text.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parse_select(sql)?;
        Ok(self.plan(&stmt)?.explain())
    }

    /// Export a SELECT result to the DFS as text part files — the
    /// materialization hop of the naive pipeline. Returns bytes written.
    pub fn query_to_dfs(&self, sql: &str, dfs: &Dfs, dir: &str) -> Result<u64> {
        let t = self.query(sql)?;
        t.save_text(dfs, dir)
    }

    /// Ensure a SELECT query is valid (parse + plan) without running it.
    pub fn validate(&self, sql: &str) -> Result<Schema> {
        let stmt = parse_select(sql)?;
        Ok(self.plan(&stmt)?.schema())
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("num_workers", &self.ctx.num_workers)
            .field("tables", &self.catalog.table_names())
            .finish()
    }
}

// A convenience used by error paths in tests.
impl Engine {
    /// The total row count of a registered table.
    pub fn table_rows(&self, name: &str) -> Result<usize> {
        Ok(self.catalog.table(name)?.num_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_common::schema::DataType;
    use sqlml_common::{SqlmlError, Value};

    fn engine_with_data() -> Engine {
        let e = Engine::new(EngineConfig::with_workers(3));
        let carts = Schema::new(vec![
            Field::new("cartid", DataType::Int),
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
        let cart_rows: Vec<Row> = (0..30)
            .map(|i| {
                row![
                    i as i64,
                    (i % 10) as i64,
                    10.0 + i as f64,
                    if i % 3 == 0 { "Yes" } else { "No" }
                ]
            })
            .collect();
        let user_rows: Vec<Row> = (0..10)
            .map(|i| {
                row![
                    i as i64,
                    20 + i as i64,
                    if i % 2 == 0 { "F" } else { "M" },
                    if i < 8 { "USA" } else { "CA" }
                ]
            })
            .collect();
        e.register_rows("carts", carts, cart_rows);
        e.register_rows("users", users, user_rows);
        e
    }

    #[test]
    fn end_to_end_paper_query() {
        let e = engine_with_data();
        let t = e
            .query(
                "SELECT U.age, U.gender, C.amount, C.abandoned \
                 FROM carts C, users U \
                 WHERE C.userid=U.userid AND U.country='USA'",
            )
            .unwrap();
        // users 0..8 are USA; carts reference userid i%10, so 24 of 30 match.
        assert_eq!(t.num_rows(), 24);
        assert_eq!(
            t.schema().names(),
            vec!["age", "gender", "amount", "abandoned"]
        );
        for r in t.collect_rows() {
            let age = r.get(0).as_i64().unwrap();
            assert!((20..28).contains(&age));
        }
    }

    #[test]
    fn a_wildcard_keeps_columns_that_share_a_name_apart() {
        // Indicator names can collide (`x y` and `x/y` both give `g_x_y`),
        // also only in case: `*` must carry each column by its position.
        let e = Engine::new(EngineConfig::with_workers(2));
        let names = ["g_x_y", "g_x_y", "g_Web", "g_web"];
        let schema = Schema::new(names.map(|n| Field::new(n, DataType::Int)).to_vec());
        e.register_rows("dup", schema, vec![row![1i64, 2i64, 3i64, 4i64]]);
        for sql in ["SELECT * FROM dup", "SELECT d.* FROM dup d"] {
            let t = e.query(sql).unwrap();
            assert_eq!(t.schema().names(), names, "{sql}");
            assert_eq!(
                t.collect_rows(),
                vec![row![1i64, 2i64, 3i64, 4i64]],
                "{sql}"
            );
        }
        e.execute("CREATE TABLE dup2 AS SELECT * FROM dup").unwrap();
        let t = e.query("SELECT * FROM dup2").unwrap();
        assert_eq!(t.collect_rows(), vec![row![1i64, 2i64, 3i64, 4i64]]);
    }

    #[test]
    fn a_name_two_columns_answer_to_is_refused_naming_both() {
        let e = Engine::new(EngineConfig::with_workers(2));
        let schema = Schema::new(vec![
            Field::new("g_web", DataType::Int),
            Field::new("G_Web", DataType::Int),
            Field::new("k", DataType::Int),
        ]);
        e.register_rows(
            "dup",
            schema,
            vec![row![1i64, 2i64, 3i64], row![4i64, 5i64, 3i64]],
        );
        for sql in ["SELECT g_web FROM dup", "SELECT d.G_WEB FROM dup d"] {
            let err = e.query(sql).unwrap_err().to_string();
            assert!(
                err.contains("position 0") && err.contains("position 1"),
                "{sql}: {err}"
            );
        }
        // A group column matches however either side qualifies it.
        for sql in [
            "SELECT d.k, count(*) FROM dup d GROUP BY k",
            "SELECT K, count(*) FROM dup D GROUP BY d.k",
        ] {
            let t = e.query(sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
            assert_eq!(t.collect_rows(), vec![row![3i64, 2i64]], "{sql}");
        }
    }

    #[test]
    fn join_matches_reference_nested_loop() {
        let e = engine_with_data();
        let got = e
            .query(
                "SELECT C.cartid, U.userid FROM carts C, users U \
                 WHERE C.userid = U.userid AND U.age > 24",
            )
            .unwrap()
            .collect_sorted();
        // Reference: nested loops over the same data.
        let mut expect = Vec::new();
        for i in 0..30i64 {
            let uid = i % 10;
            let age = 20 + uid;
            if age > 24 {
                expect.push(row![i, uid]);
            }
        }
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn select_distinct() {
        let e = engine_with_data();
        let t = e
            .query("SELECT DISTINCT gender FROM users")
            .unwrap()
            .collect_sorted();
        assert_eq!(t, vec![row!["F"], row!["M"]]);
    }

    #[test]
    fn group_by_count_avg() {
        let e = engine_with_data();
        let rows = e
            .query(
                "SELECT abandoned, COUNT(*) AS n, AVG(amount) AS a \
                 FROM carts GROUP BY abandoned ORDER BY abandoned",
            )
            .unwrap()
            .collect_rows();
        assert_eq!(rows.len(), 2);
        // "No": 20 rows, "Yes": 10 rows.
        assert_eq!(rows[0].get(0), &Value::Str("No".into()));
        assert_eq!(rows[0].get(1), &Value::Int(20));
        assert_eq!(rows[1].get(1), &Value::Int(10));
        // AVG(Yes) = mean of 10 + 3k for k=0..9 = 10 + 13.5.
        let avg_yes = rows[1].get(2).as_f64().unwrap();
        assert!((avg_yes - 23.5).abs() < 1e-9);
    }

    #[test]
    fn global_aggregate_without_group() {
        let e = engine_with_data();
        let rows = e
            .query("SELECT COUNT(*), SUM(amount), MIN(userid), MAX(userid) FROM carts")
            .unwrap()
            .collect_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(30));
        assert_eq!(rows[0].get(2), &Value::Int(0));
        assert_eq!(rows[0].get(3), &Value::Int(9));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let e = engine_with_data();
        let rows = e
            .query("SELECT COUNT(*), SUM(amount) FROM carts WHERE amount < 0")
            .unwrap()
            .collect_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert!(rows[0].get(1).is_null());
    }

    #[test]
    fn a_distinct_sum_or_avg_refuses_a_string_as_the_plain_one_does() {
        let e = Engine::new(EngineConfig::with_workers(2));
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let null = Row::new(vec![Value::Null]);
        let clean = vec![row![1i64], row![2i64], row![2i64], null];
        e.register_rows("clean", schema.clone(), clean);
        let rows = e
            .query("SELECT SUM(DISTINCT x), AVG(DISTINCT x), COUNT(DISTINCT x) FROM clean")
            .unwrap()
            .collect_rows();
        assert_eq!(rows, vec![row![3.0, 1.5, 2i64]]);

        // A misfit row the `Int` column holds verbatim.
        let misfit = vec![row![1i64], row!["a"], row![2i64], row![2i64]];
        e.register_rows("misfit", schema, misfit);
        for agg in ["SUM(x)", "SUM(DISTINCT x)", "AVG(DISTINCT x)"] {
            let err = e.query(&format!("SELECT {agg} FROM misfit")).unwrap_err();
            assert!(
                matches!(&err, SqlmlError::Type(msg) if msg == "cannot interpret 'a' as a number"),
                "{agg}: {err:?}"
            );
        }
    }

    #[test]
    fn order_by_and_limit() {
        let e = engine_with_data();
        let rows = e
            .query("SELECT cartid, amount FROM carts ORDER BY amount DESC LIMIT 3")
            .unwrap()
            .collect_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0), &Value::Int(29));
        assert_eq!(rows[1].get(0), &Value::Int(28));
    }

    #[test]
    fn left_join_preserves_unmatched() {
        let e = engine_with_data();
        // User 9 never bought anything... all userids 0..9 appear in carts
        // (i % 10), so add an extra user with no carts.
        let rows = e
            .query(
                "SELECT u.userid, c.cartid FROM users u \
                 LEFT JOIN carts c ON u.userid = c.userid \
                 WHERE u.userid = 5",
            )
            .unwrap()
            .collect_rows();
        assert_eq!(rows.len(), 3); // carts 5, 15, 25
        let e2 = engine_with_data();
        e2.register_rows(
            "lonely",
            Schema::new(vec![Field::new("userid", DataType::Int)]),
            vec![row![999i64]],
        );
        let rows = e2
            .query(
                "SELECT l.userid, c.cartid FROM lonely l LEFT JOIN carts c ON l.userid = c.userid",
            )
            .unwrap()
            .collect_rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get(1).is_null());
    }

    #[test]
    fn create_table_as_registers_result() {
        let e = engine_with_data();
        e.execute("CREATE TABLE usa_users AS SELECT userid, age FROM users WHERE country = 'USA'")
            .unwrap();
        assert_eq!(e.table_rows("usa_users").unwrap(), 8);
        let rows = e
            .query("SELECT COUNT(*) FROM usa_users")
            .unwrap()
            .collect_rows();
        assert_eq!(rows[0].get(0), &Value::Int(8));
    }

    #[test]
    fn create_and_drop_table() {
        let e = Engine::new(EngineConfig::default());
        e.execute("CREATE TABLE t (a BIGINT, b VARCHAR CATEGORICAL)")
            .unwrap();
        assert_eq!(e.table_rows("t").unwrap(), 0);
        assert!(
            e.catalog()
                .table("t")
                .unwrap()
                .schema()
                .field(1)
                .categorical
        );
        e.execute("DROP TABLE t").unwrap();
        assert!(e.catalog().table("t").is_err());
    }

    #[test]
    fn scalar_udf_in_query() {
        use crate::udf::ScalarFn;
        let e = engine_with_data();
        e.register_scalar_udf(Arc::new(ScalarFn::new("squared", |a: &[Value]| {
            let x = a[0].as_f64()?;
            Ok(Value::Double(x * x))
        })));
        let rows = e
            .query("SELECT squared(amount) AS s FROM carts WHERE cartid = 2")
            .unwrap()
            .collect_rows();
        assert_eq!(rows[0].get(0), &Value::Double(144.0));
    }

    #[test]
    fn query_to_dfs_round_trips() {
        use sqlml_dfs::{Dfs, DfsConfig};
        let e = engine_with_data();
        let dfs = Dfs::new(DfsConfig::for_tests());
        let bytes = e
            .query_to_dfs("SELECT userid, age FROM users", &dfs, "/out/users")
            .unwrap();
        assert!(bytes > 0);
        let schema = Schema::new(vec![
            Field::new("userid", DataType::Int),
            Field::new("age", DataType::Int),
        ]);
        let e2 = Engine::new(EngineConfig::with_workers(2));
        e2.load_text_table("u2", schema, &dfs, "/out/users")
            .unwrap();
        assert_eq!(e2.table_rows("u2").unwrap(), 10);
    }

    #[test]
    fn explain_is_available_through_facade() {
        let e = engine_with_data();
        let text = e
            .explain("SELECT u.age FROM users u, carts c WHERE u.userid = c.userid")
            .unwrap();
        assert!(text.contains("HashJoin"));
    }

    #[test]
    fn validate_rejects_bad_queries_without_running() {
        let e = engine_with_data();
        assert!(e.validate("SELECT nope FROM users").is_err());
        let schema = e.validate("SELECT age FROM users").unwrap();
        assert_eq!(schema.names(), vec!["age"]);
    }

    #[test]
    fn explain_statement_returns_plan_rows() {
        let e = engine_with_data();
        let plan = e
            .execute("EXPLAIN SELECT U.age FROM carts C, users U WHERE C.userid = U.userid")
            .unwrap()
            .unwrap();
        let text: Vec<String> = plan
            .collect_rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap().to_string())
            .collect();
        assert!(text.iter().any(|l| l.contains("HashJoin")), "{text:?}");
        assert!(text.iter().any(|l| l.contains("Scan")), "{text:?}");
    }

    #[test]
    fn like_patterns() {
        let e = engine_with_data();
        // Countries: USA (8 users), CA (2 users).
        let n = e
            .query("SELECT userid FROM users WHERE country LIKE 'U%'")
            .unwrap()
            .num_rows();
        assert_eq!(n, 8);
        let n = e
            .query("SELECT userid FROM users WHERE country NOT LIKE '_A'")
            .unwrap()
            .num_rows();
        assert_eq!(n, 8);
        let n = e
            .query("SELECT userid FROM users WHERE country LIKE '%A%'")
            .unwrap()
            .num_rows();
        assert_eq!(n, 10);
        let n = e
            .query("SELECT userid FROM users WHERE gender LIKE 'F'")
            .unwrap()
            .num_rows();
        assert_eq!(n, 5);
    }

    #[test]
    fn cast_expressions() {
        let e = engine_with_data();
        let rows = e
            .query(
                "SELECT CAST(amount AS BIGINT), CAST(C.userid AS VARCHAR), \
                    CAST('42' AS INT), CAST(age AS DOUBLE) \
                    FROM carts C, users U WHERE C.userid = U.userid AND C.cartid = 3",
            )
            .unwrap()
            .collect_rows();
        assert_eq!(rows[0].get(0), &Value::Int(13)); // 13.0 truncated
        assert_eq!(rows[0].get(1), &Value::Str("3".into()));
        assert_eq!(rows[0].get(2), &Value::Int(42));
        assert_eq!(rows[0].get(3), &Value::Double(23.0));
        // Output schema reflects the cast target.
        let schema = e
            .validate("SELECT CAST(amount AS BIGINT) AS a FROM carts")
            .unwrap();
        assert_eq!(schema.field(0).data_type, DataType::Int);
        // Bad string casts fail at runtime.
        assert!(e.query("SELECT CAST(gender AS INT) FROM users").is_err());
    }

    #[test]
    fn join_with_empty_sides() {
        let e = engine_with_data();
        e.register_rows(
            "nobody",
            Schema::new(vec![Field::new("userid", DataType::Int)]),
            vec![],
        );
        // Inner join against an empty table: zero rows, not an error.
        let n = e
            .query("SELECT c.cartid FROM carts c, nobody n WHERE c.userid = n.userid")
            .unwrap()
            .num_rows();
        assert_eq!(n, 0);
        // LEFT JOIN with an empty right side preserves every left row.
        let n = e
            .query(
                "SELECT n.userid, c.cartid FROM carts c LEFT JOIN nobody n ON c.userid = n.userid",
            )
            .unwrap()
            .collect_rows();
        assert_eq!(n.len(), 30);
        assert!(n.iter().all(|r| r.get(0).is_null()));
    }

    #[test]
    fn limit_zero_and_oversized() {
        let e = engine_with_data();
        assert_eq!(
            e.query("SELECT cartid FROM carts LIMIT 0")
                .unwrap()
                .num_rows(),
            0
        );
        assert_eq!(
            e.query("SELECT cartid FROM carts LIMIT 9999")
                .unwrap()
                .num_rows(),
            30
        );
    }

    #[test]
    fn udf_errors_propagate_from_worker_threads() {
        use crate::udf::ScalarFn;
        let e = engine_with_data();
        e.register_scalar_udf(Arc::new(ScalarFn::new("boom", |_: &[Value]| {
            Err(sqlml_common::SqlmlError::Execution("deliberate".into()))
        })));
        let err = e.query("SELECT boom(cartid) FROM carts").unwrap_err();
        assert!(err.to_string().contains("deliberate"), "{err}");
    }

    #[test]
    fn null_join_keys_never_match() {
        let e = Engine::new(EngineConfig::with_workers(2));
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        e.register_rows(
            "l",
            schema.clone(),
            vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int(1)])],
        );
        e.register_rows(
            "r",
            schema,
            vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int(1)])],
        );
        // SQL: NULL = NULL is unknown, so only the 1-1 pair joins.
        let n = e
            .query("SELECT l.k FROM l, r WHERE l.k = r.k")
            .unwrap()
            .num_rows();
        assert_eq!(n, 1);
    }

    #[test]
    fn order_by_is_deterministic_under_ties() {
        let e = engine_with_data();
        // `abandoned` has only two values; ties broken by secondary key.
        let a = e
            .query("SELECT abandoned, cartid FROM carts ORDER BY abandoned, cartid")
            .unwrap()
            .collect_rows();
        let b = e
            .query("SELECT abandoned, cartid FROM carts ORDER BY abandoned, cartid")
            .unwrap()
            .collect_rows();
        assert_eq!(a, b);
        // And cartid ascends within each abandoned group.
        let mut prev: Option<(String, i64)> = None;
        for r in a {
            let key = (
                r.get(0).as_str().unwrap().to_string(),
                r.get(1).as_i64().unwrap(),
            );
            if let Some(p) = &prev {
                assert!(*p <= key, "{p:?} > {key:?}");
            }
            prev = Some(key);
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let sql = "SELECT U.age, C.amount FROM carts C, users U \
                   WHERE C.userid=U.userid AND U.country='USA' AND C.amount > 15";
        let mut reference: Option<Vec<Row>> = None;
        for workers in [1, 2, 5, 8] {
            let e = Engine::new(EngineConfig::with_workers(workers));
            let carts = Schema::new(vec![
                Field::new("cartid", DataType::Int),
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
                (0..30)
                    .map(|i| row![i as i64, (i % 10) as i64, 10.0 + i as f64, "No"])
                    .collect(),
            );
            e.register_rows(
                "users",
                users,
                (0..10)
                    .map(|i| {
                        row![
                            i as i64,
                            20 + i as i64,
                            "F",
                            if i < 8 { "USA" } else { "CA" }
                        ]
                    })
                    .collect(),
            );
            let got = e.query(sql).unwrap().collect_sorted();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "workers={workers}"),
            }
        }
    }
}
