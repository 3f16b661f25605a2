//! `planlint` — run the plan semantic analyzer over the whole workload
//! corpus.
//!
//! Builds the paper's synthetic warehouse (`carts` + `users` at unit-test
//! scale), registers the In-SQL transformation UDFs, then plans a battery
//! of corpus queries and the statements of the §4 rewriter's script for
//! the paper's request, gender dummy-coded and effect-coded (fresh and
//! §5.2, as the product runs them), and
//! validates each plan tree explicitly at both of its stages — as the
//! planner emits it and as the optimizer rewrites it
//! (so this works in release builds too, where the engine's automatic
//! debug-mode validation is compiled out). Exits non-zero and names the
//! query, the stage and the diagnostic of each plan that breaks an
//! invariant.
//!
//! ```text
//! cargo run -p sqlml-core --bin planlint
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use sqlml_cache::CacheManager;
use sqlml_common::{CancelToken, Result, SqlmlError};
use sqlml_core::workload::{Workload, WorkloadScale, PREP_QUERY};
use sqlml_rewriter::{QueryRewriter, RewritePlan};
use sqlml_sqlengine::ast::Statement;
use sqlml_sqlengine::optimizer::optimize;
use sqlml_sqlengine::parser::parse_statement;
use sqlml_sqlengine::plan::Plan;
use sqlml_sqlengine::validate::validate;
use sqlml_sqlengine::{Engine, EngineConfig};
use sqlml_transform::{Coding, TransformSpec};

/// Optimizes to a `HashJoin … project=[…]` with no `Project` above it;
/// `main` fails if it stops doing so, since the corpus would then no
/// longer cover that node shape.
const PROJECTING_JOIN: &str = "SELECT U.age, C.amount, U.age AS age2, C.cartid \
                               FROM carts C, users U WHERE C.userid = U.userid";

/// The §2.1 recode-map statement: `main` fails unless it explains as a
/// `Sort` over an `Aggregate … aggs=[]` (DISTINCT is a grouping).
const RECODE_PAIRS: &str = "SELECT DISTINCT colname, colval \
                            FROM TABLE(distinct_values(users, 'gender', 'country')) AS d \
                            ORDER BY colname, colval";

/// Corpus queries: the paper's preparation query plus coverage of every
/// plan node the planner can emit (filter, project, join, aggregate,
/// distinct, sort, limit, scalar + table UDFs, and operator chains).
fn corpus() -> Vec<String> {
    let mut queries: Vec<String> = vec![
        PREP_QUERY.to_string(),
        "SELECT * FROM carts".into(),
        "SELECT cartid, amount * 1.1 FROM carts WHERE amount > 100".into(),
        "SELECT userid, age + 1 FROM users WHERE country = 'USA' AND age BETWEEN 20 AND 60".into(),
        "SELECT DISTINCT country FROM users".into(),
        "SELECT country, count(*), avg(age) FROM users GROUP BY country".into(),
        "SELECT year, sum(amount), min(nitems), max(nitems) FROM carts \
         GROUP BY year ORDER BY year"
            .into(),
        "SELECT U.country, count(*) FROM carts C, users U \
         WHERE C.userid = U.userid GROUP BY U.country ORDER BY country LIMIT 5"
            .into(),
        "SELECT C.cartid, U.age FROM carts C LEFT JOIN users U ON C.userid = U.userid".into(),
        // Projecting joins: a column-only Project folded into the join
        // (reordered, repeated, both sides) — and one that must not fold.
        PROJECTING_JOIN.into(),
        "SELECT U.age + 1, C.amount FROM carts C, users U WHERE C.userid = U.userid".into(),
        "SELECT abs(amount - 50), round(amount, 1) FROM carts LIMIT 10".into(),
        "SELECT upper(country), length(gender) FROM users WHERE gender IS NOT NULL".into(),
        "SELECT cartid FROM carts WHERE abandoned IN ('yes', 'no') AND NOT nitems = 0".into(),
        "SELECT cartid, CAST(amount AS BIGINT) FROM carts WHERE amount > 10 LIMIT 3".into(),
        // Table-UDF plans: the two-phase recode front end.
        RECODE_PAIRS.into(),
        "SELECT * FROM TABLE(distinct_values(carts, 'abandoned')) AS d".into(),
    ];
    // Filter/project chains at increasing depth (the executor runs each
    // as one pass; make sure every depth validates).
    for depth in 1..=3 {
        let mut q = "SELECT amount FROM carts WHERE amount > 0".to_string();
        for i in 0..depth {
            q.push_str(&format!(" AND nitems > {i}"));
        }
        queries.push(q);
    }
    queries
}

fn main() -> ExitCode {
    let wl = Workload::generate(WorkloadScale::TINY, 42);
    let engine = Engine::new(EngineConfig::with_workers(2));
    engine.register_rows("carts", wl.carts_schema.clone(), wl.carts);
    engine.register_rows("users", wl.users_schema.clone(), wl.users);
    sqlml_transform::pipeline::register_udfs(&engine);

    let mut failures = 0usize;
    let mut checked = 0usize;
    let corpus = corpus().into_iter().map(|sql| {
        let linted = validate_both_stages(&engine, &sql);
        (sql, linted)
    });
    for (sql, linted) in corpus.chain(script_statements(&engine)) {
        checked += 1;
        if let Err(e) = linted {
            failures += 1;
            eprintln!("planlint FAIL {sql}\n  {e}");
        }
    }
    match engine.explain(PROJECTING_JOIN) {
        Ok(text) if text.contains("project=[") && !text.contains("Project") => {}
        other => {
            failures += 1;
            eprintln!("planlint FAIL corpus lost its projecting-join plan: {other:?}");
        }
    }
    let recode_pairs = engine.explain(RECODE_PAIRS);
    if !recode_pairs.as_deref().is_ok_and(sort_over_grouping) {
        failures += 1;
        eprintln!("planlint FAIL recode-map plan is not Sort over Aggregate: {recode_pairs:?}");
    }
    if failures == 0 {
        println!("planlint: {checked} plans validated clean, planned and optimized");
        ExitCode::SUCCESS
    } else {
        eprintln!("planlint: {failures}/{checked} plans failed validation");
        ExitCode::FAILURE
    }
}

/// `Sort` on top, an `Aggregate` with no aggregates right under it, and
/// no `Distinct` node anywhere.
fn sort_over_grouping(explained: &str) -> bool {
    let nodes: Vec<&str> = explained.lines().map(str::trim_start).collect();
    matches!(&nodes[..], [sort, grouping, ..]
        if sort.starts_with("Sort ") && grouping.starts_with("Aggregate ") && grouping.ends_with("aggs=[]"))
        && !nodes.iter().any(|node| node.starts_with("Distinct"))
}

/// Every statement of the rewriter's script for the paper's request
/// (`PREP_QUERY`, gender dummy-coded, then effect-coded), linted just
/// before it runs: fresh, then with the recode map that run built cached
/// (§5.2).
fn script_statements(engine: &Engine) -> Vec<(String, Result<()>)> {
    let specs = [
        TransformSpec::new(&["gender"]),
        TransformSpec::coded(&[("gender", Coding::Effect)]),
    ];
    let mut linted = Vec::new();
    for spec in &specs {
        linted.extend(script_statements_for(engine, spec));
    }
    linted
}

/// [`script_statements`] for one spec, over a cache of its own.
fn script_statements_for(engine: &Engine, spec: &TransformSpec) -> Vec<(String, Result<()>)> {
    let cache = Arc::new(CacheManager::new(engine.clone()));
    let rewriter = QueryRewriter::with_cache(engine.clone(), Arc::clone(&cache));
    let mut linted = Vec::new();
    for map_hit in [false, true] {
        let ran = rewriter.rewrite(PREP_QUERY, spec, None).and_then(|script| {
            if matches!(script.plan, RewritePlan::CachedMap { .. }) != map_hit {
                let plan = format!("unexpected {:?}", script.plan);
                return Err(SqlmlError::PlanValidation(plan));
            }
            let (_, map) = rewriter.run(&script, &CancelToken::new(), |sql| {
                // A `DROP TABLE` plans nothing.
                if !sql.starts_with("DROP TABLE") {
                    linted.push((sql.to_string(), validate_both_stages(engine, sql)));
                }
                Ok(())
            })?;
            if let Some(d) = script.descriptor {
                cache.store_recode_map(d, map);
            }
            Ok(())
        });
        if let Err(e) = ran {
            linted.push((PREP_QUERY.into(), Err(e)));
        }
    }
    linted
}

/// Validate the planner's output, then the optimizer's rewrite of it, for
/// a `SELECT` or the query of a `CREATE TABLE ... AS SELECT`.
fn validate_both_stages(engine: &Engine, sql: &str) -> Result<()> {
    let (Statement::Select(stmt) | Statement::CreateTableAs { query: stmt, .. }) =
        parse_statement(sql)?
    else {
        return Err(SqlmlError::PlanValidation(format!("not a query: {sql}")));
    };
    let planned = sqlml_sqlengine::planner::plan_select(&stmt, engine.catalog())?;
    let validate_at = |stage: &str, plan: &Plan| match validate(plan, engine.catalog()) {
        Ok(_) => Ok(()),
        Err(e) => Err(SqlmlError::PlanValidation(format!("[{stage}] {e}"))),
    };
    validate_at("planned", &planned)?;
    validate_at("optimized", &optimize(planned))
}
