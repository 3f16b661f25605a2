//! `planlint` — run the plan semantic analyzer over the whole workload
//! corpus.
//!
//! Builds the paper's synthetic warehouse (`carts` + `users` at unit-test
//! scale), registers the In-SQL transformation UDFs, then plans a battery
//! of corpus queries through both the fused and the unfused optimizer
//! paths and validates every resulting plan tree explicitly (so this
//! works in release builds too, where the engine's automatic debug-mode
//! validation is compiled out). Exits non-zero and names the query and
//! diagnostic on the first invariant violation.
//!
//! ```text
//! cargo run -p sqlml-core --bin planlint
//! ```

use std::process::ExitCode;

use sqlml_core::workload::{Workload, WorkloadScale, PREP_QUERY};
use sqlml_sqlengine::{Engine, EngineConfig};

/// Plans (fused) as a `HashJoin … project=[…]` with no `Project` above it;
/// `main` fails if it stops doing so, since the corpus would then no
/// longer cover that node shape.
const PROJECTING_JOIN: &str = "SELECT U.age, C.amount, U.age AS age2, C.cartid \
                               FROM carts C, users U WHERE C.userid = U.userid";

/// Corpus queries: the paper's preparation query plus coverage of every
/// plan node the planner can emit (filter, project, join, aggregate,
/// distinct, sort, limit, scalar + table UDFs, and fusible chains).
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
        "SELECT DISTINCT colname, colval \
         FROM TABLE(distinct_values(users, 'gender', 'country')) AS d \
         ORDER BY colname, colval"
            .into(),
        "SELECT * FROM TABLE(distinct_values(carts, 'abandoned')) AS d".into(),
    ];
    // Fusible chains at increasing depth (filter/project stacks collapse
    // into Plan::Fused; make sure every depth validates).
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
    for sql in corpus() {
        for (mode, plan) in [
            ("fused", plan_query(&engine, &sql, true)),
            ("unfused", plan_query(&engine, &sql, false)),
        ] {
            checked += 1;
            match plan {
                Ok(()) => {}
                Err(e) => {
                    failures += 1;
                    eprintln!("planlint FAIL [{mode}] {sql}\n  {e}");
                }
            }
        }
    }
    match engine.explain(PROJECTING_JOIN) {
        Ok(text) if text.contains("project=[") && !text.contains("Project") => {}
        other => {
            failures += 1;
            eprintln!("planlint FAIL corpus lost its projecting-join plan: {other:?}");
        }
    }
    if failures == 0 {
        println!("planlint: {checked} plans validated clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("planlint: {failures}/{checked} plans failed validation");
        ExitCode::FAILURE
    }
}

fn plan_query(engine: &Engine, sql: &str, fused: bool) -> sqlml_common::Result<()> {
    let stmt = sqlml_sqlengine::parser::parse_select(sql)?;
    let plan = if fused {
        engine.plan(&stmt)?
    } else {
        engine.plan_unfused(&stmt)?
    };
    sqlml_sqlengine::validate::validate(&plan, engine.catalog()).map(|_| ())
}
