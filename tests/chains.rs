//! The executor's chain runner, observed from outside: a run of
//! `Filter` / `Project` / `TableUdfScan` nodes is one pass per partition
//! on one worker thread, a pipeline breaker ends the run, and a table UDF
//! that misbehaves inside a chain — a batch narrower than its declared
//! schema, a panic on every worker or on the caller's own thread — comes
//! back as an error.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{row, Result, Row, SqlmlError, Value};
use sqlml_sqlengine::executor::execute;
use sqlml_sqlengine::expr::Expr;
use sqlml_sqlengine::plan::Plan;
use sqlml_sqlengine::{Batch, Engine, EngineConfig, PartitionCtx, PartitionedTable};
use sqlml_sqlengine::{ScalarUdf, TableUdf};

/// `(p BIGINT, x BIGINT)`: four partitions of three rows, `p` holding
/// the partition's own index.
fn four_partitions() -> PartitionedTable {
    let schema = Schema::new(vec![
        Field::new("p", DataType::Int),
        Field::new("x", DataType::Int),
    ]);
    let parts = (0..4i64)
        .map(|p| (0..3i64).map(|i| row![p, 10 * p + i]).collect())
        .collect();
    PartitionedTable::new(schema, parts)
}

/// Scalar UDF `on_thread(p)`: always true, and remembers which threads
/// evaluated it for each `p`.
#[derive(Default)]
struct RecordingPredicate {
    seen: Mutex<HashMap<i64, HashSet<ThreadId>>>,
}

impl ScalarUdf for RecordingPredicate {
    fn name(&self) -> &str {
        "on_thread"
    }

    fn eval(&self, args: &[Value]) -> Result<Value> {
        let mut seen = self.seen.lock().unwrap();
        seen.entry(args[0].as_i64()?)
            .or_default()
            .insert(std::thread::current().id());
        Ok(Value::Bool(true))
    }

    fn return_type(&self, _: &[DataType]) -> DataType {
        DataType::Bool
    }
}

/// Table UDF `pass_through`: returns its input, and remembers the thread
/// that ran each partition.
#[derive(Default)]
struct RecordingUdf {
    ran: Mutex<Vec<(usize, ThreadId)>>,
}

impl TableUdf for RecordingUdf {
    fn name(&self) -> &str {
        "pass_through"
    }

    fn output_schema(&self, input: &Schema, _: &[Value]) -> Result<Schema> {
        Ok(input.clone())
    }

    fn execute(&self, input: &Batch, _: &Schema, _: &[Value], ctx: &PartitionCtx) -> Result<Batch> {
        let mut ran = self.ran.lock().unwrap();
        ran.push((ctx.partition, std::thread::current().id()));
        Ok(input.clone())
    }
}

/// `TableUdfScan(pass_through) ← Project [x, p] ← <breaker?> ← Filter
/// on_thread(p) ← Scan`, with the recorders it was built around.
fn recorded_chain(
    table: PartitionedTable,
    breaker: bool,
) -> (Plan, Arc<RecordingPredicate>, Arc<RecordingUdf>) {
    let (predicate, udf) = (
        Arc::new(RecordingPredicate::default()),
        Arc::new(RecordingUdf::default()),
    );
    let mut plan = Plan::Filter {
        input: Box::new(Plan::Scan {
            name: "t".into(),
            table: Arc::new(table),
        }),
        predicate: Expr::Scalar {
            udf: predicate.clone(),
            args: vec![Expr::Col(0)],
        },
    };
    if breaker {
        plan = Plan::Aggregate {
            group_exprs: vec![Expr::Col(0), Expr::Col(1)],
            aggs: Vec::new(),
            schema: plan.schema(),
            input: Box::new(plan),
        };
    }
    let swapped = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("p", DataType::Int),
    ]);
    let plan = Plan::TableUdfScan {
        udf: udf.clone(),
        input: Box::new(Plan::Project {
            input: Box::new(plan),
            exprs: vec![Expr::Col(1), Expr::Col(0)],
            schema: swapped.clone(),
        }),
        args: Vec::new(),
        schema: swapped,
    };
    (plan, predicate, udf)
}

fn expected_rows() -> Vec<Row> {
    (0..4i64)
        .flat_map(|p| (0..3i64).map(move |i| row![10 * p + i, p]))
        .collect()
}

#[test]
fn a_chain_is_one_pass_per_partition_on_one_worker_thread() {
    let engine = Engine::new(EngineConfig::with_workers(2));
    let (plan, predicate, udf) = recorded_chain(four_partitions(), false);
    let out = execute(&plan, engine.exec_context()).unwrap();
    assert_eq!(out.schema().names(), vec!["x", "p"]);
    assert_eq!(out.num_partitions(), 4);
    assert_eq!(out.collect_sorted(), expected_rows());

    // Every worker round spawns fresh scoped threads and a `ThreadId` is
    // never reused, so equal ids mean the same round.
    let seen = predicate.seen.lock().unwrap();
    let ran = udf.ran.lock().unwrap();
    assert_eq!(ran.len(), 4, "{ran:?}");
    for &(partition, thread) in ran.iter() {
        assert_ne!(thread, std::thread::current().id(), "ran inline");
        assert_eq!(
            seen[&(partition as i64)],
            HashSet::from([thread]),
            "partition {partition}: predicate and table UDF ran in different rounds"
        );
    }
}

#[test]
fn a_chain_stops_at_a_pipeline_breaker() {
    let engine = Engine::new(EngineConfig::with_workers(2));
    let (plan, predicate, udf) = recorded_chain(four_partitions(), true);
    let out = execute(&plan, engine.exec_context()).unwrap();
    assert_eq!(out.collect_sorted(), expected_rows());

    // The Filter under the Aggregate ran in an earlier round than the
    // Project and table UDF above it: no thread did both.
    let below: HashSet<ThreadId> = (predicate.seen.lock().unwrap().values())
        .flatten()
        .copied()
        .collect();
    let above: HashSet<ThreadId> = (udf.ran.lock().unwrap().iter())
        .map(|&(_, thread)| thread)
        .collect();
    assert!(!below.is_empty() && !above.is_empty());
    assert!(below.is_disjoint(&above), "{below:?} vs {above:?}");
}

/// Declares `(a, b)` and returns only `a`.
struct NarrowUdf;

impl TableUdf for NarrowUdf {
    fn name(&self) -> &str {
        "narrow"
    }

    fn output_schema(&self, _: &Schema, _: &[Value]) -> Result<Schema> {
        Ok(Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]))
    }

    fn execute(&self, input: &Batch, _: &Schema, _: &[Value], _: &PartitionCtx) -> Result<Batch> {
        Ok(Batch::new(vec![input.column(0).clone()], input.len()))
    }
}

#[test]
fn a_table_udf_returning_fewer_columns_than_it_declared_is_an_error() {
    for workers in [1, 2] {
        let engine = Engine::new(EngineConfig::with_workers(workers));
        engine.register_table("t", four_partitions());
        engine.register_table_udf(Arc::new(NarrowUdf));
        let results = [
            engine.query("SELECT * FROM TABLE(narrow(t)) n"),
            engine.query("SELECT b FROM TABLE(narrow(t)) n WHERE b > 0"),
        ];
        for result in results {
            let Err(SqlmlError::Execution(msg)) = result else {
                panic!("{workers} workers: expected an execution error, got {result:?}")
            };
            assert!(
                msg.contains("\"narrow\"")
                    && msg.contains("declared 2")
                    && msg.contains("returned 1"),
                "{msg}"
            );
        }
    }
}

struct PanickingUdf;

impl TableUdf for PanickingUdf {
    fn name(&self) -> &str {
        "explode"
    }

    fn output_schema(&self, input: &Schema, _: &[Value]) -> Result<Schema> {
        Ok(input.clone())
    }

    fn execute(&self, _: &Batch, _: &Schema, _: &[Value], ctx: &PartitionCtx) -> Result<Batch> {
        panic!("deliberate panic in partition {}", ctx.partition)
    }
}

#[test]
fn every_worker_panicking_is_an_error_in_the_caller_not_a_panic() {
    // Two workers over four partitions panic on worker threads; one
    // worker, or a one-partition table (here CTAS'd from a gathered
    // ORDER BY) on two workers, runs the panicking item inline on the
    // caller's thread.
    for (workers, table) in [(2, "t"), (1, "t"), (2, "sorted")] {
        let engine = Engine::new(EngineConfig::with_workers(workers));
        engine.register_table("t", four_partitions());
        engine.register_table_udf(Arc::new(PanickingUdf));
        engine
            .execute("CREATE TABLE sorted AS SELECT p, x FROM t ORDER BY x")
            .unwrap();
        assert_eq!(
            engine
                .query("SELECT * FROM sorted")
                .unwrap()
                .num_partitions(),
            1
        );
        let result = engine.query(&format!("SELECT * FROM TABLE(explode({table})) x"));
        assert!(
            matches!(&result, Err(SqlmlError::Execution(msg)) if msg == "worker thread panicked"),
            "{workers} workers over {table}: {result:?}"
        );
    }
}
