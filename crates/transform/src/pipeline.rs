//! The In-SQL transformation pipeline: two passes over the prepared
//! table, both inside the SQL engine with its partition parallelism (the
//! paper's "In-SQL transformation" approach). Pass 1 builds the recode
//! map through SQL statements and table UDFs; pass 2 is one parallel
//! per-partition table-UDF pass that recodes and dummy-codes every
//! column at once, producing the transformed table directly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_common::{sql_string_literal, Result, Schema, SqlmlError, Value};
use sqlml_sqlengine::{Batch, Engine, PartitionCtx, PartitionedTable, TableUdf};

use crate::apply::FlatRecodeApplier;
use crate::dummy::DummyCodeUdf;
use crate::effect::{EffectCodeUdf, OrthogonalCodeUdf};
use crate::recode::{AssignRecodeIdsUdf, DistinctValuesUdf, RecodeMap};

/// Register all transformation table UDFs with an engine. Idempotent.
pub fn register_udfs(engine: &Engine) {
    engine.register_table_udf(Arc::new(DistinctValuesUdf));
    engine.register_table_udf(Arc::new(AssignRecodeIdsUdf));
    engine.register_table_udf(Arc::new(DummyCodeUdf));
    engine.register_table_udf(Arc::new(EffectCodeUdf));
    engine.register_table_udf(Arc::new(OrthogonalCodeUdf));
}

/// What to transform.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransformSpec {
    /// Categorical columns to recode. Empty = every column flagged
    /// `categorical` in the input schema.
    pub recode_columns: Vec<String>,
    /// Recoded columns to further dummy-code (must be a subset of the
    /// recoded columns).
    pub dummy_code_columns: Vec<String>,
}

impl TransformSpec {
    /// Recode all categorical columns, dummy-code the given ones.
    pub fn new(dummy_code_columns: &[&str]) -> Self {
        TransformSpec {
            recode_columns: Vec::new(),
            dummy_code_columns: dummy_code_columns.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The recode columns, defaulted from a schema when unspecified.
    pub fn effective_recode_columns(&self, schema: &Schema) -> Vec<String> {
        if self.recode_columns.is_empty() {
            schema.categorical_columns()
        } else {
            self.recode_columns.clone()
        }
    }
}

/// Result of a transformation run.
#[derive(Debug)]
pub struct TransformOutput {
    /// The fully transformed (recoded + dummy-coded) table.
    pub table: PartitionedTable,
    /// The recode map built (or reused) — cacheable per §5.2.
    pub recode_map: RecodeMap,
    /// Time spent building the recode map (zero when a cached map was
    /// supplied).
    pub map_build: Duration,
    /// Time spent in pass 2 (recoding + dummy coding).
    pub apply: Duration,
}

static TEMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_name(tag: &str) -> String {
    format!(
        "__sqlml_{tag}_{}",
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Runs In-SQL transformations against one engine.
///
/// ```
/// use sqlml_sqlengine::{Engine, EngineConfig};
/// use sqlml_transform::{InSqlTransformer, TransformSpec};
/// use sqlml_common::schema::{DataType, Field, Schema};
/// use sqlml_common::row;
///
/// let engine = Engine::new(EngineConfig::with_workers(2));
/// engine.register_rows(
///     "t",
///     Schema::new(vec![Field::new("age", DataType::Int), Field::categorical("gender")]),
///     vec![row![57i64, "F"], row![40i64, "M"]],
/// );
/// let transformer = InSqlTransformer::new(engine);
/// let out = transformer.transform("t", &TransformSpec::default()).unwrap();
/// // gender recoded to consecutive integers from 1 (F=1, M=2).
/// assert_eq!(out.recode_map.code("gender", "F"), Some(1));
/// assert_eq!(out.recode_map.code("gender", "M"), Some(2));
/// ```
#[derive(Clone)]
pub struct InSqlTransformer {
    engine: Engine,
}

impl InSqlTransformer {
    /// Wrap an engine, registering the transformation UDFs.
    pub fn new(engine: Engine) -> Self {
        register_udfs(&engine);
        InSqlTransformer { engine }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Phase 1 of §2.1: build the recode map for `columns` of `table` with
    /// one parallel scan (the `distinct_values` UDF), a global
    /// `SELECT DISTINCT ... ORDER BY` merge, and the `assign_recode_ids`
    /// UDF.
    pub fn build_recode_map(&self, table: &str, columns: &[String]) -> Result<RecodeMap> {
        if columns.is_empty() {
            return Ok(RecodeMap::default());
        }
        let col_args = columns
            .iter()
            .map(|c| sql_string_literal(c))
            .collect::<Vec<_>>()
            .join(", ");
        let pairs = temp_name("pairs");
        self.engine.execute(&format!(
            "CREATE TABLE {pairs} AS \
             SELECT DISTINCT colname, colval \
             FROM TABLE(distinct_values({table}, {col_args})) AS d \
             ORDER BY colname, colval"
        ))?;
        let result = self.engine.query(&format!(
            "SELECT * FROM TABLE(assign_recode_ids({pairs})) AS m"
        ));
        self.engine.execute(&format!("DROP TABLE {pairs}"))?;
        RecodeMap::from_rows(&result?.collect_rows())
    }

    /// Full transformation with a freshly built recode map (two passes).
    pub fn transform(&self, table: &str, spec: &TransformSpec) -> Result<TransformOutput> {
        let input = self.engine.catalog().table(table)?;
        let columns = spec.effective_recode_columns(input.schema());
        let t0 = Instant::now();
        let map = self.build_recode_map(table, &columns)?;
        let map_build = t0.elapsed();
        self.apply_with_map(&input, spec, map, map_build)
    }

    /// Transformation reusing a cached recode map — §5.2: "we avoid one
    /// of the two passes".
    pub fn transform_with_map(
        &self,
        table: &str,
        spec: &TransformSpec,
        map: &RecodeMap,
    ) -> Result<TransformOutput> {
        let input = self.engine.catalog().table(table)?;
        for c in &spec.effective_recode_columns(input.schema()) {
            if !map.has_column(c) {
                return Err(SqlmlError::Cache(format!(
                    "cached recode map lacks column {c:?}"
                )));
            }
        }
        self.apply_with_map(&input, spec, map.clone(), Duration::ZERO)
    }

    /// Pass 2: one table-UDF pass over `input`, all columns at once.
    fn apply_with_map(
        &self,
        input: &PartitionedTable,
        spec: &TransformSpec,
        map: RecodeMap,
        map_build: Duration,
    ) -> Result<TransformOutput> {
        let t0 = Instant::now();
        let udf = RecodeDummyUdf(FlatRecodeApplier::new(&map, input.schema(), spec)?);
        let table = self.engine.apply_table_udf(input, &udf, &[])?;
        Ok(TransformOutput {
            table,
            recode_map: map,
            map_build,
            apply: t0.elapsed(),
        })
    }
}

/// Pass 2 as a parallel table UDF. The instance carries the applier
/// resolved for one (map, input schema, spec), so it is handed to
/// [`Engine::apply_table_udf`] rather than registered under a name:
/// concurrent transforms on one engine share nothing.
struct RecodeDummyUdf<'m>(FlatRecodeApplier<'m>);

impl TableUdf for RecodeDummyUdf<'_> {
    fn name(&self) -> &str {
        "recode_dummy"
    }

    fn output_schema(&self, _input: &Schema, _args: &[Value]) -> Result<Schema> {
        Ok(self.0.output_schema().clone())
    }

    fn execute(
        &self,
        input: &Batch,
        _input_schema: &Schema,
        _args: &[Value],
        _ctx: &PartitionCtx,
    ) -> Result<Batch> {
        self.0.apply_batch(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field};
    use sqlml_common::Value;
    use sqlml_sqlengine::EngineConfig;

    /// The table of Figure 1(a).
    fn engine_with_figure1() -> Engine {
        let e = Engine::new(EngineConfig::with_workers(3));
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
        ]);
        e.register_rows(
            "t",
            schema,
            vec![
                row![57i64, "F", 103.25, "Yes"],
                row![40i64, "M", 35.8, "Yes"],
                row![35i64, "F", 48.9, "No"],
            ],
        );
        e
    }

    #[test]
    fn two_phase_recode_reproduces_figure_1b() {
        let tr = InSqlTransformer::new(engine_with_figure1());
        let out = tr.transform("t", &TransformSpec::default()).unwrap();
        // Figure 1(b): F=1, M=2; No=1, Yes=2 (sorted order).
        let rows = out.table.collect_sorted();
        assert_eq!(
            rows,
            vec![
                row![35i64, 1i64, 48.9, 1i64],
                row![40i64, 2i64, 35.8, 2i64],
                row![57i64, 1i64, 103.25, 2i64],
            ]
        );
        assert_eq!(out.recode_map.code("gender", "F"), Some(1));
        assert_eq!(out.recode_map.code("abandoned", "Yes"), Some(2));
        assert_eq!(
            out.table.schema().names(),
            vec!["age", "gender", "amount", "abandoned"]
        );
        assert_eq!(out.table.schema().field(1).data_type, DataType::Int);
    }

    #[test]
    fn recode_plus_dummy_reproduces_figure_1c() {
        let tr = InSqlTransformer::new(engine_with_figure1());
        let out = tr.transform("t", &TransformSpec::new(&["gender"])).unwrap();
        assert_eq!(
            out.table.schema().names(),
            vec!["age", "gender_F", "gender_M", "amount", "abandoned"]
        );
        let rows = out.table.collect_sorted();
        assert_eq!(
            rows,
            vec![
                row![35i64, 1i64, 0i64, 48.9, 1i64],
                row![40i64, 0i64, 1i64, 35.8, 2i64],
                row![57i64, 1i64, 0i64, 103.25, 2i64],
            ]
        );
    }

    #[test]
    fn distributed_map_matches_centralized_reference() {
        // Many partitions, skewed values: the two-phase distributed map
        // must equal the centralized single-scan map.
        let e = Engine::new(EngineConfig::with_workers(7));
        let schema = Schema::new(vec![Field::categorical("c")]);
        let values = ["a", "b", "c", "d", "e"];
        let rows: Vec<_> = (0..200).map(|i| row![values[i * i % 5]]).collect();
        e.register_rows("data", schema.clone(), rows);
        let tr = InSqlTransformer::new(e.clone());
        let distributed = tr.build_recode_map("data", &["c".to_string()]).unwrap();
        let table = e.catalog().table("data").unwrap();
        let reference =
            RecodeMap::from_table_scan(table.partitions(), &schema, &["c".to_string()]).unwrap();
        assert_eq!(distributed, reference);
    }

    #[test]
    fn cached_map_skips_phase_one() {
        let tr = InSqlTransformer::new(engine_with_figure1());
        let first = tr.transform("t", &TransformSpec::default()).unwrap();
        assert!(first.map_build > Duration::ZERO);
        let second = tr
            .transform_with_map("t", &TransformSpec::default(), &first.recode_map)
            .unwrap();
        assert_eq!(second.map_build, Duration::ZERO);
        assert_eq!(second.table.collect_sorted(), first.table.collect_sorted());
    }

    #[test]
    fn cached_map_missing_column_is_rejected() {
        let tr = InSqlTransformer::new(engine_with_figure1());
        let partial = RecodeMap::from_pairs(vec![("gender".into(), "F".into())]);
        assert!(tr
            .transform_with_map("t", &TransformSpec::default(), &partial)
            .is_err());
    }

    #[test]
    fn dummy_code_of_unrecoded_column_is_rejected() {
        let tr = InSqlTransformer::new(engine_with_figure1());
        let spec = TransformSpec {
            recode_columns: vec!["gender".into()],
            dummy_code_columns: vec!["abandoned".into()],
        };
        assert!(tr.transform("t", &spec).is_err());
    }

    #[test]
    fn no_categorical_columns_is_a_pass_through() {
        let e = Engine::new(EngineConfig::with_workers(2));
        e.register_rows(
            "nums",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![row![1i64], row![2i64]],
        );
        let tr = InSqlTransformer::new(e);
        let out = tr.transform("nums", &TransformSpec::default()).unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert!(out.recode_map.columns().next().is_none());
    }

    #[test]
    fn transformed_output_is_fully_numeric() {
        let tr = InSqlTransformer::new(engine_with_figure1());
        let out = tr.transform("t", &TransformSpec::new(&["gender"])).unwrap();
        for r in out.table.collect_rows() {
            assert!(r.to_f64_vec().is_ok(), "row {r} still has strings");
        }
    }

    #[test]
    fn values_with_quotes_survive_dummy_coding() {
        let e = Engine::new(EngineConfig::with_workers(2));
        let schema = Schema::new(vec![Field::categorical("c")]);
        e.register_rows("q", schema, vec![row!["it's"], row!["plain"]]);
        let tr = InSqlTransformer::new(e);
        let out = tr.transform("q", &TransformSpec::new(&["c"])).unwrap();
        assert_eq!(out.table.schema().len(), 2);
        let rows = out.table.collect_sorted();
        // Exactly one indicator set per row.
        for r in &rows {
            let total: i64 = (0..2).map(|i| r.get(i).as_i64().unwrap()).sum();
            assert_eq!(total, 1);
        }
        let _ = Value::Null; // keep Value import used in both cfg branches
    }
}
