//! The In-SQL transformation pipeline: two passes over the prepared
//! table, both inside the SQL engine with its partition parallelism (the
//! paper's "In-SQL transformation" approach). Pass 1 builds the recode
//! map table through SQL statements and table UDFs; pass 2 is the
//! registered `recode_dummy` table UDF, one parallel per-partition pass
//! that recodes every column and codes the spec's at once. The statements of
//! both passes are written once, here: the §4 rewriter writes them into
//! the script every In-SQL pipeline runs, and [`InSqlTransformer`] runs
//! them over one table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use sqlml_common::{sql_string_literal, Result, Schema, SqlmlError, Value};
use sqlml_sqlengine::{Batch, Catalog, Engine, PartitionCtx, PartitionedTable, TableUdf};

use crate::apply::FlatRecodeApplier;
use crate::coding::Coding;
use crate::recode::{recode_map_schema, AssignRecodeIdsUdf, DistinctValuesUdf, RecodeMap};
use crate::spec::{BoundSpec, TransformSpec};

/// Register all transformation table UDFs with an engine. Idempotent.
pub fn register_udfs(engine: &Engine) {
    engine.register_table_udf(Arc::new(DistinctValuesUdf));
    engine.register_table_udf(Arc::new(AssignRecodeIdsUdf));
    engine.register_table_udf(Arc::new(RecodeDummyUdf {
        catalog: engine.weak_catalog(),
    }));
}

/// Result of a transformation run.
#[derive(Debug)]
pub struct TransformOutput {
    /// The fully transformed (recoded + coded) table.
    pub table: PartitionedTable,
    /// The recode map built (or reused) — cacheable per §5.2.
    pub recode_map: RecodeMap,
    /// Time spent building the recode map (zero when a cached map was
    /// supplied).
    pub map_build: Duration,
    /// Time spent in pass 2 (recoding + coding).
    pub apply: Duration,
}

/// Pass 1 of §2.1 over the table `input`: the parallel `distinct_values`
/// scan of the columns at `columns` (not empty; positions, as a
/// [`BoundSpec`] resolved them) merged by `SELECT DISTINCT ... ORDER BY`
/// into `pairs`, then numbered by `assign_recode_ids` into the `M` table
/// `map`.
pub fn recode_map_statements(
    input: &str,
    columns: &[usize],
    pairs: &str,
    map: &str,
) -> [String; 2] {
    let col_args = (columns.iter())
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    [
        format!(
            "CREATE TABLE {pairs} AS \
             SELECT DISTINCT colname, colval \
             FROM TABLE(distinct_values({input}, {col_args})) AS d \
             ORDER BY colname, colval"
        ),
        format!("CREATE TABLE {map} AS SELECT * FROM TABLE(assign_recode_ids({pairs})) AS m"),
    ]
}

/// Pass 2 over the table `input`: `recode_dummy` binds `spec` to its
/// input and transforms it through the `M` table `map`. Its arguments
/// after `map` are the number of `spec`'s recode columns (0: every
/// categorical one), those, then one `(column, coding)` pair per coded
/// column, the coding by [`Coding::name`].
pub fn recode_dummy_select(input: &str, map: &str, spec: &TransformSpec) -> String {
    let codings = (spec.coded_columns.iter()).flat_map(|(c, coding)| [c.as_str(), coding.name()]);
    let names = (spec.recode_columns.iter().map(String::as_str))
        .chain(codings)
        .map(|c| format!(", {}", sql_string_literal(c)))
        .collect::<String>();
    format!(
        "SELECT * FROM TABLE(recode_dummy({input}, {}, {}{names})) AS r",
        sql_string_literal(map),
        spec.recode_columns.len()
    )
}

static TEMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_name(tag: &str) -> String {
    format!(
        "__sqlml_{tag}_{}",
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// The recode map in the `M` table `name` of `catalog`.
pub fn read_recode_map(catalog: &Catalog, name: &str) -> Result<RecodeMap> {
    RecodeMap::from_batches(catalog.table(name)?.partitions())
}

/// Register `map` as the `M` table `name` (a cached §5.2 map).
pub fn register_recode_map(engine: &Engine, name: &str, map: &RecodeMap) {
    let table = PartitionedTable::from_batch(recode_map_schema(), map.to_batch());
    engine.register_table(name, table);
}

/// Runs the two passes' statements over one table of an engine,
/// temporaries dropped on every exit.
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

    /// Phase 1 of §2.1: build the recode map for `columns` of `table` with
    /// one parallel scan (the `distinct_values` UDF), a global
    /// `SELECT DISTINCT ... ORDER BY` merge, and the `assign_recode_ids`
    /// UDF.
    pub fn build_recode_map(&self, table: &str, columns: &[String]) -> Result<RecodeMap> {
        let schema = self.engine.catalog().table(table)?.schema().clone();
        let columns = (columns.iter())
            .map(|c| schema.resolve(c))
            .collect::<Result<Vec<_>>>()?;
        let map = temp_name("map");
        let built = self.pass_one(table, &columns, &map);
        let _ = self.engine.catalog().drop_table(&map);
        built
    }

    /// Run pass 1 over the columns at `columns` into the `M` table `map`
    /// and read it back.
    fn pass_one(&self, table: &str, columns: &[usize], map: &str) -> Result<RecodeMap> {
        if columns.is_empty() {
            return Ok(RecodeMap::default());
        }
        let pairs = temp_name("pairs");
        let ran = (recode_map_statements(table, columns, &pairs, map).iter())
            .try_for_each(|stmt| self.engine.execute(stmt).map(drop));
        let _ = self.engine.catalog().drop_table(&pairs);
        ran.and_then(|()| read_recode_map(self.engine.catalog(), map))
    }

    /// Full transformation with a freshly built recode map (two passes).
    pub fn transform(&self, table: &str, spec: &TransformSpec) -> Result<TransformOutput> {
        self.transform_via(table, spec, |map_table, bound| {
            let t0 = Instant::now();
            let columns: Vec<usize> = bound.recoded().map(|(at, _)| at).collect();
            Ok((self.pass_one(table, &columns, map_table)?, t0.elapsed()))
        })
    }

    /// Transformation reusing a cached recode map — §5.2: "we avoid one
    /// of the two passes". A value the map lacks is pass 2's `unseen
    /// value` error, as it is for a map built over the table.
    pub fn transform_with_map(
        &self,
        table: &str,
        spec: &TransformSpec,
        map: &RecodeMap,
    ) -> Result<TransformOutput> {
        self.transform_via(table, spec, |map_table, _| {
            register_recode_map(&self.engine, map_table, map);
            Ok((map.clone(), Duration::ZERO))
        })
    }

    /// `load` puts the recode map for the bound spec's recode columns into
    /// the `M` table it is handed; then pass 2 reads it.
    fn transform_via(
        &self,
        table: &str,
        spec: &TransformSpec,
        load: impl FnOnce(&str, &BoundSpec) -> Result<(RecodeMap, Duration)>,
    ) -> Result<TransformOutput> {
        let bound = spec.bind(self.engine.catalog().table(table)?.schema())?;
        let map_table = temp_name("map");
        let out = load(&map_table, &bound).and_then(|(recode_map, map_build)| {
            let t0 = Instant::now();
            let sql = recode_dummy_select(table, &map_table, spec);
            Ok(TransformOutput {
                table: self.engine.query(&sql)?,
                recode_map,
                map_build,
                apply: t0.elapsed(),
            })
        });
        let _ = self.engine.catalog().drop_table(&map_table);
        out
    }
}

/// Pass 2 as a registered table UDF (see [`recode_dummy_select`]). It
/// reads the map table through a [`Weak`] catalog handle: the catalog
/// holds this UDF, so a strong one would make the catalog own itself.
/// Each script names its own map table: concurrent transforms on one
/// engine share nothing.
struct RecodeDummyUdf {
    catalog: Weak<Catalog>,
}

impl RecodeDummyUdf {
    /// The one place the applier is built: the spec from its arguments,
    /// bound to the input schema, the map from the named table.
    fn applier(&self, input: &Schema, args: &[Value]) -> Result<FlatRecodeApplier> {
        let usage = || {
            let usage = "recode_dummy takes (table, map_table, n, n recode columns..., \
                         (coded column, coding) pairs...)";
            SqlmlError::Plan(usage.into())
        };
        let [map_table, n, names @ ..] = args else {
            return Err(usage());
        };
        let names = (names.iter())
            .map(|v| v.as_str().map(str::to_string))
            .collect::<Result<Vec<_>>>()?;
        let n = (usize::try_from(n.as_i64()?).ok())
            .filter(|&n| n <= names.len() && (names.len() - n) % 2 == 0)
            .ok_or_else(usage)?;
        let coded_columns = (names[n..].chunks(2))
            .map(|pair| Some((pair[0].clone(), Coding::parse(&pair[1])?)))
            .collect::<Option<_>>()
            .ok_or_else(usage)?;
        let spec = TransformSpec {
            recode_columns: names[..n].to_vec(),
            coded_columns,
        };
        let bound = spec.bind(input)?;
        // Nothing to recode (no categorical column): no map is read.
        let map = if bound.recoded().next().is_none() {
            RecodeMap::default()
        } else {
            let catalog = (self.catalog.upgrade())
                .ok_or_else(|| SqlmlError::Execution("recode_dummy outlived its engine".into()))?;
            read_recode_map(&catalog, map_table.as_str()?)?
        };
        FlatRecodeApplier::new(&map, &bound)
    }
}

impl TableUdf for RecodeDummyUdf {
    fn name(&self) -> &str {
        "recode_dummy"
    }

    fn output_schema(&self, input: &Schema, args: &[Value]) -> Result<Schema> {
        Ok(self.applier(input, args)?.output_schema().clone())
    }

    /// A statement runs the applier: the map table is read once, not
    /// once per partition.
    fn bind(&self, input: &Schema, args: &[Value]) -> Result<Option<Arc<dyn TableUdf>>> {
        Ok(Some(Arc::new(self.applier(input, args)?)))
    }

    fn execute(
        &self,
        input: &Batch,
        input_schema: &Schema,
        args: &[Value],
        _ctx: &PartitionCtx,
    ) -> Result<Batch> {
        self.applier(input_schema, args)?.apply_batch(input)
    }
}

/// `recode_dummy` bound to one statement.
impl TableUdf for FlatRecodeApplier {
    fn name(&self) -> &str {
        "recode_dummy"
    }

    fn output_schema(&self, _input: &Schema, _args: &[Value]) -> Result<Schema> {
        Ok(FlatRecodeApplier::output_schema(self).clone())
    }

    fn execute(
        &self,
        input: &Batch,
        _input_schema: &Schema,
        _args: &[Value],
        _ctx: &PartitionCtx,
    ) -> Result<Batch> {
        self.apply_batch(input)
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
            coded_columns: vec![("abandoned".into(), Coding::Dummy)],
        };
        assert!(tr.transform("t", &spec).is_err());
    }

    #[test]
    fn codings_travel_as_column_coding_pairs_and_a_malformed_tail_is_refused() {
        let e = engine_with_figure1();
        let tr = InSqlTransformer::new(e.clone());
        let spec = TransformSpec::coded(&[("gender", Coding::Helmert)]);
        let sql = recode_dummy_select("t", "m", &spec);
        assert!(sql.contains("'m', 0, 'gender', 'helmert')"), "{sql}");
        let out = tr.transform("t", &spec).unwrap();
        let names = ["age", "gender_orth1", "amount", "abandoned"];
        assert_eq!(out.table.schema().names(), names);

        register_recode_map(&e, "m", &out.recode_map);
        for tail in [
            "'gender'",
            "'gender', 'orthogonal'",
            "'gender', 'helmert', 'abandoned'",
        ] {
            let sql = format!(
                "SELECT * FROM TABLE(recode_dummy(t, 'm', 2, 'gender', 'abandoned', {tail})) AS r"
            );
            let err = e.query(&sql).unwrap_err().to_string();
            assert!(err.contains("recode_dummy takes"), "{tail}: {err}");
        }
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
