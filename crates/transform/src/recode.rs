//! Recoding of categorical variables (§2.1).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{Result, Row, Schema, SqlmlError, Value};
use sqlml_sqlengine::column::{DictionaryColumn, Prim, NULL_CODE};
use sqlml_sqlengine::udf::{PartitionCtx, TableUdf};
use sqlml_sqlengine::{Batch, Column};

/// The recode-map table layout: `(colname, colval, recodeval)` — the
/// paper's `M` table.
pub fn recode_map_schema() -> Schema {
    Schema::new(vec![
        Field::new("colname", DataType::Str),
        Field::new("colval", DataType::Str),
        Field::new("recodeval", DataType::Int),
    ])
}

/// The distinct-pairs layout produced by phase 1: `(colname, colval)`.
pub fn distinct_pairs_schema() -> Schema {
    Schema::new(vec![
        Field::new("colname", DataType::Str),
        Field::new("colval", DataType::Str),
    ])
}

/// A recode map: per categorical column, the sorted, deduplicated values;
/// a value's code is its position + 1. Codes are therefore a bijection
/// onto `1..=K`, consecutive from 1 in value order, by construction — the
/// map is deterministic under any partitioning.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecodeMap {
    columns: BTreeMap<String, Vec<String>>,
}

/// The position of `value` in a column's sorted values (its code − 1).
pub(crate) fn level_of(values: &[String], value: &str) -> Option<usize> {
    values.binary_search_by(|v| v.as_str().cmp(value)).ok()
}

impl RecodeMap {
    /// Build from (column, value) pairs; values are sorted per column and
    /// assigned consecutive codes from 1.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, String)>) -> Self {
        let mut columns: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (c, v) in pairs {
            columns.entry(c).or_default().push(v);
        }
        for values in columns.values_mut() {
            values.sort_unstable();
            values.dedup();
        }
        RecodeMap { columns }
    }

    /// Build directly from a table by scanning the named categorical
    /// columns — the centralized one-pass algorithm the paper describes
    /// for a single machine. Used as the reference in tests.
    pub fn from_table_scan(
        partitions: &[Batch],
        schema: &Schema,
        columns: &[String],
    ) -> Result<RecodeMap> {
        let mut pairs = Vec::new();
        for col in columns {
            let idx = schema.resolve(col)?;
            for part in partitions {
                for i in 0..part.len() {
                    if let Value::Str(s) = part.column(idx).value(i) {
                        pairs.push((col.clone(), s.to_string()));
                    }
                }
            }
        }
        Ok(RecodeMap::from_pairs(pairs))
    }

    /// The code for a value of a column.
    pub fn code(&self, column: &str, value: &str) -> Option<i64> {
        level_of(self.columns.get(column)?, value).map(|l| l as i64 + 1)
    }

    /// Number of distinct values of a column (0 if unknown).
    pub fn cardinality(&self, column: &str) -> usize {
        self.values_in_code_order(column).len()
    }

    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(|s| s.as_str())
    }

    pub fn has_column(&self, column: &str) -> bool {
        self.columns.contains_key(column)
    }

    /// The values of a column in code order (code 1 first) — sorted.
    pub fn values_in_code_order(&self, column: &str) -> &[String] {
        self.columns.get(column).map_or(&[], Vec::as_slice)
    }

    /// The `M` table as one batch of its three columns
    /// ([`recode_map_schema`]): per column in name order, its values in
    /// code order.
    pub fn to_batch(&self) -> Batch {
        let len = self.columns.values().map(Vec::len).sum();
        let names: Vec<Arc<str>> = self.columns.keys().map(|c| Arc::from(c.as_str())).collect();
        let (mut name_codes, mut value_codes, mut codes) = (
            Vec::with_capacity(len),
            Vec::with_capacity(len),
            Vec::with_capacity(len),
        );
        // Two columns may share a value; the dictionary holds it once. (A
        // map past `u32` distinct values would write NULLs, which
        // `from_batches` refuses.)
        let mut dict: Vec<Arc<str>> = Vec::new();
        let mut index: HashMap<&str, u32> = HashMap::new();
        for (name, values) in (0u32..).zip(self.columns.values()) {
            for (code, v) in (1i64..).zip(values) {
                let at = *index.entry(v.as_str()).or_insert_with(|| {
                    dict.push(Arc::from(v.as_str()));
                    u32::try_from(dict.len() - 1).unwrap_or(NULL_CODE)
                });
                name_codes.push(name);
                value_codes.push(at);
                codes.push(code);
            }
        }
        let strings =
            |codes, dict| Arc::new(Column::Str(DictionaryColumn::new(codes, Arc::new(dict))));
        let columns = vec![
            strings(name_codes, names),
            strings(value_codes, dict),
            Arc::new(Column::Int(Prim::new(codes, None))),
        ];
        Batch::new(columns, len)
    }

    /// Parse the `M` table's partitions, read column by column. Per
    /// column the codes must be exactly `1..=K` and follow value order —
    /// a table that would need renumbering to fit is an error, not
    /// silently a different map.
    pub fn from_batches(parts: &[Batch]) -> Result<RecodeMap> {
        let mut coded: BTreeMap<&str, Vec<(i64, &str)>> = BTreeMap::new();
        for part in parts {
            if part.width() != 3 {
                return Err(SqlmlError::Execution(
                    "recode map rows must have 3 columns".into(),
                ));
            }
            let [names, values, codes] = [0, 1, 2].map(|c| &**part.column(c));
            for i in 0..part.len() {
                let entry = (int_cell(codes, i)?, str_cell(values, i)?);
                coded.entry(str_cell(names, i)?).or_default().push(entry);
            }
        }
        let mut columns = BTreeMap::new();
        for (c, mut entries) in coded {
            entries.sort_unstable();
            let consecutive = (1i64..).zip(&entries).all(|(k, (code, _))| *code == k);
            let ascending = entries.windows(2).all(|w| w[0].1 < w[1].1);
            if !consecutive || !ascending {
                return Err(SqlmlError::Execution(format!(
                    "recode map for {c:?} is not consecutive-from-1 in value order: {entries:?}"
                )));
            }
            let values = entries.into_iter().map(|(_, v)| v.to_string()).collect();
            columns.insert(c.to_string(), values);
        }
        Ok(RecodeMap { columns })
    }
}

/// Phase-1 table UDF: `TABLE(distinct_values(t, 'col1', 'col2', ...))`.
///
/// Runs once per partition in parallel, emitting the partition-local
/// distinct `(colname, colval)` pairs of every requested column — one
/// scan of the data computes the distincts for *all* columns, which §2.1
/// argues is the advantage over issuing one `SELECT DISTINCT` per column.
/// A column is named (resolved by [`Schema::resolve`]) or given by its
/// position, as the pipeline's statements give the columns a bound spec
/// resolved; its pairs carry its name as the schema spells it.
pub struct DistinctValuesUdf;

impl TableUdf for DistinctValuesUdf {
    fn name(&self) -> &str {
        "distinct_values"
    }

    fn output_schema(&self, _input: &Schema, args: &[Value]) -> Result<Schema> {
        if args.is_empty() {
            return Err(SqlmlError::Plan(
                "distinct_values needs at least one column name".into(),
            ));
        }
        Ok(distinct_pairs_schema())
    }

    fn execute(
        &self,
        input: &Batch,
        input_schema: &Schema,
        args: &[Value],
        _ctx: &PartitionCtx,
    ) -> Result<Batch> {
        let mut out = Vec::new();
        for a in args {
            let at = match a {
                Value::Int(at) => (usize::try_from(*at).ok())
                    .filter(|&at| at < input_schema.len())
                    .ok_or_else(|| {
                        SqlmlError::Plan(format!("distinct_values: no column at position {at}"))
                    })?,
                name => input_schema.resolve(name.as_str()?)?,
            };
            let name: Arc<str> = input_schema.field(at).name.as_str().into();
            let pair = |value: &Arc<str>| {
                Row::new(vec![Value::Str(name.clone()), Value::Str(value.clone())])
            };
            match &**input.column(at) {
                // The dictionary entries the partition's codes actually
                // reference: a value the prep predicates removed is still
                // in the (shared) dictionary but must get no recode id
                // (§2.1: "recoding needs to be done on filtered data").
                Column::Str(d) => out.extend(d.referenced_entries().into_iter().map(pair)),
                other => {
                    let mut seen = std::collections::HashSet::new();
                    for i in 0..other.len() {
                        match other.value(i) {
                            Value::Str(s) => {
                                if seen.insert(s.clone()) {
                                    out.push(pair(&s));
                                }
                            }
                            Value::Null => {} // NULLs are not recoded.
                            v => {
                                return Err(SqlmlError::Type(format!(
                                    "distinct_values: column {name:?} holds non-string {v}"
                                )))
                            }
                        }
                    }
                }
            }
        }
        Ok(Batch::from_rows(&distinct_pairs_schema(), &out))
    }
}

/// Phase-1.5 table UDF: `TABLE(assign_recode_ids(d))` where `d` is the
/// *globally deduplicated, sorted* `(colname, colval)` table gathered
/// into a single partition (the pipeline produces it with
/// `SELECT DISTINCT ... ORDER BY colname, colval`). Assigns consecutive
/// codes from 1 per column: the two string columns are returned as they
/// came, shared, beside one new `Int` code column.
pub struct AssignRecodeIdsUdf;

impl TableUdf for AssignRecodeIdsUdf {
    fn name(&self) -> &str {
        "assign_recode_ids"
    }

    fn output_schema(&self, input: &Schema, _args: &[Value]) -> Result<Schema> {
        if input.len() != 2 {
            return Err(SqlmlError::Plan(
                "assign_recode_ids expects a (colname, colval) input".into(),
            ));
        }
        Ok(recode_map_schema())
    }

    fn execute(
        &self,
        input: &Batch,
        _input_schema: &Schema,
        _args: &[Value],
        ctx: &PartitionCtx,
    ) -> Result<Batch> {
        // Code assignment is global: the input must be gathered.
        if ctx.num_partitions != 1 && !input.is_empty() {
            return Err(SqlmlError::Execution(
                "assign_recode_ids requires a single-partition (gathered) input; \
                 use ORDER BY to gather the distinct pairs first"
                    .into(),
            ));
        }
        let (names, values) = (input.column(0), input.column(1));
        let mut codes: Vec<i64> = Vec::with_capacity(input.len());
        let mut prev: Option<(&str, &str)> = None;
        for i in 0..input.len() {
            let (name, value) = (str_cell(names, i)?, str_cell(values, i)?);
            let code = match prev {
                Some((prev_name, prev_value)) if prev_name == name => {
                    if prev_value >= value {
                        return Err(SqlmlError::Execution(
                            "assign_recode_ids input must be sorted by (colname, colval) \
                             with no duplicates"
                                .into(),
                        ));
                    }
                    codes[i - 1] + 1
                }
                _ => 1,
            };
            codes.push(code);
            prev = Some((name, value));
        }
        let codes = Column::Int(Prim::new(codes, None));
        let columns = vec![Arc::clone(names), Arc::clone(values), Arc::new(codes)];
        Ok(Batch::new(columns, input.len()))
    }
}

/// Row `i` of a `(colname, colval)` column as a string, read in place;
/// a NULL or non-string cell is the `Type` error [`Value::as_str`]
/// raises for it.
fn str_cell(column: &Column, i: usize) -> Result<&str> {
    match column {
        Column::Str(d) => d.value(i).map(|s| &**s),
        Column::Mixed(cells) => return cells[i].as_str(),
        _ => None,
    }
    .ok_or_else(|| SqlmlError::Type(format!("cannot interpret {} as a string", column.value(i))))
}

/// Row `i` of the `M` table's code column as an integer, read in place;
/// any other cell is what [`Value::as_i64`] makes of it.
fn int_cell(column: &Column, i: usize) -> Result<i64> {
    match column {
        Column::Int(p) if p.is_valid(i) => Ok(p.values()[i]),
        _ => column.value(i).as_i64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_sqlengine::{Engine, EngineConfig, PartitionedTable};

    #[test]
    fn from_pairs_assigns_sorted_consecutive_codes() {
        let m = RecodeMap::from_pairs(vec![
            ("gender".into(), "M".into()),
            ("gender".into(), "F".into()),
            ("gender".into(), "M".into()),
            ("abandoned".into(), "Yes".into()),
            ("abandoned".into(), "No".into()),
        ]);
        assert_eq!(m.code("gender", "F"), Some(1));
        assert_eq!(m.code("gender", "M"), Some(2));
        assert_eq!(m.code("abandoned", "No"), Some(1));
        assert_eq!(m.code("abandoned", "Yes"), Some(2));
        assert_eq!(m.cardinality("gender"), 2);
        assert_eq!(m.code("gender", "X"), None);
    }

    #[test]
    fn columns_round_trip() {
        let m = RecodeMap::from_pairs(vec![
            ("c".into(), "a".into()),
            ("c".into(), "b".into()),
            ("d".into(), "a".into()),
            ("d".into(), "z".into()),
        ]);
        let batch = m.to_batch();
        assert_eq!(
            batch.rows(),
            [
                row!["c", "a", 1i64],
                row!["c", "b", 2i64],
                row!["d", "a", 1i64],
                row!["d", "z", 2i64]
            ]
        );
        // `a` is one dictionary entry, shared by both columns.
        let Column::Str(values) = &**batch.column(1) else {
            panic!("colval is not a string column");
        };
        assert_eq!(values.entries().len(), 3);
        assert_eq!(RecodeMap::from_batches(&[batch]).unwrap(), m);
        assert_eq!(RecodeMap::default().to_batch().len(), 0);
    }

    #[test]
    fn from_batches_rejects_codes_that_are_not_consecutive_in_value_order() {
        let table = |entries: &[(&str, i64)]| -> Vec<Batch> {
            let rows: Vec<Row> = (entries.iter())
                .map(|&(value, code)| row!["c", value, code])
                .collect();
            // One row per partition: a check must not depend on where
            // the rows landed.
            let one = |r: &Row| Batch::from_rows(&recode_map_schema(), std::slice::from_ref(r));
            rows.iter().map(one).collect()
        };
        // Rows in any order parse to the same map.
        let ok = RecodeMap::from_batches(&table(&[("b", 2), ("a", 1)])).unwrap();
        assert_eq!(ok.values_in_code_order("c"), ["a", "b"]);
        for (what, bad) in [
            ("a skipped code", table(&[("a", 1), ("b", 3)])),
            ("a repeated code", table(&[("a", 1), ("b", 1)])),
            ("a repeated value", table(&[("a", 1), ("a", 2)])),
            // Codes 1..=K, but b=1 and a=2: sorted storage would renumber.
            ("codes out of value order", table(&[("b", 1), ("a", 2)])),
        ] {
            let err = RecodeMap::from_batches(&bad).err().map(|e| e.to_string());
            assert!(
                err.as_deref()
                    .is_some_and(|e| e.contains("not consecutive-from-1 in value order")),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn from_batches_rejects_a_table_that_is_not_three_typed_columns() {
        let two = Schema::new(vec![
            Field::categorical("colname"),
            Field::categorical("colval"),
        ]);
        let err = RecodeMap::from_batches(&[Batch::from_rows(&two, &[row!["c", "a"]])]);
        let err = err.err().map(|e| e.to_string()).unwrap_or_default();
        assert!(err.contains("must have 3 columns"), "{err}");
        for bad in [
            row![7i64, "a", 1i64],
            row!["c", 7i64, 1i64],
            row!["c", "a", "one"],
            Row::new(vec![Value::Null, Value::str("a"), Value::Int(1)]),
            Row::new(vec![Value::str("c"), Value::Null, Value::Int(1)]),
            Row::new(vec![Value::str("c"), Value::str("a"), Value::Null]),
        ] {
            let batch = Batch::from_rows(&recode_map_schema(), std::slice::from_ref(&bad));
            let err = RecodeMap::from_batches(&[batch])
                .err()
                .map(|e| e.to_string());
            assert!(err.is_some_and(|e| e.contains("cannot interpret")), "{bad}");
        }
    }

    #[test]
    fn values_in_code_order() {
        let m = RecodeMap::from_pairs(vec![
            ("c".into(), "beta".into()),
            ("c".into(), "alpha".into()),
            ("c".into(), "gamma".into()),
        ]);
        assert_eq!(m.values_in_code_order("c"), vec!["alpha", "beta", "gamma"]);
        assert!(m.values_in_code_order("missing").is_empty());
    }

    #[test]
    fn distinct_values_udf_scans_all_columns_in_one_pass() {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::categorical("abandoned"),
        ]);
        let rows = vec![
            row![57i64, "F", "Yes"],
            row![40i64, "M", "Yes"],
            row![35i64, "F", "No"],
        ];
        let ctx = PartitionCtx {
            partition: 0,
            num_partitions: 1,
            worker: 0,
            num_workers: 1,
            node: "node-0".into(),
        };
        let batch = Batch::from_rows(&schema, &rows);
        // By name in any case, or by position: the pairs carry the
        // schema's spelling.
        for args in [
            [Value::Str("gender".into()), Value::Str("abandoned".into())],
            [Value::Str("GENDER".into()), Value::Str("Abandoned".into())],
            [Value::Int(1), Value::Int(2)],
        ] {
            let out = DistinctValuesUdf.execute(&batch, &schema, &args, &ctx);
            let mut pairs: Vec<(String, String)> = (out.unwrap().rows().iter())
                .map(|r| {
                    (
                        r.get(0).as_str().unwrap().to_string(),
                        r.get(1).as_str().unwrap().to_string(),
                    )
                })
                .collect();
            pairs.sort();
            assert_eq!(
                pairs,
                vec![
                    ("abandoned".to_string(), "No".to_string()),
                    ("abandoned".to_string(), "Yes".to_string()),
                    ("gender".to_string(), "F".to_string()),
                    ("gender".to_string(), "M".to_string()),
                ],
                "{args:?}"
            );
        }
        for bad in [Value::Int(3), Value::Int(-1), Value::Str("country".into())] {
            let err = DistinctValuesUdf.execute(&batch, &schema, &[bad], &ctx);
            assert!(err.is_err());
        }
    }

    #[test]
    fn distinct_values_udf_skips_nulls_rejects_numbers() {
        let schema = Schema::new(vec![
            Field::categorical("g"),
            Field::new("n", DataType::Int),
        ]);
        let ctx = PartitionCtx {
            partition: 0,
            num_partitions: 1,
            worker: 0,
            num_workers: 1,
            node: "node-0".into(),
        };
        let rows = Batch::from_rows(&schema, &[Row::new(vec![Value::Null, Value::Int(1)])]);
        let out = DistinctValuesUdf
            .execute(&rows, &schema, &[Value::Str("g".into())], &ctx)
            .unwrap();
        assert!(out.is_empty());
        let bad = DistinctValuesUdf.execute(&rows, &schema, &[Value::Str("n".into())], &ctx);
        assert!(bad.is_err());
    }

    #[test]
    fn assign_ids_requires_sorted_gathered_input() {
        let ctx1 = PartitionCtx {
            partition: 0,
            num_partitions: 1,
            worker: 0,
            num_workers: 1,
            node: "node-0".into(),
        };
        let sorted = vec![
            row!["abandoned", "No"],
            row!["abandoned", "Yes"],
            row!["gender", "F"],
            row!["gender", "M"],
        ];
        let batch = |rows: &[Row]| Batch::from_rows(&distinct_pairs_schema(), rows);
        let input = batch(&sorted);
        let out = AssignRecodeIdsUdf
            .execute(&input, &distinct_pairs_schema(), &[], &ctx1)
            .unwrap();
        let m = RecodeMap::from_batches(std::slice::from_ref(&out)).unwrap();
        assert_eq!(m.code("gender", "F"), Some(1));
        assert_eq!(m.code("abandoned", "Yes"), Some(2));
        // The two string columns come back shared, not rebuilt.
        assert!(Arc::ptr_eq(out.column(0), input.column(0)));
        assert!(Arc::ptr_eq(out.column(1), input.column(1)));

        // Unsorted input is rejected.
        let unsorted = vec![row!["gender", "M"], row!["gender", "F"]];
        assert!(AssignRecodeIdsUdf
            .execute(&batch(&unsorted), &distinct_pairs_schema(), &[], &ctx1)
            .is_err());

        // Multi-partition non-empty input is rejected.
        let ctx2 = PartitionCtx {
            num_partitions: 2,
            ..ctx1
        };
        assert!(AssignRecodeIdsUdf
            .execute(&batch(&sorted), &distinct_pairs_schema(), &[], &ctx2)
            .is_err());
    }

    #[test]
    fn assign_ids_over_sql_refuses_a_scattered_or_unsorted_table() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        engine.register_table_udf(Arc::new(AssignRecodeIdsUdf));
        let refusal = |parts: Vec<Vec<Row>>| {
            let pairs = PartitionedTable::new(distinct_pairs_schema(), parts);
            engine.register_table("pairs", pairs);
            let sql = "SELECT * FROM TABLE(assign_recode_ids(pairs)) AS m";
            engine.query(sql).unwrap_err().to_string()
        };
        let err = refusal(vec![vec![row!["g", "F"]], vec![row!["g", "M"]]]);
        assert!(
            err.contains("requires a single-partition (gathered) input"),
            "{err}"
        );
        for unsorted in [
            [row!["g", "M"], row!["g", "F"]],
            [row!["g", "F"], row!["g", "F"]],
        ] {
            let err = refusal(vec![unsorted.to_vec()]);
            assert!(
                err.contains("sorted by (colname, colval) with no duplicates"),
                "{err}"
            );
        }
    }

    #[test]
    fn centralized_scan_matches_from_pairs() {
        let schema = Schema::new(vec![Field::categorical("g")]);
        let parts = [
            Batch::from_rows(&schema, &[row!["b"], row!["a"]]),
            Batch::from_rows(&schema, &[row!["c"], row!["a"]]),
        ];
        let m = RecodeMap::from_table_scan(&parts, &schema, &["g".to_string()]).unwrap();
        assert_eq!(m.code("g", "a"), Some(1));
        assert_eq!(m.code("g", "b"), Some(2));
        assert_eq!(m.code("g", "c"), Some(3));
    }
}
