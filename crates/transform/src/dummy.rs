//! Dummy coding / one-hot encoding (§2.2) as a standalone table UDF over
//! an already recoded column — the statement-per-step form the §4
//! rewriter's script uses. [`crate::InSqlTransformer`] does recoding and
//! dummy coding in one pass through [`crate::FlatRecodeApplier`] instead.
//! Both, and the effect / Helmert UDFs, expand a column through this
//! module's one expansion kernel.

use std::sync::Arc;

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{Result, Schema, SqlmlError, Value};
use sqlml_sqlengine::column::{Column, Prim};
use sqlml_sqlengine::udf::{PartitionCtx, TableUdf};
use sqlml_sqlengine::Batch;

/// The one expansion kernel: one categorical column as `w` columns read
/// off a `K × w` level table. A row at level `l` (0-based) holds
/// `level(l, j)` in output column `j`; a row with no level (a NULL, or
/// dummy coding's code 0) holds `T::default()` in all of them. Dummy
/// coding's table is the `Int` identity, effect and Helmert coding's are
/// their `Double` contrast matrices.
pub(crate) fn expand<T: Copy + Default>(
    levels: &[Option<usize>],
    w: usize,
    level: impl Fn(usize, usize) -> T,
    column: fn(Prim<T>) -> Column,
) -> Vec<Arc<Column>> {
    (0..w)
        .map(|j| {
            let values = (levels.iter())
                .map(|l| l.map_or_else(T::default, |l| level(l, j)))
                .collect();
            Arc::new(column(Prim::new(values, None)))
        })
        .collect()
}

/// `input` with column `idx` replaced by `expanded`; every other column
/// is the input's, shared.
pub(crate) fn splice(input: &Batch, idx: usize, expanded: Vec<Arc<Column>>) -> Batch {
    let mut columns = input.columns().to_vec();
    columns.splice(idx..=idx, expanded);
    Batch::new(columns, input.len())
}

/// Table UDF: `TABLE(dummy_code(t, 'col', 'val1', ..., 'valK'))`.
///
/// Expands the **already recoded** integer column `col` (values `1..=K`,
/// where code `i` corresponds to `val_i`) into `K` binary columns named
/// `col_val1 .. col_valK`, placed where `col` was. Runs per partition in
/// parallel — §2.2: "we only need a parallel table UDF that takes in the
/// number of distinct values ... and scans through each partition".
pub struct DummyCodeUdf;

/// Compute the expanded schema for dummy-coding `col` with value names.
fn expanded_schema(input: &Schema, col: &str, values: &[String]) -> Result<Schema> {
    let idx = input.index_of(col)?;
    let mut fields = Vec::with_capacity(input.len() + values.len() - 1);
    for (i, f) in input.fields().iter().enumerate() {
        if i == idx {
            for v in values {
                fields.push(Field::new(
                    crate::apply::indicator_name(&f.name, v),
                    DataType::Int,
                ));
            }
        } else {
            fields.push(f.clone());
        }
    }
    Ok(Schema::new(fields))
}

fn parse_args(args: &[Value]) -> Result<(String, Vec<String>)> {
    if args.len() < 2 {
        return Err(SqlmlError::Plan(
            "dummy_code needs a column name plus its K value names (or the cardinality K)".into(),
        ));
    }
    let col = args[0].as_str()?.to_string();
    // Two invocation forms: value names (`dummy_code(t, 'gender', 'F',
    // 'M')` — indicator columns named after the values) or just the
    // cardinality (`dummy_code(t, 'gender', 2)` — generic names `1..K`,
    // usable in statically generated rewrite scripts where the recode
    // map is not known yet).
    if args.len() == 2 {
        if let Value::Int(k) = args[1] {
            if k < 1 {
                return Err(SqlmlError::Plan(format!(
                    "dummy_code cardinality must be >= 1, got {k}"
                )));
            }
            return Ok((col, (1..=k).map(|i| i.to_string()).collect()));
        }
    }
    let values = args[1..]
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Result<Vec<_>>>()?;
    Ok((col, values))
}

impl TableUdf for DummyCodeUdf {
    fn name(&self) -> &str {
        "dummy_code"
    }

    fn output_schema(&self, input: &Schema, args: &[Value]) -> Result<Schema> {
        let (col, values) = parse_args(args)?;
        expanded_schema(input, &col, &values)
    }

    fn execute(
        &self,
        input: &Batch,
        input_schema: &Schema,
        args: &[Value],
        _ctx: &PartitionCtx,
    ) -> Result<Batch> {
        let (col, values) = parse_args(args)?;
        let idx = input_schema.index_of(&col)?;
        let k = values.len();
        let codes = input.column(idx);
        let levels = (0..input.len())
            .map(|i| {
                let code = match codes.value(i) {
                    Value::Null => 0, // NULL → all-zero indicator block
                    other => other.as_i64().map_err(|_| {
                        SqlmlError::Type(format!(
                            "dummy_code: column {col:?} must be recoded to integers first, \
                             found {other}"
                        ))
                    })?,
                };
                if code < 0 || code as usize > k {
                    return Err(SqlmlError::Execution(format!(
                        "dummy_code: code {code} out of range 1..={k} for column {col:?}"
                    )));
                }
                Ok(usize::try_from(code - 1).ok())
            })
            .collect::<Result<Vec<_>>>()?;
        let indicators = expand(&levels, k, |l, j| i64::from(l == j), Column::Int);
        Ok(splice(input, idx, indicators))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::{row, Row};

    /// `udf` over `rows` as one partition, back as rows.
    fn run(udf: &dyn TableUdf, rows: &[Row], schema: &Schema, args: &[Value]) -> Result<Vec<Row>> {
        let out = udf.execute(&Batch::from_rows(schema, rows), schema, args, &ctx())?;
        Ok(out.rows())
    }

    fn ctx() -> PartitionCtx {
        PartitionCtx {
            partition: 0,
            num_partitions: 1,
            worker: 0,
            num_workers: 1,
            node: "node-0".into(),
        }
    }

    fn recoded_schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("gender", DataType::Int),
            Field::new("amount", DataType::Double),
            Field::new("abandoned", DataType::Int),
        ])
    }

    fn args() -> Vec<Value> {
        vec![
            Value::Str("gender".into()),
            Value::Str("F".into()),
            Value::Str("M".into()),
        ]
    }

    #[test]
    fn reproduces_figure_1c() {
        // Figure 1(b) -> 1(c): gender 1/2 becomes female/male indicators.
        let rows = vec![
            row![57i64, 1i64, 103.25, 1i64],
            row![40i64, 2i64, 35.8, 1i64],
            row![35i64, 1i64, 48.9, 2i64],
        ];
        let out = run(&DummyCodeUdf, &rows, &recoded_schema(), &args()).unwrap();
        assert_eq!(out[0], row![57i64, 1i64, 0i64, 103.25, 1i64]);
        assert_eq!(out[1], row![40i64, 0i64, 1i64, 35.8, 1i64]);
        assert_eq!(out[2], row![35i64, 1i64, 0i64, 48.9, 2i64]);
    }

    #[test]
    fn schema_expansion_names_and_positions() {
        let s = DummyCodeUdf
            .output_schema(&recoded_schema(), &args())
            .unwrap();
        assert_eq!(
            s.names(),
            vec!["age", "gender_F", "gender_M", "amount", "abandoned"]
        );
        assert_eq!(s.field(1).data_type, DataType::Int);
    }

    #[test]
    fn exactly_one_hot_per_row() {
        let rows: Vec<Row> = (1..=2).map(|c| row![0i64, c as i64, 0.0, 1i64]).collect();
        let out = run(&DummyCodeUdf, &rows, &recoded_schema(), &args()).unwrap();
        for r in &out {
            let ones = r.get(1).as_i64().unwrap() + r.get(2).as_i64().unwrap();
            assert_eq!(ones, 1);
        }
    }

    #[test]
    fn null_becomes_all_zero_block() {
        let rows = vec![Row::new(vec![
            Value::Int(1),
            Value::Null,
            Value::Double(0.0),
            Value::Int(1),
        ])];
        let out = run(&DummyCodeUdf, &rows, &recoded_schema(), &args()).unwrap();
        assert_eq!(out[0].get(1), &Value::Int(0));
        assert_eq!(out[0].get(2), &Value::Int(0));
    }

    #[test]
    fn out_of_range_code_and_unrecoded_strings_error() {
        let rows = vec![row![0i64, 3i64, 0.0, 1i64]];
        assert!(run(&DummyCodeUdf, &rows, &recoded_schema(), &args()).is_err());
        let s = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::new("amount", DataType::Double),
            Field::new("abandoned", DataType::Int),
        ]);
        let rows = vec![row![0i64, "F", 0.0, 1i64]];
        assert!(run(&DummyCodeUdf, &rows, &s, &args()).is_err());
    }

    #[test]
    fn cardinality_form_uses_generic_names() {
        let args = vec![Value::Str("gender".into()), Value::Int(2)];
        let s = DummyCodeUdf
            .output_schema(&recoded_schema(), &args)
            .unwrap();
        assert_eq!(
            s.names(),
            vec!["age", "gender_1", "gender_2", "amount", "abandoned"]
        );
        let rows = vec![row![1i64, 2i64, 0.0, 1i64]];
        let out = run(&DummyCodeUdf, &rows, &recoded_schema(), &args).unwrap();
        assert_eq!(out[0], row![1i64, 0i64, 1i64, 0.0, 1i64]);
        assert!(DummyCodeUdf
            .output_schema(
                &recoded_schema(),
                &[Value::Str("gender".into()), Value::Int(0)]
            )
            .is_err());
    }

    #[test]
    fn value_names_are_sanitized() {
        let s = DummyCodeUdf
            .output_schema(
                &recoded_schema(),
                &[
                    Value::Str("gender".into()),
                    Value::Str("not known".into()),
                    Value::Str("f/m".into()),
                ],
            )
            .unwrap();
        assert!(s.names().contains(&"gender_not_known".to_string()));
        assert!(s.names().contains(&"gender_f_m".to_string()));
    }

    #[test]
    fn every_expansion_udf_shares_its_pass_through_columns() {
        use crate::effect::{EffectCodeUdf, OrthogonalCodeUdf};
        let input = Batch::from_rows(&recoded_schema(), &[row![57i64, 2i64, 103.25, 1i64]]);
        let k2 = [Value::Str("gender".into()), Value::Int(2)];
        for udf in [
            &DummyCodeUdf as &dyn TableUdf,
            &EffectCodeUdf,
            &OrthogonalCodeUdf,
        ] {
            let out = udf.execute(&input, &recoded_schema(), &k2, &ctx()).unwrap();
            // age, <gender expanded to w columns>, amount, abandoned.
            let w = out.width() - 3;
            for (o, i) in [(0, 0), (w + 1, 2), (w + 2, 3)] {
                let shared = Arc::ptr_eq(out.column(o), input.column(i));
                assert!(shared, "{}: column {i}", udf.name());
            }
        }
    }
}
