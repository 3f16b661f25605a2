//! Dummy coding / one-hot encoding (§2.2) as a standalone table UDF over
//! an already recoded column — the statement-per-step form the §4
//! rewriter's script uses. [`crate::InSqlTransformer`] does recoding and
//! dummy coding in one pass through [`crate::FlatRecodeApplier`] instead.

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{Result, Row, Schema, SqlmlError, Value};
use sqlml_sqlengine::udf::{PartitionCtx, TableUdf};
use sqlml_sqlengine::Batch;

/// Table UDF: `TABLE(dummy_code(t, 'col', 'val1', ..., 'valK'))`.
///
/// Expands the **already recoded** integer column `col` (values `1..=K`,
/// where code `i` corresponds to `val_i`) into `K` binary columns named
/// `col_val1 .. col_valK`, placed where `col` was. Runs per partition in
/// parallel — §2.2: "we only need a parallel table UDF that takes in the
/// number of distinct values ... and scans through each partition".
pub struct DummyCodeUdf;

/// Compute the expanded schema for dummy-coding `col` with value names.
fn expanded_schema(input: &Schema, col: &str, values: &[String]) -> Result<(usize, Schema)> {
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
    Ok((idx, Schema::new(fields)))
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
        Ok(expanded_schema(input, &col, &values)?.1)
    }

    fn execute(
        &self,
        input: &Batch,
        input_schema: &Schema,
        args: &[Value],
        _ctx: &PartitionCtx,
    ) -> Result<Batch> {
        let (col, values) = parse_args(args)?;
        let (idx, out_schema) = expanded_schema(input_schema, &col, &values)?;
        let k = values.len();
        let mut out = Vec::with_capacity(input.len());
        for r in &input.rows() {
            let mut vals = Vec::with_capacity(r.len() + k - 1);
            for (i, v) in r.values().iter().enumerate() {
                if i == idx {
                    let code = match v {
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
                    for j in 1..=k {
                        vals.push(Value::Int((j as i64 == code) as i64));
                    }
                } else {
                    vals.push(v.clone());
                }
            }
            out.push(Row::new(vals));
        }
        Ok(Batch::from_rows(&out_schema, &out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;

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
}
