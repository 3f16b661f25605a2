//! Effect coding and orthogonal (Helmert) coding — the "less common
//! transformations" the paper's §2 says "can be implemented in similar
//! ways as dummy coding".
//!
//! Both expand a recoded column with `K` levels into `K-1` contrast
//! columns:
//!
//! * **Effect coding**: level `i < K` gets indicator `+1` in column `i`;
//!   the reference level `K` gets `-1` in every column.
//! * **Helmert (orthogonal) coding**: contrast `j` (1-based, `j < K`)
//!   compares level `j+1` against the mean of levels `1..=j`:
//!   `c_j(i) = -1` for `i ≤ j`, `c_j(j+1) = j`, else `0`. The contrast
//!   columns are pairwise orthogonal over a balanced design.

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{Result, Schema, SqlmlError, Value};
use sqlml_sqlengine::udf::{PartitionCtx, TableUdf};
use sqlml_sqlengine::{Batch, Column};

use crate::dummy::{expand, splice};

/// The Helmert contrast matrix: `K` rows (levels) × `K-1` columns.
pub fn helmert_matrix(k: usize) -> Vec<Vec<f64>> {
    let mut m = vec![vec![0.0; k.saturating_sub(1)]; k];
    for j in 1..k {
        for (i, row) in m.iter_mut().enumerate() {
            let level = i + 1;
            row[j - 1] = if level <= j {
                -1.0
            } else if level == j + 1 {
                j as f64
            } else {
                0.0
            };
        }
    }
    m
}

/// The effect-coding matrix: `K` rows × `K-1` columns.
pub fn effect_matrix(k: usize) -> Vec<Vec<f64>> {
    let mut m = vec![vec![0.0; k.saturating_sub(1)]; k];
    for (i, row) in m.iter_mut().enumerate() {
        if i + 1 < k {
            row[i] = 1.0;
        } else {
            for c in row.iter_mut() {
                *c = -1.0;
            }
        }
    }
    m
}

fn parse_args(args: &[Value]) -> Result<(String, usize)> {
    if args.len() != 2 {
        return Err(SqlmlError::Plan(
            "contrast coding takes (column_name, cardinality)".into(),
        ));
    }
    let col = args[0].as_str()?.to_string();
    let k = args[1].as_i64()?;
    if k < 2 {
        return Err(SqlmlError::Plan(format!(
            "contrast coding needs cardinality >= 2, got {k}"
        )));
    }
    Ok((col, k as usize))
}

fn contrast_schema(input: &Schema, col: &str, k: usize, tag: &str) -> Result<Schema> {
    let idx = input.index_of(col)?;
    let mut fields = Vec::with_capacity(input.len() + k - 2);
    for (i, f) in input.fields().iter().enumerate() {
        if i == idx {
            for j in 1..k {
                fields.push(Field::new(format!("{}_{tag}{j}", f.name), DataType::Double));
            }
        } else {
            fields.push(f.clone());
        }
    }
    Ok(Schema::new(fields))
}

/// Expand the recoded column `col` into the `K-1` columns of `matrix`.
fn apply_matrix(
    input: &Batch,
    input_schema: &Schema,
    col: &str,
    k: usize,
    matrix: &[Vec<f64>],
) -> Result<Batch> {
    let idx = input_schema.index_of(col)?;
    let codes = input.column(idx);
    let levels = (0..input.len())
        .map(|i| {
            let code = codes.value(i).as_i64().map_err(|_| {
                SqlmlError::Type(format!("contrast coding: column {col:?} must be recoded"))
            })?;
            if code < 1 || code as usize > k {
                return Err(SqlmlError::Execution(format!(
                    "contrast coding: code {code} out of range 1..={k}"
                )));
            }
            Ok(Some(code as usize - 1))
        })
        .collect::<Result<Vec<_>>>()?;
    let contrasts = expand(&levels, k - 1, |l, j| matrix[l][j], Column::Double);
    Ok(splice(input, idx, contrasts))
}

/// Table UDF: `TABLE(effect_code(t, 'col', K))`.
pub struct EffectCodeUdf;

impl TableUdf for EffectCodeUdf {
    fn name(&self) -> &str {
        "effect_code"
    }

    fn output_schema(&self, input: &Schema, args: &[Value]) -> Result<Schema> {
        let (col, k) = parse_args(args)?;
        contrast_schema(input, &col, k, "eff")
    }

    fn execute(
        &self,
        input: &Batch,
        input_schema: &Schema,
        args: &[Value],
        _ctx: &PartitionCtx,
    ) -> Result<Batch> {
        let (col, k) = parse_args(args)?;
        apply_matrix(input, input_schema, &col, k, &effect_matrix(k))
    }
}

/// Table UDF: `TABLE(orthogonal_code(t, 'col', K))` (Helmert contrasts).
pub struct OrthogonalCodeUdf;

impl TableUdf for OrthogonalCodeUdf {
    fn name(&self) -> &str {
        "orthogonal_code"
    }

    fn output_schema(&self, input: &Schema, args: &[Value]) -> Result<Schema> {
        let (col, k) = parse_args(args)?;
        contrast_schema(input, &col, k, "orth")
    }

    fn execute(
        &self,
        input: &Batch,
        input_schema: &Schema,
        args: &[Value],
        _ctx: &PartitionCtx,
    ) -> Result<Batch> {
        let (col, k) = parse_args(args)?;
        apply_matrix(input, input_schema, &col, k, &helmert_matrix(k))
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

    #[test]
    fn helmert_columns_are_pairwise_orthogonal() {
        for k in 2..=6 {
            let m = helmert_matrix(k);
            for a in 0..k - 1 {
                for b in 0..k - 1 {
                    let dot: f64 = (0..k).map(|i| m[i][a] * m[i][b]).sum();
                    if a == b {
                        assert!(dot > 0.0);
                    } else {
                        assert!(dot.abs() < 1e-12, "k={k} cols {a},{b} dot={dot}");
                    }
                }
            }
            // Every contrast sums to zero over a balanced design.
            for j in 0..k - 1 {
                let s: f64 = m.iter().map(|row| row[j]).sum();
                assert!(s.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn effect_matrix_reference_level_is_minus_one() {
        let m = effect_matrix(3);
        assert_eq!(m[0], vec![1.0, 0.0]);
        assert_eq!(m[1], vec![0.0, 1.0]);
        assert_eq!(m[2], vec![-1.0, -1.0]);
    }

    #[test]
    fn effect_code_udf_expands_rows() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("cat", DataType::Int),
        ]);
        let rows = vec![row![10i64, 1i64], row![20i64, 3i64]];
        let args = vec![Value::Str("cat".into()), Value::Int(3)];
        let out = run(&EffectCodeUdf, &rows, &schema, &args).unwrap();
        assert_eq!(out[0], row![10i64, 1.0, 0.0]);
        assert_eq!(out[1], row![20i64, -1.0, -1.0]);
        let s = EffectCodeUdf.output_schema(&schema, &args).unwrap();
        assert_eq!(s.names(), vec!["x", "cat_eff1", "cat_eff2"]);
    }

    #[test]
    fn orthogonal_code_udf_expands_rows() {
        let schema = Schema::new(vec![Field::new("cat", DataType::Int)]);
        let rows = vec![row![2i64]];
        let args = vec![Value::Str("cat".into()), Value::Int(3)];
        let out = run(&OrthogonalCodeUdf, &rows, &schema, &args).unwrap();
        // Level 2 of Helmert(3): contrast1 = 1, contrast2 = -1.
        assert_eq!(out[0], row![1.0, -1.0]);
    }

    #[test]
    fn bad_args_are_rejected() {
        let schema = Schema::new(vec![Field::new("cat", DataType::Int)]);
        assert!(EffectCodeUdf
            .output_schema(&schema, &[Value::Str("cat".into()), Value::Int(1)])
            .is_err());
        assert!(EffectCodeUdf.output_schema(&schema, &[]).is_err());
        let rows = vec![row![9i64]];
        assert!(run(
            &EffectCodeUdf,
            &rows,
            &schema,
            &[Value::Str("cat".into()), Value::Int(3)]
        )
        .is_err());
    }
}
