//! Flat, index-resolved recode application — pass 2 of the transform,
//! shared by the In-SQL path and the naive baseline's external job.
//!
//! A [`FlatRecodeApplier`] resolves everything that is per-*column* —
//! which action applies, the column's sorted values in the
//! [`RecodeMap`], the dummy block width, the transformed schema —
//! exactly once, into a dense `Vec` indexed by column position. Over a
//! column batch ([`FlatRecodeApplier::apply_batch`]) a categorical
//! column's dictionary is resolved with one binary search per *entry*,
//! and the rows are a gather (recode) or the shared expansion kernel
//! (dummy) through the result.

use std::sync::Arc;

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{Result, Schema, SqlmlError, Value};
use sqlml_sqlengine::column::{Batch, Column, Prim};

use crate::dummy::expand;
use crate::pipeline::TransformSpec;
use crate::recode::{level_of, RecodeMap};

/// Per-column action, resolved from the spec + map at build time. A
/// categorical column carries its name and the map's sorted values (a
/// value's code is its position + 1).
enum ColumnAction<'m> {
    /// Not a transform target: share the column.
    Pass,
    /// Recode the string value to its integer code (NULL stays NULL).
    Recode { name: String, values: &'m [String] },
    /// Expand into one indicator column per value (NULL → all-zero block).
    Dummy { name: String, values: &'m [String] },
}

/// A recode/dummy applier with all per-column resolution done up front.
/// Build once per job, then call [`Self::apply_batch`] per partition. It
/// is also the single source of the transformed schema
/// ([`Self::output_schema`]).
pub struct FlatRecodeApplier<'m> {
    actions: Vec<ColumnAction<'m>>,
    out_schema: Schema,
}

/// Name of the indicator column for `value` of dummy-coded `column`:
/// `column_<value with every non-alphanumeric character as '_'>`. The
/// one naming rule: the §5.1 cache rewrite selects indicator columns by
/// it, so it cannot name one differently from the transform that
/// produced the cached table.
pub fn indicator_name(column: &str, value: &str) -> String {
    let safe: String = value
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{column}_{safe}")
}

impl<'m> FlatRecodeApplier<'m> {
    /// Resolve `spec` + `map` against `schema` into per-column actions.
    /// Fails when a recode column is not in `schema`, or a dummy-code
    /// column is not among the recoded columns or has no values in `map`
    /// (its block would silently vanish).
    pub fn new(
        map: &'m RecodeMap,
        schema: &Schema,
        spec: &TransformSpec,
    ) -> Result<FlatRecodeApplier<'m>> {
        let recode_columns = spec.effective_recode_columns(schema);
        let named_in =
            |list: &[String], name: &str| list.iter().any(|c| c.eq_ignore_ascii_case(name));
        for c in &recode_columns {
            schema.index_of(c)?;
        }
        for d in &spec.dummy_code_columns {
            if !named_in(&recode_columns, d) {
                return Err(SqlmlError::Plan(format!(
                    "dummy-code column {d:?} is not among the recoded columns"
                )));
            }
        }
        let mut actions = Vec::with_capacity(schema.len());
        let mut fields = Vec::with_capacity(schema.len());
        for f in schema.fields() {
            if !named_in(&recode_columns, &f.name) {
                actions.push(ColumnAction::Pass);
                fields.push(f.clone());
                continue;
            }
            let (name, values) = (f.name.clone(), map.values_in_code_order(&f.name));
            if named_in(&spec.dummy_code_columns, &f.name) {
                if values.is_empty() {
                    return Err(SqlmlError::Plan(format!(
                        "no recode map entries for dummy-code column {:?}",
                        f.name
                    )));
                }
                fields.extend(
                    values
                        .iter()
                        .map(|v| Field::new(indicator_name(&f.name, v), DataType::Int)),
                );
                actions.push(ColumnAction::Dummy { name, values });
            } else {
                fields.push(Field::new(f.name.clone(), DataType::Int));
                actions.push(ColumnAction::Recode { name, values });
            }
        }
        Ok(FlatRecodeApplier {
            actions,
            out_schema: Schema::new(fields),
        })
    }

    /// The transformed schema: untouched columns as they were, recoded
    /// columns as `Int`, each dummy-coded column replaced in place by its
    /// `Int` indicator columns `col_<sanitized value>` in code order.
    pub fn output_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Transform one partition column by column. A pass-through column
    /// is shared; a categorical column's dictionary is resolved to levels
    /// once, and the rows are a gather into one `Int` column of codes
    /// (recode) or `k` indicator columns from the identity level table
    /// (dummy). A NULL is a NULL code or an all-zero block; a value the
    /// map lacks is an `unseen value` error.
    pub fn apply_batch(&self, input: &Batch) -> Result<Batch> {
        let mut columns = Vec::with_capacity(self.out_schema.len());
        for (c, action) in self.actions.iter().enumerate() {
            match action {
                ColumnAction::Pass => columns.push(Arc::clone(input.column(c))),
                ColumnAction::Recode { name, values } => {
                    let levels = row_levels(input.column(c), values, name)?;
                    let valid = (levels.contains(&None))
                        .then(|| levels.iter().map(Option::is_some).collect());
                    let codes = (levels.iter())
                        .map(|l| l.map_or(0, |l| l as i64 + 1))
                        .collect();
                    columns.push(Arc::new(Column::Int(Prim::new(codes, valid))));
                }
                ColumnAction::Dummy { name, values } => {
                    let levels = row_levels(input.column(c), values, name)?;
                    let identity = |l, j| i64::from(l == j);
                    columns.extend(expand(&levels, values.len(), identity, Column::Int));
                }
            }
        }
        Ok(Batch::new(columns, input.len()))
    }
}

/// The level (code − 1) of every row of a categorical column (`None` for
/// NULL). A string column resolves its dictionary once — only entries a
/// row references can be "unseen" — and maps codes; any other column is
/// read cell by cell.
fn row_levels(col: &Column, values: &[String], name: &str) -> Result<Vec<Option<usize>>> {
    let Column::Str(d) = col else {
        return (0..col.len())
            .map(|i| level_of_cell(values, &col.value(i), name))
            .collect();
    };
    let by_code: Vec<Option<usize>> = (d.entries().iter()).map(|s| level_of(values, s)).collect();
    (d.codes().iter())
        .map(|&c| match by_code.get(c as usize) {
            None => Ok(None),
            Some(Some(l)) => Ok(Some(*l)),
            Some(None) => Err(unseen(&d.entries()[c as usize], name)),
        })
        .collect()
}

/// The level of one categorical cell: `None` for NULL.
fn level_of_cell(values: &[String], v: &Value, col: &str) -> Result<Option<usize>> {
    match v {
        Value::Null => Ok(None),
        Value::Str(s) => level_of(values, s).map(Some).ok_or_else(|| unseen(s, col)),
        other => Err(SqlmlError::Type(format!(
            "expected a categorical string in {col}, found {other}"
        ))),
    }
}

fn unseen(s: &str, col: &str) -> SqlmlError {
    SqlmlError::Execution(format!("unseen value {s:?} for {col}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::{row, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::categorical("abandoned"),
        ])
    }

    fn map() -> RecodeMap {
        RecodeMap::from_pairs(vec![
            ("gender".into(), "F".into()),
            ("gender".into(), "M".into()),
            ("abandoned".into(), "Yes".into()),
            ("abandoned".into(), "No".into()),
        ])
    }

    /// `a` over `rows` as one partition, back as rows.
    fn apply(a: &FlatRecodeApplier, rows: &[Row]) -> Result<Vec<Row>> {
        Ok(a.apply_batch(&Batch::from_rows(&schema(), rows))?.rows())
    }

    #[test]
    fn recode_matches_map_code() {
        let (m, spec) = (map(), TransformSpec::default());
        let a = FlatRecodeApplier::new(&m, &schema(), &spec).unwrap();
        let out = apply(&a, &[row![30i64, "F", "Yes"]]).unwrap();
        assert_eq!(out, [row![30i64, 1i64, 2i64]]);
        assert_eq!(a.output_schema().names(), ["age", "gender", "abandoned"]);
    }

    #[test]
    fn dummy_expansion_and_null_blocks() {
        let (m, spec) = (map(), TransformSpec::new(&["gender"]));
        let a = FlatRecodeApplier::new(&m, &schema(), &spec).unwrap();
        // F -> (1, 0); abandoned recodes. NULL gender -> all-zero block.
        let null_gender = Row::new(vec![Value::Int(30), Value::Null, Value::Str("No".into())]);
        let out = apply(&a, &[row![30i64, "F", "No"], null_gender]).unwrap();
        assert_eq!(
            out,
            [row![30i64, 1i64, 0i64, 1i64], row![30i64, 0i64, 0i64, 1i64]]
        );
        assert_eq!(
            a.output_schema().names(),
            ["age", "gender_F", "gender_M", "abandoned"]
        );
        assert!(a
            .output_schema()
            .fields()
            .iter()
            .all(|f| f.data_type == DataType::Int));
    }

    #[test]
    fn unseen_value_errors() {
        let (m, spec) = (map(), TransformSpec::default());
        let a = FlatRecodeApplier::new(&m, &schema(), &spec).unwrap();
        let err = apply(&a, &[row![30i64, "X", "Yes"]]).unwrap_err();
        assert!(err.to_string().contains("unseen value"), "{err}");
    }

    #[test]
    fn non_string_in_categorical_errors() {
        let (m, spec) = (map(), TransformSpec::default());
        let a = FlatRecodeApplier::new(&m, &schema(), &spec).unwrap();
        let bad = Row::new(vec![Value::Int(30), Value::Int(7), Value::Str("No".into())]);
        assert!(apply(&a, &[bad]).is_err());
    }

    #[test]
    fn specs_that_would_silently_lose_columns_are_rejected() {
        let m = map();
        let new = |spec: &TransformSpec| FlatRecodeApplier::new(&m, &schema(), spec).is_err();
        // A recode column the table does not have.
        assert!(new(&TransformSpec {
            recode_columns: vec!["country".into()],
            dummy_code_columns: vec![],
        }));
        // A dummy-code column that is not recoded.
        assert!(new(&TransformSpec {
            recode_columns: vec!["gender".into()],
            dummy_code_columns: vec!["abandoned".into()],
        }));
        // A dummy-code column the map has no values for: zero indicators.
        let partial = RecodeMap::from_pairs(vec![("abandoned".into(), "No".into())]);
        let err = FlatRecodeApplier::new(&partial, &schema(), &TransformSpec::new(&["gender"]))
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default();
        assert!(err.contains("no recode map entries"), "{err}");
    }
}
