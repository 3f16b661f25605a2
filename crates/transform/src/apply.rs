//! Flat, index-resolved recode application — pass 2 of the transform,
//! shared by the In-SQL path and the naive baseline's external job.
//!
//! [`RecodeMap::code`] walks two nested `BTreeMap<String, _>`s — a
//! column probe then a value probe, both O(log n) with string
//! comparisons at every tree node. Applying a map to millions of rows
//! that way would dominate either path.
//!
//! A [`FlatRecodeApplier`] resolves everything that is per-*column* —
//! which action applies, the value→code table, the dummy block width,
//! the transformed schema — exactly once, into a dense `Vec` indexed by
//! column position. Per cell the work left is a single
//! `HashMap<Arc<str>, i64>` probe (O(1), hashed once), and
//! non-categorical cells are a straight clone (a refcount bump for
//! interned strings). One call to [`FlatRecodeApplier::apply`] recodes
//! and dummy-codes every column of a row at once; over a column batch
//! ([`FlatRecodeApplier::apply_batch`]) the probe is per *dictionary
//! entry* and the rows are a gather or a scatter through the result.

use std::collections::HashMap;
use std::sync::Arc;

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{Result, Row, Schema, SqlmlError, Value};
use sqlml_sqlengine::column::{Batch, Column, Prim};

use crate::pipeline::TransformSpec;
use crate::recode::RecodeMap;

/// Per-column action, resolved from the spec + map at build time.
enum ColumnAction {
    /// Not a transform target: copy the value through.
    Pass,
    /// Recode the string value to its integer code (NULL stays NULL).
    Recode {
        name: String,
        codes: HashMap<Arc<str>, i64>,
    },
    /// Expand into `k` indicator columns (NULL → all-zero block).
    Dummy {
        name: String,
        codes: HashMap<Arc<str>, i64>,
        k: usize,
    },
}

/// A recode/dummy applier with all per-column resolution done up front.
/// Build once per job, then call [`Self::apply`] per row. It is also the
/// single source of the transformed schema ([`Self::output_schema`]).
pub struct FlatRecodeApplier {
    actions: Vec<ColumnAction>,
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

impl FlatRecodeApplier {
    /// Resolve `spec` + `map` against `schema` into per-column actions.
    /// Fails when a recode column is not in `schema`, or a dummy-code
    /// column is not among the recoded columns or has no values in `map`
    /// (its block would silently vanish).
    pub fn new(
        map: &RecodeMap,
        schema: &Schema,
        spec: &TransformSpec,
    ) -> Result<FlatRecodeApplier> {
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
            let codes: HashMap<Arc<str>, i64> = map
                .column_codes(&f.name)
                .map(|m| m.iter().map(|(v, c)| (Arc::from(v.as_str()), *c)).collect())
                .unwrap_or_default();
            if named_in(&spec.dummy_code_columns, &f.name) {
                let values = map.values_in_code_order(&f.name);
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
                actions.push(ColumnAction::Dummy {
                    name: f.name.clone(),
                    codes,
                    k: values.len(),
                });
            } else {
                fields.push(Field::new(f.name.clone(), DataType::Int));
                actions.push(ColumnAction::Recode {
                    name: f.name.clone(),
                    codes,
                });
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

    /// Transform one row: recode categorical values, expand dummy
    /// blocks. Matches [`RecodeMap::code`]-based application value for
    /// value (the property tests assert this). The per-row form serves
    /// the naive baseline's external text job; the engine's partitions
    /// go through [`Self::apply_batch`].
    pub fn apply(&self, row: &Row) -> Result<Row> {
        let mut values = Vec::with_capacity(self.out_schema.len());
        for (i, action) in self.actions.iter().enumerate() {
            let v = row.get(i);
            match action {
                ColumnAction::Pass => values.push(v.clone()),
                ColumnAction::Recode { name, codes } => {
                    values.push(code_of(codes, v, name)?.map_or(Value::Null, Value::Int));
                }
                ColumnAction::Dummy { name, codes, k } => {
                    let code = code_of(codes, v, name)?.unwrap_or(0);
                    values.extend((1..=*k as i64).map(|j| Value::Int((j == code) as i64)));
                }
            }
        }
        Ok(Row::new(values))
    }

    /// Transform one partition column by column. A pass-through column
    /// is shared; a categorical column's dictionary is resolved to recode
    /// ids once, and the rows are a gather (recode) or a scatter into `k`
    /// zeroed indicator columns (dummy) through that table. Row for row
    /// the output — and the error — of [`Self::apply`].
    pub fn apply_batch(&self, input: &Batch) -> Result<Batch> {
        let mut columns = Vec::with_capacity(self.out_schema.len());
        for (c, action) in self.actions.iter().enumerate() {
            let (name, codes, k) = match action {
                ColumnAction::Pass => {
                    columns.push(Arc::clone(input.column(c)));
                    continue;
                }
                ColumnAction::Recode { name, codes } => (name, codes, None),
                ColumnAction::Dummy { name, codes, k } => (name, codes, Some(*k)),
            };
            let ids = row_ids(input.column(c), codes, name)?;
            match k {
                None => {
                    let valid = ids
                        .contains(&None)
                        .then(|| ids.iter().map(Option::is_some).collect());
                    let values = ids.iter().map(|id| id.unwrap_or(0)).collect();
                    columns.push(Arc::new(Column::Int(Prim::new(values, valid))));
                }
                Some(k) => {
                    let mut block = vec![vec![0i64; input.len()]; k];
                    for (row, id) in ids.iter().enumerate() {
                        // Ids are `1..=k` by the map's invariant; NULL
                        // leaves the row's block all zero.
                        let slot = id.and_then(|id| usize::try_from(id - 1).ok());
                        if let Some(indicator) = slot.and_then(|s| block.get_mut(s)) {
                            indicator[row] = 1;
                        }
                    }
                    let indicator = |v| Arc::new(Column::Int(Prim::new(v, None)));
                    columns.extend(block.into_iter().map(indicator));
                }
            }
        }
        Ok(Batch::new(columns, input.len()))
    }
}

/// The recode id of every row of a categorical column (`None` for NULL).
/// A string column resolves its dictionary once — only entries a row
/// references can be "unseen" — and maps codes; any other column is read
/// cell by cell.
fn row_ids(col: &Column, codes: &HashMap<Arc<str>, i64>, name: &str) -> Result<Vec<Option<i64>>> {
    let Column::Str(d) = col else {
        return (0..col.len())
            .map(|i| code_of(codes, &col.value(i), name))
            .collect();
    };
    let by_code: Vec<Option<i64>> = (d.entries().iter())
        .map(|s| codes.get(&**s).copied())
        .collect();
    (d.codes().iter())
        .map(|&c| match by_code.get(c as usize) {
            None => Ok(None),
            Some(Some(id)) => Ok(Some(*id)),
            Some(None) => Err(unseen(&d.entries()[c as usize], name)),
        })
        .collect()
}

/// The recode id of one categorical cell: `None` for NULL.
fn code_of(codes: &HashMap<Arc<str>, i64>, v: &Value, col: &str) -> Result<Option<i64>> {
    match v {
        Value::Null => Ok(None),
        Value::Str(s) => codes
            .get(&**s)
            .map(|c| Some(*c))
            .ok_or_else(|| unseen(s, col)),
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
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field};

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

    #[test]
    fn recode_matches_map_code() {
        let spec = TransformSpec::default();
        let a = FlatRecodeApplier::new(&map(), &schema(), &spec).unwrap();
        let out = a.apply(&row![30i64, "F", "Yes"]).unwrap();
        assert_eq!(out, row![30i64, 1i64, 2i64]);
        assert_eq!(a.output_schema().names(), ["age", "gender", "abandoned"]);
    }

    #[test]
    fn dummy_expansion_and_null_blocks() {
        let spec = TransformSpec::new(&["gender"]);
        let a = FlatRecodeApplier::new(&map(), &schema(), &spec).unwrap();
        // F -> (1, 0); abandoned recodes.
        let out = a.apply(&row![30i64, "F", "No"]).unwrap();
        assert_eq!(out, row![30i64, 1i64, 0i64, 1i64]);
        assert_eq!(
            a.output_schema().names(),
            ["age", "gender_F", "gender_M", "abandoned"]
        );
        assert!(a
            .output_schema()
            .fields()
            .iter()
            .all(|f| f.data_type == DataType::Int));
        // NULL gender -> all-zero block.
        let out = a
            .apply(&Row::new(vec![
                Value::Int(30),
                Value::Null,
                Value::Str("No".into()),
            ]))
            .unwrap();
        assert_eq!(out, row![30i64, 0i64, 0i64, 1i64]);
    }

    #[test]
    fn unseen_value_errors() {
        let spec = TransformSpec::default();
        let a = FlatRecodeApplier::new(&map(), &schema(), &spec).unwrap();
        assert!(a.apply(&row![30i64, "X", "Yes"]).is_err());
    }

    #[test]
    fn non_string_in_categorical_errors() {
        let spec = TransformSpec::default();
        let a = FlatRecodeApplier::new(&map(), &schema(), &spec).unwrap();
        let bad = Row::new(vec![Value::Int(30), Value::Int(7), Value::Str("No".into())]);
        assert!(a.apply(&bad).is_err());
    }

    #[test]
    fn specs_that_would_silently_lose_columns_are_rejected() {
        let new = |spec: &TransformSpec| FlatRecodeApplier::new(&map(), &schema(), spec);
        // A recode column the table does not have.
        assert!(new(&TransformSpec {
            recode_columns: vec!["country".into()],
            dummy_code_columns: vec![],
        })
        .is_err());
        // A dummy-code column that is not recoded.
        assert!(new(&TransformSpec {
            recode_columns: vec!["gender".into()],
            dummy_code_columns: vec!["abandoned".into()],
        })
        .is_err());
        // A dummy-code column the map has no values for: zero indicators.
        let partial = RecodeMap::from_pairs(vec![("abandoned".into(), "No".into())]);
        let err = FlatRecodeApplier::new(&partial, &schema(), &TransformSpec::new(&["gender"]))
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default();
        assert!(err.contains("no recode map entries"), "{err}");
    }
}
