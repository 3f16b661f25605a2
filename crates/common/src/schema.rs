//! Schemas: ordered lists of named, typed fields.
//!
//! Fields additionally carry a `categorical` flag. In the paper, categorical
//! variables are the string columns that recoding and dummy coding target;
//! keeping the flag in the schema lets the rewriter decide automatically
//! which columns a transformation spec applies to.

use std::fmt;
use std::sync::Arc;

use crate::error::{Result, SqlmlError};

/// The static SQL types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Double,
    Str,
}

impl DataType {
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Double)
    }

    /// Name as it appears in DDL (`CREATE TABLE t (c BIGINT, ...)`).
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "BIGINT",
            DataType::Double => "DOUBLE",
            DataType::Str => "VARCHAR",
        }
    }

    pub fn parse_sql_name(name: &str) -> Result<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOLEAN" | "BOOL" => Ok(DataType::Bool),
            "BIGINT" | "INT" | "INTEGER" => Ok(DataType::Int),
            "DOUBLE" | "FLOAT" | "REAL" => Ok(DataType::Double),
            "VARCHAR" | "STRING" | "TEXT" | "CHAR" => Ok(DataType::Str),
            other => Err(SqlmlError::Type(format!("unknown SQL type {other:?}"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
    /// Marks a categorical variable (candidate for recoding/dummy coding).
    pub categorical: bool,
}

impl Field {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            categorical: false,
        }
    }

    /// A categorical (string-valued in SQL) column.
    pub fn categorical(name: impl Into<String>) -> Self {
        Field {
            name: name.into(),
            data_type: DataType::Str,
            categorical: true,
        }
    }
}

/// An ordered, named, typed record layout. Cheap to clone (columns are
/// shared behind an `Arc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema {
            fields: Arc::new(fields),
        }
    }

    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// The position of the one column `name` names — the one rule every
    /// column name is resolved by: names match ignoring ASCII case, and a
    /// name two fields answer to is an error naming both positions.
    /// `Ok(None)` when no field answers to it.
    pub fn lookup(&self, name: &str) -> Result<Option<usize>> {
        let mut hits = (self.fields.iter().enumerate())
            .filter(|(_, f)| f.name.eq_ignore_ascii_case(name))
            .map(|(i, _)| i);
        match (hits.next(), hits.next()) {
            (Some(a), Some(b)) => Err(SqlmlError::Plan(format!(
                "column name {name:?} is ambiguous: it names {:?} at position {a} and {:?} \
                 at position {b}",
                self.fields[a].name, self.fields[b].name
            ))),
            (hit, _) => Ok(hit),
        }
    }

    /// [`Self::lookup`], with a name no field answers to an error.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.lookup(name)?.ok_or_else(|| {
            SqlmlError::Plan(format!(
                "no column named {name:?} in schema [{}]",
                self.names().join(", ")
            ))
        })
    }

    pub fn names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }

    /// Concatenate two schemas (join output layout).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.as_ref().clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self
            .fields
            .iter()
            .map(|fld| {
                if fld.categorical {
                    format!("{} {} CATEGORICAL", fld.name, fld.data_type)
                } else {
                    format!("{} {}", fld.name, fld.data_type)
                }
            })
            .collect();
        write!(f, "({})", cols.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
        ])
    }

    #[test]
    fn resolve_is_case_insensitive_and_refuses_a_name_two_fields_answer_to() {
        let s = sample();
        assert_eq!(s.resolve("age").unwrap(), 0);
        assert_eq!(s.resolve("GENDER").unwrap(), 1);
        assert!(s.resolve("missing").is_err());
        assert_eq!(s.lookup("missing").unwrap(), None);
        let twice = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::categorical("g"),
            Field::new("G", DataType::Int),
        ]);
        let err = twice.resolve("g").unwrap_err().to_string();
        assert!(
            err.contains("position 1") && err.contains("position 2"),
            "{err}"
        );
        assert!(twice.lookup("G").is_err());
        assert_eq!(twice.resolve("K").unwrap(), 0);
    }

    #[test]
    fn join_concatenates() {
        let a = sample();
        let b = Schema::new(vec![Field::new("userid", DataType::Int)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 5);
        assert_eq!(j.field(4).name, "userid");
    }

    #[test]
    fn type_names_round_trip() {
        for t in [
            DataType::Bool,
            DataType::Int,
            DataType::Double,
            DataType::Str,
        ] {
            assert_eq!(DataType::parse_sql_name(t.sql_name()).unwrap(), t);
        }
        assert!(DataType::parse_sql_name("BLOB").is_err());
    }

    #[test]
    fn display_shows_categorical_marker() {
        let text = sample().to_string();
        assert!(text.contains("gender VARCHAR CATEGORICAL"));
        assert!(text.contains("age BIGINT"));
    }
}
