//! Rows: the unit of data flowing through the SQL engine, the transfer
//! layer, and into ML feature vectors.

use std::fmt;

use crate::error::Result;
use crate::value::Value;

/// A single record. Values are positional; the interpretation (names and
/// types) lives in the accompanying [`crate::schema::Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn set(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// New row containing the values at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenate with another row (hash-join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(other.values());
        Row::new(values)
    }

    /// Interpret every value as a number — the ML hand-off path. Fails on
    /// strings (which is exactly the paper's motivation for recoding:
    /// categorical values must be recoded before an algorithm ingests
    /// them). NULLs become 0.0, matching MLlib's sparse-vector treatment.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.len());
        self.append_f64s(&mut out)?;
        Ok(out)
    }

    /// [`Row::to_f64_vec`] into a caller-owned buffer, so a reader that
    /// converts row after row allocates nothing per row. On error `out`
    /// holds the values before the offending one.
    pub fn append_f64s(&self, out: &mut Vec<f64>) -> Result<()> {
        for v in &self.values {
            out.push(if v.is_null() { 0.0 } else { v.as_f64()? });
        }
        Ok(())
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(|v| v.to_string()).collect();
        write!(f, "[{}]", parts.join(", "))
    }
}

/// Convenience constructor used heavily in tests:
/// `row![1i64, "F", 2.5]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_builds_typed_values() {
        let r = row![57i64, "F", 103.25, true];
        assert_eq!(r.len(), 4);
        assert_eq!(*r.get(0), Value::Int(57));
        assert_eq!(*r.get(1), Value::Str("F".into()));
        assert_eq!(*r.get(2), Value::Double(103.25));
        assert_eq!(*r.get(3), Value::Bool(true));
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let r = row![1i64, 2i64, 3i64];
        let p = r.project(&[2, 0, 0]);
        assert_eq!(p, row![3i64, 1i64, 1i64]);
    }

    #[test]
    fn concat_joins_value_lists() {
        let a = row![1i64];
        let b = row!["x", 2.0];
        assert_eq!(a.concat(&b), row![1i64, "x", 2.0]);
    }

    #[test]
    fn to_f64_rejects_strings_but_zeroes_nulls() {
        let ok = Row::new(vec![Value::Int(3), Value::Null, Value::Double(0.5)]);
        assert_eq!(ok.to_f64_vec().unwrap(), vec![3.0, 0.0, 0.5]);
        let bad = row![3i64, "F"];
        assert!(bad.to_f64_vec().is_err());
    }

    #[test]
    fn display_is_bracketed() {
        assert_eq!(row![1i64, "a"].to_string(), "[1, 'a']");
    }
}
