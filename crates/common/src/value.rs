//! The dynamic SQL value type shared by the SQL engine, the transformation
//! UDFs, the transfer wire format, and the ML ingestion layer.
//!
//! Categorical variables live in SQL tables as [`Value::Str`]; the In-SQL
//! transformations of the paper recode them to [`Value::Int`] before the
//! data is handed to ML algorithms, which consume numeric values only.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::codec;
use crate::error::{Result, SqlmlError};
use crate::schema::DataType;

/// A single SQL value.
///
/// `Double` uses bit-exact equality/hashing (via `f64::to_bits`) so values
/// can serve as grouping and distinct keys; ordering uses IEEE
/// `total_cmp`. NULL sorts before every non-NULL value and equals only
/// itself for grouping purposes (SQL three-valued logic is handled by the
/// expression evaluator, not here).
///
/// Strings are interned as `Arc<str>`: cloning a `Value::Str` — which the
/// executor does for every row that survives a filter, join, or
/// projection — is a reference-count bump, not a heap copy. Combined with
/// the decode-side [`crate::Interner`], all rows carrying the same categorical
/// value share one allocation.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value from anything that converts to an
    /// `Arc<str>` (`&str`, `String`, or an already-interned `Arc<str>`).
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The dynamic type of this value, or `None` for NULL (which is typed
    /// by context).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and by the ML feature extraction:
    /// ints and bools widen to f64, anything else is an error.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Double(d) => Ok(*d),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(SqlmlError::Type(format!(
                "cannot interpret {other} as a number"
            ))),
        }
    }

    /// Integer view; doubles are rejected (no silent truncation).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(SqlmlError::Type(format!(
                "cannot interpret {other} as an integer"
            ))),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(SqlmlError::Type(format!(
                "cannot interpret {other} as a string"
            ))),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(SqlmlError::Type(format!(
                "cannot interpret {other} as a boolean"
            ))),
        }
    }

    /// Parse a value from its text-format representation under the given
    /// type. The empty string and the literal `\N` denote NULL, matching
    /// the text tables the DFS stores.
    pub fn parse_typed(text: &str, ty: DataType) -> Result<Value> {
        if text.is_empty() || text == "\\N" {
            return Ok(Value::Null);
        }
        match ty {
            DataType::Bool => match text {
                "true" | "TRUE" | "1" => Ok(Value::Bool(true)),
                "false" | "FALSE" | "0" => Ok(Value::Bool(false)),
                _ => Err(SqlmlError::Type(format!("bad bool literal {text:?}"))),
            },
            DataType::Int => Ok(codec::parse_int_cell(text)?.map_or(Value::Null, Value::Int)),
            DataType::Double => {
                Ok(codec::parse_double_cell(text)?.map_or(Value::Null, Value::Double))
            }
            DataType::Str => Ok(Value::Str(Arc::from(text))),
        }
    }

    /// Render the value in text format (inverse of [`Value::parse_typed`]):
    /// `{}` for an int, the round-tripping `{:?}` for a double, through the
    /// text codec's cell writers.
    pub fn render(&self) -> String {
        match self {
            Value::Str(s) => s.to_string(),
            v => {
                let mut out = String::new();
                codec::encode_text_value(v, &mut out);
                out
            }
        }
    }

    /// Rank used to order values of mixed dynamic type deterministically
    /// (NULL < bool < numeric < string). Within the numeric rank, ints and
    /// doubles compare by value.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

/// `s` as a single-quoted SQL string literal, embedded quotes doubled —
/// the one renderer for every string spliced into a generated statement,
/// so none can end its literal early.
pub fn sql_string_literal(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Int(a), Value::Double(b)) | (Value::Double(b), Value::Int(a)) => {
                (*a as f64).to_bits() == b.to_bits()
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints hash as the bits of the equivalent double so that
            // Int(2) and Double(2.0) land in the same hash bucket,
            // consistent with `PartialEq`.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Double(b)) => (*a as f64).total_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => unreachable!("type_rank guarantees same-rank comparison"),
        }
    }
}

/// `Display` matches the text rendering except that strings are quoted,
/// which is what error messages and EXPLAIN output want.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d:?}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_double_cross_type_equality_and_hash_agree() {
        assert_eq!(Value::Int(2), Value::Double(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Double(2.0)));
        assert_ne!(Value::Int(2), Value::Double(2.5));
    }

    #[test]
    fn null_equals_only_null() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_ne!(Value::Null, Value::Str("".into()));
    }

    #[test]
    fn ordering_is_total_across_types() {
        let mut vs = [
            Value::Str("b".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Double(1.5),
            Value::Str("a".into()),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Double(1.5));
        assert_eq!(vs[3], Value::Int(5));
        assert_eq!(vs[4], Value::Str("a".into()));
    }

    #[test]
    fn parse_render_round_trip() {
        for (text, ty) in [
            ("42", DataType::Int),
            ("-7", DataType::Int),
            ("3.25", DataType::Double),
            ("true", DataType::Bool),
            ("hello world", DataType::Str),
            ("\\N", DataType::Int),
        ] {
            let v = Value::parse_typed(text, ty).unwrap();
            let back = Value::parse_typed(&v.render(), ty).unwrap();
            assert_eq!(v, back, "round trip failed for {text:?}");
        }
    }

    #[test]
    fn sql_literals_double_embedded_quotes() {
        assert_eq!(sql_string_literal("it's"), "'it''s'");
        assert_eq!(sql_string_literal("x',0,'svm"), "'x'',0,''svm'");
        assert_eq!(sql_string_literal(""), "''");
    }

    #[test]
    fn empty_string_parses_to_null() {
        assert!(Value::parse_typed("", DataType::Str).unwrap().is_null());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert!(Value::Str("x".into()).as_f64().is_err());
        assert!(Value::Double(1.5).as_i64().is_err());
    }

    #[test]
    fn nan_is_self_equal_for_grouping() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }
}
