//! Compiled (physical) expressions.
//!
//! The planner resolves syntactic [`crate::ast::AstExpr`]s against a scope
//! into these index-based expressions, which evaluate a column batch at a
//! time with SQL three-valued logic.

use std::fmt;
use std::sync::Arc;

use sqlml_common::schema::DataType;
use sqlml_common::{Result, SqlmlError, Value};

use crate::ast::{ArithOp, CmpOp};
use crate::column::{Batch, Column, ColumnBuilder, Prim};
use crate::udf::ScalarUdf;

/// A resolved expression over a fixed input row layout.
#[derive(Clone)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    Lit(Value),
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Cast {
        expr: Box<Expr>,
        to: sqlml_common::schema::DataType,
    },
    Scalar {
        udf: Arc<dyn ScalarUdf>,
        args: Vec<Expr>,
    },
    Neg(Box<Expr>),
}

impl Expr {
    /// Evaluate over every row of `batch` — the engine's one expression
    /// evaluator. A column reference shares the column; column-vs-literal
    /// comparisons, `AND`/`OR` over boolean columns and arithmetic over
    /// numeric columns run typed kernels; every other node (and every
    /// other operand shape) loops `apply`, the per-value kernel,
    /// over its operands' columns. NULL handling follows SQL: comparisons
    /// and arithmetic propagate NULL; AND/OR use Kleene logic.
    pub fn eval(&self, batch: &Batch) -> Result<Arc<Column>> {
        let n = batch.len();
        match self {
            Expr::Col(i) => return Ok(Arc::clone(batch.column(*i))),
            Expr::Lit(v) => return Ok(Arc::new(Column::constant(v, n))),
            _ => {}
        }
        let args = (self.operands().into_iter())
            .map(|e| match e {
                Expr::Lit(v) => Ok(Operand::Const(v)),
                e => e.eval(batch).map(Operand::Col),
            })
            .collect::<Result<Vec<_>>>()?;
        if let Some(col) = self.kernel(&args, n)? {
            return Ok(Arc::new(col));
        }
        let mut out = ColumnBuilder::new(DataType::Bool, n);
        let mut values = Vec::with_capacity(args.len());
        for i in 0..n {
            values.clear();
            values.extend(args.iter().map(|a| a.value(i)));
            out.push(&self.apply(&values)?);
        }
        Ok(Arc::new(out.finish()))
    }

    /// The sub-expressions whose values [`Self::apply`] takes, in order.
    fn operands(&self) -> Vec<&Expr> {
        match self {
            Expr::Col(_) | Expr::Lit(_) => Vec::new(),
            Expr::Cmp { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::And(left, right)
            | Expr::Or(left, right) => vec![left, right],
            Expr::Not(expr)
            | Expr::Neg(expr)
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. } => vec![expr],
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            Expr::Between { expr, lo, hi } => vec![expr, lo, hi],
            Expr::Like { expr, pattern, .. } => vec![expr, pattern],
            Expr::Scalar { args, .. } => args.iter().collect(),
        }
    }

    /// The per-value kernel: this node applied to one row's operand
    /// values (`v[k]` is the value of `operands()[k]`).
    fn apply(&self, v: &[Value]) -> Result<Value> {
        Ok(match self {
            Expr::Col(_) | Expr::Lit(_) => unreachable!("leaves are evaluated by eval"),
            Expr::Cmp { op, .. } => {
                if v[0].is_null() || v[1].is_null() {
                    return Ok(Value::Null);
                }
                Value::Bool(compare(*op, &v[0], &v[1]))
            }
            Expr::Arith { op, .. } => {
                if v[0].is_null() || v[1].is_null() {
                    return Ok(Value::Null);
                }
                arith(*op, &v[0], &v[1])?
            }
            Expr::And(..) => kleene(true, truth(&v[0])?, truth(&v[1])?),
            Expr::Or(..) => kleene(false, truth(&v[0])?, truth(&v[1])?),
            Expr::Not(_) => truth(&v[0])?.map_or(Value::Null, |b| Value::Bool(!b)),
            Expr::IsNull { negated, .. } => Value::Bool(v[0].is_null() != *negated),
            Expr::InList { negated, .. } => {
                if v[0].is_null() {
                    return Ok(Value::Null);
                }
                if v[1..].iter().any(|item| !item.is_null() && *item == v[0]) {
                    Value::Bool(!*negated)
                } else if v[1..].iter().any(Value::is_null) {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Expr::Between { .. } => {
                if v.iter().any(Value::is_null) {
                    return Ok(Value::Null);
                }
                Value::Bool(
                    compare(CmpOp::GtEq, &v[0], &v[1]) && compare(CmpOp::LtEq, &v[0], &v[2]),
                )
            }
            Expr::Like { negated, .. } => {
                if v[0].is_null() || v[1].is_null() {
                    return Ok(Value::Null);
                }
                Value::Bool(like_match(v[0].as_str()?, v[1].as_str()?) != *negated)
            }
            Expr::Cast { to, .. } => cast_value(v[0].clone(), *to)?,
            Expr::Scalar { udf, .. } => udf.eval(v)?,
            Expr::Neg(_) => match &v[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(-i),
                Value::Double(d) => Value::Double(-d),
                other => return Err(SqlmlError::Type(format!("cannot negate {other}"))),
            },
        })
    }

    /// The typed kernel for this node over these operand shapes, if
    /// there is one; `None` falls through to the per-value loop.
    fn kernel(&self, args: &[Operand], n: usize) -> Result<Option<Column>> {
        Ok(match (self, args) {
            (Expr::Cmp { op, .. }, [Operand::Col(c), Operand::Const(k)]) if !k.is_null() => {
                cmp_literal(c, |x| compare(*op, x, k))
            }
            (Expr::Cmp { op, .. }, [Operand::Const(k), Operand::Col(c)]) if !k.is_null() => {
                cmp_literal(c, |x| compare(*op, k, x))
            }
            (Expr::And(..) | Expr::Or(..), [Operand::Col(a), Operand::Col(b)]) => {
                match (&**a, &**b) {
                    (Column::Bool(a), Column::Bool(b)) => {
                        let and = matches!(self, Expr::And(..));
                        let mut out = ColumnBuilder::new(DataType::Bool, n);
                        (0..n).for_each(|i| out.push(&kleene(and, a.get(i), b.get(i))));
                        Some(out.finish())
                    }
                    _ => None,
                }
            }
            (Expr::Arith { op, .. }, [a, b]) => arith_columns(*op, a, b, n)?,
            _ => None,
        })
    }
}

/// What an operand of a node evaluates to: a literal stays one value.
enum Operand<'a> {
    Const(&'a Value),
    Col(Arc<Column>),
}

impl Operand<'_> {
    fn value(&self, i: usize) -> Value {
        match self {
            Operand::Const(v) => (*v).clone(),
            Operand::Col(c) => c.value(i),
        }
    }

    /// `Some(is_int)` for an operand holding only `Int`s (`true`) or only
    /// `Double`s, NULLs aside.
    fn numeric(&self) -> Option<bool> {
        match self {
            Operand::Const(Value::Int(_)) => Some(true),
            Operand::Const(Value::Double(_)) => Some(false),
            Operand::Col(c) => match &**c {
                Column::Int(_) => Some(true),
                Column::Double(_) => Some(false),
                _ => None,
            },
            Operand::Const(_) => None,
        }
    }
}

/// Column-vs-literal comparison: `test` once per row of a typed column,
/// once per *dictionary entry* of a string column. NULL rows stay NULL.
fn cmp_literal(col: &Column, test: impl Fn(&Value) -> bool) -> Option<Column> {
    Some(Column::Bool(match col {
        Column::Int(p) => p.map(|x| test(&Value::Int(x))),
        Column::Double(p) => p.map(|x| test(&Value::Double(x))),
        Column::Bool(p) => p.map(|x| test(&Value::Bool(x))),
        Column::Str(d) => {
            let by_code: Vec<bool> = (d.entries().iter())
                .map(|s| test(&Value::Str(Arc::clone(s))))
                .collect();
            let hit = |c: &u32| by_code.get(*c as usize).copied();
            Prim::new(
                d.codes().iter().map(|c| hit(c).unwrap_or(false)).collect(),
                Some(d.codes().iter().map(|c| hit(c).is_some()).collect()),
            )
        }
        Column::Mixed(_) => return None,
    }))
}

/// Arithmetic over `Int`/`Double` columns and literals: a typed output
/// vector, [`arith`] per non-NULL row.
fn arith_columns(op: ArithOp, a: &Operand, b: &Operand, n: usize) -> Result<Option<Column>> {
    let (Some(a_int), Some(b_int)) = (a.numeric(), b.numeric()) else {
        return Ok(None);
    };
    let int_out = a_int && b_int && op != ArithOp::Div;
    let mut ints = Prim::<i64>::default();
    let mut doubles = Prim::<f64>::default();
    for i in 0..n {
        let (x, y) = (a.value(i), b.value(i));
        let v = match x.is_null() || y.is_null() {
            true => Value::Null,
            false => arith(op, &x, &y)?,
        };
        match (int_out, v) {
            (true, Value::Int(v)) => ints.push(Some(v)),
            (false, Value::Double(v)) => doubles.push(Some(v)),
            (true, _) => ints.push(None),
            (false, _) => doubles.push(None),
        }
    }
    Ok(Some(match int_out {
        true => Column::Int(ints),
        false => Column::Double(doubles),
    }))
}

/// Kleene AND (`and`) / OR of two truth values (`None` = NULL/unknown):
/// the dominating value wins, then NULL.
fn kleene(and: bool, l: Option<bool>, r: Option<bool>) -> Value {
    match (l, r) {
        (Some(x), _) | (_, Some(x)) if x != and => Value::Bool(!and),
        (Some(_), Some(_)) => Value::Bool(and),
        _ => Value::Null,
    }
}

/// Map a value to Kleene truth (None = NULL/unknown).
fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(SqlmlError::Type(format!(
            "expected a boolean condition, got {other}"
        ))),
    }
}

/// Non-null comparison. Cross-type Int/Double comparisons are numeric;
/// otherwise [`Value`]'s total order applies.
fn compare(op: CmpOp, l: &Value, r: &Value) -> bool {
    match op {
        CmpOp::Eq => l == r,
        CmpOp::NotEq => l != r,
        CmpOp::Lt => l < r,
        CmpOp::LtEq => l <= r,
        CmpOp::Gt => l > r,
        CmpOp::GtEq => l >= r,
    }
}

fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            // Division always yields DOUBLE: the ML-bound pipelines this
            // engine serves must not silently truncate features.
            ArithOp::Div => {
                if *b == 0 {
                    return Err(SqlmlError::Execution("division by zero".into()));
                }
                Value::Double(*a as f64 / *b as f64)
            }
        }),
        _ => {
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            Ok(match op {
                ArithOp::Add => Value::Double(a + b),
                ArithOp::Sub => Value::Double(a - b),
                ArithOp::Mul => Value::Double(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(SqlmlError::Execution("division by zero".into()));
                    }
                    Value::Double(a / b)
                }
            })
        }
    }
}

/// SQL LIKE matching: `%` = any sequence, `_` = exactly one character.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => {
                // Greedy-free: try every split point.
                (0..=t.len()).any(|i| rec(&t[i..], rest))
            }
            Some(('_', rest)) => !t.is_empty() && rec(&t[1..], rest),
            Some((c, rest)) => t.first() == Some(c) && rec(&t[1..], rest),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

/// SQL CAST semantics. NULL casts to NULL; numeric↔numeric truncates
/// toward zero (Int) or widens (Double); anything casts to VARCHAR via
/// the text rendering; strings parse into the target type.
pub fn cast_value(v: Value, to: sqlml_common::schema::DataType) -> Result<Value> {
    use sqlml_common::schema::DataType;
    if v.is_null() {
        return Ok(Value::Null);
    }
    Ok(match (v, to) {
        (v @ Value::Bool(_), DataType::Bool) => v,
        (v @ Value::Int(_), DataType::Int) => v,
        (v @ Value::Double(_), DataType::Double) => v,
        (v @ Value::Str(_), DataType::Str) => v,
        (Value::Bool(b), DataType::Int) => Value::Int(b as i64),
        (Value::Bool(b), DataType::Double) => Value::Double(b as i64 as f64),
        (Value::Int(i), DataType::Double) => Value::Double(i as f64),
        (Value::Int(i), DataType::Bool) => Value::Bool(i != 0),
        (Value::Double(d), DataType::Int) => {
            if !d.is_finite() || d < i64::MIN as f64 || d > i64::MAX as f64 {
                return Err(SqlmlError::Execution(format!("cannot cast {d} to BIGINT")));
            }
            // Range-checked just above; truncation toward zero is the
            // SQL CAST(double AS BIGINT) semantics.
            #[allow(clippy::cast_possible_truncation)]
            let i = d.trunc() as i64;
            Value::Int(i)
        }
        (Value::Double(d), DataType::Bool) => Value::Bool(d != 0.0),
        (v, DataType::Str) => Value::Str(v.render().into()),
        (Value::Str(s), ty) => Value::parse_typed(s.trim(), ty)
            .map_err(|e| SqlmlError::Execution(format!("CAST failed: {e}")))?,
        (Value::Null, _) => Value::Null, // unreachable: handled above
    })
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp { op, left, right } => {
                write!(f, "({left:?} {} {right:?})", op.symbol())
            }
            Expr::Arith { op, left, right } => {
                let sym = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                write!(f, "({left:?} {sym} {right:?})")
            }
            Expr::And(l, r) => write!(f, "({l:?} AND {r:?})"),
            Expr::Or(l, r) => write!(f, "({l:?} OR {r:?})"),
            Expr::Not(e) => write!(f, "(NOT {e:?})"),
            Expr::IsNull { expr, negated } => {
                write!(
                    f,
                    "({expr:?} IS {}NULL)",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => write!(
                f,
                "({expr:?} {}IN {list:?})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Between { expr, lo, hi } => {
                write!(f, "({expr:?} BETWEEN {lo:?} AND {hi:?})")
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr:?} {}LIKE {pattern:?})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Cast { expr, to } => write!(f, "CAST({expr:?} AS {to})"),
            Expr::Scalar { udf, args } => write!(f, "{}({args:?})", udf.name()),
            Expr::Neg(e) => write!(f, "(-{e:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::{row, Schema};

    /// `e` over the one-row batch holding `r`.
    fn eval(e: &Expr, r: &Row) -> Result<Value> {
        let batch = Batch::from_rows(&Schema::empty(), std::slice::from_ref(r));
        e.eval(&batch).map(|c| c.value(0))
    }

    /// As a filter predicate: NULL and false both reject.
    fn holds(e: &Expr, r: &Row) -> bool {
        matches!(eval(e, r).unwrap(), Value::Bool(true))
    }

    fn col(i: usize) -> Box<Expr> {
        Box::new(Expr::Col(i))
    }

    fn lit(v: impl Into<Value>) -> Box<Expr> {
        Box::new(Expr::Lit(v.into()))
    }

    #[test]
    fn comparisons_over_row_values() {
        let r = row![5i64, "USA", 2.5];
        let e = Expr::Cmp {
            op: CmpOp::Eq,
            left: col(1),
            right: lit("USA"),
        };
        assert!(holds(&e, &r));
        let e = Expr::Cmp {
            op: CmpOp::Gt,
            left: col(0),
            right: lit(2.5),
        };
        assert!(holds(&e, &r));
    }

    #[test]
    fn null_comparison_yields_null_and_filters_out() {
        let r = Row::new(vec![Value::Null]);
        let e = Expr::Cmp {
            op: CmpOp::Eq,
            left: col(0),
            right: lit(1i64),
        };
        assert_eq!(eval(&e, &r).unwrap(), Value::Null);
        assert!(!holds(&e, &r));
    }
    use sqlml_common::Row;

    #[test]
    fn kleene_and_or() {
        let r = Row::new(vec![Value::Null]);
        let null_cond = || {
            Box::new(Expr::Cmp {
                op: CmpOp::Eq,
                left: col(0),
                right: lit(1i64),
            })
        };
        // false AND NULL = false
        let e = Expr::And(lit(false), null_cond());
        assert_eq!(eval(&e, &r).unwrap(), Value::Bool(false));
        // true AND NULL = NULL
        let e = Expr::And(lit(true), null_cond());
        assert_eq!(eval(&e, &r).unwrap(), Value::Null);
        // true OR NULL = true
        let e = Expr::Or(null_cond(), lit(true));
        assert_eq!(eval(&e, &r).unwrap(), Value::Bool(true));
        // false OR NULL = NULL
        let e = Expr::Or(lit(false), null_cond());
        assert_eq!(eval(&e, &r).unwrap(), Value::Null);
        // NOT NULL = NULL
        let e = Expr::Not(null_cond());
        assert_eq!(eval(&e, &r).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_types() {
        let r = row![7i64, 2i64, 1.5];
        let add = Expr::Arith {
            op: ArithOp::Add,
            left: col(0),
            right: col(1),
        };
        assert_eq!(eval(&add, &r).unwrap(), Value::Int(9));
        let div = Expr::Arith {
            op: ArithOp::Div,
            left: col(0),
            right: col(1),
        };
        assert_eq!(eval(&div, &r).unwrap(), Value::Double(3.5));
        let mixed = Expr::Arith {
            op: ArithOp::Mul,
            left: col(0),
            right: col(2),
        };
        assert_eq!(eval(&mixed, &r).unwrap(), Value::Double(10.5));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let r = row![1i64, 0i64];
        let div = Expr::Arith {
            op: ArithOp::Div,
            left: col(0),
            right: col(1),
        };
        assert!(eval(&div, &r).is_err());
    }

    #[test]
    fn in_list_with_null_semantics() {
        let r = row![2i64];
        let e = Expr::InList {
            expr: col(0),
            list: vec![Expr::Lit(Value::Int(1)), Expr::Lit(Value::Int(2))],
            negated: false,
        };
        assert_eq!(eval(&e, &r).unwrap(), Value::Bool(true));
        // 3 NOT IN (1, NULL) is NULL (unknown).
        let r = row![3i64];
        let e = Expr::InList {
            expr: col(0),
            list: vec![Expr::Lit(Value::Int(1)), Expr::Lit(Value::Null)],
            negated: true,
        };
        assert_eq!(eval(&e, &r).unwrap(), Value::Null);
    }

    #[test]
    fn between_inclusive() {
        let e = Expr::Between {
            expr: col(0),
            lo: lit(1i64),
            hi: lit(3i64),
        };
        assert!(holds(&e, &row![1i64]));
        assert!(holds(&e, &row![3i64]));
        assert!(!holds(&e, &row![4i64]));
    }

    #[test]
    fn is_null_variants() {
        let null_row = Row::new(vec![Value::Null]);
        let e = Expr::IsNull {
            expr: col(0),
            negated: false,
        };
        assert!(holds(&e, &null_row));
        let e = Expr::IsNull {
            expr: col(0),
            negated: true,
        };
        assert!(!holds(&e, &null_row));
        assert!(holds(&e, &row![1i64]));
    }

    #[test]
    fn like_matching_semantics() {
        for (text, pattern, expect) in [
            ("hello", "hello", true),
            ("hello", "h%", true),
            ("hello", "%o", true),
            ("hello", "%ell%", true),
            ("hello", "h_llo", true),
            ("hello", "h_l_o", true),
            ("hello", "h_l_x", false),
            ("hello", "h_llo_", false),
            ("hello", "", false),
            ("", "%", true),
            ("", "", true),
            ("abc", "a%b%c", true),
            ("mississippi", "%ss%ss%", true),
            ("über", "ü%", true),
        ] {
            assert_eq!(
                like_match(text, pattern),
                expect,
                "{text:?} LIKE {pattern:?}"
            );
        }
    }

    #[test]
    fn like_null_propagates() {
        let e = Expr::Like {
            expr: col(0),
            pattern: lit("x%"),
            negated: false,
        };
        assert_eq!(eval(&e, &Row::new(vec![Value::Null])).unwrap(), Value::Null);
    }

    #[test]
    fn cast_semantics() {
        use sqlml_common::schema::DataType;
        assert_eq!(
            cast_value(Value::Double(3.9), DataType::Int).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            cast_value(Value::Double(-3.9), DataType::Int).unwrap(),
            Value::Int(-3)
        );
        assert_eq!(
            cast_value(Value::Int(5), DataType::Str).unwrap(),
            Value::Str("5".into())
        );
        assert_eq!(
            cast_value(Value::Str(" 7 ".into()), DataType::Int).unwrap(),
            Value::Int(7)
        );
        assert_eq!(cast_value(Value::Null, DataType::Int).unwrap(), Value::Null);
        assert!(cast_value(Value::Double(f64::NAN), DataType::Int).is_err());
        assert!(cast_value(Value::Str("abc".into()), DataType::Int).is_err());
    }

    #[test]
    fn neg_and_debug_format() {
        let e = Expr::Neg(col(0));
        assert_eq!(eval(&e, &row![5i64]).unwrap(), Value::Int(-5));
        assert_eq!(eval(&e, &row![2.5]).unwrap(), Value::Double(-2.5));
        let formatted = format!("{e:?}");
        assert!(formatted.contains("#0"), "{formatted}");
    }
}
