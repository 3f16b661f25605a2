//! The codings of §2.2 — dummy coding (one-hot), and the "less common
//! transformations" effect and orthogonal (Helmert) coding, which the
//! paper says "can be implemented in similar ways as dummy coding". Here
//! they are: pass 2 ([`crate::FlatRecodeApplier`]) expands every coded
//! column through this module's one kernel, reading the coding's `K × w`
//! level table over the column's `K` recode-map values:
//!
//! * **Dummy**: the `Int` identity, `w = K`, one indicator per value
//!   named by [`indicator_name`].
//! * **Effect**: `w = K-1` `Double` columns `{col}_eff{j}`; level `i < K`
//!   gets `+1` in column `i`, the reference level `K` gets `-1` in every
//!   column.
//! * **Helmert**: `w = K-1` `Double` columns `{col}_orth{j}`; contrast
//!   `j` compares level `j+1` against the mean of levels `1..=j`:
//!   `c_j(i) = -1` for `i ≤ j`, `c_j(j+1) = j`, else `0`. The contrast
//!   columns are pairwise orthogonal over a balanced design.
//!
//! A row with no level (a NULL) is an all-zero row under every coding.

use std::fmt;
use std::sync::Arc;

use sqlml_common::schema::{DataType, Field};
use sqlml_sqlengine::column::{Column, Prim};

/// How a recoded column is expanded into numeric columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coding {
    Dummy,
    Effect,
    Helmert,
}

impl Coding {
    /// The name `recode_dummy`'s arguments carry.
    pub fn name(self) -> &'static str {
        match self {
            Coding::Dummy => "dummy",
            Coding::Effect => "effect",
            Coding::Helmert => "helmert",
        }
    }

    /// The coding a [`Coding::name`] names.
    pub fn parse(name: &str) -> Option<Coding> {
        [Coding::Dummy, Coding::Effect, Coding::Helmert]
            .into_iter()
            .find(|c| c.name() == name)
    }

    /// The fewest values a column needs: one indicator, or one contrast
    /// between two levels.
    pub(crate) fn min_values(self) -> usize {
        match self {
            Coding::Dummy => 1,
            Coding::Effect | Coding::Helmert => 2,
        }
    }

    /// The output columns of `column` coded over `values` (code order).
    pub(crate) fn fields(self, column: &str, values: &[String]) -> Vec<Field> {
        let contrasts = |tag: &str| {
            (1..values.len())
                .map(|j| Field::new(format!("{column}_{tag}{j}"), DataType::Double))
                .collect()
        };
        match self {
            Coding::Dummy => (values.iter())
                .map(|v| Field::new(indicator_name(column, v), DataType::Int))
                .collect(),
            Coding::Effect => contrasts("eff"),
            Coding::Helmert => contrasts("orth"),
        }
    }

    /// The rows' `levels` (0-based, `None` for NULL) over `k` values, as
    /// the coding's output columns.
    pub(crate) fn expand(self, levels: &[Option<usize>], k: usize) -> Vec<Arc<Column>> {
        match self {
            Coding::Dummy => expand(levels, k, |l, j| i64::from(l == j), Column::Int),
            Coding::Effect => expand(levels, k - 1, |l, j| effect(k, l, j), Column::Double),
            Coding::Helmert => expand(levels, k - 1, helmert, Column::Double),
        }
    }
}

impl fmt::Display for Coding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Name of the indicator column for `value` of dummy-coded `column`:
/// `column_<value with every non-alphanumeric character as '_'>`, before
/// [`crate::BoundSpec::output_fields`] settles the names of the whole
/// output (two values may sanitize alike).
pub fn indicator_name(column: &str, value: &str) -> String {
    let safe: String = value
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{column}_{safe}")
}

/// Effect coding's level table over `k` levels at (level `l`, column `j`).
fn effect(k: usize, l: usize, j: usize) -> f64 {
    if l + 1 == k {
        -1.0
    } else {
        f64::from(l == j)
    }
}

/// Helmert coding's level table at (level `l`, contrast `j`), 0-based.
fn helmert(l: usize, j: usize) -> f64 {
    if l <= j {
        -1.0
    } else if l == j + 1 {
        (j + 1) as f64
    } else {
        0.0
    }
}

/// The one expansion kernel: one categorical column as `w` columns read
/// off a `K × w` level table. A row at level `l` holds `level(l, j)` in
/// output column `j`; a row with no level holds `T::default()` in all of
/// them.
fn expand<T: Copy + Default>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::Value;

    /// The coding's level table over `k` levels, read back through the
    /// kernel: one row per level.
    fn table(coding: Coding, k: usize) -> Vec<Vec<Value>> {
        let levels: Vec<Option<usize>> = (0..k).map(Some).collect();
        let columns = coding.expand(&levels, k);
        (0..k)
            .map(|l| columns.iter().map(|c| c.value(l)).collect())
            .collect()
    }

    fn f(row: &[Value]) -> Vec<f64> {
        row.iter().map(|v| v.as_f64().unwrap()).collect()
    }

    #[test]
    fn helmert_columns_are_pairwise_orthogonal() {
        for k in 2..=6 {
            let m: Vec<Vec<f64>> = table(Coding::Helmert, k).iter().map(|r| f(r)).collect();
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
        // Level 2 of Helmert(3): contrast 1 = 1, contrast 2 = -1.
        assert_eq!(f(&table(Coding::Helmert, 3)[1]), [1.0, -1.0]);
    }

    #[test]
    fn effect_coding_reference_level_is_minus_one() {
        let m: Vec<Vec<f64>> = table(Coding::Effect, 3).iter().map(|r| f(r)).collect();
        assert_eq!(m, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]);
    }

    #[test]
    fn dummy_coding_is_the_int_identity_and_null_is_all_zero() {
        let m = table(Coding::Dummy, 3);
        for (l, row) in m.iter().enumerate() {
            let expected: Vec<Value> = (0..3).map(|j| Value::Int(i64::from(l == j))).collect();
            assert_eq!(row, &expected);
        }
        for coding in [Coding::Dummy, Coding::Effect, Coding::Helmert] {
            let nulls = coding.expand(&[None], 3);
            assert!(
                nulls.iter().all(|c| c.value(0).as_f64().ok() == Some(0.0)),
                "{coding}"
            );
        }
    }

    #[test]
    fn names_are_sanitized_and_parse_back() {
        let values = ["not known".to_string(), "f/m".to_string()];
        let names = |c: Coding| -> Vec<String> {
            c.fields("g", &values).into_iter().map(|f| f.name).collect()
        };
        assert_eq!(names(Coding::Dummy), ["g_not_known", "g_f_m"]);
        assert_eq!(names(Coding::Effect), ["g_eff1"]);
        assert_eq!(names(Coding::Helmert), ["g_orth1"]);
        for c in [Coding::Dummy, Coding::Effect, Coding::Helmert] {
            assert_eq!(Coding::parse(c.name()), Some(c));
        }
        assert_eq!(Coding::parse("orthogonal"), None);
    }
}
