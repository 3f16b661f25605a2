//! What to transform, and the one place its column names are bound.
//!
//! A [`TransformSpec`] names columns as a user spells them. Every
//! consumer — pass 1 and pass 2 of the In-SQL transform, the naive
//! baseline's external job, the §4 rewriter and the §5 cache — reads it
//! through [`TransformSpec::bind`]: each name resolved once, to a
//! position, by [`Schema::resolve`]'s rule, and every output column named
//! by one rule ([`BoundSpec::output_fields`]). A cached answer and a cold
//! run that bind the same spec to the same schema therefore name and code
//! the same columns.

use std::collections::{HashMap, HashSet};

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{Result, Schema, SqlmlError};

use crate::coding::Coding;
use crate::recode::RecodeMap;

/// What to transform.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransformSpec {
    /// Categorical columns to recode. Empty = every column flagged
    /// `categorical` in the input schema.
    pub recode_columns: Vec<String>,
    /// Recoded columns to further expand, each with its coding (each
    /// must be one of the recoded columns).
    pub coded_columns: Vec<(String, Coding)>,
}

impl TransformSpec {
    /// Recode all categorical columns, dummy-code the given ones.
    pub fn new(dummy_code_columns: &[&str]) -> Self {
        let dummy: Vec<_> = (dummy_code_columns.iter())
            .map(|&c| (c, Coding::Dummy))
            .collect();
        TransformSpec::coded(&dummy)
    }

    /// Recode all categorical columns, code the given ones as given.
    pub fn coded(coded_columns: &[(&str, Coding)]) -> Self {
        TransformSpec {
            recode_columns: Vec::new(),
            coded_columns: (coded_columns.iter())
                .map(|&(c, coding)| (c.to_string(), coding))
                .collect(),
        }
    }

    /// Bind the spec to `schema`. Fails when a listed recode column does
    /// not resolve, two recode columns share a name (the recode map is
    /// keyed by name), or a coded column is not among the recoded ones.
    /// A column coded twice keeps its first coding.
    pub fn bind(&self, schema: &Schema) -> Result<BoundSpec> {
        let mut treatments = vec![Treatment::Pass; schema.len()];
        for at in self.recode_targets(schema)? {
            treatments[at] = Treatment::Recode;
        }
        for (column, coding) in &self.coded_columns {
            let not_recoded = || {
                SqlmlError::Plan(format!(
                    "{coding}-coded column {column:?} is not among the recoded columns"
                ))
            };
            let at = schema.lookup(column)?.ok_or_else(not_recoded)?;
            match treatments[at] {
                Treatment::Pass => return Err(not_recoded()),
                Treatment::Recode => treatments[at] = Treatment::Coded(*coding),
                Treatment::Coded(_) => {}
            }
        }
        Ok(BoundSpec {
            input: schema.clone(),
            treatments,
        })
    }

    /// The recode columns' names as [`Self::bind`] settles them against
    /// `schema`, for callers that hand names to
    /// [`crate::InSqlTransformer::build_recode_map`]; the listed names as
    /// they stand when they do not bind.
    pub fn effective_recode_columns(&self, schema: &Schema) -> Vec<String> {
        match self.recode_targets(schema) {
            Ok(targets) => (targets.iter())
                .map(|&at| schema.field(at).name.clone())
                .collect(),
            Err(_) => self.recode_columns.clone(),
        }
    }

    /// The positions of the recode columns in `schema`, in schema order:
    /// each listed name resolved, or every `categorical` column when none
    /// is listed. Two of them whose names are equal ignoring ASCII case
    /// are refused, naming both positions.
    fn recode_targets(&self, schema: &Schema) -> Result<Vec<usize>> {
        let mut targets: Vec<usize> = if self.recode_columns.is_empty() {
            (0..schema.len())
                .filter(|&at| schema.field(at).categorical)
                .collect()
        } else {
            (self.recode_columns.iter())
                .map(|c| schema.resolve(c))
                .collect::<Result<_>>()?
        };
        targets.sort_unstable();
        targets.dedup();
        let mut named: HashMap<String, usize> = HashMap::new();
        for &at in &targets {
            let name = &schema.field(at).name;
            if let Some(first) = named.insert(name_key(name), at) {
                return Err(SqlmlError::Plan(format!(
                    "recode columns {:?} at position {first} and {name:?} at position {at} \
                     share one name",
                    schema.field(first).name
                )));
            }
        }
        Ok(targets)
    }
}

/// What a bound spec does with one input column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Treatment {
    /// Not a transform target: passed through.
    Pass,
    /// Recoded to its integer code.
    Recode,
    /// Recoded, then expanded by its coding.
    Coded(Coding),
}

/// A [`TransformSpec`] bound to one input schema: each input column's
/// [`Treatment`], by position. A recoded column is keyed in the recode map
/// by its name as the schema spells it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundSpec {
    input: Schema,
    treatments: Vec<Treatment>,
}

impl BoundSpec {
    /// The schema the spec was bound to.
    pub fn input(&self) -> &Schema {
        &self.input
    }

    /// Each input column's treatment, by position.
    pub fn treatments(&self) -> &[Treatment] {
        &self.treatments
    }

    /// The recoded columns (coded ones included), in schema order: each
    /// one's position and its name as the schema spells it.
    pub fn recoded(&self) -> impl Iterator<Item = (usize, &str)> + '_ {
        (self.treatments.iter().enumerate())
            .filter(|(_, t)| **t != Treatment::Pass)
            .map(|(at, _)| (at, self.input.field(at).name.as_str()))
    }

    /// Every output column under `map`, grouped by the input column it
    /// comes from: a passed-through column as it is, a recoded one as
    /// `Int`, a coded one as its coding's columns over the column's values
    /// in `map`. The names are settled by one rule over the whole output:
    /// a name equal, ignoring ASCII case, to an earlier one gets the
    /// smallest suffix `_<n>`, `n ≥ 2`, that leaves it equal to no other
    /// output name (`x y` and `x/y` indicate as `g_x_y` and `g_x_y_2`).
    pub fn output_fields(&self, map: &RecodeMap) -> Vec<Vec<Field>> {
        let mut blocks: Vec<Vec<Field>> = (self.input.fields().iter())
            .zip(&self.treatments)
            .map(|(f, treatment)| match treatment {
                Treatment::Pass => vec![f.clone()],
                Treatment::Recode => vec![Field::new(f.name.clone(), DataType::Int)],
                Treatment::Coded(coding) => {
                    coding.fields(&f.name, map.values_in_code_order(&f.name))
                }
            })
            .collect();
        let mut names: Vec<&mut String> =
            (blocks.iter_mut().flatten()).map(|f| &mut f.name).collect();
        let mut taken: HashSet<String> = names.iter().map(|n| name_key(n)).collect();
        let mut seen = HashSet::new();
        for name in &mut names {
            if seen.insert(name_key(name)) {
                continue;
            }
            let mut n = 2;
            while taken.contains(&name_key(&format!("{name}_{n}"))) {
                n += 1;
            }
            **name = format!("{name}_{n}");
            taken.insert(name_key(name));
        }
        blocks
    }

    /// [`Self::output_fields`], flattened: the transformed schema.
    pub fn output_schema(&self, map: &RecodeMap) -> Schema {
        Schema::new(self.output_fields(map).into_iter().flatten().collect())
    }
}

/// Two column names are one when equal ignoring ASCII case, as
/// [`Schema::resolve`] matches them.
fn name_key(name: &str) -> String {
    name.to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(spec: &TransformSpec, schema: &Schema, values: &[&str]) -> Vec<String> {
        let map = RecodeMap::from_pairs(values.iter().map(|v| ("g".to_string(), v.to_string())));
        spec.bind(schema).unwrap().output_schema(&map).names()
    }

    #[test]
    fn an_output_name_equal_to_an_earlier_one_gets_the_smallest_free_suffix() {
        let g = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::categorical("g"),
        ]);
        let dummy = TransformSpec::new(&["g"]);
        // Two values that sanitize alike, and two that differ in case.
        assert_eq!(
            names(&dummy, &g, &["x y", "x/y"]),
            ["k", "g_x_y", "g_x_y_2"]
        );
        assert_eq!(
            names(&dummy, &g, &["Web", "web"]),
            ["k", "g_Web", "g_web_2"]
        );
        // A suffix that meets a real value takes the next free one.
        assert_eq!(
            names(&dummy, &g, &["Web", "web", "web_2"]),
            ["k", "g_Web", "g_web_3", "g_web_2"]
        );
        // A pass-through column named like an indicator, after it and
        // before it.
        let after = Schema::new(vec![
            Field::categorical("g"),
            Field::new("g_F", DataType::Double),
        ]);
        assert_eq!(names(&dummy, &after, &["F", "M"]), ["g_F", "g_M", "g_F_2"]);
        let before = Schema::new(vec![
            Field::new("G_f", DataType::Double),
            Field::categorical("g"),
        ]);
        assert_eq!(names(&dummy, &before, &["F", "M"]), ["G_f", "g_F_2", "g_M"]);
        // Names that collide nowhere stay as they are.
        let plain = TransformSpec::default();
        assert_eq!(names(&plain, &g, &["x y", "x/y"]), ["k", "g"]);
    }

    #[test]
    fn binding_resolves_each_name_once_and_refuses_two_targets_with_one_name() {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::new("Gender", DataType::Double),
            Field::categorical("abandoned"),
        ]);
        // Every categorical column; a pass-through sharing a target's name
        // is no second target.
        let bound = TransformSpec::new(&["abandoned"]).bind(&schema).unwrap();
        assert_eq!(
            bound.recoded().collect::<Vec<_>>(),
            [(1, "gender"), (3, "abandoned")]
        );
        assert_eq!(bound.treatments()[3], Treatment::Coded(Coding::Dummy));
        // But a name both answer to is refused wherever the spec lists it.
        let err = TransformSpec::new(&["GENDER"]).bind(&schema).unwrap_err();
        let err = err.to_string();
        assert!(
            err.contains("position 1") && err.contains("position 2"),
            "{err}"
        );
        // A listed name resolves ignoring case, to the schema's spelling.
        let listed = TransformSpec {
            recode_columns: vec!["ABANDONED".into()],
            coded_columns: vec![],
        };
        let bound = listed.bind(&schema).unwrap();
        assert_eq!(bound.recoded().collect::<Vec<_>>(), [(3, "abandoned")]);
        // Two categorical columns named alike cannot both be recoded.
        let twice = Schema::new(vec![Field::categorical("g"), Field::categorical("G")]);
        let err = TransformSpec::default()
            .bind(&twice)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("position 0") && err.contains("position 1") && err.contains("one name"),
            "{err}"
        );
        // A coded column must be recoded.
        let unrecoded = TransformSpec {
            coded_columns: vec![("Age".into(), Coding::Effect)],
            ..listed
        };
        let err = unrecoded.bind(&schema).unwrap_err().to_string();
        assert!(err.contains("is not among the recoded columns"), "{err}");
    }
}
