//! Seeded inputs: the preparation queries the workloads send, and an
//! oracle that counts each query's answer straight from the generated
//! warehouse rows — independently of the SQL engine every strategy shares.

use std::collections::BTreeMap;

use sqlml_common::SplitMix64;
use sqlml_core::workload::{Workload, WorkloadScale};
use sqlml_core::PipelineRequest;
use sqlml_transform::TransformSpec;

/// Which columns the preparation query projects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// `age, gender, amount, abandoned` — the paper's example query.
    Base,
    /// `age, amount, abandoned` — a subset of `Base`.
    Narrow,
    /// `age, gender, amount, nitems, abandoned` — a superset of `Base`.
    Wide,
}

/// One preparation query of the cart-abandonment family: the join of
/// carts and users, a country, and optional extra conjuncts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prep {
    pub shape: Shape,
    pub country: &'static str,
    pub age_gt: Option<i64>,
    pub amount_gt: Option<f64>,
    pub year: Option<i64>,
}

impl Prep {
    pub const fn base(country: &'static str) -> Prep {
        Prep {
            shape: Shape::Base,
            country,
            age_gt: None,
            amount_gt: None,
            year: None,
        }
    }

    /// SQL text; `Prep::base("USA")` spells `workload::PREP_QUERY`
    /// byte for byte.
    pub fn sql(&self) -> String {
        let cols = match self.shape {
            Shape::Base => "U.age, U.gender, C.amount, C.abandoned",
            Shape::Narrow => "U.age, C.amount, C.abandoned",
            Shape::Wide => "U.age, U.gender, C.amount, C.nitems, C.abandoned",
        };
        let mut sql = format!(
            "SELECT {cols} FROM carts C, users U \
             WHERE C.userid = U.userid AND U.country = '{}'",
            self.country
        );
        if let Some(a) = self.age_gt {
            sql.push_str(&format!(" AND U.age > {a}"));
        }
        if let Some(a) = self.amount_gt {
            sql.push_str(&format!(" AND C.amount > {a:?}"));
        }
        if let Some(y) = self.year {
            sql.push_str(&format!(" AND C.year = {y}"));
        }
        sql
    }

    /// Recode every categorical column; dummy-code gender where projected.
    pub fn spec(&self) -> TransformSpec {
        match self.shape {
            Shape::Narrow => TransformSpec::new(&[]),
            Shape::Base | Shape::Wide => TransformSpec::new(&["gender"]),
        }
    }

    /// Index of `abandoned` in the transformed layout.
    pub fn label(&self) -> usize {
        match self.shape {
            Shape::Narrow => 2,
            Shape::Base => 4,
            Shape::Wide => 5,
        }
    }

    pub fn request(&self, algorithm: &str) -> PipelineRequest {
        PipelineRequest {
            prep_sql: self.sql(),
            spec: self.spec(),
            ml_command: format!("{algorithm} label={} iterations=10", self.label()),
        }
    }

    fn accepts(&self, country: &str, age: i64, amount: f64, year: i64) -> bool {
        country == self.country
            && self.age_gt.is_none_or(|a| age > a)
            && self.amount_gt.is_none_or(|a| amount > a)
            && self.year.is_none_or(|y| year == y)
    }
}

/// Row count each query must deliver to the ML side, keyed by SQL text,
/// counted directly over the generated rows (a cart joins exactly one
/// user: `userid` is the user's index).
pub fn oracle_rows(scale: WorkloadScale, seed: u64, preps: &[Prep]) -> BTreeMap<String, usize> {
    let w = Workload::generate(scale, seed);
    let users: Vec<(i64, &str)> = w
        .users
        .iter()
        .map(|u| {
            (
                u.get(1).as_i64().expect("users.age is an integer"),
                u.get(3).as_str().expect("users.country is a string"),
            )
        })
        .collect();
    let mut counts = vec![0usize; preps.len()];
    for c in &w.carts {
        let uid = c.get(1).as_i64().expect("carts.userid is an integer") as usize;
        let amount = c.get(2).as_f64().expect("carts.amount is a number");
        let year = c.get(4).as_i64().expect("carts.year is an integer");
        let (age, country) = users[uid];
        for (n, p) in counts.iter_mut().zip(preps) {
            *n += usize::from(p.accepts(country, age, amount, year));
        }
    }
    preps.iter().map(Prep::sql).zip(counts).collect()
}

/// The six queries of one exploration session, in order, with the ML
/// algorithm each trains. Expected §5 reuse, in order: none (miss +
/// store), full, full, full, recode map, none.
pub fn session_script() -> [(Prep, &'static str); 6] {
    let base = Prep::base("USA");
    [
        (base, "svm"),
        (base, "logreg"),
        (
            Prep {
                age_gt: Some(40),
                ..base
            },
            "svm",
        ),
        (
            Prep {
                shape: Shape::Narrow,
                amount_gt: Some(60.0),
                ..base
            },
            "svm",
        ),
        (
            Prep {
                shape: Shape::Wide,
                year: Some(2014),
                ..base
            },
            "svm",
        ),
        (Prep::base("CA"), "svm"),
    ]
}

const SERVE_COUNTRIES: [&str; 8] = ["USA", "USA", "USA", "CA", "UK", "DE", "FR", "JP"];
const SERVE_AGES: [Option<i64>; 3] = [None, Some(30), Some(50)];

/// Every distinct query `serve_sequence` can emit.
pub fn serve_preps() -> Vec<Prep> {
    let mut out = Vec::new();
    for country in &SERVE_COUNTRIES[2..] {
        for age_gt in SERVE_AGES {
            out.push(Prep {
                age_gt,
                ..Prep::base(country)
            });
        }
    }
    out
}

/// An endless seeded query sequence for the serving workload. Each block
/// of 24 is one shuffle of the full country-slot × age-predicate grid, so
/// every seed sends the same mix (and so nearly the same work) and only
/// the order differs.
pub struct ServeSequence {
    rng: SplitMix64,
    block: Vec<Prep>,
}

impl ServeSequence {
    pub fn new(seed: u64) -> ServeSequence {
        ServeSequence {
            rng: SplitMix64::new(seed).fork(3),
            block: Vec::new(),
        }
    }
}

impl Iterator for ServeSequence {
    type Item = Prep;

    fn next(&mut self) -> Option<Prep> {
        if self.block.is_empty() {
            for country in SERVE_COUNTRIES {
                for age_gt in SERVE_AGES {
                    self.block.push(Prep {
                        age_gt,
                        ..Prep::base(country)
                    });
                }
            }
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_core::workload::PREP_QUERY;

    #[test]
    fn base_query_is_the_papers_prep_query() {
        assert_eq!(Prep::base("USA").sql(), PREP_QUERY);
        assert_eq!(
            Prep::base("USA").request("svm").ml_command,
            "svm label=4 iterations=10"
        );
    }

    #[test]
    fn extra_conjuncts_render_as_sql_literals() {
        let (q3, _) = session_script()[3];
        assert!(q3.sql().ends_with("AND C.amount > 60.0"), "{}", q3.sql());
        let (q4, _) = session_script()[4];
        assert!(q4.sql().contains("C.nitems") && q4.sql().ends_with("C.year = 2014"));
    }

    #[test]
    fn oracle_counts_shrink_with_each_conjunct() {
        let base = Prep::base("USA");
        let older = Prep {
            age_gt: Some(40),
            ..base
        };
        let counts = oracle_rows(WorkloadScale::TINY, 5, &[base, older, Prep::base("CA")]);
        let (all, old, ca) = (
            counts[&base.sql()],
            counts[&older.sql()],
            counts[&Prep::base("CA").sql()],
        );
        assert!(old > 0 && old < all, "{old} of {all}");
        assert!(ca > 0 && ca < all, "{ca} vs {all}");
    }

    #[test]
    fn serve_sequence_is_seeded_and_stratified() {
        let a: Vec<Prep> = ServeSequence::new(9).take(48).collect();
        let b: Vec<Prep> = ServeSequence::new(9).take(48).collect();
        let c: Vec<Prep> = ServeSequence::new(10).take(48).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for block in a.chunks(24) {
            let usa = block.iter().filter(|p| p.country == "USA").count();
            assert_eq!(usa, 9);
            let plain = block.iter().filter(|p| p.age_gt.is_none()).count();
            assert_eq!(plain, 8);
        }
        let distinct = serve_preps();
        assert_eq!(distinct.len(), 18);
        assert!(a.iter().all(|p| distinct.contains(p)));
    }
}
