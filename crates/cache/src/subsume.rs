//! Predicate implication and the §5.1 / §5.2 matching conditions.

use std::collections::BTreeSet;

use sqlml_common::Value;
use sqlml_sqlengine::ast::CmpOp;

use crate::descriptor::{ColRef, QueryDescriptor, SimplePredicate};

/// Does `stronger` (a predicate of the *new* query) logically imply
/// `weaker` (a predicate of the *cached* query) over the same column?
///
/// Sound but deliberately incomplete single-predicate reasoning — the
/// cases the paper's example needs (`a < 18` implies `a <= 20`) plus the
/// equality/ordering family. A `false` answer only costs a cache miss.
pub fn predicate_implies(stronger: &SimplePredicate, weaker: &SimplePredicate) -> bool {
    if stronger.col != weaker.col {
        return false;
    }
    if stronger.op == weaker.op && stronger.value == weaker.value {
        return true;
    }
    let sv = &stronger.value;
    let wv = &weaker.value;
    if sv.is_null() || wv.is_null() {
        return false; // NULL comparisons never pass anyway; don't reason.
    }
    match stronger.op {
        // col = v implies anything v satisfies.
        CmpOp::Eq => eval_cmp(weaker.op, sv, wv),
        CmpOp::Lt => match weaker.op {
            CmpOp::Lt | CmpOp::LtEq => sv <= wv,
            CmpOp::NotEq => wv >= sv,
            _ => false,
        },
        CmpOp::LtEq => match weaker.op {
            CmpOp::Lt => sv < wv,
            CmpOp::LtEq => sv <= wv,
            CmpOp::NotEq => wv > sv,
            _ => false,
        },
        CmpOp::Gt => match weaker.op {
            CmpOp::Gt | CmpOp::GtEq => sv >= wv,
            CmpOp::NotEq => wv <= sv,
            _ => false,
        },
        CmpOp::GtEq => match weaker.op {
            CmpOp::Gt => sv > wv,
            CmpOp::GtEq => sv >= wv,
            CmpOp::NotEq => wv < sv,
            _ => false,
        },
        CmpOp::NotEq => weaker.op == CmpOp::NotEq && sv == wv,
    }
}

/// Evaluate `left op right` over constant values.
fn eval_cmp(op: CmpOp, left: &Value, right: &Value) -> bool {
    match op {
        CmpOp::Eq => left == right,
        CmpOp::NotEq => left != right,
        CmpOp::Lt => left < right,
        CmpOp::LtEq => left <= right,
        CmpOp::Gt => left > right,
        CmpOp::GtEq => left >= right,
    }
}

/// §5.1: can `new` be answered entirely from the cached result of
/// `cached`? On success returns the *extra* predicates `new` adds (to be
/// applied over the cached table).
///
/// Conditions (quoting the paper):
/// 1. same tables in FROM, same join conditions and predicates in WHERE;
/// 2. projected fields are a subset of the cached projection;
/// 3. additional conjunctive predicates only on the cached projection.
pub fn full_result_match<'a>(
    cached: &QueryDescriptor,
    new: &'a QueryDescriptor,
) -> Option<Vec<&'a SimplePredicate>> {
    if cached.tables != new.tables || cached.joins != new.joins {
        return None;
    }
    // Condition 2.
    let cached_proj: BTreeSet<&ColRef> = cached.projections.iter().collect();
    if !new.projections.iter().all(|p| cached_proj.contains(p)) {
        return None;
    }
    // Condition 1 (predicates) + 3 (extras): every cached predicate must
    // appear verbatim in the new query; leftovers must touch projected
    // columns only.
    let mut remaining: Vec<&SimplePredicate> = new.predicates.iter().collect();
    for cp in &cached.predicates {
        match remaining.iter().position(|np| *np == cp) {
            Some(pos) => {
                remaining.remove(pos);
            }
            None => return None,
        }
    }
    if remaining.iter().any(|p| !cached_proj.contains(&p.col)) {
        return None;
    }
    Some(remaining)
}

/// §5.2: can the recode map built for `cached` be reused for `new`?
///
/// Conditions:
/// 1. same tables, same join conditions;
/// 2. predicates on the same set of fields, each the same or logically
///    stronger than the cached one;
/// 3. the new query's projected *categorical* fields are a subset of the
///    cached ones (checked by the caller against the map's columns);
/// 4. additional predicates are conjunctive (guaranteed by descriptor
///    construction).
pub fn recode_map_match(cached: &QueryDescriptor, new: &QueryDescriptor) -> bool {
    if cached.tables != new.tables || cached.joins != new.joins {
        return false;
    }
    // Every cached predicate must be implied by some new predicate on the
    // same column: the new result is then a subset of the cached one, so
    // every categorical value in it already has a code.
    for cp in &cached.predicates {
        let implied = new
            .predicates_on(&cp.col)
            .iter()
            .any(|np| predicate_implies(np, cp));
        if !implied {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(col: &str, op: CmpOp, v: impl Into<Value>) -> SimplePredicate {
        SimplePredicate {
            col: ColRef::new("t", col),
            op,
            value: v.into(),
        }
    }

    #[test]
    fn the_papers_example_implication() {
        // "a < 18 is logically stronger than a <= 20"
        assert!(predicate_implies(
            &pred("a", CmpOp::Lt, 18i64),
            &pred("a", CmpOp::LtEq, 20i64)
        ));
        assert!(!predicate_implies(
            &pred("a", CmpOp::LtEq, 20i64),
            &pred("a", CmpOp::Lt, 18i64)
        ));
    }

    #[test]
    fn equality_implies_whatever_it_satisfies() {
        assert!(predicate_implies(
            &pred("a", CmpOp::Eq, 5i64),
            &pred("a", CmpOp::Lt, 10i64)
        ));
        assert!(predicate_implies(
            &pred("a", CmpOp::Eq, 5i64),
            &pred("a", CmpOp::NotEq, 7i64)
        ));
        assert!(!predicate_implies(
            &pred("a", CmpOp::Eq, 15i64),
            &pred("a", CmpOp::Lt, 10i64)
        ));
    }

    #[test]
    fn boundary_cases_of_ordering_implication() {
        // col < 10 implies col < 10 and col <= 10, not col < 9.
        assert!(predicate_implies(
            &pred("a", CmpOp::Lt, 10i64),
            &pred("a", CmpOp::Lt, 10i64)
        ));
        assert!(predicate_implies(
            &pred("a", CmpOp::Lt, 10i64),
            &pred("a", CmpOp::LtEq, 10i64)
        ));
        assert!(!predicate_implies(
            &pred("a", CmpOp::Lt, 10i64),
            &pred("a", CmpOp::Lt, 9i64)
        ));
        // col <= 10 implies col < 11 (integers or not, 10 < 11).
        assert!(predicate_implies(
            &pred("a", CmpOp::LtEq, 10i64),
            &pred("a", CmpOp::Lt, 11i64)
        ));
        assert!(!predicate_implies(
            &pred("a", CmpOp::LtEq, 10i64),
            &pred("a", CmpOp::Lt, 10i64)
        ));
        // Upper bounds never imply lower bounds.
        assert!(!predicate_implies(
            &pred("a", CmpOp::Lt, 10i64),
            &pred("a", CmpOp::Gt, 0i64)
        ));
        // Mirrors.
        assert!(predicate_implies(
            &pred("a", CmpOp::Gt, 20i64),
            &pred("a", CmpOp::GtEq, 18i64)
        ));
        assert!(predicate_implies(
            &pred("a", CmpOp::GtEq, 21i64),
            &pred("a", CmpOp::Gt, 20i64)
        ));
    }

    #[test]
    fn not_eq_only_implies_itself() {
        assert!(predicate_implies(
            &pred("a", CmpOp::NotEq, 3i64),
            &pred("a", CmpOp::NotEq, 3i64)
        ));
        assert!(!predicate_implies(
            &pred("a", CmpOp::NotEq, 3i64),
            &pred("a", CmpOp::NotEq, 4i64)
        ));
        // But bounds imply inequality with out-of-range constants.
        assert!(predicate_implies(
            &pred("a", CmpOp::Lt, 5i64),
            &pred("a", CmpOp::NotEq, 9i64)
        ));
    }

    #[test]
    fn different_columns_never_imply() {
        assert!(!predicate_implies(
            &pred("a", CmpOp::Eq, 1i64),
            &pred("b", CmpOp::Eq, 1i64)
        ));
    }

    #[test]
    fn string_predicates() {
        assert!(predicate_implies(
            &pred("c", CmpOp::Eq, "USA"),
            &pred("c", CmpOp::Eq, "USA")
        ));
        assert!(!predicate_implies(
            &pred("c", CmpOp::Eq, "USA"),
            &pred("c", CmpOp::Eq, "CA")
        ));
    }

    // -- descriptor-level matches ------------------------------------------

    fn base_descriptor() -> QueryDescriptor {
        QueryDescriptor {
            tables: ["carts".to_string(), "users".to_string()]
                .into_iter()
                .collect(),
            joins: [(
                ColRef::new("carts", "userid"),
                ColRef::new("users", "userid"),
            )]
            .into_iter()
            .collect(),
            predicates: vec![SimplePredicate {
                col: ColRef::new("users", "country"),
                op: CmpOp::Eq,
                value: Value::Str("USA".into()),
            }],
            projections: vec![
                ColRef::new("users", "age"),
                ColRef::new("users", "gender"),
                ColRef::new("carts", "amount"),
                ColRef::new("carts", "abandoned"),
            ],
            // The matchers read no output schema.
            output: sqlml_common::Schema::empty(),
        }
    }

    #[test]
    fn full_match_paper_section_5_1_example() {
        let cached = base_descriptor();
        // The paper's reusable query: subset projection + extra predicate
        // on a projected field (gender).
        let mut new = base_descriptor();
        new.projections = vec![
            ColRef::new("users", "age"),
            ColRef::new("carts", "amount"),
            ColRef::new("carts", "abandoned"),
        ];
        new.predicates.push(SimplePredicate {
            col: ColRef::new("users", "gender"),
            op: CmpOp::Eq,
            value: Value::Str("F".into()),
        });
        let extras = full_result_match(&cached, &new).unwrap();
        assert_eq!(extras.len(), 1);
        assert_eq!(extras[0].col, ColRef::new("users", "gender"));
    }

    #[test]
    fn full_match_rejects_the_papers_negative_example() {
        let cached = base_descriptor();
        // §5.2's query: projects nitems (not cached) and adds a predicate
        // on year (not projected) — "the cached data cannot be used at
        // all".
        let mut new = base_descriptor();
        new.projections.push(ColRef::new("carts", "nitems"));
        new.predicates.push(SimplePredicate {
            col: ColRef::new("carts", "year"),
            op: CmpOp::Eq,
            value: Value::Int(2014),
        });
        assert!(full_result_match(&cached, &new).is_none());
        // But the recode map IS reusable for it (§5.2's point): same
        // tables/joins, country predicate unchanged, extra conjunct only
        // shrinks the result.
        assert!(recode_map_match(&cached, &new));
    }

    #[test]
    fn full_match_requires_identical_base_predicates() {
        let cached = base_descriptor();
        let mut new = base_descriptor();
        new.predicates[0].value = Value::Str("CA".into());
        assert!(full_result_match(&cached, &new).is_none());
    }

    #[test]
    fn full_match_rejects_extra_predicate_on_unprojected_column() {
        let cached = base_descriptor();
        let mut new = base_descriptor();
        new.predicates.push(SimplePredicate {
            col: ColRef::new("users", "userid"), // not projected
            op: CmpOp::Gt,
            value: Value::Int(5),
        });
        assert!(full_result_match(&cached, &new).is_none());
    }

    #[test]
    fn map_match_accepts_stronger_predicates() {
        let mut cached = base_descriptor();
        cached.predicates.push(SimplePredicate {
            col: ColRef::new("users", "age"),
            op: CmpOp::LtEq,
            value: Value::Int(20),
        });
        let mut new = base_descriptor();
        new.predicates.push(SimplePredicate {
            col: ColRef::new("users", "age"),
            op: CmpOp::Lt,
            value: Value::Int(18),
        });
        assert!(recode_map_match(&cached, &new));
        // The reverse direction must fail (weaker predicate would surface
        // unseen categorical values).
        assert!(!recode_map_match(&new, &cached));
    }

    #[test]
    fn map_match_requires_same_joins() {
        let cached = base_descriptor();
        let mut new = base_descriptor();
        new.joins.clear();
        assert!(!recode_map_match(&cached, &new));
    }
}
