//! Normalized descriptors of preparation queries.
//!
//! A [`QueryDescriptor`] captures exactly the parts of a
//! select-project-join query that the §5 matching conditions reason
//! about: the table set, the equi-join conditions, the conjunctive
//! column-vs-literal predicates, and the projected columns. Queries that
//! do not fit this shape (aggregates, disjunctions, self-joins, …) are
//! simply not cacheable and yield `None`.

use std::collections::BTreeSet;

use sqlml_common::schema::Field;
use sqlml_common::{Result, Schema, Value};
use sqlml_sqlengine::ast::{AstExpr, CmpOp, SelectItem, SelectStmt, TableRef};
use sqlml_sqlengine::catalog::{self, Catalog};
use sqlml_sqlengine::planner::Scope;

/// A column of a base table, alias-resolved: `(table, column)`, the table
/// by its [`catalog::key`], the column as the table's schema spells it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColRef {
    pub table: String,
    pub column: String,
}

impl ColRef {
    pub fn new(table: &str, column: &str) -> Self {
        ColRef {
            table: catalog::key(table),
            column: column.to_string(),
        }
    }
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// A conjunctive `column op literal` predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplePredicate {
    pub col: ColRef,
    pub op: CmpOp,
    pub value: Value,
}

impl std::fmt::Display for SimplePredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.col, self.op.symbol(), self.value)
    }
}

/// The normalized shape of a cacheable preparation query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDescriptor {
    /// Base tables referenced, by [`catalog::key`]. Self-joins are
    /// rejected during construction, so a set suffices.
    pub tables: BTreeSet<String>,
    /// Equi-join conditions, each stored with its two sides in canonical
    /// (sorted) order.
    pub joins: BTreeSet<(ColRef, ColRef)>,
    /// Conjunctive column-vs-literal predicates.
    pub predicates: Vec<SimplePredicate>,
    /// Projected columns, in output order.
    pub projections: Vec<ColRef>,
    /// The query's output schema, the one a transformation spec binds
    /// to: field `i` is projection `i` named by its alias, or as the query
    /// spells the column, and typed and flagged as its base column — what
    /// the planner makes of the query.
    pub output: Schema,
}

impl QueryDescriptor {
    /// Build from a parsed SELECT. Returns `Ok(None)` when the query does
    /// not have the cacheable SPJ shape, or names a column the planner
    /// would refuse (it reports why).
    pub fn from_select(stmt: &SelectStmt, catalog: &Catalog) -> Result<Option<QueryDescriptor>> {
        // Shape gate: plain conjunctive select-project-join only.
        if stmt.distinct
            || !stmt.group_by.is_empty()
            || stmt.having.is_some()
            || !stmt.order_by.is_empty()
            || stmt.limit.is_some()
            || !stmt.joins.is_empty()
        {
            return Ok(None);
        }

        // The FROM scope the planner resolves names in, and each
        // relation's table; reject self-joins and table functions (their
        // output is not a base relation).
        let (mut scope, mut relations) = (Scope::default(), Vec::new());
        let mut tables = BTreeSet::new();
        for t in &stmt.from {
            let TableRef::Named { name, alias } = t else {
                return Ok(None);
            };
            let (table, schema) = (catalog::key(name), catalog.table(name)?.schema().clone());
            if !tables.insert(table.clone())
                || scope
                    .bind(alias.as_deref().unwrap_or(name), schema.clone())
                    .is_err()
            {
                return Ok(None); // a self-join, or one binding twice
            }
            relations.push((table, schema));
        }

        // `[qualifier.]column` as the planner resolves it; `None` where the
        // planner refuses it.
        let resolve = |qualifier: Option<&str>, column: &str| -> Option<(ColRef, Field)> {
            let (at, _, field) = scope.resolve(qualifier, column).ok()?;
            Some((ColRef::new(&relations[at].0, &field.name), field))
        };

        // Projections: simple columns (or wildcards) only.
        let mut projected: Vec<(ColRef, Field)> = Vec::new();
        let expand = |(table, schema): &(String, Schema)| -> Vec<(ColRef, Field)> {
            (schema.fields().iter())
                .map(|f| (ColRef::new(table, &f.name), f.clone()))
                .collect()
        };
        for item in &stmt.projection {
            match item {
                SelectItem::Expr {
                    expr: AstExpr::Column { qualifier, name },
                    alias,
                } => {
                    let Some((col, mut field)) = resolve(qualifier.as_deref(), name) else {
                        return Ok(None);
                    };
                    field.name = alias.clone().unwrap_or_else(|| name.clone());
                    projected.push((col, field));
                }
                SelectItem::Wildcard => projected.extend(relations.iter().flat_map(expand)),
                SelectItem::QualifiedWildcard(q) => {
                    let Some(at) = scope.relation(q) else {
                        return Ok(None);
                    };
                    projected.extend(expand(&relations[at]));
                }
                _ => return Ok(None), // computed projections: not cacheable
            }
        }
        let (projections, fields): (Vec<_>, Vec<_>) = projected.into_iter().unzip();

        // WHERE: conjunctive, each conjunct either col=col (join) or
        // col-op-literal (predicate).
        let mut joins = BTreeSet::new();
        let mut predicates = Vec::new();
        if let Some(sel) = &stmt.selection {
            for conj in sel.conjuncts() {
                let AstExpr::Cmp { op, left, right } = conj else {
                    return Ok(None);
                };
                match (left.as_ref(), right.as_ref()) {
                    (
                        AstExpr::Column {
                            qualifier: ql,
                            name: nl,
                        },
                        AstExpr::Column {
                            qualifier: qr,
                            name: nr,
                        },
                    ) => {
                        if *op != CmpOp::Eq {
                            return Ok(None);
                        }
                        let (Some((a, _)), Some((b, _))) =
                            (resolve(ql.as_deref(), nl), resolve(qr.as_deref(), nr))
                        else {
                            return Ok(None);
                        };
                        let pair = if a <= b { (a, b) } else { (b, a) };
                        joins.insert(pair);
                    }
                    (AstExpr::Column { qualifier, name }, AstExpr::Literal(v)) => {
                        let Some((col, _)) = resolve(qualifier.as_deref(), name) else {
                            return Ok(None);
                        };
                        predicates.push(SimplePredicate {
                            col,
                            op: *op,
                            value: v.clone(),
                        });
                    }
                    (AstExpr::Literal(v), AstExpr::Column { qualifier, name }) => {
                        let Some((col, _)) = resolve(qualifier.as_deref(), name) else {
                            return Ok(None);
                        };
                        predicates.push(SimplePredicate {
                            col,
                            op: op.flipped(),
                            value: v.clone(),
                        });
                    }
                    _ => return Ok(None),
                }
            }
        }

        Ok(Some(QueryDescriptor {
            tables,
            joins,
            predicates,
            projections,
            output: Schema::new(fields),
        }))
    }

    /// The predicates grouped by column, for per-field implication
    /// checks.
    pub fn predicates_on(&self, col: &ColRef) -> Vec<&SimplePredicate> {
        self.predicates.iter().filter(|p| p.col == *col).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::schema::{DataType, Field, Schema};
    use sqlml_sqlengine::parser::parse_select;
    use sqlml_sqlengine::PartitionedTable;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let carts = Schema::new(vec![
            Field::new("userid", DataType::Int),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
            Field::new("year", DataType::Int),
            Field::new("nitems", DataType::Int),
        ]);
        let users = Schema::new(vec![
            Field::new("userid", DataType::Int),
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::categorical("country"),
        ]);
        c.register_table("carts", PartitionedTable::single(carts, vec![]));
        c.register_table("users", PartitionedTable::single(users, vec![]));
        c
    }

    fn descr(sql: &str) -> Option<QueryDescriptor> {
        QueryDescriptor::from_select(&parse_select(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn paper_query_descriptor() {
        let d = descr(
            "SELECT U.age, U.gender, C.amount, C.abandoned \
             FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA'",
        )
        .unwrap();
        assert_eq!(
            d.tables,
            ["carts", "users"].iter().map(|s| s.to_string()).collect()
        );
        assert_eq!(d.joins.len(), 1);
        let j = d.joins.iter().next().unwrap();
        assert_eq!(j.0, ColRef::new("carts", "userid"));
        assert_eq!(j.1, ColRef::new("users", "userid"));
        assert_eq!(d.predicates.len(), 1);
        assert_eq!(d.predicates[0].col, ColRef::new("users", "country"));
        assert_eq!(d.predicates[0].value, Value::Str("USA".into()));
        assert_eq!(d.projections.len(), 4);
        assert_eq!(d.projections[0], ColRef::new("users", "age"));
    }

    #[test]
    fn alias_and_case_normalization() {
        let a = descr(
            "SELECT u.AGE FROM Users U, Carts C WHERE c.USERID = U.userid AND u.country='USA'",
        )
        .unwrap();
        let b = descr(
            "SELECT users.age FROM users, carts \
             WHERE carts.userid = users.userid AND users.country='USA'",
        )
        .unwrap();
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.joins, b.joins);
        assert_eq!(a.projections, b.projections);
    }

    #[test]
    fn flipped_literal_predicates_normalize() {
        let a = descr("SELECT age FROM users WHERE 18 < age").unwrap();
        let b = descr("SELECT age FROM users WHERE age > 18").unwrap();
        assert_eq!(a.predicates, b.predicates);
    }

    #[test]
    fn non_spj_queries_are_not_cacheable() {
        assert!(descr("SELECT COUNT(*) FROM users").is_none());
        assert!(descr("SELECT DISTINCT gender FROM users").is_none());
        assert!(descr("SELECT age FROM users ORDER BY age").is_none());
        assert!(descr("SELECT age FROM users LIMIT 5").is_none());
        assert!(descr("SELECT age FROM users WHERE age > 10 OR age < 5").is_none());
        assert!(descr("SELECT age + 1 FROM users").is_none());
        assert!(descr("SELECT age FROM users WHERE age > userid").is_none());
    }

    #[test]
    fn self_joins_are_not_cacheable() {
        assert!(descr("SELECT a.age FROM users a, users b WHERE a.userid = b.userid").is_none());
    }

    #[test]
    fn wildcard_expands_against_catalog() {
        let d = descr("SELECT * FROM users WHERE country = 'USA'").unwrap();
        assert_eq!(d.projections.len(), 4);
        assert!(d.projections.contains(&ColRef::new("users", "gender")));
    }

    #[test]
    fn the_output_names_each_projection_by_its_alias_or_as_spelled() {
        let d = descr(
            "SELECT U.AGE, u.Gender AS sex, C.* FROM carts C, users U \
             WHERE C.userid = U.userid",
        )
        .unwrap();
        assert_eq!(d.output.names()[..3], ["AGE", "sex", "userid"]);
        assert_eq!(d.projections[1], ColRef::new("users", "gender"));
        assert!(d.output.field(1).categorical);
        assert_eq!(d.output.len(), d.projections.len());
        // A name two relations answer to is the planner's to refuse.
        assert!(descr("SELECT userid FROM carts, users").is_none());
    }

    #[test]
    fn predicate_grouping_helpers() {
        let d =
            descr("SELECT age FROM users WHERE age > 10 AND age < 20 AND country = 'USA'").unwrap();
        let age = ColRef::new("users", "age");
        assert_eq!(d.predicates_on(&age).len(), 2);
    }
}
