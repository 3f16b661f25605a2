//! Plan semantic analyzer (level 1 of the workspace static-analysis
//! suite).
//!
//! [`validate`] walks a [`Plan`] tree bottom-up and re-derives what each
//! node's output must look like, checking it against what the node
//! *claims* (its embedded schema). The planner and optimizer are supposed
//! to uphold these invariants by construction; this pass catches the day
//! they silently stop doing so — after a new rewrite rule, a UDF change,
//! or a hand-built plan. It runs after planning and after every optimizer
//! rewrite when debug assertions are on (so under `cargo test` it is a
//! hard error, while release binaries pay nothing), and the `planlint`
//! binary runs it over the whole workload corpus explicitly.
//!
//! Invariants checked, per node:
//!
//! * **Scan** — the table is registered in the catalog under the same
//!   name with an identical schema, and it has at least one partition
//!   (partition-homing: every downstream `map_partitions` stage and
//!   gathered operator homes on partition 0, which must exist).
//! * **Column references** — every `Expr::Col(i)` is in range for the
//!   schema of the node it evaluates against.
//! * **Expression types** — operands are type-compatible (comparisons on
//!   comparable types, arithmetic/negation on numerics, AND/OR/NOT on
//!   booleans, LIKE on strings), mirroring the executor's runtime rules.
//! * **Filter** predicates evaluate to `BOOLEAN`.
//! * **Project / Aggregate / HashJoin / TableUdfScan** — the declared
//!   output schema agrees column-by-column with the types derived from
//!   the inputs (for joins: left ⧺ right, or for a projecting join the
//!   `project` columns of it, each in range; for aggregates: group
//!   columns then aggregate results; for UDFs: whatever `output_schema`
//!   reports, which also re-checks the UDF's literal-argument
//!   signature/arity).
//! * **Sort** keys index into the input schema.
//!
//! Every diagnostic is a [`SqlmlError::PlanValidation`] naming the node
//! and the mismatch, so tests can assert on the failure class.

use sqlml_common::schema::DataType;
use sqlml_common::{Result, Schema, SqlmlError};

use crate::ast::{AggFunc, ArithOp};
use crate::catalog::Catalog;
use crate::expr::Expr;
use crate::plan::{AggExpr, Plan};

fn fail(node: &str, msg: impl AsRef<str>) -> SqlmlError {
    SqlmlError::PlanValidation(format!("{node}: {}", msg.as_ref()))
}

/// Derive the static type of `e` evaluated against `input`, failing on
/// out-of-range column references or operand type mismatches. Mirrors the
/// planner's `infer_field` rules exactly — if the two ever disagree the
/// schema-agreement checks in [`validate`] will trip. A literal NULL is
/// untyped and satisfies any operand check; where a concrete type is
/// needed (UDF signatures, declared schemas) it lands as VARCHAR, the
/// planner's convention.
pub fn expr_type(e: &Expr, input: &Schema, node: &str) -> Result<DataType> {
    Ok(ty(e, input, node)?.unwrap_or(DataType::Str))
}

/// `None` = a literal NULL with no intrinsic type (compatible with any
/// operand position, like in the executor's three-valued logic).
fn ty(e: &Expr, input: &Schema, node: &str) -> Result<Option<DataType>> {
    let compatible = |a: Option<DataType>, b: Option<DataType>| match (a, b) {
        (Some(x), Some(y)) => x == y || (x.is_numeric() && y.is_numeric()),
        _ => true,
    };
    match e {
        Expr::Col(i) => {
            if *i >= input.len() {
                return Err(fail(
                    node,
                    format!(
                        "column reference #{i} out of range for {}-column input [{}]",
                        input.len(),
                        input.names().join(", ")
                    ),
                ));
            }
            Ok(Some(input.field(*i).data_type))
        }
        Expr::Lit(v) => Ok(v.data_type()),
        Expr::Cmp { left, right, .. } => {
            let l = ty(left, input, node)?;
            let r = ty(right, input, node)?;
            if !compatible(l, r) {
                let (l, r) = (l.unwrap_or(DataType::Str), r.unwrap_or(DataType::Str));
                return Err(fail(
                    node,
                    format!("type mismatch: cannot compare {l} with {r}"),
                ));
            }
            Ok(Some(DataType::Bool))
        }
        Expr::And(l, r) | Expr::Or(l, r) => {
            for (side, x) in [("left", l), ("right", r)] {
                if let Some(t) = ty(x, input, node)? {
                    if t != DataType::Bool {
                        return Err(fail(
                            node,
                            format!("type mismatch: {side} operand of AND/OR is {t}, not BOOLEAN"),
                        ));
                    }
                }
            }
            Ok(Some(DataType::Bool))
        }
        Expr::Not(x) => {
            if let Some(t) = ty(x, input, node)? {
                if t != DataType::Bool {
                    return Err(fail(
                        node,
                        format!("type mismatch: NOT applied to {t}, not BOOLEAN"),
                    ));
                }
            }
            Ok(Some(DataType::Bool))
        }
        Expr::IsNull { expr, .. } => {
            ty(expr, input, node)?;
            Ok(Some(DataType::Bool))
        }
        Expr::InList { expr, list, .. } => {
            let t = ty(expr, input, node)?;
            for item in list {
                let it = ty(item, input, node)?;
                if !compatible(t, it) {
                    let (t, it) = (t.unwrap_or(DataType::Str), it.unwrap_or(DataType::Str));
                    return Err(fail(
                        node,
                        format!("type mismatch: IN list item is {it}, subject is {t}"),
                    ));
                }
            }
            Ok(Some(DataType::Bool))
        }
        Expr::Between { expr, lo, hi } => {
            let t = ty(expr, input, node)?;
            for bound in [lo, hi] {
                let bt = ty(bound, input, node)?;
                if !compatible(t, bt) {
                    let (t, bt) = (t.unwrap_or(DataType::Str), bt.unwrap_or(DataType::Str));
                    return Err(fail(
                        node,
                        format!("type mismatch: BETWEEN bound is {bt}, subject is {t}"),
                    ));
                }
            }
            Ok(Some(DataType::Bool))
        }
        Expr::Like { expr, pattern, .. } => {
            for (what, x) in [("subject", expr), ("pattern", pattern)] {
                if let Some(t) = ty(x, input, node)? {
                    if t != DataType::Str {
                        return Err(fail(
                            node,
                            format!("type mismatch: LIKE {what} is {t}, not VARCHAR"),
                        ));
                    }
                }
            }
            Ok(Some(DataType::Bool))
        }
        Expr::Cast { expr, to } => {
            ty(expr, input, node)?;
            Ok(Some(*to))
        }
        Expr::Arith { op, left, right } => {
            let l = ty(left, input, node)?;
            let r = ty(right, input, node)?;
            for t in [l, r].into_iter().flatten() {
                if !t.is_numeric() {
                    let (l, r) = (l.unwrap_or(DataType::Str), r.unwrap_or(DataType::Str));
                    return Err(fail(
                        node,
                        format!("type mismatch: arithmetic on {l} and {r}"),
                    ));
                }
            }
            // The planner types a NULL operand as VARCHAR, which lands in
            // its `else` branch — so a NULL operand derives DOUBLE here
            // too, keeping the two inferences aligned.
            if l == Some(DataType::Int) && r == Some(DataType::Int) && *op != ArithOp::Div {
                Ok(Some(DataType::Int))
            } else {
                Ok(Some(DataType::Double))
            }
        }
        Expr::Neg(x) => {
            let t = ty(x, input, node)?;
            if let Some(t) = t {
                if !t.is_numeric() {
                    return Err(fail(node, format!("type mismatch: negation of {t}")));
                }
            }
            Ok(t)
        }
        Expr::Scalar { udf, args } => {
            let mut tys = Vec::with_capacity(args.len());
            for a in args {
                // NULL argument -> VARCHAR, the planner's convention, so
                // `return_type` sees identical inputs in both passes.
                tys.push(ty(a, input, node)?.unwrap_or(DataType::Str));
            }
            Ok(Some(udf.return_type(&tys)))
        }
    }
}

fn agg_type(agg: &AggExpr, input: &Schema, node: &str) -> Result<DataType> {
    Ok(match agg.func {
        AggFunc::Count => DataType::Int,
        AggFunc::Avg | AggFunc::Sum => {
            if let Some(arg) = &agg.arg {
                let t = expr_type(arg, input, node)?;
                if !t.is_numeric() {
                    return Err(fail(
                        node,
                        format!("type mismatch: {:?} over non-numeric {t}", agg.func),
                    ));
                }
            }
            DataType::Double
        }
        AggFunc::Min | AggFunc::Max => match &agg.arg {
            Some(arg) => expr_type(arg, input, node)?,
            None => DataType::Int,
        },
    })
}

fn check_types_match(derived: &[DataType], declared: &Schema, node: &str) -> Result<()> {
    if derived.len() != declared.len() {
        return Err(fail(
            node,
            format!(
                "schema mismatch: node declares {} columns [{}] but derives {}",
                declared.len(),
                declared.names().join(", "),
                derived.len()
            ),
        ));
    }
    for (i, (d, f)) in derived.iter().zip(declared.fields()).enumerate() {
        if *d != f.data_type {
            return Err(fail(
                node,
                format!(
                    "schema mismatch: column {i} ({:?}) declared {} but derives {d}",
                    f.name, f.data_type
                ),
            ));
        }
    }
    Ok(())
}

fn schemas_equal(a: &Schema, b: &Schema) -> bool {
    a.len() == b.len()
        && a.fields()
            .iter()
            .zip(b.fields())
            .all(|(x, y)| x.name == y.name && x.data_type == y.data_type)
}

/// Validate one plan tree against the catalog. Returns the plan's
/// (verified) output schema; callers usually only care about `Ok`/`Err`.
pub fn validate(plan: &Plan, catalog: &Catalog) -> Result<Schema> {
    match plan {
        Plan::Scan { name, table } => {
            let registered = catalog
                .table(name)
                .map_err(|_| fail("Scan", format!("table {name:?} is not in the catalog")))?;
            if !schemas_equal(registered.schema(), table.schema()) {
                return Err(fail(
                    "Scan",
                    format!(
                        "schema mismatch: plan scans {name:?} as [{}] but the catalog has [{}]",
                        table.schema().names().join(", "),
                        registered.schema().names().join(", ")
                    ),
                ));
            }
            if table.num_partitions() == 0 {
                return Err(fail(
                    "Scan",
                    format!("table {name:?} has no partitions to home operators on"),
                ));
            }
            Ok(table.schema().clone())
        }
        Plan::TableUdfScan {
            udf,
            input,
            args,
            schema,
        } => {
            let in_schema = validate(input, catalog)?;
            // Re-deriving the output schema re-runs the UDF's own
            // argument validation — arity and literal types included
            // (a UDF bound at plan time checked them when it was bound).
            let derived = udf.output_schema(&in_schema, args).map_err(|e| {
                fail(
                    "TableUdfScan",
                    format!("udf {:?} rejected its signature: {e}", udf.name()),
                )
            })?;
            if !schemas_equal(&derived, schema) {
                return Err(fail(
                    "TableUdfScan",
                    format!(
                        "schema mismatch: udf {:?} derives [{}] but node declares [{}]",
                        udf.name(),
                        derived.names().join(", "),
                        schema.names().join(", ")
                    ),
                ));
            }
            Ok(schema.clone())
        }
        Plan::Filter { input, predicate } => {
            let in_schema = validate(input, catalog)?;
            let t = expr_type(predicate, &in_schema, "Filter")?;
            if t != DataType::Bool {
                return Err(fail(
                    "Filter",
                    format!("type mismatch: predicate evaluates to {t}, not BOOLEAN"),
                ));
            }
            Ok(in_schema)
        }
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            let in_schema = validate(input, catalog)?;
            let derived: Vec<DataType> = exprs
                .iter()
                .map(|e| expr_type(e, &in_schema, "Project"))
                .collect::<Result<_>>()?;
            check_types_match(&derived, schema, "Project")?;
            Ok(schema.clone())
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            project,
            schema,
            ..
        } => {
            let ls = validate(left, catalog)?;
            let rs = validate(right, catalog)?;
            if left_keys.len() != right_keys.len() {
                return Err(fail(
                    "HashJoin",
                    format!(
                        "{} left keys but {} right keys",
                        left_keys.len(),
                        right_keys.len()
                    ),
                ));
            }
            for (lk, rk) in left_keys.iter().zip(right_keys) {
                let lt = expr_type(lk, &ls, "HashJoin")?;
                let rt = expr_type(rk, &rs, "HashJoin")?;
                if lt != rt && !(lt.is_numeric() && rt.is_numeric()) {
                    return Err(fail(
                        "HashJoin",
                        format!("type mismatch: join key pairs {lt} with {rt}"),
                    ));
                }
            }
            let joined = ls.join(&rs);
            match project {
                None => {
                    if !schemas_equal(&joined, schema) {
                        return Err(fail(
                            "HashJoin",
                            format!(
                                "schema mismatch: sides join to [{}] but node declares [{}]",
                                joined.names().join(", "),
                                schema.names().join(", ")
                            ),
                        ));
                    }
                }
                // A projecting join is a column-only Project folded in:
                // same range and type rules, names are the Project's.
                Some(cols) => {
                    let derived: Vec<DataType> = cols
                        .iter()
                        .map(|c| expr_type(&Expr::Col(*c), &joined, "HashJoin project"))
                        .collect::<Result<_>>()?;
                    check_types_match(&derived, schema, "HashJoin project")?;
                }
            }
            Ok(schema.clone())
        }
        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => {
            let in_schema = validate(input, catalog)?;
            let mut derived = Vec::with_capacity(group_exprs.len() + aggs.len());
            for g in group_exprs {
                derived.push(expr_type(g, &in_schema, "Aggregate")?);
            }
            for a in aggs {
                derived.push(agg_type(a, &in_schema, "Aggregate")?);
            }
            check_types_match(&derived, schema, "Aggregate")?;
            Ok(schema.clone())
        }
        Plan::Sort { input, keys } => {
            let in_schema = validate(input, catalog)?;
            for (i, _) in keys {
                if *i >= in_schema.len() {
                    return Err(fail(
                        "Sort",
                        format!(
                            "column reference #{i} out of range for {}-column input",
                            in_schema.len()
                        ),
                    ));
                }
            }
            Ok(in_schema)
        }
        Plan::Limit { input, .. } => validate(input, catalog),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::PartitionedTable;
    use sqlml_common::schema::Field;
    use sqlml_common::{row, Value};
    use std::sync::Arc;

    fn catalog_with_t() -> (Catalog, Arc<PartitionedTable>) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("s", DataType::Str),
        ]);
        let rows = vec![row![1i64, "x"], row![2i64, "y"]];
        let table = Arc::new(PartitionedTable::partition_rows(schema, &rows, 2, &[]));
        let cat = Catalog::new();
        cat.register_table_arc("t", Arc::clone(&table));
        (cat, table)
    }

    fn scan(table: &Arc<PartitionedTable>) -> Plan {
        Plan::Scan {
            name: "t".into(),
            table: Arc::clone(table),
        }
    }

    #[test]
    fn valid_filter_project_passes() {
        let (cat, t) = catalog_with_t();
        let plan = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(scan(&t)),
                predicate: Expr::Cmp {
                    op: crate::ast::CmpOp::Gt,
                    left: Box::new(Expr::Col(0)),
                    right: Box::new(Expr::Lit(Value::Int(1))),
                },
            }),
            exprs: vec![Expr::Col(1)],
            schema: Schema::new(vec![Field::new("s", DataType::Str)]),
        };
        assert!(validate(&plan, &cat).is_ok());
    }

    #[test]
    fn out_of_range_column_is_rejected() {
        let (cat, t) = catalog_with_t();
        let plan = Plan::Project {
            input: Box::new(scan(&t)),
            exprs: vec![Expr::Col(7)],
            schema: Schema::new(vec![Field::new("x", DataType::Int)]),
        };
        let err = validate(&plan, &cat).unwrap_err().to_string();
        assert!(err.contains("column reference #7 out of range"), "{err}");
    }

    #[test]
    fn declared_type_lie_is_rejected() {
        let (cat, t) = catalog_with_t();
        let plan = Plan::Project {
            input: Box::new(scan(&t)),
            exprs: vec![Expr::Col(0)],
            schema: Schema::new(vec![Field::new("a", DataType::Str)]), // lies: col 0 is Int
        };
        let err = validate(&plan, &cat).unwrap_err().to_string();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn unregistered_scan_is_rejected() {
        let (_, t) = catalog_with_t();
        let empty = Catalog::new();
        let err = validate(&scan(&t), &empty).unwrap_err().to_string();
        assert!(err.contains("not in the catalog"), "{err}");
    }

    #[test]
    fn non_boolean_filter_is_rejected() {
        let (cat, t) = catalog_with_t();
        let plan = Plan::Filter {
            input: Box::new(scan(&t)),
            predicate: Expr::Col(0), // Int, not Bool
        };
        let err = validate(&plan, &cat).unwrap_err().to_string();
        assert!(err.contains("not BOOLEAN"), "{err}");
    }

    #[test]
    fn arithmetic_on_strings_is_rejected() {
        let (cat, t) = catalog_with_t();
        let plan = Plan::Filter {
            input: Box::new(scan(&t)),
            predicate: Expr::Cmp {
                op: crate::ast::CmpOp::Eq,
                left: Box::new(Expr::Arith {
                    op: ArithOp::Add,
                    left: Box::new(Expr::Col(1)), // Str
                    right: Box::new(Expr::Lit(Value::Int(1))),
                }),
                right: Box::new(Expr::Lit(Value::Int(2))),
            },
        };
        let err = validate(&plan, &cat).unwrap_err().to_string();
        assert!(err.contains("arithmetic"), "{err}");
    }

    fn self_join(t: &Arc<PartitionedTable>, project: Option<Vec<usize>>, schema: Schema) -> Plan {
        Plan::HashJoin {
            left: Box::new(scan(t)),
            right: Box::new(scan(t)),
            left_keys: vec![Expr::Col(0)],
            right_keys: vec![Expr::Col(0)],
            kind: crate::ast::JoinKind::Inner,
            build: crate::plan::BuildSide::Right,
            project,
            schema,
        }
    }

    #[test]
    fn projecting_join_is_checked_like_a_project_over_the_join() {
        let (cat, t) = catalog_with_t();
        // (a, s) ⋈ (a, s) projected to (right.s, left.a).
        let ok = Schema::new(vec![
            Field::new("rs", DataType::Str),
            Field::new("la", DataType::Int),
        ]);
        assert!(validate(&self_join(&t, Some(vec![3, 0]), ok.clone()), &cat).is_ok());

        let err = validate(&self_join(&t, Some(vec![4, 0]), ok.clone()), &cat)
            .unwrap_err()
            .to_string();
        assert!(err.contains("HashJoin project"), "{err}");
        assert!(err.contains("column reference #4 out of range"), "{err}");

        // Declared VARCHAR, BIGINT but the columns picked are BIGINT, BIGINT.
        let err = validate(&self_join(&t, Some(vec![2, 0]), ok.clone()), &cat)
            .unwrap_err()
            .to_string();
        assert!(err.contains("declared VARCHAR but derives BIGINT"), "{err}");

        // Without a projection the declared schema must be left ++ right.
        let err = validate(&self_join(&t, None, ok), &cat)
            .unwrap_err()
            .to_string();
        assert!(err.contains("sides join to"), "{err}");
    }
}
