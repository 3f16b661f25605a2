//! Plan optimization.
//!
//! Predicate pushdown happens at plan time (the planner pushes
//! single-relation conjuncts below joins); this pass handles what needs
//! whole-plan statistics, in one bottom-up rewrite:
//!
//! * **broadcast-side selection** — each hash join builds its table from
//!   the estimated-smaller input (the paper's prep query joins a billion-
//!   row fact table with a much smaller dimension table; broadcasting the
//!   small side is what an MPP engine does);
//! * removal of literal-`TRUE` filters and zero-limit shortcuts;
//! * **projecting joins** — a column-only `Project` sitting directly on a
//!   `HashJoin` folds into the join (`project: Some(cols)`), so the probe
//!   gathers only the projected columns and the full-width
//!   `left ++ right` batch is never built. The paper's preparation query
//!   is exactly this shape.
//!
//! Running a `Filter`/`Project`/`TableUdfScan` chain as one pass per
//! partition is the executor's job ([`crate::executor::execute`]), not a
//! plan shape.

use sqlml_common::Value;

use crate::ast::JoinKind;
use crate::expr::Expr;
use crate::plan::{BuildSide, Plan};

/// Optimize a plan tree (consuming it).
pub fn optimize(plan: Plan) -> Plan {
    match plan {
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            project,
            schema,
            ..
        } => {
            let left = Box::new(optimize(*left));
            let right = Box::new(optimize(*right));
            // A left-outer probe must stream the left side so unmatched
            // left rows can be emitted; only inner joins may flip.
            let build = if kind == JoinKind::Inner && left.estimated_rows() < right.estimated_rows()
            {
                BuildSide::Left
            } else {
                BuildSide::Right
            };
            Plan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                build,
                project,
                schema,
            }
        }
        Plan::Filter { input, predicate } => {
            let input = Box::new(optimize(*input));
            if matches!(predicate, Expr::Lit(Value::Bool(true))) {
                *input
            } else {
                Plan::Filter { input, predicate }
            }
        }
        Plan::TableUdfScan {
            udf,
            input,
            args,
            schema,
        } => Plan::TableUdfScan {
            udf,
            input: Box::new(optimize(*input)),
            args,
            schema,
        },
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            let mut input = optimize(*input);
            match (column_refs(&exprs), &mut input) {
                // The join takes over the Project's columns and output names.
                (
                    Some(cols),
                    Plan::HashJoin {
                        project: project @ None,
                        schema: join_schema,
                        ..
                    },
                ) => {
                    *project = Some(cols);
                    *join_schema = schema;
                    input
                }
                _ => Plan::Project {
                    input: Box::new(input),
                    exprs,
                    schema,
                },
            }
        }
        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => Plan::Aggregate {
            input: Box::new(optimize(*input)),
            group_exprs,
            aggs,
            schema,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(optimize(*input)),
            keys,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(optimize(*input)),
            n,
        },
        leaf @ Plan::Scan { .. } => leaf,
    }
}

/// `Some(cols)` when every expression is a bare column reference.
fn column_refs(exprs: &[Expr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Col(i) => Some(*i),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field};
    use sqlml_common::Schema;

    use crate::table::PartitionedTable;

    fn scan(rows: usize) -> Plan {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let data: Vec<_> = (0..rows).map(|i| row![i as i64]).collect();
        Plan::Scan {
            name: format!("t{rows}"),
            table: Arc::new(PartitionedTable::single(schema, data)),
        }
    }

    fn join(kind: JoinKind, left: Plan, right: Plan) -> Plan {
        let schema = left.schema().join(&right.schema());
        Plan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec![Expr::Col(0)],
            right_keys: vec![Expr::Col(0)],
            kind,
            build: BuildSide::Right,
            project: None,
            schema,
        }
    }

    #[test]
    fn inner_join_builds_from_smaller_side() {
        let p = optimize(join(JoinKind::Inner, scan(10), scan(1000)));
        match p {
            Plan::HashJoin { build, .. } => assert_eq!(build, BuildSide::Left),
            other => panic!("{other:?}"),
        }
        let p = optimize(join(JoinKind::Inner, scan(1000), scan(10)));
        match p {
            Plan::HashJoin { build, .. } => assert_eq!(build, BuildSide::Right),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn left_outer_never_builds_from_left() {
        let p = optimize(join(JoinKind::LeftOuter, scan(10), scan(1000)));
        match p {
            Plan::HashJoin { build, .. } => assert_eq!(build, BuildSide::Right),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn true_filter_is_removed() {
        let p = optimize(Plan::Filter {
            input: Box::new(scan(5)),
            predicate: Expr::Lit(Value::Bool(true)),
        });
        assert!(matches!(p, Plan::Scan { .. }));
    }

    #[test]
    fn real_filter_is_kept() {
        let p = optimize(Plan::Filter {
            input: Box::new(scan(5)),
            predicate: Expr::Lit(Value::Bool(false)),
        });
        assert!(matches!(p, Plan::Filter { .. }));
    }

    #[test]
    fn a_chain_over_a_scan_is_left_as_planned() {
        // Running the chain as one pass is the executor's business: the
        // optimizer hands back the same three nodes in the same order.
        let inner = Plan::Filter {
            input: Box::new(scan(100)),
            predicate: Expr::Lit(Value::Bool(false)),
        };
        let project = Plan::Project {
            schema: inner.schema(),
            input: Box::new(inner),
            exprs: vec![Expr::Col(0)],
        };
        let p = optimize(Plan::Filter {
            input: Box::new(project),
            predicate: Expr::Lit(Value::Bool(false)),
        });
        let Plan::Filter { input, .. } = p else {
            panic!("expected Filter on top, got {p:?}")
        };
        let Plan::Project { input, .. } = *input else {
            panic!("expected Project under the Filter, got {input:?}")
        };
        let Plan::Filter { input, .. } = *input else {
            panic!("expected Filter under the Project, got {input:?}")
        };
        assert!(matches!(*input, Plan::Scan { .. }));
    }

    #[test]
    fn stacked_filters_estimate_shrinks_per_filter() {
        let inner = Plan::Filter {
            input: Box::new(scan(160)),
            predicate: Expr::Lit(Value::Bool(false)),
        };
        let outer = Plan::Filter {
            input: Box::new(inner),
            predicate: Expr::Lit(Value::Bool(false)),
        };
        let p = optimize(outer);
        assert_eq!(p.estimated_rows(), 10); // 160 / 4 / 4
    }

    fn project(input: Plan, exprs: Vec<Expr>) -> Plan {
        let fields = (0..exprs.len())
            .map(|i| Field::new(format!("p{i}"), DataType::Int))
            .collect();
        Plan::Project {
            input: Box::new(input),
            exprs,
            schema: Schema::new(fields),
        }
    }

    #[test]
    fn column_only_project_folds_into_the_join_beneath_it() {
        let p = optimize(project(
            join(JoinKind::Inner, scan(1000), scan(10)),
            vec![Expr::Col(1), Expr::Col(0), Expr::Col(1)],
        ));
        match &p {
            Plan::HashJoin {
                project, schema, ..
            } => {
                assert_eq!(project.as_deref(), Some(&[1usize, 0, 1][..]));
                // The join takes over the Project's output names.
                assert_eq!(schema.names(), vec!["p0", "p1", "p2"]);
            }
            other => panic!("expected a projecting HashJoin, got {other:?}"),
        }
        assert!(p.explain().contains("project=[#1, #0, #1] -> p0, p1, p2"));
    }

    #[test]
    fn computed_project_stays_above_the_join() {
        let p = optimize(project(
            join(JoinKind::Inner, scan(1000), scan(10)),
            vec![Expr::Col(0), Expr::Neg(Box::new(Expr::Col(1)))],
        ));
        match p {
            Plan::Project { input, .. } => {
                assert!(matches!(*input, Plan::HashJoin { project: None, .. }))
            }
            other => panic!("expected Project over HashJoin, got {other:?}"),
        }
    }

    #[test]
    fn the_fold_happens_under_a_chain_and_only_once() {
        // Filter over Project over Join: the Project folds, the Filter
        // stays a plain node on the projecting join. A second Project on
        // top of that join stays a Project, not a second fold.
        let folded = project(
            join(JoinKind::LeftOuter, scan(10), scan(10)),
            vec![Expr::Col(1)],
        );
        let p = optimize(project(
            Plan::Filter {
                input: Box::new(folded),
                predicate: Expr::Lit(Value::Bool(false)),
            },
            vec![Expr::Col(0)],
        ));
        let Plan::Project { input, .. } = p else {
            panic!("expected Project on top, got {p:?}")
        };
        let Plan::Filter { input, .. } = *input else {
            panic!("expected Filter under the Project, got {input:?}")
        };
        assert!(
            matches!(
                *input,
                Plan::HashJoin {
                    project: Some(_),
                    ..
                }
            ),
            "expected a projecting HashJoin, got {input:?}"
        );
        let twice = optimize(project(
            project(
                join(JoinKind::Inner, scan(10), scan(10)),
                vec![Expr::Col(1)],
            ),
            vec![Expr::Col(0)],
        ));
        match twice {
            Plan::Project { input, .. } => {
                assert!(matches!(
                    *input,
                    Plan::HashJoin {
                        project: Some(_),
                        ..
                    }
                ))
            }
            other => panic!("expected Project over a projecting HashJoin, got {other:?}"),
        }
    }

    #[test]
    fn a_project_above_a_breaker_does_not_fold_into_the_join_below_it() {
        let p = optimize(project(
            Plan::Sort {
                input: Box::new(join(JoinKind::Inner, scan(10), scan(10))),
                keys: vec![(0, false)],
            },
            vec![Expr::Col(1)],
        ));
        let Plan::Project { input, .. } = p else {
            panic!("expected Project on top, got {p:?}")
        };
        let Plan::Sort { input, .. } = *input else {
            panic!("expected Sort under the Project, got {input:?}")
        };
        assert!(matches!(*input, Plan::HashJoin { project: None, .. }));
    }
}
