//! Plan optimization.
//!
//! Predicate pushdown happens at plan time (the planner pushes
//! single-relation conjuncts below joins); this pass handles what needs
//! whole-plan statistics:
//!
//! * **broadcast-side selection** — each hash join builds its table from
//!   the estimated-smaller input (the paper's prep query joins a billion-
//!   row fact table with a much smaller dimension table; broadcasting the
//!   small side is what an MPP engine does);
//! * removal of literal-`TRUE` filters and zero-limit shortcuts;
//! * **operator fusion** — chains of `Filter`/`Project`/`TableUdfScan`
//!   collapse into one [`Plan::Fused`] node that the executor runs as a
//!   single `map_partitions` pass, one batch kernel per stage, with no
//!   table (and no worker hand-off) between those operators;
//! * **projecting joins** — the same pass folds a column-only `Project`
//!   sitting directly on a `HashJoin` into the join (`project:
//!   Some(cols)`), so the probe gathers only the projected columns and
//!   the full-width `left ++ right` batch is never built. The paper's
//!   preparation query is exactly this shape.

use sqlml_common::Value;

use crate::ast::JoinKind;
use crate::expr::Expr;
use crate::plan::{BuildSide, FusedStage, Plan};

/// Optimize a plan tree (consuming it): rule-based rewrites, then fusion.
pub fn optimize(plan: Plan) -> Plan {
    fuse(optimize_unfused(plan))
}

/// The rule-based rewrites without the fusion pass. Retained as a public
/// entry point so differential tests can run the unfused plan shape
/// against the fused one (both run the same batch kernels).
pub fn optimize_unfused(plan: Plan) -> Plan {
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
            let left = Box::new(optimize_unfused(*left));
            let right = Box::new(optimize_unfused(*right));
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
            let input = Box::new(optimize_unfused(*input));
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
            input: Box::new(optimize_unfused(*input)),
            args,
            schema,
        },
        Plan::Project {
            input,
            exprs,
            schema,
        } => Plan::Project {
            input: Box::new(optimize_unfused(*input)),
            exprs,
            schema,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(optimize_unfused(*input)),
        },
        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => Plan::Aggregate {
            input: Box::new(optimize_unfused(*input)),
            group_exprs,
            aggs,
            schema,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(optimize_unfused(*input)),
            keys,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(optimize_unfused(*input)),
            n,
        },
        leaf @ Plan::Scan { .. } => leaf,
        // Fusion only ever runs after this pass, so Fused nodes cannot
        // appear here; recurse defensively anyway.
        Plan::Fused {
            input,
            stages,
            schema,
        } => Plan::Fused {
            input: Box::new(optimize_unfused(*input)),
            stages,
            schema,
        },
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

/// Fusion pass: collapse maximal `Filter`/`Project`/`TableUdfScan`
/// chains into [`Plan::Fused`] nodes. Single-operator "chains" are left
/// as plain nodes — fusing them buys nothing and keeps EXPLAIN output
/// familiar. A column-only `Project` directly on a `HashJoin` ends the
/// chain by becoming the join's `project` list instead of a stage.
fn fuse(plan: Plan) -> Plan {
    match plan {
        Plan::Filter { .. } | Plan::Project { .. } | Plan::TableUdfScan { .. } => {
            let schema = plan.schema();
            // Walk down the fusible spine collecting stages
            // top-down (reverse execution order).
            let mut rev_stages: Vec<FusedStage> = Vec::new();
            let mut cur = plan;
            let tail = loop {
                match cur {
                    Plan::Filter { input, predicate } => {
                        rev_stages.push(FusedStage::Filter(predicate));
                        cur = *input;
                    }
                    Plan::Project {
                        input,
                        exprs,
                        schema,
                    } => match (column_refs(&exprs), *input) {
                        (
                            Some(cols),
                            Plan::HashJoin {
                                left,
                                right,
                                left_keys,
                                right_keys,
                                kind,
                                build,
                                project: None,
                                ..
                            },
                        ) => {
                            break Plan::HashJoin {
                                left,
                                right,
                                left_keys,
                                right_keys,
                                kind,
                                build,
                                project: Some(cols),
                                schema,
                            }
                        }
                        (_, input) => {
                            rev_stages.push(FusedStage::Project { exprs });
                            cur = input;
                        }
                    },
                    Plan::TableUdfScan {
                        udf, input, args, ..
                    } => {
                        rev_stages.push(FusedStage::Udf {
                            udf,
                            args,
                            input_schema: input.schema(),
                        });
                        cur = *input;
                    }
                    other => break other,
                }
            };
            let input = Box::new(fuse(tail));
            if rev_stages.is_empty() {
                // The whole chain was one Project folded into its join.
                return *input;
            }
            if rev_stages.len() == 1 {
                // Rebuild the plain single-operator node.
                if let Some(stage) = rev_stages.pop() {
                    return match stage {
                        FusedStage::Filter(predicate) => Plan::Filter { input, predicate },
                        FusedStage::Project { exprs } => Plan::Project {
                            input,
                            exprs,
                            schema,
                        },
                        FusedStage::Udf { udf, args, .. } => Plan::TableUdfScan {
                            udf,
                            input,
                            args,
                            schema,
                        },
                    };
                }
            }
            rev_stages.reverse();
            Plan::Fused {
                input,
                stages: rev_stages,
                schema,
            }
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            build,
            project,
            schema,
        } => Plan::HashJoin {
            left: Box::new(fuse(*left)),
            right: Box::new(fuse(*right)),
            left_keys,
            right_keys,
            kind,
            build,
            project,
            schema,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(fuse(*input)),
        },
        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => Plan::Aggregate {
            input: Box::new(fuse(*input)),
            group_exprs,
            aggs,
            schema,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(fuse(*input)),
            keys,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(fuse(*input)),
            n,
        },
        leaf @ Plan::Scan { .. } => leaf,
        already @ Plan::Fused { .. } => already,
    }
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
    fn filter_project_chain_fuses_in_execution_order() {
        let inner = Plan::Filter {
            input: Box::new(scan(100)),
            predicate: Expr::Lit(Value::Bool(false)),
        };
        let project = Plan::Project {
            schema: inner.schema(),
            input: Box::new(inner),
            exprs: vec![Expr::Col(0)],
        };
        let outer = Plan::Filter {
            input: Box::new(project),
            predicate: Expr::Lit(Value::Bool(false)),
        };
        let p = optimize(outer);
        match p {
            Plan::Fused { stages, input, .. } => {
                assert_eq!(stages.len(), 3);
                assert!(matches!(stages[0], FusedStage::Filter(_)));
                assert!(matches!(stages[1], FusedStage::Project { .. }));
                assert!(matches!(stages[2], FusedStage::Filter(_)));
                assert!(matches!(*input, Plan::Scan { .. }));
            }
            other => panic!("expected Fused, got {other:?}"),
        }
    }

    #[test]
    fn single_operator_is_not_wrapped_in_fused() {
        let p = optimize(Plan::Project {
            schema: scan(5).schema(),
            input: Box::new(scan(5)),
            exprs: vec![Expr::Col(0)],
        });
        assert!(matches!(p, Plan::Project { .. }));
    }

    #[test]
    fn fusion_stops_at_pipeline_breakers() {
        // Filter over Distinct over Filter: only chains on either side of
        // the Distinct may fuse; with one operator each, none do.
        let p = optimize(Plan::Filter {
            input: Box::new(Plan::Distinct {
                input: Box::new(Plan::Filter {
                    input: Box::new(scan(50)),
                    predicate: Expr::Lit(Value::Bool(false)),
                }),
            }),
            predicate: Expr::Lit(Value::Bool(false)),
        });
        match p {
            Plan::Filter { input, .. } => assert!(matches!(*input, Plan::Distinct { .. })),
            other => panic!("expected Filter over Distinct, got {other:?}"),
        }
    }

    #[test]
    fn fused_estimate_shrinks_per_filter_stage() {
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
    fn stages_above_a_folded_project_keep_their_chain() {
        // Filter over Project over Join: the Project folds, the Filter
        // stays a plain node on the projecting join. A second Project on
        // top of that join is a stage, not a second fold.
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
        match p {
            Plan::Fused { stages, input, .. } => {
                assert!(matches!(stages[0], FusedStage::Filter(_)));
                assert!(matches!(stages[1], FusedStage::Project { .. }));
                assert!(matches!(
                    *input,
                    Plan::HashJoin {
                        project: Some(_),
                        ..
                    }
                ));
            }
            other => panic!("expected Fused over a projecting HashJoin, got {other:?}"),
        }
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
    fn unfused_reference_path_never_folds() {
        let p = optimize_unfused(project(
            join(JoinKind::Inner, scan(1000), scan(10)),
            vec![Expr::Col(0)],
        ));
        assert!(matches!(p, Plan::Project { .. }));
    }
}
