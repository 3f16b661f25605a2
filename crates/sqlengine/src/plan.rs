//! Logical/physical query plans.
//!
//! The planner produces a [`Plan`] tree; the optimizer rewrites it; the
//! executor interprets it directly. Each node carries its output schema.
//! There is one grouping node, [`Plan::Aggregate`]: `SELECT DISTINCT`
//! plans as a grouping by every column with no aggregates.

use std::fmt;
use std::sync::Arc;

use sqlml_common::{Schema, Value};

use crate::ast::{AggFunc, JoinKind};
use crate::expr::Expr;
use crate::table::PartitionedTable;
use crate::udf::TableUdf;

/// One aggregate computation within an [`Plan::Aggregate`] node.
#[derive(Clone, Debug)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
    pub distinct: bool,
}

/// Which join side the executor builds the hash table from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    Left,
    Right,
}

/// The plan tree.
pub enum Plan {
    /// Leaf: a catalog table.
    Scan {
        name: String,
        table: Arc<PartitionedTable>,
    },
    /// Parallel table UDF applied per partition of `input`.
    TableUdfScan {
        udf: Arc<dyn TableUdf>,
        input: Box<Plan>,
        args: Vec<Value>,
        schema: Schema,
    },
    Filter {
        input: Box<Plan>,
        predicate: Expr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<Expr>,
        schema: Schema,
    },
    /// Hash equi-join. `left_keys[i]` pairs with `right_keys[i]`.
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        kind: JoinKind,
        build: BuildSide,
        /// `None`: the probe emits `left ++ right`. `Some(cols)`: a
        /// projecting join — the probe emits exactly those columns of
        /// `left ++ right`, in that order, and the concatenated row is
        /// never built. Produced by the optimizer folding a column-only
        /// `Project` into the join beneath it.
        project: Option<Vec<usize>>,
        /// Output schema (already projected when `project` is set).
        schema: Schema,
    },
    /// Hash aggregation, gathered to one partition sorted by row. Output
    /// layout: group columns then aggregates. `SELECT DISTINCT` is this
    /// node grouping by every input column with no aggregates.
    Aggregate {
        input: Box<Plan>,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggExpr>,
        schema: Schema,
    },
    /// Total sort by output column indices (gathers to one partition).
    Sort {
        input: Box<Plan>,
        keys: Vec<(usize, bool)>, // (column index, descending)
    },
    Limit {
        input: Box<Plan>,
        n: usize,
    },
}

impl Plan {
    /// Output schema of this node.
    pub fn schema(&self) -> Schema {
        match self {
            Plan::Scan { table, .. } => table.schema().clone(),
            Plan::TableUdfScan { schema, .. } => schema.clone(),
            Plan::Filter { input, .. } => input.schema(),
            Plan::Project { schema, .. } => schema.clone(),
            Plan::HashJoin { schema, .. } => schema.clone(),
            Plan::Aggregate { schema, .. } => schema.clone(),
            Plan::Sort { input, .. } => input.schema(),
            Plan::Limit { input, .. } => input.schema(),
        }
    }

    /// Crude cardinality estimate used for broadcast-side selection.
    pub fn estimated_rows(&self) -> usize {
        match self {
            Plan::Scan { table, .. } => table.num_rows(),
            Plan::TableUdfScan { input, .. } => input.estimated_rows(),
            // Uniform selectivity guess; enough to order join sides.
            Plan::Filter { input, .. } => (input.estimated_rows() / 4).max(1),
            Plan::Project { input, .. } => input.estimated_rows(),
            Plan::HashJoin { left, right, .. } => left.estimated_rows().max(right.estimated_rows()),
            Plan::Aggregate { input, .. } => (input.estimated_rows() / 10).max(1),
            Plan::Sort { input, .. } => input.estimated_rows(),
            Plan::Limit { input, n } => input.estimated_rows().min(*n),
        }
    }

    /// Indented EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(0, &mut out);
        out
    }

    fn fmt_tree(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan { name, table } => {
                out.push_str(&format!(
                    "{pad}Scan {name} rows={} partitions={}\n",
                    table.num_rows(),
                    table.num_partitions()
                ));
            }
            Plan::TableUdfScan {
                udf, input, args, ..
            } => {
                out.push_str(&format!("{pad}TableUdf {}({args:?})\n", udf.name()));
                input.fmt_tree(depth + 1, out);
            }
            Plan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate:?}\n"));
                input.fmt_tree(depth + 1, out);
            }
            Plan::Project {
                input,
                exprs,
                schema,
            } => {
                out.push_str(&format!(
                    "{pad}Project {exprs:?} -> {}\n",
                    schema.names().join(", ")
                ));
                input.fmt_tree(depth + 1, out);
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
            } => {
                out.push_str(&format!(
                    "{pad}HashJoin {kind:?} build={build:?} on {left_keys:?} = {right_keys:?}"
                ));
                if let Some(cols) = project {
                    let cols: Vec<String> = cols.iter().map(|c| format!("#{c}")).collect();
                    out.push_str(&format!(
                        " project=[{}] -> {}",
                        cols.join(", "),
                        schema.names().join(", ")
                    ));
                }
                out.push('\n');
                left.fmt_tree(depth + 1, out);
                right.fmt_tree(depth + 1, out);
            }
            Plan::Aggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Aggregate groups={group_exprs:?} aggs={aggs:?}\n"
                ));
                input.fmt_tree(depth + 1, out);
            }
            Plan::Sort { input, keys } => {
                out.push_str(&format!("{pad}Sort {keys:?}\n"));
                input.fmt_tree(depth + 1, out);
            }
            Plan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.fmt_tree(depth + 1, out);
            }
        }
    }
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field};

    fn scan(rows: usize) -> Plan {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let data: Vec<_> = (0..rows).map(|i| row![i as i64]).collect();
        Plan::Scan {
            name: "t".into(),
            table: Arc::new(PartitionedTable::partition_rows(schema, &data, 2, &[])),
        }
    }

    #[test]
    fn schema_propagates_through_filter_and_limit() {
        let p = Plan::Limit {
            input: Box::new(Plan::Filter {
                input: Box::new(scan(10)),
                predicate: Expr::Lit(Value::Bool(true)),
            }),
            n: 3,
        };
        assert_eq!(p.schema().names(), vec!["x"]);
    }

    #[test]
    fn estimates_shrink_through_filters() {
        let base = scan(100);
        let filtered = Plan::Filter {
            input: Box::new(scan(100)),
            predicate: Expr::Lit(Value::Bool(true)),
        };
        assert!(filtered.estimated_rows() < base.estimated_rows());
    }

    #[test]
    fn explain_renders_tree() {
        let p = Plan::Sort {
            input: Box::new(scan(5)),
            keys: vec![(0, true)],
        };
        let text = p.explain();
        assert!(text.contains("Sort [(0, true)]"));
        assert!(text.contains("Scan t rows=5"));
        // Child is indented under parent.
        assert!(text.lines().nth(1).unwrap().starts_with("  "));
    }
}
