//! The planner: name resolution and logical-plan construction.
//!
//! Responsibilities:
//!
//! * bind FROM items (tables and `TABLE(udf(...))` invocations) against
//!   the catalog;
//! * extract equi-join conditions from the WHERE clause (comma joins, the
//!   style the paper's example queries use) and from explicit `JOIN ... ON`
//!   clauses, building a left-deep join tree;
//! * push single-relation predicates below the joins they don't involve;
//! * plan GROUP BY / aggregates / HAVING, DISTINCT, ORDER BY and LIMIT;
//! * infer output schemas, propagating the `categorical` flag so the
//!   In-SQL transformation layer knows which result columns to recode.

use std::collections::HashSet;
use std::sync::Arc;

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{Result, Schema, SqlmlError};

use crate::ast::*;
use crate::catalog::Catalog;
use crate::expr::Expr;
use crate::plan::{AggExpr, BuildSide, Plan};
use crate::table::PartitionedTable;

/// One relation bound in the query scope.
struct ScopeItem {
    binding: String,
    schema: Schema,
}

/// The flat scope of a FROM clause: relations in join order; a column's
/// flat index is its relation offset plus its position.
struct Scope {
    items: Vec<ScopeItem>,
}

impl Scope {
    fn offsets(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.items.len());
        let mut acc = 0;
        for it in &self.items {
            out.push(acc);
            acc += it.schema.len();
        }
        out
    }

    /// Resolve `[qualifier.]name` to (relation index, flat column index,
    /// field).
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, usize, Field)> {
        let offsets = self.offsets();
        let mut found: Option<(usize, usize, Field)> = None;
        for (ri, it) in self.items.iter().enumerate() {
            if let Some(q) = qualifier {
                if !it.binding.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if let Ok(ci) = it.schema.index_of(name) {
                let hit = (ri, offsets[ri] + ci, it.schema.field(ci).clone());
                if found.is_some() {
                    return Err(SqlmlError::Plan(format!(
                        "ambiguous column {name:?}; qualify it with a table alias"
                    )));
                }
                found = Some(hit);
                // With a qualifier the binding is unique; stop early.
                if qualifier.is_some() {
                    break;
                }
            } else if qualifier.is_some_and(|q| it.binding.eq_ignore_ascii_case(q)) {
                return Err(SqlmlError::Plan(format!(
                    "relation {qualifier:?} has no column {name:?}"
                )));
            }
        }
        found.ok_or_else(|| {
            let q = qualifier.map(|q| format!("{q}.")).unwrap_or_default();
            SqlmlError::Plan(format!("unknown column {q}{name}"))
        })
    }

    /// The set of relation indices an expression references.
    fn relations_of(&self, e: &AstExpr) -> Result<HashSet<usize>> {
        let mut rels = HashSet::new();
        for (q, n) in e.column_refs() {
            rels.insert(self.resolve(q, n)?.0);
        }
        Ok(rels)
    }
}

/// Plan a SELECT statement against a catalog.
pub fn plan_select(stmt: &SelectStmt, catalog: &Catalog) -> Result<Plan> {
    Planner { catalog }.plan(stmt)
}

struct Planner<'a> {
    catalog: &'a Catalog,
}

/// A WHERE/ON conjunct waiting to be applied to the join tree.
struct PendingPredicate {
    expr: AstExpr,
    rels: HashSet<usize>,
}

impl<'a> Planner<'a> {
    fn plan(&self, stmt: &SelectStmt) -> Result<Plan> {
        // ---- 1. Bind FROM items --------------------------------------
        let mut rel_plans: Vec<Plan> = Vec::new();
        let mut scope = Scope { items: Vec::new() };
        let bind = |scope: &mut Scope, t: &TableRef| -> Result<Plan> {
            let plan = self.plan_table_ref(t)?;
            let binding = t
                .binding()
                .ok_or_else(|| SqlmlError::Plan("table function in FROM requires an alias".into()))?
                .to_string();
            if scope
                .items
                .iter()
                .any(|it| it.binding.eq_ignore_ascii_case(&binding))
            {
                return Err(SqlmlError::Plan(format!(
                    "duplicate table binding {binding:?}"
                )));
            }
            scope.items.push(ScopeItem {
                binding,
                schema: plan.schema(),
            });
            Ok(plan)
        };
        for t in &stmt.from {
            let p = bind(&mut scope, t)?;
            rel_plans.push(p);
        }
        let num_from = rel_plans.len();
        for j in &stmt.joins {
            let p = bind(&mut scope, &j.table)?;
            rel_plans.push(p);
        }

        // ---- 2. Classify WHERE conjuncts ------------------------------
        let mut pending: Vec<PendingPredicate> = Vec::new();
        if let Some(sel) = &stmt.selection {
            if sel.has_aggregate() {
                return Err(SqlmlError::Plan(
                    "aggregates are not allowed in WHERE".into(),
                ));
            }
            for c in sel.conjuncts() {
                let rels = scope.relations_of(c)?;
                pending.push(PendingPredicate {
                    expr: c.clone(),
                    rels,
                });
            }
        }

        // Single-relation predicates are pushed onto their relation's
        // base plan before any join.
        for p in std::mem::take(&mut pending) {
            if p.rels.len() <= 1 {
                let ri = p.rels.iter().next().copied().unwrap_or(0);
                let local_scope = Scope {
                    items: vec![ScopeItem {
                        binding: scope.items[ri].binding.clone(),
                        schema: scope.items[ri].schema.clone(),
                    }],
                };
                let predicate = resolve_expr(&p.expr, &local_scope, self.catalog)?;
                let input = std::mem::replace(
                    &mut rel_plans[ri],
                    Plan::Limit {
                        input: Box::new(Plan::Scan {
                            name: String::new(),
                            table: Arc::new(PartitionedTable::single(Schema::empty(), vec![])),
                        }),
                        n: 0,
                    },
                );
                rel_plans[ri] = Plan::Filter {
                    input: Box::new(input),
                    predicate,
                };
            } else {
                pending.push(p);
            }
        }

        // ---- 3. Build the join tree (left-deep, FROM order) -----------
        let mut rel_iter = rel_plans.into_iter();
        let mut tree = rel_iter.next().ok_or_else(|| {
            SqlmlError::Plan("FROM clause must reference at least one table".into())
        })?;
        let mut joined: HashSet<usize> = HashSet::from([0]);

        for (k, next_plan) in rel_iter.enumerate() {
            let k = k + 1; // relation index
            let explicit = if k >= num_from {
                Some(&stmt.joins[k - num_from])
            } else {
                None
            };

            // Gather candidate equi-join conjuncts for this step.
            let mut on_conjuncts: Vec<PendingPredicate> = Vec::new();
            if let Some(j) = explicit {
                for c in j.on.conjuncts() {
                    let rels = scope.relations_of(c)?;
                    on_conjuncts.push(PendingPredicate {
                        expr: c.clone(),
                        rels,
                    });
                }
            }
            // WHERE conjuncts that connect the joined set to relation k.
            let mut rest = Vec::new();
            for p in pending {
                if p.rels.contains(&k) && p.rels.iter().all(|r| *r == k || joined.contains(r)) {
                    on_conjuncts.push(p);
                } else {
                    rest.push(p);
                }
            }
            pending = rest;

            let kind = explicit.map(|j| j.kind).unwrap_or(JoinKind::Inner);
            let (keys, residual) = self.split_equi_keys(on_conjuncts, &scope, &joined, k)?;
            if kind == JoinKind::LeftOuter && !residual.is_empty() {
                return Err(SqlmlError::Plan(
                    "LEFT JOIN supports only equality conditions in ON".into(),
                ));
            }

            let left_schema = tree.schema();
            let right_schema = next_plan.schema();
            let schema = left_schema.join(&right_schema);
            let (left_keys, right_keys) = keys.into_iter().unzip();
            tree = Plan::HashJoin {
                left: Box::new(tree),
                right: Box::new(next_plan),
                left_keys,
                right_keys,
                kind,
                build: BuildSide::Right,
                project: None,
                schema,
            };
            joined.insert(k);

            // Residual multi-relation predicates now resolvable: filter.
            if !residual.is_empty() {
                let joined_scope = self.sub_scope(&scope, &joined);
                let pred = AstExpr::conjoin(residual.into_iter().map(|p| p.expr).collect())
                    .ok_or_else(|| {
                        SqlmlError::Plan("residual join predicate list was empty".into())
                    })?;
                let predicate = resolve_expr(&pred, &joined_scope, self.catalog)?;
                tree = Plan::Filter {
                    input: Box::new(tree),
                    predicate,
                };
            }
        }

        if let Some(p) = pending.into_iter().next() {
            return Err(SqlmlError::Plan(format!(
                "predicate references unjoined relations: {:?}",
                p.expr
            )));
        }

        // ---- 4. Projection / aggregation ------------------------------
        let items = expand_projection(&stmt.projection, &scope)?;
        let needs_agg = !stmt.group_by.is_empty()
            || items.iter().any(|(e, _)| e.has_aggregate())
            || stmt.having.as_ref().is_some_and(|h| h.has_aggregate());

        let mut plan = if needs_agg {
            self.plan_aggregate(tree, &scope, &items, stmt)?
        } else {
            if stmt.having.is_some() {
                return Err(SqlmlError::Plan(
                    "HAVING requires GROUP BY or aggregates".into(),
                ));
            }
            let mut exprs = Vec::with_capacity(items.len());
            let mut fields = Vec::with_capacity(items.len());
            for (ast, name) in &items {
                let e = resolve_expr(ast, &scope, self.catalog)?;
                let mut field = infer_field(ast, &scope, self.catalog)?;
                field.name = name.clone();
                exprs.push(e);
                fields.push(field);
            }
            Plan::Project {
                input: Box::new(tree),
                exprs,
                schema: Schema::new(fields),
            }
        };

        // ---- 5. DISTINCT / ORDER BY / LIMIT ---------------------------
        if stmt.distinct {
            // DISTINCT is a grouping by every output column with no
            // aggregates.
            let schema = plan.schema();
            plan = Plan::Aggregate {
                group_exprs: (0..schema.len()).map(Expr::Col).collect(),
                aggs: Vec::new(),
                schema,
                input: Box::new(plan),
            };
        }
        if !stmt.order_by.is_empty() {
            let out_schema = plan.schema();
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for item in &stmt.order_by {
                let idx = match &item.expr {
                    AstExpr::Column {
                        qualifier: None,
                        name,
                    } => out_schema.index_of(name)?,
                    other => {
                        return Err(SqlmlError::Plan(format!(
                            "ORDER BY must name an output column, got {other:?}"
                        )))
                    }
                };
                keys.push((idx, item.desc));
            }
            plan = Plan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(n) = stmt.limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    fn plan_table_ref(&self, t: &TableRef) -> Result<Plan> {
        match t {
            TableRef::Named { name, .. } => Ok(Plan::Scan {
                name: name.clone(),
                table: self.catalog.table(name)?,
            }),
            TableRef::TableFunction { udf, args, .. } => {
                let udf = self.catalog.table_udf(udf)?;
                let mut input: Option<Plan> = None;
                let mut literals = Vec::new();
                for a in args {
                    match a {
                        TableFuncArg::Table(tname) => {
                            if input.is_some() {
                                return Err(SqlmlError::Plan(format!(
                                    "table UDF {} takes at most one table argument",
                                    udf.name()
                                )));
                            }
                            input = Some(Plan::Scan {
                                name: tname.clone(),
                                table: self.catalog.table(tname)?,
                            });
                        }
                        TableFuncArg::Literal(v) => literals.push(v.clone()),
                    }
                }
                let input = input.unwrap_or_else(|| Plan::Scan {
                    name: "<empty>".into(),
                    table: Arc::new(PartitionedTable::single(Schema::empty(), vec![])),
                });
                let schema = udf.output_schema(&input.schema(), &literals)?;
                Ok(Plan::TableUdfScan {
                    udf,
                    input: Box::new(input),
                    args: literals,
                    schema,
                })
            }
        }
    }

    /// Extract `col = col` conjuncts connecting the joined set with the new
    /// relation; everything else is residual.
    #[allow(clippy::type_complexity)]
    fn split_equi_keys(
        &self,
        conjuncts: Vec<PendingPredicate>,
        scope: &Scope,
        joined: &HashSet<usize>,
        new_rel: usize,
    ) -> Result<(Vec<(Expr, Expr)>, Vec<PendingPredicate>)> {
        let offsets = scope.offsets();
        let left_scope_len: usize = joined.iter().map(|r| scope.items[*r].schema.len()).sum();
        // Flat index within the *tree so far* for a column of relation r:
        // relations are joined in index order, so the offset is the sum of
        // schema lengths of lower-indexed joined relations.
        let tree_offset = |r: usize| -> usize {
            scope
                .items
                .iter()
                .enumerate()
                .take(r)
                .filter(|(i, _)| joined.contains(i))
                .map(|(_, it)| it.schema.len())
                .sum()
        };
        let _ = offsets;
        let mut keys = Vec::new();
        let mut residual = Vec::new();
        for p in conjuncts {
            let equi = match &p.expr {
                AstExpr::Cmp {
                    op: CmpOp::Eq,
                    left,
                    right,
                } => match (left.as_ref(), right.as_ref()) {
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
                        let (rl, _, fl) = scope.resolve(ql.as_deref(), nl)?;
                        let (rr, _, fr) = scope.resolve(qr.as_deref(), nr)?;
                        let li = scope.items[rl].schema.index_of(nl)?;
                        let ri = scope.items[rr].schema.index_of(nr)?;
                        let _ = (fl, fr);
                        if joined.contains(&rl) && rr == new_rel {
                            Some((tree_offset(rl) + li, ri))
                        } else if joined.contains(&rr) && rl == new_rel {
                            Some((tree_offset(rr) + ri, li))
                        } else {
                            None
                        }
                    }
                    _ => None,
                },
                _ => None,
            };
            match equi {
                Some((l, r)) => {
                    debug_assert!(l < left_scope_len);
                    keys.push((Expr::Col(l), Expr::Col(r)));
                }
                None => residual.push(p),
            }
        }
        Ok((keys, residual))
    }

    /// Scope restricted to the joined relations, preserving index order —
    /// matches the layout of the current join tree.
    fn sub_scope(&self, scope: &Scope, joined: &HashSet<usize>) -> Scope {
        Scope {
            items: scope
                .items
                .iter()
                .enumerate()
                .filter(|(i, _)| joined.contains(i))
                .map(|(_, it)| ScopeItem {
                    binding: it.binding.clone(),
                    schema: it.schema.clone(),
                })
                .collect(),
        }
    }

    /// Plan GROUP BY + aggregates + HAVING + final projection.
    fn plan_aggregate(
        &self,
        input: Plan,
        scope: &Scope,
        items: &[(AstExpr, String)],
        stmt: &SelectStmt,
    ) -> Result<Plan> {
        // Resolve group expressions against the join output.
        let mut group_exprs = Vec::new();
        let mut group_fields = Vec::new();
        for g in &stmt.group_by {
            group_exprs.push(resolve_expr(g, scope, self.catalog)?);
            group_fields.push(infer_field(g, scope, self.catalog)?);
        }

        // Collect aggregate calls (deduplicated by shape).
        let mut agg_calls: Vec<AstExpr> = Vec::new();
        let mut collect = |e: &AstExpr| collect_aggs(e, &mut agg_calls);
        for (e, _) in items {
            collect(e);
        }
        if let Some(h) = &stmt.having {
            collect_aggs(h, &mut agg_calls);
        }

        let mut aggs = Vec::new();
        let mut agg_fields = Vec::new();
        for (i, call) in agg_calls.iter().enumerate() {
            let AstExpr::Agg {
                func,
                arg,
                distinct,
            } = call
            else {
                unreachable!("collect_aggs only returns Agg nodes")
            };
            let resolved_arg = match arg {
                Some(a) => Some(resolve_expr(a, scope, self.catalog)?),
                None => None,
            };
            let ty = agg_output_type(*func, arg.as_deref(), scope, self.catalog)?;
            aggs.push(AggExpr {
                func: *func,
                arg: resolved_arg,
                distinct: *distinct,
            });
            agg_fields.push(Field::new(format!("__agg{i}"), ty));
        }

        let mut agg_schema_fields = group_fields.clone();
        agg_schema_fields.extend(agg_fields);
        let agg_out_schema = Schema::new(agg_schema_fields);
        let mut plan = Plan::Aggregate {
            input: Box::new(input),
            group_exprs,
            aggs,
            schema: agg_out_schema.clone(),
        };

        // Rewriter for post-aggregate expressions: aggregate calls become
        // columns; group expressions become columns; anything else must be
        // composed of those.
        let rewrite = |e: &AstExpr| -> Result<Expr> {
            rewrite_post_agg(e, &stmt.group_by, &agg_calls, self.catalog)
        };

        if let Some(h) = &stmt.having {
            let predicate = rewrite(h)?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for (ast, name) in items {
            exprs.push(rewrite(ast)?);
            let mut field = match position_of(ast, &stmt.group_by) {
                Some(gi) => agg_out_schema.field(gi).clone(),
                None => match position_of(ast, &agg_calls) {
                    Some(ai) => agg_out_schema.field(stmt.group_by.len() + ai).clone(),
                    None => infer_field(ast, scope, self.catalog)?,
                },
            };
            field.name = name.clone();
            fields.push(field);
        }
        Ok(Plan::Project {
            input: Box::new(plan),
            exprs,
            schema: Schema::new(fields),
        })
    }
}

/// Expand wildcards into (expression, output name) pairs.
fn expand_projection(items: &[SelectItem], scope: &Scope) -> Result<Vec<(AstExpr, String)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for it in &scope.items {
                    for f in it.schema.fields() {
                        out.push((AstExpr::qcol(&it.binding, &f.name), f.name.clone()));
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let it = scope
                    .items
                    .iter()
                    .find(|it| it.binding.eq_ignore_ascii_case(q))
                    .ok_or_else(|| SqlmlError::Plan(format!("unknown relation {q:?}")))?;
                for f in it.schema.fields() {
                    out.push((AstExpr::qcol(&it.binding, &f.name), f.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias
                    .clone()
                    .unwrap_or_else(|| default_name(expr, out.len()));
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

fn default_name(e: &AstExpr, idx: usize) -> String {
    match e {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Agg { func, .. } => format!("{func:?}").to_lowercase(),
        _ => format!("col{idx}"),
    }
}

/// Collect aggregate calls, deduplicating structurally-equal ones.
fn collect_aggs(e: &AstExpr, out: &mut Vec<AstExpr>) {
    match e {
        AstExpr::Agg { .. } => {
            if !out.contains(e) {
                out.push(e.clone());
            }
        }
        AstExpr::Column { .. } | AstExpr::Literal(_) => {}
        AstExpr::Cmp { left, right, .. } | AstExpr::Arith { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        AstExpr::And(l, r) | AstExpr::Or(l, r) => {
            collect_aggs(l, out);
            collect_aggs(r, out);
        }
        AstExpr::Not(x) | AstExpr::Neg(x) => collect_aggs(x, out),
        AstExpr::IsNull { expr, .. } => collect_aggs(expr, out),
        AstExpr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            for i in list {
                collect_aggs(i, out);
            }
        }
        AstExpr::Between { expr, lo, hi } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        AstExpr::Like { expr, pattern, .. } => {
            collect_aggs(expr, out);
            collect_aggs(pattern, out);
        }
        AstExpr::Cast { expr, .. } => collect_aggs(expr, out),
        AstExpr::FuncCall { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
    }
}

fn position_of(e: &AstExpr, list: &[AstExpr]) -> Option<usize> {
    list.iter().position(|x| x == e)
}

/// Rewrite a post-aggregation expression over the aggregate output layout
/// `[group0.. groupN, agg0.. aggM]`.
fn rewrite_post_agg(
    e: &AstExpr,
    group_by: &[AstExpr],
    agg_calls: &[AstExpr],
    catalog: &Catalog,
) -> Result<Expr> {
    if let Some(gi) = position_of(e, group_by) {
        return Ok(Expr::Col(gi));
    }
    if let Some(ai) = position_of(e, agg_calls) {
        return Ok(Expr::Col(group_by.len() + ai));
    }
    let recur = |x: &AstExpr| rewrite_post_agg(x, group_by, agg_calls, catalog);
    match e {
        AstExpr::Literal(v) => Ok(Expr::Lit(v.clone())),
        AstExpr::Column { qualifier, name } => {
            // An unqualified output column might match a group expression
            // written with a qualifier (`GROUP BY t.g`, `SELECT g`).
            for (gi, g) in group_by.iter().enumerate() {
                if let AstExpr::Column { name: gn, .. } = g {
                    if gn.eq_ignore_ascii_case(name)
                        && (qualifier.is_none()
                            || matches!(g, AstExpr::Column { qualifier: Some(gq), .. }
                                if qualifier
                                    .as_ref()
                                    .is_some_and(|q| gq.eq_ignore_ascii_case(q))))
                    {
                        return Ok(Expr::Col(gi));
                    }
                }
            }
            Err(SqlmlError::Plan(format!(
                "column {name:?} must appear in GROUP BY or inside an aggregate"
            )))
        }
        AstExpr::Cmp { op, left, right } => Ok(Expr::Cmp {
            op: *op,
            left: Box::new(recur(left)?),
            right: Box::new(recur(right)?),
        }),
        AstExpr::Arith { op, left, right } => Ok(Expr::Arith {
            op: *op,
            left: Box::new(recur(left)?),
            right: Box::new(recur(right)?),
        }),
        AstExpr::And(l, r) => Ok(Expr::And(Box::new(recur(l)?), Box::new(recur(r)?))),
        AstExpr::Or(l, r) => Ok(Expr::Or(Box::new(recur(l)?), Box::new(recur(r)?))),
        AstExpr::Not(x) => Ok(Expr::Not(Box::new(recur(x)?))),
        AstExpr::Neg(x) => Ok(Expr::Neg(Box::new(recur(x)?))),
        AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(recur(expr)?),
            negated: *negated,
        }),
        AstExpr::InList {
            expr,
            list,
            negated,
        } => Ok(Expr::InList {
            expr: Box::new(recur(expr)?),
            list: list.iter().map(&recur).collect::<Result<_>>()?,
            negated: *negated,
        }),
        AstExpr::Between { expr, lo, hi } => Ok(Expr::Between {
            expr: Box::new(recur(expr)?),
            lo: Box::new(recur(lo)?),
            hi: Box::new(recur(hi)?),
        }),
        AstExpr::Like {
            expr,
            pattern,
            negated,
        } => Ok(Expr::Like {
            expr: Box::new(recur(expr)?),
            pattern: Box::new(recur(pattern)?),
            negated: *negated,
        }),
        AstExpr::Cast { expr, to } => Ok(Expr::Cast {
            expr: Box::new(recur(expr)?),
            to: *to,
        }),
        AstExpr::FuncCall { name, args } => Ok(Expr::Scalar {
            udf: catalog.scalar_udf(name)?,
            args: args.iter().map(&recur).collect::<Result<_>>()?,
        }),
        AstExpr::Agg { .. } => unreachable!("handled by position_of above"),
    }
}

/// Resolve a syntactic expression against a scope.
fn resolve_expr(e: &AstExpr, scope: &Scope, catalog: &Catalog) -> Result<Expr> {
    let recur = |x: &AstExpr| resolve_expr(x, scope, catalog);
    match e {
        AstExpr::Column { qualifier, name } => {
            let (_, flat, _) = scope.resolve(qualifier.as_deref(), name)?;
            Ok(Expr::Col(flat))
        }
        AstExpr::Literal(v) => Ok(Expr::Lit(v.clone())),
        AstExpr::Cmp { op, left, right } => Ok(Expr::Cmp {
            op: *op,
            left: Box::new(recur(left)?),
            right: Box::new(recur(right)?),
        }),
        AstExpr::Arith { op, left, right } => Ok(Expr::Arith {
            op: *op,
            left: Box::new(recur(left)?),
            right: Box::new(recur(right)?),
        }),
        AstExpr::And(l, r) => Ok(Expr::And(Box::new(recur(l)?), Box::new(recur(r)?))),
        AstExpr::Or(l, r) => Ok(Expr::Or(Box::new(recur(l)?), Box::new(recur(r)?))),
        AstExpr::Not(x) => Ok(Expr::Not(Box::new(recur(x)?))),
        AstExpr::Neg(x) => Ok(Expr::Neg(Box::new(recur(x)?))),
        AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(recur(expr)?),
            negated: *negated,
        }),
        AstExpr::InList {
            expr,
            list,
            negated,
        } => Ok(Expr::InList {
            expr: Box::new(recur(expr)?),
            list: list.iter().map(&recur).collect::<Result<_>>()?,
            negated: *negated,
        }),
        AstExpr::Between { expr, lo, hi } => Ok(Expr::Between {
            expr: Box::new(recur(expr)?),
            lo: Box::new(recur(lo)?),
            hi: Box::new(recur(hi)?),
        }),
        AstExpr::Like {
            expr,
            pattern,
            negated,
        } => Ok(Expr::Like {
            expr: Box::new(recur(expr)?),
            pattern: Box::new(recur(pattern)?),
            negated: *negated,
        }),
        AstExpr::Cast { expr, to } => Ok(Expr::Cast {
            expr: Box::new(recur(expr)?),
            to: *to,
        }),
        AstExpr::FuncCall { name, args } => Ok(Expr::Scalar {
            udf: catalog.scalar_udf(name)?,
            args: args.iter().map(&recur).collect::<Result<_>>()?,
        }),
        AstExpr::Agg { .. } => Err(SqlmlError::Plan(
            "aggregate used outside of an aggregation context".into(),
        )),
    }
}

/// Infer the output field (type + categorical flag) of an expression.
fn infer_field(e: &AstExpr, scope: &Scope, catalog: &Catalog) -> Result<Field> {
    match e {
        AstExpr::Column { qualifier, name } => {
            let (_, _, field) = scope.resolve(qualifier.as_deref(), name)?;
            Ok(field)
        }
        AstExpr::Literal(v) => Ok(Field::new("lit", v.data_type().unwrap_or(DataType::Str))),
        AstExpr::Cmp { .. }
        | AstExpr::And(..)
        | AstExpr::Or(..)
        | AstExpr::Not(_)
        | AstExpr::IsNull { .. }
        | AstExpr::InList { .. }
        | AstExpr::Like { .. }
        | AstExpr::Between { .. } => Ok(Field::new("cond", DataType::Bool)),
        AstExpr::Cast { to, .. } => Ok(Field::new("cast", *to)),
        AstExpr::Arith { op, left, right } => {
            let l = infer_field(left, scope, catalog)?.data_type;
            let r = infer_field(right, scope, catalog)?.data_type;
            let ty = if l == DataType::Int && r == DataType::Int && *op != ArithOp::Div {
                DataType::Int
            } else {
                DataType::Double
            };
            Ok(Field::new("expr", ty))
        }
        AstExpr::Neg(x) => infer_field(x, scope, catalog),
        AstExpr::Agg { func, arg, .. } => Ok(Field::new(
            "agg",
            agg_output_type(*func, arg.as_deref(), scope, catalog)?,
        )),
        AstExpr::FuncCall { name, args } => {
            let udf = catalog.scalar_udf(name)?;
            let mut tys = Vec::with_capacity(args.len());
            for a in args {
                tys.push(infer_field(a, scope, catalog)?.data_type);
            }
            Ok(Field::new("fn", udf.return_type(&tys)))
        }
    }
}

fn agg_output_type(
    func: AggFunc,
    arg: Option<&AstExpr>,
    scope: &Scope,
    catalog: &Catalog,
) -> Result<DataType> {
    Ok(match func {
        AggFunc::Count => DataType::Int,
        // SUM and AVG report DOUBLE regardless of input type (the
        // executor accumulates in f64; ML consumers want doubles anyway).
        AggFunc::Avg | AggFunc::Sum => DataType::Double,
        AggFunc::Min | AggFunc::Max => match arg {
            Some(a) => infer_field(a, scope, catalog)?.data_type,
            None => DataType::Int,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use sqlml_common::row;

    fn test_catalog() -> Catalog {
        let c = Catalog::new();
        let carts = Schema::new(vec![
            Field::new("userid", DataType::Int),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
            Field::new("year", DataType::Int),
        ]);
        let users = Schema::new(vec![
            Field::new("userid", DataType::Int),
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::categorical("country"),
        ]);
        c.register_table(
            "carts",
            PartitionedTable::partition_rows(
                carts,
                &(0..40)
                    .map(|i| {
                        row![
                            i as i64 % 10,
                            i as f64,
                            if i % 2 == 0 { "Yes" } else { "No" },
                            2014i64
                        ]
                    })
                    .collect::<Vec<_>>(),
                4,
                &[],
            ),
        );
        c.register_table(
            "users",
            PartitionedTable::single(
                users,
                (0..10)
                    .map(|i| {
                        row![
                            i as i64,
                            20i64 + i as i64,
                            if i % 2 == 0 { "F" } else { "M" },
                            "USA"
                        ]
                    })
                    .collect(),
            ),
        );
        c
    }

    fn plan(sql: &str) -> Result<Plan> {
        let stmt = parse_select(sql).unwrap();
        plan_select(&stmt, &test_catalog())
    }

    #[test]
    fn paper_query_plans_with_join_and_pushed_filter() {
        let p = plan(
            "SELECT U.age, U.gender, C.amount, C.abandoned \
             FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA'",
        )
        .unwrap();
        let text = p.explain();
        assert!(text.contains("HashJoin"), "{text}");
        // country filter must sit below the join (pushed to users scan).
        let join_line = text.lines().position(|l| l.contains("HashJoin")).unwrap();
        let filter_line = text.lines().position(|l| l.contains("Filter")).unwrap();
        assert!(
            filter_line > join_line,
            "filter should be under join: {text}"
        );
        assert_eq!(
            p.schema().names(),
            vec!["age", "gender", "amount", "abandoned"]
        );
        // Categorical flags survive projection.
        assert!(p.schema().field(1).categorical);
        assert!(!p.schema().field(0).categorical);
    }

    #[test]
    fn ambiguous_column_is_rejected() {
        let err =
            plan("SELECT userid FROM carts, users WHERE carts.userid = users.userid").unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn unknown_column_is_rejected() {
        assert!(plan("SELECT nope FROM carts").is_err());
        assert!(plan("SELECT users.nope FROM users").is_err());
    }

    #[test]
    fn duplicate_binding_is_rejected() {
        assert!(plan("SELECT 1 FROM carts c, users c").is_err());
    }

    #[test]
    fn aggregate_plan_shapes() {
        let p = plan(
            "SELECT gender, COUNT(*) AS n, AVG(age) FROM users \
             GROUP BY gender HAVING COUNT(*) > 1",
        )
        .unwrap();
        let text = p.explain();
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("Filter"), "{text}");
        assert_eq!(p.schema().names(), vec!["gender", "n", "avg"]);
        assert_eq!(p.schema().field(1).data_type, DataType::Int);
        assert_eq!(p.schema().field(2).data_type, DataType::Double);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = plan("SELECT age, COUNT(*) FROM users GROUP BY gender").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn order_by_alias_resolves() {
        let p = plan("SELECT age AS a FROM users ORDER BY a DESC LIMIT 3").unwrap();
        let text = p.explain();
        assert!(text.contains("Sort"));
        assert!(text.contains("Limit 3"));
    }

    #[test]
    fn three_way_self_join_like_recode_query() {
        // Shape of the paper's §2.1 recode join: T joined twice with M.
        let c = test_catalog();
        let m = Schema::new(vec![
            Field::categorical("colname"),
            Field::categorical("colval"),
            Field::new("recodeval", DataType::Int),
        ]);
        c.register_table("m", PartitionedTable::single(m, vec![]));
        let stmt = parse_select(
            "SELECT U.age, Mg.recodeVal AS gender \
             FROM users U, m AS Mg, m AS Ma \
             WHERE Mg.colName='gender' AND U.gender=Mg.colVal \
               AND Ma.colName='country' AND U.country=Ma.colVal",
        )
        .unwrap();
        let p = plan_select(&stmt, &c).unwrap();
        let text = p.explain();
        assert_eq!(text.matches("HashJoin").count(), 2, "{text}");
        assert_eq!(p.schema().names(), vec!["age", "gender"]);
    }

    #[test]
    fn explicit_left_join_plans() {
        let p = plan("SELECT u.age FROM users u LEFT JOIN carts c ON u.userid = c.userid").unwrap();
        assert!(p.explain().contains("LeftOuter"));
    }

    #[test]
    fn cross_join_without_condition_is_allowed() {
        let p = plan("SELECT u.age FROM users u, carts c").unwrap();
        assert!(p.explain().contains("HashJoin"));
    }

    #[test]
    fn wildcard_expansion_covers_all_relations() {
        let p = plan("SELECT * FROM carts c, users u WHERE c.userid = u.userid").unwrap();
        assert_eq!(p.schema().len(), 8);
        let p = plan("SELECT u.* FROM carts c, users u WHERE c.userid = u.userid").unwrap();
        assert_eq!(
            p.schema().names(),
            vec!["userid", "age", "gender", "country"]
        );
    }

    #[test]
    fn where_aggregate_is_rejected() {
        assert!(plan("SELECT 1 FROM users WHERE COUNT(*) > 1").is_err());
    }
}
