//! Parallel plan execution.
//!
//! Plans execute partition-at-a-time across a pool of worker threads: the
//! engine's "SQL workers". Worker `w` processes partitions `w, w+W, …` of
//! every operator, so a table UDF invoked over an `n`-partition table runs
//! `n` parallel instances spread over `W` workers — exactly the execution
//! model the paper's In-SQL transformations and streaming-transfer UDF
//! rely on.
//!
//! A partition is a column [`Batch`]. `Filter`, `Project`, table UDFs
//! and the hash join run batch kernels, and a chain of the first three
//! runs as one pass per partition. The gathering operators collapse
//! their input to one partition, homed where the first input partition
//! lives:
//!
//! * `Aggregate` folds per-partition partials keyed by the group cells
//!   (by [`Value`]'s equality) and builds its small, sorted output from
//!   rows. It is the one grouping operator: `SELECT DISTINCT` plans as
//!   an `Aggregate` over every column with no aggregates.
//! * `Sort` concatenates the partitions, stable-sorts one row
//!   permutation by the key cells and gathers once, so ties stay in
//!   partition order, then row order.
//! * `Limit` concatenates each partition's prefix, in partition order.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sqlml_common::{counter_u32, Result, Row, Schema, SqlmlError, Value};

use crate::ast::{AggFunc, JoinKind};
use crate::column::{Batch, Column, NULL_ROW};
use crate::expr::Expr;
use crate::plan::{AggExpr, BuildSide, Plan};
use crate::table::PartitionedTable;
use crate::udf::{PartitionCtx, TableUdf};

/// Execution environment: worker pool size and the cluster node names the
/// workers live on (worker `w` is on `nodes[w % nodes.len()]`).
#[derive(Debug, Clone)]
pub struct ExecContext {
    pub num_workers: usize,
    pub nodes: Vec<String>,
}

impl ExecContext {
    pub fn new(num_workers: usize, nodes: Vec<String>) -> Self {
        assert!(num_workers > 0);
        let nodes = if nodes.is_empty() {
            (0..num_workers).map(sqlml_dfs::node_name).collect()
        } else {
            nodes
        };
        ExecContext { num_workers, nodes }
    }
}

/// Execute a plan, producing a partitioned result.
pub fn execute(plan: &Plan, ctx: &ExecContext) -> Result<PartitionedTable> {
    match plan {
        Plan::Scan { table, .. } => Ok((**table).clone()),

        Plan::Filter { .. } | Plan::Project { .. } | Plan::TableUdfScan { .. } => {
            execute_chain(plan, ctx)
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
        } => execute_join(
            left,
            right,
            left_keys,
            right_keys,
            *kind,
            *build,
            project.as_deref(),
            schema,
            ctx,
        ),

        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => {
            let child = execute(input, ctx)?;
            let rows = execute_aggregate(&child, group_exprs, aggs, ctx)?;
            let batch = Batch::from_rows(schema, &rows);
            Ok(gather_to_first_home(schema.clone(), batch, &child))
        }

        Plan::Sort { input, keys } => {
            let child = execute(input, ctx)?;
            let all = Batch::concat(child.schema().len(), child.partitions());
            let order = sort_permutation(&all, keys)?;
            Ok(gather_to_first_home(
                child.schema().clone(),
                all.gather(&order),
                &child,
            ))
        }

        Plan::Limit { input, n } => {
            let child = execute(input, ctx)?;
            let mut left = *n;
            let prefixes = (child.partitions().iter())
                .map(|p| {
                    let take = left.min(p.len());
                    left -= take;
                    let prefix: Vec<u32> = (0..counter_u32(take, "limit row count")?).collect();
                    Ok(p.gather(&prefix))
                })
                .collect::<Result<Vec<Batch>>>()?;
            let batch = Batch::concat(child.schema().len(), &prefixes);
            Ok(gather_to_first_home(child.schema().clone(), batch, &child))
        }
    }
}

/// One partition-local operator of a chain, bound to its plan node.
type Kernel<'a> = Box<dyn Fn(&Batch, &PartitionCtx) -> Result<Batch> + Sync + 'a>;

/// Run the maximal `Filter`/`Project`/`TableUdfScan` chain that `top`
/// heads as one `map_partitions` pass over the first node beneath it
/// that is none of the three: one worker round and one result table per
/// chain, however many operators it has. A column no kernel rewrites is
/// shared from the input all the way through.
fn execute_chain(top: &Plan, ctx: &ExecContext) -> Result<PartitionedTable> {
    // Collected top-down, applied in reverse: execution order.
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut node = top;
    loop {
        node = match node {
            Plan::Filter { input, predicate } => {
                kernels.push(Box::new(move |batch, _| filter(batch, predicate)));
                input
            }
            Plan::Project { input, exprs, .. } => {
                kernels.push(Box::new(move |batch, _| project(batch, exprs)));
                input
            }
            Plan::TableUdfScan {
                udf,
                input,
                args,
                schema,
            } => {
                let (input_schema, width) = (input.schema(), schema.len());
                kernels.push(Box::new(move |batch, pctx| {
                    run_table_udf(&**udf, batch, &input_schema, args, pctx, width)
                }));
                input
            }
            _ => break,
        };
    }
    let child = execute(node, ctx)?;
    let mapped = map_partitions(&child, ctx, |batch, pctx| {
        (kernels.iter().rev()).try_fold(batch.clone(), |cur, kernel| kernel(&cur, pctx))
    })?;
    Ok(replace_schema(mapped, top.schema()))
}

/// One partition through a table UDF. The batch it returns must be as
/// wide as the schema it declared: every operator downstream indexes
/// columns by that schema.
pub(crate) fn run_table_udf(
    udf: &dyn TableUdf,
    batch: &Batch,
    input_schema: &Schema,
    args: &[Value],
    pctx: &PartitionCtx,
    declared_width: usize,
) -> Result<Batch> {
    let out = udf.execute(batch, input_schema, args, pctx)?;
    if out.width() != declared_width {
        return Err(SqlmlError::Execution(format!(
            "table udf {:?} declared {declared_width} output columns but returned {}",
            udf.name(),
            out.width()
        )));
    }
    Ok(out)
}

/// Keep the rows where `predicate` is true (NULL and false both
/// reject): the predicate column becomes a selection, and every column
/// is gathered through it — or shared as is when nothing was rejected.
fn filter(batch: &Batch, predicate: &Expr) -> Result<Batch> {
    let rows = counter_u32(batch.len(), "partition row count")?;
    let keep = predicate.eval(batch)?;
    let selected: Vec<u32> = match &*keep {
        Column::Bool(p) => {
            let (hit, valid) = (p.values(), p.validity());
            let holds = |&i: &u32| hit[i as usize] && valid.is_none_or(|v| v[i as usize]);
            (0..rows).filter(holds).collect()
        }
        other => (0..rows)
            .filter(|&i| matches!(other.value(i as usize), Value::Bool(true)))
            .collect(),
    };
    Ok(match selected.len() == batch.len() {
        true => batch.clone(),
        false => batch.gather(&selected),
    })
}

fn project(batch: &Batch, exprs: &[Expr]) -> Result<Batch> {
    let columns = exprs.iter().map(|e| e.eval(batch)).collect::<Result<_>>()?;
    Ok(Batch::new(columns, batch.len()))
}

/// Wrap a gathered (single-partition) result, homing the output at the
/// first input partition's node. Gather-style operators (`Sort`,
/// `Aggregate`, `Limit`) collapse to one partition; defaulting its home
/// to node-0 would silently degrade downstream locality-aware placement,
/// so the gather is instead attributed to the node that holds the first
/// input partition (where a real engine's gather coordinator would run).
fn gather_to_first_home(
    schema: Schema,
    batch: Batch,
    child: &PartitionedTable,
) -> PartitionedTable {
    let home = (child.homes().first().cloned()).unwrap_or_else(|| sqlml_dfs::node_name(0));
    PartitionedTable::from_batches(schema, vec![batch], vec![home])
}

/// The row order that sorts `batch` by `keys` (column, descending). The
/// sort is stable: rows with equal keys keep their input order, so the
/// ties of concatenated partitions stay in partition order, then row
/// order.
fn sort_permutation(batch: &Batch, keys: &[(usize, bool)]) -> Result<Vec<u32>> {
    let key_cells: Vec<Vec<Value>> = (keys.iter())
        .map(|&(c, _)| (0..batch.len()).map(|i| batch.column(c).value(i)).collect())
        .collect();
    let mut order: Vec<u32> = (0..counter_u32(batch.len(), "sort row count")?).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        (key_cells.iter().zip(keys))
            .map(|(cells, &(_, desc))| match desc {
                false => cells[a].cmp(&cells[b]),
                true => cells[b].cmp(&cells[a]),
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    Ok(order)
}

fn replace_schema(t: PartitionedTable, schema: sqlml_common::Schema) -> PartitionedTable {
    PartitionedTable::from_batches(schema, t.partitions().to_vec(), t.homes().to_vec())
}

/// Apply `f` to every partition in parallel across the worker pool,
/// preserving partition order and homes.
pub fn map_partitions<F>(
    input: &PartitionedTable,
    ctx: &ExecContext,
    f: F,
) -> Result<PartitionedTable>
where
    F: Fn(&Batch, &PartitionCtx) -> Result<Batch> + Sync,
{
    let n = input.num_partitions();
    let results = run_on_workers(n, ctx.num_workers, |p| {
        let pctx = PartitionCtx {
            partition: p,
            num_partitions: n,
            worker: p % ctx.num_workers,
            num_workers: ctx.num_workers,
            node: input.home(p).to_string(),
        };
        f(input.partition(p), &pctx)
    })?;
    Ok(PartitionedTable::from_batches(
        input.schema().clone(),
        results,
        input.homes().to_vec(),
    ))
}

/// Run `f(p)` for every item `p` of `0..num_partitions` on up to
/// `workers` scoped threads, worker `w` taking items `w, w + workers, …`;
/// returns the outputs in item order. The whole call fails if any item
/// fails. Every thread is joined before a failure is reported (a
/// panicked thread left to `scope` re-panics in the caller); with one
/// worker per item, the failure reported is the first in item order,
/// whichever thread finished first.
pub fn run_on_workers<T, F>(num_partitions: usize, workers: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if num_partitions == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.clamp(1, num_partitions);
    if workers == 1 {
        return (0..num_partitions).map(&f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || -> Result<Vec<(usize, T)>> {
                    let mut out = Vec::new();
                    let mut p = w;
                    while p < num_partitions {
                        out.push((p, f(p)?));
                        p += workers;
                    }
                    Ok(out)
                })
            })
            .collect();
        // Join every worker before reporting the first failure: a
        // panicked thread left to `scope` re-panics in the caller.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let mut slots: Vec<Option<T>> = (0..num_partitions).map(|_| None).collect();
        for chunk in joined {
            let chunk =
                chunk.map_err(|_| SqlmlError::Execution("worker thread panicked".into()))??;
            for (p, v) in chunk {
                slots[p] = Some(v);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(p, s)| {
                s.ok_or_else(|| SqlmlError::Execution(format!("partition {p} produced no result")))
            })
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn execute_join(
    left: &Plan,
    right: &Plan,
    left_keys: &[Expr],
    right_keys: &[Expr],
    kind: JoinKind,
    build: BuildSide,
    project: Option<&[usize]>,
    schema: &sqlml_common::Schema,
    ctx: &ExecContext,
) -> Result<PartitionedTable> {
    let left_data = execute(left, ctx)?;
    let right_data = execute(right, ctx)?;

    let (build_data, probe_data, build_keys, probe_keys) = match build {
        BuildSide::Right => (&right_data, &left_data, right_keys, left_keys),
        BuildSide::Left => (&left_data, &right_data, left_keys, right_keys),
    };
    debug_assert!(
        kind == JoinKind::Inner || build == BuildSide::Right,
        "left-outer joins must build from the right side"
    );

    // Output layout is always (left ++ right), or the `project` columns
    // of it: each output column is (comes from the build side, index).
    let left_width = left_data.schema().len();
    let side = |c: usize| match c.checked_sub(left_width) {
        None => (build == BuildSide::Left, c),
        Some(rc) => (build == BuildSide::Right, rc),
    };
    let all = 0..left_width + right_data.schema().len();
    let out_cols: Vec<(bool, usize)> = match project {
        Some(cols) => cols.iter().map(|&c| side(c)).collect(),
        None => all.map(side).collect(),
    };

    // Build phase: the (gathered/broadcast) build side becomes one
    // batch. Partition dictionaries are merged by value there, so a
    // build column's codes are never read against another partition's.
    let build_batch = Batch::concat(build_data.schema().len(), build_data.partitions());
    let build_rows = counter_u32(build_batch.len(), "join build row count")?;
    let build_cols = eval_all(build_keys, &build_batch)?;
    let probe_cols: Vec<Vec<Arc<Column>>> =
        run_on_workers(probe_data.num_partitions(), ctx.num_workers, |p| {
            eval_all(probe_keys, probe_data.partition(p))
        })?;
    // One `Int` key on both sides hashes the integer itself; any other
    // key shape hashes the values, with `Value`'s equality.
    let is_int =
        |cols: &Vec<Arc<Column>>| matches!(&cols[..], [c] if matches!(**c, Column::Int(_)));
    let int_keys = is_int(&build_cols) && probe_cols.iter().all(is_int);
    let table = JoinTable::build(&build_cols, build_rows, int_keys);

    let result = map_partitions(probe_data, ctx, |batch, pctx| {
        let keys = &probe_cols[pctx.partition];
        let rows = counter_u32(batch.len(), "partition row count")?;
        // Matched (probe row, build row) pairs in probe order, a probe
        // row's matches in build order; NULL_ROW pads an unmatched
        // left-outer row. NULL keys never match.
        let mut probe_ids: Vec<u32> = Vec::with_capacity(batch.len());
        let mut build_ids: Vec<u32> = Vec::with_capacity(batch.len());
        for i in 0..rows {
            let before = build_ids.len();
            if build_keys.is_empty() {
                build_ids.extend(0..build_rows);
            } else if let Some(hash) = key_hash(keys, i as usize, int_keys) {
                let mut b = table.first(hash);
                while b != NULL_ROW {
                    if table.hashes[b as usize] == hash
                        && keys_equal(&build_cols, b as usize, keys, i as usize)
                    {
                        build_ids.push(b);
                    }
                    b = table.next[b as usize];
                }
            }
            if build_ids.len() == before && kind == JoinKind::LeftOuter {
                build_ids.push(NULL_ROW);
            }
            probe_ids.resize(build_ids.len(), i);
        }
        let columns = (out_cols.iter())
            .map(|&(from_build, c)| match from_build {
                true => Arc::new(build_batch.column(c).gather(&build_ids)),
                false => Arc::new(batch.column(c).gather(&probe_ids)),
            })
            .collect();
        Ok(Batch::new(columns, probe_ids.len()))
    })?;
    Ok(replace_schema(result, schema.clone()))
}

fn eval_all(exprs: &[Expr], batch: &Batch) -> Result<Vec<Arc<Column>>> {
    exprs.iter().map(|e| e.eval(batch)).collect()
}

/// The build side's hash index: a chained table over build row ids.
/// `next` threads each bucket's rows in ascending row order, so a probe
/// meets its matches in build order.
struct JoinTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    /// Key hash per build row (0 for a NULL key, which is never linked).
    hashes: Vec<u64>,
    shift: u32,
}

impl JoinTable {
    fn build(keys: &[Arc<Column>], rows: u32, int_keys: bool) -> JoinTable {
        let buckets = (rows as usize * 2).next_power_of_two().max(16);
        let mut t = JoinTable {
            heads: vec![NULL_ROW; buckets],
            next: vec![NULL_ROW; rows as usize],
            hashes: vec![0; rows as usize],
            shift: 64 - buckets.trailing_zeros(),
        };
        for b in (0..rows).rev() {
            if let Some(hash) = key_hash(keys, b as usize, int_keys) {
                let bucket = t.bucket(hash);
                t.hashes[b as usize] = hash;
                t.next[b as usize] = std::mem::replace(&mut t.heads[bucket], b);
            }
        }
        t
    }

    /// The table indexes by a hash's high bits (`heads.len()` of them).
    fn bucket(&self, hash: u64) -> usize {
        // Shifted down to fewer bits than `heads.len()`, a usize.
        #[allow(clippy::cast_possible_truncation)]
        let bucket = (hash >> self.shift) as usize;
        bucket
    }

    fn first(&self, hash: u64) -> u32 {
        self.heads[self.bucket(hash)]
    }
}

/// Hash of row `i`'s key; `None` when any key cell is NULL (no match in
/// SQL). Equal keys (by [`Value`]'s equality) hash equal.
fn key_hash(keys: &[Arc<Column>], i: usize, int_keys: bool) -> Option<u64> {
    use std::hash::{Hash, Hasher};
    if let ([key], true) = (keys, int_keys) {
        if let Column::Int(p) = &**key {
            // Fibonacci hashing: the table indexes by the high bits.
            return p
                .get(i)
                .map(|v| (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for key in keys {
        let v = key.value(i);
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

fn keys_equal(build: &[Arc<Column>], b: usize, probe: &[Arc<Column>], p: usize) -> bool {
    build.iter().zip(probe).all(|(x, y)| match (&**x, &**y) {
        (Column::Int(x), Column::Int(y)) => x.values()[b] == y.values()[p],
        (x, y) => x.value(b) == y.value(p),
    })
}

// ---------------------------------------------------------------------------
// Aggregation (parallel partials, sequential merge)
// ---------------------------------------------------------------------------

/// Accumulator state for one aggregate within one group.
#[derive(Debug, Clone)]
enum Accum {
    CountAll(i64),
    Count(i64),
    SumDouble(Option<f64>),
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
    Distinct(HashSet<Value>),
}

impl Accum {
    fn update(&mut self, v: Option<Value>) -> Result<()> {
        match self {
            Accum::CountAll(c) => *c += 1,
            Accum::Count(c) => {
                if matches!(&v, Some(x) if !x.is_null()) {
                    *c += 1;
                }
            }
            Accum::SumDouble(s) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        *s = Some(s.unwrap_or(0.0) + x.as_f64()?);
                    }
                }
            }
            Accum::Avg { sum, count } => {
                if let Some(x) = v {
                    if !x.is_null() {
                        *sum += x.as_f64()?;
                        *count += 1;
                    }
                }
            }
            Accum::Min(m) => {
                if let Some(x) = v {
                    if !x.is_null() && m.as_ref().is_none_or(|cur| x < *cur) {
                        *m = Some(x);
                    }
                }
            }
            Accum::Max(m) => {
                if let Some(x) = v {
                    if !x.is_null() && m.as_ref().is_none_or(|cur| x > *cur) {
                        *m = Some(x);
                    }
                }
            }
            Accum::Distinct(set) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        set.insert(x);
                    }
                }
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: Accum) -> Result<()> {
        match (self, other) {
            (Accum::CountAll(a), Accum::CountAll(b)) => *a += b,
            (Accum::Count(a), Accum::Count(b)) => *a += b,
            (Accum::SumDouble(a), Accum::SumDouble(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.unwrap_or(0.0) + bv);
                }
            }
            (Accum::Avg { sum, count }, Accum::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (Accum::Min(a), Accum::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|cur| bv < *cur) {
                        *a = Some(bv);
                    }
                }
            }
            (Accum::Max(a), Accum::Max(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|cur| bv > *cur) {
                        *a = Some(bv);
                    }
                }
            }
            (Accum::Distinct(a), Accum::Distinct(b)) => a.extend(b),
            _ => {
                return Err(SqlmlError::Execution(
                    "mismatched accumulators in aggregate merge".into(),
                ))
            }
        }
        Ok(())
    }

    /// The aggregate's value. A cell of a `SUM`/`AVG(DISTINCT)` set that
    /// is not a number is the same `Type` error `update` raises for it
    /// without `DISTINCT`.
    fn finalize(self, func: AggFunc) -> Result<Value> {
        Ok(match self {
            Accum::CountAll(c) | Accum::Count(c) => Value::Int(c),
            Accum::SumDouble(s) => s.map(Value::Double).unwrap_or(Value::Null),
            Accum::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / count as f64)
                }
            }
            Accum::Min(m) | Accum::Max(m) => m.unwrap_or(Value::Null),
            Accum::Distinct(set) => match func {
                AggFunc::Count => Value::Int(set.len() as i64),
                AggFunc::Sum => {
                    if set.is_empty() {
                        Value::Null
                    } else {
                        Value::Double(set.iter().map(Value::as_f64).sum::<Result<f64>>()?)
                    }
                }
                AggFunc::Avg => {
                    if set.is_empty() {
                        Value::Null
                    } else {
                        let s = set.iter().map(Value::as_f64).sum::<Result<f64>>()?;
                        Value::Double(s / set.len() as f64)
                    }
                }
                AggFunc::Min => set.into_iter().min().unwrap_or(Value::Null),
                AggFunc::Max => set.into_iter().max().unwrap_or(Value::Null),
            },
        })
    }
}

fn execute_aggregate(
    input: &PartitionedTable,
    group_exprs: &[Expr],
    aggs: &[AggExpr],
    ctx: &ExecContext,
) -> Result<Vec<Row>> {
    // Partial aggregation per partition, in parallel.
    type Groups = HashMap<Vec<Value>, Vec<Accum>>;
    let partials: Vec<Groups> = run_on_workers(input.num_partitions(), ctx.num_workers, |p| {
        // Group keys and aggregate arguments are evaluated as columns,
        // then folded row by row.
        let batch = input.partition(p);
        let key_cols = eval_all(group_exprs, batch)?;
        let arg_cols = (aggs.iter())
            .map(|a| a.arg.as_ref().map(|e| e.eval(batch)).transpose())
            .collect::<Result<Vec<Option<Arc<Column>>>>>()?;
        let mut groups: Groups = HashMap::new();
        for i in 0..batch.len() {
            let key = key_cols.iter().map(|c| c.value(i)).collect();
            let accums = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(new_accum).collect());
            for (arg, acc) in arg_cols.iter().zip(accums.iter_mut()) {
                acc.update(arg.as_ref().map(|c| c.value(i)))?;
            }
        }
        Ok(groups)
    })?;

    // Merge partials.
    let mut merged: Groups = HashMap::new();
    for part in partials {
        for (k, accs) in part {
            match merged.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(accs) {
                        a.merge(b)?;
                    }
                }
            }
        }
    }

    // A global aggregate (no GROUP BY) over zero rows still yields a row.
    if merged.is_empty() && group_exprs.is_empty() {
        merged.insert(Vec::new(), aggs.iter().map(new_accum).collect());
    }

    let mut rows: Vec<Row> = merged
        .into_iter()
        .map(|(key, accs)| {
            let mut values = key;
            for (a, acc) in aggs.iter().zip(accs) {
                values.push(acc.finalize(a.func)?);
            }
            Ok(Row::new(values))
        })
        .collect::<Result<_>>()?;
    // Deterministic output order (grouped results are small).
    rows.sort();
    Ok(rows)
}

fn new_accum(a: &AggExpr) -> Accum {
    if a.distinct {
        return Accum::Distinct(HashSet::new());
    }
    match a.func {
        AggFunc::Count if a.arg.is_none() => Accum::CountAll(0),
        AggFunc::Count => Accum::Count(0),
        // SUM always accumulates (and reports) DOUBLE; see planner's
        // `agg_output_type`.
        AggFunc::Sum => Accum::SumDouble(None),
        AggFunc::Avg => Accum::Avg { sum: 0.0, count: 0 },
        AggFunc::Min => Accum::Min(None),
        AggFunc::Max => Accum::Max(None),
    }
}
