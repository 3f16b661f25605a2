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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use sqlml_common::{counter_u32, Result, Row, Schema, SqlmlError, Value};

use crate::ast::{AggFunc, JoinKind};
use crate::column::{Batch, Column, Prim, NULL_ROW};
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
    let selected = match &*keep {
        Column::Bool(p) => match (p.values(), p.validity()) {
            (hit, None) => selection(rows, |i| hit[i as usize]),
            (hit, Some(valid)) => selection(rows, |i| hit[i as usize] & valid[i as usize]),
        },
        other => selection(rows, |i| {
            matches!(other.value(i as usize), Value::Bool(true))
        }),
    };
    Ok(match selected {
        None => batch.clone(),
        Some(selected) => batch.gather(&selected),
    })
}

/// The rows of `0..rows` where `holds`, in order, or `None` when that is
/// every row. Built without a branch on `holds`, whose outcome on real
/// data the branch predictor cannot guess: every row id is written at
/// slot `n`, and `n` advances by the predicate bit. The rows are counted
/// first, so the selection is sized to them exactly.
fn selection(rows: u32, holds: impl Fn(u32) -> bool) -> Option<Vec<u32>> {
    let kept = (0..rows).map(|i| usize::from(holds(i))).sum();
    if kept == rows as usize {
        return None;
    }
    // One spare slot: a rejected row after the last kept one is written
    // there before it is dropped.
    let mut selected = vec![0; kept + 1];
    let mut n = 0;
    for i in 0..rows {
        selected[n] = i;
        n += usize::from(holds(i));
    }
    selected.truncate(kept);
    Some(selected)
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
/// fails, a panicking item included: it is an error whether it ran on a
/// worker thread or inline (one worker, or one item). Every thread is
/// joined before a failure is reported (a panicked thread left to
/// `scope` re-panics in the caller); with one worker per item, the
/// failure reported is the first in item order, whichever thread
/// finished first.
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
        // Inline on the caller's thread; a panicking item is the same
        // error here as on a worker thread, not an unwind of the caller.
        return catch_unwind(AssertUnwindSafe(|| (0..num_partitions).map(&f).collect()))
            .unwrap_or_else(|_| Err(SqlmlError::Execution("worker thread panicked".into())));
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
    // One `Int` build key is read as the integer itself: direct addressed
    // when the keys are dense, else Fibonacci hashed. Any other key shape
    // hashes the values, with `Value`'s equality. A probe partition whose
    // keys are not one `Int` column probes a table of the values, built
    // once, on first need; both tables give a probe row's matches by
    // `Value`'s equality, in build order.
    let int_keys = int_key(&build_cols).is_some();
    let table = JoinTable::build(&build_cols, build_rows, int_keys);
    let by_value = OnceLock::new();

    let result = map_partitions(probe_data, ctx, |batch, _| {
        let keys = eval_all(probe_keys, batch)?;
        // An empty partition probes nothing: it builds no value table.
        let table = match int_keys && !batch.is_empty() && int_key(&keys).is_none() {
            true => by_value.get_or_init(|| JoinTable::build(&build_cols, build_rows, false)),
            false => &table,
        };
        let rows = counter_u32(batch.len(), "partition row count")?;
        let (probe_ids, build_ids) = table.probe(&build_cols, &keys, rows, kind);
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

/// The key's values when it is one `Int` column.
fn int_key(cols: &[Arc<Column>]) -> Option<&Prim<i64>> {
    match cols {
        [c] => match &**c {
            Column::Int(p) => Some(p),
            _ => None,
        },
        _ => None,
    }
}

/// A dense build side's `Int` keys span at most this many values per
/// build row; a wider span is hashed. At the bound, the direct-addressed
/// `heads` hold 16 bytes per build row, no more than the hashed table's
/// `heads` and `hashes` together.
const DENSE_SPAN_PER_ROW: i128 = 4;

/// The build side's index: a chained table over build row ids. `next`
/// threads each bucket's rows in ascending row order, so a probe meets
/// its matches in build order. NULL keys are never linked.
struct JoinTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    index: Index,
}

/// How a key picks its bucket.
enum Index {
    /// One `Int` key whose non-NULL build values span at most
    /// [`DENSE_SPAN_PER_ROW`] × the build rows: the bucket is `key − min`,
    /// one per value, so a bucket holds only equal keys. `unique`: no
    /// bucket holds two build rows.
    Dense { min: i64, unique: bool },
    /// The high bits of the key's hash (`shift` drops the rest): a bucket
    /// may mix keys, so a candidate is confirmed by its hash and by
    /// [`keys_equal`]. With no key (a cross join) every row hashes alike,
    /// so one chain holds the whole build side, in order.
    Hashed {
        /// Key hash per build row (0 for a NULL key).
        hashes: Vec<u64>,
        shift: u32,
        int_keys: bool,
    },
}

impl JoinTable {
    fn build(keys: &[Arc<Column>], rows: u32, int_keys: bool) -> JoinTable {
        match int_key(keys) {
            Some(key) if int_keys => {
                Self::build_dense(key, rows).unwrap_or_else(|| Self::build_hashed(keys, rows, true))
            }
            _ => Self::build_hashed(keys, rows, int_keys),
        }
    }

    /// The direct-addressed table, or `None` when the keys are too sparse.
    fn build_dense(key: &Prim<i64>, rows: u32) -> Option<JoinTable> {
        let (min, max) = ((0..key.len()).filter_map(|b| key.get(b)))
            .fold((i64::MAX, i64::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
        // Computed wide: `max − min` overflows an i64 for keys at both ends.
        let span = match min <= max {
            true => i128::from(max) - i128::from(min) + 1,
            false => 0,
        };
        if span > DENSE_SPAN_PER_ROW * i128::from(rows) {
            return None;
        }
        let mut heads = vec![NULL_ROW; usize::try_from(span).ok()?];
        let mut next = vec![NULL_ROW; rows as usize];
        let mut unique = true;
        for b in (0..rows).rev() {
            // Every non-NULL key has a bucket: it lies in [min, max].
            let bucket = (key.get(b as usize)).and_then(|k| dense_bucket(min, k, heads.len()));
            if let Some(bucket) = bucket {
                next[b as usize] = std::mem::replace(&mut heads[bucket], b);
                unique &= next[b as usize] == NULL_ROW;
            }
        }
        let index = Index::Dense { min, unique };
        Some(JoinTable { heads, next, index })
    }

    fn build_hashed(keys: &[Arc<Column>], rows: u32, int_keys: bool) -> JoinTable {
        let buckets = (rows as usize * 2).next_power_of_two().max(16);
        let shift = 64 - buckets.trailing_zeros();
        let mut heads = vec![NULL_ROW; buckets];
        let mut next = vec![NULL_ROW; rows as usize];
        let mut hashes = vec![0; rows as usize];
        for b in (0..rows).rev() {
            if let Some(hash) = key_hash(keys, b as usize, int_keys) {
                hashes[b as usize] = hash;
                next[b as usize] = std::mem::replace(&mut heads[hashed_bucket(hash, shift)], b);
            }
        }
        let index = Index::Hashed {
            hashes,
            shift,
            int_keys,
        };
        JoinTable { heads, next, index }
    }

    /// Matched (probe row, build row) pairs in probe order, a probe row's
    /// matches in build order; `NULL_ROW` pads an unmatched left-outer
    /// row. NULL keys never match.
    fn probe(
        &self,
        build: &[Arc<Column>],
        keys: &[Arc<Column>],
        rows: u32,
        kind: JoinKind,
    ) -> (Vec<u32>, Vec<u32>) {
        match (&self.index, int_key(keys)) {
            (&Index::Dense { min, unique: true }, Some(key)) => {
                self.probe_unique(min, key, rows, kind)
            }
            _ => self.probe_chained(build, keys, rows, kind),
        }
    }

    /// The pairs of a dense table whose buckets hold one build row each
    /// (a key–foreign-key join). A probe row meets at most one build row,
    /// so the pairs are emitted the way [`selection`] emits rows: every
    /// probe row is written at slot `n` with its build row, and `n`
    /// advances by the match bit (inner) or by one (left outer), with no
    /// branch on the match. The pairs are counted first, so the id
    /// vectors are sized to them exactly.
    fn probe_unique(
        &self,
        min: i64,
        key: &Prim<i64>,
        rows: u32,
        kind: JoinKind,
    ) -> (Vec<u32>, Vec<u32>) {
        let first = |i: u32| self.dense_head(min, key, i);
        let outer = kind == JoinKind::LeftOuter;
        let pairs = match outer {
            true => rows as usize,
            false => (0..rows).map(|i| usize::from(first(i) != NULL_ROW)).sum(),
        };
        // One spare slot, as in `selection`.
        let (mut probe_ids, mut build_ids) = (vec![0; pairs + 1], vec![0; pairs + 1]);
        let mut n = 0;
        for i in 0..rows {
            let b = first(i);
            probe_ids[n] = i;
            build_ids[n] = b;
            n += usize::from(outer || b != NULL_ROW);
        }
        probe_ids.truncate(pairs);
        build_ids.truncate(pairs);
        (probe_ids, build_ids)
    }

    /// The first build row in probe row `i`'s bucket of a dense table,
    /// `NULL_ROW` for a NULL key or one outside `[min, max]`.
    fn dense_head(&self, min: i64, key: &Prim<i64>, i: u32) -> u32 {
        let bucket = (key.get(i as usize)).and_then(|k| dense_bucket(min, k, self.heads.len()));
        bucket.map_or(NULL_ROW, |bucket| self.heads[bucket])
    }

    /// The pairs of any other table, by walking each probe key's bucket
    /// chain.
    fn probe_chained(
        &self,
        build: &[Arc<Column>],
        keys: &[Arc<Column>],
        rows: u32,
        kind: JoinKind,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut probe_ids: Vec<u32> = Vec::with_capacity(rows as usize);
        let mut build_ids: Vec<u32> = Vec::with_capacity(rows as usize);
        let int = int_key(keys);
        for i in 0..rows {
            let before = build_ids.len();
            match &self.index {
                &Index::Dense { min, .. } => {
                    // lint:allow(panic) a dense table is built only for one Int probe key
                    let key = int.expect("a dense table is probed by one Int key");
                    // A bucket holds only equal keys: every row matches.
                    let mut b = self.dense_head(min, key, i);
                    while b != NULL_ROW {
                        build_ids.push(b);
                        b = self.next[b as usize];
                    }
                }
                Index::Hashed {
                    hashes,
                    shift,
                    int_keys,
                } => {
                    if let Some(hash) = key_hash(keys, i as usize, *int_keys) {
                        let mut b = self.heads[hashed_bucket(hash, *shift)];
                        while b != NULL_ROW {
                            if hashes[b as usize] == hash
                                && keys_equal(build, b as usize, keys, i as usize)
                            {
                                build_ids.push(b);
                            }
                            b = self.next[b as usize];
                        }
                    }
                }
            }
            if build_ids.len() == before && kind == JoinKind::LeftOuter {
                build_ids.push(NULL_ROW);
            }
            probe_ids.resize(build_ids.len(), i);
        }
        (probe_ids, build_ids)
    }
}

/// `key`'s bucket in a dense table of `buckets` buckets from `min`,
/// `None` outside them. The offset is taken modulo 2^64: a key below
/// `min` wraps to at least `i64::MAX − min + 1`, past the last bucket's
/// offset `max − min` because `max` is at most `i64::MAX`, so one
/// unsigned compare bounds both ends.
fn dense_bucket(min: i64, key: i64, buckets: usize) -> Option<usize> {
    let offset = usize::try_from(key.wrapping_sub(min) as u64).ok()?;
    (offset < buckets).then_some(offset)
}

/// A hashed table indexes by a hash's high bits (`64 − shift` of them).
fn hashed_bucket(hash: u64, shift: u32) -> usize {
    // Shifted down to fewer bits than `heads.len()`, a usize.
    #[allow(clippy::cast_possible_truncation)]
    let bucket = (hash >> shift) as usize;
    bucket
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

#[cfg(test)]
mod tests {
    use super::*;

    fn int_keys(keys: &[Option<i64>]) -> Vec<Arc<Column>> {
        let values = keys.iter().map(|k| k.unwrap_or_default()).collect();
        let valid = keys.iter().map(Option::is_some).collect();
        vec![Arc::new(Column::Int(Prim::new(values, Some(valid))))]
    }

    /// The pairs a nested loop gives, in probe order, then build order.
    fn nested_loop_pairs(
        build: &[Option<i64>],
        probe: &[Option<i64>],
        kind: JoinKind,
    ) -> (Vec<u32>, Vec<u32>) {
        let (mut probe_ids, mut build_ids) = (Vec::new(), Vec::new());
        for (i, p) in (0..).zip(probe) {
            let before = build_ids.len();
            for (b, k) in (0..).zip(build) {
                if p.is_some() && p == k {
                    build_ids.push(b);
                }
            }
            if build_ids.len() == before && kind == JoinKind::LeftOuter {
                build_ids.push(NULL_ROW);
            }
            probe_ids.resize(build_ids.len(), i);
        }
        (probe_ids, build_ids)
    }

    #[test]
    fn a_probe_partition_without_one_int_key_column_matches_an_int_build_side_by_value() {
        use crate::{Engine, EngineConfig};
        use sqlml_common::schema::{DataType, Field};
        use sqlml_common::Row;
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("i", DataType::Int),
        ]);
        let rows = |keys: &[Value]| -> Vec<Row> {
            (keys.iter().zip(0..))
                .map(|(k, i)| Row::new(vec![k.clone(), Value::Int(i)]))
                .collect()
        };
        let int = |k: &[i64]| k.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        // Dense `Int` build keys, a repeat and a NULL among them.
        let build = vec![rows(
            &[int(&[1, 2, 3]), vec![Value::Null], int(&[3])].concat(),
        )];
        // An `Int` partition, one whose keys degrade to `Mixed` (a double
        // equal to a build key by `Value`'s equality, a string, a NULL)
        // and an empty one.
        let mixed = [
            Value::Double(3.0),
            Value::Int(2),
            Value::str("x"),
            Value::Null,
        ];
        let probe = vec![rows(&int(&[3, 1, 9])), rows(&mixed), Vec::new()];
        let scan = |name: &str, parts: &[Vec<Row>]| Plan::Scan {
            name: name.into(),
            table: Arc::new(PartitionedTable::new(schema.clone(), parts.to_vec())),
        };
        let engine = Engine::new(EngineConfig::with_workers(2));
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            let (left, right) = (scan("p", &probe), scan("b", &build));
            let plan = Plan::HashJoin {
                schema: left.schema().join(&right.schema()),
                left: Box::new(left),
                right: Box::new(right),
                left_keys: vec![Expr::Col(0)],
                right_keys: vec![Expr::Col(0)],
                kind,
                build: BuildSide::Right,
                project: None,
            };
            let mut expect = Vec::new();
            for p in probe.iter().flatten() {
                let before = expect.len();
                for b in build[0]
                    .iter()
                    .filter(|b| !p.get(0).is_null() && b.get(0) == p.get(0))
                {
                    expect.push(Row::new([p.values(), b.values()].concat()));
                }
                if expect.len() == before && kind == JoinKind::LeftOuter {
                    expect.push(Row::new([p.values(), &[Value::Null, Value::Null]].concat()));
                }
            }
            let got = execute(&plan, engine.exec_context()).unwrap();
            assert_eq!(got.collect_rows(), expect, "{kind:?}");
        }
    }

    #[test]
    fn a_build_side_spanning_the_density_bound_is_direct_addressed_and_one_key_past_it_is_hashed() {
        // Six build rows, a NULL one among them: the bound counts it.
        let bound = i64::try_from(DENSE_SPAN_PER_ROW).unwrap() * 6;
        let near = |k: i64| [k - 2, k - 1, k, k + 1, k + 2];
        for base in [i64::MIN, -3, 0, i64::MAX - bound] {
            for (last, dense) in [(bound - 1, true), (bound, false)] {
                for duplicate in [false, true] {
                    // Keys from `base` to `base + last`, spanning the bound
                    // or one more; a duplicate key repeats the first.
                    let second = if duplicate { 0 } else { 1 };
                    let build: Vec<Option<i64>> = [0, second, 2, 3, last]
                        .iter()
                        .map(|&o| Some(base + o))
                        .chain([None])
                        .collect();
                    let rows = u32::try_from(build.len()).unwrap();
                    let keys = int_keys(&build);
                    let table = JoinTable::build(&keys, rows, true);
                    match (&table.index, dense) {
                        (&Index::Dense { min, unique }, true) => {
                            assert_eq!((min, unique), (base, !duplicate));
                        }
                        (Index::Hashed { .. }, false) => {}
                        _ => panic!("base {base}, last {last}: wrong index"),
                    }
                    // Every build key, its neighbours, both ends of the
                    // i64 range (which wrap around `key - min`) and NULL.
                    let probe: Vec<Option<i64>> = (build.iter().flatten())
                        .flat_map(|&k| near(k.clamp(i64::MIN + 2, i64::MAX - 2)))
                        .chain([i64::MIN, i64::MIN + 1, 0, i64::MAX - 1, i64::MAX])
                        .map(Some)
                        .chain([None])
                        .collect();
                    let probe_rows = u32::try_from(probe.len()).unwrap();
                    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
                        assert_eq!(
                            table.probe(&keys, &int_keys(&probe), probe_rows, kind),
                            nested_loop_pairs(&build, &probe, kind),
                            "base {base}, last {last}, duplicate {duplicate}, {kind:?}"
                        );
                    }
                }
            }
        }
    }
}
