//! Parallel plan execution.
//!
//! Plans execute partition-at-a-time across a pool of worker threads: the
//! engine's "SQL workers". Worker `w` processes partitions `w, w+W, …` of
//! every operator, so a table UDF invoked over an `n`-partition table runs
//! `n` parallel instances spread over `W` workers — exactly the execution
//! model the paper's In-SQL transformations and streaming-transfer UDF
//! rely on.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use sqlml_common::{Result, Row, SqlmlError, Value};

use crate::ast::{AggFunc, JoinKind};
use crate::expr::Expr;
use crate::plan::{AggExpr, BuildSide, FusedStage, Plan};
use crate::table::PartitionedTable;
use crate::udf::PartitionCtx;

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

    pub fn worker_node(&self, worker: usize) -> &str {
        &self.nodes[worker % self.nodes.len()]
    }
}

/// Execute a plan, producing a partitioned result.
pub fn execute(plan: &Plan, ctx: &ExecContext) -> Result<PartitionedTable> {
    match plan {
        Plan::Scan { table, .. } => Ok(PartitionedTable::from_shared(
            table.schema().clone(),
            table.partitions().to_vec(),
            table.homes().to_vec(),
        )),

        Plan::Filter { input, predicate } => {
            let child = execute(input, ctx)?;
            map_partitions(&child, ctx, |rows, _| {
                // Preallocate from the planner's uniform selectivity
                // guess (1/4) so typical filters don't regrow the output.
                let mut out = Vec::with_capacity(rows.len() / 4 + 1);
                for r in rows {
                    if predicate.eval_predicate(r)? {
                        out.push(r.clone());
                    }
                }
                Ok(out)
            })
        }

        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            let child = execute(input, ctx)?;
            let mapped = map_partitions(&child, ctx, |rows, _| {
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    let mut values = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        values.push(e.eval(r)?);
                    }
                    out.push(Row::new(values));
                }
                Ok(out)
            })?;
            Ok(replace_schema(mapped, schema.clone()))
        }

        Plan::TableUdfScan {
            udf,
            input,
            args,
            schema,
        } => {
            let child = execute(input, ctx)?;
            let input_schema = child.schema().clone();
            let mapped = map_partitions(&child, ctx, |rows, pctx| {
                udf.execute(rows, &input_schema, args, pctx)
            })?;
            Ok(replace_schema(mapped, schema.clone()))
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

        Plan::Distinct { input } => {
            let child = execute(input, ctx)?;
            execute_distinct(&child, ctx)
        }

        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => {
            let child = execute(input, ctx)?;
            let rows = execute_aggregate(&child, group_exprs, aggs, ctx)?;
            Ok(gather_to_first_home(schema.clone(), rows, &child))
        }

        Plan::Sort { input, keys } => {
            let child = execute(input, ctx)?;
            let rows = parallel_sort(&child, keys, ctx)?;
            Ok(gather_to_first_home(child.schema().clone(), rows, &child))
        }

        Plan::Limit { input, n } => {
            let child = execute(input, ctx)?;
            let mut rows = Vec::with_capacity((*n).min(child.num_rows()));
            // Bulk-copy each partition's prefix instead of per-row clone.
            for p in child.partitions() {
                let take = (*n - rows.len()).min(p.len());
                rows.extend_from_slice(&p[..take]);
                if rows.len() == *n {
                    break;
                }
            }
            Ok(gather_to_first_home(child.schema().clone(), rows, &child))
        }

        Plan::Fused {
            input,
            stages,
            schema,
        } => {
            let child = execute(input, ctx)?;
            let mapped = map_partitions(&child, ctx, |rows, pctx| run_fused(rows, stages, pctx))?;
            Ok(replace_schema(mapped, schema.clone()))
        }
    }
}

/// Wrap gathered (single-partition) result rows, homing the output at
/// the first input partition's node. Gather-style operators (`Sort`,
/// `Aggregate`, `Limit`) collapse to one partition; defaulting its home
/// to node-0 would silently degrade downstream locality-aware placement,
/// so the gather is instead attributed to the node that holds the first
/// input partition (where a real engine's gather coordinator would run).
fn gather_to_first_home(
    schema: sqlml_common::Schema,
    rows: Vec<Row>,
    child: &PartitionedTable,
) -> PartitionedTable {
    let out = PartitionedTable::single(schema, rows);
    match child.homes().first() {
        Some(h) => out.with_homes(vec![h.clone()]),
        None => out,
    }
}

/// Execute a fused stage chain over one partition. Consecutive scalar
/// stages (`Filter`/`Project`) run row-at-a-time — a rejected row exits
/// the whole run with no output written, and a projected row feeds the
/// next stage without touching a partition-sized buffer. UDF stages are
/// batch boundaries: they consume the current buffer and produce the
/// next.
fn run_fused(rows: &[Row], stages: &[FusedStage], pctx: &PartitionCtx) -> Result<Vec<Row>> {
    // `buf` is None while the input partition can still be borrowed.
    let mut buf: Option<Vec<Row>> = None;
    let mut i = 0;
    while i < stages.len() {
        if let FusedStage::Udf {
            udf,
            args,
            input_schema,
        } = &stages[i]
        {
            let input_rows: &[Row] = buf.as_deref().unwrap_or(rows);
            buf = Some(udf.execute(input_rows, input_schema, args, pctx)?);
            i += 1;
            continue;
        }
        // Scalar run: [i, j) holds only Filter/Project stages.
        let mut j = i;
        while j < stages.len() && !matches!(stages[j], FusedStage::Udf { .. }) {
            j += 1;
        }
        let run = &stages[i..j];
        let input_rows: &[Row] = buf.as_deref().unwrap_or(rows);
        let has_filter = run.iter().any(|s| matches!(s, FusedStage::Filter(_)));
        let mut out = Vec::with_capacity(if has_filter {
            input_rows.len() / 4 + 1
        } else {
            input_rows.len()
        });
        'row: for r in input_rows {
            let mut owned: Option<Row> = None;
            for stage in run {
                let cur = owned.as_ref().unwrap_or(r);
                match stage {
                    FusedStage::Filter(pred) => {
                        if !pred.eval_predicate(cur)? {
                            continue 'row;
                        }
                    }
                    FusedStage::Project { exprs } => {
                        let mut values = Vec::with_capacity(exprs.len());
                        for e in exprs {
                            values.push(e.eval(cur)?);
                        }
                        owned = Some(Row::new(values));
                    }
                    FusedStage::Udf { .. } => unreachable!("scalar run contains no UDF stages"),
                }
            }
            out.push(owned.unwrap_or_else(|| r.clone()));
        }
        buf = Some(out);
        i = j;
    }
    Ok(buf.unwrap_or_else(|| rows.to_vec()))
}

// ---------------------------------------------------------------------------
// Sort (parallel per-partition sort + k-way merge)
// ---------------------------------------------------------------------------

/// Row sort key captured for the merge heap: per key column, the value
/// plus its descending flag.
struct SortKey(Vec<(Value, bool)>);

impl SortKey {
    fn of(row: &Row, keys: &[(usize, bool)]) -> SortKey {
        SortKey(
            keys.iter()
                .map(|(idx, desc)| (row.get(*idx).clone(), *desc))
                .collect(),
        )
    }
}

impl PartialEq for SortKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for SortKey {}
impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for ((a, desc), (b, _)) in self.0.iter().zip(other.0.iter()) {
            let ord = a.cmp(b);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }
}

fn sort_cmp(a: &Row, b: &Row, keys: &[(usize, bool)]) -> std::cmp::Ordering {
    for (idx, desc) in keys {
        let ord = a.get(*idx).cmp(b.get(*idx));
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Sort every partition in parallel on the worker pool, then k-way merge
/// the sorted runs on the driver — the O(N log N) comparison work runs
/// on all workers instead of one thread.
fn parallel_sort(
    input: &PartitionedTable,
    keys: &[(usize, bool)],
    ctx: &ExecContext,
) -> Result<Vec<Row>> {
    let n = input.num_partitions();
    let sorted: Vec<Vec<Row>> = run_on_workers(n, ctx, |p| {
        let mut rows: Vec<Row> = input.partition(p).to_vec();
        rows.sort_by(|a, b| sort_cmp(a, b, keys));
        Ok(rows)
    })?;

    if sorted.len() == 1 {
        return sorted
            .into_iter()
            .next()
            .ok_or_else(|| SqlmlError::Execution("sorted partition vanished".into()));
    }

    // Merge: min-heap of (key, partition index) — the partition index
    // tie-break reproduces the stable gather order of a global sort.
    let total: usize = sorted.iter().map(|v| v.len()).sum();
    let mut iters: Vec<std::vec::IntoIter<Row>> =
        sorted.into_iter().map(|v| v.into_iter()).collect();
    let mut heap: BinaryHeap<std::cmp::Reverse<(SortKey, usize, Row)>> = BinaryHeap::new();
    for (p, it) in iters.iter_mut().enumerate() {
        if let Some(r) = it.next() {
            heap.push(std::cmp::Reverse((SortKey::of(&r, keys), p, r)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(std::cmp::Reverse((_, p, row))) = heap.pop() {
        out.push(row);
        if let Some(r) = iters[p].next() {
            heap.push(std::cmp::Reverse((SortKey::of(&r, keys), p, r)));
        }
    }
    Ok(out)
}

fn replace_schema(t: PartitionedTable, schema: sqlml_common::Schema) -> PartitionedTable {
    PartitionedTable::from_shared(schema, t.partitions().to_vec(), t.homes().to_vec())
}

/// Apply `f` to every partition in parallel across the worker pool,
/// preserving partition order and homes.
pub fn map_partitions<F>(
    input: &PartitionedTable,
    ctx: &ExecContext,
    f: F,
) -> Result<PartitionedTable>
where
    F: Fn(&[Row], &PartitionCtx) -> Result<Vec<Row>> + Sync,
{
    let n = input.num_partitions();
    let results = run_on_workers(n, ctx, |p| {
        let pctx = PartitionCtx {
            partition: p,
            num_partitions: n,
            worker: p % ctx.num_workers,
            num_workers: ctx.num_workers,
            node: input.home(p).to_string(),
        };
        f(input.partition(p), &pctx)
    })?;
    Ok(PartitionedTable::from_shared(
        input.schema().clone(),
        results.into_iter().map(Arc::new).collect(),
        input.homes().to_vec(),
    ))
}

/// Run a per-partition closure on the worker pool; returns outputs in
/// partition order. The whole call fails if any partition fails.
pub fn run_on_workers<T, F>(num_partitions: usize, ctx: &ExecContext, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if num_partitions == 0 {
        return Ok(Vec::new());
    }
    let workers = ctx.num_workers.min(num_partitions);
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
        let mut slots: Vec<Option<T>> = (0..num_partitions).map(|_| None).collect();
        for h in handles {
            let chunk = h
                .join()
                .map_err(|_| SqlmlError::Execution("worker thread panicked".into()))??;
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

    // Build phase: index the (gathered/broadcast) build side. Instead of
    // cloning build rows into the hash table, the index maps each
    // pre-hashed key to a bucket of (partition, row) ids — the build-side
    // partitions themselves stay the only copy of the rows.
    let mut index: HashMap<Prehashed, u32> = HashMap::new();
    let mut buckets: Vec<Vec<(u32, u32)>> = Vec::new();
    let is_cross = build_keys.is_empty();
    for (pi, part) in build_data.partitions().iter().enumerate() {
        if is_cross {
            continue;
        }
        for (ri, r) in part.iter().enumerate() {
            // NULL keys never match, so they are simply not added.
            if let Some(k) = eval_keys(build_keys, r)? {
                let bucket = match index.entry(Prehashed::new(k)) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let b = sqlml_common::counter_u32(buckets.len(), "join bucket count")?;
                        buckets.push(Vec::new());
                        e.insert(b);
                        b
                    }
                };
                buckets[bucket as usize].push((
                    sqlml_common::counter_u32(pi, "build partition index")?,
                    sqlml_common::counter_u32(ri, "build row index")?,
                ));
            }
        }
    }

    let left_width = left_data.schema().len();
    let right_width = right_data.schema().len();
    // Output layout is always (left ++ right), or the `project` columns
    // of it; an unmatched left-outer row sees an all-NULL right side.
    let null_right = Row::new(vec![Value::Null; right_width]);
    let emit = |l: &Row, r: &Row| -> Row {
        match project {
            None => l.concat(r),
            Some(cols) => cols
                .iter()
                .map(|&c| match c.checked_sub(left_width) {
                    None => l.get(c).clone(),
                    Some(rc) => r.get(rc).clone(),
                })
                .collect(),
        }
    };
    let build_parts = build_data.partitions();
    let cross_ids: Vec<(u32, u32)> = if is_cross {
        let mut ids = Vec::new();
        for (pi, part) in build_parts.iter().enumerate() {
            let pi = sqlml_common::counter_u32(pi, "build partition index")?;
            for ri in 0..part.len() {
                ids.push((pi, sqlml_common::counter_u32(ri, "build row index")?));
            }
        }
        ids
    } else {
        Vec::new()
    };

    let result = map_partitions(probe_data, ctx, |rows, _| {
        let mut out = Vec::new();
        for probe_row in rows {
            // Each probe key is evaluated and hashed exactly once.
            let matches: Option<&[(u32, u32)]> = if is_cross {
                if cross_ids.is_empty() {
                    None
                } else {
                    Some(&cross_ids)
                }
            } else {
                match eval_keys(probe_keys, probe_row)? {
                    Some(k) => index
                        .get(&Prehashed::new(k))
                        .map(|b| buckets[*b as usize].as_slice()),
                    None => None,
                }
            };
            match matches {
                Some(ids) => {
                    for &(pi, ri) in ids {
                        let m = &build_parts[pi as usize][ri as usize];
                        out.push(match build {
                            BuildSide::Right => emit(probe_row, m),
                            BuildSide::Left => emit(m, probe_row),
                        });
                    }
                }
                None => {
                    if kind == JoinKind::LeftOuter {
                        out.push(emit(probe_row, &null_right));
                    }
                }
            }
        }
        Ok(out)
    })?;
    Ok(replace_schema(result, schema.clone()))
}

/// A join key whose hash is computed exactly once, at construction. The
/// `Hash` impl just replays the stored 64-bit hash, so hash-map probes
/// never re-walk (or re-hash) the key values; equality still compares
/// the values to handle collisions.
struct Prehashed {
    hash: u64,
    key: Vec<Value>,
}

impl Prehashed {
    fn new(key: Vec<Value>) -> Prehashed {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        Prehashed {
            hash: h.finish(),
            key,
        }
    }
}

impl PartialEq for Prehashed {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}
impl Eq for Prehashed {}
impl std::hash::Hash for Prehashed {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Evaluate join keys; `None` when any key is NULL (no match in SQL).
fn eval_keys(keys: &[Expr], row: &Row) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = k.eval(row)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

// ---------------------------------------------------------------------------
// Distinct (two-phase, mirroring §2.1's distributed distinct)
// ---------------------------------------------------------------------------

fn execute_distinct(input: &PartitionedTable, ctx: &ExecContext) -> Result<PartitionedTable> {
    let n = input.num_partitions().max(1);

    // Phase 1: local distinct per partition, already bucketed by target
    // partition (hash of the whole row) for the exchange.
    let buckets: Vec<Vec<Vec<Row>>> = run_on_workers(input.num_partitions(), ctx, |p| {
        let mut seen: HashSet<&Row> = HashSet::new();
        let mut out: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
        for r in input.partition(p).iter() {
            if seen.insert(r) {
                // Bucket index is reduced mod n, which fits in usize.
                #[allow(clippy::cast_possible_truncation)]
                let bucket = row_hash(r) as usize % n;
                out[bucket].push(r.clone());
            }
        }
        Ok(out)
    })?;

    // Phase 2: merge each target bucket and dedupe globally.
    let parts = run_on_workers(n, ctx, |t| {
        let mut seen: HashSet<Row> = HashSet::new();
        let mut out = Vec::new();
        for b in &buckets {
            for r in &b[t] {
                if seen.insert(r.clone()) {
                    out.push(r.clone());
                }
            }
        }
        Ok(out)
    })?;

    let homes: Vec<String> = (0..n).map(|i| ctx.worker_node(i).to_string()).collect();
    Ok(PartitionedTable::from_shared(
        input.schema().clone(),
        parts.into_iter().map(Arc::new).collect(),
        homes,
    ))
}

fn row_hash(r: &Row) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
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

    fn finalize(self, func: AggFunc) -> Value {
        match self {
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
                        Value::Double(set.iter().filter_map(|v| v.as_f64().ok()).sum())
                    }
                }
                AggFunc::Avg => {
                    if set.is_empty() {
                        Value::Null
                    } else {
                        let s: f64 = set.iter().filter_map(|v| v.as_f64().ok()).sum();
                        Value::Double(s / set.len() as f64)
                    }
                }
                AggFunc::Min => set.into_iter().min().unwrap_or(Value::Null),
                AggFunc::Max => set.into_iter().max().unwrap_or(Value::Null),
            },
        }
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
    let partials: Vec<Groups> = run_on_workers(input.num_partitions(), ctx, |p| {
        let mut groups: Groups = HashMap::new();
        for r in input.partition(p).iter() {
            let mut key = Vec::with_capacity(group_exprs.len());
            for g in group_exprs {
                key.push(g.eval(r)?);
            }
            let accums = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(new_accum).collect());
            for (a, acc) in aggs.iter().zip(accums.iter_mut()) {
                let v = match &a.arg {
                    Some(e) => Some(e.eval(r)?),
                    None => None,
                };
                acc.update(v)?;
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
                values.push(acc.finalize(a.func));
            }
            Row::new(values)
        })
        .collect();
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
