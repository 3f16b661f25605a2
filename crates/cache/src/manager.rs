//! The cache manager: stores fully transformed results (as materialized
//! catalog tables) and recode maps, and answers lookups with a reuse
//! decision.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sqlml_common::lockorder::TrackedMutex;
use sqlml_common::Value;
use sqlml_sqlengine::ast::CmpOp;
use sqlml_sqlengine::Engine;
use sqlml_transform::{BoundSpec, Coding, RecodeMap, TransformSpec, Treatment};

use crate::descriptor::QueryDescriptor;
use crate::subsume::{full_result_match, recode_map_match};

/// A cached fully transformed result (§5.1) — conceptually a
/// materialized view plus its transformation metadata.
#[derive(Debug, Clone)]
struct FullEntry {
    descriptor: QueryDescriptor,
    /// The spec as bound to the cached query's output: it names every
    /// column of the materialized table, under `map`.
    bound: BoundSpec,
    map: RecodeMap,
    /// Name of the materialized table in the engine catalog.
    table_name: String,
}

/// A cached recode map (§5.2).
#[derive(Debug, Clone)]
struct MapEntry {
    descriptor: QueryDescriptor,
    map: RecodeMap,
}

/// A full-result hit, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct FullReuse {
    /// The materialized table holding the cached transformed result.
    pub table_name: String,
    /// A SQL query over that table computing the new query's transformed
    /// answer (projection + extra predicates, with literals on recoded
    /// columns already mapped through the recode map).
    pub sql: String,
    /// The recode map of the cached entry (categorical semantics of the
    /// integer columns).
    pub map: RecodeMap,
}

/// Outcome of a cache lookup, best reuse first.
#[derive(Debug, Clone)]
pub enum CacheDecision {
    /// §5.1 hit: skip query + transformation entirely.
    Full(FullReuse),
    /// §5.2 hit: run the query, but reuse the recode map (skip recoding's
    /// first pass).
    RecodeMap(RecodeMap),
    Miss,
}

/// Outcome of a non-materializing [`CacheManager::probe`]: what the best
/// reuse *would* be, without cloning any recode map. Placement/scheduling
/// signal only — a router asking "which cluster already holds something
/// usable for this descriptor" must not copy a map per shard, and must
/// not perturb the hit/miss counters of the queries that actually
/// execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheProbe {
    Miss,
    /// A recode map (§5.2) would be reused.
    RecodeMap,
    /// A fully transformed result (§5.1) would be reused.
    Full,
}

/// Hit/miss counters.
#[derive(Debug, Default)]
pub struct CacheStats {
    pub full_hits: AtomicUsize,
    pub map_hits: AtomicUsize,
    pub misses: AtomicUsize,
}

impl CacheStats {
    pub fn snapshot(&self) -> (usize, usize, usize) {
        (
            self.full_hits.load(Ordering::Relaxed),
            self.map_hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The cache. Assumes no updates to the base tables (the paper's stated
/// assumption); [`CacheManager::invalidate_all`] is the escape hatch.
pub struct CacheManager {
    engine: Engine,
    full: TrackedMutex<Vec<FullEntry>>,
    maps: TrackedMutex<Vec<MapEntry>>,
    next_id: AtomicU64,
    pub stats: CacheStats,
}

impl CacheManager {
    pub fn new(engine: Engine) -> Self {
        // The manager's lock discipline, checked by the tracked layer (and
        // mirrored in xtask/lock-order.manifest): `full` before `maps`
        // (store_full registers then stores the map), and the catalog's
        // table lock nests inside `full` (store_full registers the
        // materialized table inside the critical section so lookup never
        // sees an entry whose table is missing).
        sqlml_common::declare_order(&[
            ("cache.full", "cache.maps"),
            ("cache.full", "sqlengine.catalog.tables"),
        ]);
        CacheManager {
            engine,
            full: TrackedMutex::new("cache.full", Vec::new()),
            maps: TrackedMutex::new("cache.maps", Vec::new()),
            next_id: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Store a fully transformed result: materializes `table` in the
    /// engine catalog and records the entry. Also records the recode map
    /// (a full entry subsumes a map entry). Returns the materialized
    /// table's name, or `None`, storing nothing, when `spec` does not bind
    /// to the descriptor's output (no run of that request made `table`).
    ///
    /// Concurrency: two queries that miss on the same descriptor at the
    /// same time both arrive here with a freshly computed result. The
    /// first store wins; the duplicate's table is simply never registered
    /// (the caller's copy is dropped), so the cache cannot accumulate
    /// redundant materializations under load. The check and the insert
    /// happen under one lock, and the table is registered inside that
    /// critical section so a concurrent [`CacheManager::lookup`] never
    /// observes an entry whose table is missing from the catalog.
    pub fn store_full(
        &self,
        descriptor: QueryDescriptor,
        spec: TransformSpec,
        map: RecodeMap,
        table: sqlml_sqlengine::PartitionedTable,
    ) -> Option<String> {
        let bound = spec.bind(&descriptor.output).ok()?;
        let mut full = self.full.lock();
        if let Some(existing) = full
            .iter()
            .find(|e| e.descriptor == descriptor && e.bound == bound)
        {
            return Some(existing.table_name.clone());
        }
        let table_name = format!(
            "__sqlml_cache_{}",
            self.next_id.fetch_add(1, Ordering::Relaxed)
        );
        self.engine.register_table(&table_name, table);
        full.push(FullEntry {
            descriptor: descriptor.clone(),
            bound,
            map: map.clone(),
            table_name: table_name.clone(),
        });
        // Lock order is always full → maps (see `invalidate_all`).
        drop(full);
        self.store_recode_map(descriptor, map);
        Some(table_name)
    }

    /// Store just a recode map (the first identical store wins; maps
    /// covering different column sets for the same descriptor coexist).
    pub fn store_recode_map(&self, descriptor: QueryDescriptor, map: RecodeMap) {
        let mut maps = self.maps.lock();
        if maps
            .iter()
            .any(|e| e.descriptor == descriptor && e.map == map)
        {
            return;
        }
        maps.push(MapEntry { descriptor, map });
    }

    /// Number of entries (full, maps).
    pub fn len(&self) -> (usize, usize) {
        (self.full.lock().len(), self.maps.lock().len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }

    /// Drop everything (e.g. after base-table updates).
    pub fn invalidate_all(&self) {
        for e in self.full.lock().drain(..) {
            let _ = self.engine.catalog().drop_table(&e.table_name);
        }
        self.maps.lock().clear();
    }

    /// Non-materializing probe: would [`CacheManager::lookup`] hit, and
    /// how well? Asks the same per-entry matchers lookup uses
    /// (`full_rewrite`, `map_covers`), so the two cannot disagree,
    /// but clones no recode map and leaves the hit/miss stats untouched —
    /// cheap enough to call once per shard on every admission for
    /// cache-affinity routing.
    pub fn probe(&self, query: &QueryDescriptor, spec: &TransformSpec) -> CacheProbe {
        let Ok(bound) = spec.bind(&query.output) else {
            return CacheProbe::Miss;
        };
        let full = self.full.lock();
        if full
            .iter()
            .any(|e| full_rewrite(e, query, &bound).is_some())
        {
            return CacheProbe::Full;
        }
        drop(full);
        if self
            .maps
            .lock()
            .iter()
            .any(|e| map_covers(e, query, &bound))
        {
            return CacheProbe::RecodeMap;
        }
        CacheProbe::Miss
    }

    /// Look up the best reuse for a new query + transformation spec. A
    /// spec that does not bind to the query's output misses: the cold run
    /// refuses it.
    pub fn lookup(&self, query: &QueryDescriptor, spec: &TransformSpec) -> CacheDecision {
        let Ok(bound) = spec.bind(&query.output) else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return CacheDecision::Miss;
        };
        // Best first: full result (§5.1). A matching entry whose spec is
        // incompatible is skipped; a later one may still serve.
        let full = self.full.lock();
        if let Some((entry, sql)) = full
            .iter()
            .find_map(|e| full_rewrite(e, query, &bound).map(|sql| (e, sql)))
        {
            self.stats.full_hits.fetch_add(1, Ordering::Relaxed);
            return CacheDecision::Full(FullReuse {
                table_name: entry.table_name.clone(),
                sql,
                map: entry.map.clone(),
            });
        }
        drop(full);
        // Second best: recode map (§5.2).
        if let Some(entry) = self
            .maps
            .lock()
            .iter()
            .find(|e| map_covers(e, query, &bound))
        {
            self.stats.map_hits.fetch_add(1, Ordering::Relaxed);
            return CacheDecision::RecodeMap(entry.map.clone());
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        CacheDecision::Miss
    }
}

/// The §5.2 matcher for one entry: the descriptors match and (condition
/// 3) the map holds every column the new pipeline recodes, by the name it
/// is keyed by, built over the same base column — the one column of the
/// cached output that name resolves to. A map built over a query that
/// never projected (or never saw a value of) one of them, or that gave
/// its name to another column, would fail the transform a cold run
/// completes.
fn map_covers(entry: &MapEntry, query: &QueryDescriptor, bound: &BoundSpec) -> bool {
    let cached = &entry.descriptor;
    let covers = |(at, name): (usize, &str)| {
        entry.map.has_column(name)
            && matches!(cached.output.lookup(name),
                Ok(Some(i)) if cached.projections.get(i) == query.projections.get(at))
    };
    recode_map_match(cached, query) && bound.recoded().all(covers)
}

/// The §5.1 matcher for one entry: the SQL that answers `query`, bound
/// as `bound`, from the entry's materialized table, or `None` when the
/// descriptors do not match or a projected column has no cached twin —
/// the same base column, treated alike, and recoded under the same name
/// (the map is keyed by it) — or is contrast-coded, or a filtered column
/// is. Columns are selected by the names the entry's bound spec gave
/// them and renamed to the names the query's gives them under the
/// entry's map; they are unique ignoring ASCII case, so a by-name select
/// reads each one.
fn full_rewrite(entry: &FullEntry, query: &QueryDescriptor, bound: &BoundSpec) -> Option<String> {
    let extras = full_result_match(&entry.descriptor, query)?;
    let cached = &entry.descriptor.projections;
    let (have, want) = (
        entry.bound.output_fields(&entry.map),
        bound.output_fields(&entry.map),
    );
    let name = |b: &BoundSpec, at: usize| b.input().field(at).name.clone();

    // Projection: each requested column from its cached twin's columns.
    let mut select_cols: Vec<String> = Vec::new();
    for (j, col) in query.projections.iter().enumerate() {
        let treatment = bound.treatments()[j];
        if matches!(
            treatment,
            Treatment::Coded(Coding::Effect | Coding::Helmert)
        ) {
            return None;
        }
        let twin = (0..cached.len()).find(|&i| {
            cached[i] == *col
                && entry.bound.treatments()[i] == treatment
                && (treatment == Treatment::Pass || name(&entry.bound, i) == name(bound, j))
        })?;
        for (from, to) in have[twin].iter().zip(&want[j]) {
            select_cols.push(match from.name == to.name {
                true => from.name.clone(),
                false => format!("{} AS {}", from.name, to.name),
            });
        }
    }

    // Extra predicates, mapped onto the transformed layout.
    let mut where_parts = Vec::new();
    for pred in extras {
        let at = cached.iter().position(|c| *c == pred.col)?;
        let columns = &have[at];
        let dummy = match entry.bound.treatments()[at] {
            Treatment::Pass => {
                let literal = render_literal(&pred.value)?;
                let column = &columns[0].name;
                where_parts.push(format!("{column} {} {literal}", pred.op.symbol()));
                continue;
            }
            Treatment::Recode => false,
            Treatment::Coded(Coding::Dummy) => true,
            Treatment::Coded(Coding::Effect | Coding::Helmert) => return None,
        };
        // The literal must be mapped through the recode map. Only
        // (in)equality is order-safe after recoding: codes are assigned by
        // sorted value, but mixing with other comparisons invites subtle
        // bugs, so stay conservative.
        let Value::Str(s) = &pred.value else {
            return None;
        };
        if !matches!(pred.op, CmpOp::Eq | CmpOp::NotEq) {
            return None;
        }
        match entry.map.code(&name(&entry.bound, at), s) {
            // gender = 'F' over a dummy-coded gender → gender_F = 1.
            Some(code) if dummy => {
                let indicator = &columns.get(usize::try_from(code - 1).ok()?)?.name;
                let on = i32::from(pred.op == CmpOp::Eq);
                where_parts.push(format!("{indicator} = {on}"));
            }
            Some(code) => {
                let column = &columns[0].name;
                where_parts.push(format!("{column} {} {code}", pred.op.symbol()));
            }
            // Value never seen by the cached query: the predicate is
            // unsatisfiable (Eq) or trivially true (NotEq).
            None if pred.op == CmpOp::Eq => where_parts.push("1 = 0".to_string()),
            None => {}
        }
    }

    let mut sql = format!(
        "SELECT {} FROM {}",
        select_cols.join(", "),
        entry.table_name
    );
    if !where_parts.is_empty() {
        sql.push_str(&format!(" WHERE {}", where_parts.join(" AND ")));
    }
    Some(sql)
}

/// A literal as SQL text; `None` for NULL, which no rewrite can compare
/// against.
fn render_literal(v: &Value) -> Option<String> {
    Some(match v {
        Value::Int(i) => i.to_string(),
        Value::Double(d) => format!("{d:?}"),
        Value::Bool(b) => b.to_string().to_uppercase(),
        Value::Str(s) => sqlml_common::sql_string_literal(s),
        Value::Null => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field, Schema};
    use sqlml_sqlengine::parser::parse_select;
    use sqlml_sqlengine::EngineConfig;
    use sqlml_transform::{InSqlTransformer, TransformSpec};

    /// Engine with the paper's carts/users tables, small scale.
    fn engine() -> Engine {
        let e = Engine::new(EngineConfig::with_workers(2));
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
        e.register_rows(
            "carts",
            carts,
            (0..20)
                .map(|i| {
                    row![
                        (i % 5) as i64,
                        10.0 + i as f64,
                        if i % 2 == 0 { "Yes" } else { "No" },
                        if i < 10 { 2013i64 } else { 2014i64 }
                    ]
                })
                .collect(),
        );
        e.register_rows(
            "users",
            users,
            (0..5)
                .map(|i| {
                    row![
                        i as i64,
                        20 + i as i64,
                        if i % 2 == 0 { "F" } else { "M" },
                        "USA"
                    ]
                })
                .collect(),
        );
        e
    }

    const PREP: &str = "SELECT U.age, U.gender, C.amount, C.abandoned \
                        FROM carts C, users U \
                        WHERE C.userid=U.userid AND U.country='USA'";

    fn descriptor(e: &Engine, sql: &str) -> QueryDescriptor {
        QueryDescriptor::from_select(&parse_select(sql).unwrap(), e.catalog())
            .unwrap()
            .unwrap()
    }

    /// Run the prep query + transformation and cache the result.
    fn prime_cache(e: &Engine, cache: &CacheManager, spec: &TransformSpec) {
        e.execute(&format!("CREATE TABLE prep AS {PREP}")).unwrap();
        let tr = InSqlTransformer::new(e.clone());
        let out = tr.transform("prep", spec).unwrap();
        cache.store_full(descriptor(e, PREP), spec.clone(), out.recode_map, out.table);
        e.execute("DROP TABLE prep").unwrap();
    }

    #[test]
    fn full_hit_answers_subset_query_with_recoded_predicate() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::default();
        prime_cache(&e, &cache, &spec);

        // The paper's §5.1 reuse query.
        let q = descriptor(
            &e,
            "SELECT U.age, C.amount, C.abandoned FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA' AND U.gender='F'",
        );
        let decision = cache.lookup(&q, &spec);
        let CacheDecision::Full(reuse) = decision else {
            panic!("expected full hit, got {decision:?}");
        };
        // gender='F' must have been recoded (F -> 1).
        assert!(reuse.sql.contains("gender = 1"), "{}", reuse.sql);

        // Executing the rewrite gives exactly the direct computation.
        let via_cache = e.query(&reuse.sql).unwrap().collect_sorted();
        e.execute(
            "CREATE TABLE direct AS SELECT U.age, C.amount, C.abandoned \
             FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA' AND U.gender='F'",
        )
        .unwrap();
        let tr = InSqlTransformer::new(e.clone());
        let direct = tr.transform("direct", &spec).unwrap();
        assert_eq!(via_cache, direct.table.collect_sorted());
        assert_eq!(cache.stats.snapshot(), (1, 0, 0));
    }

    #[test]
    fn map_hit_for_the_papers_5_2_query() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::default();
        prime_cache(&e, &cache, &spec);

        // Projects a new column (year) and adds a predicate on an
        // unprojected column: full reuse impossible, map reuse fine.
        let q = descriptor(
            &e,
            "SELECT U.age, U.gender, C.amount, C.year, C.abandoned \
             FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA' AND C.year = 2014",
        );
        match cache.lookup(&q, &spec) {
            CacheDecision::RecodeMap(map) => {
                assert_eq!(map.code("gender", "F"), Some(1));
                assert_eq!(map.code("abandoned", "Yes"), Some(2));
            }
            other => panic!("expected map hit, got {other:?}"),
        }
        assert_eq!(cache.stats.snapshot(), (0, 1, 0));
    }

    #[test]
    fn unrelated_query_misses() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::default();
        prime_cache(&e, &cache, &spec);
        let q = descriptor(&e, "SELECT age FROM users WHERE country='CA'");
        assert!(matches!(cache.lookup(&q, &spec), CacheDecision::Miss));
        assert_eq!(cache.stats.snapshot(), (0, 0, 1));
    }

    #[test]
    fn dummy_coded_projection_expands_in_rewrite() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::new(&["gender"]);
        prime_cache(&e, &cache, &spec);

        let q = descriptor(
            &e,
            "SELECT U.gender, C.amount FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA'",
        );
        match cache.lookup(&q, &spec) {
            CacheDecision::Full(reuse) => {
                assert!(reuse.sql.contains("gender_F"), "{}", reuse.sql);
                assert!(reuse.sql.contains("gender_M"), "{}", reuse.sql);
                let rows = e.query(&reuse.sql).unwrap();
                assert_eq!(rows.schema().len(), 3); // gender_F, gender_M, amount
            }
            other => panic!("expected full hit, got {other:?}"),
        }
    }

    #[test]
    fn coding_mismatch_downgrades_to_map_hit() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        // Cache dummy-coded gender; new request wants it plain-recoded.
        prime_cache(&e, &cache, &TransformSpec::new(&["gender"]));
        let q = descriptor(
            &e,
            "SELECT U.gender, C.amount FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA'",
        );
        let plain = TransformSpec::default();
        assert_eq!(cache.probe(&q, &plain), CacheProbe::RecodeMap);
        match cache.lookup(&q, &plain) {
            CacheDecision::RecodeMap(_) => {}
            other => panic!("expected map hit, got {other:?}"),
        }
    }

    #[test]
    fn colliding_indicator_names_are_suffixed_and_serve_a_full_hit() {
        // `x y` and `x/y` both indicate as `g_x_y`; `Web` and `web` as
        // `g_Web` and `g_web`, equal to a name lookup. The bound spec names
        // the second `g_x_y_2` / `g_web_2`, so a rewrite selecting them by
        // name reads each one and answers row k=2 with (0, 1), as the cold
        // run does.
        for values in [["x y", "x/y"], ["Web", "web"]] {
            let e = Engine::new(EngineConfig::with_workers(2));
            let schema = Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::categorical("g"),
            ]);
            e.register_rows(
                "t",
                schema,
                vec![row![1i64, values[0]], row![2i64, values[1]]],
            );
            let cache = CacheManager::new(e.clone());
            let (sql, spec) = ("SELECT k, g FROM t", TransformSpec::new(&["g"]));
            e.execute(&format!("CREATE TABLE prep AS {sql}")).unwrap();
            let tr = InSqlTransformer::new(e.clone());
            let cold = tr.transform("prep", &spec).unwrap();
            let cold_rows = cold.table.collect_sorted();
            assert_eq!(cold_rows[1], row![2i64, 0i64, 1i64], "{values:?}");
            let cold_names = cold.table.schema().names();
            cache.store_full(
                descriptor(&e, sql),
                spec.clone(),
                cold.recode_map,
                cold.table,
            );

            let d = descriptor(&e, sql);
            assert_eq!(cache.probe(&d, &spec), CacheProbe::Full, "{values:?}");
            let CacheDecision::Full(reuse) = cache.lookup(&d, &spec) else {
                panic!("{values:?}: expected a full hit");
            };
            let warm = e.query(&reuse.sql).unwrap();
            assert_eq!(warm.schema().names(), cold_names, "{}", reuse.sql);
            assert_eq!(warm.collect_sorted(), cold_rows, "{}", reuse.sql);
        }
    }

    #[test]
    fn a_contrast_coded_column_is_served_from_the_map_only() {
        use sqlml_transform::Coding;
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let q = descriptor(&e, PREP);
        let filtered = descriptor(
            &e,
            "SELECT U.age, C.amount FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA' AND U.gender='F'",
        );
        for coding in [Coding::Effect, Coding::Helmert] {
            let spec = TransformSpec::coded(&[("gender", coding)]);
            prime_cache(&e, &cache, &spec);
            // Projected contrast-coded, or filtered on: a map hit. (A
            // request that does not project gender codes nothing.)
            assert!(matches!(
                cache.lookup(&q, &spec),
                CacheDecision::RecodeMap(_)
            ));
            let plain = TransformSpec::default();
            assert_eq!(cache.probe(&filtered, &plain), CacheProbe::RecodeMap);
            // A projection that leaves it out is still a §5.1 hit.
            let unfiltered = descriptor(
                &e,
                "SELECT U.age, C.amount FROM carts C, users U \
                 WHERE C.userid=U.userid AND U.country='USA'",
            );
            assert_eq!(
                cache.probe(&unfiltered, &plain),
                CacheProbe::Full,
                "{coding}"
            );
            // A spec that does not bind to the query (gender is not
            // projected) misses: the cold run refuses it.
            assert_eq!(
                cache.probe(&unfiltered, &spec),
                CacheProbe::Miss,
                "{coding}"
            );
            cache.invalidate_all();
        }
    }

    #[test]
    fn map_hit_needs_every_recoded_projection_in_the_map() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::default();
        prime_cache(&e, &cache, &spec);
        // Same FROM/WHERE, but projects a categorical column the cached
        // query never did: its map has no codes for country, so reusing
        // it would fail a transform that a cold run completes.
        let q = descriptor(
            &e,
            "SELECT U.age, U.country, C.abandoned FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA'",
        );
        assert_eq!(cache.probe(&q, &spec), CacheProbe::Miss);
        assert!(matches!(cache.lookup(&q, &spec), CacheDecision::Miss));
    }

    #[test]
    fn a_column_the_cached_query_emptied_is_still_rewritten_as_recoded() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::default();
        // No user is 99: the cached result is empty, so its recode map
        // has no `gender` column — yet `gender` is an integer column of
        // the materialized table.
        let sql = "SELECT age, gender FROM users WHERE age = 99";
        e.execute(&format!("CREATE TABLE prep AS {sql}")).unwrap();
        let out = InSqlTransformer::new(e.clone())
            .transform("prep", &spec)
            .unwrap();
        assert!(!out.recode_map.has_column("gender"));
        cache.store_full(descriptor(&e, sql), spec.clone(), out.recode_map, out.table);
        let q = descriptor(&e, "SELECT age FROM users WHERE age = 99 AND gender <> 'F'");
        let CacheDecision::Full(reuse) = cache.lookup(&q, &spec) else {
            panic!("expected a full hit");
        };
        // The literal is mapped (to nothing: trivially true), never
        // compared as a string against the integer column.
        assert!(!reuse.sql.contains("'F'"), "{}", reuse.sql);
        assert_eq!(e.query(&reuse.sql).unwrap().num_rows(), 0);
    }

    #[test]
    fn unseen_literal_becomes_unsatisfiable_predicate() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::default();
        prime_cache(&e, &cache, &spec);
        let q = descriptor(
            &e,
            "SELECT U.age FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA' AND U.gender='X'",
        );
        match cache.lookup(&q, &spec) {
            CacheDecision::Full(reuse) => {
                assert!(reuse.sql.contains("1 = 0"), "{}", reuse.sql);
                assert_eq!(e.query(&reuse.sql).unwrap().num_rows(), 0);
            }
            other => panic!("expected full hit, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_drops_materialized_tables() {
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::default();
        prime_cache(&e, &cache, &spec);
        assert_eq!(cache.len(), (1, 1));
        let name = {
            let q = descriptor(&e, PREP);
            match cache.lookup(&q, &spec) {
                CacheDecision::Full(r) => r.table_name,
                other => panic!("{other:?}"),
            }
        };
        assert!(e.catalog().has_table(&name));
        cache.invalidate_all();
        assert!(cache.is_empty());
        assert!(!e.catalog().has_table(&name));
    }

    #[test]
    fn concurrent_identical_misses_store_one_entry() {
        // Two (here: eight) queries that miss simultaneously both try to
        // populate the cache; only one materialization may survive.
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let spec = TransformSpec::default();
        e.execute(&format!("CREATE TABLE prep AS {PREP}")).unwrap();
        let tr = InSqlTransformer::new(e.clone());
        let out = tr.transform("prep", &spec).unwrap();
        e.execute("DROP TABLE prep").unwrap();
        let d = descriptor(&e, PREP);
        let names: Vec<Option<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cache, d, spec) = (&cache, d.clone(), spec.clone());
                    let (map, table) = (out.recode_map.clone(), out.table.clone());
                    s.spawn(move || cache.store_full(d, spec, map, table))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every storer was told the same winning table name.
        assert!(names.windows(2).all(|w| w[0] == w[1]), "{names:?}");
        assert_eq!(cache.len(), (1, 1));
        assert!(e.catalog().has_table(names[0].as_deref().unwrap()));
        assert!(matches!(cache.lookup(&d, &spec), CacheDecision::Full(_)));
    }

    #[test]
    fn store_plain_table_and_lookup_identity() {
        // A degenerate single-table cache entry with no transformation.
        let e = engine();
        let cache = CacheManager::new(e.clone());
        let sql = "SELECT age, userid FROM users WHERE country = 'USA'";
        e.execute(&format!("CREATE TABLE snap AS {sql}")).unwrap();
        let table = (*e.catalog().table("snap").unwrap()).clone();
        cache.store_full(
            descriptor(&e, sql),
            TransformSpec::default(),
            RecodeMap::default(),
            table,
        );
        let q = descriptor(&e, "SELECT age FROM users WHERE country='USA' AND age > 21");
        match cache.lookup(&q, &TransformSpec::default()) {
            CacheDecision::Full(reuse) => {
                assert!(reuse.sql.contains("age > 21"), "{}", reuse.sql);
                let rows = e.query(&reuse.sql).unwrap().collect_sorted();
                assert_eq!(rows, vec![row![22i64], row![23i64], row![24i64]]);
            }
            other => panic!("expected full hit, got {other:?}"),
        }
    }
}
