//! Rewrite-script construction.
//!
//! A [`RewriteScript`] is the ordered list of SQL statements one request
//! runs, over the engine's registered UDFs. A fresh plan is four steps:
//!
//! 1. `CREATE TABLE <prep> AS <user query>`;
//! 2. pass 1 of §2.1, two statements (`distinct_values` →
//!    `assign_recode_ids`) writing the recode-map table `<map>`, the
//!    recoded columns given by position;
//! 3. pass 2, one statement: `CREATE TABLE <out> AS SELECT * FROM
//!    TABLE(recode_dummy(<prep>, '<map>', <spec...>)) AS r`, which binds
//!    the spec to `<prep>` as the rewriter bound it to the user query,
//!    then `DROP TABLE <prep>`, its last reader done;
//! 4. the hand-off: `SELECT * FROM <out>`, or the `stream_transfer`
//!    statement when the caller passes transfer arguments.
//!
//! A §5.2 plan has no pass 1: the executor registers the cached map
//! under `<map>` first. A §5.1 plan is the cached select alone. Every
//! temp name carries a per-script sequence number, so concurrent scripts
//! on one engine share nothing.

use std::sync::atomic::{AtomicUsize, Ordering};

use sqlml_cache::QueryDescriptor;
use sqlml_transfer::TransferArgs;
use sqlml_transform::{recode_dummy_select, recode_map_statements, RecodeMap, TransformSpec};

/// How the rewriter decided to execute.
#[derive(Debug, Clone)]
pub enum RewritePlan {
    /// No cache reuse: full prepare → transform pipeline.
    Fresh,
    /// §5.2: reuse this recode map; skip the map-building statements.
    CachedMap { map: RecodeMap },
    /// §5.1: the whole transformed result is cached; `sql` answers the
    /// request directly.
    CachedResult { sql: String, map: RecodeMap },
}

/// The rewriter's output.
#[derive(Debug, Clone)]
pub struct RewriteScript {
    /// Statements to execute in order; the last is a SELECT producing
    /// the pipeline output (transformed rows, or transfer statistics
    /// when streaming).
    pub statements: Vec<String>,
    /// Temporary tables the script creates, `<map>` included when the
    /// executor registers a cached one (all dropped after the run).
    pub temp_tables: Vec<String>,
    /// `<map>`: `None` when nothing is recoded or for a §5.1 plan.
    pub map_table: Option<String>,
    pub plan: RewritePlan,
    /// The request's §5 descriptor, for storing a fresh run's result
    /// (`None` without a cache, or outside the cacheable shape).
    pub descriptor: Option<QueryDescriptor>,
}

static SCRIPT_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Build the statement script for one request. `recoded` are the
/// positions of the columns the request recodes in the user query's
/// output, as `spec` binds to it (unused by a §5.1 plan).
pub fn build_script(
    user_sql: &str,
    recoded: &[usize],
    spec: &TransformSpec,
    stream: Option<&TransferArgs>,
    plan: RewritePlan,
    descriptor: Option<QueryDescriptor>,
) -> RewriteScript {
    let seq = SCRIPT_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = |tag: &str| format!("__rw_{tag}_{seq}");
    let mut script = RewriteScript {
        statements: Vec::new(),
        temp_tables: Vec::new(),
        map_table: None,
        plan,
        descriptor,
    };
    let temp = |tag: &str, temps: &mut Vec<String>| {
        temps.push(name(tag));
        name(tag)
    };

    // §5.1 short-circuit: the cached materialization answers everything.
    if let RewritePlan::CachedResult { sql, .. } = &script.plan {
        let statement = match stream {
            Some(args) => {
                let cached = temp("cached", &mut script.temp_tables);
                script
                    .statements
                    .push(format!("CREATE TABLE {cached} AS {sql}"));
                args.statement(&cached)
            }
            None => sql.clone(),
        };
        script.statements.push(statement);
        return script;
    }

    // 1. Materialize the preparation query.
    let prep = temp("prep", &mut script.temp_tables);
    (script.statements).push(format!("CREATE TABLE {prep} AS {user_sql}"));

    // 2. Pass 1 builds `<map>`; a cached map is registered under it.
    let map = name("map");
    if !recoded.is_empty() {
        if let RewritePlan::Fresh = script.plan {
            let pairs = temp("pairs", &mut script.temp_tables);
            (script.statements).extend(recode_map_statements(&prep, recoded, &pairs, &map));
        }
        script.temp_tables.push(map.clone());
        script.map_table = Some(map.clone());
    }

    // 3. Pass 2: recode and dummy-code every column in one UDF pass,
    // then free `<prep>`, which nothing reads after it.
    let out = temp("out", &mut script.temp_tables);
    script.statements.push(format!(
        "CREATE TABLE {out} AS {}",
        recode_dummy_select(&prep, &map, spec)
    ));
    script.statements.push(format!("DROP TABLE {prep}"));

    // 4. Hand-off: stream, or yield the transformed rows.
    script.statements.push(match stream {
        Some(args) => args.statement(&out),
        None => format!("SELECT * FROM {out}"),
    });
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_transfer::TransferConfig;

    /// The positions of `gender` and `abandoned`.
    fn gender() -> Vec<usize> {
        vec![1, 3]
    }

    fn args() -> TransferArgs {
        TransferArgs {
            coord_addr: "127.0.0.1:1".into(),
            transfer_id: 1,
            command: "nb label=0".into(),
            config: TransferConfig::default(),
        }
    }

    /// Each statement's kind, in order.
    fn kinds(script: &RewriteScript) -> Vec<&'static str> {
        (script.statements.iter())
            .map(|s| {
                if s.contains("distinct_values(") {
                    "pairs"
                } else if s.contains("assign_recode_ids(") {
                    "map"
                } else if s.contains("recode_dummy(") {
                    "recode_dummy"
                } else if s.contains("stream_transfer(") {
                    "stream"
                } else if s.starts_with("DROP TABLE") {
                    "drop"
                } else if s.starts_with("CREATE TABLE") {
                    "prep"
                } else {
                    "select"
                }
            })
            .collect()
    }

    #[test]
    fn fresh_script_statement_order() {
        let spec = TransformSpec::new(&["gender"]);
        let script = build_script(
            "SELECT 1 FROM t",
            &gender(),
            &spec,
            None,
            RewritePlan::Fresh,
            None,
        );
        assert_eq!(
            kinds(&script),
            vec!["prep", "pairs", "map", "recode_dummy", "drop", "select"]
        );
        let map = script.map_table.as_deref().unwrap();
        assert!(script.statements[1].contains("distinct_values(__rw_prep_"));
        assert!(script.statements[1].ends_with(", 1, 3)) AS d ORDER BY colname, colval"));
        assert!(script.statements[3].contains(&format!("'{map}', 0, 'gender', 'dummy')")));
        assert_eq!(script.temp_tables.len(), 4, "{:?}", script.temp_tables);
        let prep = &script.temp_tables[0];
        assert!(script.statements[0].starts_with(&format!("CREATE TABLE {prep} AS")));
        assert!(script.statements[3].contains(&format!("recode_dummy({prep}, ")));
        assert_eq!(script.statements[4], format!("DROP TABLE {prep}"));
    }

    #[test]
    fn cached_map_script_skips_pass_one_and_names_the_map() {
        let map = RecodeMap::from_pairs(vec![("gender".into(), "F".into())]);
        let script = build_script(
            "SELECT 1 FROM t",
            &gender(),
            &TransformSpec::default(),
            None,
            RewritePlan::CachedMap { map },
            None,
        );
        assert_eq!(
            kinds(&script),
            vec!["prep", "recode_dummy", "drop", "select"]
        );
        let map_table = script.map_table.clone().unwrap();
        assert!(script.temp_tables.contains(&map_table));
    }

    #[test]
    fn no_categoricals_means_no_map() {
        let script = build_script(
            "SELECT x FROM t",
            &[],
            &TransformSpec::default(),
            None,
            RewritePlan::Fresh,
            None,
        );
        assert_eq!(
            kinds(&script),
            vec!["prep", "recode_dummy", "drop", "select"]
        );
        assert!(script.map_table.is_none());
        assert_eq!(script.temp_tables.len(), 2);
    }

    #[test]
    fn the_hand_off_streams_through_the_one_argument_formatter() {
        let args = args();
        let script = build_script(
            "SELECT 1 FROM t",
            &gender(),
            &TransformSpec::default(),
            Some(&args),
            RewritePlan::Fresh,
            None,
        );
        let last = script.statements.last().unwrap();
        assert!(
            last.ends_with(&format!("{})) AS s", args.to_sql())),
            "{last}"
        );
    }

    #[test]
    fn cached_result_is_the_cached_select_alone_or_materialized_for_a_stream() {
        let plan = || RewritePlan::CachedResult {
            sql: "SELECT age FROM __sqlml_cache_0".into(),
            map: RecodeMap::default(),
        };
        let spec = TransformSpec::default();
        let alone = build_script("ignored", &gender(), &spec, None, plan(), None);
        assert_eq!(alone.statements, vec!["SELECT age FROM __sqlml_cache_0"]);
        assert!(alone.temp_tables.is_empty());
        let streamed = build_script("ignored", &gender(), &spec, Some(&args()), plan(), None);
        assert_eq!(kinds(&streamed), vec!["prep", "stream"]);
    }
}
