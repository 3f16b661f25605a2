//! Rewrite-script construction.
//!
//! A [`RewriteScript`] is an ordered list of SQL statements over the
//! engine's registered UDFs. Most statements are fully static; the one
//! runtime-dependent value — the cardinality `K` of a freshly recoded
//! column, needed by `dummy_code` — is carried as a `$K('col', map_tbl)`
//! placeholder that the executor resolves by counting the just-built
//! recode-map table (mirroring §2.2: the dummy-coding UDF "takes in the
//! number of distinct values … already obtained during the recoding
//! phase").

use std::sync::atomic::{AtomicUsize, Ordering};

use sqlml_common::{sql_string_literal, Result, Schema, SqlmlError};
use sqlml_transform::{RecodeMap, TransformSpec};

/// Streaming-transfer parameters for the final hand-off statement.
#[derive(Debug, Clone)]
pub struct StreamTarget {
    pub coordinator_addr: String,
    pub transfer_id: u64,
    /// ML command, e.g. `svm label=3 iterations=50`.
    pub command: String,
    pub splits_per_worker: u32,
    pub send_buffer_bytes: usize,
}

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
    /// Temporary tables the script creates (for cleanup).
    pub temp_tables: Vec<String>,
    pub plan: RewritePlan,
}

static SCRIPT_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Build the statement script for one request.
pub fn build_script(
    user_sql: &str,
    result_schema: &Schema,
    spec: &TransformSpec,
    stream: Option<&StreamTarget>,
    plan: RewritePlan,
) -> Result<RewriteScript> {
    let recode_columns = spec.effective_recode_columns(result_schema);
    for d in &spec.dummy_code_columns {
        if !recode_columns.iter().any(|c| c.eq_ignore_ascii_case(d)) {
            return Err(SqlmlError::Plan(format!(
                "dummy-code column {d:?} is not among the recoded columns"
            )));
        }
    }
    let seq = SCRIPT_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut statements = Vec::new();
    let mut temp_tables = Vec::new();
    let temp = |tag: &str, temp_tables: &mut Vec<String>| -> String {
        let name = format!("__rw_{tag}_{seq}_{}", temp_tables.len());
        temp_tables.push(name.clone());
        name
    };

    // §5.1 short-circuit: the cached materialization answers everything.
    if let RewritePlan::CachedResult { sql, map } = plan {
        if let Some(t) = stream {
            let tbl = temp("cached", &mut temp_tables);
            statements.push(format!("CREATE TABLE {tbl} AS {sql}"));
            statements.push(stream_statement(&tbl, t));
        } else {
            statements.push(sql.clone());
        }
        return Ok(RewriteScript {
            statements,
            temp_tables,
            plan: RewritePlan::CachedResult { sql, map },
        });
    }

    // 1. Materialize the preparation query.
    let prep = temp("prep", &mut temp_tables);
    statements.push(format!("CREATE TABLE {prep} AS {user_sql}"));

    // 2. Recode-map acquisition: build fresh, or inject the cached map.
    let map_table = temp("map", &mut temp_tables);
    let cached_map = match &plan {
        RewritePlan::CachedMap { map } => Some(map.clone()),
        _ => None,
    };
    if recode_columns.is_empty() {
        // Nothing to recode; drop the unused map temp name.
        temp_tables.pop();
    } else if cached_map.is_none() {
        let pairs = temp("pairs", &mut temp_tables);
        let col_args = recode_columns
            .iter()
            .map(|c| format!("'{c}'"))
            .collect::<Vec<_>>()
            .join(", ");
        statements.push(format!(
            "CREATE TABLE {pairs} AS \
             SELECT DISTINCT colname, colval \
             FROM TABLE(distinct_values({prep}, {col_args})) AS d \
             ORDER BY colname, colval"
        ));
        statements.push(format!(
            "CREATE TABLE {map_table} AS \
             SELECT * FROM TABLE(assign_recode_ids({pairs})) AS m"
        ));
    }
    // (For a cached map the executor registers it as `map_table` itself —
    // see `inject_cached_map` — so the join below works unchanged.)

    // 3. The §2.1 recode join.
    let mut current = prep.clone();
    if !recode_columns.is_empty() {
        let recoded = temp("recoded", &mut temp_tables);
        let mut projections = Vec::new();
        let mut froms = vec![format!("{current} T")];
        let mut predicates = Vec::new();
        for field in result_schema.fields() {
            if let Some(pos) = recode_columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(&field.name))
            {
                let alias = format!("M{pos}");
                projections.push(format!("{alias}.recodeval AS {}", field.name));
                froms.push(format!("{map_table} AS {alias}"));
                let name = sql_string_literal(&field.name);
                predicates.push(format!("{alias}.colname = {name}"));
                predicates.push(format!("T.{} = {alias}.colval", field.name));
            } else {
                projections.push(format!("T.{}", field.name));
            }
        }
        statements.push(format!(
            "CREATE TABLE {recoded} AS SELECT {} FROM {} WHERE {}",
            projections.join(", "),
            froms.join(", "),
            predicates.join(" AND ")
        ));
        current = recoded;
    }

    // 4. Dummy coding. Cardinality comes from the cached map when we
    //    have it, otherwise from the `$K(...)` placeholder the executor
    //    resolves against the freshly built map table.
    for col in &spec.dummy_code_columns {
        let coded = temp("coded", &mut temp_tables);
        let k_arg = match &cached_map {
            Some(m) => {
                let k = m.cardinality(col);
                if k == 0 {
                    return Err(SqlmlError::Cache(format!(
                        "cached recode map lacks column {col:?}"
                    )));
                }
                k.to_string()
            }
            None => format!("$K('{col}', {map_table})"),
        };
        statements.push(format!(
            "CREATE TABLE {coded} AS \
             SELECT * FROM TABLE(dummy_code({current}, '{col}', {k_arg})) AS dc"
        ));
        current = coded;
    }

    // 5. Hand-off: stream, or yield the transformed rows.
    match stream {
        Some(t) => statements.push(stream_statement(&current, t)),
        None => statements.push(format!("SELECT * FROM {current}")),
    }

    Ok(RewriteScript {
        statements,
        temp_tables,
        plan,
    })
}

fn stream_statement(table: &str, t: &StreamTarget) -> String {
    format!(
        "SELECT * FROM TABLE(stream_transfer({table}, {}, {}, {}, {}, {})) AS s",
        sql_string_literal(&t.coordinator_addr),
        t.transfer_id,
        sql_string_literal(&t.command),
        t.splits_per_worker,
        t.send_buffer_bytes
    )
}

impl RewriteScript {
    /// The name of the recode-map temp table the script expects, if any
    /// (used to inject a cached map before execution).
    pub fn map_table_name(&self) -> Option<&str> {
        self.temp_tables
            .iter()
            .find(|t| t.starts_with("__rw_map_"))
            .map(|s| s.as_str())
    }

    /// Whether any statement still carries a `$K` placeholder.
    pub fn has_placeholders(&self) -> bool {
        self.statements.iter().any(|s| s.contains("$K("))
    }
}

/// Resolve a `$K('col', map_tbl)` placeholder in one statement by
/// counting the map table. Exposed for the executor in `lib.rs`.
pub fn resolve_cardinality_placeholder(
    engine: &sqlml_sqlengine::Engine,
    stmt: &str,
) -> Result<String> {
    let Some(start) = stmt.find("$K(") else {
        return Ok(stmt.to_string());
    };
    let rest = &stmt[start + 3..];
    let end = rest
        .find(')')
        .ok_or_else(|| SqlmlError::Plan("malformed $K placeholder".into()))?;
    let inner = &rest[..end];
    let mut parts = inner.splitn(2, ',');
    let col = parts
        .next()
        .unwrap_or_default()
        .trim()
        .trim_matches('\'')
        .to_string();
    let map_table = parts
        .next()
        .ok_or_else(|| SqlmlError::Plan("malformed $K placeholder".into()))?
        .trim();
    let rows = engine
        .query(&format!(
            "SELECT COUNT(*) FROM {map_table} WHERE colname = {}",
            sql_string_literal(&col)
        ))?
        .collect_rows();
    let k = rows
        .first()
        .map(|r| r.get(0).as_i64())
        .transpose()?
        .unwrap_or(0);
    if k == 0 {
        return Err(SqlmlError::Execution(format!(
            "recode map has no entries for column {col:?}"
        )));
    }
    let resolved = format!("{}{k}{}", &stmt[..start], &rest[end + 1..]);
    // Recurse in case of multiple placeholders in one statement.
    resolve_cardinality_placeholder(engine, &resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
        ])
    }

    #[test]
    fn fresh_script_statement_order() {
        let script = build_script(
            "SELECT 1 FROM t",
            &schema(),
            &TransformSpec::new(&["gender"]),
            None,
            RewritePlan::Fresh,
        )
        .unwrap();
        let kinds: Vec<&str> = script
            .statements
            .iter()
            .map(|s| {
                if s.contains("distinct_values(") {
                    "pairs"
                } else if s.contains("assign_recode_ids(") {
                    "map"
                } else if s.contains("recodeval AS") {
                    "recode"
                } else if s.contains("dummy_code(") {
                    "dummy"
                } else if s.starts_with("CREATE TABLE") {
                    "prep"
                } else {
                    "final"
                }
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["prep", "pairs", "map", "recode", "dummy", "final"]
        );
        assert!(script.has_placeholders());
        assert!(script.map_table_name().is_some());
    }

    #[test]
    fn cached_map_script_inlines_cardinality() {
        let map = RecodeMap::from_pairs(vec![
            ("gender".into(), "F".into()),
            ("gender".into(), "M".into()),
            ("abandoned".into(), "Yes".into()),
            ("abandoned".into(), "No".into()),
        ]);
        let script = build_script(
            "SELECT 1 FROM t",
            &schema(),
            &TransformSpec::new(&["gender"]),
            None,
            RewritePlan::CachedMap { map },
        )
        .unwrap();
        assert!(!script.has_placeholders());
        let all = script.statements.join("\n");
        assert!(all.contains("dummy_code"), "{all}");
        assert!(all.contains("'gender', 2"), "{all}");
        assert!(!all.contains("distinct_values"), "{all}");
    }

    #[test]
    fn no_categoricals_means_minimal_script() {
        let plain = Schema::new(vec![Field::new("x", DataType::Int)]);
        let script = build_script(
            "SELECT x FROM t",
            &plain,
            &TransformSpec::default(),
            None,
            RewritePlan::Fresh,
        )
        .unwrap();
        assert_eq!(script.statements.len(), 2); // prep + final select
    }

    #[test]
    fn cached_result_plus_stream_materializes_then_streams() {
        let target = StreamTarget {
            coordinator_addr: "127.0.0.1:1".into(),
            transfer_id: 1,
            command: "nb label=0".into(),
            splits_per_worker: 1,
            send_buffer_bytes: 64,
        };
        let script = build_script(
            "ignored",
            &schema(),
            &TransformSpec::default(),
            Some(&target),
            RewritePlan::CachedResult {
                sql: "SELECT age FROM __sqlml_cache_0".into(),
                map: RecodeMap::default(),
            },
        )
        .unwrap();
        assert_eq!(script.statements.len(), 2);
        assert!(script.statements[1].contains("stream_transfer("));
    }

    #[test]
    fn missing_cached_cardinality_is_an_error() {
        let map = RecodeMap::from_pairs(vec![("abandoned".into(), "Yes".into())]);
        // gender missing from the map → error at script build.
        assert!(build_script(
            "SELECT 1 FROM t",
            &schema(),
            &TransformSpec::new(&["gender"]),
            None,
            RewritePlan::CachedMap { map },
        )
        .is_err());
    }
}
