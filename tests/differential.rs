//! Differential tests for the allocation-slim hot path.
//!
//! The optimizer picks each join's build side and folds a column-only
//! `Project` into the `HashJoin` beneath it; the executor runs
//! `Filter`/`Project`/`TableUdfScan` chains as one pass per partition, a
//! hash-reuse join, a stable permutation sort, and the flat recode applier;
//! the In-SQL transformer's pass 2 is one applier pass. Each of those has
//! a reference:
//!
//! * the planner's output executed as it stands, with no optimizer at
//!   all (`plan_select` → `executor::execute`): every join is a plain
//!   `left ++ right` join built from the right under a separate
//!   `Project`;
//! * a plain per-cell loop over `RecodeMap::code` is the reference for
//!   [`FlatRecodeApplier::apply_batch`];
//! * [`join_oracle`] runs §2.1 and §2.2 as SQL text — the recode map
//!   from a centralized scan, one recode join per recoded column, one join
//!   against a level table per coded column — which is the oracle for
//!   `InSqlTransformer::transform` (the statements the rewriter's script
//!   runs), as is the naive baseline's `run_external_transform`.
//!
//! These tests run the paper's Figure 3/4 workload queries (and a
//! battery of shapes beyond them, and seeded random tables) through both
//! paths and demand row-for-row equality.
//!
//! The unoptimized plan runs the *same* batch kernels as the optimized
//! one (one evaluator, one join, one chain runner), so it only checks the
//! optimizer's rewrites. The oracle that shares no kernel with the engine
//! is at the bottom of this file: expected rows computed by plain Rust
//! loops over the generated `Vec<Row>`s.

use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{codec, sql_string_literal, Row, SplitMix64, Value};
use sqlml_core::naive::run_external_transform;
use sqlml_core::workload::{Workload, WorkloadScale, PREP_QUERY};
use sqlml_dfs::{Dfs, DfsConfig};
use sqlml_sqlengine::ast::JoinKind;
use sqlml_sqlengine::executor::execute;
use sqlml_sqlengine::expr::Expr;
use sqlml_sqlengine::plan::{BuildSide, Plan};
use sqlml_sqlengine::planner::plan_select;
use sqlml_sqlengine::{Batch, Engine, EngineConfig, PartitionedTable};
use sqlml_transform::coding::indicator_name;
use sqlml_transform::recode::recode_map_schema;
use sqlml_transform::{
    register_udfs, Coding, FlatRecodeApplier, InSqlTransformer, RecodeMap, TransformSpec, Treatment,
};

fn workload_engine() -> Engine {
    let e = Engine::new(EngineConfig::with_workers(4));
    let w = Workload::generate(WorkloadScale::TINY, 77);
    e.register_rows("carts", w.carts_schema, w.carts);
    e.register_rows("users", w.users_schema, w.users);
    register_udfs(&e);
    e
}

/// The planner's plan for `sql`, untouched by the optimizer.
fn unoptimized_plan(e: &Engine, sql: &str) -> Plan {
    let stmt =
        sqlml_sqlengine::parser::parse_select(sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
    plan_select(&stmt, e.catalog()).unwrap_or_else(|err| panic!("{sql}: {err}"))
}

/// Run one query through the engine and through its unoptimized plan
/// and demand identical schemas and identical sorted row sets.
fn assert_differential(e: &Engine, sql: &str) {
    let optimized = e.query(sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
    let reference = execute(&unoptimized_plan(e, sql), e.exec_context())
        .unwrap_or_else(|err| panic!("{sql}: {err}"));
    assert_eq!(
        optimized.schema().names(),
        reference.schema().names(),
        "schema mismatch for {sql}"
    );
    assert_eq!(
        optimized.collect_sorted(),
        reference.collect_sorted(),
        "row mismatch for {sql}"
    );
}

#[test]
fn figure3_prep_query_matches_reference() {
    let e = workload_engine();
    assert_differential(&e, PREP_QUERY);
}

#[test]
fn transform_phase_queries_match_reference() {
    // The exact query shapes the In-SQL transformer generates (§2.1):
    // the distinct-values UDF scan, the recode-map assignment, and the
    // dummy-code expansion — all TableUdfScans the executor may run in
    // one pass with the operators around them.
    let e = workload_engine();
    for sql in [
        "SELECT * FROM TABLE(distinct_values(users, 'gender', 'country')) D",
        "SELECT D.colname, D.colval FROM TABLE(distinct_values(carts, 'abandoned')) D \
         WHERE D.colname = 'abandoned'",
    ] {
        assert_differential(&e, sql);
    }
}

#[test]
fn fusible_chains_match_reference() {
    let e = workload_engine();
    for sql in [
        // Filter → Project chains — one pass per partition.
        "SELECT amount * 2.0 AS a2 FROM carts WHERE amount > 50.0 AND amount < 150.0",
        "SELECT age + 1 AS age1 FROM users WHERE country = 'USA' AND age < 40",
        // Filter over the join (a chain above a pipeline breaker).
        "SELECT U.age, C.amount FROM carts C, users U \
         WHERE C.userid = U.userid AND U.country = 'CA' AND C.amount > 100.0",
    ] {
        assert_differential(&e, sql);
    }
}

#[test]
fn pipeline_breakers_match_reference() {
    let e = workload_engine();
    for sql in [
        // Aggregate, Distinct, Sort, Limit — gathered operators whose
        // home assignment and merge order changed in this PR.
        "SELECT abandoned, COUNT(*), AVG(amount) FROM carts GROUP BY abandoned",
        "SELECT DISTINCT country FROM users",
        "SELECT age, country FROM users ORDER BY age DESC, country",
        "SELECT amount FROM carts ORDER BY amount LIMIT 17",
        "SELECT country, COUNT(*) AS n FROM users GROUP BY country ORDER BY n DESC LIMIT 3",
    ] {
        assert_differential(&e, sql);
    }
}

#[test]
fn joins_match_reference() {
    let e = workload_engine();
    for sql in [
        // Inner join, both build sides (the optimizer flips on size).
        "SELECT C.cartid, U.userid FROM carts C, users U WHERE C.userid = U.userid",
        // Join keyed on an expression.
        "SELECT C.cartid, U.age FROM carts C, users U \
         WHERE C.userid = U.userid AND C.year = 2014",
    ] {
        assert_differential(&e, sql);
    }
}

#[test]
fn sorted_limit_is_a_true_prefix_of_the_full_sort() {
    // Limit's early-exit slicing must still return the globally first n
    // rows of the sort order.
    let e = workload_engine();
    let full = e
        .query("SELECT amount FROM carts ORDER BY amount")
        .unwrap()
        .collect_rows();
    let limited = e
        .query("SELECT amount FROM carts ORDER BY amount LIMIT 25")
        .unwrap()
        .collect_rows();
    assert_eq!(limited.as_slice(), &full[..25]);
}

// ---------------------------------------------------------------------
// FlatRecodeApplier vs RecodeMap::code, on randomized data.
// ---------------------------------------------------------------------

/// The coding `spec` lists for `column`, spelled as listed.
fn coding_of(spec: &TransformSpec, column: &str) -> Option<Coding> {
    (spec.coded_columns.iter())
        .find(|(c, _)| c == column)
        .map(|&(_, coding)| coding)
}

/// Reference application: one row, cell by cell, through
/// `RecodeMap::code`.
fn reference_apply(row: &Row, schema: &Schema, spec: &TransformSpec, map: &RecodeMap) -> Row {
    let recode_columns = spec.effective_recode_columns(schema);
    let mut values = Vec::new();
    for (i, f) in schema.fields().iter().enumerate() {
        let is_recoded = recode_columns
            .iter()
            .any(|c| c.eq_ignore_ascii_case(&f.name));
        let is_dummy = coding_of(spec, &f.name) == Some(Coding::Dummy);
        let v = row.get(i);
        if is_dummy {
            let code = match v {
                Value::Null => 0,
                Value::Str(s) => map.code(&f.name, s).unwrap(),
                other => panic!("non-categorical {other}"),
            };
            for j in 1..=map.cardinality(&f.name) as i64 {
                values.push(Value::Int((j == code) as i64));
            }
        } else if is_recoded {
            match v {
                Value::Null => values.push(Value::Null),
                Value::Str(s) => values.push(Value::Int(map.code(&f.name, s).unwrap())),
                other => panic!("non-categorical {other}"),
            }
        } else {
            values.push(v.clone());
        }
    }
    Row::new(values)
}

#[test]
fn flat_applier_matches_recode_map_code_on_random_data() {
    let mut rng = SplitMix64::new(4242);
    for trial in 0..20 {
        // Random vocabulary sizes per categorical column.
        let k1 = rng.range_i64(1, 6) as usize;
        let k2 = rng.range_i64(2, 12) as usize;
        let vocab1: Vec<String> = (0..k1).map(|i| format!("a{i}")).collect();
        let vocab2: Vec<String> = (0..k2).map(|i| format!("b{i}")).collect();
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::categorical("c1"),
            Field::new("y", DataType::Double),
            Field::categorical("c2"),
        ]);
        let mut pairs = Vec::new();
        pairs.extend(vocab1.iter().map(|v| ("c1".to_string(), v.clone())));
        pairs.extend(vocab2.iter().map(|v| ("c2".to_string(), v.clone())));
        let map = RecodeMap::from_pairs(pairs);
        // Alternate spec shapes: recode-only, dummy one column, dummy both.
        let spec = match trial % 3 {
            0 => TransformSpec::default(),
            1 => TransformSpec::new(&["c1"]),
            _ => TransformSpec::new(&["c1", "c2"]),
        };
        let applier = FlatRecodeApplier::new(&map, &spec.bind(&schema).unwrap()).unwrap();
        let mut rows = Vec::new();
        for _ in 0..200 {
            let c1 = if rng.chance(0.05) {
                Value::Null
            } else {
                Value::str(vocab1[rng.next_below(k1 as u64) as usize].as_str())
            };
            let c2 = if rng.chance(0.05) {
                Value::Null
            } else {
                Value::str(vocab2[rng.next_below(k2 as u64) as usize].as_str())
            };
            rows.push(Row::new(vec![
                Value::Int(rng.range_i64(-100, 100)),
                c1,
                Value::Double(rng.next_f64()),
                c2,
            ]));
        }
        let out = applier
            .apply_batch(&Batch::from_rows(&schema, &rows))
            .unwrap();
        assert_eq!(out.width(), applier.output_schema().len());
        assert_eq!(out.len(), rows.len());
        for (row, flat) in rows.iter().zip(out.rows()) {
            let reference = reference_apply(row, &schema, &spec, &map);
            assert_eq!(flat, reference, "trial {trial}, row {row:?}");
        }
    }
}

#[test]
fn flat_applier_rejects_unseen_values_like_the_reference() {
    let schema = Schema::new(vec![Field::categorical("c")]);
    let map = RecodeMap::from_pairs(vec![("c".to_string(), "seen".to_string())]);
    let applier =
        FlatRecodeApplier::new(&map, &TransformSpec::default().bind(&schema).unwrap()).unwrap();
    assert!(map.code("c", "unseen").is_none());
    let rows = [
        Row::new(vec![Value::str("seen")]),
        Row::new(vec![Value::str("unseen")]),
    ];
    let err = applier
        .apply_batch(&Batch::from_rows(&schema, &rows))
        .unwrap_err();
    assert!(err.to_string().contains("unseen value"), "{err}");
}

// ---------------------------------------------------------------------
// InSqlTransformer (one applier pass) vs the rewriter's join-based
// script vs the external transform, on random tables.
// ---------------------------------------------------------------------

/// A seeded random table: numeric columns interleaved with 2–4
/// categorical columns whose names have mixed case and whose values
/// include quotes and spaces; NULL-free; explicitly partitioned, some
/// partitions empty. Indicator names collide: `x/y` and `x y` both
/// become `<col>_x_y`, `Web` and `web` differ only in case, and a
/// numeric column after `<col>` is named `<col>_F`, like the indicator
/// of `F`.
fn random_categorical_table(rng: &mut SplitMix64) -> (PartitionedTable, Vec<String>) {
    const CAT_NAMES: [&str; 4] = ["Gender", "cartState", "REGION", "lastChannel_2"];
    const VOCAB: [&str; 9] = [
        "F",
        "M",
        "it's",
        "not known",
        "x/y",
        "x y",
        "a'b'c",
        "Web",
        "web",
    ];
    let num_cats = rng.range_i64(2, 4) as usize;
    let mut fields = vec![Field::new("Id", DataType::Int)];
    let mut cats = Vec::new();
    for name in &CAT_NAMES[..num_cats] {
        fields.push(Field::categorical(*name));
        cats.push(name.to_string());
        if rng.chance(0.5) {
            fields.push(Field::new(format!("{name}_F"), DataType::Double));
        }
    }
    let schema = Schema::new(fields);
    // Per categorical column, a vocabulary prefix of random size.
    let sizes: Vec<usize> = (0..num_cats)
        .map(|_| rng.range_i64(1, VOCAB.len() as i64) as usize)
        .collect();
    let num_parts = rng.range_i64(1, 5) as usize;
    let mut parts: Vec<Vec<Row>> = vec![Vec::new(); num_parts];
    for id in 0..rng.range_i64(1, 120) {
        let mut cat = 0;
        let values = schema
            .fields()
            .iter()
            .map(|f| match (f.categorical, f.data_type) {
                (true, _) => {
                    let v = VOCAB[rng.next_below(sizes[cat] as u64) as usize];
                    cat += 1;
                    Value::str(v)
                }
                (_, DataType::Int) => Value::Int(id),
                _ => Value::Double(rng.range_i64(-50, 50) as f64 / 4.0),
            })
            .collect();
        // Partition 0 of a multi-partition table stays empty.
        let p = if num_parts == 1 {
            0
        } else {
            1 + rng.next_below(num_parts as u64 - 1) as usize
        };
        parts[p].push(Row::new(values));
    }
    (PartitionedTable::new(schema, parts), cats)
}

/// Read a DFS directory of text part-files back as sorted rows.
fn read_sorted(dfs: &Dfs, dir: &str, schema: &Schema) -> Vec<Row> {
    let mut rows = Vec::new();
    for f in dfs.list(&format!("{dir}/")) {
        let text = dfs.read_string(&f.path).unwrap();
        rows.extend(codec::decode_text_batch(&text, schema).unwrap());
    }
    rows.sort();
    rows
}

const CODINGS: [Coding; 3] = [Coding::Dummy, Coding::Effect, Coding::Helmert];

/// Row `level` (0-based) of `coding`'s level table over `k` values, from
/// §2.2's definitions: dummy coding's `Int` identity; effect coding's
/// `+1` in the level's own column, `-1` everywhere for the last level;
/// Helmert's contrast `j` (1-based), `-1` for levels `1..=j`, `j` for
/// level `j+1`, else `0`.
fn level_row(coding: Coding, k: usize, level: usize) -> Vec<Value> {
    let l = level + 1;
    match coding {
        Coding::Dummy => (1..=k).map(|j| Value::Int((j == l) as i64)).collect(),
        Coding::Effect => (1..k)
            .map(|j| {
                Value::Double(if l == k {
                    -1.0
                } else if j == l {
                    1.0
                } else {
                    0.0
                })
            })
            .collect(),
        Coding::Helmert => (1..k)
            .map(|j| {
                Value::Double(if l <= j {
                    -1.0
                } else if l == j + 1 {
                    j as f64
                } else {
                    0.0
                })
            })
            .collect(),
    }
}

/// The names of `column`'s output columns under `coding` over `values`.
fn coded_names(column: &str, coding: Coding, values: &[String]) -> Vec<String> {
    match coding {
        Coding::Dummy => values.iter().map(|v| indicator_name(column, v)).collect(),
        Coding::Effect => (1..values.len())
            .map(|j| format!("{column}_eff{j}"))
            .collect(),
        Coding::Helmert => (1..values.len())
            .map(|j| format!("{column}_orth{j}"))
            .collect(),
    }
}

/// Output column names as the transform settles them, spelled out as a
/// plain loop: a name equal, ignoring ASCII case, to an earlier one gets
/// the smallest `_<n>`, `n ≥ 2`, that no other name — as written or as
/// settled so far — equals.
fn suffixed_names(raw: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, name) in raw.iter().enumerate() {
        if !raw[..i].iter().any(|r| r.eq_ignore_ascii_case(name)) {
            out.push(name.clone());
            continue;
        }
        let free = |c: &str| !raw.iter().chain(&out).any(|t| t.eq_ignore_ascii_case(c));
        let n = (2..).find(|n| free(&format!("{name}_{n}"))).unwrap();
        out.push(format!("{name}_{n}"));
    }
    out
}

/// The transform as §2.1 and §2.2 word it, in SQL text over `src`: the
/// recode map — from a centralized scan, not from pass 1 — registered as
/// the `M` table, and one join against it per recoded column; a coded
/// column instead joins a level table of `K` rows (`colval`, then its
/// `w` output columns), its outputs named by the coding and then by
/// [`suffixed_names`]. One plain `SELECT`, no UDF: it shares no statement
/// with the product's script.
fn join_oracle(
    engine: &Engine,
    src: &str,
    spec: &TransformSpec,
) -> sqlml_common::Result<PartitionedTable> {
    let table = engine.catalog().table(src)?;
    let schema = table.schema().clone();
    let columns = spec.effective_recode_columns(&schema);
    let map = RecodeMap::from_table_scan(table.partitions(), &schema, &columns)?;
    let m_rows = (map.columns())
        .flat_map(|c| {
            let values = map.values_in_code_order(c).iter();
            (1i64..).zip(values).map(move |(code, v)| {
                Row::new(vec![
                    Value::str(c),
                    Value::str(v.as_str()),
                    Value::Int(code),
                ])
            })
        })
        .collect();
    let mut tables = vec!["oracle_m".to_string()];
    engine.register_table(
        "oracle_m",
        PartitionedTable::single(recode_map_schema(), m_rows),
    );
    // (expression, name before the suffix rule) per output column.
    let (mut projections, mut froms, mut predicates) = (vec![], vec![format!("{src} T")], vec![]);
    for field in schema.fields() {
        let name = &field.name;
        let Some(pos) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) else {
            projections.push((format!("T.{name}"), name.clone()));
            continue;
        };
        let Some(coding) = coding_of(spec, name) else {
            projections.push((format!("M{pos}.recodeval"), name.clone()));
            froms.push(format!("oracle_m AS M{pos}"));
            predicates.push(format!("M{pos}.colname = {}", sql_string_literal(name)));
            predicates.push(format!("T.{name} = M{pos}.colval"));
            continue;
        };
        let values = map.values_in_code_order(name);
        let names = coded_names(name, coding, values);
        let ty = [DataType::Double, DataType::Int][(coding == Coding::Dummy) as usize];
        let fields = std::iter::once(Field::new("colval", DataType::Str))
            .chain((0..names.len()).map(|j| Field::new(format!("w{j}"), ty)));
        let rows = (values.iter().enumerate())
            .map(|(l, v)| {
                let row = level_row(coding, values.len(), l);
                Row::new(std::iter::once(Value::str(v.as_str())).chain(row).collect())
            })
            .collect();
        let level_table = format!("oracle_l{pos}");
        engine.register_table(
            &level_table,
            PartitionedTable::single(Schema::new(fields.collect()), rows),
        );
        projections
            .extend((names.into_iter().enumerate()).map(|(j, n)| (format!("L{pos}.w{j}"), n)));
        froms.push(format!("{level_table} AS L{pos}"));
        predicates.push(format!("T.{name} = L{pos}.colval"));
        tables.push(level_table);
    }
    let raw: Vec<String> = projections.iter().map(|(_, n)| n.clone()).collect();
    let projections: Vec<String> = (projections.iter().zip(suffixed_names(&raw)))
        .map(|((expr, _), name)| format!("{expr} AS {name}"))
        .collect();
    let sql = if predicates.is_empty() {
        format!("SELECT * FROM {src}")
    } else {
        format!(
            "SELECT {} FROM {} WHERE {}",
            projections.join(", "),
            froms.join(", "),
            predicates.join(" AND ")
        )
    };
    let result = engine.query(&sql);
    for t in &tables {
        let _ = engine.catalog().drop_table(t);
    }
    result
}

#[test]
fn insql_transform_matches_join_script_and_external_transform_on_random_tables() {
    let mut rng = SplitMix64::new(0x1d5_0c0de);
    let mut refusals = 0;
    for trial in 0..25 {
        let (table, cats) = random_categorical_table(&mut rng);
        let schema = table.schema().clone();
        // Recode every categorical column, or an explicit subset of at
        // least one; code a random subset of the recoded ones, each with
        // a coding drawn from the three.
        let recode: Vec<String> = if rng.chance(0.5) {
            Vec::new()
        } else {
            let keep = rng.range_i64(1, cats.len() as i64) as usize;
            cats[..keep].to_vec()
        };
        let recoded = if recode.is_empty() { &cats } else { &recode };
        let mut coded_columns = Vec::new();
        for c in recoded {
            if rng.chance(0.5) {
                coded_columns.push((c.clone(), *rng.choose(&CODINGS)));
            }
        }
        let spec = TransformSpec {
            recode_columns: recode.clone(),
            coded_columns,
        };
        let what = format!("trial {trial}: {spec:?} over {:?}", schema.names());

        let engine = Engine::new(EngineConfig::with_workers(3));
        engine.register_table("src", table.clone());
        let insql = InSqlTransformer::new(engine.clone()).transform("src", &spec);
        let dfs = Dfs::new(DfsConfig::for_tests());
        table.save_text(&dfs, "/in").unwrap();
        let external = run_external_transform(&dfs, "/in", &schema, &spec, "/out");
        let insql = match insql {
            Ok(insql) => insql,
            // A contrast over a one-value column: both refuse, alike.
            Err(e) => {
                let e = e.to_string();
                let scan =
                    RecodeMap::from_table_scan(table.partitions(), &schema, recoded).unwrap();
                let refused = (spec.coded_columns.iter())
                    .any(|(c, coding)| *coding != Coding::Dummy && scan.cardinality(c) < 2);
                assert!(refused && e.contains("needs at least 2"), "{what}: {e}");
                let external = external.err().map(|e| e.to_string());
                assert_eq!(external.as_deref(), Some(e.as_str()), "{what}");
                refusals += 1;
                continue;
            }
        };
        let insql_rows = insql.table.collect_sorted();
        assert_eq!(insql_rows.len(), table.num_rows(), "{what}");

        // The §2.1 recode join, and a level-table join per coded column.
        let oracle = join_oracle(&engine, "src", &spec).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(oracle.collect_sorted(), insql_rows, "{what}");
        assert_eq!(oracle.schema(), insql.table.schema(), "{what}");

        // The naive baseline's external job over the same rows on a DFS.
        let external = external.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            external.schema.names(),
            insql.table.schema().names(),
            "{what}"
        );
        assert_eq!(external.recode_map, insql.recode_map, "{what}");
        assert_eq!(
            read_sorted(&dfs, "/out", &external.schema),
            insql_rows,
            "{what}"
        );
    }
    // The draws must keep exercising both outcomes.
    assert!(
        (1..25).contains(&refusals),
        "{refusals} of 25 trials refused"
    );
}

#[test]
fn a_categorical_column_named_with_a_quote_transforms_in_sql_as_externally() {
    // Pass 1 splices the column name into its SQL as a string literal.
    let schema = Schema::new(vec![
        Field::new("n", DataType::Int),
        Field::categorical("it's"),
    ]);
    let rows = [(1, "b"), (2, "a"), (3, "b")]
        .map(|(n, v)| Row::new(vec![Value::Int(n), Value::str(v)]))
        .to_vec();
    let table = PartitionedTable::new(schema.clone(), vec![rows]);
    let dfs = Dfs::new(DfsConfig::for_tests());
    table.save_text(&dfs, "/in").unwrap();
    let engine = Engine::new(EngineConfig::with_workers(2));
    engine.register_table("q", table);
    let transformer = InSqlTransformer::new(engine);
    for (i, spec) in [TransformSpec::default(), TransformSpec::new(&["it's"])]
        .iter()
        .enumerate()
    {
        let out_dir = format!("/out-{i}");
        let external = run_external_transform(&dfs, "/in", &schema, spec, &out_dir).unwrap();
        let insql = transformer
            .transform("q", spec)
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert_eq!(insql.recode_map, external.recode_map, "{spec:?}");
        assert_eq!(insql.recode_map.code("it's", "b"), Some(2));
        assert_eq!(insql.table.schema(), &external.schema, "{spec:?}");
        let ext_rows = read_sorted(&dfs, &out_dir, &external.schema);
        assert_eq!(ext_rows, insql.table.collect_sorted(), "{spec:?}");
    }
}

// ---------------------------------------------------------------------
// Projecting join vs plain join + Project, on random keyed tables.
// ---------------------------------------------------------------------

/// `(k BIGINT, <tag> VARCHAR, v<tag> DOUBLE)` with duplicate and NULL keys.
fn random_keyed_table(rng: &mut SplitMix64, tag: &str, rows: usize) -> PartitionedTable {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new(tag, DataType::Str),
        Field::new(format!("v{tag}"), DataType::Double),
    ]);
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            let k = if rng.chance(0.1) {
                Value::Null
            } else {
                Value::Int(rng.range_i64(0, 11))
            };
            Row::new(vec![
                k,
                Value::str(format!("{tag}{i}").as_str()),
                Value::Double(i as f64),
            ])
        })
        .collect();
    PartitionedTable::partition_rows(schema, &data, 3, &[])
}

#[test]
fn projecting_joins_match_unoptimized_reference_on_random_tables() {
    let mut rng = SplitMix64::new(0xbead_5eed);
    for trial in 0..12 {
        // Either side may be the smaller one, so inner joins build from
        // both sides across trials.
        let (nl, nr) = if trial % 2 == 0 { (60, 9) } else { (9, 60) };
        let e = Engine::new(EngineConfig::with_workers(3));
        e.register_table("l", random_keyed_table(&mut rng, "a", nl));
        e.register_table("r", random_keyed_table(&mut rng, "b", nr));
        for sql in [
            "SELECT L.a, R.vb, L.va FROM l L, r R WHERE L.k = R.k",
            "SELECT R.b, R.b AS b2, L.k FROM l L, r R WHERE L.k = R.k",
            "SELECT R.b, L.a, R.k FROM l L LEFT JOIN r R ON L.k = R.k",
            "SELECT L.va FROM r R LEFT JOIN l L ON R.k = L.k",
        ] {
            let plan = e.explain(sql).unwrap();
            assert!(plan.contains("project=["), "not a projecting join:\n{plan}");
            assert!(!plan.contains("Project"), "Project survived:\n{plan}");
            // The reference really is the other shape: a Project over a
            // plain join.
            let reference = unoptimized_plan(&e, sql).explain();
            assert!(
                reference.contains("Project") && !reference.contains("project=["),
                "reference already folded:\n{reference}"
            );
            assert_differential(&e, sql);
        }
    }
}

#[test]
fn hand_built_projecting_join_matches_plain_join_for_every_build_side() {
    let mut rng = SplitMix64::new(77);
    let e = Engine::new(EngineConfig::with_workers(2));
    e.register_table("l", random_keyed_table(&mut rng, "a", 40));
    e.register_table("r", random_keyed_table(&mut rng, "b", 25));
    let scan = |name: &str| Plan::Scan {
        name: name.into(),
        table: e.catalog().table(name).unwrap(),
    };
    let joined = scan("l").schema().join(&scan("r").schema());
    // Reordered, repeated, and from both sides.
    let cols = vec![4usize, 1, 1, 3, 2];
    let projected = Schema::new(cols.iter().map(|&c| joined.field(c).clone()).collect());
    let join = |kind, build, project: Option<Vec<usize>>| Plan::HashJoin {
        left: Box::new(scan("l")),
        right: Box::new(scan("r")),
        left_keys: vec![Expr::Col(0)],
        right_keys: vec![Expr::Col(0)],
        kind,
        build,
        schema: if project.is_some() {
            projected.clone()
        } else {
            joined.clone()
        },
        project,
    };
    for (kind, build) in [
        (JoinKind::Inner, BuildSide::Left),
        (JoinKind::Inner, BuildSide::Right),
        (JoinKind::LeftOuter, BuildSide::Right),
    ] {
        let plain = Plan::Project {
            input: Box::new(join(kind, build, None)),
            exprs: cols.iter().map(|&c| Expr::Col(c)).collect(),
            schema: projected.clone(),
        };
        let projecting = join(kind, build, Some(cols.clone()));
        let mut results = Vec::new();
        for plan in [&plain, &projecting] {
            sqlml_sqlengine::validate::validate(plan, e.catalog()).unwrap();
            let out = sqlml_sqlengine::executor::execute(plan, e.exec_context()).unwrap();
            assert_eq!(out.schema().names(), projected.names());
            results.push(out.collect_sorted());
        }
        assert!(!results[0].is_empty(), "{kind:?}/{build:?} joined nothing");
        assert_eq!(results[0], results[1], "{kind:?} build={build:?}");
    }
}

// ---------------------------------------------------------------------
// The one cache-reuse decision (§5.1 / §5.2) vs a cold recompute, on
// seeded (cached query, new query, spec) pairs over carts/users.
// ---------------------------------------------------------------------

/// One column of the carts ⋈ users join the generator draws from:
/// qualifier, name, whether it is categorical, and the literals a
/// predicate on it may use (the last one is never in the data).
struct ReuseColumn {
    qualifier: &'static str,
    name: &'static str,
    categorical: bool,
    literals: &'static [&'static str],
}

/// Column names are unique across the two tables, as the §5.1 rewrite
/// (which selects cached columns by bare name) requires.
const REUSE_COLUMNS: [ReuseColumn; 7] = [
    ReuseColumn {
        qualifier: "U",
        name: "age",
        categorical: false,
        literals: &["25", "40", "60", "7"],
    },
    ReuseColumn {
        qualifier: "U",
        name: "gender",
        categorical: true,
        literals: &["'F'", "'M'", "'X'"],
    },
    ReuseColumn {
        qualifier: "U",
        name: "country",
        categorical: true,
        literals: &["'USA'", "'CA'", "'JP'", "'ZZ'"],
    },
    ReuseColumn {
        qualifier: "C",
        name: "amount",
        categorical: false,
        literals: &["50.0", "90.5", "150.0", "0.5"],
    },
    ReuseColumn {
        qualifier: "C",
        name: "abandoned",
        categorical: true,
        literals: &["'Yes'", "'No'", "'Maybe'"],
    },
    ReuseColumn {
        qualifier: "C",
        name: "year",
        categorical: false,
        literals: &["2013", "2014", "1999"],
    },
    ReuseColumn {
        qualifier: "C",
        name: "nitems",
        categorical: false,
        literals: &["5", "10", "15", "0"],
    },
];

const REUSE_OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// A `column op literal` conjunct over [`REUSE_COLUMNS`].
#[derive(Clone, PartialEq)]
struct ReusePred {
    column: usize,
    op: &'static str,
    literal: &'static str,
}

impl ReusePred {
    fn random(rng: &mut SplitMix64) -> ReusePred {
        let column = rng.next_below(REUSE_COLUMNS.len() as u64) as usize;
        ReusePred {
            column,
            op: rng.choose::<&str>(&REUSE_OPS),
            literal: rng.choose::<&str>(REUSE_COLUMNS[column].literals),
        }
    }

    fn sql(&self) -> String {
        let c = &REUSE_COLUMNS[self.column];
        format!("{}.{} {} {}", c.qualifier, c.name, self.op, self.literal)
    }
}

/// One side of a pair: a select-project-join over carts/users plus the
/// transformation requested for it.
struct ReuseQuery {
    projection: Vec<usize>,
    predicates: Vec<ReusePred>,
    spec: TransformSpec,
}

impl ReuseQuery {
    fn sql(&self) -> String {
        let cols: Vec<String> = self
            .projection
            .iter()
            .map(|&i| format!("{}.{}", REUSE_COLUMNS[i].qualifier, REUSE_COLUMNS[i].name))
            .collect();
        let mut sql = format!(
            "SELECT {} FROM carts C, users U WHERE C.userid = U.userid",
            cols.join(", ")
        );
        for p in &self.predicates {
            sql.push_str(&format!(" AND {}", p.sql()));
        }
        sql
    }

    /// Code each projected categorical column with probability 0.4, by
    /// a coding drawn from the three, or — when `like` is given — the way
    /// `like` codes it, redrawn (coded or not, by any coding) with
    /// probability 0.15.
    fn draw_spec(&mut self, rng: &mut SplitMix64, like: Option<&TransformSpec>) {
        let mut coded = Vec::new();
        for &i in &self.projection {
            let c = &REUSE_COLUMNS[i];
            if !c.categorical {
                continue;
            }
            let coding = match like {
                Some(spec) if !rng.chance(0.15) => coding_of(spec, c.name),
                Some(_) => rng.chance(0.5).then(|| *rng.choose(&CODINGS)),
                None => rng.chance(0.4).then(|| *rng.choose(&CODINGS)),
            };
            coded.extend(coding.map(|coding| (c.name, coding)));
        }
        self.spec = TransformSpec::coded(&coded);
    }
}

/// Draw the cached query of a pair, then a new query related to it the
/// ways §5.1/§5.2 care about: a projection subset (sometimes one column
/// more), the cached predicates verbatim (sometimes one tightened or
/// dropped), and up to two extra conjuncts on any column — projected or
/// not, plain, recoded or dummy-coded, seen or unseen literal.
fn draw_reuse_pair(rng: &mut SplitMix64) -> (ReuseQuery, ReuseQuery) {
    let mut all: Vec<usize> = (0..REUSE_COLUMNS.len()).collect();
    rng.shuffle(&mut all);
    let width = rng.range_i64(2, 6) as usize;
    let mut cached = ReuseQuery {
        projection: all[..width].to_vec(),
        predicates: (0..rng.next_below(3))
            .map(|_| ReusePred::random(rng))
            .collect(),
        spec: TransformSpec::default(),
    };
    cached.draw_spec(rng, None);

    let mut projection = cached.projection.clone();
    rng.shuffle(&mut projection);
    projection.truncate(rng.range_i64(1, projection.len() as i64) as usize);
    if rng.chance(0.2) {
        projection.push(all[width]);
    }
    let mut predicates = cached.predicates.clone();
    if !predicates.is_empty() && rng.chance(0.25) {
        let victim = rng.next_below(predicates.len() as u64) as usize;
        if rng.chance(0.5) {
            predicates.remove(victim);
        } else {
            // Same column and operator, another literal: stronger, weaker
            // or unrelated — the implication logic has to tell which.
            let p = &mut predicates[victim];
            p.literal = rng.choose::<&str>(REUSE_COLUMNS[p.column].literals);
        }
    }
    for _ in 0..rng.next_below(3) {
        predicates.push(ReusePred::random(rng));
    }
    let mut new = ReuseQuery {
        projection,
        predicates,
        spec: TransformSpec::default(),
    };
    new.draw_spec(rng, Some(&cached.spec));
    (cached, new)
}

/// Undo a transformation: map every recoded integer and every coded
/// block of `transformed` back to the categorical value it stands for
/// under `map` (a block is the level table's row of that value), giving
/// rows comparable with the untransformed query result. Codes and block
/// widths legitimately differ between a reused map (built over the
/// cached query's superset) and a cold one (built over the new query's
/// rows), so equality is asserted on what the numbers *mean*.
fn decode_transformed(
    transformed: &PartitionedTable,
    input: &Schema,
    spec: &TransformSpec,
    map: &RecodeMap,
) -> Vec<Row> {
    let treatments: Vec<Treatment> = (input.fields().iter())
        .map(|f| match (f.categorical, coding_of(spec, &f.name)) {
            (false, _) => Treatment::Pass,
            (true, None) => Treatment::Recode,
            (true, Some(coding)) => Treatment::Coded(coding),
        })
        .collect();
    decode_rows(&transformed.collect_rows(), input, &treatments, map)
}

/// [`decode_transformed`] of transformed `rows` whose input columns were
/// treated as `treatments` says, sorted.
fn decode_rows(
    rows: &[Row],
    input: &Schema,
    treatments: &[Treatment],
    map: &RecodeMap,
) -> Vec<Row> {
    let mut rows: Vec<Row> = rows
        .iter()
        .map(|r| {
            let mut at = 0;
            let mut out = Vec::with_capacity(input.len());
            for (f, treatment) in input.fields().iter().zip(treatments) {
                let values = map.values_in_code_order(&f.name);
                let named = |code: i64| Value::str(values[code as usize - 1].as_str());
                match *treatment {
                    Treatment::Pass => {
                        out.push(r.get(at).clone());
                        at += 1;
                    }
                    Treatment::Recode => {
                        out.push(match r.get(at) {
                            Value::Null => Value::Null,
                            code => named(code.as_i64().unwrap()),
                        });
                        at += 1;
                    }
                    Treatment::Coded(coding) => {
                        let k = values.len();
                        let w = k - usize::from(coding != Coding::Dummy);
                        let block = &r.values()[at..at + w];
                        let levels: Vec<usize> = (0..k)
                            .filter(|&l| level_row(coding, k, l) == block)
                            .collect();
                        let zero = block.iter().all(|v| v.as_f64().unwrap() == 0.0);
                        match levels[..] {
                            [l] => out.push(named(l as i64 + 1)),
                            [] if zero => out.push(Value::Null),
                            _ => panic!("{coding} block {block:?} is no level's row"),
                        }
                        at += w;
                    }
                }
            }
            assert_eq!(at, r.len(), "transformed row wider than its schema implies");
            Row::new(out)
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn cache_reuse_equals_a_cold_recompute_on_seeded_query_pairs() {
    use sqlml_cache::{CacheDecision, CacheManager, CacheProbe, QueryDescriptor};
    use sqlml_sqlengine::parser::parse_select;

    let e = Engine::new(EngineConfig::with_workers(3));
    let w = Workload::generate(
        WorkloadScale {
            carts: 600,
            users: 60,
        },
        77,
    );
    e.register_rows("carts", w.carts_schema, w.carts);
    e.register_rows("users", w.users_schema, w.users);
    let tr = InSqlTransformer::new(e.clone());
    let describe = |sql: &str| {
        QueryDescriptor::from_select(&parse_select(sql).unwrap(), e.catalog())
            .unwrap()
            .unwrap_or_else(|| panic!("not a cacheable shape: {sql}"))
    };

    let (mut full, mut maps, mut misses) = (0, 0, 0);
    for seed in 0..400u64 {
        let (cached, new) = draw_reuse_pair(&mut SplitMix64::new(seed));
        let (cached_sql, new_sql) = (cached.sql(), new.sql());
        let context = format!(
            "pair seed {seed}\n  cached: {cached_sql}\n          coded {:?}\n  new:    {new_sql}\n          coded {:?}",
            cached.spec.coded_columns, new.spec.coded_columns
        );

        // Prime a fresh cache with the cached side. A cached query whose
        // predicates leave a coded column with fewer values than its
        // coding needs cannot be transformed at all; such a draw has
        // nothing to reuse.
        e.execute(&format!("CREATE TABLE reuse_cached AS {cached_sql}"))
            .unwrap();
        let primed = tr.transform("reuse_cached", &cached.spec);
        e.execute("DROP TABLE reuse_cached").unwrap();
        let Ok(primed) = primed else { continue };
        let cache = CacheManager::new(e.clone());
        cache.store_full(
            describe(&cached_sql),
            cached.spec.clone(),
            primed.recode_map,
            primed.table,
        );

        // (c) probe and lookup agree, and the probe is invisible.
        let descriptor = describe(&new_sql);
        let probed = cache.probe(&descriptor, &new.spec);
        assert_eq!(
            cache.stats.snapshot(),
            (0, 0, 0),
            "probe bumped stats\n{context}"
        );
        let decision = cache.lookup(&descriptor, &new.spec);
        let looked_up = match &decision {
            CacheDecision::Full(_) => CacheProbe::Full,
            CacheDecision::RecodeMap(_) => CacheProbe::RecodeMap,
            CacheDecision::Miss => CacheProbe::Miss,
        };
        assert_eq!(probed, looked_up, "probe disagrees with lookup\n{context}");

        // The reference: the new query computed cold.
        e.execute(&format!("CREATE TABLE reuse_new AS {new_sql}"))
            .unwrap();
        let prepped = e.catalog().table("reuse_new").unwrap();
        let raw = prepped.collect_sorted();
        let cold = tr.transform("reuse_new", &new.spec);
        if let Ok(cold) = &cold {
            let decoded =
                decode_transformed(&cold.table, prepped.schema(), &new.spec, &cold.recode_map);
            assert_eq!(
                decoded, raw,
                "cold transform does not decode to its input\n{context}"
            );
        } else if let Err(err) = &cold {
            // Only a coded column the rows leave with fewer values than
            // its coding needs (none to dummy-code, one to contrast) makes
            // the cold transform refuse.
            let too_few = |(c, coding): &(String, Coding)| {
                let at = prepped.schema().resolve(c).unwrap();
                let values: std::collections::BTreeSet<_> = raw
                    .iter()
                    .map(|r| r.get(at))
                    .filter(|v| !v.is_null())
                    .collect();
                values.len() < [2, 1][(*coding == Coding::Dummy) as usize]
            };
            assert!(
                err.to_string().contains("needs at least")
                    && new.spec.coded_columns.iter().any(too_few),
                "cold transform failed on rows: {err}\n{context}"
            );
        }
        match decision {
            // (a) the §5.1 rewrite answers with the cold transform's rows.
            CacheDecision::Full(reuse) => {
                full += 1;
                let reused = e
                    .query(&reuse.sql)
                    .unwrap_or_else(|err| panic!("{}: {err}\n{context}", reuse.sql));
                let decoded = decode_transformed(&reused, prepped.schema(), &new.spec, &reuse.map);
                assert_eq!(
                    decoded, raw,
                    "full reuse differs from cold: {}\n{context}",
                    reuse.sql
                );
            }
            // (b) the reused map recodes every column as the cold map does.
            CacheDecision::RecodeMap(map) => {
                maps += 1;
                match tr.transform_with_map("reuse_new", &new.spec, &map) {
                    Ok(warm) => {
                        let decoded =
                            decode_transformed(&warm.table, prepped.schema(), &new.spec, &map);
                        assert_eq!(decoded, raw, "map reuse differs from cold\n{context}");
                    }
                    // A map too narrow to contrast a column is refused
                    // only where the cold run was refused too.
                    Err(err) => assert!(
                        cold.is_err() && err.to_string().contains("needs at least"),
                        "reused map unusable: {err}\n{context}"
                    ),
                }
            }
            CacheDecision::Miss => misses += 1,
        }
        e.execute("DROP TABLE reuse_new").unwrap();
        cache.invalidate_all();
    }
    // The generator must keep exercising every outcome.
    assert!(
        full >= 40 && maps >= 40 && misses >= 40,
        "full {full}, maps {maps}, misses {misses}"
    );
}

// ---------------------------------------------------------------------
// Identifiers, seeded: the same (cached query, new query) pairs, their
// columns spelled in any ASCII case, aliased, projected twice, named like
// another column or like an indicator, and the specs naming them so. Every
// strategy and every cache mode must decode to the cold naive rows or
// refuse with the naive job's error.
// ---------------------------------------------------------------------

/// Aliases an identifier draw may give a projected column: other columns'
/// names in several cases, names like an indicator or a suffixed name, and
/// two that collide with nothing.
const ALIASES: [&str; 12] = [
    "sex",
    "SEX",
    "g",
    "G",
    "gender",
    "Gender",
    "ABANDONED",
    "gender_F",
    "GENDER_m",
    "abandoned_No",
    "age_2",
    "x",
];

/// `name` in one of four ASCII spellings: as is, upper, capitalized, or
/// each letter's case drawn.
fn respell(rng: &mut SplitMix64, name: &str) -> String {
    match rng.next_below(4) {
        0 => name.to_string(),
        1 => name.to_ascii_uppercase(),
        2 => name[..1].to_ascii_uppercase() + &name[1..],
        _ => name
            .chars()
            .map(|c| match rng.chance(0.5) {
                true => c.to_ascii_uppercase(),
                false => c.to_ascii_lowercase(),
            })
            .collect(),
    }
}

/// One projected column of an identifier draw: a [`REUSE_COLUMNS`] index,
/// its qualifier and name as the SQL spells them, and its alias.
#[derive(Clone)]
struct SpelledColumn {
    column: usize,
    qualifier: String,
    name: String,
    alias: Option<String>,
}

impl SpelledColumn {
    fn draw(rng: &mut SplitMix64, column: usize) -> SpelledColumn {
        let c = &REUSE_COLUMNS[column];
        SpelledColumn {
            column,
            qualifier: respell(rng, c.qualifier),
            name: respell(rng, c.name),
            alias: rng.chance(0.35).then(|| rng.choose(&ALIASES).to_string()),
        }
    }

    /// The name the column has in the query's output.
    fn output(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One side of an identifier pair: spelled projection, the pair's
/// predicates (their columns respelled), and the spec.
struct IdentQuery {
    projection: Vec<SpelledColumn>,
    predicates: Vec<String>,
    spec: TransformSpec,
}

impl IdentQuery {
    /// Spell `base`'s projection (a column `like` projects keeps its
    /// spelling and alias with probability 0.8; a categorical one is
    /// sometimes projected twice) and its predicates.
    fn dress(rng: &mut SplitMix64, base: &ReuseQuery, like: Option<&IdentQuery>) -> IdentQuery {
        let mut projection = Vec::new();
        for &i in &base.projection {
            let kept = like.and_then(|l| l.projection.iter().find(|c| c.column == i));
            match kept {
                Some(c) if !rng.chance(0.2) => projection.push(c.clone()),
                _ => projection.push(SpelledColumn::draw(rng, i)),
            }
        }
        let categorical: Vec<usize> = (base.projection.iter().copied())
            .filter(|&i| REUSE_COLUMNS[i].categorical)
            .collect();
        if !categorical.is_empty() && rng.chance(0.15) {
            let column = *rng.choose(&categorical);
            let mut twice = SpelledColumn::draw(rng, column);
            twice.alias = Some(rng.choose(&ALIASES).to_string());
            projection.push(twice);
        }
        let predicates = (base.predicates.iter())
            .map(|p| {
                let c = &REUSE_COLUMNS[p.column];
                let (q, n) = (respell(rng, c.qualifier), respell(rng, c.name));
                format!("{q}.{n} {} {}", p.op, p.literal)
            })
            .collect();
        IdentQuery {
            projection,
            predicates,
            spec: TransformSpec::default(),
        }
    }

    fn sql(&self) -> String {
        let cols: Vec<String> = (self.projection.iter())
            .map(|c| match &c.alias {
                Some(a) => format!("{}.{} AS {a}", c.qualifier, c.name),
                None => format!("{}.{}", c.qualifier, c.name),
            })
            .collect();
        let mut sql = format!(
            "SELECT {} FROM carts C, users U WHERE C.userid = U.userid",
            cols.join(", ")
        );
        for p in &self.predicates {
            sql.push_str(&format!(" AND {p}"));
        }
        sql
    }

    /// A spec over the output names, respelled: every categorical column
    /// or a listed few (now and then one that is not categorical), and
    /// some coded. With `like`, that spec with names the query lacks
    /// dropped, redrawn with probability 0.15.
    fn draw_spec(&mut self, rng: &mut SplitMix64, like: Option<&TransformSpec>) {
        let outputs: Vec<(String, bool)> = (self.projection.iter())
            .map(|c| (c.output().to_string(), REUSE_COLUMNS[c.column].categorical))
            .collect();
        let has = |n: &String| outputs.iter().any(|(o, _)| o.eq_ignore_ascii_case(n));
        if let Some(spec) = like.filter(|_| !rng.chance(0.15)) {
            let mut spec = spec.clone();
            spec.recode_columns.retain(has);
            spec.coded_columns.retain(|(c, _)| has(c));
            self.spec = spec;
            return;
        }
        let cats: Vec<&String> = (outputs.iter())
            .filter(|(_, c)| *c)
            .map(|(o, _)| o)
            .collect();
        let mut recode_columns = Vec::new();
        if !cats.is_empty() && rng.chance(0.25) {
            for c in &cats {
                if rng.chance(0.6) {
                    recode_columns.push(respell(rng, c));
                }
            }
            if rng.chance(0.15) {
                let (any, _) = rng.choose(&outputs).clone();
                recode_columns.push(respell(rng, &any));
            }
        }
        let mut coded_columns = Vec::new();
        for c in &cats {
            if rng.chance(0.4) {
                let coding = match rng.next_below(5) {
                    0 => Coding::Effect,
                    1 => Coding::Helmert,
                    _ => Coding::Dummy,
                };
                coded_columns.push((respell(rng, c), coding));
            }
        }
        self.spec = TransformSpec {
            recode_columns,
            coded_columns,
        };
    }
}

/// A pair for the identifier search, on [`draw_reuse_pair`]'s queries.
fn draw_ident_pair(rng: &mut SplitMix64) -> (IdentQuery, IdentQuery) {
    let (cached_base, new_base) = draw_reuse_pair(rng);
    let mut cached = IdentQuery::dress(rng, &cached_base, None);
    cached.draw_spec(rng, None);
    let mut new = IdentQuery::dress(rng, &new_base, Some(&cached));
    new.draw_spec(rng, Some(&cached.spec));
    (cached, new)
}

/// What binding `spec` to `schema` gives each column, by the rule spelled
/// out as plain loops: a name matches the columns equal to it ignoring
/// ASCII case and must match exactly one; no recode column named means
/// every categorical one; two recoded columns may not share a name; a
/// coded column must be recoded, and keeps its first coding. `None` when
/// binding refuses.
fn oracle_treatments(schema: &Schema, spec: &TransformSpec) -> Option<Vec<Treatment>> {
    let names = schema.names();
    let one = |n: &str| -> Option<usize> {
        let hits: Vec<usize> = (0..names.len())
            .filter(|&i| names[i].eq_ignore_ascii_case(n))
            .collect();
        (hits.len() == 1).then(|| hits[0])
    };
    let mut out = vec![Treatment::Pass; names.len()];
    if spec.recode_columns.is_empty() {
        for (i, f) in schema.fields().iter().enumerate() {
            if f.categorical {
                out[i] = Treatment::Recode;
            }
        }
    } else {
        for c in &spec.recode_columns {
            out[one(c)?] = Treatment::Recode;
        }
    }
    for i in 0..names.len() {
        for j in 0..i {
            let both = out[i] != Treatment::Pass && out[j] != Treatment::Pass;
            if both && names[i].eq_ignore_ascii_case(&names[j]) {
                return None;
            }
        }
    }
    for (c, coding) in &spec.coded_columns {
        let at = one(c)?;
        match out[at] {
            Treatment::Pass => return None,
            Treatment::Recode => out[at] = Treatment::Coded(*coding),
            Treatment::Coded(_) => {}
        }
    }
    Some(out)
}

/// The output names of `schema` treated as `treatments` over `map`: each
/// column's name, or its coding's names, then [`suffixed_names`].
fn oracle_names(schema: &Schema, treatments: &[Treatment], map: &RecodeMap) -> Vec<String> {
    let raw: Vec<String> = (schema.fields().iter().zip(treatments))
        .flat_map(|(f, t)| match *t {
            Treatment::Pass | Treatment::Recode => vec![f.name.clone()],
            Treatment::Coded(coding) => {
                coded_names(&f.name, coding, map.values_in_code_order(&f.name))
            }
        })
        .collect();
    suffixed_names(&raw)
}

#[test]
fn identifiers_in_any_case_aliased_or_colliding_bind_alike_under_every_strategy_and_cache_mode() {
    use sqlml_cache::CacheManager;
    use sqlml_common::CancelToken;
    use sqlml_core::{ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy};
    use sqlml_rewriter::{QueryRewriter, RewritePlan};
    use std::sync::Arc;

    let cluster = SimCluster::start(ClusterConfig::for_tests()).unwrap();
    let scale = WorkloadScale {
        carts: 600,
        users: 60,
    };
    cluster.load_workload(scale, 77).unwrap();
    let (e, dfs) = (&cluster.engine, &cluster.dfs);
    let cancel = CancelToken::new();
    let run = |rw: &QueryRewriter, sql: &str, spec: &TransformSpec| {
        let script = rw.rewrite(sql, spec, None)?;
        let (table, map) = rw.run(&script, &cancel, |_| Ok(()))?;
        Ok::<_, sqlml_common::SqlmlError>((table, map, script))
    };

    let (mut fresh, mut full, mut maps, mut refused) = (0, 0, 0, 0);
    for seed in 0..240u64 {
        let (cached, new) = draw_ident_pair(&mut SplitMix64::new(seed));
        let (cached_sql, new_sql) = (cached.sql(), new.sql());
        let context = format!(
            "ident seed {seed}\n  cached: {cached_sql}\n          {:?}\n  new:    {new_sql}\n          {:?}",
            cached.spec, new.spec
        );

        // The reference: the new query's rows, and the naive job over them.
        let prepped = e
            .query(&new_sql)
            .unwrap_or_else(|err| panic!("{err}\n{context}"));
        let (schema, raw) = (prepped.schema().clone(), prepped.collect_sorted());
        let expected = oracle_treatments(&schema, &new.spec);
        let (input, output) = (format!("/ident/{seed}/in"), format!("/ident/{seed}/out"));
        prepped.save_text(dfs, &input).unwrap();
        let naive = run_external_transform(dfs, &input, &schema, &new.spec, &output).map(|out| {
            (
                read_sorted(dfs, &output, &out.schema),
                out.schema,
                out.recode_map,
            )
        });
        let naive_err = naive.as_ref().err().map(|err| err.to_string());
        match (&expected, &naive) {
            (None, Ok(_)) => panic!("naive bound what the rule refuses\n{context}"),
            (None, Err(_)) => refused += 1,
            (Some(treatments), Ok((rows, out_schema, map))) => {
                let decoded = decode_rows(rows, &schema, treatments, map);
                assert_eq!(decoded, raw, "naive does not decode\n{context}");
                let names = oracle_names(&schema, treatments, map);
                assert_eq!(out_schema.names(), names, "naive names\n{context}");
            }
            (Some(_), Err(err)) => assert!(
                err.to_string().contains("needs at least"),
                "naive refused a spec that binds: {err}\n{context}"
            ),
        }

        // Each In-SQL run: cold, then through a cache primed with the
        // cached side (fresh, §5.1 or §5.2 — whichever the cache decides).
        let cache = Arc::new(CacheManager::new(e.clone()));
        let warm = QueryRewriter::with_cache(e.clone(), Arc::clone(&cache));
        if let Ok((table, map, script)) = run(&warm, &cached_sql, &cached.spec) {
            if let Some(d) = script.descriptor {
                cache.store_full(d, cached.spec.clone(), map, table);
            }
        }
        let cold = run(&QueryRewriter::new(e.clone()), &new_sql, &new.spec);
        let reused = run(&warm, &new_sql, &new.spec);
        match reused.as_ref().map(|(_, _, s)| &s.plan) {
            Ok(RewritePlan::Fresh) | Err(_) => fresh += 1,
            Ok(RewritePlan::CachedResult { .. }) => full += 1,
            Ok(RewritePlan::CachedMap { .. }) => maps += 1,
        }
        for (mode, outcome) in [("cold", cold), ("cached", reused)] {
            match (outcome, &naive_err) {
                (Err(err), Some(naive_err)) => {
                    assert_eq!(&err.to_string(), naive_err, "{mode}\n{context}")
                }
                (Err(err), None) => panic!("{mode} refused: {err}\n{context}"),
                // A map or result cached over more rows may code a column
                // the new rows alone are too few to code.
                (Ok(_), Some(naive_err)) if mode == "cold" || expected.is_none() => {
                    panic!("{mode} ran what naive refused: {naive_err}\n{context}")
                }
                (Ok((table, map, _)), _) => {
                    let Some(treatments) = &expected else {
                        unreachable!()
                    };
                    let rows = table.collect_rows();
                    let decoded = decode_rows(&rows, &schema, treatments, &map);
                    assert_eq!(decoded, raw, "{mode} does not decode\n{context}");
                    if let Ok((_, naive_schema, naive_map)) = &naive {
                        if *naive_map == map {
                            let names = table.schema().names();
                            assert_eq!(names, naive_schema.names(), "{mode}\n{context}");
                        }
                    }
                }
            }
        }

        // Every eighth pair through whole pipelines: every strategy,
        // uncached and over a primed cache, hands ML the reference's rows
        // or fails with the naive job's error.
        if seed % 8 == 0 && raw.len() >= 2 {
            let req = |sql: &str, spec: &TransformSpec| PipelineRequest {
                prep_sql: sql.to_string(),
                spec: spec.clone(),
                ml_command: "kmeans k=2 iterations=1".to_string(),
            };
            let primed = Pipeline::with_cache(&cluster);
            let _ = primed.prepare_and_transform(&req(&cached_sql, &cached.spec), &cancel);
            for pipeline in [Pipeline::new(&cluster), primed] {
                for strategy in [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream] {
                    match (
                        pipeline.run(&req(&new_sql, &new.spec), strategy),
                        &naive_err,
                    ) {
                        (Ok(report), None) => {
                            assert_eq!(report.rows_to_ml, raw.len(), "{strategy:?}\n{context}")
                        }
                        (Err(err), Some(naive_err)) => {
                            assert_eq!(&err.to_string(), naive_err, "{strategy:?}\n{context}")
                        }
                        (Ok(_), Some(_)) if pipeline.cache().is_some() => {}
                        (outcome, _) => panic!(
                            "{strategy:?}: {:?} vs naive {naive_err:?}\n{context}",
                            outcome.map(|r| r.rows_to_ml)
                        ),
                    }
                }
            }
        }
    }
    // The draws must keep exercising every outcome.
    assert!(
        fresh >= 60 && full >= 20 && maps >= 40 && refused >= 12,
        "fresh {fresh}, full {full}, maps {maps}, refused {refused}"
    );
}

// ---------------------------------------------------------------------
// The column engine against plain Rust loops over the generated rows.
// ---------------------------------------------------------------------

const GROUPS: [&str; 4] = ["north", "east", "it's", ""];

/// `(k BIGINT, s VARCHAR, g VARCHAR, v DOUBLE, w BIGINT)` rows: NULL and
/// duplicate keys (Int and Str), NULL cells everywhere, `v` a multiple of
/// 0.25 so a SUM is exact in any order. Returned as explicit partitions:
/// one empty, and every other one *starting* with a different string of
/// each vocabulary, so each partition's dictionaries are ordered
/// differently.
fn oracle_partitions(rng: &mut SplitMix64, rows: usize, parts: usize) -> Vec<Vec<Row>> {
    let opt = |rng: &mut SplitMix64, v: Value| if rng.chance(0.12) { Value::Null } else { v };
    let mut out: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
    let empty = rng.next_below(parts as u64) as usize;
    for i in 0..rows {
        let p = (empty + 1 + rng.next_below(parts as u64 - 1) as usize) % parts;
        // A partition's first row rotates both vocabularies by `p`.
        let pick = |rng: &mut SplitMix64, n: usize| match out[p].is_empty() {
            true => p % n,
            false => rng.next_below(n as u64) as usize,
        };
        let (si, gi) = (pick(rng, 7), pick(rng, GROUPS.len()));
        let (k, v) = (rng.range_i64(0, 9), rng.range_i64(-40, 400) as f64 * 0.25);
        let row = Row::new(vec![
            opt(rng, Value::Int(k)),
            opt(rng, Value::str(format!("key-{si}").as_str())),
            opt(rng, Value::str(GROUPS[gi])),
            opt(rng, Value::Double(v)),
            opt(rng, Value::Int(i as i64)),
        ]);
        out[p].push(row);
    }
    out
}

fn oracle_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("s", DataType::Str),
        Field::categorical("g"),
        Field::new("v", DataType::Double),
        Field::new("w", DataType::Int),
    ])
}

#[test]
fn column_engine_matches_plain_rust_loops_on_seeded_keyed_tables() {
    let (mut built_left, mut built_right) = (0, 0);
    for seed in 0..240u64 {
        let mut rng = SplitMix64::new(0xC01_0000 + seed);
        // Either side may be the smaller one: both build sides occur.
        let (nl, nr) = (
            4 + rng.next_below(60) as usize,
            4 + rng.next_below(60) as usize,
        );
        let (lp, rp) = (
            oracle_partitions(&mut rng, nl, 4),
            oracle_partitions(&mut rng, nr, 3),
        );
        let e = Engine::new(EngineConfig::with_workers(1 + seed as usize % 4));
        e.register_table("l", PartitionedTable::new(oracle_schema(), lp.clone()));
        e.register_table("r", PartitionedTable::new(oracle_schema(), rp.clone()));
        let (l, r): (Vec<Row>, Vec<Row>) = (lp.concat(), rp.concat());
        let pick = |row: &Row, cols: &[usize]| row.project(cols);
        let sorted = |mut rows: Vec<Row>| {
            rows.sort();
            rows
        };
        let run = |sql: &str| {
            e.query(sql)
                .unwrap_or_else(|err| panic!("seed {seed}: {sql}: {err}"))
        };
        let check = |sql: &str, expect: Vec<Row>| {
            assert_eq!(
                run(sql).collect_sorted(),
                sorted(expect),
                "seed {seed}: {sql}"
            );
        };

        // Filter: column-vs-literal comparisons under AND, on a double
        // and on a dictionary-coded string.
        let (x, g) = (rng.range_i64(-10, 90) as f64, *rng.choose(&GROUPS));
        let keep = |row: &Row| {
            matches!(row.get(3), Value::Double(v) if *v > x)
                && matches!(row.get(2), Value::Str(s) if &**s == g)
        };
        check(
            &format!(
                "SELECT k, s, v FROM l WHERE v > {x:?} AND g = '{}'",
                g.replace('\'', "''")
            ),
            l.iter()
                .filter(|row| keep(row))
                .map(|row| pick(row, &[0, 1, 3]))
                .collect(),
        );

        // Projecting inner join on the Int key (NULL keys never match,
        // duplicate keys multiply), a filter pushed to one side.
        let y = rng.range_i64(0, nr as i64);
        let on = |c: usize, a: &Row, b: &Row| !a.get(c).is_null() && a.get(c) == b.get(c);
        let mut expect = Vec::new();
        for a in &l {
            for b in r
                .iter()
                .filter(|b| matches!(b.get(4), Value::Int(w) if *w > y))
            {
                if on(0, a, b) {
                    expect.push(Row::new(vec![
                        a.get(1).clone(),
                        b.get(4).clone(),
                        a.get(3).clone(),
                    ]));
                }
            }
        }
        let sql = format!("SELECT L.s, R.w, L.v FROM l L, r R WHERE L.k = R.k AND R.w > {y}");
        let plan = e.explain(&sql).unwrap();
        built_left += usize::from(plan.contains("build=Left"));
        built_right += usize::from(plan.contains("build=Right"));
        check(&sql, expect);

        // The same join keyed on the string column: values, never codes,
        // are compared across partitions and tables.
        let mut expect = Vec::new();
        for a in &l {
            for b in r.iter().filter(|b| on(1, a, b)) {
                expect.push(Row::new(vec![
                    a.get(0).clone(),
                    b.get(4).clone(),
                    b.get(2).clone(),
                ]));
            }
        }
        check("SELECT L.k, R.w, R.g FROM l L, r R WHERE L.s = R.s", expect);

        // Left outer join: an unmatched (or NULL-keyed) left row is
        // padded with NULLs.
        let mut expect = Vec::new();
        for a in &l {
            let before = expect.len();
            for b in r.iter().filter(|b| on(0, a, b)) {
                expect.push(Row::new(vec![a.get(4).clone(), b.get(1).clone()]));
            }
            if expect.len() == before {
                expect.push(Row::new(vec![a.get(4).clone(), Value::Null]));
            }
        }
        check(
            "SELECT L.w, R.s FROM l L LEFT JOIN r R ON L.k = R.k",
            expect,
        );

        // ORDER BY / LIMIT: the exact sequence, not the set.
        let n = 1 + rng.next_below(12) as usize;
        let mut expect: Vec<Row> = (l.iter().filter(|row| !row.get(0).is_null()))
            .map(|row| pick(row, &[0, 3]))
            .collect();
        expect.sort_by(|a, b| b.get(0).cmp(a.get(0)).then(a.get(1).cmp(b.get(1))));
        expect.truncate(n);
        let sql = format!("SELECT k, v FROM l WHERE k IS NOT NULL ORDER BY k DESC, v LIMIT {n}");
        assert_eq!(run(&sql).collect_rows(), expect, "seed {seed}: {sql}");

        // GROUP BY a nullable dictionary-coded column.
        let mut groups: std::collections::BTreeMap<Value, (i64, i64, Option<f64>, Vec<Value>)> =
            Default::default();
        for row in &l {
            let acc = groups.entry(row.get(2).clone()).or_default();
            acc.0 += 1;
            acc.1 += i64::from(!row.get(3).is_null());
            if let Value::Double(v) = row.get(3) {
                acc.2 = Some(acc.2.unwrap_or(0.0) + v);
            }
            acc.3
                .extend((!row.get(0).is_null()).then(|| row.get(0).clone()));
        }
        let expect = (groups.into_iter())
            .map(|(g, (n, nv, sum, ks))| {
                Row::new(vec![
                    g,
                    Value::Int(n),
                    Value::Int(nv),
                    sum.map_or(Value::Null, Value::Double),
                    ks.iter().min().cloned().unwrap_or(Value::Null),
                    ks.iter().max().cloned().unwrap_or(Value::Null),
                ])
            })
            .collect();
        check(
            "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(k), MAX(k) FROM l GROUP BY g",
            expect,
        );

        // DISTINCT over a nullable dictionary string and a nullable int,
        // as a set.
        let distinct: std::collections::BTreeSet<Row> =
            l.iter().map(|row| pick(row, &[2, 0])).collect();
        check(
            "SELECT DISTINCT g, k FROM l",
            distinct.into_iter().collect(),
        );

        // ORDER BY a key with many ties across partitions: the exact
        // sequence a stable sort of the partitions in order gives.
        let mut expect: Vec<Row> = l.iter().map(|row| pick(row, &[2, 0, 1])).collect();
        expect.sort_by(|a, b| a.get(0).cmp(b.get(0)));
        let sql = "SELECT g, k, s FROM l ORDER BY g";
        assert_eq!(run(sql).collect_rows(), expect, "seed {seed}: {sql}");

        // LIMIT with no ORDER BY: the first rows in partition order.
        let expect: Vec<Row> = l.iter().take(n).map(|row| pick(row, &[0])).collect();
        let sql = format!("SELECT k FROM l LIMIT {n}");
        assert_eq!(run(&sql).collect_rows(), expect, "seed {seed}: {sql}");
    }
    assert!(
        built_left >= 20 && built_right >= 20,
        "build sides: {built_left} left, {built_right} right"
    );
}

/// Join keys for the oracle below: `build` values the build side draws
/// from, and `misses` the probe side draws from as well, which no build
/// row holds.
struct KeyRange {
    build: Vec<i64>,
    misses: Vec<i64>,
}

/// One of five key ranges. A dense range (near zero, or flush against
/// either end of `i64`, where `key − min` wraps for a miss at the other
/// end) is direct addressed; keys spread over ±2^62, and `i64::MIN`/`MAX`
/// ± 1 mixed with small keys, are hashed.
fn draw_key_range(rng: &mut SplitMix64, kind: u64, keys: usize) -> KeyRange {
    let dense = |lo: i64| (0..keys as i64).map(|k| lo + k).collect::<Vec<_>>();
    let ends = [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX];
    match kind {
        0 => {
            let lo = rng.range_i64(-50, 50);
            KeyRange {
                build: dense(lo),
                misses: vec![lo - 1, lo + keys as i64, i64::MIN, i64::MAX],
            }
        }
        1 => KeyRange {
            build: dense(i64::MAX - keys as i64 + 1),
            misses: vec![i64::MIN, i64::MIN + 1, 0, i64::MAX - keys as i64],
        },
        2 => KeyRange {
            build: dense(i64::MIN),
            misses: vec![i64::MAX, i64::MAX - 1, 0, i64::MIN + keys as i64],
        },
        3 => {
            let spread = |rng: &mut SplitMix64| rng.range_i64(-(1 << 62), 1 << 62);
            KeyRange {
                build: (0..keys).map(|_| spread(rng)).collect(),
                misses: (0..4).map(|_| spread(rng)).collect(),
            }
        }
        _ => {
            let small = (0..keys as i64 - 2).map(|k| k - 1);
            let mut build: Vec<i64> = small.chain([ends[0], ends[3]]).collect();
            build.rotate_left(rng.next_below(keys as u64) as usize);
            KeyRange {
                build,
                misses: ends[1..3].to_vec(),
            }
        }
    }
}

/// `(k BIGINT, t VARCHAR, i BIGINT)` over `parts` partitions, at least
/// one of them empty, keys drawn by `key`: NULL with probability `nulls`.
fn join_side(
    rng: &mut SplitMix64,
    rows: usize,
    parts: usize,
    nulls: f64,
    tag: &str,
    mut key: impl FnMut(&mut SplitMix64, usize) -> i64,
) -> Vec<Vec<Row>> {
    let mut out: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
    let skipped = rng.next_below(parts as u64) as usize;
    for i in 0..rows {
        let p = match parts {
            1 => 0,
            _ => (skipped + 1 + rng.next_below(parts as u64 - 1) as usize) % parts,
        };
        let k = match rng.chance(nulls) {
            true => Value::Null,
            false => Value::Int(key(rng, i)),
        };
        let t = Value::str(format!("{tag}{i}").as_str());
        out[p].push(Row::new(vec![k, t, Value::Int(i as i64)]));
    }
    out
}

#[test]
fn the_join_matches_nested_loops_in_output_order_on_dense_sparse_and_extreme_keys() {
    let schema = || {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("t", DataType::Str),
            Field::new("i", DataType::Int),
        ])
    };
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(0x701_0000 + seed);
        let range_kind = seed % 5;
        let (build_rows, probe_rows) = (rng.next_below(40) as usize, rng.next_below(60) as usize);
        // Unique build keys (a key–foreign-key join) on odd seeds, drawn
        // with repeats on even ones.
        let unique = seed % 2 == 1;
        let range = draw_key_range(&mut rng, range_kind, build_rows.max(4));
        let nulls = *rng.choose(&[0.0, 0.1, 1.0]);
        let build_parts = join_side(&mut rng, build_rows, 3, nulls, "b", |rng, i| match unique {
            true => range.build[i % range.build.len()],
            false => *rng.choose(&range.build),
        });
        let probe_parts = join_side(
            &mut rng,
            probe_rows,
            4,
            nulls / 2.0,
            "p",
            |rng, _| match rng.chance(0.2) {
                true => *rng.choose(&range.misses),
                false => *rng.choose(&range.build),
            },
        );
        let e = Engine::new(EngineConfig::with_workers(1 + seed as usize % 3));
        let scan = |name: &str, parts: &[Vec<Row>]| Plan::Scan {
            name: name.into(),
            table: std::sync::Arc::new(PartitionedTable::new(schema(), parts.to_vec())),
        };
        let build_all: Vec<Row> = build_parts.concat();
        for (kind, build) in [
            (JoinKind::Inner, BuildSide::Right),
            (JoinKind::Inner, BuildSide::Left),
            (JoinKind::LeftOuter, BuildSide::Right),
        ] {
            // The probe side is the other one; the output is left ++ right.
            let (left, right) = match build {
                BuildSide::Right => (scan("p", &probe_parts), scan("b", &build_parts)),
                BuildSide::Left => (scan("b", &build_parts), scan("p", &probe_parts)),
            };
            let plan = Plan::HashJoin {
                schema: left.schema().join(&right.schema()),
                left: Box::new(left),
                right: Box::new(right),
                left_keys: vec![Expr::Col(0)],
                right_keys: vec![Expr::Col(0)],
                kind,
                build,
                project: None,
            };
            // Probe partitions in order, each probe row's matches in
            // build order; NULL never matches.
            let mut expect = Vec::new();
            for p in probe_parts.iter().flatten() {
                let before = expect.len();
                for b in build_all
                    .iter()
                    .filter(|b| !p.get(0).is_null() && b.get(0) == p.get(0))
                {
                    let (l, r) = match build {
                        BuildSide::Right => (p, b),
                        BuildSide::Left => (b, p),
                    };
                    expect.push(Row::new([l.values(), r.values()].concat()));
                }
                if expect.len() == before && kind == JoinKind::LeftOuter {
                    let pad = [Value::Null, Value::Null, Value::Null];
                    expect.push(Row::new([p.values(), &pad].concat()));
                }
            }
            let got = execute(&plan, e.exec_context())
                .unwrap_or_else(|err| panic!("seed {seed}: {kind:?} {build:?}: {err}"));
            assert_eq!(
                got.collect_rows(),
                expect,
                "seed {seed}: key range {range_kind}, unique {unique}, {kind:?} build {build:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The text walker and the naive job's line rewriter, against the
// split-based decoder and the column round trip they replaced.
// ---------------------------------------------------------------------

/// The splitter the text walker replaced, kept as the oracle: `s` cut at
/// every `sep` byte, one scan per line and another per field.
fn split_on(s: &str, sep: u8) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let piece = rest?;
        match piece.bytes().position(|b| b == sep) {
            Some(at) => {
                rest = piece.get(at + 1..);
                piece.get(..at)
            }
            None => rest.take(),
        }
    })
}

/// The split-based decoder's row for one line, or its error.
fn oracle_row(line: &str, schema: &Schema) -> sqlml_common::Result<Row> {
    use sqlml_common::SqlmlError;
    let arity = |what: &str| {
        let n = schema.len();
        SqlmlError::Execution(format!("text row has {what} than {n} fields: {line:?}"))
    };
    let unescape = |raw: &str| -> sqlml_common::Result<String> {
        let (mut out, mut chars) = (String::new(), raw.chars());
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('p') => out.push('|'),
                Some('n') => out.push('\n'),
                other => {
                    let e = format!("bad escape sequence \\{other:?} in text field");
                    return Err(SqlmlError::Execution(e));
                }
            }
        }
        Ok(out)
    };
    let escaped = line.contains('\\');
    let mut fields = split_on(line, b'|');
    let mut values = Vec::new();
    for f in schema.fields() {
        let raw = fields.next().ok_or_else(|| arity("fewer"))?;
        let text = match (escaped, raw) {
            (false, raw) => Some(raw.to_string()),
            (true, "\\N") => None,
            (true, raw) => Some(unescape(raw)?),
        };
        values.push(match (text, f.data_type) {
            (None, _) => Value::Null,
            (Some(text), DataType::Str) => Value::str(text),
            (Some(text), ty) => Value::parse_typed(&text, ty)?,
        });
    }
    match fields.next() {
        Some(_) => Err(arity("more")),
        None => Ok(Row::new(values)),
    }
}

/// Every non-empty line's row in order, through the first error.
fn oracle_lines(text: &str, schema: &Schema) -> Vec<sqlml_common::Result<Row>> {
    let mut out = Vec::new();
    for line in split_on(text, b'\n').filter(|l| !l.is_empty()) {
        let row = oracle_row(line, schema);
        let failed = row.is_err();
        out.push(row);
        if failed {
            break;
        }
    }
    out
}

const TEXT_TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Double,
    DataType::Bool,
    DataType::Str,
];

/// A cell of type `ty`: NULL, an edge value, a random one, or a string
/// that needs escapes.
fn random_text_cell(rng: &mut SplitMix64, ty: DataType) -> Value {
    const STRINGS: [&str; 10] = [
        "F", "M", "", "a|b", "x\\y", "\\N", "l\nm", "Yes\r", "ü", "p",
    ];
    if rng.chance(0.1) {
        return Value::Null;
    }
    match ty {
        DataType::Int => match rng.next_below(3) {
            0 => Value::Int(*rng.choose(&[0, -1, i64::MIN, i64::MAX])),
            1 => Value::Int(rng.next_below(100) as i64),
            _ => Value::Int(rng.next_u64() as i64),
        },
        DataType::Double => match rng.next_below(3) {
            0 => Value::Double(*rng.choose(&[-0.0, 1e-4, 1e9, 0.1 + 0.2, f64::INFINITY])),
            1 => Value::Double((rng.next_below(200_000) as f64 - 1e5) / 100.0),
            _ => Value::Double(f64::from_bits(rng.next_u64())),
        },
        DataType::Bool => Value::Bool(rng.chance(0.5)),
        DataType::Str => Value::str(*rng.choose(&STRINGS)),
    }
}

/// The column text decoder's mutated blobs: 1–6 lines of written cells,
/// a fifth of them swapped for a cell good for some column and bad for
/// others, and a line of the wrong arity now and then.
fn mutated_blob(rng: &mut SplitMix64, schema: &Schema) -> String {
    const FIELDS: [&str; 16] = [
        "\\N", "\\\\N", "", "7", "-12", "2.5", "-0.0", "1e3", "12x", "true", "0", "F", "a\\pb",
        "x\\\\y", "\\q", "ü",
    ];
    let lines: Vec<String> = (0..1 + rng.next_below(6))
        .map(|_| {
            let mut line: Vec<String> = (schema.fields().iter())
                .map(|f| {
                    if rng.chance(0.8) {
                        let mut cell = String::new();
                        codec::encode_text_value(&random_text_cell(rng, f.data_type), &mut cell);
                        cell
                    } else {
                        rng.choose(&FIELDS).to_string()
                    }
                })
                .collect();
            match rng.next_below(12) {
                0 => drop(line.pop()),
                1 => line.push("9".into()),
                _ => {}
            }
            line.join("|")
        })
        .collect();
    lines.join("\n") + "\n"
}

/// A block's rows as the bits of their numbers.
fn block_bits(block: sqlml_mlengine::PartitionBlock) -> Vec<Vec<u64>> {
    let data = sqlml_mlengine::Dataset::from_blocks(vec![block]).unwrap();
    let rows = data.iter().map(|p| p.features.iter().map(|f| f.to_bits()));
    rows.map(Iterator::collect).collect()
}

/// Every split of `fmt` in order, as the bits of its rows, through the
/// first split that fails and its error.
fn read_splits(fmt: &sqlml_mlengine::TextInputFormat) -> (Vec<Vec<u64>>, Option<String>) {
    use sqlml_mlengine::{InputFormat, PartitionBlock};
    let mut rows = Vec::new();
    for split in fmt.get_splits().unwrap() {
        let mut block = PartitionBlock::new(None);
        let mut reader = fmt.create_reader(split.as_ref(), "node-0").unwrap();
        let err = reader.next_batch(&mut block).err();
        rows.extend(block_bits(block));
        if let Some(e) = err {
            return (rows, Some(e.to_string()));
        }
    }
    (rows, None)
}

/// The parent's job 2 on one part-file: decode it into columns, apply,
/// encode. The reference for [`FlatRecodeApplier::rewrite_text`].
fn column_round_trip(
    applier: &FlatRecodeApplier,
    text: &str,
    schema: &Schema,
) -> Result<(String, usize), String> {
    let out = Batch::decode_text(text, schema).and_then(|b| applier.apply_batch(&b));
    out.map(|b| (b.encode_text(), b.len()))
        .map_err(|e| e.to_string())
}

#[test]
fn every_text_reader_walks_what_the_split_based_decoder_reads() {
    let mut rng = SplitMix64::new(0x0DEC_0DE5);
    let block_sizes = [7, 16, 64, 1 << 20];
    let dfss: Vec<Dfs> = (block_sizes.iter())
        .map(|&block_size| {
            Dfs::new(DfsConfig {
                block_size,
                ..DfsConfig::for_tests()
            })
        })
        .collect();
    let (mut decoded, mut refused, mut job_refused) = (0, 0, 0);
    for seed in 0..400 {
        let width = 1 + rng.next_below(5) as usize;
        let fields = (0..width).map(|c| Field::new(format!("c{c}"), *rng.choose(&TEXT_TYPES)));
        let schema = Schema::new(fields.collect());
        let text = mutated_blob(&mut rng, &schema);
        let what = format!("seed {seed}: {text:?}");
        let lines: Vec<Result<Row, String>> = (oracle_lines(&text, &schema).into_iter())
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        let want: Result<Vec<Row>, String> = lines.iter().cloned().collect();
        decoded += usize::from(want.is_ok());
        refused += usize::from(want.is_err());

        // The row and the column decoders.
        let rows = codec::decode_text_batch(&text, &schema).map_err(|e| e.to_string());
        assert_eq!(rows, want, "{what}");
        let columns = Batch::decode_text(&text, &schema).map(|b| b.rows());
        assert_eq!(columns.map_err(|e| e.to_string()), want, "{what}");

        // At every block size, lines straddling blocks: the table load,
        // and the ML reader (the rows as numbers up to the first line that
        // fails either way).
        let mut want_ml = (Vec::new(), None);
        for row in &lines {
            match (row.clone()).and_then(|r| r.to_f64_vec().map_err(|e| e.to_string())) {
                Ok(v) => want_ml.0.push(v.iter().map(|f| f.to_bits()).collect()),
                Err(e) => {
                    want_ml.1 = Some(e);
                    break;
                }
            }
        }
        let dir = format!("/walk/{seed}");
        for (dfs, block) in dfss.iter().zip(block_sizes) {
            dfs.write_string(&format!("{dir}/part-00000"), &text)
                .unwrap();
            let table = PartitionedTable::load_text(dfs, &dir, schema.clone());
            let table = table.map(|t| t.collect_rows()).map_err(|e| e.to_string());
            assert_eq!(table, want, "table load, {block} B blocks, {what}");
            let fmt = sqlml_mlengine::TextInputFormat::new(dfs.clone(), &dir, schema.clone());
            assert_eq!(
                read_splits(&fmt),
                want_ml,
                "ML reader, {block} B blocks, {what}"
            );
        }

        // Jobs 1 and 2: the string columns recoded, now and then one
        // coded, and now and then a column that holds no strings.
        let mut spec = TransformSpec {
            recode_columns: (schema.fields().iter())
                .filter(|f| f.data_type == DataType::Str || rng.chance(0.15))
                .map(|f| f.name.clone())
                .collect(),
            coded_columns: Vec::new(),
        };
        if let Some(c) = spec.recode_columns.first().filter(|_| rng.chance(0.5)) {
            spec.coded_columns.push((c.clone(), *rng.choose(&CODINGS)));
        }
        // The parent's jobs: job 1 walks every line without parsing a
        // number and builds the map from the string cells it keeps (a line
        // it cannot walk fails the job with the file's first decode
        // error), then the applier is built, then job 2 runs.
        let as_strings = (schema.fields().iter()).map(|f| Field::new(&f.name, DataType::Str));
        let as_strings = Schema::new(as_strings.collect());
        let walked: Result<Vec<Row>, String> = (split_on(&text, b'\n'))
            .filter(|l| !l.is_empty())
            .map(|l| oracle_row(l, &as_strings).map_err(|e| e.to_string()))
            .collect();
        let want_job = walked
            .map_err(|_| want.clone().unwrap_err())
            .and_then(|rows| {
                let recoded = spec.effective_recode_columns(&schema);
                let pairs = (schema.fields().iter().enumerate())
                    .filter(|(_, f)| f.data_type == DataType::Str && recoded.contains(&f.name))
                    .flat_map(|(c, f)| {
                        let values = rows.iter().filter_map(move |r| r.get(c).as_str().ok());
                        values.map(|v| (f.name.clone(), v.to_string()))
                    });
                let map = RecodeMap::from_pairs(pairs.collect::<Vec<_>>());
                let applier = (spec.bind(&schema))
                    .and_then(|bound| FlatRecodeApplier::new(&map, &bound))
                    .map_err(|e| e.to_string())?;
                let (text, _) = column_round_trip(&applier, &text, &schema)?;
                Ok((text, applier.output_schema().names()))
            });
        let dfs = &dfss[2];
        let out_dir = format!("/walk-out/{seed}");
        let got_job = run_external_transform(dfs, &dir, &schema, &spec, &out_dir)
            .map(|out| {
                let text = dfs.read_string(&format!("{out_dir}/part-00000")).unwrap();
                (text, out.schema.names())
            })
            .map_err(|e| e.to_string());
        assert_eq!(got_job, want_job, "{spec:?}, {what}");
        job_refused += usize::from(got_job.is_err() && want.is_ok());
    }
    assert!(
        decoded > 100 && refused > 100 && job_refused > 10,
        "{decoded} decoded, {refused} refused, {job_refused} refused by the jobs alone"
    );
}

/// A seeded part-file for the line rewriter: per column, cells drawn
/// from its values (escaped as written), NULL markers, `\\N` and empty
/// strings, and numbers spelled as the writers spell them or not. When
/// `malformed`, now and then a cell no column type accepts, a bad escape
/// or a line of the wrong arity.
fn rewriter_part_file(
    rng: &mut SplitMix64,
    schema: &Schema,
    pools: &[Vec<String>],
    lines: u64,
    malformed: bool,
) -> String {
    rewriter_part_file_with(rng, schema, pools, lines, malformed, 20)
}

/// [`rewriter_part_file`] with an odd cell (a NULL, a number spelled
/// otherwise, a string that needs escapes, a bad cell) drawn about seven
/// times in `odd_in` cells: 20 makes most lines hold one, 400 few.
fn rewriter_part_file_with(
    rng: &mut SplitMix64,
    schema: &Schema,
    pools: &[Vec<String>],
    lines: u64,
    malformed: bool,
    odd_in: u64,
) -> String {
    const INTS: [&str; 11] = [
        "007",
        "+5",
        "-0",
        "0",
        "12",
        "-7",
        "",
        "\\\\N",
        "999999999999999999",
        "9223372036854775807",
        "-9223372036854775808",
    ];
    const DOUBLES: [&str; 17] = [
        "1.50", "1e3", "-0", "0.00001", "0.0001", "-0.0", "0.0", "2.5", "5.0", "5.00", "0.1",
        "1e400", "nan", "inf", "007", "+5", "\\\\N",
    ];
    const BOOLS: [&str; 6] = ["true", "0", "FALSE", "", "1", "\\\\N"];
    const STRINGS: [&str; 5] = ["ü", "Yes\r", "a\\pb", "l\\nm", ""];
    const BAD: [&str; 6] = ["12x", "9223372036854775808", "maybe", "\\q", "1.5.0", "-"];
    let mut text = String::new();
    for _ in 0..lines {
        let mut cells: Vec<String> = (schema.fields().iter().zip(pools))
            .map(|(f, pool)| {
                let mut cell = String::new();
                match (f.data_type, rng.next_below(odd_in)) {
                    (_, 0) => cell.push_str("\\N"),
                    (_, 1) if malformed && rng.chance(0.2) => {
                        cell.push_str(rng.choose::<&str>(&BAD))
                    }
                    (DataType::Str, 2) if malformed => cell.push_str(rng.choose::<&str>(&STRINGS)),
                    (DataType::Str, _) => {
                        codec::escape_text(rng.choose(pool.as_slice()).as_str(), &mut cell)
                    }
                    (DataType::Bool, _) => cell.push_str(rng.choose::<&str>(&BOOLS)),
                    (DataType::Int, 2..=6) => cell.push_str(rng.choose::<&str>(&INTS)),
                    (DataType::Int, _) => codec::write_int(rng.range_i64(-5000, 5000), &mut cell),
                    (_, 2..=6) => cell.push_str(rng.choose::<&str>(&DOUBLES)),
                    (_, _) => {
                        let d = (rng.next_below(2_000_000) as f64 - 1e6) / 1000.0;
                        codec::write_double(d, &mut cell)
                    }
                }
                cell
            })
            .collect();
        match rng.next_below(if malformed { 100 } else { u64::MAX }) {
            0 => drop(cells.pop()),
            1 => cells.push("9".into()),
            _ => {}
        }
        text.push_str(&cells.join("|"));
        text.push('\n');
    }
    text
}

/// `text` cut into pieces of whole lines at random line ends, as
/// `codec::text_pieces` hands a part-file's blocks over.
fn line_pieces<'a>(rng: &mut SplitMix64, text: &'a str) -> Vec<&'a str> {
    let mut pieces = Vec::new();
    let mut start = 0;
    for (end, _) in text.match_indices('\n') {
        if rng.chance(0.3) {
            pieces.push(&text[start..=end]);
            start = end + 1;
        }
    }
    pieces.push(&text[start..]);
    pieces
}

#[test]
fn the_line_rewriter_writes_what_the_column_round_trip_writes() {
    let mut rng = SplitMix64::new(0x2E_7217E);
    let (mut rewritten, mut refused, mut unseen, mut long_blocks) = (0, 0, 0, 0);
    for seed in 0..400 {
        let width = 2 + rng.next_below(5) as usize;
        let mut types: Vec<DataType> = (0..width).map(|_| *rng.choose(&TEXT_TYPES)).collect();
        types[rng.next_below(width as u64) as usize] = DataType::Str;
        let fields = (types.iter().enumerate()).map(|(c, ty)| Field::new(format!("c{c}"), *ty));
        let schema = Schema::new(fields.collect());
        // 1 to 30 values per string column: past eight, looked up by hash.
        let pools: Vec<Vec<String>> = (types.iter())
            .map(|_| {
                let k = *rng.choose(&[1, 2, 3, 5, 9, 12, 30]);
                // Values of eight and nine bytes: one word packs the
                // first, not the second; nor one holding a NUL.
                let odd = [
                    "",
                    "\\N",
                    "a|b",
                    "x\\y",
                    "l\nm",
                    "ü",
                    "12345678",
                    "123456789",
                    "a\0b",
                ];
                (0..k)
                    .map(|i| match rng.chance(0.2) {
                        true => rng.choose(&odd).to_string(),
                        false => format!("v{i}"),
                    })
                    .collect()
            })
            .collect();
        let (lines, malformed) = (rng.next_below(60), rng.chance(0.3));
        // Most lines hold an odd cell (the fast path refuses them), or few.
        let odd_in = *rng.choose(&[20, 400]);
        let mut text = rewriter_part_file_with(&mut rng, &schema, &pools, lines, malformed, odd_in);
        if rng.chance(0.3) {
            text.pop();
        }
        let mut spec = TransformSpec {
            recode_columns: (schema.fields().iter())
                .filter(|f| (f.data_type == DataType::Str && rng.chance(0.8)) || rng.chance(0.1))
                .map(|f| f.name.clone())
                .collect(),
            coded_columns: Vec::new(),
        };
        for f in schema.fields() {
            if f.data_type == DataType::Str
                && spec.recode_columns.contains(&f.name)
                && rng.chance(0.5)
            {
                let coding = *rng.choose(&CODINGS);
                spec.coded_columns.push((f.name.clone(), coding));
            }
        }
        // The map holds each pool, now and then short of one value.
        let pairs = (schema.fields().iter().zip(&pools)).flat_map(|(f, pool)| {
            let keep = match rng.chance(0.05) {
                true => pool.len().saturating_sub(1),
                false => pool.len(),
            };
            (pool[..keep].iter()).map(|v| (f.name.clone(), v.clone()))
        });
        let map = RecodeMap::from_pairs(pairs.collect::<Vec<_>>());
        let Ok(applier) = spec
            .bind(&schema)
            .and_then(|b| FlatRecodeApplier::new(&map, &b))
        else {
            continue;
        };
        let want = column_round_trip(&applier, &text, &schema);
        let got = applier.rewrite_text(&text).map_err(|e| e.to_string());
        assert_eq!(got, want, "seed {seed}: {spec:?} over {text:?}");
        // The same text in pieces of whole lines.
        let pieces = line_pieces(&mut rng, &text);
        let in_pieces = applier.rewrite_pieces(&pieces).map_err(|e| e.to_string());
        assert_eq!(in_pieces, want, "seed {seed}: {spec:?} over {pieces:?}");
        rewritten += usize::from(got.is_ok());
        refused += usize::from(got.is_err());
        unseen += usize::from(got.as_ref().is_err_and(|e| e.contains("unseen value")));
        // A dummy block of nine or more indicators is over 16 bytes.
        let long_block = (spec.coded_columns.iter())
            .any(|(c, coding)| *coding == Coding::Dummy && map.cardinality(c) >= 9);
        long_blocks += usize::from(long_block && got.is_ok() && lines > 0);
    }
    assert!(
        rewritten > 100 && refused > 50 && unseen > 10 && long_blocks > 10,
        "{rewritten} rewritten, {refused} refused, {unseen} unseen, {long_blocks} long blocks"
    );
}

#[test]
fn the_line_rewriter_agrees_at_a_hundred_thousand_values() {
    let values: Vec<String> = (0..100_000).map(|i| format!("v{i}")).collect();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::categorical("c"),
        Field::new("x", DataType::Double),
    ]);
    let map = RecodeMap::from_pairs(values.iter().map(|v| ("c".to_string(), v.clone())));
    let mut rng = SplitMix64::new(100_000);
    let pools = [vec![], values, vec![]];
    // Recoded over many rows; coded over a few, each row 100 000 wide.
    for (coding, lines) in [(None, 20_000), (Some(Coding::Dummy), 12)]
        .into_iter()
        .chain([Coding::Effect, Coding::Helmert].map(|c| (Some(c), 6)))
    {
        let spec = TransformSpec {
            recode_columns: vec!["c".into()],
            coded_columns: coding.into_iter().map(|c| ("c".to_string(), c)).collect(),
        };
        let text = rewriter_part_file(&mut rng, &schema, &pools, lines, false);
        let applier = FlatRecodeApplier::new(&map, &spec.bind(&schema).unwrap()).unwrap();
        let want = column_round_trip(&applier, &text, &schema);
        let got = applier.rewrite_text(&text).map_err(|e| e.to_string());
        assert_eq!(
            got.as_ref().map(|(_, rows)| *rows),
            want.as_ref().map(|(_, rows)| *rows)
        );
        assert!(got == want, "{coding:?}: the outputs differ");
    }
}
