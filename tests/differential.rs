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
//! * `QueryRewriter::rewrite_and_run` executes the §2.1 script — one
//!   recode join per column, one `dummy_code` statement per dummy column
//!   — which is the oracle for `InSqlTransformer::transform`, as is the
//!   naive baseline's `run_external_transform`.
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
use sqlml_common::{codec, Row, SplitMix64, Value};
use sqlml_core::naive::run_external_transform;
use sqlml_core::workload::{Workload, WorkloadScale, PREP_QUERY};
use sqlml_dfs::{Dfs, DfsConfig};
use sqlml_rewriter::QueryRewriter;
use sqlml_sqlengine::ast::JoinKind;
use sqlml_sqlengine::executor::execute;
use sqlml_sqlengine::expr::Expr;
use sqlml_sqlengine::plan::{BuildSide, Plan};
use sqlml_sqlengine::planner::plan_select;
use sqlml_sqlengine::{Batch, Engine, EngineConfig, PartitionedTable};
use sqlml_transform::{
    register_udfs, FlatRecodeApplier, InSqlTransformer, RecodeMap, TransformSpec,
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

/// Reference application: one row, cell by cell, through
/// `RecodeMap::code`.
fn reference_apply(row: &Row, schema: &Schema, spec: &TransformSpec, map: &RecodeMap) -> Row {
    let recode_columns = spec.effective_recode_columns(schema);
    let mut values = Vec::new();
    for (i, f) in schema.fields().iter().enumerate() {
        let is_recoded = recode_columns
            .iter()
            .any(|c| c.eq_ignore_ascii_case(&f.name));
        let is_dummy = spec
            .dummy_code_columns
            .iter()
            .any(|c| c.eq_ignore_ascii_case(&f.name));
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
        let applier = FlatRecodeApplier::new(&map, &schema, &spec).unwrap();
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
    let applier = FlatRecodeApplier::new(&map, &schema, &TransformSpec::default()).unwrap();
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
/// partitions empty.
fn random_categorical_table(rng: &mut SplitMix64) -> (PartitionedTable, Vec<String>) {
    const CAT_NAMES: [&str; 4] = ["Gender", "cartState", "REGION", "lastChannel_2"];
    const VOCAB: [&str; 8] = ["F", "M", "it's", "not known", "a'b'c", "x/y", "Web", "web"];
    let num_cats = rng.range_i64(2, 4) as usize;
    let mut fields = vec![Field::new("Id", DataType::Int)];
    let mut cats = Vec::new();
    for name in &CAT_NAMES[..num_cats] {
        fields.push(Field::categorical(*name));
        cats.push(name.to_string());
        if rng.chance(0.5) {
            fields.push(Field::new(format!("n{}", fields.len()), DataType::Double));
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

#[test]
fn insql_transform_matches_join_script_and_external_transform_on_random_tables() {
    let mut rng = SplitMix64::new(0x1d5_0c0de);
    for trial in 0..25 {
        let (table, cats) = random_categorical_table(&mut rng);
        let schema = table.schema().clone();
        // Recode every categorical column, or an explicit subset of at
        // least one; dummy-code a random subset of the recoded ones.
        let recode: Vec<String> = if rng.chance(0.5) {
            Vec::new()
        } else {
            let keep = rng.range_i64(1, cats.len() as i64) as usize;
            cats[..keep].to_vec()
        };
        let recoded = if recode.is_empty() { &cats } else { &recode };
        let spec = TransformSpec {
            recode_columns: recode.clone(),
            dummy_code_columns: recoded
                .iter()
                .filter(|_| rng.chance(0.5))
                .cloned()
                .collect(),
        };
        let what = format!("trial {trial}: {spec:?} over {:?}", schema.names());

        let engine = Engine::new(EngineConfig::with_workers(3));
        engine.register_table("src", table.clone());
        let insql = InSqlTransformer::new(engine.clone())
            .transform("src", &spec)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let insql_rows = insql.table.collect_sorted();
        assert_eq!(insql_rows.len(), table.num_rows(), "{what}");

        // The join-based script. Its statically generated dummy_code
        // statements name indicator columns by code, not by value.
        let (oracle, _) = QueryRewriter::new(engine.clone())
            .rewrite_and_run("SELECT * FROM src", &spec, None)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(oracle.collect_sorted(), insql_rows, "{what}");
        assert_eq!(oracle.schema().len(), insql.table.schema().len(), "{what}");
        for (o, i) in oracle
            .schema()
            .fields()
            .iter()
            .zip(insql.table.schema().fields())
        {
            assert_eq!(o.data_type, i.data_type, "{what}");
            let is_indicator = spec
                .dummy_code_columns
                .iter()
                .any(|d| i.name.starts_with(&format!("{d}_")));
            assert!(is_indicator || o.name == i.name, "{what}: {o:?} vs {i:?}");
        }

        // The naive baseline's external job over the same rows on a DFS.
        let dfs = Dfs::new(DfsConfig::for_tests());
        table.save_text(&dfs, "/in").unwrap();
        let external = run_external_transform(&dfs, "/in", &schema, &spec, "/out")
            .unwrap_or_else(|e| panic!("{what}: {e}"));
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

    /// Dummy-code each projected categorical column with probability
    /// `p_dummy`, or — when `like` is given — the way `like` codes it,
    /// flipped with probability 0.15.
    fn draw_spec(&mut self, rng: &mut SplitMix64, like: Option<&TransformSpec>) {
        let mut dummy = Vec::new();
        for &i in &self.projection {
            let c = &REUSE_COLUMNS[i];
            if !c.categorical {
                continue;
            }
            let coded = match like {
                Some(spec) => {
                    spec.dummy_code_columns.iter().any(|d| d == c.name) != rng.chance(0.15)
                }
                None => rng.chance(0.4),
            };
            if coded {
                dummy.push(c.name);
            }
        }
        self.spec = TransformSpec::new(&dummy);
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

/// Undo a transformation: map every recoded integer and every indicator
/// block of `transformed` back to the categorical value it stands for
/// under `map`, giving rows comparable with the untransformed query
/// result. Codes and indicator-block widths legitimately differ between
/// a reused map (built over the cached query's superset) and a cold one
/// (built over the new query's rows), so equality is asserted on what
/// the numbers *mean*.
fn decode_transformed(
    transformed: &PartitionedTable,
    input: &Schema,
    spec: &TransformSpec,
    map: &RecodeMap,
) -> Vec<Row> {
    let mut rows: Vec<Row> = transformed
        .collect_rows()
        .iter()
        .map(|r| {
            let mut at = 0;
            let mut out = Vec::with_capacity(input.len());
            for f in input.fields() {
                if !f.categorical {
                    out.push(r.get(at).clone());
                    at += 1;
                    continue;
                }
                let values = map.values_in_code_order(&f.name);
                let named = |code: i64| Value::str(values[code as usize - 1].as_str());
                if spec.dummy_code_columns.contains(&f.name) {
                    let block = &r.values()[at..at + values.len()];
                    let hot: Vec<usize> = (0..block.len())
                        .filter(|&j| block[j] == Value::Int(1))
                        .collect();
                    assert_eq!(hot.len(), 1, "indicator block {block:?} is not one-hot");
                    out.push(named(hot[0] as i64 + 1));
                    at += values.len();
                } else {
                    out.push(named(r.get(at).as_i64().unwrap()));
                    at += 1;
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
            "pair seed {seed}\n  cached: {cached_sql}\n          dummy {:?}\n  new:    {new_sql}\n          dummy {:?}",
            cached.spec.dummy_code_columns, new.spec.dummy_code_columns
        );

        // Prime a fresh cache with the cached side. A cached query whose
        // predicates leave a dummy-coded column without values cannot be
        // transformed at all; such a draw has nothing to reuse.
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
        } else {
            // Only an emptied dummy-coded column makes the cold transform
            // refuse; whatever is reused must then be empty too.
            assert!(raw.is_empty(), "cold transform failed on rows\n{context}");
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
                let warm = tr
                    .transform_with_map("reuse_new", &new.spec, &map)
                    .unwrap_or_else(|err| panic!("reused map unusable: {err}\n{context}"));
                let decoded = decode_transformed(&warm.table, prepped.schema(), &new.spec, &map);
                assert_eq!(decoded, raw, "map reuse differs from cold\n{context}");
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
