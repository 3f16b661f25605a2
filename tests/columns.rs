//! The column partitions against the row forms they replaced.
//!
//! * §2.1's three blockers on the dictionary-driven recode passes: a
//!   value the prep predicates removed gets no id, a value coded
//!   differently in two partitions gets one id, ids come from the global
//!   sorted merge — plus the NULL, unseen-value, all-NULL and empty-
//!   partition edges, transformed and streamed.
//! * The two codecs: a partition's wire layout ships every column at the
//!   width plain arithmetic over its rows predicts (and refuses exactly
//!   the partitions holding a string); its text encoder equals
//!   `encode_text_batch`; its text parser accepts and rejects the lines
//!   `decode_text_batch` does.
//! * `approx_bytes` from column lengths equals the walk over every cell.

use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{codec, Row, SplitMix64, Value};
use sqlml_core::naive::run_external_transform;
use sqlml_core::{ClusterConfig, SimCluster};
use sqlml_dfs::{Dfs, DfsConfig};
use sqlml_sqlengine::{Batch, Column, Engine, EngineConfig, PartitionedTable};
use sqlml_transfer::protocol::numeric_frame;
use sqlml_transform::{InSqlTransformer, RecodeMap, TransformSpec};

fn s(v: &str) -> Value {
    Value::str(v)
}

fn categorical_table(parts: Vec<Vec<Row>>) -> PartitionedTable {
    let schema = Schema::new(vec![
        Field::categorical("g"),
        Field::categorical("c"),
        Field::new("x", DataType::Int),
    ]);
    PartitionedTable::new(schema, parts)
}

/// The dictionary column `col` of partition `p`.
fn dictionary(
    t: &PartitionedTable,
    p: usize,
    col: usize,
) -> &sqlml_sqlengine::column::DictionaryColumn {
    match &**t.partition(p).column(col) {
        Column::Str(d) => d,
        other => panic!("not dictionary-coded: {other:?}"),
    }
}

#[test]
fn a_value_the_prep_predicate_removed_gets_no_recode_id_and_no_indicator() {
    let e = Engine::new(EngineConfig::with_workers(2));
    e.register_table(
        "t",
        categorical_table(vec![
            vec![
                Row::new(vec![s("gone"), s("drop"), Value::Int(1)]),
                Row::new(vec![s("b"), s("keep"), Value::Int(2)]),
                Row::new(vec![s("a"), s("keep"), Value::Int(3)]),
            ],
            vec![
                Row::new(vec![s("a"), s("keep"), Value::Int(4)]),
                Row::new(vec![s("gone"), s("drop"), Value::Int(5)]),
            ],
        ]),
    );
    e.execute("CREATE TABLE prep AS SELECT g, x FROM t WHERE c = 'keep'")
        .unwrap();
    // Blocker 3, as the engine holds it: the filtered column shares the
    // base table's dictionary, which still lists the removed value.
    let prep = e.catalog().table("prep").unwrap();
    let d = dictionary(&prep, 0, 0);
    assert!(d.code_of("gone").is_some());
    assert_eq!(d.referenced_entries().len(), 2);

    let spec = TransformSpec::new(&["g"]);
    let out = InSqlTransformer::new(e.clone())
        .transform("prep", &spec)
        .unwrap();
    assert_eq!(out.recode_map.code("g", "gone"), None);
    assert_eq!(out.recode_map.values_in_code_order("g"), ["a", "b"]);
    assert_eq!(out.table.schema().names(), ["g_a", "g_b", "x"]);

    // The naive baseline never sees the base table: same schema, same map.
    let dfs = Dfs::new(DfsConfig::for_tests());
    prep.save_text(&dfs, "/prep").unwrap();
    let naive = run_external_transform(&dfs, "/prep", prep.schema(), &spec, "/out").unwrap();
    assert_eq!(naive.schema, *out.table.schema());
    assert_eq!(naive.recode_map, out.recode_map);
}

#[test]
fn a_value_coded_differently_in_two_partitions_gets_one_id_in_value_order() {
    let e = Engine::new(EngineConfig::with_workers(2));
    let row = |g: &str, x: i64| Row::new(vec![s(g), s("c"), Value::Int(x)]);
    let table = categorical_table(vec![
        vec![row("M", 1), row("F", 2), row("zeta", 3)],
        vec![row("zeta", 4), row("F", 5), row("M", 6)],
    ]);
    // Blockers 1 and 2: local codes disagree, and are 0-based in
    // first-appearance order.
    assert_eq!(dictionary(&table, 0, 0).code_of("M"), Some(0));
    assert_eq!(dictionary(&table, 1, 0).code_of("M"), Some(2));
    e.register_table("t", table);
    let spec = TransformSpec {
        recode_columns: vec!["g".into()],
        dummy_code_columns: vec![],
    };
    let out = InSqlTransformer::new(e).transform("t", &spec).unwrap();
    let ids: Vec<(i64, i64)> = (out.table.collect_sorted().iter())
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
        .collect();
    // F=1, M=2, zeta=3 in both partitions: (id, x).
    assert_eq!(ids, [(1, 2), (1, 5), (2, 1), (2, 6), (3, 3), (3, 4)]);
}

#[test]
fn null_categoricals_and_unseen_values_behave_as_on_rows() {
    let e = Engine::new(EngineConfig::with_workers(2));
    let row = |g: Value, c: &str| Row::new(vec![g, s(c), Value::Int(0)]);
    e.register_table(
        "t",
        categorical_table(vec![
            vec![row(s("a"), "u"), row(Value::Null, "v")],
            vec![row(s("b"), "u")],
        ]),
    );
    let tr = InSqlTransformer::new(e.clone());
    // NULL → all-zero block under dummy coding, NULL under recoding.
    let dummy = tr.transform("t", &TransformSpec::new(&["g"])).unwrap();
    let rows = dummy.table.collect_sorted();
    assert_eq!(dummy.table.schema().names(), ["g_a", "g_b", "c", "x"]);
    assert_eq!(
        rows[0].values()[..3],
        [Value::Int(0), Value::Int(0), Value::Int(2)]
    );
    let recode = tr.transform("t", &TransformSpec::default()).unwrap();
    assert!(recode.table.collect_sorted()[0].get(0).is_null());

    // A cached map lacking a value some row holds fails as it always has…
    let lacking = RecodeMap::from_pairs(vec![
        ("g".into(), "a".into()),
        ("c".into(), "u".into()),
        ("c".into(), "v".into()),
    ]);
    let err = tr
        .transform_with_map("t", &TransformSpec::default(), &lacking)
        .unwrap_err();
    assert!(
        err.to_string().contains("unseen value \"b\" for g"),
        "{err}"
    );
    // …but a dictionary entry no row references is not "unseen".
    e.execute("CREATE TABLE only_a AS SELECT g, c, x FROM t WHERE x = 0 AND g = 'a'")
        .unwrap();
    let ok = tr.transform_with_map("only_a", &TransformSpec::default(), &lacking);
    assert_eq!(ok.unwrap().table.num_rows(), 1);
}

#[test]
fn an_all_null_column_and_a_zero_row_partition_transform_and_stream() {
    let cluster = SimCluster::start(ClusterConfig::for_tests()).unwrap();
    let engine = &cluster.engine;
    let row = |c: &str, x: i64| Row::new(vec![Value::Null, s(c), Value::Int(x)]);
    engine.register_table(
        "t",
        categorical_table(vec![vec![], vec![row("u", 1), row("v", 0), row("u", 1)]]),
    );
    let out = InSqlTransformer::new(engine.clone())
        .transform("t", &TransformSpec::new(&["c"]))
        .unwrap();
    assert_eq!(out.table.schema().names(), ["g", "c_u", "c_v", "x"]);
    assert!(out.table.collect_rows().iter().all(|r| r.get(0).is_null()));
    assert_eq!(out.table.partition(0).len(), 0);

    engine.register_table("streamed", out.table.clone());
    let cfg = cluster.stream_config();
    cluster.stream.install_udf(engine, &cfg, None);
    let outcome = cluster
        .stream
        .run(engine, "streamed", "nb label=3", &cfg)
        .unwrap();
    assert_eq!(outcome.stats.rows_ingested, 3);
}

// ---------------------------------------------------------------------
// Codecs and the size statistic, on random tables
// ---------------------------------------------------------------------

const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Double,
    DataType::Bool,
    DataType::Str,
];
const WORDS: [&str; 6] = ["Yes", "No", "", "a|b", "back\\slash\nnewline", "ünï"];

fn typed_value(rng: &mut SplitMix64, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.next_u64() as i64 >> rng.next_below(64)),
        DataType::Double => Value::Double(f64::from_bits(rng.next_u64())),
        DataType::Bool => Value::Bool(rng.chance(0.5)),
        DataType::Str => s(rng.choose::<&str>(&WORDS)),
    }
}

/// A random schema and rows of its width: NULLs, every type, and now and
/// then a value of another type than its column's (a `Mixed` column).
fn random_table(rng: &mut SplitMix64) -> (Schema, Vec<Row>) {
    let width = 1 + rng.next_below(5) as usize;
    let types: Vec<DataType> = (0..width).map(|_| *rng.choose(&TYPES)).collect();
    let fields = (types.iter().enumerate()).map(|(i, ty)| Field::new(format!("c{i}"), *ty));
    let misfits = rng.chance(0.2);
    let rows = (0..rng.next_below(60))
        .map(|_| {
            let mut cell = |ty: &DataType| match rng.next_below(12) {
                0 | 1 => Value::Null,
                2 if misfits => {
                    let other = *rng.choose(&TYPES);
                    typed_value(rng, other)
                }
                _ => typed_value(rng, *ty),
            };
            Row::new(types.iter().map(&mut cell).collect())
        })
        .collect();
    (Schema::new(fields.collect()), rows)
}

/// Wire bytes per row of column `c`, from the rows alone: a column whose
/// non-NULL cells share one type ships typed — an integer at the
/// narrowest of 1/2/4/8 bytes holding the column's min..max (0 included:
/// a NULL slot holds it), a double at 8, a bool at 1, plus a validity
/// byte if it has a NULL — and any other column as plain doubles.
/// `declared` types a column that holds no value at all.
fn expected_stride(rows: &[Row], c: usize, declared: DataType) -> usize {
    let cells = || rows.iter().map(move |r| r.get(c));
    let has_null = cells().any(Value::is_null);
    let mut types = cells().filter_map(Value::data_type);
    // All NULL (or no rows): the declared type's vector.
    let ty = types.next().unwrap_or(declared);
    if types.any(|t| t != ty) || ty == DataType::Str {
        // A misfit column, or an all-NULL dictionary column: the zeros
        // and casts it converts to.
        return 8;
    }
    usize::from(has_null)
        + match ty {
            DataType::Int => {
                let ints = || cells().filter_map(|v| v.as_i64().ok()).chain([0]);
                let (lo, hi) = (ints().min().unwrap(), ints().max().unwrap());
                [1, 2, 4]
                    .into_iter()
                    .find(|w| lo >= -(1i64 << (8 * w - 1)) && hi < 1i64 << (8 * w - 1))
                    .unwrap_or(8)
            }
            DataType::Bool => 1,
            _ => 8,
        }
}

/// The layout step on random tables (strings, NULLs, misfit columns and
/// all): a partition has a wire layout exactly when none of its cells is
/// a string, the refusal names the first string of the first such
/// column, and a layout ships every column at `expected_stride` — so a
/// frame is its header plus rows × the sum of those, cut wherever.
#[test]
fn a_partition_ships_each_column_at_the_narrowest_width_its_rows_allow() {
    let (mut numeric, mut refused) = (0, 0);
    for seed in 0..600u64 {
        let mut rng = SplitMix64::new(0xF4A_0000 + seed);
        let (schema, rows) = random_table(&mut rng);
        let batch = Batch::from_rows(&schema, &rows);
        assert_eq!(batch.rows(), rows, "seed {seed}: cursor");
        let layout: Result<Vec<_>, _> = batch.columns().iter().map(|c| c.numeric()).collect();
        let is_str = |v: &Value| matches!(v, Value::Str(_));
        let first_string =
            (0..schema.len()).find_map(|c| Some((c, rows.iter().position(|r| is_str(r.get(c)))?)));
        let columns = match (layout, first_string) {
            (Ok(columns), None) => columns,
            (Err(e), Some((_, row))) => {
                assert!(e.to_string().contains(&format!("row {row} ")), "{e}");
                assert_eq!(
                    batch.columns().iter().find_map(|c| c.first_string()),
                    Some(row)
                );
                refused += 1;
                continue;
            }
            (layout, expect) => panic!("seed {seed}: {layout:?}, first string at {expect:?}"),
        };
        numeric += 1;
        for (c, col) in columns.iter().enumerate() {
            let expect = expected_stride(&rows, c, schema.fields()[c].data_type);
            assert_eq!(col.stride(), expect, "seed {seed} column {c}: {rows:?}");
        }
        let stride: usize = columns.iter().map(|c| c.stride()).sum();
        let cut = rng.next_below(rows.len() as u64 + 1) as usize;
        for range in [0..cut, cut..rows.len()] {
            let frame = numeric_frame(&columns, range.clone()).unwrap();
            assert_eq!(frame.len(), 5 + 8 + columns.len() + range.len() * stride);
        }
    }
    assert!(
        numeric > 150 && refused > 150,
        "{numeric} numeric, {refused} refused"
    );
}

#[test]
fn the_column_text_codec_equals_the_row_text_codec() {
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(0x7E7_0000 + seed);
        let (schema, rows) = random_table(&mut rng);
        let text = Batch::from_rows(&schema, &rows).encode_text();
        assert_eq!(text, codec::encode_text_batch(&rows), "seed {seed}");

        // The intact blob, then the blob with one line damaged: a field
        // dropped, a field added, a bad literal, a bad escape, a NULL
        // marker, an empty field.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for damage in 0..7 {
            if damage > 0 && !lines.is_empty() {
                let at = rng.next_below(lines.len() as u64) as usize;
                let mut fields: Vec<&str> = lines[at].split('|').collect();
                let f = rng.next_below(fields.len() as u64) as usize;
                match damage {
                    1 => drop(fields.remove(f)),
                    2 => fields.push("extra"),
                    3 => fields[f] = "12x",
                    4 => fields[f] = "\\q",
                    5 => fields[f] = "\\N",
                    _ => fields[f] = "",
                }
                lines[at] = fields.join("|");
            }
            let blob = lines.join("\n");
            let by_row = codec::decode_text_batch(&blob, &schema).map_err(|e| e.to_string());
            let by_column = Batch::decode_text(&blob, &schema).map_err(|e| e.to_string());
            assert_eq!(
                by_column.map(|b| b.rows()),
                by_row,
                "seed {seed} damage {damage}: {blob:?}"
            );
        }
    }
}

#[test]
fn approx_bytes_from_columns_equals_the_walk_over_every_cell() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(0xB17E5 + seed);
        let (schema, rows) = random_table(&mut rng);
        let parts = 1 + rng.next_below(4) as usize;
        let table = PartitionedTable::partition_rows(schema, &rows, parts, &[]);
        // The statistic as the row engine computed it.
        let walk = |t: &PartitionedTable| -> u64 {
            (t.collect_rows().iter().flat_map(|r| r.values()))
                .map(|v| match v {
                    Value::Str(s) => s.len() as u64 + 1,
                    _ => 8,
                })
                .sum()
        };
        assert_eq!(table.approx_bytes(), walk(&table), "seed {seed}");
        // A filter shares dictionaries; the statistic follows the rows.
        let e = Engine::new(EngineConfig::with_workers(2));
        e.register_table("t", table);
        let kept = e.query("SELECT * FROM t WHERE c0 IS NOT NULL").unwrap();
        assert_eq!(kept.approx_bytes(), walk(&kept), "seed {seed} filtered");
    }
}
