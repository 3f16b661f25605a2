//! **A7 — dictionary codes are not recode maps (§2.1's discussion).**
//!
//! §2.1 considers reusing the column store's dictionary-compression
//! integers as the recoded values and rejects it for three reasons. This
//! ablation reproduces all three on the paper's own workload and on the
//! engine's own string column (`sqlengine::column::DictionaryColumn` —
//! the warehouse *is* dictionary-coded), while also confirming the
//! *legitimate* benefit (compression) that makes the idea tempting in
//! the first place.
//!
//! Run: `cargo run --release -p sqlml-bench --bin ablation_dictionary`

use std::collections::{BTreeSet, HashMap};

use sqlml_bench::{check_shape, BenchParams};
use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, SimCluster};
use sqlml_sqlengine::column::{Column, DictionaryColumn};
use sqlml_sqlengine::PartitionedTable;
use sqlml_transform::{InSqlTransformer, RecodeMap};

/// §2.1's objection 1, as a predicate: do any two partitions assign
/// different codes to the same value?
fn local_codes_conflict(dicts: &[&DictionaryColumn]) -> bool {
    let mut global: HashMap<&str, usize> = HashMap::new();
    dicts.iter().any(|d| {
        let mut entries = d.entries().iter().enumerate();
        entries.any(|(code, value)| *global.entry(value).or_insert(code) != code)
    })
}

fn main() {
    let params = BenchParams::from_args();
    let cluster = SimCluster::start(ClusterConfig::default()).expect("cluster");
    cluster
        .load_workload(params.scale, params.seed)
        .expect("workload");
    let engine = &cluster.engine;

    // The warehouse as its part files load: one partition, and so one
    // local dictionary, per file (the Parquet/ORC situation). The
    // engine's own copy went through `repartition`, whose concat merges
    // the dictionaries — an accident of that loader no code relies on.
    let schema = sqlml_core::workload::users_schema();
    let users = PartitionedTable::load_text(&cluster.dfs, "/warehouse/users", schema)
        .expect("users part files");
    let country_col = users.schema().index_of("country").expect("country");

    // The tempting part: dictionary compression genuinely shrinks the
    // column.
    let dicts: Vec<&DictionaryColumn> = (users.partitions().iter())
        .map(|p| match &**p.column(country_col) {
            Column::Str(d) => d,
            other => panic!("country is not dictionary-coded: {other:?}"),
        })
        .collect();
    // Dictionary payload + 4 bytes/code, against payload + length prefix
    // per row.
    let entry_bytes =
        |d: &DictionaryColumn| -> usize { d.entries().iter().map(|s| s.len() + 4).sum() };
    let compressed: usize = dicts.iter().map(|d| entry_bytes(d) + d.len() * 4).sum();
    let raw: usize = (dicts.iter())
        .flat_map(|d| (0..d.len()).map(|i| d.value(i).map_or(4, |s| s.len() + 4)))
        .sum();
    println!(
        "country column: raw {raw}B, dictionary-encoded {compressed}B ({:.1}x smaller)\n",
        raw as f64 / compressed as f64
    );

    // Objection 1: local dictionaries disagree across partitions.
    let conflict = local_codes_conflict(&dicts);
    println!("per-partition code assignments:");
    for (p, d) in dicts.iter().enumerate().take(4) {
        let entries: Vec<String> = d
            .entries()
            .iter()
            .enumerate()
            .map(|(c, v)| format!("{v}={c}"))
            .collect();
        println!("  partition {p}: {}", entries.join("  "));
    }

    // Objection 2: codes are 0-based first-seen, not 1-based sorted.
    let zero_based = dicts
        .iter()
        .any(|d| d.cardinality() > 0 && d.code_of(&d.entries()[0].clone()) == Some(0));

    // Objection 3: the preparation query filters (country = 'USA'), so
    // the base-table dictionary over-counts the values that survive.
    let transformer = InSqlTransformer::new(engine.clone());
    engine
        .execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))
        .expect("prep");
    let map = transformer
        .build_recode_map("prep", &["gender".to_string(), "abandoned".to_string()])
        .expect("map");
    // Dictionary cardinality of `country` on the base table vs the
    // filtered result (where only 'USA' remains) — and on the filtered
    // column itself, which shares the base table's dictionary: its
    // entries over-count, its *referenced* entries are the filtered data.
    let base_country_values: BTreeSet<String> = dicts
        .iter()
        .flat_map(|d| d.entries().iter().map(|s| s.to_string()))
        .collect();
    let filtered = engine
        .query("SELECT country FROM users WHERE country = 'USA'")
        .expect("filtered");
    let (in_dictionary, referenced) = (filtered.partitions().iter())
        .map(|p| match &**p.column(0) {
            Column::Str(d) => (d.cardinality(), d.referenced_entries().len()),
            other => panic!("country is not dictionary-coded: {other:?}"),
        })
        .fold((0, 0), |a, b| (a.0.max(b.0), a.1.max(b.1)));
    println!(
        "\nbase-table country cardinality: {} — the filtered column's dictionary \
         lists {in_dictionary}, its rows reference {referenced}",
        base_country_values.len()
    );
    println!(
        "recode map (filtered data): gender K={}, abandoned K={}",
        map.cardinality("gender"),
        map.cardinality("abandoned")
    );

    let ok = check_shape(
        "dictionary encoding compresses the categorical column (the temptation)",
        compressed < raw,
    ) & check_shape(
        "objection 1: local partition dictionaries assign conflicting codes",
        conflict,
    ) & check_shape(
        "objection 2: dictionary codes are 0-based, violating the consecutive-from-1 requirement",
        zero_based,
    ) & check_shape(
        "objection 3: the base-table dictionary over-counts the filtered result's values",
        in_dictionary > referenced && referenced == 1,
    ) & check_shape(
        "the two-phase recode map satisfies the 1..=K invariant where the dictionary cannot",
        RecodeMap::from_rows(&map.to_rows()).is_ok_and(|m| m == map),
    );
    std::process::exit(if ok { 0 } else { 1 });
}
