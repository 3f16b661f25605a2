//! The warehouse `SimCluster::load_workload` builds, checked against a
//! reference built the plain way from `Workload::generate`'s rows.
//!
//! The reference deals the rows round-robin (row `i` into partition
//! `i % n`) with `Batch::from_rows`, writes them with `save_text`, reads
//! the part-files back with `load_text`, and then concatenates and
//! re-deals the loaded partitions with this file's own code. Every
//! `/warehouse/*` part-file must be byte-identical to the reference's,
//! and every engine partition equal to the reference's, row for row,
//! dictionary entries and codes included.
//!
//! The debug build checks seeds {1, 7, 42} at three small scales and
//! 1–4 SQL workers; the release build adds seeds 100–109 at 400 000
//! carts, the benchmark's scale.

use sqlml_common::{Row, Schema, Value};
use sqlml_core::workload::{Workload, WorkloadScale};
use sqlml_core::{ClusterConfig, SimCluster};
use sqlml_dfs::Dfs;
use sqlml_sqlengine::column::{Batch, Column};
use sqlml_sqlengine::PartitionedTable;

/// One column as plain vectors, so the reference's concatenation and
/// gather are this file's own. Doubles compare by bits.
#[derive(Debug, PartialEq)]
enum Plain {
    Int(Vec<i64>, Option<Vec<bool>>),
    Double(Vec<u64>, Option<Vec<bool>>),
    Bool(Vec<bool>, Option<Vec<bool>>),
    /// Codes and the dictionary they index.
    Str(Vec<u32>, Vec<String>),
    Mixed(Vec<Value>),
}

fn plain(col: &Column) -> Plain {
    let valid = |v: Option<&[bool]>| v.map(<[bool]>::to_vec);
    match col {
        Column::Int(p) => Plain::Int(p.values().to_vec(), valid(p.validity())),
        Column::Double(p) => Plain::Double(
            p.values().iter().map(|d| d.to_bits()).collect(),
            valid(p.validity()),
        ),
        Column::Bool(p) => Plain::Bool(p.values().to_vec(), valid(p.validity())),
        Column::Str(d) => Plain::Str(
            d.codes().to_vec(),
            d.entries().iter().map(|s| s.to_string()).collect(),
        ),
        Column::Mixed(v) => Plain::Mixed(v.clone()),
    }
}

/// Typed values plus validity, appended the way a column concatenation
/// appends them: validity exists once any part has it.
fn append<T: Clone>(
    (values, valid): &mut (Vec<T>, Option<Vec<bool>>),
    more: &[T],
    more_valid: &Option<Vec<bool>>,
) {
    if let (None, Some(_)) = (&valid, more_valid) {
        *valid = Some(vec![true; values.len()]);
    }
    if let Some(v) = valid {
        match more_valid {
            Some(m) => v.extend_from_slice(m),
            None => v.resize(v.len() + more.len(), true),
        }
    }
    values.extend_from_slice(more);
}

/// The parts as one column: typed vectors extend, dictionaries merge
/// by value in part order and the codes are remapped.
fn concat(parts: Vec<Plain>) -> Plain {
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("a loaded table has a part-file");
    for part in parts {
        out = match (out, part) {
            (Plain::Int(a, av), Plain::Int(b, bv)) => {
                let mut acc = (a, av);
                append(&mut acc, &b, &bv);
                Plain::Int(acc.0, acc.1)
            }
            (Plain::Double(a, av), Plain::Double(b, bv)) => {
                let mut acc = (a, av);
                append(&mut acc, &b, &bv);
                Plain::Double(acc.0, acc.1)
            }
            (Plain::Bool(a, av), Plain::Bool(b, bv)) => {
                let mut acc = (a, av);
                append(&mut acc, &b, &bv);
                Plain::Bool(acc.0, acc.1)
            }
            (Plain::Str(mut codes, mut dict), Plain::Str(b, bdict)) => {
                let remap: Vec<u32> = (bdict.iter())
                    .map(|s| match dict.iter().position(|e| e == s) {
                        Some(at) => at as u32,
                        None => {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        }
                    })
                    .collect();
                // NULL's reserved code indexes no entry and stays NULL.
                codes.extend(
                    b.iter()
                        .map(|&c| remap.get(c as usize).copied().unwrap_or(c)),
                );
                Plain::Str(codes, dict)
            }
            (a, b) => {
                panic!("a warehouse column changed variant between part-files: {a:?} / {b:?}")
            }
        };
    }
    out
}

/// Rows `p, p + n, …` of `col`; a string column keeps its whole
/// dictionary.
fn gather(col: &Plain, p: usize, n: usize) -> Plain {
    fn every<T: Clone>(v: &[T], p: usize, n: usize) -> Vec<T> {
        v.iter().skip(p).step_by(n).cloned().collect()
    }
    let valid = |v: &Option<Vec<bool>>| v.as_ref().map(|v| every(v, p, n));
    match col {
        Plain::Int(v, ok) => Plain::Int(every(v, p, n), valid(ok)),
        Plain::Double(v, ok) => Plain::Double(every(v, p, n), valid(ok)),
        Plain::Bool(v, ok) => Plain::Bool(every(v, p, n), valid(ok)),
        Plain::Str(codes, dict) => Plain::Str(every(codes, p, n), dict.clone()),
        Plain::Mixed(v) => Plain::Mixed(every(v, p, n)),
    }
}

fn check(scale: WorkloadScale, seed: u64, workers: usize) {
    let config = ClusterConfig {
        sql_workers: workers,
        ..ClusterConfig::for_tests()
    };
    let cluster = SimCluster::start(config.clone()).unwrap();
    cluster.load_workload(scale, seed).unwrap();
    let case = format!("{scale:?}, seed {seed}, {workers} SQL workers");

    let w = Workload::generate(scale, seed);
    let reference = Dfs::new(config.dfs.clone());
    let tables: [(&str, &Schema, &[Row]); 2] = [
        ("carts", &w.carts_schema, &w.carts),
        ("users", &w.users_schema, &w.users),
    ];
    for (name, schema, rows) in tables {
        let dir = format!("/warehouse/{name}");
        let dealt: Vec<Batch> = (0..workers)
            .map(|p| {
                let rows: Vec<Row> = rows.iter().skip(p).step_by(workers).cloned().collect();
                Batch::from_rows(schema, &rows)
            })
            .collect();
        let homes = (0..workers).map(sqlml_dfs::node_name).collect();
        PartitionedTable::from_batches(schema.clone(), dealt, homes)
            .save_text(&reference, &dir)
            .unwrap();

        let files = cluster.dfs.list(&format!("{dir}/"));
        let expected = reference.list(&format!("{dir}/"));
        let paths = |fs: &[sqlml_dfs::FileStatus]| -> Vec<String> {
            fs.iter().map(|f| f.path.clone()).collect()
        };
        assert_eq!(paths(&files), paths(&expected), "{case}: {name} part-files");
        for f in &files {
            assert!(
                cluster.dfs.read_string(&f.path).unwrap()
                    == reference.read_string(&f.path).unwrap(),
                "{case}: {} differs from the reference",
                f.path
            );
        }

        let loaded = PartitionedTable::load_text(&reference, &dir, schema.clone()).unwrap();
        let all: Vec<Plain> = (0..schema.len())
            .map(|c| {
                concat(
                    loaded
                        .partitions()
                        .iter()
                        .map(|p| plain(p.column(c)))
                        .collect(),
                )
            })
            .collect();
        let table = cluster.engine.catalog().table(name).unwrap();
        assert_eq!(table.num_partitions(), workers, "{case}: {name}");
        let nodes = &cluster.nodes;
        for p in 0..workers {
            assert_eq!(
                table.home(p),
                nodes[p % nodes.len()],
                "{case}: {name} home {p}"
            );
            let part = table.partition(p);
            assert_eq!(part.width(), schema.len(), "{case}: {name} partition {p}");
            for (c, col) in all.iter().enumerate() {
                assert!(
                    plain(part.column(c)) == gather(col, p, workers),
                    "{case}: {name} partition {p} column {c} differs from the reference"
                );
            }
        }
    }
}

#[test]
fn the_warehouse_equals_the_row_built_reference() {
    let small = [
        WorkloadScale::TINY,
        WorkloadScale {
            carts: 2_001,
            users: 37,
        },
        WorkloadScale::with_carts(40_000),
    ];
    for seed in [1, 7, 42] {
        for scale in small {
            for workers in 1..=4 {
                check(scale, seed, workers);
            }
        }
    }
    // The benchmark's scale and seeds, in the optimised build only.
    let large = if cfg!(debug_assertions) {
        0..0
    } else {
        100..110
    };
    for seed in large {
        for workers in [3, 4] {
            check(WorkloadScale::with_carts(400_000), seed, workers);
        }
    }
}
