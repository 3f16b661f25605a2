//! Partitioned table storage.
//!
//! A [`PartitionedTable`] is the engine's unit of data: a schema plus a
//! set of horizontal partitions, each with a *home node* recording where
//! in the simulated cluster the partition lives. Query results are
//! themselves partitioned tables, so UDFs, the transfer layer, and the
//! cache all operate on the same representation. A partition is a column
//! [`Batch`]; [`Row`]s exist only at the edges (`new`, `collect_rows`).

use std::sync::Arc;

use sqlml_common::schema::DataType;
use sqlml_common::{Result, Row, Schema, SqlmlError};
use sqlml_dfs::Dfs;

use crate::column::{dealt_len, Batch, BatchBuilder, Column};
use crate::executor::run_on_workers;
use crate::text::decode_pieces;

/// A horizontally partitioned table. Partitions are immutable and their
/// columns shared (`Arc`), so projecting/caching/transferring never
/// copies data needlessly and dropping a table frees one allocation per
/// column, not one per row.
#[derive(Debug, Clone)]
pub struct PartitionedTable {
    schema: Schema,
    partitions: Vec<Batch>,
    /// Home node name per partition (same length as `partitions`).
    homes: Vec<String>,
}

impl PartitionedTable {
    /// Build from pre-formed partitions, partition `i` homed on
    /// `node-i`.
    pub fn new(schema: Schema, partitions: Vec<Vec<Row>>) -> Self {
        let homes = (0..partitions.len()).map(sqlml_dfs::node_name).collect();
        let partitions = (partitions.iter())
            .map(|rows| Batch::from_rows(&schema, rows))
            .collect();
        PartitionedTable {
            schema,
            partitions,
            homes,
        }
    }

    /// Build from column batches (shared, no copy).
    pub fn from_batches(schema: Schema, partitions: Vec<Batch>, homes: Vec<String>) -> Self {
        assert_eq!(partitions.len(), homes.len());
        PartitionedTable {
            schema,
            partitions,
            homes,
        }
    }

    /// Round-robin partition `rows` into `num_partitions` partitions with
    /// home nodes cycling over `nodes`.
    pub fn partition_rows(
        schema: Schema,
        rows: &[Row],
        num_partitions: usize,
        nodes: &[String],
    ) -> Self {
        assert!(num_partitions > 0);
        let mut parts: Vec<BatchBuilder> = (0..num_partitions)
            .map(|_| BatchBuilder::new(&schema, rows.len() / num_partitions + 1))
            .collect();
        for (i, row) in rows.iter().enumerate() {
            parts[i % num_partitions].push_row(row);
        }
        PartitionedTable {
            schema,
            partitions: parts.into_iter().map(BatchBuilder::finish).collect(),
            homes: cycled_homes(num_partitions, nodes),
        }
    }

    /// A single-partition table (useful for small dimension data).
    pub fn single(schema: Schema, rows: Vec<Row>) -> Self {
        PartitionedTable::new(schema, vec![rows])
    }

    /// A single-partition table of one column batch (shared, no copy),
    /// homed as [`Self::single`]'s.
    pub fn from_batch(schema: Schema, batch: Batch) -> Self {
        PartitionedTable::from_batches(schema, vec![batch], vec![sqlml_dfs::node_name(0)])
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn partition(&self, i: usize) -> &Batch {
        &self.partitions[i]
    }

    pub fn partitions(&self) -> &[Batch] {
        &self.partitions
    }

    pub fn home(&self, i: usize) -> &str {
        &self.homes[i]
    }

    pub fn homes(&self) -> &[String] {
        &self.homes
    }

    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(Batch::len).sum()
    }

    /// Total payload size in bytes under the text encoding (`len + 1` per
    /// string cell, 8 per other cell) — the engine's coarse cost
    /// statistic for join-side and transfer planning. Computed per
    /// column, without materializing a cell.
    pub fn approx_bytes(&self) -> u64 {
        let columns = self.partitions.iter().flat_map(|p| p.columns());
        columns.map(|c| c.approx_bytes()).sum()
    }

    /// The relational→matrix boundary, checked by both transfers before
    /// a byte of table `name` moves: a `Str` column, or a string cell in a
    /// column whose cells can disagree with its declared type
    /// ([`crate::Column::first_string`]), is a `Type` error naming the
    /// column, and the cell's row and partition. Past it every partition
    /// has its [`Batch::numeric_columns`], and a frame a reader cannot
    /// decode is the wire's fault, never the data's.
    pub fn check_numeric(&self, name: &str) -> Result<()> {
        let refuse = |column: &str, what: String| {
            Err(SqlmlError::Type(format!(
                "cannot hand table {name} to an ML job: column {column} {what}; \
                 recode it to a number first"
            )))
        };
        let fields = self.schema.fields();
        if let Some(f) = fields.iter().find(|f| f.data_type == DataType::Str) {
            return refuse(&f.name, "is a string".into());
        }
        for (p, part) in self.partitions.iter().enumerate() {
            for (c, col) in part.columns().iter().enumerate() {
                if let Some(row) = col.first_string() {
                    let column = fields.get(c).map_or("?", |f| f.name.as_str());
                    let cell = col.value(row);
                    return refuse(
                        column,
                        format!("holds the string {cell} at row {row} of partition {p}"),
                    );
                }
            }
        }
        Ok(())
    }

    /// Gather all rows into one vector (partition order, then row order).
    pub fn collect_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.num_rows());
        for p in &self.partitions {
            out.extend((0..p.len()).map(|i| p.row(i)));
        }
        out
    }

    /// Gather and sort — stable comparison output for tests.
    pub fn collect_sorted(&self) -> Vec<Row> {
        let mut rows = self.collect_rows();
        rows.sort();
        rows
    }

    /// Write the table to the DFS as one text file per partition under
    /// `dir` (`dir/part-00000`, ...), mirroring Hadoop job output layout.
    /// Partitions are written **in parallel** — each SQL worker writes
    /// its own partition, as an MPP engine's export does. Returns total
    /// bytes written.
    pub fn save_text(&self, dfs: &Dfs, dir: &str) -> Result<u64> {
        let n = self.partitions.len();
        let totals = run_on_workers(n, n, |i| {
            let text = self.partitions[i].encode_text();
            dfs.write_string(&format!("{dir}/part-{i:05}"), &text)?;
            Ok(text.len() as u64)
        })?;
        Ok(totals.iter().sum())
    }

    /// Load a table previously written by [`Self::save_text`] (or any
    /// directory of text part-files) with one partition per part-file,
    /// in file order. The part-files are parsed **in parallel**, one
    /// thread per file, as they were written; each file's blocks are
    /// read where the DFS holds them, only a line that straddles two
    /// blocks copied.
    pub fn load_text(dfs: &Dfs, dir: &str, schema: Schema) -> Result<Self> {
        let prefix = format!("{dir}/");
        let files = dfs.list(&prefix);
        if files.is_empty() {
            return Err(SqlmlError::Dfs(format!("no part files under {dir}")));
        }
        let loaded = run_on_workers(files.len(), files.len(), |i| {
            let f = &files[i];
            let part = dfs.read_text(&f.path, None, |pieces| decode_pieces(pieces, &schema))?;
            // Home = node holding the file's first block replica.
            let home = dfs
                .block_locations(&f.path)?
                .first()
                .and_then(|b| b.nodes.first().copied())
                .map(sqlml_dfs::node_name)
                .unwrap_or_else(|| sqlml_dfs::node_name(0));
            Ok((part, home))
        })?;
        let (partitions, homes) = loaded.into_iter().unzip();
        Ok(PartitionedTable {
            schema,
            partitions,
            homes,
        })
    }

    /// Re-partition into `n` partitions (round-robin over the rows in
    /// partition order), e.g. to match the engine's worker count after
    /// loading a file with a different layout. Each column is dealt
    /// straight from the source partitions (`Column::deal`) into what
    /// concatenating them and gathering every `n`-th row would give,
    /// without building the concatenation; a string column's dealt
    /// partitions share one merged dictionary.
    pub fn repartition(&self, n: usize, nodes: &[String]) -> Result<Self> {
        assert!(n > 0);
        let total = self.num_rows();
        let mut columns: Vec<Vec<Arc<Column>>> = (0..n).map(|_| Vec::new()).collect();
        for c in 0..self.schema.len() {
            let parts: Vec<&Column> = self.partitions.iter().map(|p| &**p.column(c)).collect();
            for (out, col) in columns.iter_mut().zip(Column::deal(&parts, n)?) {
                out.push(Arc::new(col));
            }
        }
        let partitions = (columns.into_iter().enumerate())
            .map(|(p, columns)| Batch::new(columns, dealt_len(total, n, p)))
            .collect();
        Ok(PartitionedTable {
            schema: self.schema.clone(),
            partitions,
            homes: cycled_homes(n, nodes),
        })
    }
}

fn cycled_homes(n: usize, nodes: &[String]) -> Vec<String> {
    (0..n)
        .map(|i| match nodes.len() {
            0 => sqlml_dfs::node_name(i),
            len => nodes[i % len].clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::schema::{DataType, Field};
    use sqlml_common::{row, Value};
    use sqlml_dfs::DfsConfig;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::categorical("tag"),
        ])
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| row![i as i64, if i % 2 == 0 { "even" } else { "odd" }])
            .collect()
    }

    #[test]
    fn round_robin_partitioning_balances() {
        let t = PartitionedTable::partition_rows(schema(), &rows(10), 4, &[]);
        assert_eq!(t.num_partitions(), 4);
        assert_eq!(t.num_rows(), 10);
        let sizes: Vec<usize> = t.partitions().iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn homes_cycle_over_nodes() {
        let nodes = vec!["node-0".to_string(), "node-1".to_string()];
        let t = PartitionedTable::partition_rows(schema(), &rows(4), 3, &nodes);
        assert_eq!(t.homes(), &["node-0", "node-1", "node-0"]);
    }

    #[test]
    fn collect_sorted_is_partition_order_independent() {
        let a = PartitionedTable::partition_rows(schema(), &rows(9), 2, &[]);
        let b = PartitionedTable::partition_rows(schema(), &rows(9), 5, &[]);
        assert_eq!(a.collect_sorted(), b.collect_sorted());
    }

    #[test]
    fn dfs_save_load_round_trip() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let t = PartitionedTable::partition_rows(schema(), &rows(23), 3, &[]);
        let bytes = t.save_text(&dfs, "/tables/t").unwrap();
        assert!(bytes > 0);
        let back = PartitionedTable::load_text(&dfs, "/tables/t", schema()).unwrap();
        assert_eq!(back.num_partitions(), 3);
        assert_eq!(back.collect_sorted(), t.collect_sorted());
    }

    #[test]
    fn a_trailing_carriage_return_survives_the_warehouse() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let t = PartitionedTable::single(schema(), vec![row![1i64, "Yes\r"], row![2i64, "\r"]]);
        t.save_text(&dfs, "/tables/cr").unwrap();
        let back = PartitionedTable::load_text(&dfs, "/tables/cr", schema()).unwrap();
        assert_eq!(back.collect_rows(), t.collect_rows());
    }

    #[test]
    fn a_load_reports_the_first_bad_part_file_in_file_order() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let t = PartitionedTable::partition_rows(schema(), &rows(40), 5, &[]);
        t.save_text(&dfs, "/tables/bad").unwrap();
        // Part 1 is damaged late in its file, part 3 on its first line,
        // so part 3's thread usually fails first.
        let mut part1 = dfs.read_string("/tables/bad/part-00001").unwrap();
        part1.push_str("1|x|extra\n");
        dfs.write_string("/tables/bad/part-00001", &part1).unwrap();
        dfs.write_string("/tables/bad/part-00003", "nan|x\n")
            .unwrap();
        for _ in 0..20 {
            let err = PartitionedTable::load_text(&dfs, "/tables/bad", schema()).unwrap_err();
            assert!(err.to_string().contains("more than 2 fields"), "{err}");
        }
    }

    #[test]
    fn load_missing_dir_errors() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        assert!(PartitionedTable::load_text(&dfs, "/nope", schema()).is_err());
    }

    #[test]
    fn repartition_preserves_rows() {
        let t = PartitionedTable::partition_rows(schema(), &rows(17), 2, &[]);
        let r = t.repartition(5, &[]).unwrap();
        assert_eq!(r.num_partitions(), 5);
        assert_eq!(r.collect_sorted(), t.collect_sorted());
    }

    /// Today's re-deal spelled out: concatenate every partition, then
    /// gather rows `p, p + n, …`.
    fn concat_then_gather(t: &PartitionedTable, n: usize) -> Vec<Batch> {
        let all = Batch::concat(t.schema().len(), t.partitions());
        let total = u32::try_from(all.len()).unwrap();
        (0..n as u32)
            .map(|p| all.gather(&(p..total).step_by(n).collect::<Vec<u32>>()))
            .collect()
    }

    /// A cell of column `c`: NULLs everywhere; strings from a small pool
    /// in random order (so each partition's dictionary has its own
    /// order); a string among the integers of column 3 (a `Mixed`
    /// column); and a column 4 that is all NULL in some partitions and
    /// strings in others (re-typed by `Batch::from_rows`).
    fn redeal_cell(rng: &mut sqlml_common::SplitMix64, c: usize, strings_here: bool) -> Value {
        if rng.chance(0.15) {
            return Value::Null;
        }
        let pool = ["USA", "CA", "UK", "DE", "a|b", ""];
        match c {
            0 => Value::Int(rng.range_i64(-5, 5)),
            1 => Value::Double(rng.range_i64(-9, 9) as f64 / 4.0),
            2 => Value::from(*rng.choose(&pool)),
            3 if rng.chance(0.1) => Value::from("x"),
            3 => Value::Int(rng.range_i64(0, 3)),
            _ if strings_here => Value::from(*rng.choose(&pool)),
            _ => Value::Null,
        }
    }

    #[test]
    fn repartition_equals_concatenate_then_gather() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("d", DataType::Double),
            Field::categorical("s"),
            Field::new("m", DataType::Int),
            Field::new("r", DataType::Int),
        ]);
        let mut rng = sqlml_common::SplitMix64::new(36);
        for case in 0..300 {
            let parts: Vec<Vec<Row>> = (0..rng.next_below(5))
                .map(|_| {
                    let strings_here = rng.chance(0.5);
                    (0..rng.next_below(9))
                        .map(|_| {
                            (0..5)
                                .map(|c| redeal_cell(&mut rng, c, strings_here))
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let t = PartitionedTable::new(schema.clone(), parts);
            for n in 1..=t.num_rows() + 2 {
                let dealt = t.repartition(n, &[]).unwrap();
                assert_eq!(
                    format!("{:?}", dealt.partitions()),
                    format!("{:?}", concat_then_gather(&t, n)),
                    "case {case}, n = {n}"
                );
                // A typed string column's partitions share one dictionary.
                let dicts: Vec<_> = (dealt.partitions().iter())
                    .filter_map(|p| match &**p.column(2) {
                        Column::Str(d) => Some(d.entries().as_ptr()),
                        _ => None,
                    })
                    .collect();
                assert!(dicts.windows(2).all(|w| w[0] == w[1]), "case {case}");
            }
        }
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let small = PartitionedTable::single(schema(), rows(10));
        let large = PartitionedTable::single(schema(), rows(100));
        assert!(large.approx_bytes() > small.approx_bytes() * 5);
    }
}
