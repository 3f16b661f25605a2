//! The Hadoop-style ingestion interface: `InputFormat`, `InputSplit`, and
//! `RecordReader`.
//!
//! The paper's §3 customizes `getInputSplits()` to negotiate splits with
//! the coordinator and uses split *locations* to colocate ML workers with
//! SQL workers; this module defines those extension points plus the two
//! baseline formats (`TextInputFormat` over the DFS and an in-memory
//! format for tests).

use std::any::Any;
use std::sync::Arc;

use sqlml_common::codec::{self, LineReader, TextLine};
use sqlml_common::schema::DataType;
use sqlml_common::{Result, Row, Schema, SqlmlError, Value};
use sqlml_dfs::Dfs;

use crate::dataset::PartitionBlock;

/// A subset of the input consumed by exactly one ML worker task.
pub trait InputSplit: Send + Sync {
    /// Preferred node names where reading this split is local. The job
    /// scheduler colocates workers with these in a best-effort manner.
    fn locations(&self) -> Vec<String>;

    /// Downcast hook so formats can recover their concrete split type.
    fn as_any(&self) -> &dyn Any;
}

/// Pull-based reader over one split.
pub trait RecordReader: Send {
    /// Append the next batch of records to `out` as numbers, returning
    /// how many rows were added (0 only at end of split). The job runner
    /// calls it until it returns 0; how much one call delivers is the
    /// reader's choice (a frame, the whole split).
    fn next_batch(&mut self, out: &mut PartitionBlock) -> Result<usize>;
}

/// A source of splits and readers — the contract every ML job ingests
/// through.
pub trait InputFormat: Send + Sync {
    /// Partition the input into splits; the format decides how many
    /// (one per file block, one per SQL worker group member, ...).
    fn get_splits(&self) -> Result<Vec<Arc<dyn InputSplit>>>;

    /// Open a reader over one split (previously returned by
    /// [`InputFormat::get_splits`] of the same format instance) for a
    /// worker running on cluster node `worker_node`. Formats that
    /// distinguish local from remote reads (as HDFS short-circuit reads
    /// do) use the node; the others ignore it.
    fn create_reader(
        &self,
        split: &dyn InputSplit,
        worker_node: &str,
    ) -> Result<Box<dyn RecordReader>>;
}

// ---------------------------------------------------------------------------
// TextInputFormat: text part-files on the DFS (the naive / insql paths)
// ---------------------------------------------------------------------------

/// One split of a DFS text directory: one whole part-file.
#[derive(Debug, Clone)]
pub struct FileSplit {
    pub path: String,
    locations: Vec<String>,
}

impl InputSplit for FileSplit {
    fn locations(&self) -> Vec<String> {
        self.locations.clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Reads a directory of text part-files from the DFS, one split per
/// part-file.
pub struct TextInputFormat {
    dfs: Dfs,
    dir: String,
    schema: Schema,
}

impl TextInputFormat {
    pub fn new(dfs: Dfs, dir: impl Into<String>, schema: Schema) -> Self {
        TextInputFormat {
            dfs,
            dir: dir.into(),
            schema,
        }
    }
}

impl InputFormat for TextInputFormat {
    fn get_splits(&self) -> Result<Vec<Arc<dyn InputSplit>>> {
        let files = self.dfs.list(&format!("{}/", self.dir));
        if files.is_empty() {
            return Err(SqlmlError::Ml(format!(
                "TextInputFormat: no part files under {}",
                self.dir
            )));
        }
        let mut out: Vec<Arc<dyn InputSplit>> = Vec::with_capacity(files.len());
        for f in files {
            // Locality: the nodes holding the file's first block.
            let blocks = self.dfs.block_locations(&f.path)?;
            let locations = (blocks.first().into_iter())
                .flat_map(|b| b.nodes.iter().copied().map(sqlml_dfs::node_name))
                .collect();
            out.push(Arc::new(FileSplit {
                path: f.path,
                locations,
            }));
        }
        Ok(out)
    }

    fn create_reader(
        &self,
        split: &dyn InputSplit,
        worker_node: &str,
    ) -> Result<Box<dyn RecordReader>> {
        let fs = split
            .as_any()
            .downcast_ref::<FileSplit>()
            .ok_or_else(|| SqlmlError::Ml("TextInputFormat got a foreign split".into()))?;
        Ok(Box::new(TextRecordReader {
            dfs: self.dfs.clone(),
            path: Some(fs.path.clone()),
            node: worker_node.to_string(),
            schema: self.schema.clone(),
        }))
    }
}

struct TextRecordReader {
    dfs: Dfs,
    /// The part-file, until it is read.
    path: Option<String>,
    /// Where the worker runs: a block with no replica there pays the
    /// cluster's network bandwidth.
    node: String,
    schema: Schema,
}

impl RecordReader for TextRecordReader {
    /// The whole part-file in one call, read where the DFS holds its
    /// blocks: only a line that straddles two blocks is copied.
    fn next_batch(&mut self, out: &mut PartitionBlock) -> Result<usize> {
        let Some(path) = self.path.take() else {
            return Ok(0);
        };
        let before = out.len();
        let mut lines = NumericLines {
            schema: &self.schema,
            cells: Vec::new(),
            out,
        };
        self.dfs.read_text(&path, Some(&self.node), |pieces| {
            (pieces.iter()).try_for_each(|piece| codec::read_lines(piece, &mut lines))
        })?;
        Ok(out.len() - before)
    }
}

/// Reads text lines as numbers into a block.
struct NumericLines<'a> {
    schema: &'a Schema,
    /// The current line's cells as numbers, reused line after line.
    cells: Vec<f64>,
    out: &'a mut PartitionBlock,
}

impl LineReader for NumericLines<'_> {
    /// A line of integer and double fields each taken by its field
    /// parser. Any other line — a NULL, a bool or string column, a cell
    /// a parser leaves to `str::parse`, a row the block refuses (which
    /// it refuses again, unchanged) — is left to [`Self::read_line`].
    fn read_fast(&mut self, text: &str, mut at: usize) -> Option<usize> {
        let bytes = text.as_bytes();
        let fields = self.schema.fields();
        let last = fields.len().checked_sub(1)?;
        self.cells.clear();
        for (c, field) in fields.iter().enumerate() {
            let delim = if c == last { b'\n' } else { b'|' };
            let (v, next) = match field.data_type {
                DataType::Int => codec::int_field(bytes, at, delim).map(|(v, n)| (v as f64, n))?,
                DataType::Double => codec::double_field(bytes, at, delim)?,
                DataType::Bool | DataType::Str => return None,
            };
            self.cells.push(v);
            at = next;
        }
        self.out.push_row(&self.cells).ok()?;
        Some(at)
    }

    fn read_line(&mut self, line: &TextLine<'_>) -> Result<()> {
        numeric_cells(line, self.schema, &mut self.cells)?;
        self.out.push_row(&self.cells)
    }
}

/// One text line's cells as numbers, into `out` — what
/// `codec::decode_text_row(line, schema)?.to_f64_vec()` returns, or its
/// error, without building the row: NULL and an empty numeric field
/// read 0.0, a bool 1.0 or 0.0. A string cell is the `Type` error of
/// [`Value::as_f64`], raised once the whole line has parsed, as the row
/// decoder's own errors come first. An integer or double cell goes from
/// its cell parser straight to `f64`.
fn numeric_cells(line: &TextLine<'_>, schema: &Schema, out: &mut Vec<f64>) -> Result<()> {
    out.clear();
    let mut string = None;
    line.cells(schema, |_, ty, field| {
        out.push(match (field, ty) {
            (None, _) => 0.0,
            (Some(s), DataType::Int) => codec::parse_int_cell(s)?.map_or(0.0, |v| v as f64),
            (Some(s), DataType::Double) => codec::parse_double_cell(s)?.unwrap_or(0.0),
            (Some(s), DataType::Bool) => match Value::parse_typed(s, DataType::Bool)? {
                Value::Null => 0.0,
                v => v.as_f64()?,
            },
            (Some(s), DataType::Str) => {
                string.get_or_insert_with(|| Value::str(s));
                0.0
            }
        });
        Ok(())
    })?;
    match string {
        Some(s) => s.as_f64().map(|_| ()),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// MemoryInputFormat: pre-partitioned in-memory rows (tests, benchmarks)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct MemorySplit {
    index: usize,
    locations: Vec<String>,
}

impl InputSplit for MemorySplit {
    fn locations(&self) -> Vec<String> {
        self.locations.clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Serves rows already resident in memory, one split per partition.
pub struct MemoryInputFormat {
    partitions: Vec<Arc<Vec<Row>>>,
    homes: Vec<String>,
}

impl MemoryInputFormat {
    pub fn new(partitions: Vec<Vec<Row>>) -> Self {
        let homes = (0..partitions.len()).map(sqlml_dfs::node_name).collect();
        MemoryInputFormat {
            partitions: partitions.into_iter().map(Arc::new).collect(),
            homes,
        }
    }
}

impl InputFormat for MemoryInputFormat {
    fn get_splits(&self) -> Result<Vec<Arc<dyn InputSplit>>> {
        Ok((0..self.partitions.len())
            .map(|i| {
                Arc::new(MemorySplit {
                    index: i,
                    locations: vec![self.homes[i].clone()],
                }) as Arc<dyn InputSplit>
            })
            .collect())
    }

    fn create_reader(
        &self,
        split: &dyn InputSplit,
        _worker_node: &str,
    ) -> Result<Box<dyn RecordReader>> {
        let ms = split
            .as_any()
            .downcast_ref::<MemorySplit>()
            .ok_or_else(|| SqlmlError::Ml("MemoryInputFormat got a foreign split".into()))?;
        Ok(Box::new(MemoryReader {
            rows: Arc::clone(&self.partitions[ms.index]),
            pos: 0,
        }))
    }
}

struct MemoryReader {
    rows: Arc<Vec<Row>>,
    pos: usize,
}

impl RecordReader for MemoryReader {
    /// The rows are already resident: convert them in place, no clones.
    fn next_batch(&mut self, out: &mut PartitionBlock) -> Result<usize> {
        let rest = &self.rows[self.pos..];
        for row in rest {
            out.push_record(row)?;
        }
        self.pos = self.rows.len();
        Ok(rest.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field};
    use sqlml_dfs::DfsConfig;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("x", DataType::Double),
            Field::new("y", DataType::Int),
        ])
    }

    /// Every row of every split, read the way the job runner reads: one
    /// reader per split, `next_batch` until it returns 0.
    fn read_all(fmt: &dyn InputFormat) -> Vec<Vec<f64>> {
        let mut block = PartitionBlock::new(None);
        for s in fmt.get_splits().unwrap() {
            let mut r = fmt.create_reader(s.as_ref(), "node-0").unwrap();
            while r.next_batch(&mut block).unwrap() > 0 {}
        }
        let data = crate::Dataset::from_blocks(vec![block]).unwrap();
        data.iter().map(|p| p.features.to_vec()).collect()
    }

    #[test]
    fn text_format_reads_all_part_files() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        dfs.write_string("/ml/in/part-00000", "1.5|1\n2.5|0\n")
            .unwrap();
        dfs.write_string("/ml/in/part-00001", "3.5|1\n").unwrap();
        let fmt = TextInputFormat::new(dfs, "/ml/in", schema());
        assert_eq!(fmt.get_splits().unwrap().len(), 2);
        let mut rows = read_all(&fmt);
        rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(rows, [[1.5, 1.0], [2.5, 0.0], [3.5, 1.0]]);
    }

    #[test]
    fn the_text_reader_converts_cells_as_the_row_decoder_does() {
        const TYPES: [DataType; 7] = [
            DataType::Int,
            DataType::Double,
            DataType::Bool,
            DataType::Int,
            DataType::Double,
            DataType::Bool,
            DataType::Str,
        ];
        // A cell its column accepts: NULL, empty, a number, a bool.
        let good = |ty: DataType| -> &[&str] {
            match ty {
                DataType::Int => &["\\N", "", "7", "-12", "\\\\N"],
                DataType::Double => &["\\N", "", "2.5", "-0.0", "1e3", "7"],
                DataType::Bool => &["\\N", "", "true", "0", "FALSE"],
                DataType::Str => &["\\N"],
            }
        };
        // Any cell: also escaped strings (`\\N` is the string `\N`, which a
        // number column reads as NULL), a bad escape, bad literals and
        // literals only one of the number parsers takes.
        const FIELDS: [&str; 21] = [
            "\\N",
            "\\\\N",
            "",
            "7",
            "-12",
            "2.5",
            "-0.0",
            "1e3",
            "true",
            "0",
            "FALSE",
            "a\\pb",
            "x\\\\y",
            "\\q",
            "12x",
            "+7",
            "nan",
            "1e400",
            "9223372036854775808",
            "-",
            "0x10",
        ];
        let cells = |block: PartitionBlock| -> Vec<Vec<u64>> {
            let data = crate::Dataset::from_blocks(vec![block]).unwrap();
            let rows = data.iter().map(|p| p.features.iter().map(|f| f.to_bits()));
            rows.map(Iterator::collect).collect()
        };
        let dfs = Dfs::new(DfsConfig::for_tests());
        let (mut rows_read, mut refused) = (0, 0);
        for seed in 0..300u64 {
            let mut rng = sqlml_common::SplitMix64::new(0x7E47_0000 + seed);
            let width = 1 + rng.next_below(4) as usize;
            let types: Vec<DataType> = (0..width).map(|_| *rng.choose(&TYPES)).collect();
            let fields = (types.iter().enumerate()).map(|(c, ty)| Field::new(format!("c{c}"), *ty));
            let schema = Schema::new(fields.collect());
            let lines: Vec<String> = (0..1 + rng.next_below(6))
                .map(|_| {
                    let mut line: Vec<&str> = (types.iter())
                        .map(|&ty| {
                            let pool = if rng.chance(0.85) { good(ty) } else { &FIELDS };
                            *rng.choose(pool)
                        })
                        .collect();
                    match rng.next_below(10) {
                        0 => line.truncate(width - 1),
                        1 => line.push("9"),
                        _ => {}
                    }
                    line.join("|")
                })
                .collect();
            // The rows one by one, then converted: up to the first error.
            let mut expect = PartitionBlock::new(None);
            let mut expect_err = None;
            for line in lines.iter().filter(|l| !l.is_empty()) {
                match codec::decode_text_row(line, &schema).and_then(|r| r.to_f64_vec()) {
                    Ok(row) => expect.push_row(&row).unwrap(),
                    Err(e) => {
                        expect_err = Some(e.to_string());
                        break;
                    }
                }
            }
            let dir = format!("/cells/{seed}");
            dfs.write_string(&format!("{dir}/part-00000"), &(lines.join("\n") + "\n"))
                .unwrap();
            let fmt = TextInputFormat::new(dfs.clone(), dir, schema);
            let split = &fmt.get_splits().unwrap()[0];
            let mut got = PartitionBlock::new(None);
            let mut reader = fmt.create_reader(split.as_ref(), "node-0").unwrap();
            let got_err = reader.next_batch(&mut got).err().map(|e| e.to_string());
            assert_eq!(got_err, expect_err, "seed {seed}: {lines:?}");
            rows_read += got.len();
            refused += usize::from(got_err.is_some());
            assert_eq!(cells(got), cells(expect), "seed {seed}: {lines:?}");
        }
        assert!(
            rows_read > 100 && refused > 100,
            "{rows_read} rows, {refused} refused"
        );
    }

    #[test]
    fn text_splits_expose_block_locality() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        dfs.write_string("/ml/in/part-00000", "1.0|1\n").unwrap();
        let fmt = TextInputFormat::new(dfs, "/ml/in", schema());
        let splits = fmt.get_splits().unwrap();
        let locs = splits[0].locations();
        assert!(!locs.is_empty());
        assert!(locs[0].starts_with("node-"));
    }

    #[test]
    fn text_format_errors_on_missing_dir() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let fmt = TextInputFormat::new(dfs, "/nope", schema());
        assert!(fmt.get_splits().is_err());
    }

    #[test]
    fn tiny_blocks_read_every_line_exactly_once() {
        // 64-byte test blocks; varying line widths so lines straddle
        // block boundaries. The part-file is one split, read whole.
        let dfs = Dfs::new(DfsConfig::for_tests());
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("{:0width$}", i, width = 5 + (i * 7) % 15));
            text.push('\n');
        }
        dfs.write_string("/blk/part-00000", &text).unwrap();
        assert!(dfs.block_locations("/blk/part-00000").unwrap().len() > 3);
        let int_schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let fmt = TextInputFormat::new(dfs.clone(), "/blk", int_schema);
        assert_eq!(fmt.get_splits().unwrap().len(), 1);
        let got: Vec<f64> = read_all(&fmt).iter().map(|row| row[0]).collect();
        let expect: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(got, expect, "lines lost, duplicated or reordered");
    }

    #[test]
    fn memory_format_round_trips_partitions() {
        let fmt = MemoryInputFormat::new(vec![
            vec![row![1.0, 1i64]],
            vec![row![2.0, 0i64], row![3.0, 1i64]],
        ]);
        assert_eq!(fmt.get_splits().unwrap().len(), 2);
        assert_eq!(read_all(&fmt), [[1.0, 1.0], [2.0, 0.0], [3.0, 1.0]]);
    }

    #[test]
    fn foreign_split_rejected() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        dfs.write_string("/a/part-00000", "1.0|1\n").unwrap();
        let text = TextInputFormat::new(dfs, "/a", schema());
        let mem = MemoryInputFormat::new(vec![vec![]]);
        let mem_split = mem.get_splits().unwrap();
        assert!(text.create_reader(mem_split[0].as_ref(), "node-0").is_err());
    }
}
