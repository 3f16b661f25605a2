//! The Hadoop-style ingestion interface: `InputFormat`, `InputSplit`, and
//! `RecordReader`.
//!
//! The paper's §3 customizes `getInputSplits()` to negotiate splits with
//! the coordinator and uses split *locations* to colocate ML workers with
//! SQL workers; this module defines those extension points plus the two
//! baseline formats (`TextInputFormat` over the DFS and an in-memory
//! format for tests).

use std::any::Any;
use std::io::BufRead;
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

/// One split of a DFS text directory: a byte range `[offset, offset+len)`
/// of one part-file. Whole-file splits have `offset == 0` and
/// `len == total_len`; block-level splits cover one DFS block each and
/// follow Hadoop's line-boundary protocol (see
/// [`TextInputFormat::with_block_splits`]).
#[derive(Debug, Clone)]
pub struct FileSplit {
    pub path: String,
    pub offset: u64,
    pub len: u64,
    pub total_len: u64,
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

/// Reads a directory of text part-files from the DFS.
pub struct TextInputFormat {
    dfs: Dfs,
    dir: String,
    schema: Schema,
    block_splits: bool,
}

impl TextInputFormat {
    pub fn new(dfs: Dfs, dir: impl Into<String>, schema: Schema) -> Self {
        TextInputFormat {
            dfs,
            dir: dir.into(),
            schema,
            block_splits: false,
        }
    }

    /// Split at DFS block granularity instead of one split per file —
    /// what Hadoop's `TextInputFormat` does, so large part-files can be
    /// read by many tasks. Line-straddling blocks are handled with the
    /// classic protocol: a non-initial split discards its first
    /// (possibly partial) line, and every split reads one line past its
    /// end boundary.
    pub fn with_block_splits(mut self) -> Self {
        self.block_splits = true;
        self
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
            let blocks = self.dfs.block_locations(&f.path)?;
            let node_names = |nodes: &[sqlml_dfs::NodeId]| -> Vec<String> {
                nodes.iter().copied().map(sqlml_dfs::node_name).collect()
            };
            if self.block_splits && blocks.len() > 1 {
                for b in &blocks {
                    out.push(Arc::new(FileSplit {
                        path: f.path.clone(),
                        offset: b.offset,
                        len: b.len,
                        total_len: f.len,
                        locations: node_names(&b.nodes),
                    }));
                }
            } else {
                // Locality: the nodes holding the file's first block.
                let locations = blocks
                    .first()
                    .map(|b| node_names(&b.nodes))
                    .unwrap_or_default();
                out.push(Arc::new(FileSplit {
                    path: f.path,
                    offset: 0,
                    len: f.len,
                    total_len: f.len,
                    locations,
                }));
            }
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
        // Open from the split's first block through EOF (a straddling
        // last line may reach into later blocks). `open_from` charges
        // remote block reads against the cluster's network bandwidth, so
        // non-local assignments cost time.
        let reader =
            self.dfs
                .open_range_from(&fs.path, fs.offset, fs.total_len - fs.offset, worker_node)?;
        let mut r = TextRecordReader {
            reader,
            schema: self.schema.clone(),
            cells: Vec::new(),
            carry: Vec::new(),
            pos: fs.offset,
            end: fs.offset + fs.len,
        };
        // Hadoop line protocol: a non-initial split discards its first
        // (possibly partial) line — the previous split read it.
        if fs.offset > 0 {
            loop {
                let buf = r.reader.fill_buf()?;
                let (take, found) = match buf.iter().position(|&b| b == b'\n') {
                    Some(at) => (at + 1, true),
                    None => (buf.len(), buf.is_empty()),
                };
                r.reader.consume(take);
                r.pos += take as u64;
                if found {
                    break;
                }
            }
        }
        Ok(Box::new(r))
    }
}

struct TextRecordReader {
    reader: sqlml_dfs::DfsReader,
    schema: Schema,
    /// The current line's cells as numbers, reused line after line.
    cells: Vec<f64>,
    /// The start of a line that runs on into the next block.
    carry: Vec<u8>,
    /// Byte position within the file of the next byte the DFS hands over.
    pos: u64,
    /// Split end boundary: lines starting at `pos <= end` belong to this
    /// split (the matching discard rule on the next split prevents
    /// duplicates), so the split's last line ends at its first `\n` at or
    /// past `end`.
    end: u64,
}

impl RecordReader for TextRecordReader {
    /// The whole split in one call, walked block by block where the DFS
    /// holds it: the whole lines of a block are walked in place, and only
    /// a line that straddles two blocks is copied.
    fn next_batch(&mut self, out: &mut PartitionBlock) -> Result<usize> {
        let before = out.len();
        let (schema, cells) = (&self.schema, &mut self.cells);
        // Past `end` with no line begun: the split is read.
        while self.pos <= self.end || !self.carry.is_empty() {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                // The file's last line, when it has no `\n`.
                walk_lines(&self.carry, schema, cells, out)?;
                self.carry.clear();
                break;
            }
            let from = usize::try_from(self.end.saturating_sub(self.pos)).unwrap_or(usize::MAX);
            let last = (buf.get(from..).unwrap_or_default().iter())
                .position(|&b| b == b'\n')
                .map(|at| from + at + 1);
            let chunk = &buf[..last.unwrap_or(buf.len())];
            let whole = chunk
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1);
            let (mut lines, rest) = chunk.split_at(whole);
            if !self.carry.is_empty() && !lines.is_empty() {
                let first = lines
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(0, |at| at + 1);
                self.carry.extend_from_slice(&lines[..first]);
                walk_lines(&self.carry, schema, cells, out)?;
                self.carry.clear();
                lines = &lines[first..];
            }
            walk_lines(lines, schema, cells, out)?;
            self.carry.extend_from_slice(rest);
            let took = chunk.len();
            self.reader.consume(took);
            self.pos += took as u64;
        }
        Ok(out.len() - before)
    }
}

/// Every line of `bytes` (whole lines, or the file's last line without
/// its `\n`) into `out` as numbers. Lines up to one that is not UTF-8 are
/// read before that line's error, as a line reader reads them.
fn walk_lines(
    bytes: &[u8],
    schema: &Schema,
    cells: &mut Vec<f64>,
    out: &mut PartitionBlock,
) -> Result<()> {
    let (text, bad) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, None),
        Err(e) => {
            let valid = &bytes[..e.valid_up_to()];
            let lines = valid
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1);
            let text = std::str::from_utf8(&valid[..lines]).unwrap_or_default();
            let bad = std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            );
            (text, Some(bad))
        }
    };
    codec::read_lines(text, &mut NumericLines { schema, cells, out })?;
    bad.map_or(Ok(()), |e| Err(e.into()))
}

/// Reads text lines as numbers into a block.
struct NumericLines<'a> {
    schema: &'a Schema,
    cells: &'a mut Vec<f64>,
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
        self.out.push_row(self.cells).ok()?;
        Some(at)
    }

    fn read_line(&mut self, line: &TextLine<'_>) -> Result<()> {
        numeric_cells(line, self.schema, self.cells)?;
        self.out.push_row(self.cells)
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

    pub fn with_homes(mut self, homes: Vec<String>) -> Self {
        assert_eq!(homes.len(), self.partitions.len());
        self.homes = homes;
        self
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
    fn block_splits_read_every_line_exactly_once() {
        // 64-byte test blocks; varying line widths so lines straddle
        // block boundaries.
        let dfs = Dfs::new(DfsConfig::for_tests());
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("{:0width$}", i, width = 5 + (i * 7) % 15));
            text.push('\n');
        }
        dfs.write_string("/blk/part-00000", &text).unwrap();
        let int_schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let fmt = TextInputFormat::new(dfs.clone(), "/blk", int_schema).with_block_splits();
        let splits = fmt.get_splits().unwrap();
        assert!(
            splits.len() > 3,
            "expected many 64-byte block splits, got {}",
            splits.len()
        );
        let mut got: Vec<f64> = read_all(&fmt).iter().map(|row| row[0]).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(got, expect, "lines lost or duplicated across splits");
    }

    #[test]
    fn block_splits_carry_per_block_locality() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        dfs.write_string("/blk2/part-00000", &"x|1\n".repeat(100))
            .unwrap();
        let mixed = Schema::new(vec![
            Field::categorical("s"),
            Field::new("v", DataType::Int),
        ]);
        let fmt = TextInputFormat::new(dfs.clone(), "/blk2", mixed).with_block_splits();
        let splits = fmt.get_splits().unwrap();
        let blocks = dfs.block_locations("/blk2/part-00000").unwrap();
        assert_eq!(splits.len(), blocks.len());
        for (s, b) in splits.iter().zip(&blocks) {
            let expect: Vec<String> = b.nodes.iter().copied().map(sqlml_dfs::node_name).collect();
            assert_eq!(s.locations(), expect);
        }
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
