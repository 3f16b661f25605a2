//! The external transformation tool of the naive baseline.
//!
//! The paper's naive pipeline used **Jaql** as "a third tool" between the
//! SQL system and the ML system: it read the materialized SQL result from
//! HDFS, performed recoding + dummy coding with its built-in functions,
//! and wrote the transformed data back to HDFS. This module is that tool,
//! built as a two-job MapReduce-style program over DFS text files:
//!
//! * job 1 (map per part-file, reduce at the driver): collect distinct
//!   values per categorical column and build the recode map. Its map
//!   task ([`recode_values`]) reads only the recode columns, as a
//!   projecting reader would: a line is walked field by field where it
//!   stands, the other columns skipped unsplit, each kept value put into
//!   a set as its packed bytes, and no number is parsed. A line holding a
//!   `\` or the wrong arity goes through the text format's cell walk;
//! * job 2 (map per part-file): rewrite each line using the map — a
//!   recoded cell becomes its code, a coded cell its coding's block, any
//!   other cell is copied as it stands — and write an output part-file
//!   ([`FlatRecodeApplier::rewrite_pieces`]: a common line is checked and
//!   copied in spans, a categorical cell one stored block; any other line
//!   is rewritten cell by cell).
//!
//! Both jobs' fast paths only skip work: every output byte, value set,
//! row count and error is the cell walk's.
//!
//! Both jobs run their map tasks in parallel, one thread per part-file —
//! but every byte still crosses the file system twice more than the
//! In-SQL approach, which is exactly the overhead Figure 3 charges the
//! naive bar with.

use std::borrow::Cow;
use std::collections::HashSet;

use sqlml_common::codec::{self, LineReader, TextLine};
use sqlml_common::schema::{DataType, Schema};
use sqlml_common::{Result, SqlmlError, Value};
use sqlml_dfs::Dfs;
use sqlml_sqlengine::executor::run_on_workers;
// The tests compare against the column decoder; the jobs never build one.
#[cfg(test)]
use sqlml_sqlengine::Batch;
use sqlml_transform::{FlatRecodeApplier, RecodeMap, TransformSpec};

/// Output of the external transform job.
#[derive(Debug)]
pub struct ExternalTransformOutput {
    /// DFS directory holding the transformed part-files.
    pub output_dir: String,
    /// The transformed data's schema.
    pub schema: Schema,
    pub recode_map: RecodeMap,
    pub rows: usize,
}

/// Run the external transformation: `input_dir` (text part-files with
/// `input_schema`) → `output_dir` on the same DFS.
pub fn run_external_transform(
    dfs: &Dfs,
    input_dir: &str,
    input_schema: &Schema,
    spec: &TransformSpec,
    output_dir: &str,
) -> Result<ExternalTransformOutput> {
    let bound = spec.bind(input_schema)?;
    let files: Vec<String> = dfs
        .list(&format!("{input_dir}/"))
        .into_iter()
        .map(|f| f.path)
        .collect();
    if files.is_empty() {
        return Err(SqlmlError::Dfs(format!("no input under {input_dir}")));
    }
    let col_indices: Vec<(String, usize)> = (bound.recoded())
        .map(|(at, name)| (name.to_string(), at))
        .collect();

    // ---- Job 1: distinct values per column (map side: a projecting
    // reader that keeps only the recode columns' cells), merged at the
    // driver (reduce side).
    let partials = run_on_workers(files.len(), files.len(), |i| {
        dfs.read_text(&files[i], None, |pieces| {
            Ok(recode_values(pieces, input_schema, &col_indices))
        })
    })?;
    let Some(partials) = partials.into_iter().collect::<Option<Vec<_>>>() else {
        // A line job 1 could not walk: every cell is checked as the full
        // decoder checks it, which names the first bad part-file with the
        // error job 2 would raise.
        run_on_workers(files.len(), files.len(), |i| {
            dfs.read_text(&files[i], None, |pieces| check_cells(pieces, input_schema))
        })?;
        return Err(SqlmlError::Execution(format!(
            "job 1 refused a part-file under {input_dir} that decodes"
        )));
    };
    let recode_map = RecodeMap::from_pairs(partials.into_iter().flatten());

    // ---- Job 2: rewrite each part-file line by line and write the
    // output. All per-column resolution (which action, the column's sorted
    // values, coding, transformed schema) happens once here; a cell the
    // job does not transform is copied as it stands.
    let applier = FlatRecodeApplier::new(&recode_map, &bound)?;
    let row_counts: Vec<usize> = run_on_workers(files.len(), files.len(), |i| {
        let path = &files[i];
        let (text, rows) = dfs.read_text(path, None, |pieces| applier.rewrite_pieces(pieces))?;
        let part_name = path.rsplit('/').next().unwrap_or("part-00000");
        dfs.write_string(&format!("{output_dir}/{part_name}"), &text)?;
        Ok(rows)
    })?;

    Ok(ExternalTransformOutput {
        output_dir: output_dir.to_string(),
        schema: applier.output_schema().clone(),
        recode_map,
        rows: row_counts.iter().sum(),
    })
}

/// Job 1's map task over one part-file of `schema`: every distinct
/// non-NULL value of the recode columns `columns` (name, position), as
/// `(column, value)` pairs, or `None` when a line does not walk. Only
/// those columns' cells are kept; the others are split off and never
/// parsed. A recode column not declared `Str` holds no strings to recode
/// (job 2's applier rejects a non-NULL cell in it).
pub fn recode_values(
    pieces: &[impl AsRef<str>],
    schema: &Schema,
    columns: &[(String, usize)],
) -> Option<Vec<(String, String)>> {
    let mut slot = vec![None; schema.len()];
    for (k, (_, idx)) in columns.iter().enumerate() {
        if schema.fields()[*idx].data_type == DataType::Str {
            slot[*idx] = Some(k);
        }
    }
    let mut reader = ValueReader {
        schema,
        slot,
        distinct: columns.iter().map(|_| Distinct::default()).collect(),
    };
    for piece in pieces {
        codec::read_lines(piece.as_ref(), &mut reader).ok()?;
    }
    let pairs = (columns.iter().zip(reader.distinct))
        .flat_map(|((name, _), d)| d.into_values().map(move |v| (name.clone(), v)));
    Some(pairs.collect())
}

/// Job 1's reader of one part-file's lines. Its fast path takes a line
/// whose every field [`codec::str_field`] ends at its delimiter — no `\`
/// (so no NULL marker and no escape), the right arity, a `\n` at the end
/// — skipping the columns it does not keep and putting each kept field
/// into its column's [`Distinct`] where it lies. Any other line goes
/// through [`TextLine::cells`], as every line once did: it keeps the same
/// values or fails the walk.
struct ValueReader<'a> {
    schema: &'a Schema,
    /// Per column: the index of its [`Distinct`] when job 1 keeps it.
    slot: Vec<Option<usize>>,
    distinct: Vec<Distinct>,
}

impl LineReader for ValueReader<'_> {
    fn read_fast(&mut self, text: &str, at: usize) -> Option<usize> {
        let bytes = text.as_bytes();
        let last = self.slot.len().checked_sub(1)?;
        let mut pos = at;
        for (c, slot) in self.slot.iter().enumerate() {
            let delim = if c == last { b'\n' } else { b'|' };
            let end = codec::str_field(bytes, pos, delim)?;
            if let Some(k) = *slot {
                // A value put in before a later field refuses the line is
                // put in again by `read_line`, or the walk fails there.
                match codec::packed_at(bytes, pos, end) {
                    Some(key) => self.distinct[k].insert_packed(key),
                    None => self.distinct[k].insert_long(text.get(pos..end)?),
                }
            }
            pos = end + 1;
        }
        Some(pos)
    }

    fn read_line(&mut self, line: &TextLine<'_>) -> Result<()> {
        let (slot, distinct) = (&self.slot, &mut self.distinct);
        line.cells(self.schema, |c, _, field| {
            if let (Some(k), Some(v)) = (slot[c], field) {
                distinct[k].insert(v);
            }
            Ok(())
        })
    }
}

/// The first error decoding the text of `pieces` under `schema` would
/// raise: a line that does not walk, or a cell its column's type refuses.
fn check_cells(pieces: &[Cow<'_, str>], schema: &Schema) -> Result<()> {
    for piece in pieces {
        codec::read_lines(piece, &mut |line: &TextLine<'_>| {
            line.cells(schema, |_, ty, field| match (field, ty) {
                (Some(s), DataType::Int | DataType::Double | DataType::Bool) => {
                    Value::parse_typed(s, ty).map(drop)
                }
                _ => Ok(()),
            })
        })?;
    }
    Ok(())
}

/// The distinct values of one column. A value of at most eight bytes and
/// no NUL byte is kept as its [`codec::packed`] word, compared in order
/// while there are at most eight, hashed after; a longer value is kept as
/// a string.
#[derive(Default)]
struct Distinct {
    few: Vec<u64>,
    many: HashSet<u64>,
    long: HashSet<String>,
}

impl Distinct {
    fn insert(&mut self, v: &str) {
        match codec::packed(v.as_bytes()) {
            Some(key) => self.insert_packed(key),
            None => self.insert_long(v),
        }
    }

    #[inline]
    fn insert_packed(&mut self, key: u64) {
        if self.many.is_empty() {
            if self.few.iter().fold(false, |seen, &k| seen | (k == key)) {
                return;
            }
            if self.few.len() < 8 {
                return self.few.push(key);
            }
            self.many.extend(self.few.drain(..));
        }
        self.many.insert(key);
    }

    fn insert_long(&mut self, v: &str) {
        if !self.long.contains(v) {
            self.long.insert(v.to_string());
        }
    }

    /// Every value, in no particular order.
    fn into_values(self) -> impl Iterator<Item = String> {
        let short = self.few.into_iter().chain(self.many).map(codec::unpacked);
        short.chain(self.long)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::schema::{DataType, Field};
    use sqlml_common::{codec, row};
    use sqlml_dfs::DfsConfig;

    fn input_schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
        ])
    }

    fn dfs_with_input() -> Dfs {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let part0 = vec![
            row![57i64, "F", 103.25, "Yes"],
            row![40i64, "M", 35.8, "Yes"],
        ];
        let part1 = vec![row![35i64, "F", 48.9, "No"]];
        dfs.write_string("/in/part-00000", &codec::encode_text_batch(&part0))
            .unwrap();
        dfs.write_string("/in/part-00001", &codec::encode_text_batch(&part1))
            .unwrap();
        dfs
    }

    #[test]
    fn external_transform_reproduces_figure_1() {
        let dfs = dfs_with_input();
        let out = run_external_transform(
            &dfs,
            "/in",
            &input_schema(),
            &TransformSpec::new(&["gender"]),
            "/out",
        )
        .unwrap();
        assert_eq!(out.rows, 3);
        assert_eq!(
            out.schema.names(),
            vec!["age", "gender_F", "gender_M", "amount", "abandoned"]
        );
        // Read back and verify Figure 1(c) content.
        let mut rows = Vec::new();
        for f in dfs.list("/out/") {
            let text = dfs.read_string(&f.path).unwrap();
            rows.extend(codec::decode_text_batch(&text, &out.schema).unwrap());
        }
        rows.sort();
        assert_eq!(
            rows,
            vec![
                row![35i64, 1i64, 0i64, 48.9, 1i64],
                row![40i64, 0i64, 1i64, 35.8, 2i64],
                row![57i64, 1i64, 0i64, 103.25, 2i64],
            ]
        );
    }

    #[test]
    fn matches_the_insql_transformer_exactly() {
        use sqlml_common::SplitMix64;
        use sqlml_sqlengine::{Engine, EngineConfig};
        use sqlml_transform::InSqlTransformer;
        // Figure 1's input, then a seeded one whose categorical columns
        // hold more than eight values (job 1's hashed path), strings that
        // need escapes and the empty string, over three part-files.
        let seeded = Dfs::new(DfsConfig::for_tests());
        let mut rng = SplitMix64::new(0x1A0B_0001);
        let genders = [
            "F", "M", "", "a|b", "x\\y", "\\N", "l\nm", "ü", "X", "Y", "Z", "W",
        ];
        for part in 0..3 {
            let rows: Vec<_> = (0..40)
                .map(|_| {
                    let gender = *rng.choose(&genders[..9 + part]);
                    let abandoned = if rng.chance(0.5) { "Yes" } else { "No" };
                    row![
                        rng.next_below(90) as i64,
                        gender,
                        rng.next_below(10_000) as f64 / 100.0,
                        abandoned
                    ]
                })
                .collect();
            let path = format!("/in/part-{part:05}");
            seeded
                .write_string(&path, &codec::encode_text_batch(&rows))
                .unwrap();
        }
        for (dfs, values) in [(dfs_with_input(), 2), (seeded, 11)] {
            let spec = TransformSpec::new(&["gender"]);
            let external =
                run_external_transform(&dfs, "/in", &input_schema(), &spec, "/out2").unwrap();
            assert_eq!(external.recode_map.cardinality("gender"), values);

            let engine = Engine::new(EngineConfig::with_workers(2));
            engine
                .load_text_table("t", input_schema(), &dfs, "/in")
                .unwrap();
            let insql = InSqlTransformer::new(engine.clone())
                .transform("t", &spec)
                .unwrap();

            let mut ext_rows = Vec::new();
            for f in dfs.list("/out2/") {
                let text = dfs.read_string(&f.path).unwrap();
                ext_rows.extend(codec::decode_text_batch(&text, &external.schema).unwrap());
            }
            ext_rows.sort();
            assert_eq!(ext_rows, insql.table.collect_sorted());
            assert_eq!(external.recode_map, insql.recode_map);
        }
    }

    #[test]
    fn a_malformed_part_file_fails_with_the_full_decoders_error() {
        let spec = TransformSpec::new(&["gender"]);
        // The error the whole part-file's decode raises: what job 1
        // raised when it decoded every cell.
        let decode_error = |dfs: &Dfs, path: &str| {
            let text = dfs.read_string(path).unwrap();
            Batch::decode_text(&text, &input_schema())
                .unwrap_err()
                .to_string()
        };
        // A malformed number job 1 never parses: job 2 reports it.
        let dfs = dfs_with_input();
        dfs.write_string("/in/part-00002", "12x|F|1.5|Yes\n")
            .unwrap();
        let err = run_external_transform(&dfs, "/in", &input_schema(), &spec, "/out").unwrap_err();
        assert_eq!(err.to_string(), decode_error(&dfs, "/in/part-00002"));
        assert!(err.to_string().contains("bad int literal"), "{err}");
        // A line job 1 cannot split after an earlier part-file's bad
        // number: the earlier part-file is still the one reported.
        dfs.write_string("/in/part-00003", "1|F|1.5\n").unwrap();
        let err = run_external_transform(&dfs, "/in", &input_schema(), &spec, "/out").unwrap_err();
        assert_eq!(err.to_string(), decode_error(&dfs, "/in/part-00002"));
        // Only the unsplittable line: its own error.
        dfs.delete("/in/part-00002").unwrap();
        let err = run_external_transform(&dfs, "/in", &input_schema(), &spec, "/out").unwrap_err();
        assert_eq!(err.to_string(), decode_error(&dfs, "/in/part-00003"));
        assert!(err.to_string().contains("fewer than 4 fields"), "{err}");
    }

    #[test]
    fn distinct_keeps_every_value_once_packed_or_not() {
        use sqlml_common::SplitMix64;
        use std::collections::BTreeSet;
        // Short, eight-byte, nine-byte, empty, NUL-holding and multi-byte
        // values, each inserted many times.
        const VALUES: [&str; 14] = [
            "",
            "F",
            "M",
            "Yes",
            "12345678",
            "123456789",
            "a\0",
            "\0",
            "ü",
            "üüüü",
            "üüüüü",
            "USA",
            "x|y",
            "a",
        ];
        let mut rng = SplitMix64::new(0xD157_1AC7);
        for _ in 0..200 {
            let pool = &VALUES[..1 + rng.next_below(VALUES.len() as u64) as usize];
            let mut distinct = Distinct::default();
            let mut want = BTreeSet::new();
            for _ in 0..rng.next_below(60) {
                let v = *rng.choose(pool);
                distinct.insert(v);
                want.insert(v.to_string());
            }
            let mut got: Vec<String> = distinct.into_values().collect();
            got.sort();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn job_1_keeps_what_a_walk_of_every_cell_keeps_on_seeded_part_files() {
        use sqlml_common::SplitMix64;
        use std::collections::BTreeSet;
        // Job 1 as a closure over every line's cells: the reference.
        fn reference(
            pieces: &[&str],
            schema: &Schema,
            columns: &[(String, usize)],
        ) -> Option<BTreeSet<(String, String)>> {
            let mut kept = BTreeSet::new();
            for piece in pieces {
                let walked = codec::read_lines(piece, &mut |line: &TextLine<'_>| {
                    line.cells(schema, |c, ty, field| {
                        let recoded = columns.iter().filter(|(_, at)| *at == c);
                        for (name, _) in recoded.filter(|_| ty == DataType::Str) {
                            if let Some(v) = field {
                                kept.insert((name.clone(), v.to_string()));
                            }
                        }
                        Ok(())
                    })
                });
                walked.ok()?;
            }
            Some(kept)
        }
        // Short, eight-byte, nine-byte, NUL-holding, multi-byte and
        // escaped values; numbers spelled any way (job 1 parses none).
        const STRINGS: [&str; 12] = [
            "F",
            "M",
            "Yes",
            "",
            "12345678",
            "123456789",
            "a\0b",
            "ü",
            "üüüüü",
            "a|b",
            "x\\y",
            "\\N",
        ];
        const OTHER: [&str; 7] = ["57", "007", "1.50", "103.25", "true", "", "12x"];
        const TYPES: [DataType; 4] = [
            DataType::Str,
            DataType::Int,
            DataType::Double,
            DataType::Bool,
        ];
        let mut rng = SplitMix64::new(0x10B1_0001);
        let (mut kept, mut refused) = (0, 0);
        for seed in 0..400 {
            let width = 1 + rng.next_below(5) as usize;
            let fields = (0..width).map(|c| match c {
                0 => Field::categorical("c0"),
                c => Field::new(format!("c{c}"), *rng.choose(&TYPES)),
            });
            let schema = Schema::new(fields.collect());
            // The string columns kept, and now and then another.
            let columns: Vec<(String, usize)> = (schema.fields().iter().enumerate())
                .filter(|(_, f)| f.data_type == DataType::Str || rng.chance(0.2))
                .map(|(at, f)| (f.name.clone(), at))
                .collect();
            let pool = &STRINGS[..1 + rng.next_below(STRINGS.len() as u64) as usize];
            let mut text = String::new();
            for _ in 0..rng.next_below(40) {
                let mut cells: Vec<String> = (schema.fields().iter())
                    .map(|f| match (f.data_type, rng.next_below(12)) {
                        (_, 0) => "\\N".to_string(),
                        (_, 1) if rng.chance(0.1) => "\\q".to_string(),
                        (DataType::Str, _) => {
                            let mut cell = String::new();
                            codec::escape_text(rng.choose::<&str>(pool), &mut cell);
                            cell
                        }
                        _ => rng.choose(&OTHER).to_string(),
                    })
                    .collect();
                match rng.next_below(60) {
                    0 => drop(cells.pop()),
                    1 => cells.push("9".into()),
                    _ => {}
                }
                text.push_str(&cells.join("|"));
                text.push('\n');
            }
            if rng.chance(0.3) {
                text.pop();
            }
            // Pieces of whole lines, as a part-file's blocks come.
            let mut pieces = Vec::new();
            let mut start = 0;
            for (end, _) in text.match_indices('\n') {
                if rng.chance(0.3) {
                    pieces.push(&text[start..=end]);
                    start = end + 1;
                }
            }
            pieces.push(&text[start..]);

            let want = reference(&pieces, &schema, &columns);
            let got = recode_values(&pieces, &schema, &columns).map(|pairs| {
                let set: BTreeSet<(String, String)> = pairs.iter().cloned().collect();
                assert_eq!(set.len(), pairs.len(), "seed {seed}: a value kept twice");
                set
            });
            assert_eq!(got, want, "seed {seed}: {columns:?} over {text:?}");
            kept += usize::from(got.as_ref().is_some_and(|s| !s.is_empty()));
            refused += usize::from(got.is_none());
        }
        assert!(kept > 100 && refused > 50, "{kept} kept, {refused} refused");
    }

    #[test]
    fn missing_input_dir_fails() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        assert!(run_external_transform(
            &dfs,
            "/nothing",
            &input_schema(),
            &TransformSpec::default(),
            "/out"
        )
        .is_err());
    }

    #[test]
    fn every_map_task_panicking_is_an_error_in_the_caller_not_a_panic() {
        let files = ["/in/part-00000", "/in/part-00001"];
        let result: Result<Vec<()>> =
            run_on_workers(files.len(), files.len(), |i| panic!("boom in {}", files[i]));
        assert!(
            matches!(&result, Err(SqlmlError::Execution(msg)) if msg == "worker thread panicked"),
            "{result:?}"
        );
    }
}
