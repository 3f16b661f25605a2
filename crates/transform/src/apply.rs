//! Flat, index-resolved recode application — pass 2 of the transform,
//! shared by the In-SQL path and the naive baseline's external job.
//!
//! A [`FlatRecodeApplier`] resolves everything that is per-*column* —
//! which action applies, the column's sorted values in the
//! [`RecodeMap`], its coding, the transformed schema — exactly once,
//! into a dense `Vec` indexed by column position. It has two entries:
//!
//! * over a column batch ([`FlatRecodeApplier::apply_batch`], the In-SQL
//!   path) a categorical column's dictionary is resolved with one binary
//!   search per *entry*, and the rows are a gather (recode) or the
//!   coding's expansion kernel through the result;
//! * over the lines of a text part-file
//!   ([`FlatRecodeApplier::rewrite_text`], the naive job) each cell is
//!   rewritten where it stands: a categorical value becomes the text of
//!   its code or coded block, rendered once per value, and a pass-through
//!   cell is copied when it is already spelled as the writers spell it —
//!   on a common line, a run of such cells as one span.

use std::collections::HashMap;
use std::sync::Arc;

use sqlml_common::codec::{self, CellTable, LineReader, TextLine, TextSink, TEXT_NULL};
use sqlml_common::schema::DataType;
use sqlml_common::{Result, Schema, SqlmlError, Value};
use sqlml_sqlengine::column::{Batch, Column, Prim};

use crate::coding::Coding;
use crate::recode::{level_of, RecodeMap};
use crate::spec::{BoundSpec, Treatment};

/// Per-column action, resolved from the spec + map at build time. A
/// categorical column carries its name and a copy of the map's sorted
/// values (a value's code is its position + 1), so the applier outlives
/// the map it was built from: a bound `recode_dummy` is one.
enum ColumnAction {
    /// Not a transform target: share the column.
    Pass,
    /// Recode the string value to its integer code (NULL stays NULL).
    Recode { name: String, values: Vec<String> },
    /// Expand into the coding's columns (NULL → an all-zero row).
    Expand {
        name: String,
        values: Vec<String>,
        coding: Coding,
    },
}

/// A recode/coding applier with all per-column resolution done up front.
/// Build once per job, then call [`Self::apply_batch`] per partition. It
/// is also the single source of the transformed schema
/// ([`Self::output_schema`]).
pub struct FlatRecodeApplier {
    actions: Vec<ColumnAction>,
    input: Schema,
    out_schema: Schema,
}

impl FlatRecodeApplier {
    /// Resolve the bound `spec` + `map` into per-column actions. Fails
    /// when a coded column has fewer values in `map` than its coding
    /// needs (no indicator, or no contrast: its block would silently
    /// vanish).
    pub fn new(map: &RecodeMap, spec: &BoundSpec) -> Result<FlatRecodeApplier> {
        let schema = spec.input();
        let mut actions = Vec::with_capacity(schema.len());
        for (f, treatment) in schema.fields().iter().zip(spec.treatments()) {
            let name = f.name.clone();
            let values = || map.values_in_code_order(&f.name).to_vec();
            actions.push(match *treatment {
                Treatment::Pass => ColumnAction::Pass,
                Treatment::Recode => ColumnAction::Recode {
                    name,
                    values: values(),
                },
                Treatment::Coded(coding) => {
                    let values = values();
                    if values.len() < coding.min_values() {
                        return Err(SqlmlError::Plan(format!(
                            "{coding}-coded column {name:?} needs at least {} recode map \
                             entries, the map has {}",
                            coding.min_values(),
                            values.len()
                        )));
                    }
                    ColumnAction::Expand {
                        name,
                        values,
                        coding,
                    }
                }
            });
        }
        Ok(FlatRecodeApplier {
            actions,
            input: schema.clone(),
            out_schema: spec.output_schema(map),
        })
    }

    /// The transformed schema: untouched columns as they were, recoded
    /// columns as `Int`, each coded column replaced in place by its
    /// coding's columns (`Int` indicators `col_<sanitized value>` in code
    /// order, or `Double` contrasts `col_eff<j>` / `col_orth<j>`), named
    /// by [`BoundSpec::output_fields`].
    pub fn output_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Transform one partition column by column. A pass-through column
    /// is shared; a categorical column's dictionary is resolved to levels
    /// once, and the rows are a gather into one `Int` column of codes
    /// (recode) or the coding's columns from its level table. A NULL is
    /// a NULL code or an all-zero row; a value the map lacks is an
    /// `unseen value` error.
    pub fn apply_batch(&self, input: &Batch) -> Result<Batch> {
        let mut columns = Vec::with_capacity(self.out_schema.len());
        for (c, action) in self.actions.iter().enumerate() {
            match action {
                ColumnAction::Pass => columns.push(Arc::clone(input.column(c))),
                ColumnAction::Recode { name, values } => {
                    let levels = row_levels(input.column(c), values, name)?;
                    let valid = (levels.contains(&None))
                        .then(|| levels.iter().map(Option::is_some).collect());
                    let codes = (levels.iter())
                        .map(|l| l.map_or(0, |l| l as i64 + 1))
                        .collect();
                    columns.push(Arc::new(Column::Int(Prim::new(codes, valid))));
                }
                ColumnAction::Expand {
                    name,
                    values,
                    coding,
                } => {
                    let levels = row_levels(input.column(c), values, name)?;
                    columns.extend(coding.expand(&levels, values.len()));
                }
            }
        }
        Ok(Batch::new(columns, input.len()))
    }

    /// Transform one text part-file of the input schema line by line: the
    /// text and row count of
    /// `self.apply_batch(&Batch::decode_text(text, input)?)?.encode_text()`,
    /// or its error, without building a column. The first error decoding
    /// the text wins; after it, the first unseen value (or non-string
    /// cell) of the leftmost categorical column that has one, as
    /// [`Self::apply_batch`] meets them.
    pub fn rewrite_text(&self, text: &str) -> Result<(String, usize)> {
        self.rewrite_pieces(&[text])
    }

    /// [`Self::rewrite_text`] of the text that `pieces` of whole lines
    /// make in order, as a part-file's blocks are read in place
    /// ([`codec::text_pieces`]): one output text, one row count, the same
    /// first error.
    pub fn rewrite_pieces(&self, pieces: &[impl AsRef<str>]) -> Result<(String, usize)> {
        let len: usize = pieces.iter().map(|p| p.as_ref().len()).sum();
        let mut rewriter = LineRewriter::new(self, TextSink::with_capacity(len + len / 8));
        for piece in pieces {
            codec::read_lines(piece.as_ref(), &mut rewriter)?;
        }
        match rewriter.refused {
            Some((_, e)) => Err(e),
            None => Ok((rewriter.sink.into_string(), rewriter.rows)),
        }
    }
}

/// One step of [`LineRewriter::read_fast`] along a line.
enum Step {
    /// Pass-through columns `from..to`: each cell checked where it
    /// stands, then the run copied as one span, delimiters included.
    Copy { from: usize, to: usize },
    /// A categorical column of strings: one lookup, one store.
    Lookup(usize),
}

/// Job 2's reader of one part-file's lines, writing the output text.
///
/// Its fast path takes a line whose every cell is copied as it stands or
/// is a value of its categorical column's map, checked with the field
/// kernels where it lies: a pass-through integer or double spelled as its
/// writer spells it, a boolean `true` / `false`, a string with no `\`
/// (its own escape, and not the NULL marker), and a categorical string the
/// map holds. Any other line — a NULL, an escape, a number spelled
/// otherwise, an unseen value, a wrong arity, a last line with no `\n` —
/// is rolled back and goes through [`TextLine::cells`] to
/// [`Self::read_line`], which rewrites or refuses it cell by cell. Both
/// write the same bytes for a line both take.
struct LineRewriter<'a> {
    input: &'a Schema,
    /// Per input column: its type and the delimiter that ends it (`\n` for
    /// the last). The output keeps each delimiter: a categorical column's
    /// text ends in it too.
    cells: Vec<(DataType, u8)>,
    /// Per input column: the texts of a categorical one.
    columns: Vec<Option<CellTexts<'a>>>,
    /// The fast path's walk along a line; empty (every line refused) when
    /// a categorical column is not a string column, or there is none.
    steps: Vec<Step>,
    sink: TextSink,
    rows: usize,
    /// The leftmost categorical column's first applier error.
    refused: Option<(usize, SqlmlError)>,
    /// A pass-through cell [`Self::read_line`] rewrites.
    scratch: String,
}

impl<'a> LineRewriter<'a> {
    fn new(applier: &'a FlatRecodeApplier, sink: TextSink) -> LineRewriter<'a> {
        let fields = applier.input.fields();
        let cells: Vec<(DataType, u8)> = (fields.iter().enumerate())
            .map(|(c, f)| {
                (
                    f.data_type,
                    if c + 1 == fields.len() { b'\n' } else { b'|' },
                )
            })
            .collect();
        let columns: Vec<Option<CellTexts<'a>>> = (applier.actions.iter().zip(&cells))
            .map(|(action, &(_, delim))| CellTexts::new(action, delim))
            .collect();
        let mut steps = Vec::new();
        let looked_up = (columns.iter().zip(&cells))
            .all(|(texts, &(ty, _))| texts.is_none() || ty == DataType::Str);
        for (c, texts) in columns.iter().enumerate().filter(|_| looked_up) {
            match (texts, steps.last_mut()) {
                (None, Some(Step::Copy { to, .. })) => *to = c + 1,
                (None, _) => steps.push(Step::Copy { from: c, to: c + 1 }),
                (Some(_), _) => steps.push(Step::Lookup(c)),
            }
        }
        LineRewriter {
            input: &applier.input,
            cells,
            columns,
            steps,
            sink,
            rows: 0,
            refused: None,
            scratch: String::new(),
        }
    }
}

impl LineReader for LineRewriter<'_> {
    fn read_fast(&mut self, text: &str, at: usize) -> Option<usize> {
        if self.steps.is_empty() {
            return None;
        }
        let bytes = text.as_bytes();
        let mark = self.sink.mark();
        let mut pos = at;
        for step in &self.steps {
            let next = match *step {
                Step::Copy { from, to } => {
                    let end = (self.cells[from..to].iter())
                        .try_fold(pos, |at, &(ty, delim)| copied_field(bytes, at, ty, delim));
                    end.inspect(|&end| self.sink.put_span(bytes, pos, end))
                }
                Step::Lookup(c) => self.columns[c].as_mut().and_then(|texts| {
                    let end = codec::str_field(bytes, pos, texts.delim)?;
                    let level = texts.level_at(text, pos, end)?;
                    texts.put(Some(level), &mut self.sink);
                    Some(end + 1)
                }),
            };
            match next {
                Some(next) => pos = next,
                None => {
                    self.sink.rewind(mark);
                    return None;
                }
            }
        }
        self.rows += 1;
        Some(pos)
    }

    fn read_line(&mut self, line: &TextLine<'_>) -> Result<()> {
        let LineRewriter {
            cells,
            columns,
            sink,
            refused,
            scratch,
            ..
        } = self;
        line.cells(self.input, |c, ty, cell| {
            let Some(texts) = &mut columns[c] else {
                scratch.clear();
                copy_cell(cell, ty, scratch)?;
                scratch.push(char::from(cells[c].1));
                sink.put_slice(scratch.as_bytes());
                return Ok(());
            };
            let level = match (cell, ty) {
                (None, _) => Ok(None),
                (Some(s), DataType::Str) => texts.level(s).map(Some),
                (Some(s), ty) => match Value::parse_typed(s, ty)? {
                    Value::Null => Ok(None),
                    other => Err(not_categorical(&other, texts.name)),
                },
            };
            match level {
                Ok(level) => texts.put(level, sink),
                Err(e) => {
                    if refused.as_ref().is_none_or(|(first, _)| c < *first) {
                        *refused = Some((c, e));
                    }
                }
            }
            Ok(())
        })?;
        self.rows += 1;
        Ok(())
    }
}

/// The offset past a pass-through field at `bytes[at..]` and its `delim`
/// when the field is copied as it stands: what [`copy_cell`] writes for
/// it is the field itself. `None` for any other field.
#[inline]
fn copied_field(bytes: &[u8], at: usize, ty: DataType, delim: u8) -> Option<usize> {
    match ty {
        DataType::Int => codec::written_int_field(bytes, at, delim),
        DataType::Double => codec::written_double_field(bytes, at, delim),
        DataType::Str => codec::str_field(bytes, at, delim).map(|end| end + 1),
        DataType::Bool => {
            let end = codec::str_field(bytes, at, delim)?;
            matches!(bytes.get(at..end)?, b"true" | b"false").then_some(end + 1)
        }
    }
}

/// A pass-through cell as the column writers write its decoded value: an
/// integer or a double already spelled so is copied, any other parsed and
/// written; a string is escaped back, which gives the raw field again.
fn copy_cell(cell: Option<&str>, ty: DataType, out: &mut String) -> Result<()> {
    match (cell, ty) {
        (None, _) => out.push_str(TEXT_NULL),
        (Some(s), DataType::Str) => codec::escape_text(s, out),
        (Some(s), DataType::Int) if codec::is_written_int(s) => out.push_str(s),
        (Some(s), DataType::Int) => match codec::parse_int_cell(s)? {
            Some(v) => codec::write_int(v, out),
            None => out.push_str(TEXT_NULL),
        },
        (Some(s), DataType::Double) if codec::is_written_double(s) => out.push_str(s),
        (Some(s), DataType::Double) => match codec::parse_double_cell(s)? {
            Some(v) => codec::write_double(v, out),
            None => out.push_str(TEXT_NULL),
        },
        (Some(s), ty) => codec::encode_text_value(&Value::parse_typed(s, ty)?, out),
    }
    Ok(())
}

/// `packed` of a map value that does not pack: no `str` packs to it, as
/// `0xFF` is never a byte of UTF-8.
const UNPACKED: u64 = u64::MAX;

/// The output cells of one categorical column within one part-file: each
/// level's code or coded block, followed by the column's delimiter,
/// rendered on first sight. A value's level is looked up in order while
/// the map holds at most eight values — a short value as one packed word
/// ([`codec::packed`]) — and hashed beyond that.
struct CellTexts<'a> {
    name: &'a str,
    values: &'a [String],
    coding: Option<Coding>,
    /// The column's delimiter, after each of its cells.
    delim: u8,
    /// Level `k`'s cell at `k`, the NULL cell (`\N`, or the coding's
    /// all-zero block) at `values.len()`.
    table: CellTable,
    /// Each value packed, or [`UNPACKED`], when there are at most eight.
    few: Vec<u64>,
    /// Value → level, built on first use when there are more than eight.
    index: Option<HashMap<&'a str, usize>>,
}

impl<'a> CellTexts<'a> {
    /// `None` for a pass-through column.
    fn new(action: &'a ColumnAction, delim: u8) -> Option<CellTexts<'a>> {
        let (name, values, coding) = match action {
            ColumnAction::Pass => return None,
            ColumnAction::Recode { name, values } => (name, values, None),
            ColumnAction::Expand {
                name,
                values,
                coding,
            } => (name, values, Some(*coding)),
        };
        let few = match values.len() {
            0..=8 => (values.iter())
                .map(|v| codec::packed(v.as_bytes()).unwrap_or(UNPACKED))
                .collect(),
            _ => Vec::new(),
        };
        Some(CellTexts {
            name,
            values,
            coding,
            delim,
            table: CellTable::new(values.len() + 1),
            few,
            index: None,
        })
    }

    /// The level of the value `s`, or its `unseen value` error.
    fn level(&mut self, s: &str) -> Result<usize> {
        let values = self.values;
        let level = match values.len() {
            0..=8 => values.iter().position(|v| v == s),
            _ => (self.index)
                .get_or_insert_with(|| (values.iter().map(String::as_str)).zip(0..).collect())
                .get(s)
                .copied(),
        };
        level.ok_or_else(|| unseen(s, self.name))
    }

    /// The level of the value `text[start..end]`, `None` when the map
    /// lacks it: among at most eight values a short one is one packed
    /// word compared in order.
    #[inline]
    fn level_at(&mut self, text: &str, start: usize, end: usize) -> Option<usize> {
        match codec::packed_at(text.as_bytes(), start, end) {
            // Map values are distinct: at most one matches, found with no
            // branch on the data.
            Some(key) if !self.few.is_empty() => (self.few.iter().zip(0..)).fold(
                None,
                |found, (&k, level)| if k == key { Some(level) } else { found },
            ),
            _ => self.level(text.get(start..end)?).ok(),
        }
    }

    /// Append the cell of `level` (`None` for NULL), rendering it first
    /// if this is its first sight.
    #[inline]
    fn put(&mut self, level: Option<usize>, sink: &mut TextSink) {
        let k = level.unwrap_or(self.values.len());
        if !self.table.has(k) {
            self.render(k);
        }
        self.table.put(k, sink);
    }

    /// Render cell `k`: level `k`'s code, or the coding's block as
    /// [`Batch::encode_text`] writes the one row [`Coding::expand`] gives
    /// (NULL's, at `k = values.len()`, is `\N` or the all-zero block).
    #[cold]
    fn render(&mut self, k: usize) {
        let level = (k < self.values.len()).then_some(k);
        let mut text = String::new();
        match (self.coding, level) {
            (None, None) => text.push_str(TEXT_NULL),
            (None, Some(l)) => codec::write_int(l as i64 + 1, &mut text),
            (Some(coding), level) => {
                let block = coding.expand(&[level], self.values.len());
                text = Batch::new(block, 1).encode_text();
                text.pop();
            }
        }
        self.table.set(k, text.as_bytes(), self.delim);
    }
}

/// The level (code − 1) of every row of a categorical column (`None` for
/// NULL). A string column resolves its dictionary once — only entries a
/// row references can be "unseen" — and maps codes; any other column is
/// read cell by cell.
fn row_levels(col: &Column, values: &[String], name: &str) -> Result<Vec<Option<usize>>> {
    let Column::Str(d) = col else {
        return (0..col.len())
            .map(|i| level_of_cell(values, &col.value(i), name))
            .collect();
    };
    let by_code: Vec<Option<usize>> = (d.entries().iter()).map(|s| level_of(values, s)).collect();
    (d.codes().iter())
        .map(|&c| match by_code.get(c as usize) {
            None => Ok(None),
            Some(Some(l)) => Ok(Some(*l)),
            Some(None) => Err(unseen(&d.entries()[c as usize], name)),
        })
        .collect()
}

/// The level of one categorical cell: `None` for NULL.
fn level_of_cell(values: &[String], v: &Value, col: &str) -> Result<Option<usize>> {
    match v {
        Value::Null => Ok(None),
        Value::Str(s) => level_of(values, s).map(Some).ok_or_else(|| unseen(s, col)),
        other => Err(not_categorical(other, col)),
    }
}

fn not_categorical(v: &Value, col: &str) -> SqlmlError {
    SqlmlError::Type(format!("expected a categorical string in {col}, found {v}"))
}

fn unseen(s: &str, col: &str) -> SqlmlError {
    SqlmlError::Execution(format!("unseen value {s:?} for {col}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TransformSpec;
    use sqlml_common::schema::Field;
    use sqlml_common::{row, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::categorical("abandoned"),
        ])
    }

    fn map() -> RecodeMap {
        RecodeMap::from_pairs(vec![
            ("gender".into(), "F".into()),
            ("gender".into(), "M".into()),
            ("abandoned".into(), "Yes".into()),
            ("abandoned".into(), "No".into()),
        ])
    }

    /// The applier of `spec` bound to [`schema`], over `map`.
    fn applier(map: &RecodeMap, spec: &TransformSpec) -> Result<FlatRecodeApplier> {
        FlatRecodeApplier::new(map, &spec.bind(&schema())?)
    }

    /// `a` over `rows` as one partition, back as rows.
    fn apply(a: &FlatRecodeApplier, rows: &[Row]) -> Result<Vec<Row>> {
        Ok(a.apply_batch(&Batch::from_rows(&schema(), rows))?.rows())
    }

    #[test]
    fn recode_matches_map_code() {
        let (m, spec) = (map(), TransformSpec::default());
        let a = applier(&m, &spec).unwrap();
        let out = apply(&a, &[row![30i64, "F", "Yes"]]).unwrap();
        assert_eq!(out, [row![30i64, 1i64, 2i64]]);
        assert_eq!(a.output_schema().names(), ["age", "gender", "abandoned"]);
    }

    #[test]
    fn dummy_expansion_and_null_blocks() {
        let (m, spec) = (map(), TransformSpec::new(&["gender"]));
        let a = applier(&m, &spec).unwrap();
        // F -> (1, 0); abandoned recodes. NULL gender -> all-zero block.
        let null_gender = Row::new(vec![Value::Int(30), Value::Null, Value::Str("No".into())]);
        let out = apply(&a, &[row![30i64, "F", "No"], null_gender]).unwrap();
        assert_eq!(
            out,
            [row![30i64, 1i64, 0i64, 1i64], row![30i64, 0i64, 0i64, 1i64]]
        );
        assert_eq!(
            a.output_schema().names(),
            ["age", "gender_F", "gender_M", "abandoned"]
        );
        assert!(a
            .output_schema()
            .fields()
            .iter()
            .all(|f| f.data_type == DataType::Int));
    }

    #[test]
    fn unseen_value_errors() {
        let (m, spec) = (map(), TransformSpec::default());
        let a = applier(&m, &spec).unwrap();
        let err = apply(&a, &[row![30i64, "X", "Yes"]]).unwrap_err();
        assert!(err.to_string().contains("unseen value"), "{err}");
    }

    #[test]
    fn non_string_in_categorical_errors() {
        let (m, spec) = (map(), TransformSpec::default());
        let a = applier(&m, &spec).unwrap();
        let bad = Row::new(vec![Value::Int(30), Value::Int(7), Value::Str("No".into())]);
        assert!(apply(&a, &[bad]).is_err());
    }

    #[test]
    fn contrast_codings_expand_as_double_and_null_is_an_all_zero_row() {
        let null_gender = Row::new(vec![Value::Int(30), Value::Null, Value::Str("No".into())]);
        let rows = [row![30i64, "F", "No"], row![30i64, "M", "No"], null_gender];
        for (coding, name, f, m) in [
            (Coding::Effect, "gender_eff1", 1.0, -1.0),
            (Coding::Helmert, "gender_orth1", -1.0, 1.0),
        ] {
            let spec = TransformSpec::coded(&[("gender", coding)]);
            let a = applier(&map(), &spec).unwrap();
            assert_eq!(a.output_schema().names(), ["age", name, "abandoned"]);
            assert_eq!(a.output_schema().field(1).data_type, DataType::Double);
            let input = Batch::from_rows(&schema(), &rows);
            let out = a.apply_batch(&input).unwrap();
            let expected = [f, m, 0.0].map(|c| row![30i64, c, 1i64]);
            assert_eq!(out.rows(), expected, "{coding}");
            // The pass-through column is the input's, shared.
            assert!(Arc::ptr_eq(out.column(0), input.column(0)), "{coding}");
        }
    }

    #[test]
    fn specs_that_would_silently_lose_columns_are_rejected() {
        let m = map();
        let err = |map: &RecodeMap, spec: &TransformSpec| {
            let built = applier(map, spec);
            built.err().map(|e| e.to_string()).unwrap_or_default()
        };
        // A recode column the table does not have.
        let country = TransformSpec {
            recode_columns: vec!["country".into()],
            coded_columns: vec![],
        };
        assert!(!err(&m, &country).is_empty());
        // A coded column that is not recoded.
        let unrecoded = TransformSpec {
            recode_columns: vec!["gender".into()],
            coded_columns: vec![("abandoned".into(), Coding::Dummy)],
        };
        assert!(!err(&m, &unrecoded).is_empty());
        // A coded column the map has too few values for: zero indicators,
        // or no contrast to draw.
        let partial = RecodeMap::from_pairs(vec![
            ("gender".into(), "F".into()),
            ("abandoned".into(), "No".into()),
        ]);
        for (map, coding) in [
            (&partial, Coding::Effect),
            (&partial, Coding::Helmert),
            (&RecodeMap::default(), Coding::Dummy),
        ] {
            let e = err(map, &TransformSpec::coded(&[("gender", coding)]));
            let needs = format!("{coding}-coded column \"gender\" needs at least");
            assert!(e.starts_with("plan error") && e.contains(&needs), "{e}");
        }
        // One value is enough to dummy-code.
        let one = applier(&partial, &TransformSpec::new(&["gender"]));
        assert_eq!(one.unwrap().output_schema().names()[1], "gender_F");
    }
}
