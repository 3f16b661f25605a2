//! The text format of a [`Batch`]: the part-file a partition is saved to
//! the DFS as, and loaded back from.
//!
//! The encoder resolves every column once per batch into a [`CellWriter`]
//! — its kind, its validity, its delimiter (`|`, or `\n` for the last
//! column), and for a string column or a small-range integer column a
//! [`CellTable`] of cells rendered once — and then writes row-major into
//! one [`TextSink`]: each cell together with its delimiter is one
//! fixed-width store. The decoder ([`TextDecoder`]) reads each line's
//! fields where they stand, each field's parser finding the field's end;
//! a line it cannot take goes through [`TextLine::cells`], the one owner
//! of the NULL marker, escapes and arity errors.

use std::sync::Arc;

use sqlml_common::codec::{self, CellTable, LineReader, TextLine, TextSink};
use sqlml_common::schema::DataType;
use sqlml_common::{Result, Schema, Value};

use crate::column::{Batch, BatchBuilder, Column, Prim};

/// The NULL marker, stored with its delimiter after it.
const NULL_CELL: [u8; 4] = *b"\\N\0\0";

/// How one column's cells are written, resolved once per batch.
enum Cells<'a> {
    /// Integers, each rendered where it is written.
    Int(&'a [i64]),
    /// Integers of a range small against the row count, each value
    /// rendered once: the cell of `v` is `v - min`.
    IntTable {
        values: &'a [i64],
        min: i64,
        table: CellTable,
    },
    Double(&'a [f64]),
    Bool(&'a [bool]),
    /// Dictionary codes: an entry is escaped once, when a row first
    /// references it, so a filtered dictionary's other entries cost
    /// nothing.
    Str {
        codes: &'a [u32],
        entries: &'a [Arc<str>],
        table: CellTable,
    },
    Mixed(&'a [Value]),
}

/// One column's cell writer.
struct CellWriter<'a> {
    cells: Cells<'a>,
    /// `None`: every slot is valid.
    valid: Option<&'a [bool]>,
    delim: u8,
}

impl<'a> CellWriter<'a> {
    fn new(col: &'a Column, delim: u8) -> CellWriter<'a> {
        let (cells, valid) = match col {
            Column::Int(p) => (int_cells(p, delim), p.validity()),
            Column::Double(p) => (Cells::Double(p.values()), p.validity()),
            Column::Bool(p) => (Cells::Bool(p.values()), p.validity()),
            Column::Str(d) => {
                let table = CellTable::new(d.cardinality());
                let (codes, entries) = (d.codes(), d.entries());
                let cells = Cells::Str {
                    codes,
                    entries,
                    table,
                };
                (cells, None)
            }
            Column::Mixed(values) => (Cells::Mixed(values), None),
        };
        CellWriter {
            cells,
            valid,
            delim,
        }
    }

    /// Append row `i`'s cell and the delimiter.
    #[inline]
    fn write(&mut self, i: usize, sink: &mut TextSink) {
        let delim = self.delim;
        if self.valid.is_some_and(|v| !v[i]) {
            return sink.put_cell(NULL_CELL, 2, delim);
        }
        match &mut self.cells {
            Cells::Int(values) => {
                sink.put_int(values[i], delim);
            }
            Cells::IntTable { values, min, table } => {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let k = values[i].wrapping_sub(*min) as u64 as usize;
                table.put(k, sink);
            }
            Cells::Double(values) => sink.put_double(values[i], delim),
            Cells::Bool(values) => match values[i] {
                true => sink.put_cell(*b"true\0\0", 4, delim),
                false => sink.put_cell(*b"false\0", 5, delim),
            },
            Cells::Str {
                codes,
                entries,
                table,
            } => {
                let code = codes[i] as usize;
                if !table.has(code) {
                    let Some(entry) = entries.get(code) else {
                        // NULL_CODE indexes no entry.
                        return sink.put_cell(NULL_CELL, 2, delim);
                    };
                    let mut escaped = String::with_capacity(entry.len());
                    codec::escape_text(entry, &mut escaped);
                    table.set(code, escaped.as_bytes(), delim);
                }
                table.put(code, sink);
            }
            Cells::Mixed(values) => {
                let mut cell = String::new();
                codec::encode_text_value(&values[i], &mut cell);
                sink.put_slice(cell.as_bytes());
                sink.put(&[delim], 1);
            }
        }
    }
}

/// An integer column's cells: a table of every value in its range when
/// the range is under half the row count (rendering it costs less than
/// rendering the rows), rendered one by one otherwise.
fn int_cells(p: &Prim<i64>, delim: u8) -> Cells<'_> {
    let values = p.values();
    let mut valid = (0..values.len())
        .filter(|&i| p.is_valid(i))
        .map(|i| values[i]);
    let Some(first) = valid.next() else {
        return Cells::Int(values);
    };
    let (min, max) = valid.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v)));
    let range = i128::from(max) - i128::from(min) + 1;
    let Some(cells) = usize::try_from(range)
        .ok()
        .filter(|&r| r < values.len() / 2)
    else {
        return Cells::Int(values);
    };
    let mut table = CellTable::new(cells);
    for (k, v) in (min..=max).enumerate() {
        let mut cell = [0; codec::CELL_BYTES];
        let len = codec::int_cell(v, &mut cell);
        table.set(k, &cell[..len], delim);
    }
    Cells::IntTable { values, min, table }
}

impl Batch {
    /// The text-format lines of every row: the string
    /// `codec::encode_text_batch(&self.rows())` returns, written row by
    /// row from the typed vectors, each cell and its delimiter one
    /// fixed-width store into a sink sized by `Column::approx_bytes` up
    /// front.
    pub fn encode_text(&self) -> String {
        if self.width() == 0 {
            return "\n".repeat(self.len());
        }
        let bytes: u64 = self.columns().iter().map(|c| c.approx_bytes()).sum();
        let mut sink = TextSink::with_capacity(usize::try_from(bytes).unwrap_or(0) + self.len());
        let last = self.width() - 1;
        let mut writers: Vec<CellWriter<'_>> = (self.columns().iter().enumerate())
            .map(|(c, col)| CellWriter::new(col, if c == last { b'\n' } else { b'|' }))
            .collect();
        for i in 0..self.len() {
            for w in &mut writers {
                w.write(i, &mut sink);
            }
        }
        sink.into_string()
    }

    /// Parse a text blob into columns: the rows
    /// `codec::decode_text_batch(text, schema)` returns, or its error,
    /// line for line the lines [`codec::read_lines`] reads. A number goes
    /// from its field parser straight into its column's vector. The
    /// columns are sized up front from the lines of the blob's first
    /// 4 KiB.
    pub fn decode_text(text: &str, schema: &Schema) -> Result<Batch> {
        decode_pieces(&[text], schema)
    }
}

/// [`Batch::decode_text`] of the text that `pieces` of whole lines make
/// in order, as a part-file's blocks are read in place
/// ([`codec::text_pieces`]). The columns are sized from the lines of the
/// first piece's first 4 KiB, extrapolated to the whole with a sixteenth
/// to spare.
pub(crate) fn decode_pieces(pieces: &[impl AsRef<str>], schema: &Schema) -> Result<Batch> {
    let head = pieces.first().map_or("", |p| p.as_ref());
    let sample = &head.as_bytes()[..head.len().min(4096)];
    let lines = sample.iter().filter(|&&b| b == b'\n').count() + 1;
    let len: usize = pieces.iter().map(|p| p.as_ref().len()).sum();
    let estimate = (len * lines).div_ceil(sample.len().max(1));
    let mut decoder = TextDecoder {
        schema,
        batch: BatchBuilder::new(schema, estimate + estimate / 16),
    };
    for piece in pieces {
        codec::read_lines(piece.as_ref(), &mut decoder)?;
    }
    Ok(decoder.batch.finish())
}

/// Decodes lines into a batch under a schema.
struct TextDecoder<'s> {
    schema: &'s Schema,
    batch: BatchBuilder,
}

impl LineReader for TextDecoder<'_> {
    /// A line whose every field its column's parser takes as it stands;
    /// any other line (a NULL, an escape, a cell a parser leaves to
    /// `str::parse`, a wrong arity) is taken back cell by cell and left
    /// to [`Self::read_line`].
    fn read_fast(&mut self, text: &str, mut at: usize) -> Option<usize> {
        let bytes = text.as_bytes();
        let fields = self.schema.fields();
        let rows = self.batch.rows;
        let last = fields.len().checked_sub(1)?;
        for (c, (field, col)) in fields.iter().zip(&mut self.batch.columns).enumerate() {
            let delim = if c == last { b'\n' } else { b'|' };
            let next = match field.data_type {
                DataType::Int => codec::int_field(bytes, at, delim).map(|(v, next)| {
                    col.push_int(Some(v));
                    next
                }),
                DataType::Double => codec::double_field(bytes, at, delim).map(|(v, next)| {
                    col.push_double(Some(v));
                    next
                }),
                DataType::Str => codec::str_field(bytes, at, delim).and_then(|end| {
                    col.push_str(text.get(at..end)?);
                    Some(end + 1)
                }),
                DataType::Bool => codec::str_field(bytes, at, delim).and_then(|end| {
                    let v = Value::parse_typed(text.get(at..end)?, DataType::Bool).ok();
                    // An empty field, a NULL, is left to `read_line`.
                    col.push(&v.filter(|v| !v.is_null())?);
                    Some(end + 1)
                }),
            };
            match next {
                Some(next) => at = next,
                None => {
                    for col in &mut self.batch.columns[..c] {
                        col.truncate(rows);
                    }
                    return None;
                }
            }
        }
        self.batch.rows += 1;
        Some(at)
    }

    fn read_line(&mut self, line: &TextLine<'_>) -> Result<()> {
        let columns = &mut self.batch.columns;
        line.cells(self.schema, |c, ty, field| {
            let col = &mut columns[c];
            match (field, ty) {
                (None, _) => col.push(&Value::Null),
                (Some(s), DataType::Str) => col.push_str(s),
                (Some(s), DataType::Int) => col.push_int(codec::parse_int_cell(s)?),
                (Some(s), DataType::Double) => col.push_double(codec::parse_double_cell(s)?),
                (Some(s), ty) => col.push(&Value::parse_typed(s, ty)?),
            }
            Ok(())
        })?;
        self.batch.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::schema::Field;
    use sqlml_common::{Row, SplitMix64};

    /// Rows per batch at partition scale; Miri runs a few hundred.
    const ROWS: usize = if cfg!(miri) { 300 } else { 50_000 };

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("small", DataType::Int),
            Field::new("full", DataType::Int),
            Field::new("amount", DataType::Double),
            Field::categorical("s"),
            Field::new("b", DataType::Bool),
            Field::new("edge", DataType::Double),
        ])
    }

    /// A row of every cell kind the encoder resolves: small-range and
    /// full-range integers (`i64::MIN` and a range ending there among
    /// them), two-decimal and edge doubles, strings that need escapes
    /// and a NULL in every column now and then.
    fn row(rng: &mut SplitMix64, low: i64) -> Row {
        const STRINGS: [&str; 9] = ["Yes", "No", "", "a|b", "x\\y", "\\N", "l\nm", "ü", "Yes\r"];
        let below_1e9 = f64::from_bits(1e9f64.to_bits() - 1);
        let edges = [
            1e-4,
            below_1e9,
            0.0,
            -0.0,
            5e-324,
            -2.2e-308,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
            -1234.5,
            1e21,
        ];
        let cells = [
            Value::Int(low + rng.range_i64(0, 40)),
            Value::Int(match rng.next_below(4) {
                0 => *rng.choose(&[i64::MIN, i64::MAX, 0, -1]),
                1 => rng.range_i64(-99_999, 99_999),
                _ => (rng.next_u64() as i64) >> rng.next_below(64),
            }),
            Value::Double((rng.range_i64(-20_000, 20_000) as f64) / 100.0),
            Value::str(*rng.choose(&STRINGS)),
            Value::Bool(rng.chance(0.5)),
            Value::Double(match rng.next_below(3) {
                0 => *rng.choose(&edges),
                1 => f64::from_bits(rng.next_u64()),
                _ => rng.next_f64() * 1e6,
            }),
        ];
        (cells.into_iter())
            .map(|v| if rng.chance(0.05) { Value::Null } else { v })
            .collect()
    }

    #[test]
    fn the_column_text_codec_agrees_with_the_row_codec_at_partition_scale() {
        let mut rng = SplitMix64::new(0x0050_000A);
        let schema = schema();
        for low in [2_000, i64::MIN, i64::MAX - 40] {
            let rows: Vec<Row> = (0..ROWS + ROWS / 4).map(|_| row(&mut rng, low)).collect();
            let built = Batch::from_rows(&schema, &rows);
            // Keep four rows in five: the string column's dictionary
            // outlives the filter, with entries no row references.
            let kept: Vec<u32> = (0..rows.len() as u32).filter(|i| i % 5 != 3).collect();
            let batch = built.gather(&kept[..ROWS.min(kept.len())]);
            let Column::Str(d) = &**batch.column(3) else {
                panic!("the string column is a dictionary");
            };
            assert!(d.referenced_entries().len() <= d.cardinality());
            let text = batch.encode_text();
            let want = codec::encode_text_batch(&batch.rows());
            let first = (text.bytes().zip(want.bytes())).position(|(a, b)| a != b);
            assert_eq!((first, text.len()), (None, want.len()), "low {low}");
            // Lines the fast path refuses, near the end of a long text:
            // a NULL marker, an escape, a number `str::parse` reads, a
            // bad cell, a wrong arity; three per batch. Rows, or the
            // error, as the row decoder gives them.
            const REFUSED: [&str; 8] = [
                "\\N|\\N|\\N|\\N|\\N|\\N",
                "1|2|3.0|a\\pb|true|4.5",
                "+1|007|1e3|x|TRUE|-0",
                "1|2|3.0|x|true",
                "1|2|3.0|x|true|4.5|6",
                "1|2x|3.0|x|true|4.5",
                "1|2|3.0|\\q|true|4.5",
                "1|2|3.0|x|maybe|4.5",
            ];
            let lines: Vec<&str> = text.lines().collect();
            for k in 0..4 {
                // The text as written, then three with a refused line.
                let bad = if k == 0 { "" } else { *rng.choose(&REFUSED) };
                let mut mutated = lines.clone();
                let at = mutated.len() - 1 - rng.next_below(50) as usize;
                mutated.insert(at, bad);
                let mutated = mutated.join("\n");
                let want = codec::decode_text_batch(&mutated, &schema).map_err(|e| e.to_string());
                let got = Batch::decode_text(&mutated, &schema).map(|b| b.rows());
                match (got.map_err(|e| e.to_string()), want) {
                    // Rows compare NaN bit for bit, as `Value`'s equality
                    // does.
                    (Ok(got), Ok(want)) => {
                        let first = (got.iter().zip(&want)).position(|(a, b)| a != b);
                        assert_eq!((first, got.len()), (None, want.len()), "{bad}");
                    }
                    (got, want) => assert_eq!(got, want, "{bad}"),
                }
            }
        }
    }
}
