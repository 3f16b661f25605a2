//! Row codecs.
//!
//! Two encodings are used across the system, matching the paper's setup:
//!
//! * **Text format** — delimiter-separated lines, the format of tables
//!   stored on the DFS ("Both tables were stored in text format on HDFS").
//!   Used by the naive pipeline's materialization hops and by
//!   `TextInputFormat` on the ML side.
//! * **Compact batch format** — self-delimiting batches of tagged
//!   values, used on the streaming-transfer wire and for message-queue
//!   records: integers are LEB128 varints (zigzag for signed) and string
//!   cells are varint references into a per-batch dictionary, so a
//!   categorical value repeated across the rows of one batch is shipped
//!   exactly once.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::BufMut;

use crate::error::{Result, SqlmlError};
use crate::intern::Interner;
use crate::row::Row;
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// Field delimiter for the text format. `|` keeps commas usable inside
/// string payloads without quoting rules.
pub const TEXT_DELIM: char = '|';

/// Escape a string payload for the text format: delimiter, backslash and
/// newline are backslash-escaped so any string round-trips.
pub fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\p"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn unescape_text(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('p') => out.push('|'),
            Some('n') => out.push('\n'),
            other => {
                return Err(SqlmlError::Execution(format!(
                    "bad escape sequence \\{other:?} in text field"
                )))
            }
        }
    }
    Ok(out)
}

/// Encode one row as a text line (no trailing newline).
pub fn encode_text_row(row: &Row, out: &mut String) {
    for (i, v) in row.values().iter().enumerate() {
        if i > 0 {
            out.push(TEXT_DELIM);
        }
        encode_text_value(v, out);
    }
}

/// Encode one cell of a text line. A column encoder that already holds
/// the `&str` of a string cell calls [`escape_text`] instead.
pub fn encode_text_value(v: &Value, out: &mut String) {
    match v {
        Value::Str(s) => escape_text(s, out),
        other => out.push_str(&other.render()),
    }
}

/// Decode one text line into a row under `schema`.
pub fn decode_text_row(line: &str, schema: &Schema) -> Result<Row> {
    decode_text_row_with(line, schema, None)
}

/// Decode one text line, pooling string values through `interner` so
/// repeated categorical values share one `Arc<str>` allocation.
pub fn decode_text_row_interned(
    line: &str,
    schema: &Schema,
    interner: &mut Interner,
) -> Result<Row> {
    decode_text_row_with(line, schema, Some(interner))
}

fn decode_text_row_with(
    line: &str,
    schema: &Schema,
    mut interner: Option<&mut Interner>,
) -> Result<Row> {
    let mut values = Vec::with_capacity(schema.len());
    decode_text_line(line, schema, |_, ty, text| {
        values.push(match (text, ty) {
            (None, _) => Value::Null,
            // Strings bypass `parse_typed` so that the empty string stays
            // an empty string rather than being read back as NULL.
            (Some(text), DataType::Str) => match interner.as_deref_mut() {
                Some(pool) => Value::Str(pool.intern(text)),
                None => Value::Str(text.into()),
            },
            (Some(text), ty) => Value::parse_typed(text, ty)?,
        });
        Ok(())
    })?;
    Ok(Row::new(values))
}

/// Walk one text line under `schema`, handing `cell` each field's column
/// index, declared type and unescaped text (`None` for the NULL marker).
/// The one owner of field splitting, the `\N` marker, unescaping and the
/// arity errors, so the row decoder and the SQL engine's column loader
/// accept exactly the same lines.
pub fn decode_text_line(
    line: &str,
    schema: &Schema,
    mut cell: impl FnMut(usize, DataType, Option<&str>) -> Result<()>,
) -> Result<()> {
    let mut fields = split_escaped(line);
    for (i, field) in schema.fields().iter().enumerate() {
        let raw = fields.next().ok_or_else(|| {
            SqlmlError::Execution(format!(
                "text row has fewer than {} fields: {line:?}",
                schema.len()
            ))
        })?;
        // The raw (pre-unescape) token `\N` is the NULL marker; a user
        // string "\N" escapes to `\\N` and therefore never collides.
        if raw == "\\N" {
            cell(i, field.data_type, None)?;
        } else {
            cell(i, field.data_type, Some(&unescape_text(raw)?))?;
        }
    }
    if fields.next().is_some() {
        return Err(SqlmlError::Execution(format!(
            "text row has more than {} fields: {line:?}",
            schema.len()
        )));
    }
    Ok(())
}

/// Split on unescaped delimiters (a `\|` produced by [`escape_text`] is
/// `\p`, so a raw `|` is always a separator — but we still must not split
/// inside an escape pair ending in `p`).
fn split_escaped(line: &str) -> impl Iterator<Item = &str> {
    line.split(TEXT_DELIM)
}

/// Serialize a whole batch of rows to text lines.
pub fn encode_text_batch(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        encode_text_row(r, &mut out);
        out.push('\n');
    }
    out
}

/// Parse a text blob (as stored on the DFS) into rows. String cells are
/// interned per batch: all rows carrying the same categorical value
/// share one `Arc<str>` allocation.
pub fn decode_text_batch(text: &str, schema: &Schema) -> Result<Vec<Row>> {
    let mut interner = Interner::new();
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| decode_text_row_interned(l, schema, &mut interner))
        .collect()
}

// ---------------------------------------------------------------------------
// Compact batch format (varints + per-frame string dictionary)
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;

/// Append `v` as an unsigned LEB128 varint (1–10 bytes).
#[inline]
pub fn put_uvarint<B: BufMut>(buf: &mut B, mut v: u64) {
    while v >= 0x80 {
        #[allow(clippy::cast_possible_truncation)]
        buf.put_u8((v as u8) | 0x80); // lint:allow(cast) — masked to the low 7 bits
        v >>= 7;
    }
    #[allow(clippy::cast_possible_truncation)]
    buf.put_u8(v as u8); // lint:allow(cast) — v < 0x80 after the loop
}

/// Wire size of `v` as a varint, without encoding it.
#[inline]
pub fn uvarint_len(v: u64) -> usize {
    let bits = 64 - v.max(1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Read one varint from `buf` starting at `*pos`, advancing `*pos`.
/// Rejects encodings that overflow `u64` (more than 10 bytes or spare
/// bits set in the 10th).
#[inline]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(SqlmlError::Execution("truncated varint".to_string()));
        };
        *pos += 1;
        let bits = u64::from(b & 0x7f);
        if shift >= 64 || (shift == 63 && bits > 1) {
            return Err(SqlmlError::Execution("varint overflows u64".to_string()));
        }
        v |= bits << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-map a signed integer so small magnitudes (of either sign) get
/// short varints: 0, -1, 1, -2 → 0, 1, 2, 3.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Dictionary-compression counters for the compact codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictStats {
    /// String cells that referenced an entry already in the frame's dict.
    pub hits: u64,
    /// String cells that created a new dict entry.
    pub misses: u64,
}

impl DictStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: DictStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Total string-cell lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Incremental encoder for the compact batch format.
///
/// Rows are appended one at a time ([`push_row`](Self::push_row)) while
/// the per-frame dictionary accumulates on the side; the dictionary must
/// precede the rows on the wire, so the frame is assembled in one pass at
/// [`finish_into`](Self::finish_into). Payload layout:
///
/// ```text
/// uvarint dict_count
/// dict_count × (uvarint byte_len, utf8 bytes)   — first-use order
/// uvarint row_count
/// row_count × (uvarint value_count, values)
/// value: tag byte, then
///   BOOL   1 byte
///   INT    uvarint zigzag(i64)
///   DOUBLE 8 bytes LE IEEE-754 bits
///   STR    uvarint dict index
/// ```
///
/// The encoder is reusable across frames: `finish_into` resets the frame
/// state but keeps allocations and lifetime [`DictStats`].
#[derive(Debug, Default)]
pub struct CompactBatchEncoder {
    rows: Vec<u8>,
    dict: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
    dict_wire_bytes: usize,
    row_count: usize,
    frame_stats: DictStats,
    total_stats: DictStats,
}

impl CompactBatchEncoder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one row to the in-progress frame. On error (a dictionary
    /// that outgrew its `u32` index space — practically unreachable) the
    /// frame is rolled back to its pre-row state.
    pub fn push_row(&mut self, row: &Row) -> Result<()> {
        self.push_cells(row.len(), |enc| {
            row.values().iter().try_for_each(|v| enc.put_value(v))
        })
    }

    /// One cell holding `v`, whatever its type.
    #[inline]
    pub fn put_value(&mut self, v: &Value) -> Result<()> {
        match v {
            Value::Null => self.put_null(),
            Value::Bool(b) => self.put_bool(*b),
            Value::Int(i) => self.put_int(*i),
            Value::Double(d) => self.put_double(*d),
            Value::Str(s) => self.put_str(s)?,
        }
        Ok(())
    }

    /// Append one row of `width` cells, written by `cells` through the
    /// `put_*` methods in column order — how an encoder that holds
    /// columns rather than [`Row`]s emits the bytes [`Self::push_row`]
    /// would. On error the frame is rolled back to its pre-row state.
    pub fn push_cells(
        &mut self,
        width: usize,
        cells: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        let rows_mark = self.rows.len();
        let dict_mark = self.dict.len();
        let dict_bytes_mark = self.dict_wire_bytes;
        let stats_mark = self.frame_stats;
        put_uvarint(&mut self.rows, width as u64);
        match cells(self) {
            Ok(()) => {
                self.row_count += 1;
                Ok(())
            }
            Err(e) => {
                self.rows.truncate(rows_mark);
                for entry in self.dict.drain(dict_mark..) {
                    self.index.remove(&entry);
                }
                self.dict_wire_bytes = dict_bytes_mark;
                self.frame_stats = stats_mark;
                Err(e)
            }
        }
    }

    /// One NULL cell (only inside [`Self::push_cells`], like every `put_*`).
    #[inline]
    pub fn put_null(&mut self) {
        self.rows.put_u8(TAG_NULL);
    }

    #[inline]
    pub fn put_bool(&mut self, b: bool) {
        self.rows.put_u8(TAG_BOOL);
        self.rows.put_u8(u8::from(b));
    }

    #[inline]
    pub fn put_int(&mut self, i: i64) {
        self.rows.put_u8(TAG_INT);
        put_uvarint(&mut self.rows, zigzag(i));
    }

    #[inline]
    pub fn put_double(&mut self, d: f64) {
        self.rows.put_u8(TAG_DOUBLE);
        self.rows.put_u64_le(d.to_bits());
    }

    /// One string cell: a reference into the frame dictionary, the entry
    /// added on first use.
    pub fn put_str(&mut self, s: &Arc<str>) -> Result<()> {
        self.rows.put_u8(TAG_STR);
        let idx = match self.index.get(&**s) {
            Some(&i) => {
                self.frame_stats.hits += 1;
                i
            }
            None => {
                let i = crate::error::wire_u32(self.dict.len(), "frame dictionary size")?;
                self.index.insert(Arc::clone(s), i);
                self.dict.push(Arc::clone(s));
                self.dict_wire_bytes += uvarint_len(s.len() as u64) + s.len();
                self.frame_stats.misses += 1;
                i
            }
        };
        put_uvarint(&mut self.rows, u64::from(idx));
        Ok(())
    }

    /// Rows appended since the last `finish_into`.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Exact wire size of the payload `finish_into` would emit now.
    pub fn wire_len(&self) -> usize {
        uvarint_len(self.dict.len() as u64)
            + self.dict_wire_bytes
            + uvarint_len(self.row_count as u64)
            + self.rows.len()
    }

    /// Emit the assembled frame payload (dictionary first, then rows) and
    /// reset the frame state for reuse.
    pub fn finish_into<B: BufMut>(&mut self, buf: &mut B) {
        put_uvarint(buf, self.dict.len() as u64);
        for entry in &self.dict {
            put_uvarint(buf, entry.len() as u64);
            buf.put_slice(entry.as_bytes());
        }
        put_uvarint(buf, self.row_count as u64);
        buf.put_slice(&self.rows);
        self.rows.clear();
        self.dict.clear();
        self.index.clear();
        self.dict_wire_bytes = 0;
        self.row_count = 0;
        self.total_stats.merge(self.frame_stats);
        self.frame_stats = DictStats::default();
    }

    /// Lifetime dictionary counters, including the in-progress frame.
    pub fn stats(&self) -> DictStats {
        let mut s = self.total_stats;
        s.merge(self.frame_stats);
        s
    }
}

/// One-shot convenience over [`CompactBatchEncoder`]: encode `rows` as a
/// single compact frame payload appended to `buf`.
pub fn encode_compact_batch<B: BufMut>(rows: &[Row], buf: &mut B) -> Result<DictStats> {
    let mut enc = CompactBatchEncoder::new();
    for r in rows {
        enc.push_row(r)?;
    }
    enc.finish_into(buf);
    Ok(enc.stats())
}

/// One cell of a compact row; a string cell is its (bounds-checked)
/// dictionary index.
enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(usize),
}

/// Cursor over a compact frame payload — the only code that knows the
/// layout [`CompactBatchEncoder`] documents. Both decoders walk a frame
/// through it (`open`, then per row its cell `count` and that many
/// `cell`s, then `finish`), so they accept exactly the same byte strings.
struct CompactCursor<'a, T> {
    buf: &'a [u8],
    pos: usize,
    /// What the decoder keeps of each dictionary string.
    dict: Vec<T>,
}

impl<'a, T> CompactCursor<'a, T> {
    /// Read the dictionary (every entry's bounds and UTF-8 checked;
    /// `entry` decides what is kept of each string) and the row count.
    fn open(buf: &'a [u8], entry: impl Fn(&'a str) -> T) -> Result<(Self, usize)> {
        let mut cur = CompactCursor {
            buf,
            pos: 0,
            dict: Vec::new(),
        };
        let dict_count = cur.count()?;
        cur.dict.reserve(dict_count.min(1 << 20));
        for _ in 0..dict_count {
            let len = cur.count()?;
            let s = std::str::from_utf8(cur.take(len)?).map_err(|e| {
                SqlmlError::Execution(format!("invalid utf8 in compact dictionary: {e}"))
            })?;
            cur.dict.push(entry(s));
        }
        let row_count = cur.count()?;
        Ok((cur, row_count))
    }

    /// Wire counts are u64; reject anything that does not fit a usize
    /// (only reachable on 32-bit targets with a corrupt frame).
    #[inline]
    fn count(&mut self) -> Result<usize> {
        let v = get_uvarint(self.buf, &mut self.pos)?;
        usize::try_from(v)
            .map_err(|_| SqlmlError::Execution(format!("compact batch count {v} overflows usize")))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let truncated = || SqlmlError::Execution("truncated compact batch".to_string());
        let end = self.pos.checked_add(len).ok_or_else(truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    #[inline]
    fn cell(&mut self) -> Result<Cell> {
        Ok(match self.take(1)?[0] {
            TAG_NULL => Cell::Null,
            TAG_BOOL => Cell::Bool(self.take(1)?[0] != 0),
            TAG_INT => Cell::Int(unzigzag(get_uvarint(self.buf, &mut self.pos)?)),
            TAG_DOUBLE => Cell::Double(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(), // lint:allow(panic) — slice is exactly 8 bytes
            ))),
            TAG_STR => {
                let idx = self.count()?;
                if idx >= self.dict.len() {
                    return Err(SqlmlError::Execution(format!(
                        "compact row references dictionary entry {idx} of {}",
                        self.dict.len()
                    )));
                }
                Cell::Str(idx)
            }
            other => {
                return Err(SqlmlError::Execution(format!(
                    "unknown compact value tag {other}"
                )))
            }
        })
    }

    /// The payload must end with its last row.
    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(SqlmlError::Execution(format!(
                "compact batch has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Decode a compact frame payload written by [`CompactBatchEncoder`],
/// verifying full consumption. Rows referencing the same dictionary entry
/// share one `Arc<str>` allocation.
pub fn decode_compact_batch(buf: &[u8]) -> Result<Vec<Row>> {
    let (mut cur, row_count) = CompactCursor::open(buf, Arc::<str>::from)?;
    let mut rows = Vec::with_capacity(row_count.min(1 << 20));
    for _ in 0..row_count {
        let value_count = cur.count()?;
        let mut values = Vec::with_capacity(value_count.min(1 << 16));
        for _ in 0..value_count {
            values.push(match cur.cell()? {
                Cell::Null => Value::Null,
                Cell::Bool(b) => Value::Bool(b),
                Cell::Int(n) => Value::Int(n),
                Cell::Double(d) => Value::Double(d),
                Cell::Str(idx) => Value::Str(Arc::clone(&cur.dict[idx])),
            });
        }
        rows.push(Row::new(values));
    }
    cur.finish()?;
    Ok(rows)
}

/// Decode a compact frame payload as numbers, handing each row past the
/// first `skip` to `sink` as a slice of `f64` — the ML hand-off with no
/// [`Row`] in between. A cell converts as [`Row::to_f64_vec`] converts it
/// (`Null` → 0.0, `Bool` → 0/1, `Int` cast, `Double` bit for bit; a
/// string cell is the same `Type` error), and every check of
/// [`decode_compact_batch`] is kept, skipped rows included: both walk the
/// payload through one cursor. Returns the frame's row count (skipped
/// rows too). On error `sink` may already hold this frame's earlier rows;
/// the caller rolls them back.
pub fn decode_compact_batch_f64(
    buf: &[u8],
    skip: usize,
    mut sink: impl FnMut(&[f64]) -> Result<()>,
) -> Result<usize> {
    let (mut cur, row_count) = CompactCursor::open(buf, |s| s)?;
    let mut row: Vec<f64> = Vec::new();
    for i in 0..row_count {
        let value_count = cur.count()?;
        row.clear();
        row.reserve(value_count.min(1 << 16));
        for _ in 0..value_count {
            row.push(match cur.cell()? {
                Cell::Null => 0.0,
                Cell::Bool(b) => f64::from(u8::from(b)),
                Cell::Int(n) => n as f64,
                Cell::Double(d) => d,
                Cell::Str(idx) => Value::Str(Arc::from(cur.dict[idx])).as_f64()?,
            });
        }
        if i >= skip {
            sink(&row)?;
        }
    }
    cur.finish()?;
    Ok(row_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
        ])
    }

    #[test]
    fn text_round_trip_basic() {
        let r = row![57i64, "F", 103.25, "Yes"];
        let mut line = String::new();
        encode_text_row(&r, &mut line);
        assert_eq!(line, "57|F|103.25|Yes");
        assert_eq!(decode_text_row(&line, &schema()).unwrap(), r);
    }

    #[test]
    fn text_round_trip_with_delimiter_and_newline_in_strings() {
        let r = row![1i64, "a|b\\c\nd", 0.0, "No"];
        let mut line = String::new();
        encode_text_row(&r, &mut line);
        assert!(!line.contains('\n'));
        assert_eq!(decode_text_row(&line, &schema()).unwrap(), r);
    }

    #[test]
    fn text_null_round_trip() {
        let r = Row::new(vec![
            Value::Null,
            Value::Str("F".into()),
            Value::Null,
            Value::Null,
        ]);
        let mut line = String::new();
        encode_text_row(&r, &mut line);
        assert_eq!(decode_text_row(&line, &schema()).unwrap(), r);
    }

    #[test]
    fn literal_backslash_n_string_survives() {
        // The string "\N" must not be confused with the NULL marker.
        let r = row![1i64, "\\N", 0.0, ""];
        let mut line = String::new();
        encode_text_row(&r, &mut line);
        let back = decode_text_row(&line, &schema()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.get(1).as_str().unwrap(), "\\N");
        assert_eq!(back.get(3).as_str().unwrap(), "");
    }

    #[test]
    fn text_batch_round_trip() {
        let rows = vec![row![1i64, "F", 1.0, "Yes"], row![2i64, "M", 2.0, "No"]];
        let blob = encode_text_batch(&rows);
        assert_eq!(decode_text_batch(&blob, &schema()).unwrap(), rows);
    }

    #[test]
    fn text_field_count_mismatch_is_error() {
        assert!(decode_text_row("1|F|2.0", &schema()).is_err());
        assert!(decode_text_row("1|F|2.0|Yes|extra", &schema()).is_err());
    }

    // -- compact codec ------------------------------------------------------

    #[test]
    fn uvarint_round_trip_and_length() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v), "length mismatch for {v}");
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(get_uvarint(&[0x80], &mut pos).is_err());
        // 11 continuation bytes overflow u64.
        let too_long = [0xFFu8; 11];
        let mut pos = 0;
        assert!(get_uvarint(&too_long, &mut pos).is_err());
        // Spare high bits in the 10th byte overflow too.
        let spare = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut pos = 0;
        assert!(get_uvarint(&spare, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag({v})");
        }
        // Small magnitudes stay small on the wire.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn compact_round_trip_all_types() {
        let rows = vec![
            Row::new(vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-42),
                Value::Double(6.25),
                Value::Str("héllo|world".into()),
            ]),
            Row::new(vec![]),
            row![i64::MAX, f64::MIN_POSITIVE, "héllo|world"],
            row![i64::MIN, "other"],
        ];
        let mut buf = Vec::new();
        let stats = encode_compact_batch(&rows, &mut buf).unwrap();
        assert_eq!(decode_compact_batch(&buf).unwrap(), rows);
        // "héllo|world" appears twice: one miss, one hit.
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn compact_empty_batch_and_empty_dict() {
        // No rows at all.
        let mut buf = Vec::new();
        let stats = encode_compact_batch(&[], &mut buf).unwrap();
        assert_eq!(buf, vec![0, 0], "empty dict + zero row count");
        assert_eq!(stats, DictStats::default());
        assert!(decode_compact_batch(&buf).unwrap().is_empty());
        // Rows with no strings: dictionary stays empty.
        let rows = vec![row![1i64, 2.5], row![-7i64, 0.0]];
        let mut buf = Vec::new();
        let stats = encode_compact_batch(&rows, &mut buf).unwrap();
        assert_eq!(stats.lookups(), 0);
        assert_eq!(buf[0], 0, "dict_count is zero");
        assert_eq!(decode_compact_batch(&buf).unwrap(), rows);
    }

    #[test]
    fn compact_all_unique_strings_never_hit() {
        let rows: Vec<Row> = (0..100).map(|i| row![format!("value-{i}")]).collect();
        let mut buf = Vec::new();
        let stats = encode_compact_batch(&rows, &mut buf).unwrap();
        assert_eq!(stats.misses, 100);
        assert_eq!(stats.hits, 0);
        assert_eq!(decode_compact_batch(&buf).unwrap(), rows);
    }

    #[test]
    fn compact_dictionary_grows_past_u16_indices() {
        // > 65536 distinct strings force indices beyond u16, exercising
        // multi-byte varint dict references.
        let n = (1 << 16) + 50;
        let rows: Vec<Row> = (0..n).map(|i| row![format!("s{i}")]).collect();
        let mut buf = Vec::new();
        let stats = encode_compact_batch(&rows, &mut buf).unwrap();
        assert_eq!(stats.misses, n as u64);
        let back = decode_compact_batch(&buf).unwrap();
        assert_eq!(back.len(), n);
        assert_eq!(back[n - 1], rows[n - 1]);
        // Repeat the last string: the hit's reference is a 3-byte varint.
        let mut enc = CompactBatchEncoder::new();
        for r in &rows {
            enc.push_row(r).unwrap();
        }
        enc.push_row(&rows[n - 1]).unwrap();
        let mut buf2 = Vec::new();
        enc.finish_into(&mut buf2);
        assert_eq!(enc.stats().hits, 1);
        let back2 = decode_compact_batch(&buf2).unwrap();
        assert_eq!(back2.len(), n + 1);
        assert_eq!(back2[n], rows[n - 1]);
    }

    #[test]
    fn compact_encoder_is_reusable_and_incremental_matches_one_shot() {
        let rows = vec![
            row![1i64, "F", 1.0, "Yes"],
            row![2i64, "M", 2.0, "No"],
            row![3i64, "F", 3.0, "Yes"],
        ];
        let mut one_shot = Vec::new();
        encode_compact_batch(&rows, &mut one_shot).unwrap();
        let mut enc = CompactBatchEncoder::new();
        for frame in 0..3 {
            for r in &rows {
                enc.push_row(r).unwrap();
            }
            assert_eq!(enc.row_count(), rows.len());
            assert_eq!(enc.wire_len(), one_shot.len(), "frame {frame}");
            let mut buf = Vec::new();
            enc.finish_into(&mut buf);
            assert_eq!(buf, one_shot, "incremental output is byte-identical");
            assert!(enc.is_empty(), "frame state resets");
        }
        // Lifetime stats accumulated across the three frames.
        assert_eq!(enc.stats().misses, 3 * 4);
        assert_eq!(enc.stats().hits, 3 * 2);
    }

    #[test]
    fn compact_random_round_trip_property() {
        // Deterministic pseudo-random rows across all value shapes.
        let mut rng = crate::rng::SplitMix64::new(0xC0DEC);
        let names = ["Yes", "No", "F", "M", "", "long-categorical-value"];
        for _ in 0..50 {
            let n_rows = (rng.next_u64() % 20) as usize;
            let rows: Vec<Row> = (0..n_rows)
                .map(|_| {
                    let n_vals = (rng.next_u64() % 8) as usize;
                    let values: Vec<Value> = (0..n_vals)
                        .map(|_| match rng.next_u64() % 5 {
                            0 => Value::Null,
                            1 => Value::Bool(rng.next_u64().is_multiple_of(2)),
                            2 => Value::Int(rng.next_u64() as i64),
                            3 => Value::Double(f64::from_bits(
                                // Avoid NaN (breaks Eq on rows) by using a
                                // fixed exponent.
                                (rng.next_u64() & 0x000F_FFFF_FFFF_FFFF) | (0x3FF0u64 << 48),
                            )),
                            _ => Value::Str(
                                names[(rng.next_u64() % names.len() as u64) as usize].into(),
                            ),
                        })
                        .collect();
                    Row::new(values)
                })
                .collect();
            let mut buf = Vec::new();
            encode_compact_batch(&rows, &mut buf).unwrap();
            assert_eq!(decode_compact_batch(&buf).unwrap(), rows);
        }
    }

    #[test]
    fn compact_truncation_and_garbage_are_detected() {
        let rows = vec![row![1i64, "abc", 2.5], row![2i64, "abc", 3.5]];
        let mut buf = Vec::new();
        encode_compact_batch(&rows, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                decode_compact_batch(&buf[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
        // Trailing garbage rejected.
        let mut extended = buf.clone();
        extended.push(0x00);
        assert!(decode_compact_batch(&extended).is_err());
        // Out-of-range dictionary reference rejected: one row, one string
        // cell pointing at entry 5 of an empty dict.
        let bad = [0u8, 1, 1, TAG_STR, 5];
        assert!(decode_compact_batch(&bad).is_err());
    }

    /// "One cursor" as a property: over every truncation, one-byte
    /// extension and single-byte mutation of seeded frames (numeric and
    /// with strings), the two decoders accept the same byte strings. The
    /// one allowed difference is the numeric decoder's `Type` error on a
    /// frame the row decoder reads fine — a string cell is its only fault.
    #[test]
    fn both_decoders_accept_the_same_byte_strings() {
        fn agree(bytes: &[u8], what: &str) {
            let rows = decode_compact_batch(bytes);
            match (&rows, decode_compact_batch_f64(bytes, 0, |_| Ok(()))) {
                (Ok(rows), Ok(n)) => assert_eq!(rows.len(), n, "{what}"),
                (Ok(rows), Err(e)) => {
                    assert!(matches!(e, SqlmlError::Type(_)), "{what}: {e}");
                    let strings = |r: &Row| r.values().iter().any(|v| matches!(v, Value::Str(_)));
                    assert!(rows.iter().any(strings), "{what}: {e}");
                }
                (Err(_), Err(_)) => {}
                (Err(e), Ok(_)) => panic!("{what}: only the row decoder failed: {e}"),
            }
        }
        let mut rng = crate::rng::SplitMix64::new(0x0C0_45E5);
        let names = ["Yes", "No", "", "ünï"];
        for frame in 0..12u64 {
            let shapes = if frame % 2 == 0 { 4 } else { 5 };
            let rows: Vec<Row> = (0..1 + rng.next_below(4))
                .map(|_| {
                    let cells = (0..rng.next_below(5)).map(|_| match rng.next_below(shapes) {
                        0 => Value::Null,
                        1 => Value::Bool(rng.next_below(2) == 1),
                        2 => Value::Int(rng.next_u64() as i64 >> rng.next_below(64)),
                        3 => Value::Double(f64::from_bits(rng.next_u64())),
                        _ => Value::Str(names[rng.next_below(4) as usize].into()),
                    });
                    Row::new(cells.collect())
                })
                .collect();
            let mut buf = Vec::new();
            encode_compact_batch(&rows, &mut buf).unwrap();
            agree(&buf, &format!("frame {frame} intact"));
            for cut in 0..buf.len() {
                agree(&buf[..cut], &format!("frame {frame} cut at {cut}"));
            }
            let mut longer = buf.clone();
            longer.push(rng.next_u64() as u8);
            agree(&longer, &format!("frame {frame} extended"));
            for at in 0..buf.len() {
                let original = buf[at];
                for flip in [0x01, 0x04, 0x80, 0xFF, 1 + rng.next_below(255) as u8] {
                    buf[at] = original ^ flip;
                    agree(&buf, &format!("frame {frame} byte {at} ^ {flip:#04x}"));
                }
                buf[at] = original;
            }
        }
    }

    /// Every row of `buf` past `skip`, through the numeric decoder.
    fn numeric_rows(buf: &[u8], skip: usize) -> Result<(usize, Vec<Vec<f64>>)> {
        let mut rows = Vec::new();
        let n = decode_compact_batch_f64(buf, skip, |r| {
            rows.push(r.to_vec());
            Ok(())
        })?;
        Ok((n, rows))
    }

    #[test]
    fn numeric_decoder_matches_the_row_decoder_cell_for_cell() {
        let rows = vec![
            Row::new(vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(i64::MIN),
                Value::Double(-0.0),
            ]),
            Row::new(vec![]),
            row![i64::MAX, f64::NAN, false, f64::NEG_INFINITY],
        ];
        let mut buf = Vec::new();
        encode_compact_batch(&rows, &mut buf).unwrap();
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            (rows.iter())
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let expect: Vec<Vec<f64>> = decode_compact_batch(&buf)
            .unwrap()
            .iter()
            .map(|r| r.to_f64_vec().unwrap())
            .collect();
        let (n, got) = numeric_rows(&buf, 0).unwrap();
        assert_eq!(n, 3);
        assert_eq!(bits(&got), bits(&expect));
        // Skipped rows are counted and checked, not delivered.
        let (n, got) = numeric_rows(&buf, 2).unwrap();
        assert_eq!((n, bits(&got)), (3, bits(&expect[2..])));
        assert_eq!(numeric_rows(&buf, 9).unwrap(), (3, vec![]));
    }

    #[test]
    fn numeric_decoder_rejects_strings_truncation_and_garbage() {
        let rows = vec![row![1i64, 2.5], row![2i64, "abc"]];
        let mut buf = Vec::new();
        encode_compact_batch(&rows, &mut buf).unwrap();
        // The string is a type error even in a skipped row, exactly as
        // `to_f64_vec` reports it.
        for skip in [0, 2] {
            let err = numeric_rows(&buf, skip).unwrap_err();
            assert_eq!(
                err.to_string(),
                rows[1].to_f64_vec().unwrap_err().to_string()
            );
        }
        let mut buf = Vec::new();
        encode_compact_batch(&rows[..1], &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(numeric_rows(&buf[..cut], 0).is_err(), "cut at {cut}");
        }
        buf.push(0x00);
        assert!(numeric_rows(&buf, 0).is_err(), "trailing byte");
        assert!(numeric_rows(&[0u8, 1, 1, TAG_STR, 5], 0).is_err());
        assert!(numeric_rows(&[0u8, 1, 1, 9], 0).is_err(), "unknown tag");
        // A sink error stops the decode and comes back unchanged.
        let mut buf = Vec::new();
        encode_compact_batch(&rows[..1], &mut buf).unwrap();
        let err = decode_compact_batch_f64(&buf, 0, |_| Err(SqlmlError::Ml("full".into())));
        assert!(matches!(err, Err(SqlmlError::Ml(_))));
    }
}
