//! Row and column codecs.
//!
//! Three encodings are used across the system:
//!
//! * **Text format** — delimiter-separated lines, the format of tables
//!   stored on the DFS ("Both tables were stored in text format on HDFS").
//!   Used by the naive pipeline's materialization hops and by
//!   `TextInputFormat` on the ML side.
//! * **Compact batch format** — self-delimiting batches of tagged
//!   values, used where strings travel (message-queue records): integers
//!   are LEB128 varints (zigzag for signed) and string cells are varint
//!   references into a per-batch dictionary, so a categorical value
//!   repeated across the rows of one batch is shipped exactly once.
//! * **Numeric frame** — the streaming-transfer wire. What crosses the
//!   SQL→ML boundary is recoded and numeric, so a frame is one typed,
//!   fixed-width little-endian run per column ([`encode_numeric_frame`]),
//!   an integer column at the narrowest width its partition needs, and
//!   the reader checks a frame whole ([`NumericFrame::parse`]) before it
//!   scatters the runs into its row-major block.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
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

/// The field as its string value: borrowed from the line unless it
/// holds an escape.
fn unescape_text(s: &str) -> Result<Cow<'_, str>> {
    if !s.contains('\\') {
        return Ok(Cow::Borrowed(s));
    }
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
    Ok(Cow::Owned(out))
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

/// Encode one cell of a text line — the one cell writer of both text
/// encoders. A number is formatted straight into `out`, in the
/// [`Value::render`] formats (`{}` for an int, round-tripping `{:?}` for
/// a double), so no cell builds a string of its own. A column encoder
/// that already holds the `&str` of a string cell calls [`escape_text`]
/// instead.
pub fn encode_text_value(v: &Value, out: &mut String) {
    // Formatting into a `String` cannot fail.
    let _ = match v {
        Value::Null => out.write_str("\\N"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Int(i) => write!(out, "{i}"),
        Value::Double(d) => write!(out, "{d:?}"),
        Value::Str(s) => return escape_text(s, out),
    };
}

/// Decode one text line into a row under `schema`.
pub fn decode_text_row(line: &str, schema: &Schema) -> Result<Row> {
    decode_text_row_with(line, schema, None)
}

/// [`decode_text_row`], pooling string values through `interner` when
/// one is given so repeated categorical values share one `Arc<str>`.
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
/// The text is borrowed from `line`; only a field holding an escape is
/// copied out to unescape it. The one owner of field splitting, the `\N`
/// marker, unescaping and the arity errors, so the row decoder, the SQL
/// engine's column loader and the ML text reader accept exactly the same
/// lines.
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
/// share one `Arc<str>` allocation. Lines end at `\n` only: a `\r` is
/// string payload ([`escape_text`] leaves it alone), not part of a line
/// ending.
pub fn decode_text_batch(text: &str, schema: &Schema) -> Result<Vec<Row>> {
    let mut interner = Interner::new();
    text.split('\n')
        .filter(|l| !l.is_empty())
        .map(|l| decode_text_row_with(l, schema, Some(&mut interner)))
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
        let rows_mark = self.rows.len();
        let dict_mark = self.dict.len();
        let dict_bytes_mark = self.dict_wire_bytes;
        let stats_mark = self.frame_stats;
        put_uvarint(&mut self.rows, row.len() as u64);
        match row.values().iter().try_for_each(|v| self.put_value(v)) {
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

    #[inline]
    fn put_value(&mut self, v: &Value) -> Result<()> {
        match v {
            Value::Null => self.rows.put_u8(TAG_NULL),
            Value::Bool(b) => {
                self.rows.put_u8(TAG_BOOL);
                self.rows.put_u8(u8::from(*b));
            }
            Value::Int(i) => {
                self.rows.put_u8(TAG_INT);
                put_uvarint(&mut self.rows, zigzag(*i));
            }
            Value::Double(d) => {
                self.rows.put_u8(TAG_DOUBLE);
                self.rows.put_u64_le(d.to_bits());
            }
            Value::Str(s) => self.put_str(s)?,
        }
        Ok(())
    }

    /// One string cell: a reference into the frame dictionary, the entry
    /// added on first use.
    fn put_str(&mut self, s: &Arc<str>) -> Result<()> {
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
/// layout [`CompactBatchEncoder`] documents: `open`, then per row its
/// cell `count` and that many `cell`s, then `finish`.
struct CompactCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    dict: Vec<Arc<str>>,
}

impl<'a> CompactCursor<'a> {
    /// Read the dictionary (every entry's bounds and UTF-8 checked) and
    /// the row count.
    fn open(buf: &'a [u8]) -> Result<(Self, usize)> {
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
            cur.dict.push(Arc::from(s));
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
            TAG_DOUBLE => Cell::Double(f64::from_bits(u64::from_le_bytes(le(self.take(8)?)))),
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

/// The `N` bytes of a slice already cut to that length.
#[inline]
fn le<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(bytes);
    out
}

/// Decode a compact frame payload written by [`CompactBatchEncoder`],
/// verifying full consumption. Rows referencing the same dictionary entry
/// share one `Arc<str>` allocation.
pub fn decode_compact_batch(buf: &[u8]) -> Result<Vec<Row>> {
    let (mut cur, row_count) = CompactCursor::open(buf)?;
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

// ---------------------------------------------------------------------------
// Numeric frame (typed column runs) — the SQL→ML hand-off
// ---------------------------------------------------------------------------

/// Run codes of a numeric frame. An integer run's code is its byte
/// width; [`RUN_HAS_NULLS`] is or-ed onto any of them.
const RUN_F64: u8 = 0x10;
const RUN_BOOL: u8 = 0x20;
/// Flag: a validity run (one byte per row, 0 = NULL) precedes the values.
const RUN_HAS_NULLS: u8 = 0x80;

/// Bytes per value of a run code (validity flag masked off), `None` for
/// a code no encoder writes.
fn run_width(code: u8) -> Option<usize> {
    match code & !RUN_HAS_NULLS {
        w @ (1 | 2 | 4 | 8) => Some(usize::from(w)),
        RUN_F64 => Some(8),
        RUN_BOOL => Some(1),
        _ => None,
    }
}

#[derive(Debug, Clone)]
enum NumericValues<'a> {
    /// Shipped at `width` (1, 2, 4 or 8) bytes per value.
    Int {
        values: &'a [i64],
        width: u8,
    },
    Double(Cow<'a, [f64]>),
    Bool(&'a [bool]),
}

/// One column of a partition as the numeric frame ships it: a typed
/// value slice, plus its validity if (and only if) it holds a NULL. The
/// wire width of an integer column is decided here, once per partition.
#[derive(Debug, Clone)]
pub struct NumericColumn<'a> {
    values: NumericValues<'a>,
    valid: Option<&'a [bool]>,
}

impl<'a> NumericColumn<'a> {
    fn new(values: NumericValues<'a>, valid: Option<&'a [bool]>) -> Self {
        let valid = valid.filter(|v| v.contains(&false));
        NumericColumn { values, valid }
    }

    /// An integer column, at the narrowest of 1/2/4/8 bytes that holds
    /// every value of the slice (an invalid slot's too).
    pub fn int(values: &'a [i64], valid: Option<&'a [bool]>) -> Self {
        let (min, max) = (values.iter()).fold((0i64, 0i64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let fit = |w: &u8| fits(min, (*w).into()) && fits(max, (*w).into());
        let width = [1u8, 2, 4].into_iter().find(fit).unwrap_or(8);
        Self::new(NumericValues::Int { values, width }, valid)
    }

    /// A double column, shipped bit for bit.
    pub fn double(values: impl Into<Cow<'a, [f64]>>, valid: Option<&'a [bool]>) -> Self {
        Self::new(NumericValues::Double(values.into()), valid)
    }

    pub fn bool(values: &'a [bool], valid: Option<&'a [bool]>) -> Self {
        Self::new(NumericValues::Bool(values), valid)
    }

    fn code(&self) -> u8 {
        let code = match &self.values {
            NumericValues::Int { width, .. } => *width,
            NumericValues::Double(_) => RUN_F64,
            NumericValues::Bool(_) => RUN_BOOL,
        };
        match self.valid {
            Some(_) => code | RUN_HAS_NULLS,
            None => code,
        }
    }

    /// Wire bytes one row of this column costs.
    pub fn stride(&self) -> usize {
        run_width(self.code()).unwrap_or(0) + usize::from(self.valid.is_some())
    }
}

/// Encode rows `rows` of `columns` as one numeric frame payload:
///
/// ```text
/// u32 LE row count, u32 LE column count
/// per column:
///   u8 run code       1/2/4/8 = integer of that many bytes, 0x10 = f64,
///                     0x20 = bool; | 0x80 when the column has NULLs
///   row_count bytes   validity, 0 = NULL   (only with 0x80)
///   row_count values  little-endian, two's complement / IEEE-754 bits
/// ```
///
/// A row range past a column's end, or rows without columns, is an error;
/// so is an integer that does not fit its column's width (unreachable
/// through [`NumericColumn::int`]: narrowing is checked, never a cast).
pub fn encode_numeric_frame<B: BufMut>(
    columns: &[NumericColumn<'_>],
    rows: Range<usize>,
    buf: &mut B,
) -> Result<()> {
    if columns.is_empty() && !rows.is_empty() {
        return Err(SqlmlError::Execution(
            "numeric frame has rows but no columns".into(),
        ));
    }
    buf.put_u32_le(crate::error::wire_u32(rows.len(), "frame row count")?);
    buf.put_u32_le(crate::error::wire_u32(columns.len(), "frame column count")?);
    for col in columns {
        let past_end = || SqlmlError::Execution(format!("rows {rows:?} past a column's end"));
        buf.put_u8(col.code());
        if let Some(valid) = col.valid {
            let valid = valid.get(rows.clone()).ok_or_else(past_end)?;
            valid.iter().for_each(|&v| buf.put_u8(u8::from(v)));
        }
        match &col.values {
            NumericValues::Int { values, width } => {
                let values = values.get(rows.clone()).ok_or_else(past_end)?;
                match width {
                    1 => put_ints::<1, B>(values, buf)?,
                    2 => put_ints::<2, B>(values, buf)?,
                    4 => put_ints::<4, B>(values, buf)?,
                    _ => put_ints::<8, B>(values, buf)?,
                }
            }
            NumericValues::Double(values) => {
                let values = values.get(rows.clone()).ok_or_else(past_end)?;
                values.iter().for_each(|v| buf.put_u64_le(v.to_bits()));
            }
            NumericValues::Bool(values) => {
                let values = values.get(rows.clone()).ok_or_else(past_end)?;
                values.iter().for_each(|&v| buf.put_u8(u8::from(v)));
            }
        }
    }
    Ok(())
}

/// Whether `v` fits a two's-complement integer of `bytes` bytes.
#[inline]
fn fits(v: i64, bytes: usize) -> bool {
    bytes >= 8 || (-(1i64 << (8 * bytes - 1))..1i64 << (8 * bytes - 1)).contains(&v)
}

/// Append `values` at `N` bytes each: the low `N` little-endian bytes of
/// a value checked to fit them — a narrowing, never a wrapping cast.
#[inline]
fn put_ints<const N: usize, B: BufMut>(values: &[i64], buf: &mut B) -> Result<()> {
    for &v in values {
        if !fits(v, N) {
            return Err(SqlmlError::Overflow(format!(
                "integer {v} does not fit its {N}-byte column run"
            )));
        }
        buf.put_slice(&v.to_le_bytes()[..N]);
    }
    Ok(())
}

/// One column run of a parsed frame: lengths already checked.
#[derive(Debug)]
struct NumericRun<'a> {
    code: u8,
    valid: Option<&'a [u8]>,
    values: &'a [u8],
}

/// A numeric frame payload, checked whole before a cell is read: every
/// run's code, every run's length against the row count, and that the
/// payload ends with its last run. Nothing past [`Self::parse`] can fail,
/// so a reader that writes into its block only after parsing leaves
/// nothing of a bad frame behind.
#[derive(Debug)]
pub struct NumericFrame<'a> {
    rows: usize,
    runs: Vec<NumericRun<'a>>,
}

impl<'a> NumericFrame<'a> {
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        let corrupt = |what: &str| SqlmlError::Execution(format!("corrupt numeric frame: {what}"));
        let mut rest = buf;
        let mut take = |len: Option<usize>| {
            let (head, tail) = len
                .and_then(|len| rest.split_at_checked(len))
                .ok_or_else(|| corrupt("truncated"))?;
            rest = tail;
            Ok::<_, SqlmlError>(head)
        };
        let rows = u32::from_le_bytes(le(take(Some(4))?)) as usize;
        let cols = u32::from_le_bytes(le(take(Some(4))?)) as usize;
        if cols == 0 && rows != 0 {
            return Err(corrupt("rows but no columns"));
        }
        // A run costs its code byte and at least a byte per row, so
        // corrupt counts cannot size this allocation past what the
        // payload could really hold.
        let mut runs = Vec::with_capacity(cols.min(buf.len() / rows.saturating_add(1)));
        for _ in 0..cols {
            let code = take(Some(1))?[0];
            let width =
                run_width(code).ok_or_else(|| corrupt(&format!("unknown run code {code:#04x}")))?;
            let valid = match code & RUN_HAS_NULLS {
                0 => None,
                _ => Some(take(Some(rows))?),
            };
            let values = take(rows.checked_mul(width))?;
            runs.push(NumericRun {
                code,
                valid,
                values,
            });
        }
        if !rest.is_empty() {
            return Err(corrupt(&format!("{} trailing bytes", rest.len())));
        }
        Ok(NumericFrame { rows, runs })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.runs.len()
    }

    /// Write column `c` from row `skip` on as `f64`s to `dst[0]`,
    /// `dst[stride]`, `dst[2 * stride]`, … — each cell converted as
    /// [`Row::to_f64_vec`] converts it (NULL → 0.0, bool → 0/1, integer
    /// cast, double bit for bit).
    pub fn scatter(&self, c: usize, skip: usize, dst: &mut [f64], stride: usize) {
        let run = &self.runs[c];
        let out = dst.iter_mut().step_by(stride.max(1));
        match run.code & !RUN_HAS_NULLS {
            1 => run.write(skip, out, |b| f64::from(i8::from_le_bytes(b))),
            2 => run.write(skip, out, |b| f64::from(i16::from_le_bytes(b))),
            4 => run.write(skip, out, |b| f64::from(i32::from_le_bytes(b))),
            8 => run.write(skip, out, |b| i64::from_le_bytes(b) as f64),
            RUN_F64 => run.write(skip, out, |b| f64::from_bits(u64::from_le_bytes(b))),
            _ => run.write(skip, out, |[b]| f64::from(u8::from(b != 0))),
        }
    }
}

impl NumericRun<'_> {
    /// The cells from row `skip` on, `N` bytes each, into `out`.
    #[inline]
    fn write<'d, const N: usize>(
        &self,
        skip: usize,
        out: impl Iterator<Item = &'d mut f64>,
        value: impl Fn([u8; N]) -> f64,
    ) {
        let cells = self.values.chunks_exact(N).skip(skip);
        match self.valid {
            None => cells
                .zip(out)
                .for_each(|(cell, slot)| *slot = value(le(cell))),
            Some(valid) => {
                for ((cell, &v), slot) in cells.zip(valid.iter().skip(skip)).zip(out) {
                    *slot = if v == 0 { 0.0 } else { value(le(cell)) };
                }
            }
        }
    }
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

    #[test]
    fn the_cell_writer_writes_what_render_does() {
        let cells = [
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Double(-0.0),
            Value::Double(1e21),
            Value::Double(5e-324),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(f64::NAN),
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
        ];
        for v in cells {
            let mut out = String::from("x|");
            encode_text_value(&v, &mut out);
            assert_eq!(out, format!("x|{}", v.render()), "{v:?}");
        }
    }

    #[test]
    fn a_carriage_return_is_payload_not_a_line_ending() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::categorical("s"),
        ]);
        let rows = vec![row![1i64, "Yes\r"], row![2i64, "\r"], row![3i64, "\r\n"]];
        let blob = encode_text_batch(&rows);
        assert_eq!(decode_text_batch(&blob, &schema).unwrap(), rows);
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

    // -- numeric frame ------------------------------------------------------

    /// Every row of `buf` past `skip`, row-major, as bit patterns.
    fn numeric_rows(buf: &[u8], skip: usize) -> Result<(usize, Vec<Vec<u64>>)> {
        let frame = NumericFrame::parse(buf)?;
        let fresh = frame.rows().saturating_sub(skip);
        let mut block = vec![f64::from_bits(u64::MAX); fresh * frame.cols()];
        for c in (0..frame.cols()).filter(|_| fresh > 0) {
            frame.scatter(c, skip, &mut block[c..], frame.cols());
        }
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect();
        let rows = block.chunks(frame.cols().max(1)).map(bits).collect();
        Ok((frame.rows(), rows))
    }

    /// The layout, byte for byte: an integer column at one byte, one
    /// with a NULL at two, doubles as their bits, a bool.
    #[test]
    fn numeric_frame_golden_bytes() {
        let ages = [57i64, -128, 127];
        let wide = [300i64, 0, -2];
        let wide_valid = [true, false, true];
        let amounts = [103.25, -0.5, 0.0];
        let flags = [true, false, true];
        let columns = [
            NumericColumn::int(&ages, Some(&[true; 3])),
            NumericColumn::int(&wide, Some(&wide_valid)),
            NumericColumn::double(&amounts[..], None),
            NumericColumn::bool(&flags, None),
        ];
        let strides: Vec<usize> = columns.iter().map(NumericColumn::stride).collect();
        assert_eq!(strides, [1, 3, 8, 1], "validity only where a NULL is");
        let mut buf = Vec::new();
        encode_numeric_frame(&columns, 0..3, &mut buf).unwrap();
        #[rustfmt::skip]
        let golden: &[u8] = &[
            3, 0, 0, 0, 4, 0, 0, 0,                  // 3 rows, 4 columns
            0x01, 57, 0x80, 0x7F,                    // i8 run
            0x82, 1, 0, 1,                           // i16 run with validity
            0x2C, 0x01, 0, 0, 0xFE, 0xFF,
            0x10,                                    // f64 run
            0, 0, 0, 0, 0, 0xD0, 0x59, 0x40,         // 103.25
            0, 0, 0, 0, 0, 0, 0xE0, 0xBF,            // -0.5
            0, 0, 0, 0, 0, 0, 0, 0,
            0x20, 1, 0, 1,                           // bool run
        ];
        assert_eq!(buf, golden);
        let f = |v: f64| v.to_bits();
        let expect = vec![
            vec![f(57.0), f(300.0), f(103.25), f(1.0)],
            vec![f(-128.0), f(0.0), f(-0.5), f(0.0)],
            vec![f(127.0), f(-2.0), f(0.0), f(1.0)],
        ];
        assert_eq!(numeric_rows(&buf, 0).unwrap(), (3, expect.clone()));
        // Skipped rows are counted and checked, not delivered; a sub-range
        // of the partition ships at the partition's widths.
        assert_eq!(numeric_rows(&buf, 2).unwrap(), (3, expect[2..].to_vec()));
        assert_eq!(numeric_rows(&buf, 9).unwrap(), (3, vec![]));
        let mut tail = Vec::new();
        encode_numeric_frame(&columns, 1..3, &mut tail).unwrap();
        assert_eq!(tail.len(), 8 + 4 + 2 * 13);
        assert_eq!(numeric_rows(&tail, 0).unwrap(), (2, expect[1..].to_vec()));
    }

    #[test]
    fn integer_columns_ship_at_the_narrowest_width_that_holds_them() {
        let cases: [(&[i64], usize); 9] = [
            (&[], 1),
            (&[i8::MIN as i64, i8::MAX as i64], 1),
            (&[i8::MAX as i64 + 1], 2),
            (&[i8::MIN as i64 - 1], 2),
            (&[i16::MIN as i64, i16::MAX as i64], 2),
            (&[i16::MAX as i64 + 1], 4),
            (&[i32::MIN as i64, i32::MAX as i64], 4),
            (&[i32::MIN as i64 - 1], 8),
            (&[i64::MIN, i64::MAX], 8),
        ];
        for (values, width) in cases {
            let col = NumericColumn::int(values, None);
            assert_eq!(col.stride(), width, "{values:?}");
            let mut buf = Vec::new();
            encode_numeric_frame(&[col], 0..values.len(), &mut buf).unwrap();
            let expect: Vec<Vec<u64>> =
                values.iter().map(|&v| vec![(v as f64).to_bits()]).collect();
            assert_eq!(numeric_rows(&buf, 0).unwrap(), (values.len(), expect));
        }
        // A width the values do not fit is an error, never a wrap.
        let too_narrow = NumericColumn {
            values: NumericValues::Int {
                values: &[300],
                width: 1,
            },
            valid: None,
        };
        let err = encode_numeric_frame(&[too_narrow], 0..1, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, SqlmlError::Overflow(_)), "{err}");
    }

    #[test]
    fn numeric_frame_rejects_truncation_garbage_and_bad_shapes() {
        let (ints, doubles) = ([1i64, 2, 70_000], [0.5, f64::NAN, -0.0]);
        let valid = [true, true, false];
        let columns = [
            NumericColumn::int(&ints, Some(&valid)),
            NumericColumn::double(&doubles[..], None),
        ];
        let mut buf = Vec::new();
        encode_numeric_frame(&columns, 0..3, &mut buf).unwrap();
        assert!(NumericFrame::parse(&buf).is_ok());
        for cut in 0..buf.len() {
            assert!(NumericFrame::parse(&buf[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = buf.clone();
        longer.push(0);
        assert!(NumericFrame::parse(&longer).is_err(), "trailing byte");
        let mut bad_code = buf.clone();
        bad_code[8] = 0x83;
        assert!(NumericFrame::parse(&bad_code).is_err(), "3-byte integers");
        // Counts that overflow, and rows no column vouches for.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x08];
        assert!(NumericFrame::parse(&huge).is_err());
        assert!(NumericFrame::parse(&[9, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(NumericFrame::parse(&[0; 8]).is_ok(), "the empty frame");
        // The encoder refuses what the decoder would.
        let none: [NumericColumn; 0] = [];
        assert!(encode_numeric_frame(&none, 0..1, &mut Vec::new()).is_err());
        assert!(encode_numeric_frame(&columns, 2..4, &mut Vec::new()).is_err());
    }
}
