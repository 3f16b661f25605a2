//! Row and column codecs.
//!
//! Three encodings are used across the system:
//!
//! * **Text format** — delimiter-separated lines, the format of tables
//!   stored on the DFS ("Both tables were stored in text format on HDFS").
//!   Used by the naive pipeline's materialization hops and by
//!   `TextInputFormat` on the ML side. Every reader of a DFS text file
//!   gets its blocks as whole-line pieces ([`text_pieces`]) and walks
//!   them with [`read_lines`], the one line walker; [`TextLine::cells`]
//!   is the one owner of the NULL marker, escapes and arity.
//! * **Compact batch format** — self-delimiting batches of tagged
//!   values: integers are LEB128 varints (zigzag for signed) and string
//!   cells are varint references into a per-batch dictionary, so a
//!   categorical value repeated across the rows of one batch is shipped
//!   exactly once. No product path ships it any more; only the
//!   benchmark, the benches and the tests reach it.
//! * **Numeric frame** — the SQL→ML wire of both transfers, the socket
//!   stream and the message queue. What crosses the boundary is recoded
//!   and numeric, so a frame is one typed, fixed-width little-endian run
//!   per column ([`encode_numeric_frame`]), an integer column at the
//!   narrowest width its partition needs, a partition is cut into frames
//!   by one rule ([`frame_ranges`]), and the reader checks a frame whole
//!   ([`NumericFrame::parse`]) before it scatters the runs into its
//!   row-major block.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

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
#[inline]
pub fn escape_text(s: &str, out: &mut String) {
    if !s.bytes().any(|b| matches!(b, b'\\' | b'|' | b'\n')) {
        return out.push_str(s);
    }
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

/// The text-format NULL marker.
pub const TEXT_NULL: &str = "\\N";

/// Encode one cell of a text line, as [`Value::render`] renders it
/// (escaped, for a string). A column encoder that holds typed values
/// calls [`write_int`], [`write_double`] and [`escape_text`] itself.
pub fn encode_text_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str(TEXT_NULL),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write_int(*i, out),
        Value::Double(d) => write_double(*d, out),
        Value::Str(s) => escape_text(s, out),
    }
}

/// Append `i` in decimal: the bytes `format!("{i}")` gives.
#[inline]
pub fn write_int(i: i64, out: &mut String) {
    let mut cell = [0; CELL_BYTES];
    let len = int_cell(i, &mut cell);
    push_ascii(&cell[..len], out);
}

/// Append `d` as the shortest decimal that parses back to it: the bytes
/// `format!("{d:?}")` gives — [`double_cell`]'s when it has them,
/// `{:?}`'s own otherwise.
#[inline]
pub fn write_double(d: f64, out: &mut String) {
    let mut cell = [0; CELL_BYTES];
    match double_cell(d, &mut cell) {
        Some(len) => push_ascii(&cell[..len], out),
        // Formatting into a `String` cannot fail.
        None => drop(write!(out, "{d:?}")),
    }
}

/// Append bytes a cell kernel wrote, all ASCII, one `char` each: for the
/// few bytes of a cell this is cheaper than checking them as a `str`.
#[inline]
fn push_ascii(bytes: &[u8], out: &mut String) {
    out.extend(bytes.iter().map(|&b| char::from(b)));
}

// ---------------------------------------------------------------------------
// Text cell kernels: eight digits per word
// ---------------------------------------------------------------------------

/// Bytes of the window a number kernel writes into: the widest integer
/// (`-9223372036854775808`, 20 bytes) or fast-path double
/// (`-999999999.999999`, 17 bytes), with room for a delimiter and for
/// the last eight-byte store.
pub const CELL_BYTES: usize = 24;

/// `'0'` in every byte.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// `10^k` for the digit counts of one word.
const POW10_U64: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// The eight decimal digits of `n < 10^8`, zero-padded, one digit value
/// per byte, the most significant in the lowest byte. The halves
/// `[abcd, efgh]` sit in 32-bit lanes, then `[ab, cd, ef, gh]` in 16-bit
/// lanes, then one digit per byte: each step divides every lane by 100
/// or 10 with one multiply and shift, exact for those lane ranges, and no
/// product crosses into the lane the mask keeps.
#[inline]
fn eight_digits(n: u64) -> u64 {
    let v = (n / 10_000) | ((n % 10_000) << 32);
    let hundreds = ((v * 10_486) >> 20) & 0x0000_007F_0000_007F;
    let v = hundreds | ((v - hundreds * 100) << 16);
    let tens = ((v * 103) >> 10) & 0x000F_000F_000F_000F;
    tens | ((v - tens * 10) << 8)
}

/// Store the eight bytes of `word` at `out[at..]`.
#[inline]
fn put_word(out: &mut [u8; CELL_BYTES], at: usize, word: u64) {
    if let Some(slot) = out.get_mut(at..at + 8) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
}

/// `n` in decimal at `out[at..]`, at most 20 digits from `at <= 1`;
/// returns the offset past them. Each word of eight digits is one
/// eight-byte store, the leading one shifted past its zero digits.
#[inline]
fn put_u64(n: u64, out: &mut [u8; CELL_BYTES], at: usize) -> usize {
    const E8: u64 = 100_000_000;
    if n < 10 {
        // One digit (a flag, a code) needs no word.
        #[allow(clippy::cast_possible_truncation)]
        let digit = n as u8; // lint:allow(cast) — below 10
        out[at] = b'0' + digit;
        return at + 1;
    }
    let (top, words) = match n {
        n if n < E8 => (n, 0),
        n if n < E8 * E8 => (n / E8, 1),
        n => (n / (E8 * E8), 2),
    };
    let digits = eight_digits(top);
    // The zero digits before the first significant one (7 for 0).
    let zeros = (digits.trailing_zeros() / 8).min(7);
    put_word(out, at, (digits | ASCII_ZEROS) >> (8 * zeros));
    let mut end = at + 8 - zeros as usize;
    if words > 0 {
        for word in &[n / E8 % E8, n % E8][2 - words..] {
            put_word(out, end, eight_digits(*word) | ASCII_ZEROS);
            end += 8;
        }
    }
    end
}

/// `i` as [`write_int`] spells it, from the start of `out`; returns its
/// length (at most 20).
#[inline]
pub fn int_cell(i: i64, out: &mut [u8; CELL_BYTES]) -> usize {
    out[0] = b'-';
    put_u64(i.unsigned_abs(), out, usize::from(i < 0))
}

/// `d` as [`write_double`] spells it when one division finds it, from the
/// start of `out`, and its length (at most 17); `None` when `{:?}` has to
/// spell it.
///
/// For `1e-4 <= |d| < 1e9` let `c` be `|d|·10^6` rounded to an integer,
/// below `10^15 < 2^53`. When `c / 10^6`, one correctly rounded division
/// of exact doubles, equals `|d|`, the six-decimal string of `c` is a
/// decimal whose correctly rounded value is `|d|`: it parses back. And
/// when some string of `k <= 6` decimals parses back to `|d|`, its digits
/// form an integer `c_k` with `|d|` within half a spacing of
/// `c_k·10^-k`: doubles there lie at most `2^-23` apart, so `|d|·10^6` is
/// within `10^6·2^-24 < 0.06` of `c_k·10^(6-k)`, and the product and the
/// rounding add at most `0.0625`; below `0.5`, so `c = c_k·10^(6-k)` and
/// the division gives `|d|` back. So `|d|` has a string of at most six
/// decimals exactly when the one division gives it back, and the
/// shortest is `c`'s with its trailing zeros dropped (one kept, for the
/// `x.0` form): a shorter one would make `c` end in more zeros. As
/// `10^-6` exceeds the spacing of doubles there, no other string of at
/// most six decimals parses to `|d|`, so this is the shortest
/// round-tripping string — the one `{:?}` prints. Every other value (more
/// decimals, other magnitudes, ±0, NaN, ±inf) is `None`.
#[inline]
pub fn double_cell(d: f64, out: &mut [u8; CELL_BYTES]) -> Option<usize> {
    const SCALE: u64 = 1_000_000;
    let magnitude = d.abs();
    if !(1e-4..1e9).contains(&magnitude) {
        return None;
    }
    // 100 <= |d|·10^6 < 10^15: the signed conversions are single
    // instructions and exact here; the check below is what makes `c`
    // right.
    #[allow(clippy::cast_possible_truncation)]
    let c = (magnitude * 1e6 + 0.5) as i64;
    if c as f64 / 1e6 != magnitude {
        return None;
    }
    let c = c.unsigned_abs();
    out[0] = b'-';
    let dot = put_u64(c / SCALE, out, usize::from(d < 0.0));
    out[dot] = b'.';
    // The six decimals sit in bytes 2..8 of the word; the zero bytes at
    // its top are the string's trailing zeros.
    let decimals = eight_digits(c % SCALE);
    let trailing = (decimals.leading_zeros() / 8).min(6) as usize;
    put_word(out, dot + 1, (decimals >> 16) | ASCII_ZEROS);
    Some(dot + 1 + (6 - trailing).max(1))
}

/// A text blob under construction as bytes: each cell goes in as one
/// fixed-width store of a whole array, the end then moved by the cell's
/// length, so a cell costs no variable-length copy. Turned into a
/// `String` once, by [`TextSink::into_string`].
pub struct TextSink {
    /// Written bytes up to `len`; scratch past it, room for the next
    /// store.
    buf: Vec<u8>,
    len: usize,
}

/// Bytes a span's store moves: a span up to this long, with this many
/// bytes to read from its start, is one fixed-width store
/// ([`TextSink::put_span`]).
pub const SPAN_BYTES: usize = 16;

impl TextSink {
    /// A sink with room for about `bytes` bytes before it grows.
    pub fn with_capacity(bytes: usize) -> TextSink {
        TextSink {
            buf: vec![0; bytes.max(64)],
            len: 0,
        }
    }

    /// Make room for `more` bytes past the end.
    #[cold]
    fn grow(&mut self, more: usize) {
        let at_least = self.len + more;
        self.buf.resize(at_least.max(2 * self.buf.len()), 0);
    }

    /// Store all of `cell` at the end and keep its first `len` bytes.
    #[inline]
    pub fn put<const N: usize>(&mut self, cell: &[u8; N], len: usize) {
        if self.buf.len() - self.len < N {
            self.grow(N);
        }
        if let Some(slot) = self.buf.get_mut(self.len..self.len + N) {
            slot.copy_from_slice(cell);
            self.len += len.min(N);
        }
    }

    /// [`Self::put`] of the first `len` bytes of `cell` and then `delim`.
    #[inline]
    pub fn put_cell<const N: usize>(&mut self, mut cell: [u8; N], len: usize, delim: u8) {
        if let Some(slot) = cell.get_mut(len) {
            *slot = delim;
        }
        self.put(&cell, len + 1);
    }

    /// Hand `write` the [`CELL_BYTES`] bytes past the end to write a cell
    /// into from their start, and keep the count it returns; `false`
    /// when it wrote none.
    #[inline]
    fn put_with(&mut self, write: impl FnOnce(&mut [u8; CELL_BYTES]) -> Option<usize>) -> bool {
        if self.buf.len() - self.len < CELL_BYTES {
            self.grow(CELL_BYTES);
        }
        let window = (self.buf.get_mut(self.len..self.len + CELL_BYTES))
            .and_then(|w| <&mut [u8; CELL_BYTES]>::try_from(w).ok());
        let written = window.and_then(write);
        self.len += written.unwrap_or(0).min(CELL_BYTES);
        written.is_some()
    }

    /// Append `text[start..end]`: one [`SPAN_BYTES`]-byte store when the
    /// span is at most that long and `text` holds that many bytes from
    /// `start`, a copy of its length otherwise.
    #[inline]
    pub fn put_span(&mut self, text: &[u8], start: usize, end: usize) {
        let len = end.saturating_sub(start);
        let window = (text.get(start..start + SPAN_BYTES))
            .and_then(|w| <&[u8; SPAN_BYTES]>::try_from(w).ok())
            .filter(|_| len <= SPAN_BYTES);
        match window {
            Some(window) => self.put(window, len),
            None => self.put_slice(text.get(start..end).unwrap_or_default()),
        }
    }

    /// How many bytes are written: a mark [`Self::rewind`] goes back to.
    #[inline]
    pub fn mark(&self) -> usize {
        self.len
    }

    /// Drop what was written after `mark`, as a reader does with a line it
    /// refuses halfway.
    #[inline]
    pub fn rewind(&mut self, mark: usize) {
        self.len = self.len.min(mark);
    }

    /// Append `bytes`, a copy of their length.
    #[inline]
    pub fn put_slice(&mut self, bytes: &[u8]) {
        if self.buf.len() - self.len < bytes.len() {
            self.grow(bytes.len());
        }
        if let Some(slot) = self.buf.get_mut(self.len..self.len + bytes.len()) {
            slot.copy_from_slice(bytes);
            self.len += bytes.len();
        }
    }

    /// Append `i` and `delim` as [`write_int`] and a delimiter would.
    #[inline]
    pub fn put_int(&mut self, i: i64, delim: u8) {
        self.put_with(|cell| {
            let len = int_cell(i, cell);
            cell[len] = delim;
            Some(len + 1)
        });
    }

    /// Append `d` and `delim` as [`write_double`] and a delimiter would.
    #[inline]
    pub fn put_double(&mut self, d: f64, delim: u8) {
        let fast = self.put_with(|cell| {
            let len = double_cell(d, cell)?;
            cell[len] = delim;
            Some(len + 1)
        });
        if !fast {
            // `{:?}` of a double is at most 24 bytes.
            let mut spelled = [0u8; 32];
            let mut rest = &mut spelled[..];
            let _ = std::io::Write::write_fmt(&mut rest, format_args!("{d:?}"));
            let len = 32 - rest.len();
            self.put_cell(spelled, len, delim);
        }
    }

    /// The text written. Its bytes are checked to be UTF-8 once, here;
    /// every store was ASCII or a whole `str`, so the check passes.
    pub fn into_string(mut self) -> String {
        self.buf.truncate(self.len);
        String::from_utf8(self.buf).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into())
    }
}

/// Cells rendered once, each followed by its delimiter, in one arena
/// padded so a [`SPAN_BYTES`]-byte store from any cell's start stays
/// inside: a repeated cell (a dictionary entry, a small integer, a
/// recode code or a coded block) is then one lookup and one store.
pub struct CellTable {
    arena: Vec<u8>,
    /// Where cell `k` lies in `arena`; a length of 0 means not rendered
    /// yet (a rendered cell holds at least its delimiter).
    spans: Vec<(usize, usize)>,
}

impl CellTable {
    /// A table of `cells` cells, none rendered.
    pub fn new(cells: usize) -> CellTable {
        CellTable {
            arena: vec![0; SPAN_BYTES],
            spans: vec![(0, 0); cells],
        }
    }

    /// Whether cell `k` is rendered.
    #[inline]
    pub fn has(&self, k: usize) -> bool {
        self.spans.get(k).is_some_and(|&(_, len)| len > 0)
    }

    /// Render cell `k` as `text` and `delim`.
    pub fn set(&mut self, k: usize, text: &[u8], delim: u8) {
        let start = self.arena.len() - SPAN_BYTES;
        self.arena.truncate(start);
        self.arena.extend_from_slice(text);
        self.arena.push(delim);
        self.arena.extend_from_slice(&[0; SPAN_BYTES]);
        if let Some(span) = self.spans.get_mut(k) {
            *span = (start, text.len() + 1);
        }
    }

    /// Append cell `k` ([`TextSink::put_span`]); nothing for a cell not
    /// rendered.
    #[inline]
    pub fn put(&self, k: usize, sink: &mut TextSink) {
        if let Some(&(start, len)) = self.spans.get(k) {
            sink.put_span(&self.arena, start, start + len);
        }
    }
}

/// The integer a text cell holds, as [`Value::parse_typed`] reads it:
/// `None` for the empty cell and for `\N`, its `Type` error for anything
/// `i64::from_str` refuses.
#[inline]
pub fn parse_int_cell(text: &str) -> Result<Option<i64>> {
    if text.is_empty() || text == TEXT_NULL {
        return Ok(None);
    }
    if let Some(v) = short_int(text.as_bytes()) {
        return Ok(Some(v));
    }
    text.parse()
        .map(Some)
        .map_err(|e| SqlmlError::Type(format!("bad int literal {text:?}: {e}")))
}

/// `text` read directly when it is `-?[0-9]{1,18}`: at most 18 digits
/// always fit an `i64`, so the value is exact and is `str::parse`'s.
#[inline]
fn short_int(text: &[u8]) -> Option<i64> {
    let (negative, digits) = match text {
        [b'-', digits @ ..] => (true, digits),
        digits => (false, digits),
    };
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut v = 0i64;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + i64::from(d);
    }
    Some(if negative { -v } else { v })
}

/// `10^k` as doubles, each exact, for the decimals [`short_double`] reads.
const POW10_F64: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// `text` read directly when it is `-?[0-9]+(\.[0-9]+)?` with at most 15
/// digits: they form an integer `N < 10^15 < 2^53` and the `m` decimals
/// an exact `10^m`, so `N / 10^m`, one correctly rounded division of two
/// exact doubles, is the correctly rounded value of the decimal — the
/// double `str::parse` gives, `-0.0` included.
#[inline]
fn short_double(text: &[u8]) -> Option<f64> {
    let (negative, rest) = match text {
        [b'-', rest @ ..] => (true, rest),
        rest => (false, rest),
    };
    let (int, frac) = match rest.iter().position(|&b| b == b'.') {
        Some(dot) => (&rest[..dot], &rest[dot + 1..]),
        None => (rest, &rest[rest.len()..]),
    };
    let digits = int.len() + frac.len();
    if int.is_empty() || (frac.is_empty() && rest.len() > int.len()) || digits > 15 {
        return None;
    }
    let mut n = 0u64;
    for &b in int.iter().chain(frac) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n = n * 10 + u64::from(d);
    }
    let v = n as f64 / POW10_F64[frac.len()];
    Some(if negative { -v } else { v })
}

/// The double a text cell holds, as [`Value::parse_typed`] reads it:
/// `None` for the empty cell and for `\N`, its `Type` error for anything
/// `f64::from_str` refuses.
#[inline]
pub fn parse_double_cell(text: &str) -> Result<Option<f64>> {
    if text.is_empty() || text == TEXT_NULL {
        return Ok(None);
    }
    if let Some(v) = short_double(text.as_bytes()) {
        return Ok(Some(v));
    }
    text.parse()
        .map(Some)
        .map_err(|e| SqlmlError::Type(format!("bad double literal {text:?}: {e}")))
}

/// `0x80` in every byte of `x` that is not an ASCII digit: exact, as
/// `(v & 0x7F) + 0x76` stays within its byte.
#[inline]
fn non_digit_bytes(x: u64) -> u64 {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let v = x ^ ASCII_ZEROS;
    (((v & !HIGH) + 0x7676_7676_7676_7676) | v) & HIGH
}

/// The value of the `1 <= len <= 8` ASCII digits in the low bytes of the
/// little-endian word `x`, the most significant lowest: shifted to the
/// top of the word, so the bytes below read as leading zeros, then pairs,
/// then quads, then the whole, by three multiplies. The last two
/// multiplies drop, on purpose, the partial products above the word.
#[inline]
fn digits_value(x: u64, len: usize) -> u64 {
    const PAIRS: u64 = 0x0000_00FF_0000_00FF;
    let v = (x ^ ASCII_ZEROS) << (8 * (8 - len));
    let v = v * 10 + (v >> 8);
    let high = (v & PAIRS).wrapping_mul(100 + (1_000_000 << 32));
    let low = ((v >> 16) & PAIRS).wrapping_mul(1 + (10_000 << 32));
    high.wrapping_add(low) >> 32
}

/// The run of up to seven ASCII digits at `bytes[at..]` and the byte that
/// ends it, read as one word: `(value, digits, stop)`. `None` when fewer
/// than eight bytes are left or eight digits run on: the caller reads
/// those byte by byte.
#[inline]
fn digit_run(bytes: &[u8], at: usize) -> Option<(u64, usize, u8)> {
    let word = bytes.get(at..at + 8)?;
    let x = u64::from_le_bytes(<[u8; 8]>::try_from(word).ok()?);
    let stops = non_digit_bytes(x);
    if stops == 0 {
        return None;
    }
    let len = stops.trailing_zeros() as usize / 8;
    #[allow(clippy::cast_possible_truncation)]
    let stop = (x >> (8 * len)) as u8; // lint:allow(cast) — one byte of the word
    let value = if len == 0 { 0 } else { digits_value(x, len) };
    Some((value, len, stop))
}

/// The integer field at `bytes[at..]` when it is `-?[0-9]{1,18}` ended by
/// `delim`: its value, [`parse_int_cell`]'s, and the offset past the
/// delimiter. `None` for any other field, and at the end of the text. Up
/// to seven digits are one word; longer runs are read by the direct path
/// itself (`short_int`).
#[inline]
pub fn int_field(bytes: &[u8], at: usize, delim: u8) -> Option<(i64, usize)> {
    let negative = bytes.get(at) == Some(&b'-');
    let first = at + usize::from(negative);
    match digit_run(bytes, first) {
        Some((n, len, stop)) if len > 0 && stop == delim => {
            // At most seven digits.
            #[allow(clippy::cast_possible_wrap)]
            let v = n as i64;
            Some((if negative { -v } else { v }, first + len + 1))
        }
        Some(_) => None,
        None => {
            let end = str_field(bytes, at, delim)?;
            Some((short_int(bytes.get(at..end)?)?, end + 1))
        }
    }
}

/// The double field at `bytes[at..]` when it is `-?[0-9]+(\.[0-9]+)?` with
/// at most 15 digits, ended by `delim`: its value, [`parse_double_cell`]'s
/// (the same one division as its direct path), and the offset past the
/// delimiter. `None` for any other field, and at the end of the text.
/// An integer part and a fraction of up to seven digits are a word each;
/// longer runs are read by the direct path itself.
#[inline]
pub fn double_field(bytes: &[u8], at: usize, delim: u8) -> Option<(f64, usize)> {
    let negative = bytes.get(at) == Some(&b'-');
    let first = at + usize::from(negative);
    let (n, decimals, end) = match digit_run(bytes, first) {
        Some((int, len, stop)) if len > 0 && stop == delim => (int, 0, first + len),
        Some((int, len, b'.')) if len > 0 => match digit_run(bytes, first + len + 1) {
            Some((frac, decimals, stop)) if decimals > 0 && stop == delim => (
                int * POW10_U64[decimals] + frac,
                decimals,
                first + len + 1 + decimals,
            ),
            Some(_) => return None,
            None => return long_double_field(bytes, at, delim),
        },
        Some(_) => return None,
        None => return long_double_field(bytes, at, delim),
    };
    let v = n as f64 / POW10_F64[decimals];
    Some((if negative { -v } else { v }, end + 1))
}

/// [`double_field`] of a field its words do not cover: the field's end
/// found, its text read by [`short_double`].
fn long_double_field(bytes: &[u8], at: usize, delim: u8) -> Option<(f64, usize)> {
    let end = str_field(bytes, at, delim)?;
    Some((short_double(bytes.get(at..end)?)?, end + 1))
}

/// The string field at `bytes[at..]` when it holds no `\\` and is ended by
/// `delim`: the offset of the delimiter. The field's value is
/// `bytes[at..end]` as it stands. `None` for any other field, and at the
/// end of the text. Eight bytes are searched at once.
#[inline]
pub fn str_field(bytes: &[u8], at: usize, delim: u8) -> Option<usize> {
    let mut i = at;
    while let Some(word) = bytes.get(i..i + 8) {
        let x = u64::from_le_bytes(<[u8; 8]>::try_from(word).ok()?);
        let found = separator_bytes(x);
        if found != 0 {
            let end = i + found.trailing_zeros() as usize / 8;
            return (bytes.get(end) == Some(&delim)).then_some(end);
        }
        i += 8;
    }
    let rest = bytes.get(i..)?;
    let end = i + rest
        .iter()
        .position(|&b| matches!(b, b'|' | b'\n' | b'\\'))?;
    (bytes.get(end) == Some(&delim)).then_some(end)
}

/// `value`'s bytes as a little-endian word, zero past its end, when it
/// has at most eight and none is NUL: no two such values share a word,
/// so a short value is compared, hashed and kept as one `u64`
/// ([`unpacked`] gives it back).
#[inline]
pub fn packed(value: &[u8]) -> Option<u64> {
    packed_at(value, 0, value.len())
}

/// [`packed`] of `bytes[start..end]`, read as one word where `bytes` holds
/// eight from `start`, as a text's field is packed where it stands.
#[inline]
pub fn packed_at(bytes: &[u8], start: usize, end: usize) -> Option<u64> {
    let len = end.checked_sub(start).filter(|&len| len <= 8)?;
    let word = match bytes.get(start..start + 8) {
        Some(word) => <[u8; 8]>::try_from(word).ok()?,
        None => {
            let mut word = [0; 8];
            word.get_mut(..len)?.copy_from_slice(bytes.get(start..end)?);
            word
        }
    };
    let keep = match len {
        8 => u64::MAX,
        len => (1 << (8 * len)) - 1,
    };
    let key = u64::from_le_bytes(word) & keep;
    // A NUL among the value's bytes would read as its end.
    (zero_bytes(key | !keep) == 0).then_some(key)
}

/// The value [`packed`] packed into `key`.
pub fn unpacked(key: u64) -> String {
    let bytes = key.to_le_bytes();
    let len = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    // The bytes of a whole `str`: the lossy path is never taken.
    String::from_utf8_lossy(&bytes[..len]).into_owned()
}

/// Whether `text` is an integer cell spelled exactly as [`write_int`]
/// prints the value [`parse_int_cell`] reads from it: `0`, or
/// `-?[1-9][0-9]{0,17}`. At most 18 digits always fit an `i64`, and a
/// decimal with no leading zero, no `+` and no `-0` is the only spelling
/// `write_int` has. Such a cell can be copied instead of rewritten.
pub fn is_written_int(text: &str) -> bool {
    let (negative, digits) = match text.as_bytes() {
        [b'-', digits @ ..] => (true, digits),
        digits => (false, digits),
    };
    digits.iter().all(u8::is_ascii_digit) && written_int_digits(negative, digits)
}

/// [`is_written_int`]'s spelling rule on a sign and a run of ASCII
/// digits: `0`, or at most 18 digits with no leading zero.
#[inline]
fn written_int_digits(negative: bool, digits: &[u8]) -> bool {
    match digits {
        [b'0'] => !negative,
        [b'1'..=b'9', rest @ ..] => rest.len() <= 17,
        _ => false,
    }
}

/// The offset past the integer field at `bytes[at..]` and its `delim`
/// when [`is_written_int`] takes the field: a cell that can be copied as
/// it stands. `None` for any other field, and at the end of the text. Up
/// to seven digits are checked on the word [`int_field`] reads them from,
/// not walked again; a longer run is found by [`str_field`] and checked
/// by [`is_written_int`].
#[inline]
pub fn written_int_field(bytes: &[u8], at: usize, delim: u8) -> Option<usize> {
    let negative = bytes.get(at) == Some(&b'-');
    let first = at + usize::from(negative);
    match digit_run(bytes, first) {
        Some((_, len, stop)) if len > 0 && stop == delim => {
            let digits = bytes.get(first..first + len)?;
            written_int_digits(negative, digits).then_some(first + len + 1)
        }
        Some(_) => None,
        None => {
            let end = str_field(bytes, at, delim)?;
            let text = std::str::from_utf8(bytes.get(at..end)?).ok()?;
            is_written_int(text).then_some(end + 1)
        }
    }
}

/// Whether `text` is a double cell spelled exactly as [`write_double`]
/// prints the value [`parse_double_cell`] reads from it:
/// `-?(0|[1-9][0-9]{0,8})\.[0-9]{1,6}`, the last decimal non-zero unless
/// the fraction is `0`, and at least `1e-4` when the integer part is `0`.
/// Such a cell is below `1e9` and at least `1e-4` in magnitude, where
/// doubles lie at most `2^-23` apart, less than the `1e-6` between two
/// strings of at most six decimals: no other string of at most that many
/// decimals parses to the same double. `write_double` tries `k = 0..=6`
/// decimals and prints the first `k`-decimal string that parses back, so
/// it prints this one, with this many decimals (one for a `.0`
/// fraction), this integer part and this sign. Such a cell can be copied
/// instead of rewritten.
pub fn is_written_double(text: &str) -> bool {
    let unsigned = text.strip_prefix('-').unwrap_or(text).as_bytes();
    let Some(dot) = unsigned.iter().position(|&b| b == b'.') else {
        return false;
    };
    let (int, frac) = (&unsigned[..dot], &unsigned[dot + 1..]);
    int.iter().chain(frac).all(u8::is_ascii_digit) && written_double_digits(int, frac)
}

/// [`is_written_double`]'s spelling rule on the runs of ASCII digits
/// either side of the dot.
#[inline]
fn written_double_digits(int: &[u8], frac: &[u8]) -> bool {
    let int_ok = match int {
        [b'0'] => true,
        [b'1'..=b'9', rest @ ..] => rest.len() <= 8,
        _ => false,
    };
    let frac_ok = match frac {
        [b'0'] => int != b"0",
        [.., last] => frac.len() <= 6 && *last != b'0',
        [] => false,
    };
    // `0.abcdef` is at least 1e-4 when one of `abcd` is not zero.
    int_ok && frac_ok && (int != b"0" || frac.iter().take(4).any(|&d| d != b'0'))
}

/// The offset past the double field at `bytes[at..]` and its `delim`
/// when [`is_written_double`] takes the field: a cell that can be copied
/// as it stands. `None` for any other field, and at the end of the text.
/// An integer part and a fraction of up to seven digits are found on the
/// words [`double_field`] reads them from and checked there; longer runs
/// are found by [`str_field`] and checked by [`is_written_double`].
#[inline]
pub fn written_double_field(bytes: &[u8], at: usize, delim: u8) -> Option<usize> {
    let long = || {
        let end = str_field(bytes, at, delim)?;
        let text = std::str::from_utf8(bytes.get(at..end)?).ok()?;
        is_written_double(text).then_some(end + 1)
    };
    let first = at + usize::from(bytes.get(at) == Some(&b'-'));
    let (int, frac) = match digit_run(bytes, first) {
        Some((_, int, b'.')) if int > 0 => match digit_run(bytes, first + int + 1) {
            Some((_, frac, stop)) if frac > 0 && stop == delim => (int, frac),
            Some(_) => return None,
            None => return long(),
        },
        // A written double has a dot.
        Some(_) => return None,
        None => return long(),
    };
    let dot = first + int;
    let digits = |from: usize, len: usize| bytes.get(from..from + len);
    written_double_digits(digits(first, int)?, digits(dot + 1, frac)?).then_some(dot + frac + 2)
}

/// Decode one text line (no `\n`) into a row under `schema`.
pub fn decode_text_row(line: &str, schema: &Schema) -> Result<Row> {
    let mut bars = Vec::new();
    decode_text_row_with(&TextLine::of(line, &mut bars), schema, None)
}

/// [`decode_text_row`] of a walked line, pooling string values through
/// `interner` when one is given so repeated categorical values share one
/// `Arc<str>`.
fn decode_text_row_with(
    line: &TextLine<'_>,
    schema: &Schema,
    mut interner: Option<&mut Interner>,
) -> Result<Row> {
    let mut values = Vec::with_capacity(schema.len());
    line.cells(schema, |_, ty, text| {
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

/// One line of a text blob with its fields located, as [`read_lines`]
/// hands it over. Every raw `|` ([`TEXT_DELIM`]) is a separator: one
/// inside a string payload is written as `\p` by [`escape_text`].
pub struct TextLine<'a> {
    line: &'a str,
    /// The offset in `line` of every `|`: field `i` ends at `bars[i]`.
    bars: &'a [usize],
    /// Whether the line holds a `\`: only then can a field be the NULL
    /// marker or hold an escape.
    escaped: bool,
}

impl<'a> TextLine<'a> {
    /// `line` (which holds no `\n`) with its fields located, `bars` the
    /// buffer their offsets go into.
    fn of(line: &'a str, bars: &'a mut Vec<usize>) -> TextLine<'a> {
        let (_, escaped) = locate_line(line.as_bytes(), 0, bars);
        TextLine {
            line,
            bars,
            escaped,
        }
    }

    /// The line, without its `\n`.
    pub fn text(&self) -> &'a str {
        self.line
    }

    /// Hand `cell` each field's column index, declared type and unescaped
    /// text (`None` for the NULL marker), in column order, then check the
    /// arity: a bad cell before a missing field is the error, as is a bad
    /// cell before a surplus one. The text is borrowed from the line; only a
    /// field holding an escape is copied out to unescape it. The one owner
    /// of the `\N` marker, unescaping and the arity errors, so every reader
    /// of the text format accepts exactly the same lines.
    pub fn cells(
        &self,
        schema: &Schema,
        mut cell: impl FnMut(usize, DataType, Option<&str>) -> Result<()>,
    ) -> Result<()> {
        let mut start = 0;
        for (i, field) in schema.fields().iter().enumerate() {
            if i > self.bars.len() {
                return Err(SqlmlError::Execution(format!(
                    "text row has fewer than {} fields: {:?}",
                    schema.len(),
                    self.line
                )));
            }
            let end = self.bars.get(i).copied().unwrap_or(self.line.len());
            let raw = self.line.get(start..end).unwrap_or_default();
            start = end + 1;
            if !self.escaped {
                cell(i, field.data_type, Some(raw))?;
            } else if raw == TEXT_NULL {
                // The raw (pre-unescape) token `\N` is the NULL marker; a
                // user string "\N" escapes to `\\N` and therefore never
                // collides.
                cell(i, field.data_type, None)?;
            } else {
                cell(i, field.data_type, Some(&unescape_text(raw)?))?;
            }
        }
        if self.bars.len() >= schema.len() {
            return Err(SqlmlError::Execution(format!(
                "text row has more than {} fields: {:?}",
                schema.len(),
                self.line
            )));
        }
        Ok(())
    }
}

/// `0x80` in every byte of `y` that is zero, nothing elsewhere: exact,
/// as no carry crosses a byte (`0x7F + 0x7F` stays within one).
#[inline]
fn zero_bytes(y: u64) -> u64 {
    const LOW: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    !((((y & LOW) + LOW) | y) | LOW)
}

/// `0x80` in every byte of the little-endian word `x` that is a `|`,
/// `\n` or `\\`.
#[inline]
fn separator_bytes(x: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let is = |b: u8| zero_bytes(x ^ (ONES * u64::from(b)));
    is(b'|') | is(b'\n') | is(b'\\')
}

/// Locate the line of `bytes` that starts at `at`: its end (the offset of
/// its `\n`, or of the end of `bytes`), the offset from `at` of every `|`
/// within it, into `bars`, and whether it holds a `\\`. One pass, eight
/// bytes at a time: each word's `|`, `\n` and `\\` bytes are found at once
/// by word arithmetic, and only those bytes are visited.
fn locate_line(bytes: &[u8], at: usize, bars: &mut Vec<usize>) -> (usize, bool) {
    bars.clear();
    let mut escaped = false;
    let mut pos = at;
    while let Some(word) = bytes.get(pos..pos + 8) {
        let mut found =
            <[u8; 8]>::try_from(word).map_or(0, |w| separator_bytes(u64::from_le_bytes(w)));
        while found != 0 {
            let i = pos + found.trailing_zeros() as usize / 8;
            match bytes[i] {
                b'|' => bars.push(i - at),
                b'\\' => escaped = true,
                _ => return (i, escaped),
            }
            found &= found - 1;
        }
        pos += 8;
    }
    for (i, &b) in bytes.iter().enumerate().skip(pos) {
        match b {
            b'|' => bars.push(i - at),
            b'\\' => escaped = true,
            b'\n' => return (i, escaped),
            _ => {}
        }
    }
    (bytes.len(), escaped)
}

/// A reader of text lines, which may parse the common line where it
/// stands. [`read_lines`] offers it every line by its offset first; a line
/// it refuses is handed over with its fields located, so every NULL
/// marker, escape, bad cell and wrong arity goes through
/// [`TextLine::cells`] and reads, or fails, exactly as there. A closure
/// over [`TextLine`]s is a reader that refuses every line.
pub trait LineReader {
    /// Take the whole line that starts at byte `at` of `text` and return
    /// the offset past its `\n`, or take nothing of it and return `None`.
    fn read_fast(&mut self, _text: &str, _at: usize) -> Option<usize> {
        None
    }

    /// Take a line [`Self::read_fast`] refused.
    fn read_line(&mut self, line: &TextLine<'_>) -> Result<()>;
}

impl<F: FnMut(&TextLine<'_>) -> Result<()>> LineReader for F {
    fn read_line(&mut self, line: &TextLine<'_>) -> Result<()> {
        self(line)
    }
}

/// Hand `reader` every non-empty line of `text` in order, fast path
/// first. Lines end at `\n` only: a `\r` is string payload
/// ([`escape_text`] leaves it alone), not part of a line ending; the last
/// line need not end in `\n`. Stops at the reader's first error.
pub fn read_lines(text: &str, reader: &mut impl LineReader) -> Result<()> {
    let bytes = text.as_bytes();
    let mut bars = Vec::new();
    let mut at = 0;
    while let Some(&b) = bytes.get(at) {
        if b == b'\n' {
            at += 1;
            continue;
        }
        if let Some(next) = reader.read_fast(text, at) {
            at = next;
            continue;
        }
        let (end, escaped) = locate_line(bytes, at, &mut bars);
        reader.read_line(&TextLine {
            line: text.get(at..end).unwrap_or_default(),
            bars: &bars,
            escaped,
        })?;
        at = end + 1;
    }
    Ok(())
}

/// The text of a file held as consecutive `blocks` (cut at any byte),
/// as pieces of whole lines in file order: each block's whole lines
/// borrowed where they lie, a line that runs on into a later block copied
/// once, the file's last line whole whether or not it ends in `\n`. All of
/// it is checked to be UTF-8 before any piece is handed out, so a file
/// holding a bad byte is the error reading it whole into a `String` gives,
/// whatever its lines hold.
pub fn text_pieces<'a>(blocks: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<Cow<'a, str>>> {
    fn bad_utf8() -> SqlmlError {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
        .into()
    }
    let owned = |carry: &mut Vec<u8>| {
        String::from_utf8(std::mem::take(carry))
            .map(Cow::Owned)
            .map_err(|_| bad_utf8())
    };
    let mut pieces = Vec::new();
    let mut carry = Vec::new();
    for mut bytes in blocks {
        if !carry.is_empty() {
            let Some(end) = bytes.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(bytes);
                continue;
            };
            carry.extend_from_slice(&bytes[..=end]);
            pieces.push(owned(&mut carry)?);
            bytes = &bytes[end + 1..];
        }
        let whole = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        if whole > 0 {
            let text = std::str::from_utf8(&bytes[..whole]).map_err(|_| bad_utf8())?;
            pieces.push(Cow::Borrowed(text));
        }
        carry.extend_from_slice(&bytes[whole..]);
    }
    if !carry.is_empty() {
        pieces.push(owned(&mut carry)?);
    }
    Ok(pieces)
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

/// Parse a text blob (as stored on the DFS) into rows, one per
/// [`read_lines`] line. String cells are interned per batch: all rows
/// carrying the same categorical value share one `Arc<str>` allocation.
pub fn decode_text_batch(text: &str, schema: &Schema) -> Result<Vec<Row>> {
    let mut interner = Interner::new();
    let mut rows = Vec::new();
    read_lines(text, &mut |line: &TextLine<'_>| {
        rows.push(decode_text_row_with(line, schema, Some(&mut interner))?);
        Ok(())
    })?;
    Ok(rows)
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
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        #[allow(clippy::cast_possible_truncation)]
        buf.push((v as u8) | 0x80); // lint:allow(cast) — masked to the low 7 bits
        v >>= 7;
    }
    #[allow(clippy::cast_possible_truncation)]
    buf.push(v as u8); // lint:allow(cast) — v < 0x80 after the loop
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
            Value::Null => self.rows.push(TAG_NULL),
            Value::Bool(b) => self.rows.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
            Value::Int(i) => {
                self.rows.push(TAG_INT);
                put_uvarint(&mut self.rows, zigzag(*i));
            }
            Value::Double(d) => {
                self.rows.push(TAG_DOUBLE);
                self.rows.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Str(s) => self.put_str(s)?,
        }
        Ok(())
    }

    /// One string cell: a reference into the frame dictionary, the entry
    /// added on first use.
    fn put_str(&mut self, s: &Arc<str>) -> Result<()> {
        self.rows.push(TAG_STR);
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
    pub fn finish_into(&mut self, buf: &mut Vec<u8>) {
        put_uvarint(buf, self.dict.len() as u64);
        for entry in &self.dict {
            put_uvarint(buf, entry.len() as u64);
            buf.extend_from_slice(entry.as_bytes());
        }
        put_uvarint(buf, self.row_count as u64);
        buf.extend_from_slice(&self.rows);
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
pub fn encode_compact_batch(rows: &[Row], buf: &mut Vec<u8>) -> Result<DictStats> {
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

/// Default wire-byte target per frame — the paper's 4 KiB send buffer.
pub const FRAME_BYTES: usize = 4096;

/// The row ranges a partition of `rows` rows of `columns` is cut into,
/// one frame each: `frame_bytes` ÷ the row stride rows per frame — at
/// least one, so a row wider than `frame_bytes` ships alone — and
/// nothing else cuts a frame.
pub fn frame_ranges(
    columns: &[NumericColumn<'_>],
    rows: usize,
    frame_bytes: usize,
) -> impl Iterator<Item = Range<usize>> {
    let stride: usize = columns.iter().map(NumericColumn::stride).sum();
    let frame_rows = (frame_bytes / stride.max(1)).max(1);
    (0..rows)
        .step_by(frame_rows)
        .map(move |start| start..(start + frame_rows).min(rows))
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
pub fn encode_numeric_frame(
    columns: &[NumericColumn<'_>],
    rows: Range<usize>,
    buf: &mut Vec<u8>,
) -> Result<()> {
    if columns.is_empty() && !rows.is_empty() {
        return Err(SqlmlError::Execution(
            "numeric frame has rows but no columns".into(),
        ));
    }
    let row_count = crate::error::wire_u32(rows.len(), "frame row count")?;
    let col_count = crate::error::wire_u32(columns.len(), "frame column count")?;
    buf.extend_from_slice(&row_count.to_le_bytes());
    buf.extend_from_slice(&col_count.to_le_bytes());
    for col in columns {
        let past_end = || SqlmlError::Execution(format!("rows {rows:?} past a column's end"));
        buf.push(col.code());
        if let Some(valid) = col.valid {
            let valid = valid.get(rows.clone()).ok_or_else(past_end)?;
            buf.extend(valid.iter().map(|&v| u8::from(v)));
        }
        match &col.values {
            NumericValues::Int { values, width } => {
                let values = values.get(rows.clone()).ok_or_else(past_end)?;
                match width {
                    1 => put_ints::<1>(values, buf)?,
                    2 => put_ints::<2>(values, buf)?,
                    4 => put_ints::<4>(values, buf)?,
                    _ => put_ints::<8>(values, buf)?,
                }
            }
            NumericValues::Double(values) => {
                let values = values.get(rows.clone()).ok_or_else(past_end)?;
                put_cells::<8, f64>(buf, values, |v| v.to_bits().to_le_bytes());
            }
            NumericValues::Bool(values) => {
                let values = values.get(rows.clone()).ok_or_else(past_end)?;
                buf.extend(values.iter().map(|&v| u8::from(v)));
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
fn put_ints<const N: usize>(values: &[i64], buf: &mut Vec<u8>) -> Result<()> {
    if let Some(v) = values.iter().find(|&&v| !fits(v, N)) {
        return Err(SqlmlError::Overflow(format!(
            "integer {v} does not fit its {N}-byte column run"
        )));
    }
    put_cells::<N, i64>(buf, values, i64::to_le_bytes);
    Ok(())
}

/// Append the first `N` of each value's eight little-endian bytes. The
/// run is sized once and filled in place: appending cell by cell stores
/// `Vec::len` per cell, and LLVM reloads it after every cell's store
/// (see EXPERIMENTS.md, "The workspace on std alone").
#[inline]
fn put_cells<const N: usize, T: Copy>(buf: &mut Vec<u8>, values: &[T], le: impl Fn(T) -> [u8; 8]) {
    let start = buf.len();
    buf.resize(start + N * values.len(), 0);
    for (cell, &v) in buf[start..].chunks_exact_mut(N).zip(values) {
        cell.copy_from_slice(&le(v)[..N]);
    }
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

    /// Seeded cases per equivalence test: fewer under Miri, which runs
    /// this crate's tests in CI; the release step runs the full count.
    const CASES: u64 = if cfg!(miri) { 200 } else { 200_000 };

    fn doubles_written(d: f64) -> (String, String) {
        let mut out = String::from("x|");
        write_double(d, &mut out);
        (out, format!("x|{d:?}"))
    }

    #[test]
    fn text_double_writer_matches_debug_on_edges() {
        let bits = |d: f64, by: i64| f64::from_bits(d.to_bits().wrapping_add_signed(by));
        let mut edges = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            bits(f64::MIN_POSITIVE, -1),
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1 + 0.2,
            1.0 / 3.0,
            0.5,
            103.25,
            -35.8,
            0.000123,
            -0.000999,
            123.456789,
            -999_999_999.999999,
            999_999.999999,
            1e21,
            1e15,
            1e16,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
        ];
        for edge in [1e-4, 1e9, -1e-4, -1e9, 1e-5, 1e8, 1e-3] {
            edges.extend((-3..=3).map(|by| bits(edge, by)));
        }
        for d in edges {
            let (got, want) = doubles_written(d);
            assert_eq!(got, want, "{:#x}", d.to_bits());
        }
    }

    #[test]
    fn text_double_writer_matches_debug_on_random_bits_and_short_decimals() {
        let mut rng = crate::rng::SplitMix64::new(0x00D0_0B1E);
        let mut fast = 0;
        for _ in 0..CASES {
            let (got, want) = doubles_written(f64::from_bits(rng.next_u64()));
            assert_eq!(got, want);
            // A short decimal of either sign: up to 15 digits, 0..=8 of
            // them decimals, so the fast path's k = 6 limit is crossed.
            let digits = 1 + rng.next_below(15) as u32;
            let c = rng.next_below(10u64.pow(digits)) as f64;
            let k = rng.next_below(9) as i32;
            let d = if rng.chance(0.5) { -c } else { c } / 10f64.powi(k);
            let (got, want) = doubles_written(d);
            assert_eq!(got, want, "{:#x}", d.to_bits());
            fast += usize::from((1e-4..1e9).contains(&d.abs()) && !got.contains('e'));
        }
        assert!(fast as u64 > CASES / 4, "{fast} in the fast path's range");
    }

    #[test]
    fn text_int_writer_matches_display() {
        let mut rng = crate::rng::SplitMix64::new(0x0001_7E6E);
        let edges = [
            0,
            1,
            -1,
            9,
            10,
            -10,
            99,
            100,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ];
        let random = (0..CASES).map(|_| {
            // Every magnitude, not only 19-digit ones.
            let v = rng.next_u64() as i64;
            v >> rng.next_below(64)
        });
        for i in edges.into_iter().chain(random) {
            let mut out = String::from("x|");
            write_int(i, &mut out);
            assert_eq!(out, format!("x|{i}"));
        }
    }

    #[test]
    fn text_cell_parsers_read_what_the_standard_library_reads() {
        let cells = [
            "",
            "\\N",
            "\\\\N",
            "0",
            "-0",
            "+7",
            "12x",
            "1e3",
            "2.5",
            "-0.0",
            "inf",
            "-inf",
            "NaN",
            "nan",
            "1e400",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            " 1",
            "0x10",
            "1_000",
            "-",
            ".5",
            "5.",
            "ü",
        ];
        // The reference: empty and `\N` are NULL, anything else is
        // `from_str`'s value or its error, named as `parse_typed` names it.
        fn reference<T: std::str::FromStr<Err: std::fmt::Display>>(
            cell: &str,
            what: &str,
        ) -> Result<Option<T>> {
            if cell.is_empty() || cell == "\\N" {
                return Ok(None);
            }
            (cell.parse().map(Some))
                .map_err(|e| SqlmlError::Type(format!("bad {what} literal {cell:?}: {e}")))
        }
        let text = |r: Result<Option<Value>>| format!("{r:?}");
        for cell in cells {
            let int = |r: Result<Option<i64>>| text(r.map(|v| v.map(Value::Int)));
            assert_eq!(
                int(parse_int_cell(cell)),
                int(reference(cell, "int")),
                "{cell}"
            );
            let double = |r: Result<Option<f64>>| text(r.map(|v| v.map(Value::Double)));
            let want = double(reference(cell, "double"));
            assert_eq!(double(parse_double_cell(cell)), want, "{cell}");
            for ty in [DataType::Int, DataType::Double] {
                let typed = Value::parse_typed(cell, ty).map(|v| Some(v).filter(|v| !v.is_null()));
                let cell_parser = match ty {
                    DataType::Int => int(parse_int_cell(cell)),
                    _ => double(parse_double_cell(cell)),
                };
                assert_eq!(text(typed), cell_parser, "{cell} as {ty:?}");
            }
        }
    }

    #[test]
    fn text_lines_are_every_line_and_field_a_split_finds() {
        // Blobs of separators, escapes and multi-byte payload, across many
        // words: each line as a plain split finds it, and each field of a
        // line with no escape.
        const PIECES: [&str; 8] = ["|", "\n", "\\", "a", "ü", "\r", "xyz", "\n\n"];
        let mut rng = crate::SplitMix64::new(0x3A1C_0000);
        for _ in 0..CASES / 1000 + 10 {
            let len = rng.next_below(5000);
            let text: String = (0..len).map(|_| *rng.choose(&PIECES)).collect();
            let mut walked = Vec::new();
            read_lines(&text, &mut |line: &TextLine<'_>| {
                walked.push(line.text().to_string());
                let bars: Vec<usize> = line.text().match_indices('|').map(|(i, _)| i).collect();
                let escaped = line.text().contains('\\');
                assert_eq!((line.bars, line.escaped), (&bars[..], escaped));
                let split: Vec<&str> = line.text().split('|').collect();
                let fields = (0..split.len()).map(|c| Field::categorical(format!("c{c}")));
                let mut cells = Vec::new();
                let decoded = line.cells(&Schema::new(fields.collect()), |_, _, cell| {
                    cells.push(cell.map(str::to_string));
                    Ok(())
                });
                if !line.text().contains('\\') {
                    decoded.unwrap();
                    assert_eq!(
                        cells,
                        split
                            .iter()
                            .map(|f| Some(f.to_string()))
                            .collect::<Vec<_>>()
                    );
                }
                Ok(())
            })
            .unwrap();
            let split: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
            assert_eq!(walked, split);
        }
    }

    #[test]
    fn text_written_cells_are_spelled_as_the_writers_spell_them() {
        let written_int = |s: &str| {
            let mut out = String::new();
            write_int(parse_int_cell(s).unwrap().unwrap(), &mut out);
            out
        };
        let written_double = |s: &str| {
            let mut out = String::new();
            write_double(parse_double_cell(s).unwrap().unwrap(), &mut out);
            out
        };
        for s in ["0", "7", "-12", "999999999999999999", "-100000000000000000"] {
            assert!(is_written_int(s), "{s}");
            assert_eq!(written_int(s), s);
        }
        for s in [
            "",
            "-",
            "007",
            "+5",
            "-0",
            "00",
            "1e3",
            "1.0",
            "1000000000000000000",
            "\\N",
        ] {
            assert!(!is_written_int(s), "{s}");
        }
        for s in [
            "1.5",
            "-0.5",
            "5.0",
            "0.0001",
            "0.00011",
            "999999999.999999",
            "-123.456",
        ] {
            assert!(is_written_double(s), "{s}");
            assert_eq!(written_double(s), s);
        }
        for s in [
            "",
            "1",
            "1.",
            ".5",
            "1.50",
            "1e3",
            "-0.0",
            "0.0",
            "0.00001",
            "0.000010",
            "+1.5",
            "01.5",
            "1000000000.5",
            "1.0000001",
            "1.00",
            "inf",
            "NaN",
            "\\N",
        ] {
            assert!(!is_written_double(s), "{s}");
        }
        // Seeded spellings, canonical or not: a cell taken as written is
        // what its writer prints for it.
        let mut rng = crate::SplitMix64::new(0x5BE1_1ED0);
        let digits = |rng: &mut crate::SplitMix64, most: u64| -> String {
            let n = rng.next_below(most + 1);
            (0..n)
                .map(|_| char::from(b'0' + rng.next_below(10) as u8))
                .collect()
        };
        let (mut ints, mut doubles) = (0, 0);
        for _ in 0..2 * CASES {
            let sign = *rng.choose(&["-", "", "", "+"]);
            let int = digits(&mut rng, 20);
            let s = format!("{sign}{int}");
            let want = match s.is_empty() {
                true => Ok(None),
                false => (s.parse::<i64>().map(Some)).map_err(|e| format!("{e}")),
            };
            let got = parse_int_cell(&s).map_err(|e| e.to_string());
            match (got, want) {
                (Err(got), Err(want)) => assert!(got.ends_with(&want), "{s}: {got}"),
                (got, want) => assert_eq!(got, Ok(want.unwrap()), "{s}"),
            }
            if is_written_int(&format!("{sign}{int}")) {
                ints += 1;
                let s = format!("{sign}{int}");
                assert_eq!(written_int(&s), s);
            }
            let int = digits(&mut rng, 10);
            let frac = digits(&mut rng, 8);
            let s = match rng.next_below(4) {
                0 => format!("{sign}{int}"),
                _ => format!("{sign}{int}.{frac}"),
            };
            let reference = s
                .parse::<f64>()
                .map(|d| d.to_bits())
                .map_err(|e| e.to_string());
            let got = parse_double_cell(&s).map(|d| d.map(f64::to_bits));
            match got {
                Ok(Some(bits)) => assert_eq!(Ok(bits), reference, "{s}"),
                Ok(None) => assert!(s.is_empty() || s == "-" || s == "+", "{s}"),
                Err(_) => assert!(reference.is_err(), "{s}"),
            }
            if is_written_double(&s) {
                doubles += 1;
                assert_eq!(written_double(&s), s);
            }
        }
        assert!(
            ints > CASES / 2 && doubles > CASES / 10,
            "{ints} ints, {doubles} doubles"
        );
        // And what the writers print in that range is taken as written.
        for _ in 0..2 * CASES {
            let mut out = String::new();
            write_int(
                rng.range_i64(-999_999_999_999_999_999, 999_999_999_999_999_999),
                &mut out,
            );
            assert!(is_written_int(&out), "{out}");
            let int = rng.range_i64(-999_999_999, 999_999_999);
            let frac = digits(&mut rng, 6);
            let d: f64 = format!("{int}.{frac}0").parse().unwrap();
            out.clear();
            write_double(d, &mut out);
            assert_eq!(is_written_double(&out), d.abs() >= 1e-4, "{out}");
        }
    }

    /// Seeded values for the byte kernels' checks: the release step runs
    /// a million, Miri a few hundred.
    const KERNEL_CASES: u64 = if cfg!(miri) { 300 } else { 1_000_000 };

    #[test]
    fn text_double_kernel_matches_debug_on_a_million_values() {
        let bits = |d: f64, by: i64| f64::from_bits(d.to_bits().wrapping_add_signed(by));
        let mut rng = crate::rng::SplitMix64::new(0x0D0B_1E6B);
        let mut sink = TextSink::with_capacity(0);
        let mut want = String::new();
        let mut fast = 0;
        for case in 0..KERNEL_CASES {
            let d = match case % 5 {
                // Any bit pattern: subnormals, NaNs, infinities, ±0.
                0 => f64::from_bits(rng.next_u64()),
                // A decimal of up to 15 digits and 0..=8 decimals.
                1 | 2 => {
                    let digits = 1 + rng.next_below(15) as u32;
                    let c = rng.next_below(10u64.pow(digits)) as f64;
                    let d = c / 10f64.powi(rng.next_below(9) as i32);
                    if rng.chance(0.5) {
                        -d
                    } else {
                        d
                    }
                }
                // Near the fast path's edges and its rounding.
                3 => {
                    let edge = *rng.choose(&[1e-4, 1e9, 1e-3, 1e8, 0.1 + 0.2, 0.5]);
                    bits(edge, rng.range_i64(-4, 4))
                }
                // Any double of the fast path's range.
                _ => rng.next_f64() * 10f64.powi(rng.range_i64(-4, 8) as i32),
            };
            want.clear();
            let _ = write!(want, "{d:?}|");
            let mut cell = [0; CELL_BYTES];
            if let Some(len) = double_cell(d, &mut cell) {
                assert_eq!(&cell[..len], &want.as_bytes()[..want.len() - 1], "{d:e}");
                fast += 1;
            }
            let from = sink.len;
            sink.put_double(d, b'|');
            assert_eq!(&sink.buf[from..sink.len], want.as_bytes(), "{d:e}");
            if sink.len > 1 << 16 {
                sink = TextSink::with_capacity(0);
            }
        }
        assert!(fast as u64 > KERNEL_CASES / 5, "{fast} on the fast path");
    }

    #[test]
    fn text_sink_writes_what_the_string_writers_write() {
        let mut rng = crate::rng::SplitMix64::new(0x5171_C0DE);
        let mut sink = TextSink::with_capacity(0);
        let mut want = String::new();
        for _ in 0..KERNEL_CASES / 10 {
            let i = (rng.next_u64() as i64) >> rng.next_below(64);
            write_int(i, &mut want);
            want.push('|');
            sink.put_int(i, b'|');
            sink.put_cell(*b"\\N\0", 2, b'\n');
            want.push_str("\\N\n");
            let s = *rng.choose(&["", "ü", "a|b", "x\\y"]);
            let mut escaped = String::new();
            escape_text(s, &mut escaped);
            sink.put_slice(escaped.as_bytes());
            want.push_str(&escaped);
            // A span of a text, short or long, near its end or not; then
            // a line written and rolled back.
            let text = *rng.choose(&["a|bc|def\n", "0123456789abcdefghij|", "ü|"]);
            let start = rng.next_below(text.len() as u64) as usize;
            let end = start + rng.next_below((text.len() - start) as u64 + 1) as usize;
            if let Some(span) = text.get(start..end) {
                sink.put_span(text.as_bytes(), start, end);
                want.push_str(span);
            }
            let mark = sink.mark();
            sink.put_int(i, b'|');
            sink.put_span(text.as_bytes(), 0, text.len());
            sink.rewind(mark);
        }
        assert_eq!(sink.into_string(), want);
    }

    #[test]
    fn text_packed_values_are_their_bytes_and_come_back() {
        const VALUES: [&str; 12] = [
            "",
            "F",
            "Yes",
            "1234567",
            "12345678",
            "123456789",
            "a\0",
            "\0",
            "ü",
            "üüüü",
            "üüüüü",
            "x|y",
        ];
        for v in VALUES {
            let key = packed(v.as_bytes());
            let short = v.len() <= 8 && !v.contains('\0');
            assert_eq!(key.is_some(), short, "{v:?}");
            if let Some(key) = key {
                assert_eq!(unpacked(key), v);
            }
            // Packed where it stands, in a text that ends right after it or
            // runs on: the same word.
            for tail in ["", "|", "|0123456789"] {
                let text = format!("ab{v}{tail}");
                let bytes = text.as_bytes();
                assert_eq!(packed_at(bytes, 2, 2 + v.len()), key, "{v:?}{tail:?}");
            }
        }
        // No two short values share a word.
        let keys: std::collections::HashSet<u64> =
            VALUES.iter().filter_map(|v| packed(v.as_bytes())).collect();
        let short = VALUES.iter().filter(|v| v.len() <= 8 && !v.contains('\0'));
        assert_eq!(keys.len(), short.count());
    }

    #[test]
    fn text_field_parsers_read_what_the_cell_parsers_read() {
        // Cells the writers write, and their near misses, each followed
        // by a delimiter, the other delimiter, another byte or nothing.
        const ODD: [&str; 20] = [
            "",
            "-",
            "--1",
            "+1",
            "007",
            "-0",
            "1.",
            ".5",
            "1.2.3",
            "1e3",
            "\\N",
            "\\\\",
            "a|b",
            "12345678",
            "123456789012345678",
            "1234567890123456789",
            "0.000000001",
            "ü",
            "9223372036854775807",
            "99999999.9999999",
        ];
        let mut rng = crate::rng::SplitMix64::new(0xF1E1_D5ED);
        let (mut ints, mut doubles, mut strings) = (0, 0, 0);
        for _ in 0..CASES {
            let mut cell = String::new();
            match rng.next_below(4) {
                0 => write_int((rng.next_u64() as i64) >> rng.next_below(64), &mut cell),
                1 => {
                    let digits = 1 + rng.next_below(16) as u32;
                    let c = rng.next_below(10u64.pow(digits));
                    write_double(c as f64 / 10f64.powi(rng.next_below(9) as i32), &mut cell)
                }
                2 => {
                    let digits = 1 + rng.next_below(16) as usize;
                    cell.extend((0..digits).map(|_| char::from(b'0' + rng.next_below(10) as u8)));
                    if rng.chance(0.5) {
                        cell.insert(rng.next_below(digits as u64) as usize, '.');
                    }
                }
                _ => {
                    let odd: &&str = rng.choose(&ODD);
                    cell.push_str(odd);
                }
            }
            if rng.chance(0.3) {
                cell.insert(0, '-');
            }
            let (delim, other) = *rng.choose(&[(b'|', b'\n'), (b'\n', b'|')]);
            let mut text = String::from("x|");
            text.push_str(&cell);
            match rng.next_below(8) {
                0 => {}
                1 => text.push(char::from(other)),
                2 => text.push('5'),
                _ => {
                    text.push(char::from(delim));
                    text.push_str("7|y\n");
                }
            }
            let (bytes, at) = (text.as_bytes(), 2);
            let ended = bytes.get(at + cell.len()) == Some(&delim);
            let past = at + cell.len() + 1;
            // Taken exactly when the cell is a whole short number ended
            // by the delimiter, with the cell parser's value.
            let int = int_field(bytes, at, delim);
            let short = cell.strip_prefix('-').unwrap_or(&cell);
            let takes_int = ended
                && (1..=18).contains(&short.len())
                && short.bytes().all(|b| b.is_ascii_digit());
            assert_eq!(int.is_some(), takes_int, "{text:?}");
            if let Some((v, next)) = int {
                assert_eq!((Some(v), next), (parse_int_cell(&cell).unwrap(), past));
                ints += 1;
            }
            let double = double_field(bytes, at, delim);
            let takes_double = ended && short_double(cell.as_bytes()).is_some();
            assert_eq!(double.is_some(), takes_double, "{text:?}");
            if let Some((v, next)) = double {
                let want = parse_double_cell(&cell).unwrap().unwrap();
                assert_eq!((v.to_bits(), next), (want.to_bits(), past), "{text:?}");
                doubles += 1;
            }
            // Taken as written exactly when the copy-as-written checks take
            // the whole cell, ended by the delimiter.
            let written =
                |is_written: fn(&str) -> bool| (ended && is_written(&cell)).then_some(past);
            assert_eq!(
                written_int_field(bytes, at, delim),
                written(is_written_int),
                "{text:?}"
            );
            assert_eq!(
                written_double_field(bytes, at, delim),
                written(is_written_double),
                "{text:?}"
            );
            // The field runs to the first separator, the delimiter or not.
            let string = str_field(bytes, at, delim);
            let sep = text[at..].find(['|', '\n', '\\']).map(|p| at + p);
            assert_eq!(string, sep.filter(|&p| bytes[p] == delim), "{text:?}");
            strings += usize::from(string.is_some());
        }
        let least = CASES as usize / 10;
        assert!(
            ints > least && doubles > least && strings > least,
            "{ints} ints, {doubles} doubles, {strings} strings taken"
        );
    }

    #[test]
    fn text_lines_read_fast_or_not_are_the_lines_a_split_finds() {
        // A reader that takes lines of two plain fields and refuses any
        // other: between them, every line a plain split finds, in order.
        struct Both(Vec<String>);
        impl LineReader for Both {
            fn read_fast(&mut self, text: &str, at: usize) -> Option<usize> {
                let bytes = text.as_bytes();
                let bar = str_field(bytes, at, b'|')?;
                let end = str_field(bytes, bar + 1, b'\n')?;
                self.0.push(text[at..end].to_string());
                Some(end + 1)
            }
            fn read_line(&mut self, line: &TextLine<'_>) -> Result<()> {
                self.0.push(line.text().to_string());
                Ok(())
            }
        }
        const PIECES: [&str; 7] = ["|", "\n", "\\", "a", "ü", "\r", "\n\n"];
        let mut rng = crate::SplitMix64::new(0x7EAD_11E5);
        for _ in 0..CASES / 1000 + 10 {
            let len = rng.next_below(300);
            let text: String = (0..len).map(|_| *rng.choose(&PIECES)).collect();
            let split: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
            let mut read = Both(Vec::new());
            read_lines(&text, &mut read).unwrap();
            assert_eq!(read.0, split, "{text:?}");
        }
    }

    #[test]
    fn text_pieces_join_to_the_file_and_end_at_line_ends() {
        let mut rng = crate::SplitMix64::new(0xB10C_5ACE);
        for _ in 0..CASES / 1000 + 10 {
            let lines = rng.next_below(40);
            let mut text: String = (0..lines)
                .map(|_| *rng.choose(&["ab|c\n", "\n", "ü|üü\n", "longer line|7\n", "x"]))
                .collect();
            if rng.chance(0.5) {
                text.push_str("tail");
            }
            let bytes = text.as_bytes();
            let mut cuts: Vec<usize> = (0..rng.next_below(6))
                .map(|_| rng.next_below(bytes.len() as u64 + 1) as usize)
                .collect();
            cuts.extend([0, bytes.len()]);
            cuts.sort_unstable();
            let blocks = cuts.windows(2).map(|w| &bytes[w[0]..w[1]]);
            let pieces = text_pieces(blocks).unwrap();
            assert_eq!(pieces.concat(), text);
            let last = pieces.len().saturating_sub(1);
            for (k, piece) in pieces.iter().enumerate() {
                assert!(!piece.is_empty());
                assert!(k == last || piece.ends_with('\n'), "{pieces:?}");
            }
        }
        // A bad byte anywhere is the error a whole-file read gives, even
        // after a line that is not.
        let bad: [&[u8]; 3] = [b"1|\\q\n2|", b"x\n\xff", b"\n"];
        let mut whole = String::new();
        let want = std::io::Read::read_to_string(&mut bad.concat().as_slice(), &mut whole);
        let got = text_pieces(bad).unwrap_err();
        assert_eq!(
            got.to_string(),
            SqlmlError::from(want.unwrap_err()).to_string()
        );
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
