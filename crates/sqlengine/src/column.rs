//! Column batches — what a partition is made of.
//!
//! A [`Batch`] is one partition's rows stored column by column, each
//! column behind an `Arc` so a scan, a column-reference projection or a
//! pass-through UDF column shares it instead of copying. Numeric and
//! boolean columns are value vectors plus validity ([`Prim`]); a string
//! column is a [`DictionaryColumn`]: one `u32` code per row into a
//! dictionary of `Arc<str>` local to the partition, NULL as the reserved
//! [`NULL_CODE`]. A column whose values do not share one type (or whose
//! dictionary would outgrow its code space) is held verbatim as
//! [`Column::Mixed`], so building a batch from arbitrary rows is total
//! and every type error is still raised where it was: by the operator
//! that reads the value.
//!
//! §2.1 of the paper considers handing a column store's dictionary codes
//! to the ML system in place of recoded values and names three blockers;
//! all three hold for this type (and are pinned by the tests below):
//! codes are local to a partition, they are 0-based in first-appearance
//! order rather than consecutive from 1 in value order, and a dictionary
//! outlives a filter — [`DictionaryColumn::referenced_entries`] is what a
//! recode pass must read, never [`DictionaryColumn::entries`].

use std::collections::HashMap;
use std::sync::Arc;

use sqlml_common::codec::{self, NumericColumn};
use sqlml_common::schema::DataType;
use sqlml_common::{counter_u32, Result, Row, Schema, SqlmlError, Value};

/// Row id meaning "no row" in a gather list: the slot reads NULL (the
/// padded side of an unmatched outer-join row).
pub(crate) const NULL_ROW: u32 = u32::MAX;

/// The dictionary code reserved for NULL.
pub const NULL_CODE: u32 = u32::MAX;

/// A typed value vector with validity.
#[derive(Debug, Clone, Default)]
pub struct Prim<T> {
    values: Vec<T>,
    /// `None`: every slot is valid. Otherwise one flag per slot; an
    /// invalid slot holds `T::default()`.
    valid: Option<Vec<bool>>,
}

impl<T: Copy + Default> Prim<T> {
    pub fn new(values: Vec<T>, valid: Option<Vec<bool>>) -> Self {
        assert!(valid.as_ref().is_none_or(|v| v.len() == values.len()));
        Prim { values, valid }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Every slot's value; an invalid slot reads `T::default()`.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    pub fn validity(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }

    pub fn is_valid(&self, i: usize) -> bool {
        self.valid.as_ref().is_none_or(|v| v[i])
    }

    pub fn get(&self, i: usize) -> Option<T> {
        self.is_valid(i).then(|| self.values[i])
    }

    pub(crate) fn push(&mut self, v: Option<T>) {
        if v.is_none() && self.valid.is_none() {
            self.valid = Some(vec![true; self.values.len()]);
        }
        if let Some(valid) = &mut self.valid {
            valid.push(v.is_some());
        }
        self.values.push(v.unwrap_or_default());
    }

    /// Slot-wise map that keeps validity (invalid slots map their
    /// default, so `f` must not fail on it).
    pub(crate) fn map<U>(&self, f: impl Fn(T) -> U) -> Prim<U> {
        Prim {
            values: self.values.iter().map(|&v| f(v)).collect(),
            valid: self.valid.clone(),
        }
    }

    fn gather(&self, rows: &[u32]) -> Self {
        let mut padded = false;
        let values = (rows.iter())
            .map(|&r| {
                self.values.get(r as usize).copied().unwrap_or_else(|| {
                    padded = true;
                    T::default()
                })
            })
            .collect();
        let valid = (padded || self.valid.is_some()).then(|| {
            (rows.iter())
                .map(|&r| r != NULL_ROW && self.is_valid(r as usize))
                .collect()
        });
        Prim { values, valid }
    }

    fn append(&mut self, other: &Prim<T>) {
        if let (None, Some(_)) = (&self.valid, &other.valid) {
            self.valid = Some(vec![true; self.values.len()]);
        }
        if let Some(valid) = &mut self.valid {
            match &other.valid {
                Some(v) => valid.extend_from_slice(v),
                None => valid.resize(valid.len() + other.len(), true),
            }
        }
        self.values.extend_from_slice(&other.values);
    }
}

/// A dictionary-coded string column of one partition: codes are assigned
/// in order of first appearance, 0-based (the Parquet/ORC convention).
/// The dictionary is shared by `Arc` with every column gathered from
/// this one, so it may hold entries no remaining row references.
#[derive(Debug, Clone)]
pub struct DictionaryColumn {
    codes: Vec<u32>,
    dict: Arc<Vec<Arc<str>>>,
}

impl DictionaryColumn {
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// One code per row; NULL rows hold [`NULL_CODE`].
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Every dictionary entry in code order — a superset of the values
    /// the rows hold once the column has been filtered.
    pub fn entries(&self) -> &[Arc<str>] {
        &self.dict
    }

    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// The local code of row `i` (`None` for NULL).
    pub fn code(&self, i: usize) -> Option<u32> {
        Some(self.codes[i]).filter(|&c| c != NULL_CODE)
    }

    pub fn value(&self, i: usize) -> Option<&Arc<str>> {
        self.code(i).map(|c| &self.dict[c as usize])
    }

    /// The local code of a value, if this partition's dictionary has it.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        let at = self.dict.iter().position(|v| &**v == value)?;
        u32::try_from(at).ok()
    }

    /// The entries some row actually references, in first-use order —
    /// the distinct non-NULL values of the rows *as filtered*.
    pub fn referenced_entries(&self) -> Vec<&Arc<str>> {
        let mut seen = vec![false; self.dict.len()];
        let mut out = Vec::new();
        for &c in &self.codes {
            if c != NULL_CODE && !std::mem::replace(&mut seen[c as usize], true) {
                out.push(&self.dict[c as usize]);
                if out.len() == seen.len() {
                    break;
                }
            }
        }
        out
    }

    fn gather(&self, rows: &[u32]) -> Self {
        let codes = (rows.iter())
            .map(|&r| self.codes.get(r as usize).copied().unwrap_or(NULL_CODE))
            .collect();
        DictionaryColumn {
            codes,
            dict: Arc::clone(&self.dict),
        }
    }
}

/// One column of a [`Batch`].
#[derive(Debug, Clone)]
pub enum Column {
    Int(Prim<i64>),
    Double(Prim<f64>),
    Bool(Prim<bool>),
    Str(DictionaryColumn),
    /// Values that do not share one type, verbatim.
    Mixed(Vec<Value>),
}

impl Column {
    pub fn len(&self) -> usize {
        match self {
            Column::Int(p) => p.len(),
            Column::Double(p) => p.len(),
            Column::Bool(p) => p.len(),
            Column::Str(d) => d.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at row `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(p) => p.get(i).map_or(Value::Null, Value::Int),
            Column::Double(p) => p.get(i).map_or(Value::Null, Value::Double),
            Column::Bool(p) => p.get(i).map_or(Value::Null, Value::Bool),
            Column::Str(d) => d
                .value(i)
                .map_or(Value::Null, |s| Value::Str(Arc::clone(s))),
            Column::Mixed(v) => v[i].clone(),
        }
    }

    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int(p) => !p.is_valid(i),
            Column::Double(p) => !p.is_valid(i),
            Column::Bool(p) => !p.is_valid(i),
            Column::Str(d) => d.codes[i] == NULL_CODE,
            Column::Mixed(v) => v[i].is_null(),
        }
    }

    /// `n` copies of `v`.
    pub(crate) fn constant(v: &Value, n: usize) -> Column {
        match v {
            Value::Int(x) => Column::Int(Prim::new(vec![*x; n], None)),
            Value::Double(x) => Column::Double(Prim::new(vec![*x; n], None)),
            Value::Bool(x) => Column::Bool(Prim::new(vec![*x; n], None)),
            Value::Str(s) => Column::Str(DictionaryColumn {
                codes: vec![0; n],
                dict: Arc::new(vec![Arc::clone(s)]),
            }),
            Value::Null => Column::Int(Prim::new(vec![0; n], Some(vec![false; n]))),
        }
    }

    /// The rows at `rows`, in that order; [`NULL_ROW`] reads NULL. A
    /// string column keeps (shares) its dictionary.
    pub(crate) fn gather(&self, rows: &[u32]) -> Column {
        match self {
            Column::Int(p) => Column::Int(p.gather(rows)),
            Column::Double(p) => Column::Double(p.gather(rows)),
            Column::Bool(p) => Column::Bool(p.gather(rows)),
            Column::Str(d) => Column::Str(d.gather(rows)),
            Column::Mixed(v) => Column::Mixed(
                (rows.iter())
                    .map(|&r| v.get(r as usize).cloned().unwrap_or(Value::Null))
                    .collect(),
            ),
        }
    }

    /// The columns of several partitions as one, in order. Dictionaries
    /// are merged by value and the codes remapped; codes of different
    /// partitions are never compared.
    pub(crate) fn concat<'a>(parts: impl IntoIterator<Item = &'a Column>) -> Column {
        let mut out: Option<ColumnBuilder> = None;
        for part in parts {
            match &mut out {
                Some(b) => b.append(part),
                None => out = Some(ColumnBuilder::from_column(part.clone())),
            }
        }
        out.map_or(Column::Mixed(Vec::new()), ColumnBuilder::finish)
    }

    /// The first row holding a string — the one cell kind the ML
    /// hand-off cannot convert. Only a `Str` or `Mixed` column has one.
    pub fn first_string(&self) -> Option<usize> {
        match self {
            Column::Str(d) => d.codes.iter().position(|&c| c != NULL_CODE),
            Column::Mixed(values) => (values.iter()).position(|v| matches!(v, Value::Str(_))),
            _ => None,
        }
    }

    /// This column as the numeric frame ships it: a typed vector lends
    /// its slices; a misfit column converts cell by cell to doubles, as
    /// [`Row::to_f64_vec`] would. A string cell is a `Type` error naming
    /// its row.
    pub fn numeric(&self) -> Result<NumericColumn<'_>> {
        Ok(match self {
            Column::Int(p) => NumericColumn::int(p.values(), p.validity()),
            Column::Double(p) => NumericColumn::double(p.values(), p.validity()),
            Column::Bool(p) => NumericColumn::bool(p.values(), p.validity()),
            Column::Str(_) | Column::Mixed(_) => {
                if let Some(row) = self.first_string() {
                    let cell = self.value(row);
                    return Err(SqlmlError::Type(format!(
                        "row {row} holds the string {cell}"
                    )));
                }
                let cell = |v: Value| if v.is_null() { Ok(0.0) } else { v.as_f64() };
                let cells = (0..self.len()).map(|i| cell(self.value(i)));
                NumericColumn::double(cells.collect::<Result<Vec<f64>>>()?, None)
            }
        })
    }

    /// Payload size under the text encoding: `len + 1` per string cell,
    /// 8 for any other cell (a NULL included).
    pub(crate) fn approx_bytes(&self) -> u64 {
        let str_cell = |s: &str| s.len() as u64 + 1;
        match self {
            Column::Str(d) => {
                let sizes: Vec<u64> = d.dict.iter().map(|s| str_cell(s)).collect();
                let size = |c: &u32| sizes.get(*c as usize).copied().unwrap_or(8);
                d.codes.iter().map(size).sum()
            }
            Column::Mixed(values) => (values.iter())
                .map(|v| match v {
                    Value::Str(s) => str_cell(s),
                    _ => 8,
                })
                .sum(),
            _ => 8 * self.len() as u64,
        }
    }
}

/// Builds one [`Column`] value by value. The variant starts as the
/// declared type's; a first non-NULL value of another type re-types an
/// all-NULL prefix, and any later misfit degrades the column to
/// [`Column::Mixed`] — pushing never fails.
pub(crate) struct ColumnBuilder {
    col: Column,
    nulls: usize,
    /// Value → code, for a `Str` column under construction.
    index: HashMap<Arc<str>, u32>,
}

impl ColumnBuilder {
    pub(crate) fn new(ty: DataType, capacity: usize) -> Self {
        let col = match ty {
            DataType::Int => Column::Int(Prim::new(Vec::with_capacity(capacity), None)),
            DataType::Double => Column::Double(Prim::new(Vec::with_capacity(capacity), None)),
            DataType::Bool => Column::Bool(Prim::new(Vec::with_capacity(capacity), None)),
            DataType::Str => Column::Str(DictionaryColumn {
                codes: Vec::with_capacity(capacity),
                dict: Arc::default(),
            }),
        };
        Self::from_column(col)
    }

    fn from_column(col: Column) -> Self {
        let nulls = (0..col.len()).filter(|&i| col.is_null(i)).count();
        let mut index = HashMap::new();
        if let Column::Str(d) = &col {
            // A dictionary never holds more than `NULL_CODE` entries.
            index.extend(d.dict.iter().cloned().zip(0u32..));
        }
        ColumnBuilder { col, nulls, index }
    }

    fn len(&self) -> usize {
        self.col.len()
    }

    pub(crate) fn push(&mut self, v: &Value) {
        match (&mut self.col, v) {
            (Column::Int(p), Value::Int(x)) => p.push(Some(*x)),
            (Column::Double(p), Value::Double(x)) => p.push(Some(*x)),
            (Column::Bool(p), Value::Bool(x)) => p.push(Some(*x)),
            (Column::Str(_), Value::Str(s)) => self.push_interned(s, || Arc::clone(s)),
            (Column::Mixed(values), v) => values.push(v.clone()),
            (Column::Int(p), Value::Null) => p.push(None),
            (Column::Double(p), Value::Null) => p.push(None),
            (Column::Bool(p), Value::Null) => p.push(None),
            (Column::Str(d), Value::Null) => d.codes.push(NULL_CODE),
            (_, v) => {
                if self.nulls == self.len() {
                    // Only NULLs so far: the first value picks the type.
                    let ty = v.data_type().unwrap_or(DataType::Int);
                    let mut retyped = ColumnBuilder::new(ty, self.len() + 1);
                    (0..self.len()).for_each(|_| retyped.push(&Value::Null));
                    *self = retyped;
                    return self.push(v);
                }
                self.degrade().push(v.clone());
            }
        }
        self.nulls += usize::from(v.is_null());
    }

    /// [`Self::push`] of a string cell the caller holds as `&str`; the
    /// `Arc<str>` is allocated only for a value new to the dictionary.
    fn push_str(&mut self, s: &str) {
        match self.col {
            Column::Str(_) => self.push_interned(s, || Arc::from(s)),
            _ => self.push(&Value::Str(Arc::from(s))),
        }
    }

    fn push_interned(&mut self, s: &str, entry: impl FnOnce() -> Arc<str>) {
        let code = self.intern(s, entry);
        match (&mut self.col, code) {
            (Column::Str(d), Some(code)) => d.codes.push(code),
            // The code space is exhausted: hold the column verbatim.
            _ => self.degrade().push(Value::Str(Arc::from(s))),
        }
    }

    fn intern(&mut self, s: &str, entry: impl FnOnce() -> Arc<str>) -> Option<u32> {
        if let Some(&code) = self.index.get(s) {
            return Some(code);
        }
        let Column::Str(d) = &mut self.col else {
            return None;
        };
        let code = counter_u32(d.dict.len(), "dictionary cardinality").ok()?;
        if code == NULL_CODE {
            return None;
        }
        let entry = entry();
        self.index.insert(Arc::clone(&entry), code);
        Arc::make_mut(&mut d.dict).push(entry);
        Some(code)
    }

    fn degrade(&mut self) -> &mut Vec<Value> {
        if !matches!(self.col, Column::Mixed(_)) {
            let values = (0..self.len()).map(|i| self.col.value(i)).collect();
            self.col = Column::Mixed(values);
        }
        match &mut self.col {
            Column::Mixed(values) => values,
            _ => unreachable!("just degraded"),
        }
    }

    /// Append every row of `other`: typed vectors extend, dictionaries
    /// merge by value (one lookup per entry, not per row).
    fn append(&mut self, other: &Column) {
        if let Column::Str(b) = other {
            if self.append_codes(b).is_none() {
                (0..b.len()).for_each(|i| self.push(&other.value(i)));
            }
            return;
        }
        match (&mut self.col, other) {
            (Column::Int(a), Column::Int(b)) => a.append(b),
            (Column::Double(a), Column::Double(b)) => a.append(b),
            (Column::Bool(a), Column::Bool(b)) => a.append(b),
            _ => return (0..other.len()).for_each(|i| self.push(&other.value(i))),
        };
        self.nulls += (0..other.len()).filter(|&i| other.is_null(i)).count();
    }

    /// `None` (nothing appended) when this is not a string column or
    /// the merged dictionary would outgrow its code space.
    fn append_codes(&mut self, other: &DictionaryColumn) -> Option<()> {
        if !matches!(self.col, Column::Str(_)) {
            return None;
        }
        let remap: Vec<u32> = (other.dict.iter())
            .map(|s| self.intern(s, || Arc::clone(s)))
            .collect::<Option<_>>()?;
        let Column::Str(d) = &mut self.col else {
            return None;
        };
        self.nulls += other.codes.iter().filter(|&&c| c == NULL_CODE).count();
        let codes = other.codes.iter();
        d.codes
            .extend(codes.map(|&c| remap.get(c as usize).copied().unwrap_or(NULL_CODE)));
        Some(())
    }

    pub(crate) fn finish(self) -> Column {
        self.col
    }
}

/// One partition: equally long columns, shared by `Arc`.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    columns: Vec<Arc<Column>>,
    len: usize,
}

impl Batch {
    pub fn new(columns: Vec<Arc<Column>>, len: usize) -> Batch {
        assert!(columns.iter().all(|c| c.len() == len));
        Batch { columns, len }
    }

    /// Build from rows. Column `c` takes `schema`'s type as its starting
    /// variant; a row shorter than the widest reads NULL past its end.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Batch {
        let mut b = BatchBuilder::new(schema, rows.len());
        rows.iter().for_each(|r| b.push_row(r));
        b.finish()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, c: usize) -> &Arc<Column> {
        &self.columns[c]
    }

    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Every column as the numeric frame ships it ([`Column::numeric`]),
    /// for a transfer UDF cutting this partition into frames. A column
    /// holding a string is a `Type` error naming it by `schema`.
    pub fn numeric_columns(&self, schema: &Schema) -> Result<Vec<NumericColumn<'_>>> {
        let named = |c: usize, e: SqlmlError| {
            let name = schema.fields().get(c).map_or("?", |f| f.name.as_str());
            SqlmlError::Type(format!("cannot ship column {c} ({name}): {e}"))
        };
        (self.columns.iter().enumerate())
            .map(|(c, col)| col.numeric().map_err(|e| named(c, e)))
            .collect()
    }

    /// Row `i` as a [`Row`] — the cursor the unmeasured UDFs and the
    /// tests read through; no plan operator does.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    pub fn rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    pub(crate) fn gather(&self, rows: &[u32]) -> Batch {
        let columns = (self.columns.iter())
            .map(|c| Arc::new(c.gather(rows)))
            .collect();
        Batch::new(columns, rows.len())
    }

    /// Several `width`-column partitions as one batch, rows in
    /// partition order.
    pub(crate) fn concat(width: usize, parts: &[Batch]) -> Batch {
        if let [only] = parts {
            return only.clone();
        }
        let columns = (0..width)
            .map(|c| Arc::new(Column::concat(parts.iter().map(|p| &**p.column(c)))))
            .collect();
        Batch::new(columns, parts.iter().map(Batch::len).sum())
    }

    /// The text-format lines of every row: the string
    /// `codec::encode_text_batch(&self.rows())` returns, each cell
    /// through the same `codec::encode_text_value` writer.
    pub fn encode_text(&self) -> String {
        let mut out = String::new();
        for i in 0..self.len {
            for (c, col) in self.columns.iter().enumerate() {
                if c > 0 {
                    out.push(codec::TEXT_DELIM);
                }
                match &**col {
                    Column::Str(d) => match d.value(i) {
                        Some(s) => codec::escape_text(s, &mut out),
                        None => codec::encode_text_value(&Value::Null, &mut out),
                    },
                    other => codec::encode_text_value(&other.value(i), &mut out),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parse a text blob into columns: the rows
    /// `codec::decode_text_batch(text, schema)` returns, or its error.
    /// Lines end at `\n` only, as there: a `\r` is string payload.
    pub fn decode_text(text: &str, schema: &Schema) -> Result<Batch> {
        let lines = text.bytes().filter(|&b| b == b'\n').count();
        let mut b = BatchBuilder::new(schema, lines);
        for line in text.split('\n').filter(|l| !l.is_empty()) {
            codec::decode_text_line(line, schema, |c, ty, field| {
                match (field, ty) {
                    (None, _) => b.columns[c].push(&Value::Null),
                    (Some(s), DataType::Str) => b.columns[c].push_str(s),
                    (Some(s), ty) => b.columns[c].push(&Value::parse_typed(s, ty)?),
                }
                Ok(())
            })?;
            b.rows += 1;
        }
        Ok(b.finish())
    }
}

/// Builds a [`Batch`] row by row.
pub(crate) struct BatchBuilder {
    columns: Vec<ColumnBuilder>,
    rows: usize,
    capacity: usize,
}

impl BatchBuilder {
    pub(crate) fn new(schema: &Schema, capacity: usize) -> Self {
        let columns = (schema.fields().iter())
            .map(|f| ColumnBuilder::new(f.data_type, capacity))
            .collect();
        BatchBuilder {
            columns,
            rows: 0,
            capacity,
        }
    }

    pub(crate) fn push_row(&mut self, row: &Row) {
        while self.columns.len() < row.len() {
            // A value past the schema's width: a column of its own,
            // NULL in every earlier row.
            let mut extra = ColumnBuilder::new(DataType::Int, self.capacity);
            (0..self.rows).for_each(|_| extra.push(&Value::Null));
            self.columns.push(extra);
        }
        let cells = row.values().iter().chain(std::iter::repeat(&Value::Null));
        for (col, v) in self.columns.iter_mut().zip(cells) {
            col.push(v);
        }
        self.rows += 1;
    }

    pub(crate) fn finish(self) -> Batch {
        let columns = (self.columns.into_iter())
            .map(|c| Arc::new(c.finish()))
            .collect();
        Batch::new(columns, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_common::schema::Field;

    fn strings(rows: &[Row]) -> DictionaryColumn {
        let schema = Schema::new(vec![Field::categorical("c")]);
        match &**Batch::from_rows(&schema, rows).column(0) {
            Column::Str(d) => d.clone(),
            other => panic!("expected a dictionary column, got {other:?}"),
        }
    }

    #[test]
    fn objection_1_local_dictionaries_disagree() {
        // Partition 0 sees M first; partition 1 sees F first: the same
        // value gets different codes.
        let (p0, p1) = (
            strings(&[row!["M"], row!["F"]]),
            strings(&[row!["F"], row!["M"]]),
        );
        assert_eq!((p0.code_of("M"), p1.code_of("M")), (Some(0), Some(1)));
        // Concatenation merges by value and remaps: never by code.
        let both = Column::concat([&Column::Str(p0), &Column::Str(p1)]);
        let values: Vec<Value> = (0..4).map(|i| both.value(i)).collect();
        assert_eq!(values, ["M", "F", "F", "M"].map(Value::from));
    }

    #[test]
    fn objection_2_codes_are_not_consecutive_from_one() {
        // zeta=0, alpha=1 — first-appearance order, 0-based; a recode map
        // needs alpha=1, zeta=2. NULL is the reserved code.
        let d = strings(&[row!["zeta"], Row::new(vec![Value::Null]), row!["alpha"]]);
        assert_eq!(d.codes(), [0, NULL_CODE, 1]);
        assert_eq!((d.code_of("zeta"), d.code_of("alpha")), (Some(0), Some(1)));
        assert_eq!((d.code(1), d.value(1)), (None, None));
    }

    #[test]
    fn objection_3_a_dictionary_outlives_a_filter() {
        let d = Column::Str(strings(&[row!["CA"], row!["USA"], row!["CA"], row!["FR"]]));
        let Column::Str(kept) = d.gather(&[1, NULL_ROW]) else {
            panic!("gather changed the variant");
        };
        assert_eq!(kept.cardinality(), 3);
        assert_eq!(kept.referenced_entries(), [&Arc::from("USA")]);
        assert_eq!(kept.codes(), [1, NULL_CODE]);
    }

    #[test]
    fn building_from_rows_is_total() {
        let schema = Schema::new(vec![
            Field::new("declared_int", DataType::Int),
            Field::new("nulls_then_text", DataType::Int),
        ]);
        let rows = vec![
            row![1i64],
            Row::new(vec![Value::Double(2.5), Value::Null, Value::Bool(true)]),
            row!["three", "late"],
        ];
        let batch = Batch::from_rows(&schema, &rows);
        // A misfit degrades its column, an all-NULL prefix is re-typed, a
        // value past the schema gets a column; short rows read NULL.
        assert!(matches!(**batch.column(0), Column::Mixed(_)));
        assert!(matches!(**batch.column(1), Column::Str(_)));
        assert_eq!(
            batch.row(0),
            Row::new(vec![Value::Int(1), Value::Null, Value::Null])
        );
        assert_eq!(batch.row(1), rows[1]);
        assert_eq!(
            batch.row(2),
            Row::new(vec!["three".into(), "late".into(), Value::Null])
        );
    }

    #[test]
    fn edge_cells_survive_the_column_text_codec() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("d", DataType::Double),
            Field::new("b", DataType::Bool),
            Field::categorical("s"),
        ]);
        let rows = vec![
            row![i64::MIN, -0.0, true, "a\r"],
            row![i64::MAX, 1e21, false, "|\\\n"],
            row![0i64, 5e-324, true, ""],
            row![-1i64, f64::INFINITY, false, "\\N"],
            row![1i64, f64::NEG_INFINITY, true, "ü"],
            Row::new(vec![Value::Null; 4]),
        ];
        let batch = Batch::from_rows(&schema, &rows);
        let text = batch.encode_text();
        assert_eq!(text, codec::encode_text_batch(&rows));
        assert_eq!(Batch::decode_text(&text, &schema).unwrap().rows(), rows);
    }
}
