//! In-memory partitioned datasets — the engine's RDD analogue.
//!
//! A partition is a matrix, not a list of points: one row-major block of
//! `f64` features (`dim` values per row) plus one label per row. Readers
//! fill a [`PartitionBlock`] while they read, trainers see a
//! [`PartitionView`] of contiguous rows, and nothing between the socket
//! and the model is boxed per row.

use std::any::Any;
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

use sqlml_common::codec::NumericFrame;
use sqlml_common::{Result, Row, SqlmlError};

use crate::linalg::{by_width, ByWidth};

/// One training example: numeric features plus a numeric label. The
/// constructor currency of [`Dataset::new`] / [`Dataset::from_points`]
/// for tests and examples; a `Dataset` does not store these.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPoint {
    pub label: f64,
    pub features: Vec<f64>,
}

impl LabeledPoint {
    pub fn new(label: f64, features: Vec<f64>) -> Self {
        LabeledPoint { label, features }
    }
}

/// One row of a partition, borrowed from its block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRef<'a> {
    pub label: f64,
    pub features: &'a [f64],
}

/// One ML worker's share of a dataset while it is being read: rows are
/// appended as numbers, the label column is split off as each row lands,
/// and every row must have the width of the first.
#[derive(Debug)]
pub struct PartitionBlock {
    /// Which column of an appended row is the label (`None`: every column
    /// is a feature and the label is 0 — the unsupervised path).
    label_col: Option<usize>,
    /// Feature count per row, fixed by the first row.
    dim: Option<usize>,
    features: Vec<f64>,
    labels: Vec<f64>,
    /// Conversion buffer of [`PartitionBlock::push_record`].
    scratch: Vec<f64>,
}

impl PartitionBlock {
    pub fn new(label_col: Option<usize>) -> Self {
        PartitionBlock {
            label_col,
            dim: None,
            features: Vec::new(),
            labels: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Append one row of column values: `label_col` becomes the label,
    /// all other columns are features in order.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        match self.label_col {
            Some(lc) => {
                let Some(&label) = row.get(lc) else {
                    return Err(SqlmlError::Ml(format!(
                        "label column {lc} out of range for {}-column row",
                        row.len()
                    )));
                };
                self.check_dim(row.len() - 1)?;
                self.features.extend_from_slice(&row[..lc]);
                self.features.extend_from_slice(&row[lc + 1..]);
                self.labels.push(label);
            }
            None => self.push_point(0.0, row)?,
        }
        Ok(())
    }

    /// Append one record. Fails on non-numeric values — which is
    /// precisely why the paper recodes categorical variables before the
    /// hand-off; NULLs become 0.0 (see [`Row::to_f64_vec`]).
    pub fn push_record(&mut self, row: &Row) -> Result<()> {
        let mut values = std::mem::take(&mut self.scratch);
        values.clear();
        let pushed = row
            .append_f64s(&mut values)
            .and_then(|()| self.push_row(&values));
        self.scratch = values;
        pushed
    }

    /// Append `rows` rows of `cols` columns, a column at a time: once
    /// the shape is accepted, `fill(c, dst, stride)` is called for every
    /// column in order and writes the column's cell of new row `r` to
    /// `dst[r * stride]` (zero where it writes nothing). A shape the
    /// block refuses leaves it untouched.
    fn push_columns(
        &mut self,
        rows: usize,
        cols: usize,
        mut fill: impl FnMut(usize, &mut [f64], usize),
    ) -> Result<()> {
        if rows == 0 {
            return Ok(());
        }
        let dim = match self.label_col {
            Some(lc) if lc >= cols => {
                return Err(SqlmlError::Ml(format!(
                    "label column {lc} out of range for {cols}-column row"
                )))
            }
            Some(_) => cols - 1,
            None => cols,
        };
        self.check_dim(dim)?;
        let at = self.len();
        self.features.resize((at + rows) * dim, 0.0);
        self.labels.resize(at + rows, 0.0);
        let mut feature = at * dim;
        for c in 0..cols {
            if Some(c) == self.label_col {
                fill(c, &mut self.labels[at..], 1);
            } else {
                fill(c, &mut self.features[feature..], dim);
                feature += 1;
            }
        }
        Ok(())
    }

    /// Decode one numeric frame payload into the block, keeping the rows
    /// past the first `skip`; returns how many rows the frame held — the
    /// one frame decoder of both transfers' readers. The payload is
    /// checked whole, and its shape against the block's, before a cell
    /// is written: a frame lands whole or not at all.
    pub fn push_frame(&mut self, frame: &[u8], skip: usize) -> Result<usize> {
        let frame = NumericFrame::parse(frame)?;
        let fresh = frame.rows().saturating_sub(skip);
        self.push_columns(fresh, frame.cols(), |c, dst, stride| {
            frame.scatter(c, skip, dst, stride);
        })?;
        Ok(frame.rows())
    }

    fn push_point(&mut self, label: f64, features: &[f64]) -> Result<()> {
        self.check_dim(features.len())?;
        self.features.extend_from_slice(features);
        self.labels.push(label);
        Ok(())
    }

    fn check_dim(&mut self, dim: usize) -> Result<()> {
        match *self.dim.get_or_insert(dim) {
            d if d == dim => Ok(()),
            d => Err(SqlmlError::Ml(format!(
                "inconsistent feature dimension: {dim} vs {d}"
            ))),
        }
    }

    /// Append all rows of `other` (a worker joining the blocks of its
    /// splits, in split order).
    pub fn append(&mut self, mut other: PartitionBlock) -> Result<()> {
        if let Some(dim) = other.dim {
            self.check_dim(dim)?;
        }
        if self.is_empty() {
            // The common case — one split per worker — moves the block.
            self.features = other.features;
            self.labels = other.labels;
        } else {
            self.features.append(&mut other.features);
            self.labels.append(&mut other.labels);
        }
        Ok(())
    }
}

/// One partition's storage. The feature block and the label vector are
/// shared separately, so relabeling a dataset copies no features.
#[derive(Debug, Clone)]
struct Partition {
    features: Arc<Vec<f64>>,
    labels: Arc<Vec<f64>>,
}

impl Partition {
    fn new(features: Vec<f64>, labels: Vec<f64>) -> Partition {
        Partition {
            features: Arc::new(features),
            labels: Arc::new(labels),
        }
    }
}

/// A borrowed partition: `len()` contiguous rows of `dim` features each,
/// and their labels.
#[derive(Debug, Clone, Copy)]
pub struct PartitionView<'a> {
    features: &'a [f64],
    labels: &'a [f64],
    dim: usize,
}

impl<'a> PartitionView<'a> {
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn labels(&self) -> &'a [f64] {
        self.labels
    }

    /// The feature block: `len()` rows of `dim` values, row-major.
    pub fn features(&self) -> &'a [f64] {
        self.features
    }

    /// The rows in order: consecutive `dim`-wide slices of the feature
    /// block, each with its label (`chunks_exact(dim)` zipped with the
    /// labels, except that it also works for `dim == 0`).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PointRef<'a>> + 'a {
        let (mut rest, dim) = (self.features, self.dim);
        self.labels.iter().map(move |&label| {
            // A block always holds `dim` features per label.
            let (features, tail) = rest.split_at(dim);
            rest = tail;
            PointRef { label, features }
        })
    }
}

/// A dataset partitioned across ML workers. Immutable and cheaply
/// clonable, like a cached RDD.
#[derive(Debug, Clone)]
pub struct Dataset {
    partitions: Vec<Partition>,
    dim: usize,
}

impl Dataset {
    /// Build from per-worker partitions, verifying dimensional
    /// consistency.
    pub fn new(partitions: Vec<Vec<LabeledPoint>>) -> Result<Self> {
        let mut blocks = Vec::with_capacity(partitions.len());
        for part in &partitions {
            let mut block = PartitionBlock::new(None);
            for p in part {
                block.push_point(p.label, &p.features)?;
            }
            blocks.push(block);
        }
        Dataset::from_blocks(blocks)
    }

    /// Build from the blocks the workers filled, one partition each,
    /// verifying dimensional consistency across them.
    pub fn from_blocks(blocks: Vec<PartitionBlock>) -> Result<Self> {
        // A block that never saw a row has no dimension to disagree with.
        let mut dims = blocks.iter().filter_map(|b| b.dim);
        let dim = dims.next().unwrap_or(0);
        if let Some(other) = dims.find(|d| *d != dim) {
            return Err(SqlmlError::Ml(format!(
                "inconsistent feature dimension: {other} vs {dim}"
            )));
        }
        Ok(Dataset {
            partitions: blocks
                .into_iter()
                .map(|b| Partition::new(b.features, b.labels))
                .collect(),
            dim,
        })
    }

    /// Single-partition dataset (tests and small data).
    pub fn from_points(points: Vec<LabeledPoint>) -> Result<Self> {
        Dataset::new(vec![points])
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn partition(&self, i: usize) -> PartitionView<'_> {
        let p = &self.partitions[i];
        PartitionView {
            features: &p.features,
            labels: &p.labels,
            dim: self.dim,
        }
    }

    /// The partitions in order.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionView<'_>> {
        (0..self.partitions.len()).map(move |i| self.partition(i))
    }

    pub fn num_points(&self) -> usize {
        self.partitions.iter().map(|p| p.labels.len()).sum()
    }

    /// Feature dimension (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Iterate over all points (partition order).
    pub fn iter(&self) -> impl Iterator<Item = PointRef<'_>> {
        self.partitions().flat_map(|part| part.iter())
    }

    /// The distinct labels, sorted. Labels that compare equal count once,
    /// as the first of them (`0.0` and `-0.0`), and so does NaN.
    pub fn labels(&self) -> Vec<f64> {
        // A class column has a handful of labels: one pass that compares
        // each label with those found so far, without a branch per
        // comparison. Past a handful, sort them all.
        const FEW: usize = 8;
        let Some(&first) = self.all_labels().next() else {
            return Vec::new();
        };
        // The labels found so far, the slots not yet used holding `first`
        // again, so every label costs the same eight comparisons.
        let mut known = [first; FEW];
        let mut found = 1;
        let seen =
            |known: &[f64; FEW], l: f64| known.iter().fold(false, |hit, k| hit | same_label(*k, l));
        for p in &self.partitions {
            let mut rest = &p.labels[..];
            while let Some(at) = rest.iter().position(|l| !seen(&known, *l)) {
                if found == FEW {
                    let mut ls: Vec<f64> = self.all_labels().copied().collect();
                    // Stable, so each run of equal labels starts with the
                    // first seen.
                    ls.sort_by(label_order);
                    ls.dedup_by(|later, first| same_label(*later, *first));
                    return ls;
                }
                known[found] = rest[at];
                found += 1;
                rest = &rest[at + 1..];
            }
        }
        let mut ls = known[..found].to_vec();
        ls.sort_by(label_order);
        ls
    }

    /// Every label in partition order, read from the label vectors alone.
    fn all_labels(&self) -> impl Iterator<Item = &f64> {
        self.partitions.iter().flat_map(|p| p.labels.iter())
    }

    /// The first label (in partition order) for which `pred` holds.
    pub(crate) fn find_label(&self, pred: impl Fn(f64) -> bool) -> Option<f64> {
        self.all_labels().copied().find(|l| pred(*l))
    }

    /// The same points with every label mapped through `f`. Only the
    /// label vectors are rebuilt; the feature blocks are shared.
    pub fn map_labels(&self, f: impl Fn(f64) -> f64) -> Dataset {
        Dataset {
            partitions: (self.partitions.iter())
                .map(|p| Partition {
                    features: Arc::clone(&p.features),
                    labels: Arc::new(p.labels.iter().map(|l| f(*l)).collect()),
                })
                .collect(),
            dim: self.dim,
        }
    }

    /// Deterministic train/test split: every `k`-th point (by global
    /// index) goes to the test set, preserving partitioning for train.
    pub fn split_every_kth(&self, k: usize) -> (Dataset, Dataset) {
        assert!(k >= 2, "k must be at least 2");
        let mut train = Vec::with_capacity(self.partitions.len());
        let (mut test_features, mut test_labels) = (Vec::new(), Vec::new());
        let mut idx = 0usize;
        for part in self.partitions() {
            let (mut features, mut labels) = (Vec::new(), Vec::new());
            for p in part.iter() {
                if idx.is_multiple_of(k) {
                    test_features.extend_from_slice(p.features);
                    test_labels.push(p.label);
                } else {
                    features.extend_from_slice(p.features);
                    labels.push(p.label);
                }
                idx += 1;
            }
            train.push(Partition::new(features, labels));
        }
        let with = |partitions| Dataset {
            partitions,
            dim: self.dim,
        };
        (
            with(train),
            with(vec![Partition::new(test_features, test_labels)]),
        )
    }

    /// Per-feature (mean, stddev) — used for feature scaling. One
    /// sequential pass per moment: each running sum crosses partition
    /// boundaries.
    pub fn feature_stats(&self) -> Vec<(f64, f64)> {
        let n = self.num_points().max(1) as f64;
        let sums = |mean| {
            let partitions = &self.partitions;
            by_width(self.dim, ColumnSums { partitions, mean })
        };
        let mut mean = sums(None);
        for m in &mut mean {
            *m /= n;
        }
        let var = sums(Some(&mean));
        mean.into_iter()
            .zip(var)
            .map(|(m, v)| (m, (v / n).sqrt()))
            .collect()
    }
}

/// Per-column sums over every row in partition order: of `x`, or of
/// `(x − m)²` when the column means `m` are given.
struct ColumnSums<'a> {
    partitions: &'a [Partition],
    mean: Option<&'a [f64]>,
}

/// Add one row's terms to the column sums: `x`, or `(x − m)²` around
/// the column means `m`.
#[inline(always)]
fn add_row(sums: &mut [f64], x: &[f64], mean: Option<&[f64]>) {
    match mean {
        None => {
            for (s, x) in sums.iter_mut().zip(x) {
                *s += x;
            }
        }
        Some(mean) => {
            for ((s, m), x) in sums.iter_mut().zip(mean).zip(x) {
                let d = x - m;
                *s += d * d;
            }
        }
    }
}

impl ByWidth for ColumnSums<'_> {
    type Output = Vec<f64>;

    #[inline(always)]
    fn fixed<const D: usize>(self) -> Vec<f64> {
        let mean: Option<[f64; D]> = self.mean.map(|m| {
            let mut fixed = [0.0; D];
            fixed.copy_from_slice(m);
            fixed
        });
        let mean = mean.as_ref().map(|m| m.as_slice());
        let mut sums = [0.0; D];
        for p in self.partitions {
            for x in p.features.as_chunks::<D>().0 {
                add_row(&mut sums, x, mean);
            }
        }
        sums.to_vec()
    }

    fn any(self, dim: usize) -> Vec<f64> {
        let mut sums = vec![0.0; dim];
        for p in self.partitions {
            // No row has a feature to visit when `dim == 0`.
            for x in p.features.chunks_exact(dim.max(1)) {
                add_row(&mut sums, x, self.mean);
            }
        }
        sums
    }
}

/// Per-feature standardization (zero mean, unit variance), as Spark
/// MLlib's linear trainers apply internally before SGD. Constant features
/// keep scale 1 so they pass through unchanged.
#[derive(Debug, Clone)]
pub struct Standardizer {
    pub mean: Vec<f64>,
    pub std: Vec<f64>,
}

impl Standardizer {
    pub fn fit(data: &Dataset) -> Standardizer {
        let stats = data.feature_stats();
        Standardizer {
            mean: stats.iter().map(|(m, _)| *m).collect(),
            std: stats
                .iter()
                .map(|(_, s)| if *s > 0.0 { *s } else { 1.0 })
                .collect(),
        }
    }

    /// Standardize every feature vector: one new feature block per
    /// partition, labels shared with `data`.
    pub fn transform(&self, data: &Dataset) -> Dataset {
        assert_eq!(self.mean.len(), data.dim, "fitted on another dimension");
        let partitions = (data.partitions.iter())
            .map(|stored| {
                let features = &stored.features;
                let kernel = Standardize {
                    features,
                    mean: &self.mean,
                    std: &self.std,
                };
                Partition {
                    features: Arc::new(by_width(data.dim, kernel)),
                    labels: Arc::clone(&stored.labels),
                }
            })
            .collect();
        Dataset {
            partitions,
            dim: data.dim,
        }
    }

    /// Map a linear model trained in standardized space back to raw
    /// feature space: `w_i = w'_i / s_i`, `b = b' − Σ w'_i·m_i/s_i`.
    pub fn unscale_linear(&self, weights: &[f64], intercept: f64) -> (Vec<f64>, f64) {
        let w: Vec<f64> = weights
            .iter()
            .zip(&self.std)
            .map(|(wi, s)| wi / s)
            .collect();
        let shift: f64 = weights
            .iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(wi, (m, s))| wi * m / s)
            .sum();
        (w, intercept - shift)
    }
}

/// One standardized feature block: `(x − m) / s` for every cell.
struct Standardize<'a> {
    features: &'a [f64],
    mean: &'a [f64],
    std: &'a [f64],
}

impl ByWidth for Standardize<'_> {
    type Output = Vec<f64>;

    #[inline(always)]
    fn fixed<const D: usize>(self) -> Vec<f64> {
        let (mut mean, mut std) = ([0.0; D], [0.0; D]);
        mean.copy_from_slice(self.mean);
        std.copy_from_slice(self.std);
        let mut out = vec![0.0; self.features.len()];
        let rows = self.features.as_chunks::<D>().0;
        for (y, x) in out.as_chunks_mut::<D>().0.iter_mut().zip(rows) {
            for (j, y) in y.iter_mut().enumerate() {
                *y = (x[j] - mean[j]) / std[j];
            }
        }
        out
    }

    fn any(self, dim: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.features.len());
        for x in self.features.chunks_exact(dim.max(1)) {
            let cells = x.iter().zip(self.mean.iter().zip(self.std));
            out.extend(cells.map(|(x, (m, s))| (x - m) / s));
        }
        out
    }
}

/// Whether two labels are one class: `==`, except that NaN is one class.
fn same_label(a: f64, b: f64) -> bool {
    (a == b) | (a.is_nan() & b.is_nan())
}

/// The order [`Dataset::labels`] sorts by: numeric order, where `0.0`
/// equals `-0.0`, with NaN after every number and equal to itself.
fn label_order(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// The fan-out of every trainer: rounds of `map` over all partitions on
/// one crew of threads — one per partition (each partition belongs to
/// one ML worker), spawned once per call — and `reduce` between rounds.
///
/// Each round, every worker runs `map` on the current state and its
/// partition; then `reduce` gets the results in partition order and
/// updates the state for the next round, or ends the rounds with
/// `Break`. Returns the final state. One partition runs inline.
///
/// A panic in `map` reaches the caller as a panic (`"partition worker
/// panicked: …"`) once every worker has stopped; none is left waiting.
pub fn par_rounds<S, R, M, F>(data: &Dataset, mut state: S, map: M, mut reduce: F) -> S
where
    S: Send + Sync,
    R: Send,
    M: Fn(&S, PartitionView<'_>) -> R + Sync,
    F: FnMut(&mut S, Vec<R>) -> ControlFlow<()>,
{
    if data.num_partitions() <= 1 {
        loop {
            let results = data.partitions().map(|part| map(&state, part)).collect();
            if reduce(&mut state, results).is_break() {
                return state;
            }
        }
    }
    let map = &map;
    // Each round sends every worker a clone of this `Arc`; a worker drops
    // its clone before it sends its result, so once all results are in,
    // the caller holds the only one and may change the state.
    let mut state = Arc::new(state);
    let failure = std::thread::scope(|scope| {
        let (rounds, results): (Vec<_>, Vec<_>) = (data.partitions())
            .map(|part| {
                let (round_tx, round_rx) = mpsc::channel::<Arc<S>>();
                let (result_tx, result_rx) = mpsc::channel();
                scope.spawn(move || {
                    for state in round_rx {
                        let result = panic::catch_unwind(AssertUnwindSafe(|| map(&state, part)));
                        drop(state);
                        let failed = result.is_err();
                        if result_tx.send(result).is_err() || failed {
                            return;
                        }
                    }
                });
                (round_tx, result_rx)
            })
            .collect();
        // Every return drops the round senders: each worker's loop ends
        // and the scope joins them.
        loop {
            for round in &rounds {
                // A worker that is gone shows up as a missing result.
                let _ = round.send(Arc::clone(&state));
            }
            let mut out = Vec::with_capacity(results.len());
            for result in &results {
                match result.recv() {
                    Ok(Ok(r)) => out.push(r),
                    Ok(Err(payload)) => return Some(panic_text(payload.as_ref())),
                    Err(_) => return Some("the worker exited".to_string()),
                }
            }
            // lint:allow(panic) every worker dropped its clone before sending
            let s = Arc::get_mut(&mut state).expect("a worker kept the round state");
            if reduce(s, out).is_break() {
                return None;
            }
        }
    });
    if let Some(text) = failure {
        // lint:allow(panic) re-raise a worker panic on the caller
        panic!("partition worker panicked: {text}");
    }
    // lint:allow(panic) the scope joined every worker
    Arc::into_inner(state).expect("a worker outlived the rounds")
}

fn panic_text(payload: &(dyn Any + Send)) -> String {
    (payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;

    fn block(label_col: Option<usize>, rows: &[Row]) -> Result<Dataset> {
        let mut b = PartitionBlock::new(label_col);
        for r in rows {
            b.push_record(r)?;
        }
        Dataset::from_blocks(vec![b])
    }

    #[test]
    fn a_record_splits_into_label_and_features() {
        let r = row![30i64, 1i64, 55.5, 2i64];
        let d = block(Some(3), std::slice::from_ref(&r)).unwrap();
        let p = d.iter().next().unwrap();
        assert_eq!((p.label, p.features), (2.0, &[30.0, 1.0, 55.5][..]));
        // Label in the middle works too.
        let d = block(Some(1), std::slice::from_ref(&r)).unwrap();
        let p = d.iter().next().unwrap();
        assert_eq!((p.label, p.features), (1.0, &[30.0, 55.5, 2.0][..]));
        // No label column: every column is a feature.
        let d = block(None, &[r]).unwrap();
        assert_eq!((d.dim(), d.iter().next().unwrap().label), (4, 0.0));
    }

    #[test]
    fn strings_ragged_rows_and_a_label_out_of_range_are_rejected() {
        assert!(block(Some(2), &[row![30i64, "F", 1i64]]).is_err());
        assert!(block(Some(2), &[row![1i64, 2i64]]).is_err());
        let ragged = [row![1i64, 2i64, 0i64], row![1i64, 0i64]];
        assert!(block(Some(1), &ragged).is_err());
        // A rejected record leaves the block as it was.
        let mut b = PartitionBlock::new(Some(0));
        b.push_record(&row![1i64, 2.0]).unwrap();
        assert!(b.push_record(&row![0i64, "x"]).is_err());
        assert!(b.push_row(&[0.0, 1.0, 2.0]).is_err());
        b.push_row(&[0.0, 3.0]).unwrap();
        let d = Dataset::from_blocks(vec![b]).unwrap();
        let got: Vec<(f64, &[f64])> = d.iter().map(|p| (p.label, p.features)).collect();
        assert_eq!(got, [(1.0, &[2.0][..]), (0.0, &[3.0][..])]);
    }

    #[test]
    fn blocks_append_by_rows() {
        let mut a = PartitionBlock::new(Some(0));
        for i in 0..2 {
            a.push_row(&[f64::from(i), 10.0, 20.0]).unwrap();
        }
        let mut b = PartitionBlock::new(Some(0));
        b.push_row(&[7.0, 1.0, 2.0]).unwrap();
        // Appending into an empty block and onto a filled one.
        let mut joined = PartitionBlock::new(Some(0));
        joined.append(a).unwrap();
        joined.append(b).unwrap();
        joined.append(PartitionBlock::new(Some(0))).unwrap();
        let mut narrow = PartitionBlock::new(Some(0));
        narrow.push_row(&[1.0, 1.0]).unwrap();
        assert!(joined.append(narrow).is_err());
        let d = Dataset::from_blocks(vec![joined]).unwrap();
        assert_eq!(d.partition(0).labels(), [0.0, 1.0, 7.0]);
        assert_eq!(d.iter().last().unwrap().features, [1.0, 2.0]);
    }

    #[test]
    fn columns_land_where_rows_would() {
        // Column c of new row r holds 10·r + c; the label is column 1.
        let fill = |c: usize, dst: &mut [f64], stride: usize| {
            for (r, slot) in dst.iter_mut().step_by(stride).enumerate() {
                *slot = (10 * r + c) as f64;
            }
        };
        let mut by_columns = PartitionBlock::new(Some(1));
        by_columns.push_row(&[-1.0, -2.0, -3.0]).unwrap();
        by_columns.push_columns(2, 3, fill).unwrap();
        by_columns.push_columns(0, 9, fill).unwrap();
        // A shape the block refuses leaves it as it was.
        assert!(by_columns.push_columns(1, 4, fill).is_err());
        assert!(by_columns.push_columns(1, 1, fill).is_err());
        let mut by_rows = PartitionBlock::new(Some(1));
        for row in [[-1.0, -2.0, -3.0], [0.0, 1.0, 2.0], [10.0, 11.0, 12.0]] {
            by_rows.push_row(&row).unwrap();
        }
        assert_eq!(by_columns.labels, by_rows.labels);
        assert_eq!(by_columns.features, by_rows.features);
        // No label column: every column is a feature, the label is 0.
        let mut unlabeled = PartitionBlock::new(None);
        unlabeled.push_columns(2, 2, fill).unwrap();
        assert_eq!(unlabeled.features, [0.0, 1.0, 10.0, 11.0]);
        assert_eq!(unlabeled.labels, [0.0, 0.0]);
    }

    #[test]
    fn label_only_rows_have_dimension_zero() {
        let d = block(Some(0), &[row![1i64], row![0i64]]).unwrap();
        assert_eq!((d.dim(), d.num_points()), (0, 2));
        let got: Vec<(f64, usize)> = d.iter().map(|p| (p.label, p.features.len())).collect();
        assert_eq!(got, [(1.0, 0), (0.0, 0)]);
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let bad = Dataset::new(vec![vec![
            LabeledPoint::new(1.0, vec![1.0, 2.0]),
            LabeledPoint::new(0.0, vec![1.0]),
        ]]);
        assert!(bad.is_err());
        // Across partitions too; an empty partition agrees with anything.
        let bad = Dataset::new(vec![
            vec![LabeledPoint::new(1.0, vec![1.0, 2.0])],
            vec![],
            vec![LabeledPoint::new(0.0, vec![1.0])],
        ]);
        assert!(bad.is_err());
    }

    #[test]
    fn labels_and_counts() {
        let d = Dataset::new(vec![
            vec![
                LabeledPoint::new(1.0, vec![0.0]),
                LabeledPoint::new(0.0, vec![1.0]),
            ],
            vec![LabeledPoint::new(1.0, vec![2.0])],
        ])
        .unwrap();
        assert_eq!(d.num_points(), 3);
        assert_eq!(d.num_partitions(), 2);
        assert_eq!(d.dim(), 1);
        assert_eq!(d.labels(), vec![0.0, 1.0]);
    }

    #[test]
    fn map_labels_shares_the_feature_blocks() {
        let d = Dataset::new(vec![
            vec![LabeledPoint::new(1.0, vec![0.5])],
            vec![LabeledPoint::new(2.0, vec![1.5])],
        ])
        .unwrap();
        let shifted = d.map_labels(|l| l - 1.0);
        assert_eq!(shifted.labels(), vec![0.0, 1.0]);
        assert_eq!(d.labels(), vec![1.0, 2.0]);
        for (a, b) in d.partitions.iter().zip(&shifted.partitions) {
            assert!(Arc::ptr_eq(&a.features, &b.features));
        }
    }

    #[test]
    fn split_every_kth_partitions_points() {
        let points: Vec<LabeledPoint> = (0..10)
            .map(|i| LabeledPoint::new(i as f64, vec![i as f64]))
            .collect();
        let d = Dataset::new(vec![points[..5].to_vec(), points[5..].to_vec()]).unwrap();
        let (train, test) = d.split_every_kth(5);
        assert_eq!(test.num_points(), 2);
        assert_eq!(train.num_points(), 8);
        assert_eq!(train.num_partitions(), 2);
        assert_eq!(test.partition(0).labels(), [0.0, 5.0]);
    }

    #[test]
    fn par_rounds_reduces_in_partition_order_until_break() {
        let d = Dataset::new(vec![
            vec![LabeledPoint::new(0.0, vec![1.0])],
            vec![
                LabeledPoint::new(0.0, vec![2.0]),
                LabeledPoint::new(0.0, vec![3.0]),
            ],
            vec![],
        ])
        .unwrap();
        // Each round maps `sum · round`; the state logs every round.
        let log = par_rounds(
            &d,
            Vec::<Vec<f64>>::new(),
            |log, part| {
                let round = log.len() as f64 + 1.0;
                part.features().iter().sum::<f64>() * round
            },
            |log, sums| {
                log.push(sums);
                if log.len() == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(log, [[1.0, 5.0, 0.0], [2.0, 10.0, 0.0], [3.0, 15.0, 0.0]]);
    }

    /// Three one-row partitions whose single feature is their index.
    fn three_partitions() -> Dataset {
        let part = |i: usize| vec![LabeledPoint::new(0.0, vec![i as f64])];
        Dataset::new((0..3).map(part).collect()).unwrap()
    }

    #[test]
    fn par_rounds_runs_each_partition_on_one_thread_for_every_round() {
        let ids = par_rounds(
            &three_partitions(),
            Vec::new(),
            |_, _| std::thread::current().id(),
            |rounds, ids| {
                rounds.push(ids);
                if rounds.len() == 25 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(ids.len(), 25);
        let first = &ids[0];
        assert!(ids.iter().all(|round| round == first), "{ids:?}");
        let distinct: std::collections::HashSet<_> = first.iter().collect();
        assert_eq!(distinct.len(), 3, "{first:?}");
        assert!(!first.contains(&std::thread::current().id()));
    }

    #[test]
    fn a_panic_in_one_worker_comes_back_as_a_panic_without_a_hang() {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = panic::catch_unwind(|| {
                par_rounds(
                    &three_partitions(),
                    0usize,
                    |round, part| {
                        assert!(
                            !(*round == 3 && part.features() == [1.0]),
                            "partition 1 fails in round 3"
                        );
                    },
                    |round, _| {
                        *round += 1;
                        ControlFlow::Continue(())
                    },
                )
            });
            let _ = done_tx.send(outcome.map_err(|p| panic_text(p.as_ref())));
        });
        let outcome = done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("par_rounds hung after a worker panicked");
        let text = outcome.expect_err("a worker panic must reach the caller");
        assert!(text.contains("partition worker panicked"), "{text}");
        assert!(text.contains("partition 1 fails in round 3"), "{text}");
    }

    #[test]
    fn labels_count_nan_once_and_keep_the_first_zero() {
        let labeled = |labels: &[f64]| {
            let points = labels.iter().map(|l| LabeledPoint::new(*l, vec![]));
            Dataset::from_points(points.collect()).unwrap()
        };
        let mut nans = vec![f64::NAN; 1000];
        nans.extend([2.0, 1.0, 2.0]);
        let got = labeled(&nans).labels();
        assert_eq!((got.len(), got[0], got[1]), (3, 1.0, 2.0));
        assert!(got[2].is_nan());
        // Zero keeps the sign it was first seen with.
        let bits = |ls: Vec<f64>| ls.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(labeled(&[0.0, 1.0, -0.0]).labels()),
            bits(vec![0.0, 1.0])
        );
        assert_eq!(
            bits(labeled(&[-0.0, 1.0, 0.0]).labels()),
            bits(vec![-0.0, 1.0])
        );
        assert_eq!(
            labeled(&[3.0, -1.0, 3.0, f64::INFINITY, -1.0]).labels(),
            [-1.0, 3.0, f64::INFINITY]
        );
    }

    #[test]
    fn a_continuous_label_is_refused_in_linear_time() {
        // 300 000 distinct labels: a quadratic distinct scan takes minutes
        // here, the sort well under a second.
        let labels: Vec<f64> = (0..300_000).map(|i| f64::from(i) * 0.5).collect();
        let part = |half: &[f64]| {
            let mut b = PartitionBlock::new(Some(0));
            for l in half {
                b.push_row(&[*l, 1.0]).unwrap();
            }
            b
        };
        let (a, b) = labels.split_at(150_000);
        let data = Dataset::from_blocks(vec![part(a), part(b)]).unwrap();
        let spec = crate::job::TrainingSpec::parse("svm label=0").unwrap();
        let start = std::time::Instant::now();
        let refused = crate::job::JobRunner::default().train(&data, &spec);
        assert!(refused.is_err());
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn feature_stats_mean_and_std() {
        let d = Dataset::from_points(vec![
            LabeledPoint::new(0.0, vec![1.0, 10.0]),
            LabeledPoint::new(0.0, vec![3.0, 10.0]),
        ])
        .unwrap();
        let stats = d.feature_stats();
        assert_eq!(stats[0].0, 2.0);
        assert!((stats[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(stats[1], (10.0, 0.0));
    }
}
