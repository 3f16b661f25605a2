//! Gaussian naive Bayes. Class statistics (counts, per-feature mean and
//! variance) are computed in a single parallel pass over the partitions
//! and merged exactly, so the model is independent of partitioning.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use sqlml_common::{Result, SqlmlError};

use crate::dataset::{par_rounds, Dataset, PartitionView};

/// Per-class Gaussian statistics.
#[derive(Debug, Clone)]
struct ClassStats {
    count: f64,
    mean: Vec<f64>,
    var: Vec<f64>,
}

/// A trained Gaussian naive Bayes classifier over arbitrary numeric
/// class labels.
#[derive(Debug, Clone)]
pub struct NaiveBayesModel {
    /// (label, prior, mean, var) per class, label-sorted.
    classes: Vec<(f64, f64, Vec<f64>, Vec<f64>)>,
}

/// Variance floor to keep degenerate (constant) features finite.
const VAR_EPS: f64 = 1e-9;

impl NaiveBayesModel {
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut best = (f64::NEG_INFINITY, 0.0);
        for (label, prior, mean, var) in &self.classes {
            let mut log_p = prior.ln();
            for ((x, m), v) in features.iter().zip(mean).zip(var) {
                let v = v.max(VAR_EPS);
                let d = x - m;
                log_p += -0.5 * ((2.0 * std::f64::consts::PI * v).ln() + d * d / v);
            }
            if log_p > best.0 {
                best = (log_p, *label);
            }
        }
        best.1
    }

    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }
}

#[derive(Debug, Clone, Default)]
pub struct NaiveBayesTrainer;

impl NaiveBayesTrainer {
    pub fn train(&self, data: &Dataset) -> Result<NaiveBayesModel> {
        if data.num_points() == 0 {
            return Err(SqlmlError::Ml("naive bayes: empty training set".into()));
        }
        let dim = data.dim();

        // Map: per-partition sums and squared sums per class. Labels key a
        // BTreeMap via their bit pattern for exact grouping.
        type Partial = BTreeMap<u64, (f64, Vec<f64>, Vec<f64>)>;
        let map = |_: &Vec<Partial>, part: PartitionView<'_>| {
            let mut m: Partial = BTreeMap::new();
            for p in part.iter() {
                let e = m
                    .entry(p.label.to_bits())
                    .or_insert_with(|| (0.0, vec![0.0; dim], vec![0.0; dim]));
                e.0 += 1.0;
                for ((s, sq), x) in e.1.iter_mut().zip(e.2.iter_mut()).zip(p.features) {
                    *s += x;
                    *sq += x * x;
                }
            }
            m
        };
        // One round: the state is where the partials land.
        let partials = par_rounds(data, Vec::new(), map, |out, partials| {
            *out = partials;
            ControlFlow::Break(())
        });

        // Reduce: merge sums exactly.
        let mut merged: BTreeMap<u64, (f64, Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for part in partials {
            for (k, (c, s, sq)) in part {
                let e = merged
                    .entry(k)
                    .or_insert_with(|| (0.0, vec![0.0; dim], vec![0.0; dim]));
                e.0 += c;
                for (a, b) in e.1.iter_mut().zip(&s) {
                    *a += b;
                }
                for (a, b) in e.2.iter_mut().zip(&sq) {
                    *a += b;
                }
            }
        }

        let total: f64 = merged.values().map(|(c, _, _)| c).sum();
        let classes = merged
            .into_iter()
            .map(|(bits, (count, sum, sqsum))| {
                let stats = ClassStats {
                    count,
                    mean: sum.iter().map(|s| s / count).collect(),
                    var: sqsum
                        .iter()
                        .zip(&sum)
                        .map(|(sq, s)| (sq / count - (s / count) * (s / count)).max(0.0))
                        .collect(),
                };
                (
                    f64::from_bits(bits),
                    stats.count / total,
                    stats.mean,
                    stats.var,
                )
            })
            .collect();
        Ok(NaiveBayesModel { classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledPoint;
    use sqlml_common::SplitMix64;

    fn three_blobs(n: usize, seed: u64, parts: usize) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let centers = [(-4.0, 0.0), (0.0, 4.0), (4.0, 0.0)];
        let mut out: Vec<Vec<LabeledPoint>> = (0..parts).map(|_| Vec::new()).collect();
        for i in 0..n {
            let c = i % 3;
            let (cx, cy) = centers[c];
            out[i % parts].push(LabeledPoint::new(
                c as f64,
                vec![
                    cx + rng.next_gaussian() * 0.7,
                    cy + rng.next_gaussian() * 0.7,
                ],
            ));
        }
        Dataset::new(out).unwrap()
    }

    #[test]
    fn classifies_three_gaussian_blobs() {
        let data = three_blobs(600, 23, 3);
        let model = NaiveBayesTrainer.train(&data).unwrap();
        assert_eq!(model.num_classes(), 3);
        let acc = data
            .iter()
            .filter(|p| model.predict(p.features) == p.label)
            .count() as f64
            / data.num_points() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn partitioning_does_not_change_the_model() {
        let m1 = NaiveBayesTrainer.train(&three_blobs(300, 29, 1)).unwrap();
        let m8 = NaiveBayesTrainer.train(&three_blobs(300, 29, 8)).unwrap();
        for x in [-3.0, -1.0, 0.0, 1.0, 3.0] {
            for y in [-1.0, 2.0, 5.0] {
                assert_eq!(m1.predict(&[x, y]), m8.predict(&[x, y]));
            }
        }
    }

    #[test]
    fn degenerate_constant_feature_is_survivable() {
        let data = Dataset::from_points(vec![
            LabeledPoint::new(0.0, vec![1.0, 5.0]),
            LabeledPoint::new(0.0, vec![1.0, 6.0]),
            LabeledPoint::new(1.0, vec![1.0, 50.0]),
            LabeledPoint::new(1.0, vec![1.0, 51.0]),
        ])
        .unwrap();
        let m = NaiveBayesTrainer.train(&data).unwrap();
        assert_eq!(m.predict(&[1.0, 5.5]), 0.0);
        assert_eq!(m.predict(&[1.0, 50.5]), 1.0);
    }

    #[test]
    fn empty_input_is_an_error() {
        let empty = Dataset::from_points(vec![]).unwrap();
        assert!(NaiveBayesTrainer.train(&empty).is_err());
    }
}
