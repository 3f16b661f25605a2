//! Linear SVM trained with distributed (mini-batch) stochastic gradient
//! descent — the `SVMWithSGD` of the paper's evaluation.
//!
//! Each iteration computes the hinge-loss subgradient in parallel over the
//! dataset's partitions (the map side), sums the partial gradients (the
//! reduce side), and takes a step with an `O(1/√t)` learning-rate decay
//! and L2 regularization — the same scheme as Spark MLlib's
//! `SVMWithSGD`.

use std::ops::ControlFlow;

use sqlml_common::Result;

use crate::dataset::{par_rounds, train_binary_linear, Dataset, Labels, PartitionView, PointRef};
use crate::linalg::{axpy, dot, gradient, Loss};

/// A trained linear SVM: `sign(w·x + b)` with labels {0, 1}.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmModel {
    pub weights: Vec<f64>,
    pub intercept: f64,
}

impl SvmModel {
    /// Raw margin `w·x + b`.
    pub fn margin(&self, features: &[f64]) -> f64 {
        dot(&self.weights, features) + self.intercept
    }

    /// The hinge loss's subgradient sums over one partition's rows, the
    /// map side of one full-batch SGD iteration: `(Σ −y·x, Σ −y)` over the
    /// rows with `y·margin < 1`, where `y` is `+1` for a label above 0.5
    /// and `−1` otherwise.
    pub fn hinge_subgradient(&self, part: PartitionView<'_>) -> (Vec<f64>, f64) {
        let (w, b) = (&self.weights, self.intercept);
        gradient(Loss::Hinge, w, b, part.features(), part.labels())
    }

    /// Predicted class label (0.0 or 1.0).
    pub fn predict(&self, features: &[f64]) -> f64 {
        if self.margin(features) >= 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// SVM trainer configuration.
#[derive(Debug, Clone)]
pub struct SvmTrainer {
    pub iterations: usize,
    pub step_size: f64,
    pub reg_param: f64,
    /// Standardize features before SGD and un-scale the weights after,
    /// as MLlib's linear trainers do. Keeps SGD stable on raw warehouse
    /// features (ages, dollar amounts, ...).
    pub scale_features: bool,
    /// MLlib's `miniBatchFraction`: each iteration samples roughly this
    /// fraction of the points for the gradient. Sampling is a
    /// deterministic hash of (point content, iteration), so the *sample*
    /// is independent of partitioning (floating-point summation order can
    /// still drift the weights by a small epsilon). 1.0 = full batch.
    pub mini_batch_fraction: f64,
}

impl Default for SvmTrainer {
    fn default() -> Self {
        SvmTrainer {
            iterations: 100,
            step_size: 1.0,
            reg_param: 0.01,
            scale_features: true,
            mini_batch_fraction: 1.0,
        }
    }
}

impl SvmTrainer {
    /// Train on a dataset whose labels are in {0, 1} (the recoded-and-
    /// shifted convention; internally mapped to ±1 for the hinge loss).
    pub fn train(&self, data: &Dataset) -> Result<SvmModel> {
        self.train_labelled(data.clone(), Labels::AsGiven)
    }

    /// Train on `data`, taking its labels as `labels` says. The features
    /// are standardized where they lie: in place when `data` holds the
    /// only reference to its blocks, on copies otherwise.
    pub(crate) fn train_labelled(&self, data: Dataset, labels: Labels) -> Result<SvmModel> {
        let train_raw = |data: &Dataset| self.train_raw(data);
        let (weights, intercept) =
            train_binary_linear(data, "SVM", labels, self.scale_features, train_raw)?;
        Ok(SvmModel { weights, intercept })
    }

    /// The weights and intercept SGD reaches on `data` as it is.
    fn train_raw(&self, data: &Dataset) -> (Vec<f64>, f64) {
        let dim = data.dim();
        let n = data.num_points() as f64;
        if self.iterations == 0 {
            return (vec![0.0; dim], 0.0);
        }
        let model = SvmModel {
            weights: vec![0.0; dim],
            intercept: 0.0,
        };
        let fraction = self.mini_batch_fraction.clamp(f64::MIN_POSITIVE, 1.0);
        // Map: partial hinge subgradients per partition, over iteration
        // `t`'s (deterministic) mini-batch sample.
        let map = |(m, t): &(SvmModel, usize), part: PartitionView<'_>| {
            if fraction >= 1.0 {
                let (gw, gb) = m.hinge_subgradient(part);
                return (gw, gb, part.len() as u64);
            }
            let mut gw = vec![0.0; dim];
            let mut gb = 0.0;
            let mut sampled = 0u64;
            for p in part.iter() {
                if !in_mini_batch(p, *t as u64, fraction) {
                    continue;
                }
                sampled += 1;
                let (active, c) = Loss::Hinge.coef(m.margin(p.features), p.label);
                if active {
                    axpy(c, p.features, &mut gw);
                    gb += c;
                }
            }
            (gw, gb, sampled)
        };
        let reduce = |(m, t): &mut (SvmModel, usize), partials: Vec<(Vec<f64>, f64, u64)>| {
            // Reduce: sum partials.
            let mut gw = vec![0.0; dim];
            let mut gb = 0.0;
            let mut sampled = 0u64;
            for (pgw, pgb, ps) in partials {
                axpy(1.0, &pgw, &mut gw);
                gb += pgb;
                sampled += ps;
            }
            // Normalize by the actual sample size (unbiased gradient
            // estimate); an empty sample contributes only regularization.
            let denom = if fraction < 1.0 {
                sampled.max(1) as f64
            } else {
                n
            };
            // L2 regularization on the weights (not the intercept).
            let step = self.step_size / (*t as f64).sqrt();
            for (wi, gi) in m.weights.iter_mut().zip(&gw) {
                *wi -= step * (gi / denom + self.reg_param * *wi);
            }
            m.intercept -= step * gb / denom;
            *t += 1;
            if *t > self.iterations {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let (model, _) = par_rounds(data, (model, 1), map, reduce);
        (model.weights, model.intercept)
    }
}

/// Deterministic, partition-invariant mini-batch membership: hash the
/// point's content together with the iteration number.
fn in_mini_batch(p: PointRef<'_>, iteration: u64, fraction: f64) -> bool {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.label.to_bits().hash(&mut h);
    for f in p.features {
        f.to_bits().hash(&mut h);
    }
    let mixed =
        sqlml_common::SplitMix64::new(h.finish() ^ iteration.wrapping_mul(0x9E37)).next_u64();
    (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < fraction
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledPoint;
    use sqlml_common::SplitMix64;

    /// Linearly separable blobs around (-2,-2) and (2,2).
    fn blobs(n: usize, seed: u64, partitions: usize) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut parts: Vec<Vec<LabeledPoint>> = (0..partitions).map(|_| Vec::new()).collect();
        for i in 0..n {
            let cls = i % 2;
            let center = if cls == 0 { -2.0 } else { 2.0 };
            let x = center + rng.next_gaussian() * 0.5;
            let y = center + rng.next_gaussian() * 0.5;
            parts[i % partitions].push(LabeledPoint::new(cls as f64, vec![x, y]));
        }
        Dataset::new(parts).unwrap()
    }

    #[test]
    fn separates_linearly_separable_blobs() {
        let data = blobs(400, 7, 3);
        let model = SvmTrainer::default().train(&data).unwrap();
        let correct = data
            .iter()
            .filter(|p| model.predict(p.features) == p.label)
            .count();
        let acc = correct as f64 / data.num_points() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn partition_count_does_not_change_the_model() {
        let a = SvmTrainer::default().train(&blobs(200, 3, 1)).unwrap();
        let b = SvmTrainer::default().train(&blobs(200, 3, 4)).unwrap();
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        assert!((a.intercept - b.intercept).abs() < 1e-9);
    }

    #[test]
    fn mini_batch_sgd_still_separates() {
        let data = blobs(600, 13, 3);
        let model = SvmTrainer {
            mini_batch_fraction: 0.2,
            iterations: 200,
            ..Default::default()
        }
        .train(&data)
        .unwrap();
        let acc = data
            .iter()
            .filter(|p| model.predict(p.features) == p.label)
            .count() as f64
            / data.num_points() as f64;
        assert!(acc > 0.95, "mini-batch accuracy {acc}");
    }

    #[test]
    fn mini_batch_sample_is_partition_invariant() {
        // The *sampled set* per iteration depends only on point content,
        // so it is identical under any partitioning (weights may differ
        // by floating-point summation order, which SGD amplifies — so we
        // compare behaviour, not bits).
        let data1 = blobs(200, 3, 1);
        let data5 = blobs(200, 3, 5);
        for t in [1u64, 7, 23] {
            let s1: usize = data1.iter().filter(|p| in_mini_batch(*p, t, 0.3)).count();
            let s5: usize = data5.iter().filter(|p| in_mini_batch(*p, t, 0.3)).count();
            assert_eq!(s1, s5, "sample sizes differ at iteration {t}");
        }
        let trainer = SvmTrainer {
            mini_batch_fraction: 0.3,
            iterations: 40,
            ..Default::default()
        };
        let a = trainer.train(&data1).unwrap();
        let b = trainer.train(&data5).unwrap();
        // Behavioural agreement on probes well away from the decision
        // boundary (x + y = 0 for these blobs).
        for (x, y) in [
            (-3.0, -3.0),
            (-2.0, -1.0),
            (1.0, 2.0),
            (3.0, 3.0),
            (2.5, 0.5),
        ] {
            assert_eq!(a.predict(&[x, y]), b.predict(&[x, y]), "at ({x},{y})");
        }
    }

    #[test]
    fn fraction_one_matches_full_batch() {
        let full = SvmTrainer::default().train(&blobs(150, 9, 2)).unwrap();
        let explicit = SvmTrainer {
            mini_batch_fraction: 1.0,
            ..Default::default()
        }
        .train(&blobs(150, 9, 2))
        .unwrap();
        assert_eq!(full, explicit);
    }

    #[test]
    fn rejects_bad_labels_and_empty_input() {
        let bad = Dataset::from_points(vec![LabeledPoint::new(2.0, vec![1.0])]).unwrap();
        assert!(SvmTrainer::default().train(&bad).is_err());
        let empty = Dataset::from_points(vec![]).unwrap();
        assert!(SvmTrainer::default().train(&empty).is_err());
    }

    #[test]
    fn margin_sign_matches_prediction() {
        let m = SvmModel {
            weights: vec![1.0, -1.0],
            intercept: 0.5,
        };
        assert_eq!(m.predict(&[1.0, 0.0]), 1.0);
        assert_eq!(m.predict(&[0.0, 2.0]), 0.0);
    }
}
