//! Binary logistic regression with distributed full-batch gradient
//! descent (log-loss + L2), parallelized over dataset partitions.

use sqlml_common::{Result, SqlmlError};

use crate::dataset::Dataset;
use crate::linalg::{dot, sigmoid};
use crate::linreg::descend;

/// A trained logistic-regression model with labels {0, 1}.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRegModel {
    pub weights: Vec<f64>,
    pub intercept: f64,
}

impl LogRegModel {
    /// P(label = 1 | x).
    pub fn probability(&self, features: &[f64]) -> f64 {
        sigmoid(dot(&self.weights, features) + self.intercept)
    }

    pub fn predict(&self, features: &[f64]) -> f64 {
        if self.probability(features) >= 0.5 {
            1.0
        } else {
            0.0
        }
    }
}

#[derive(Debug, Clone)]
pub struct LogRegTrainer {
    pub iterations: usize,
    pub step_size: f64,
    pub reg_param: f64,
    /// Standardize features before SGD and un-scale the weights after,
    /// as MLlib's linear trainers do. Keeps SGD stable on raw warehouse
    /// features (ages, dollar amounts, ...).
    pub scale_features: bool,
}

impl Default for LogRegTrainer {
    fn default() -> Self {
        LogRegTrainer {
            iterations: 200,
            step_size: 1.0,
            reg_param: 0.001,
            scale_features: true,
        }
    }
}

impl LogRegTrainer {
    pub fn train(&self, data: &Dataset) -> Result<LogRegModel> {
        if data.num_points() == 0 {
            return Err(SqlmlError::Ml("logreg: empty training set".into()));
        }
        if let Some(label) = data.find_label(|l| l != 0.0 && l != 1.0) {
            return Err(SqlmlError::Ml(format!(
                "logreg expects labels in {{0,1}}, found {label}"
            )));
        }
        if self.scale_features {
            let scaler = crate::dataset::Standardizer::fit(data);
            let scaled = scaler.transform(data);
            let raw = self.train_raw(&scaled);
            let (weights, intercept) = scaler.unscale_linear(&raw.weights, raw.intercept);
            return Ok(LogRegModel { weights, intercept });
        }
        Ok(self.train_raw(data))
    }

    fn train_raw(&self, data: &Dataset) -> LogRegModel {
        let (weights, intercept) = descend(
            data,
            self.iterations,
            self.step_size,
            self.reg_param,
            |margin, label| sigmoid(margin) - label,
        );
        LogRegModel { weights, intercept }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledPoint;
    use sqlml_common::SplitMix64;

    fn noisy_halfplanes(n: usize, seed: u64, parts: usize) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut out: Vec<Vec<LabeledPoint>> = (0..parts).map(|_| Vec::new()).collect();
        for i in 0..n {
            let x = rng.next_gaussian();
            let y = rng.next_gaussian();
            // True boundary: x + y > 0, with 5% label noise.
            let mut label = if x + y > 0.0 { 1.0 } else { 0.0 };
            if rng.chance(0.05) {
                label = 1.0 - label;
            }
            out[i % parts].push(LabeledPoint::new(label, vec![x, y]));
        }
        Dataset::new(out).unwrap()
    }

    #[test]
    fn learns_a_noisy_halfplane() {
        let data = noisy_halfplanes(600, 11, 4);
        let model = LogRegTrainer::default().train(&data).unwrap();
        let acc = data
            .iter()
            .filter(|p| model.predict(p.features) == p.label)
            .count() as f64
            / data.num_points() as f64;
        assert!(acc > 0.90, "accuracy {acc}");
        // Weights should point along (1, 1).
        assert!(model.weights[0] > 0.0 && model.weights[1] > 0.0);
    }

    #[test]
    fn probabilities_are_calibrated_at_the_boundary() {
        let data = noisy_halfplanes(600, 13, 2);
        let model = LogRegTrainer::default().train(&data).unwrap();
        let p = model.probability(&[0.0, 0.0]);
        assert!((p - 0.5).abs() < 0.1, "boundary probability {p}");
    }

    #[test]
    fn deterministic_across_partitionings() {
        let a = LogRegTrainer::default()
            .train(&noisy_halfplanes(200, 5, 1))
            .unwrap();
        let b = LogRegTrainer::default()
            .train(&noisy_halfplanes(200, 5, 8))
            .unwrap();
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_multiclass_labels() {
        let bad = Dataset::from_points(vec![LabeledPoint::new(3.0, vec![1.0])]).unwrap();
        assert!(LogRegTrainer::default().train(&bad).is_err());
    }
}
