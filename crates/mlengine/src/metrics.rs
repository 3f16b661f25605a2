//! Evaluation metrics for trained models.

use crate::dataset::Dataset;

/// Classification accuracy of a predictor over a dataset.
pub fn accuracy(data: &Dataset, predict: impl Fn(&[f64]) -> f64) -> f64 {
    let n = data.num_points();
    if n == 0 {
        return 0.0;
    }
    let correct = data
        .iter()
        .filter(|p| predict(p.features) == p.label)
        .count();
    correct as f64 / n as f64
}

/// Binary precision/recall/F1 for the positive class `1.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryReport {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub true_pos: usize,
    pub false_pos: usize,
    pub false_neg: usize,
    pub true_neg: usize,
}

pub fn binary_report(data: &Dataset, predict: impl Fn(&[f64]) -> f64) -> BinaryReport {
    let (mut tp, mut fp, mut fne, mut tn) = (0usize, 0usize, 0usize, 0usize);
    for p in data.iter() {
        let pred = predict(p.features);
        match (p.label == 1.0, pred == 1.0) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fne += 1,
            (false, false) => tn += 1,
        }
    }
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fne == 0 {
        0.0
    } else {
        tp as f64 / (tp + fne) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    BinaryReport {
        precision,
        recall,
        f1,
        true_pos: tp,
        false_pos: fp,
        false_neg: fne,
        true_neg: tn,
    }
}

/// Root-mean-squared error of a regressor.
pub fn rmse(data: &Dataset, predict: impl Fn(&[f64]) -> f64) -> f64 {
    let n = data.num_points();
    if n == 0 {
        return 0.0;
    }
    let sse: f64 = data
        .iter()
        .map(|p| {
            let e = predict(p.features) - p.label;
            e * e
        })
        .sum();
    (sse / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledPoint;

    fn toy() -> Dataset {
        Dataset::from_points(vec![
            LabeledPoint::new(1.0, vec![1.0]),
            LabeledPoint::new(1.0, vec![2.0]),
            LabeledPoint::new(0.0, vec![-1.0]),
            LabeledPoint::new(0.0, vec![-2.0]),
        ])
        .unwrap()
    }

    #[test]
    fn accuracy_of_perfect_and_constant_predictors() {
        let d = toy();
        assert_eq!(accuracy(&d, |f| if f[0] > 0.0 { 1.0 } else { 0.0 }), 1.0);
        assert_eq!(accuracy(&d, |_| 1.0), 0.5);
    }

    #[test]
    fn binary_report_counts() {
        let d = toy();
        // Predict 1 for x > 1.5: catches one of two positives, no FPs.
        let r = binary_report(&d, |f| if f[0] > 1.5 { 1.0 } else { 0.0 });
        assert_eq!(r.true_pos, 1);
        assert_eq!(r.false_neg, 1);
        assert_eq!(r.false_pos, 0);
        assert_eq!(r.true_neg, 2);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 0.5);
        assert!((r.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_of_exact_and_offset_predictors() {
        let d = Dataset::from_points(vec![
            LabeledPoint::new(2.0, vec![1.0]),
            LabeledPoint::new(4.0, vec![2.0]),
        ])
        .unwrap();
        assert_eq!(rmse(&d, |f| 2.0 * f[0]), 0.0);
        assert_eq!(rmse(&d, |f| 2.0 * f[0] + 1.0), 1.0);
    }

    #[test]
    fn empty_dataset_metrics_are_zero() {
        let d = Dataset::from_points(vec![]).unwrap();
        assert_eq!(accuracy(&d, |_| 1.0), 0.0);
        assert_eq!(rmse(&d, |_| 1.0), 0.0);
    }
}
