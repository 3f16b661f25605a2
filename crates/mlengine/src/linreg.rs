//! Linear regression (least squares) with distributed full-batch gradient
//! descent and optional L2 (ridge) regularization.

use std::ops::ControlFlow;

use sqlml_common::{Result, SqlmlError};

use crate::dataset::{par_rounds, Dataset};
use crate::linalg::{axpy, dot, gradient, Loss};

/// A trained linear regressor `ŷ = w·x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinRegModel {
    pub weights: Vec<f64>,
    pub intercept: f64,
}

impl LinRegModel {
    pub fn predict(&self, features: &[f64]) -> f64 {
        dot(&self.weights, features) + self.intercept
    }
}

#[derive(Debug, Clone)]
pub struct LinRegTrainer {
    pub iterations: usize,
    pub step_size: f64,
    pub reg_param: f64,
}

impl Default for LinRegTrainer {
    fn default() -> Self {
        LinRegTrainer {
            iterations: 300,
            step_size: 0.1,
            reg_param: 0.0,
        }
    }
}

impl LinRegTrainer {
    pub fn train(&self, data: &Dataset) -> Result<LinRegModel> {
        if data.num_points() == 0 {
            return Err(SqlmlError::Ml("linreg: empty training set".into()));
        }
        let (weights, intercept) = descend(
            data,
            self.iterations,
            self.step_size,
            self.reg_param,
            Loss::Squared,
        );
        Ok(LinRegModel { weights, intercept })
    }
}

/// Full-batch gradient descent on a linear model `w·x + b` from zero:
/// each round every partition sums its rows' `loss` gradient, and the
/// partials, summed in partition order, take one L2-regularised step.
/// Shared by the least-squares and logistic trainers; returns the
/// weights and the intercept.
pub(crate) fn descend(
    data: &Dataset,
    iterations: usize,
    step_size: f64,
    reg_param: f64,
    loss: Loss,
) -> (Vec<f64>, f64) {
    let dim = data.dim();
    let n = data.num_points() as f64;
    let zero = (vec![0.0; dim], 0.0);
    if iterations == 0 {
        return zero;
    }
    let mut rounds = 0;
    par_rounds(
        data,
        zero,
        |(w, b), part| gradient(loss, w, *b, part.features(), part.labels()),
        |(w, b), partials| {
            let mut gw = vec![0.0; dim];
            let mut gb = 0.0;
            for (pgw, pgb) in partials {
                axpy(1.0, &pgw, &mut gw);
                gb += pgb;
            }
            for (wi, gi) in w.iter_mut().zip(&gw) {
                *wi -= step_size * (gi / n + reg_param * *wi);
            }
            *b -= step_size * gb / n;
            rounds += 1;
            if rounds == iterations {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledPoint;
    use sqlml_common::SplitMix64;

    #[test]
    fn recovers_a_linear_relationship() {
        // y = 3x1 - 2x2 + 5 + noise
        let mut rng = SplitMix64::new(17);
        let points: Vec<LabeledPoint> = (0..500)
            .map(|_| {
                let x1 = rng.next_gaussian();
                let x2 = rng.next_gaussian();
                let y = 3.0 * x1 - 2.0 * x2 + 5.0 + rng.next_gaussian() * 0.01;
                LabeledPoint::new(y, vec![x1, x2])
            })
            .collect();
        let data = Dataset::new(vec![points[..250].to_vec(), points[250..].to_vec()]).unwrap();
        let m = LinRegTrainer::default().train(&data).unwrap();
        assert!((m.weights[0] - 3.0).abs() < 0.05, "{:?}", m);
        assert!((m.weights[1] + 2.0).abs() < 0.05, "{:?}", m);
        assert!((m.intercept - 5.0).abs() < 0.05, "{:?}", m);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let mut rng = SplitMix64::new(19);
        let points: Vec<LabeledPoint> = (0..200)
            .map(|_| {
                let x = rng.next_gaussian();
                LabeledPoint::new(4.0 * x, vec![x])
            })
            .collect();
        let data = Dataset::from_points(points).unwrap();
        let free = LinRegTrainer::default().train(&data).unwrap();
        let ridge = LinRegTrainer {
            reg_param: 1.0,
            ..Default::default()
        }
        .train(&data)
        .unwrap();
        assert!(ridge.weights[0].abs() < free.weights[0].abs());
    }

    #[test]
    fn empty_input_is_an_error() {
        let empty = Dataset::from_points(vec![]).unwrap();
        assert!(LinRegTrainer::default().train(&empty).is_err());
    }
}
