//! K-means clustering (Lloyd's algorithm with k-means++ seeding).
//!
//! Assignment and partial-centroid computation run in parallel over the
//! dataset partitions each iteration; partials are merged exactly, so the
//! result is independent of partitioning.

use std::ops::ControlFlow;

use sqlml_common::{Result, SplitMix64, SqlmlError};

use crate::dataset::{par_rounds, Dataset};
use crate::linalg::sq_dist;

/// A trained k-means model: the centroids.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances to assigned centroids at convergence.
    pub cost: f64,
    pub iterations_run: usize,
}

impl KMeansModel {
    /// Index of the nearest centroid.
    pub fn predict(&self, features: &[f64]) -> usize {
        nearest(&self.centroids, features).0
    }
}

fn nearest(centroids: &[Vec<f64>], x: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(c, x);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

#[derive(Debug, Clone)]
pub struct KMeansTrainer {
    pub k: usize,
    pub max_iterations: usize,
    pub seed: u64,
    /// Stop when total cost improves by less than this fraction.
    pub tolerance: f64,
}

impl Default for KMeansTrainer {
    fn default() -> Self {
        KMeansTrainer {
            k: 2,
            max_iterations: 50,
            seed: 42,
            tolerance: 1e-6,
        }
    }
}

impl KMeansTrainer {
    pub fn train(&self, data: &Dataset) -> Result<KMeansModel> {
        if data.num_points() < self.k {
            return Err(SqlmlError::Ml(format!(
                "k-means: {} points < k={}",
                data.num_points(),
                self.k
            )));
        }
        let model = KMeansModel {
            centroids: self.seed_centroids(data),
            cost: f64::INFINITY,
            iterations_run: 0,
        };
        if self.max_iterations == 0 {
            return Ok(model);
        }
        // Each round: per-partition centroid sums + counts + cost (map),
        // merged in partition order into new centroids (reduce). `cost`
        // holds the previous round's total until the round converges.
        let model = par_rounds(
            data,
            model,
            |m, part| {
                let mut sums = vec![vec![0.0; data.dim()]; self.k];
                let mut counts = vec![0usize; self.k];
                let mut cost = 0.0;
                for p in part.iter() {
                    let (c, d) = nearest(&m.centroids, p.features);
                    counts[c] += 1;
                    cost += d;
                    for (s, x) in sums[c].iter_mut().zip(p.features) {
                        *s += x;
                    }
                }
                (sums, counts, cost)
            },
            |m, partials| {
                m.iterations_run += 1;
                let mut sums = vec![vec![0.0; data.dim()]; self.k];
                let mut counts = vec![0usize; self.k];
                let mut cost = 0.0;
                for (ps, pc, pcost) in partials {
                    cost += pcost;
                    for (c, (s, p)) in sums.iter_mut().zip(ps).enumerate() {
                        for (a, b) in s.iter_mut().zip(p) {
                            *a += b;
                        }
                        counts[c] += pc[c];
                    }
                }
                for (c, s) in sums.into_iter().enumerate() {
                    if counts[c] > 0 {
                        m.centroids[c] = s.into_iter().map(|v| v / counts[c] as f64).collect();
                    }
                    // Empty clusters keep their previous centroid.
                }
                let prev_cost = std::mem::replace(&mut m.cost, cost);
                let converged =
                    prev_cost.is_finite() && (prev_cost - cost).abs() <= self.tolerance * prev_cost;
                if converged || m.iterations_run == self.max_iterations {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        Ok(model)
    }

    /// k-means++ seeding over a deterministic sample.
    fn seed_centroids(&self, data: &Dataset) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(self.seed);
        let all: Vec<&[f64]> = data.iter().map(|p| p.features).collect();
        // next_below(len) < len, which already fits in usize.
        #[allow(clippy::cast_possible_truncation)]
        let mut centroids: Vec<Vec<f64>> =
            vec![all[rng.next_below(all.len() as u64) as usize].to_vec()];
        while centroids.len() < self.k {
            let weights: Vec<f64> = all
                .iter()
                .map(|x| nearest(&centroids, x).1.max(f64::MIN_POSITIVE))
                .collect();
            let pick = rng.choose_weighted(&weights);
            centroids.push(all[pick].to_vec());
        }
        centroids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledPoint;

    fn blob_data(parts: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let centers = [(-5.0, -5.0), (5.0, 5.0), (5.0, -5.0)];
        let mut out: Vec<Vec<LabeledPoint>> = (0..parts).map(|_| Vec::new()).collect();
        for i in 0..300 {
            let (cx, cy) = centers[i % 3];
            out[i % parts].push(LabeledPoint::new(
                0.0,
                vec![
                    cx + rng.next_gaussian() * 0.4,
                    cy + rng.next_gaussian() * 0.4,
                ],
            ));
        }
        Dataset::new(out).unwrap()
    }

    #[test]
    fn finds_three_well_separated_blobs() {
        let data = blob_data(4, 41);
        let model = KMeansTrainer {
            k: 3,
            ..Default::default()
        }
        .train(&data)
        .unwrap();
        // Each centroid should be near one of the true centers.
        let centers = [(-5.0, -5.0), (5.0, 5.0), (5.0, -5.0)];
        for c in &model.centroids {
            let min_d = centers
                .iter()
                .map(|(x, y)| sq_dist(c, &[*x, *y]))
                .fold(f64::INFINITY, f64::min);
            assert!(min_d < 1.0, "centroid {c:?} far from all true centers");
        }
        // Cost per point should be about 2 * 0.4^2.
        let per_point = model.cost / data.num_points() as f64;
        assert!(per_point < 1.0, "cost {per_point}");
    }

    #[test]
    fn partitioning_invariant() {
        let m1 = KMeansTrainer {
            k: 3,
            ..Default::default()
        }
        .train(&blob_data(1, 43))
        .unwrap();
        let m6 = KMeansTrainer {
            k: 3,
            ..Default::default()
        }
        .train(&blob_data(6, 43))
        .unwrap();
        assert!((m1.cost - m6.cost).abs() < 1e-6 * m1.cost.max(1.0));
    }

    #[test]
    fn k_larger_than_points_is_an_error() {
        let tiny = Dataset::from_points(vec![LabeledPoint::new(0.0, vec![1.0])]).unwrap();
        assert!(KMeansTrainer {
            k: 2,
            ..Default::default()
        }
        .train(&tiny)
        .is_err());
    }

    #[test]
    fn converges_before_max_iterations_on_easy_data() {
        let data = blob_data(2, 47);
        let model = KMeansTrainer {
            k: 3,
            max_iterations: 50,
            ..Default::default()
        }
        .train(&data)
        .unwrap();
        assert!(model.iterations_run < 50, "ran {}", model.iterations_run);
    }
}
