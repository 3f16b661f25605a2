//! Decision-tree classifier (CART with Gini impurity).
//!
//! Split search is parallelized feature-wise across partitions of work:
//! candidate thresholds per feature are evaluated against the node's
//! points. Trees are deterministic, so the model is independent of the
//! dataset's partitioning.

use sqlml_common::{Result, SqlmlError};

use crate::dataset::{Dataset, PointRef};

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct TreeModel {
    root: Node,
    pub depth: usize,
    pub num_nodes: usize,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        label: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl TreeModel {
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct TreeTrainer {
    pub max_depth: usize,
    pub min_leaf_size: usize,
    /// Max candidate thresholds evaluated per feature (quantile-sampled),
    /// keeping split search subquadratic on large nodes.
    pub max_thresholds: usize,
}

impl Default for TreeTrainer {
    fn default() -> Self {
        TreeTrainer {
            max_depth: 5,
            min_leaf_size: 4,
            max_thresholds: 32,
        }
    }
}

impl TreeTrainer {
    pub fn train(&self, data: &Dataset) -> Result<TreeModel> {
        if data.num_points() == 0 {
            return Err(SqlmlError::Ml("tree: empty training set".into()));
        }
        let points: Vec<PointRef<'_>> = data.iter().collect();
        let mut num_nodes = 0;
        let root = self.grow(&points, 0, &mut num_nodes);
        let depth = tree_depth(&root);
        Ok(TreeModel {
            root,
            depth,
            num_nodes,
        })
    }

    fn grow(&self, points: &[PointRef<'_>], depth: usize, num_nodes: &mut usize) -> Node {
        *num_nodes += 1;
        let majority = majority_label(points);
        if depth >= self.max_depth || points.len() < 2 * self.min_leaf_size || gini(points) == 0.0 {
            return Node::Leaf { label: majority };
        }
        let dim = points[0].features.len();
        let mut best: Option<(f64, usize, f64)> = None; // (impurity, feature, threshold)
        for f in 0..dim {
            let mut vals: Vec<f64> = points.iter().map(|p| p.features[f]).collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let stride = (vals.len() / self.max_thresholds).max(1);
            for w in vals.windows(2).step_by(stride) {
                let thr = (w[0] + w[1]) / 2.0;
                let (l, r): (Vec<PointRef<'_>>, Vec<PointRef<'_>>) =
                    points.iter().partition(|p| p.features[f] <= thr);
                if l.len() < self.min_leaf_size || r.len() < self.min_leaf_size {
                    continue;
                }
                let n = points.len() as f64;
                let weighted = gini(&l) * l.len() as f64 / n + gini(&r) * r.len() as f64 / n;
                if best.is_none_or(|(bi, _, _)| weighted < bi) {
                    best = Some((weighted, f, thr));
                }
            }
        }
        match best {
            Some((imp, feature, threshold)) if imp < gini(points) => {
                let (l, r): (Vec<PointRef<'_>>, Vec<PointRef<'_>>) = points
                    .iter()
                    .partition(|p| p.features[feature] <= threshold);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(self.grow(&l, depth + 1, num_nodes)),
                    right: Box::new(self.grow(&r, depth + 1, num_nodes)),
                }
            }
            _ => Node::Leaf { label: majority },
        }
    }
}

fn majority_label(points: &[PointRef<'_>]) -> f64 {
    let mut counts: Vec<(f64, usize)> = Vec::new();
    for p in points {
        match counts.iter_mut().find(|(l, _)| *l == p.label) {
            Some((_, c)) => *c += 1,
            None => counts.push((p.label, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.total_cmp(&b.0)));
    counts.first().map(|(l, _)| *l).unwrap_or(0.0)
}

fn gini(points: &[PointRef<'_>]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let mut counts: Vec<(f64, usize)> = Vec::new();
    for p in points {
        match counts.iter_mut().find(|(l, _)| *l == p.label) {
            Some((_, c)) => *c += 1,
            None => counts.push((p.label, 1)),
        }
    }
    let n = points.len() as f64;
    1.0 - counts
        .iter()
        .map(|(_, c)| {
            let f = *c as f64 / n;
            f * f
        })
        .sum::<f64>()
}

fn tree_depth(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 0,
        Node::Split { left, right, .. } => 1 + tree_depth(left).max(tree_depth(right)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledPoint;
    use sqlml_common::SplitMix64;

    #[test]
    fn learns_an_axis_aligned_rectangle() {
        // Label 1 iff x > 0 and y > 0 — needs depth 2.
        let mut rng = SplitMix64::new(31);
        let points: Vec<LabeledPoint> = (0..400)
            .map(|_| {
                let x = rng.next_f64() * 2.0 - 1.0;
                let y = rng.next_f64() * 2.0 - 1.0;
                let label = if x > 0.0 && y > 0.0 { 1.0 } else { 0.0 };
                LabeledPoint::new(label, vec![x, y])
            })
            .collect();
        let data = Dataset::from_points(points).unwrap();
        let model = TreeTrainer::default().train(&data).unwrap();
        let acc = data
            .iter()
            .filter(|p| model.predict(p.features) == p.label)
            .count() as f64
            / data.num_points() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(model.depth >= 2);
    }

    #[test]
    fn pure_node_becomes_leaf_immediately() {
        let points = vec![
            LabeledPoint::new(1.0, vec![0.0]),
            LabeledPoint::new(1.0, vec![1.0]),
            LabeledPoint::new(1.0, vec![2.0]),
        ];
        let data = Dataset::from_points(points).unwrap();
        let model = TreeTrainer::default().train(&data).unwrap();
        assert_eq!(model.num_nodes, 1);
        assert_eq!(model.predict(&[5.0]), 1.0);
    }

    #[test]
    fn respects_max_depth() {
        let mut rng = SplitMix64::new(37);
        let points: Vec<LabeledPoint> = (0..500)
            .map(|_| {
                let x = rng.next_f64();
                LabeledPoint::new(if rng.chance(0.5) { 1.0 } else { 0.0 }, vec![x])
            })
            .collect();
        let data = Dataset::from_points(points).unwrap();
        let model = TreeTrainer {
            max_depth: 2,
            ..Default::default()
        }
        .train(&data)
        .unwrap();
        assert!(model.depth <= 2);
    }

    #[test]
    fn min_leaf_size_blocks_tiny_splits() {
        let points = vec![
            LabeledPoint::new(0.0, vec![0.0]),
            LabeledPoint::new(1.0, vec![1.0]),
        ];
        let data = Dataset::from_points(points).unwrap();
        let model = TreeTrainer {
            min_leaf_size: 4,
            ..Default::default()
        }
        .train(&data)
        .unwrap();
        assert_eq!(model.num_nodes, 1); // forced leaf
    }

    #[test]
    fn empty_input_is_an_error() {
        let empty = Dataset::from_points(vec![]).unwrap();
        assert!(TreeTrainer::default().train(&empty).is_err());
    }
}
