//! Every iterative trainer against a textbook plain-loop version of
//! itself, bit for bit, on seeded datasets of every feature width from 0
//! to 9 and one to five partitions — plus a NaN feature, ±inf features
//! and an empty partition. The job runner's binary classifiers, handed a
//! dataset they may overwrite, against a textbook relabel, standardize
//! and SGD on a copy, labels of every accepted and refused shape
//! included; and a dataset the caller keeps comes back from training
//! unchanged.
//!
//! The oracles are written the way the trainers were before their loops
//! were specialised: rows as `PointRef`s, `dot` / `axpy` per row, a branch
//! on the hinge, one partial gradient per partition, and the partials
//! summed in partition order. Per-partition summation order is part of the
//! engine's contract, so any faster loop must land on exactly these bits.

use std::hash::{Hash, Hasher};

use sqlml_common::SplitMix64;
use sqlml_mlengine::job::{JobConfig, JobRunner, TrainedModel, TrainingSpec};
use sqlml_mlengine::kmeans::KMeansTrainer;
use sqlml_mlengine::linalg::{axpy, dot, sq_dist};
use sqlml_mlengine::linreg::LinRegTrainer;
use sqlml_mlengine::logreg::LogRegTrainer;
use sqlml_mlengine::svm::SvmTrainer;
use sqlml_mlengine::{Dataset, LabeledPoint, PointRef};

/// What to plant in a case besides seeded numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plant {
    Nothing,
    NanFeature,
    InfFeatures,
    EmptyPartition,
}

struct Case {
    name: String,
    /// Labels in {0, 1}.
    classes: Dataset,
    /// The same features, labelled by a noisy linear function of them.
    values: Dataset,
}

fn case(dim: usize, parts: usize, plant: Plant) -> Case {
    let seed = 0x0AC1_E000 + (dim * 16 + parts) as u64;
    let mut rng = SplitMix64::new(seed);
    let truth: Vec<f64> = (0..dim).map(|_| rng.next_gaussian()).collect();
    let mut classes: Vec<Vec<LabeledPoint>> = Vec::new();
    let mut values: Vec<Vec<LabeledPoint>> = Vec::new();
    for _ in 0..parts {
        let rows = 20 + rng.next_below(60);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        for _ in 0..rows {
            let scale = 1.0 + rng.next_below(50) as f64;
            let x: Vec<f64> = (0..dim)
                .map(|_| rng.next_gaussian() * scale + 3.0)
                .collect();
            let y = dot(&truth, &x) + rng.next_gaussian();
            let class = if y + rng.next_gaussian() > 3.0 * truth.iter().sum::<f64>() {
                1.0
            } else {
                0.0
            };
            c.push(LabeledPoint::new(class, x.clone()));
            v.push(LabeledPoint::new(y, x));
        }
        classes.push(c);
        values.push(v);
    }
    let last = parts - 1;
    match plant {
        Plant::Nothing => {}
        Plant::NanFeature => {
            for p in [&mut classes, &mut values] {
                p[last][3].features[dim - 1] = f64::NAN;
            }
        }
        Plant::InfFeatures => {
            for p in [&mut classes, &mut values] {
                p[0][1].features[0] = f64::INFINITY;
                p[last][5].features[dim - 1] = f64::NEG_INFINITY;
            }
        }
        Plant::EmptyPartition => {
            classes.insert(parts / 2, Vec::new());
            values.insert(parts / 2, Vec::new());
        }
    }
    Case {
        name: format!("dim {dim}, {parts} partitions, {plant:?}"),
        classes: Dataset::new(classes).unwrap(),
        values: Dataset::new(values).unwrap(),
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for dim in 0..=9 {
        for parts in 1..=5 {
            out.push(case(dim, parts, Plant::Nothing));
        }
    }
    for (dim, parts) in [(1, 2), (4, 3), (9, 4)] {
        out.push(case(dim, parts, Plant::NanFeature));
        out.push(case(dim, parts, Plant::InfFeatures));
    }
    for (dim, parts) in [(0, 3), (4, 4), (7, 2), (9, 3)] {
        out.push(case(dim, parts, Plant::EmptyPartition));
    }
    out
}

fn bits(weights: &[f64], intercept: f64) -> Vec<u64> {
    (weights.iter().chain([&intercept]))
        .map(|v| v.to_bits())
        .collect()
}

// ---- the oracles ----

/// Per-feature mean and scale (1 where the stddev is not positive), two
/// sequential passes over every row in partition order.
fn standardizer(data: &Dataset) -> (Vec<f64>, Vec<f64>) {
    let n = data.num_points().max(1) as f64;
    let mut mean = vec![0.0; data.dim()];
    for p in data.iter() {
        for (m, x) in mean.iter_mut().zip(p.features) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0; data.dim()];
    for p in data.iter() {
        for ((v, m), x) in var.iter_mut().zip(&mean).zip(p.features) {
            let d = x - m;
            *v += d * d;
        }
    }
    let std = var
        .iter()
        .map(|v| (v / n).sqrt())
        .map(|s| if s > 0.0 { s } else { 1.0 })
        .collect();
    (mean, std)
}

fn standardize(data: &Dataset, mean: &[f64], std: &[f64]) -> Dataset {
    let parts = data.partitions().map(|part| {
        part.iter()
            .map(|p| {
                let x = (p.features.iter().zip(mean.iter().zip(std)))
                    .map(|(x, (m, s))| (x - m) / s)
                    .collect();
                LabeledPoint::new(p.label, x)
            })
            .collect()
    });
    Dataset::new(parts.collect()).unwrap()
}

fn unscale(weights: &[f64], intercept: f64, mean: &[f64], std: &[f64]) -> (Vec<f64>, f64) {
    let w = weights.iter().zip(std).map(|(wi, s)| wi / s).collect();
    let shift: f64 = (weights.iter().zip(mean.iter().zip(std)))
        .map(|(wi, (m, s))| wi * m / s)
        .sum();
    (w, intercept - shift)
}

/// Train `raw` on standardized features and map the model back.
fn scaled(data: &Dataset, raw: impl Fn(&Dataset) -> (Vec<f64>, f64)) -> (Vec<f64>, f64) {
    let (mean, std) = standardizer(data);
    let (w, b) = raw(&standardize(data, &mean, &std));
    unscale(&w, b, &mean, &std)
}

/// `data` with the label of its `i`-th point (in partition order) made
/// `f(i, label)`, partitions kept.
fn relabelled(data: &Dataset, f: impl Fn(usize, f64) -> f64) -> Dataset {
    let mut at = 0;
    let mut parts = Vec::new();
    for part in data.partitions() {
        let mut points = Vec::new();
        for p in part.iter() {
            points.push(LabeledPoint::new(f(at, p.label), p.features.to_vec()));
            at += 1;
        }
        parts.push(points);
    }
    Dataset::new(parts).unwrap()
}

/// The textbook relabelling of a binary classifier's input: the distinct
/// labels by a scan; more than two, or a NaN among them, refused, naming
/// the first label outside {0, 1}; {0, 1} kept as they are, bits
/// included; otherwise the larger label becomes 1 and everything else 0.
fn binarized(data: &Dataset, who: &str) -> Result<Dataset, String> {
    let same = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
    let mut distinct: Vec<f64> = Vec::new();
    for p in data.iter() {
        if !distinct.iter().any(|d| same(*d, p.label)) {
            distinct.push(p.label);
        }
    }
    if distinct.len() > 2 || distinct.iter().any(|d| d.is_nan()) {
        let outside = |l: &f64| *l != 0.0 && *l != 1.0;
        let bad = data.iter().map(|p| p.label).find(outside).unwrap();
        return Err(format!(
            "ml error: {who} expects labels in {{0,1}}, found {bad}"
        ));
    }
    distinct.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if distinct == [0.0, 1.0] {
        return Ok(data.clone());
    }
    let one = distinct.get(1).copied();
    Ok(relabelled(
        data,
        |_, l| if Some(l) == one { 1.0 } else { 0.0 },
    ))
}

fn in_mini_batch(p: PointRef<'_>, iteration: u64, fraction: f64) -> bool {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.label.to_bits().hash(&mut h);
    for f in p.features {
        f.to_bits().hash(&mut h);
    }
    let mixed = SplitMix64::new(h.finish() ^ iteration.wrapping_mul(0x9E37)).next_u64();
    (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < fraction
}

fn svm(data: &Dataset, t: &SvmTrainer) -> (Vec<f64>, f64) {
    let dim = data.dim();
    let n = data.num_points() as f64;
    let fraction = t.mini_batch_fraction.clamp(f64::MIN_POSITIVE, 1.0);
    let (mut w, mut b) = (vec![0.0; dim], 0.0);
    for it in 1..=t.iterations {
        let mut partials = Vec::new();
        for part in data.partitions() {
            let (mut gw, mut gb, mut sampled) = (vec![0.0; dim], 0.0, 0u64);
            for p in part.iter() {
                if fraction < 1.0 && !in_mini_batch(p, it as u64, fraction) {
                    continue;
                }
                sampled += 1;
                let y = if p.label > 0.5 { 1.0 } else { -1.0 };
                if y * (dot(&w, p.features) + b) < 1.0 {
                    axpy(-y, p.features, &mut gw);
                    gb -= y;
                }
            }
            partials.push((gw, gb, sampled));
        }
        let (mut gw, mut gb, mut sampled) = (vec![0.0; dim], 0.0, 0u64);
        for (pgw, pgb, ps) in partials {
            axpy(1.0, &pgw, &mut gw);
            gb += pgb;
            sampled += ps;
        }
        let denom = if fraction < 1.0 {
            sampled.max(1) as f64
        } else {
            n
        };
        let step = t.step_size / (it as f64).sqrt();
        for (wi, gi) in w.iter_mut().zip(&gw) {
            *wi -= step * (gi / denom + t.reg_param * *wi);
        }
        b -= step * gb / denom;
    }
    (w, b)
}

/// The logistic sigmoid in its textbook stable form, with a branch on the
/// sign of `z`: the oracle's own, so the library's branch-free one is
/// checked against it rather than against itself.
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Full-batch gradient descent on `err(margin, label)`, the shape of the
/// logistic and least-squares trainers.
fn descent(
    data: &Dataset,
    iterations: usize,
    step: f64,
    reg: f64,
    err: impl Fn(f64, f64) -> f64,
) -> (Vec<f64>, f64) {
    let dim = data.dim();
    let n = data.num_points() as f64;
    let (mut w, mut b) = (vec![0.0; dim], 0.0);
    for _ in 0..iterations {
        let mut partials = Vec::new();
        for part in data.partitions() {
            let (mut gw, mut gb) = (vec![0.0; dim], 0.0);
            for p in part.iter() {
                let e = err(dot(&w, p.features) + b, p.label);
                axpy(e, p.features, &mut gw);
                gb += e;
            }
            partials.push((gw, gb));
        }
        let (mut gw, mut gb) = (vec![0.0; dim], 0.0);
        for (pgw, pgb) in partials {
            axpy(1.0, &pgw, &mut gw);
            gb += pgb;
        }
        for (wi, gi) in w.iter_mut().zip(&gw) {
            *wi -= step * (gi / n + reg * *wi);
        }
        b -= step * gb / n;
    }
    (w, b)
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

/// k-means++ seeding, then Lloyd rounds until the cost settles.
fn kmeans(data: &Dataset, t: &KMeansTrainer) -> (Vec<Vec<f64>>, f64, usize) {
    let mut rng = SplitMix64::new(t.seed);
    let all: Vec<&[f64]> = data.iter().map(|p| p.features).collect();
    let first = rng.next_below(all.len() as u64) as usize;
    let mut centroids = vec![all[first].to_vec()];
    while centroids.len() < t.k {
        let weights: Vec<f64> = (all.iter())
            .map(|x| nearest(&centroids, x).1.max(f64::MIN_POSITIVE))
            .collect();
        centroids.push(all[rng.choose_weighted(&weights)].to_vec());
    }
    let (mut prev_cost, mut iterations_run) = (f64::INFINITY, 0);
    for it in 0..t.max_iterations {
        iterations_run = it + 1;
        let mut partials = Vec::new();
        for part in data.partitions() {
            let mut sums = vec![vec![0.0; data.dim()]; t.k];
            let mut counts = vec![0usize; t.k];
            let mut cost = 0.0;
            for p in part.iter() {
                let (c, d) = nearest(&centroids, p.features);
                counts[c] += 1;
                cost += d;
                for (s, x) in sums[c].iter_mut().zip(p.features) {
                    *s += x;
                }
            }
            partials.push((sums, counts, cost));
        }
        let mut sums = vec![vec![0.0; data.dim()]; t.k];
        let mut counts = vec![0usize; t.k];
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
                centroids[c] = s.into_iter().map(|v| v / counts[c] as f64).collect();
            }
        }
        let settled = prev_cost.is_finite() && (prev_cost - cost).abs() <= t.tolerance * prev_cost;
        prev_cost = cost;
        if settled {
            break;
        }
    }
    (centroids, prev_cost, iterations_run)
}

// ---- the comparisons ----

#[test]
fn svm_matches_the_plain_loop_bit_for_bit() {
    for c in cases() {
        for scale_features in [true, false] {
            let t = SvmTrainer {
                iterations: 12,
                scale_features,
                ..Default::default()
            };
            let got = t.train(&c.classes).unwrap();
            let want = if scale_features {
                scaled(&c.classes, |d| svm(d, &t))
            } else {
                svm(&c.classes, &t)
            };
            assert_eq!(
                bits(&got.weights, got.intercept),
                bits(&want.0, want.1),
                "svm, {}, scaled {scale_features}",
                c.name
            );
        }
    }
}

#[test]
fn mini_batch_svm_matches_the_plain_loop_bit_for_bit() {
    for c in cases() {
        let t = SvmTrainer {
            iterations: 12,
            mini_batch_fraction: 0.4,
            ..Default::default()
        };
        let got = t.train(&c.classes).unwrap();
        let want = scaled(&c.classes, |d| svm(d, &t));
        assert_eq!(
            bits(&got.weights, got.intercept),
            bits(&want.0, want.1),
            "mini-batch svm, {}",
            c.name
        );
    }
}

#[test]
fn logreg_matches_the_plain_loop_bit_for_bit() {
    for c in cases() {
        let t = LogRegTrainer {
            iterations: 12,
            ..Default::default()
        };
        let got = t.train(&c.classes).unwrap();
        let want = scaled(&c.classes, |d| {
            descent(d, t.iterations, t.step_size, t.reg_param, |m, y| {
                sigmoid(m) - y
            })
        });
        assert_eq!(
            bits(&got.weights, got.intercept),
            bits(&want.0, want.1),
            "logreg, {}",
            c.name
        );
    }
}

#[test]
fn linreg_matches_the_plain_loop_bit_for_bit() {
    for c in cases() {
        let t = LinRegTrainer {
            iterations: 12,
            step_size: 1e-4,
            reg_param: 0.01,
        };
        let got = t.train(&c.values).unwrap();
        let want = descent(&c.values, t.iterations, t.step_size, t.reg_param, |m, y| {
            m - y
        });
        assert_eq!(
            bits(&got.weights, got.intercept),
            bits(&want.0, want.1),
            "linreg, {}",
            c.name
        );
    }
}

#[test]
fn kmeans_matches_the_plain_loop_bit_for_bit() {
    for c in cases() {
        let t = KMeansTrainer {
            k: 3,
            max_iterations: 10,
            ..Default::default()
        };
        let got = t.train(&c.classes).unwrap();
        let (centroids, cost, iterations_run) = kmeans(&c.classes, &t);
        let flat = |cs: &[Vec<f64>], cost: f64| -> Vec<u64> {
            (cs.iter().flatten().chain([&cost]))
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(
            (flat(&got.centroids, got.cost), got.iterations_run),
            (flat(&centroids, cost), iterations_run),
            "kmeans, {}",
            c.name
        );
    }
}

/// A label shape: its name, the rewrite of a case's {0, 1} labels (the
/// `i`-th label in partition order, `label`) and whether the runner
/// refuses it.
type Labelling = (&'static str, fn(usize, f64) -> f64, bool);

/// The label shapes a binary classifier meets.
const LABELLINGS: [Labelling; 7] = [
    ("recoded 1/2", |_, l| l + 1.0, false),
    ("{0,1}", |_, l| l, false),
    ("a single class", |_, _| 7.0, false),
    ("{-0,1}", |_, l| if l == 0.0 { -0.0 } else { l }, false),
    // A 2 after the NaN: the refusal names the first label outside {0,1}.
    (
        "a NaN label",
        |i, l| match i {
            2 => f64::NAN,
            9 => 2.0,
            _ => l,
        },
        true,
    ),
    ("three classes", |i, l| if i == 3 { 2.0 } else { l }, true),
    // NaN is no second class: refused, not a one-class relabel.
    (
        "one class and a NaN",
        |i, _| if i == 2 { f64::NAN } else { 1.0 },
        true,
    ),
];

/// What a binary job returns, as bits or the error's text.
fn outcome(model: sqlml_common::Result<TrainedModel>) -> Result<Vec<u64>, String> {
    match model.map_err(|e| e.to_string())? {
        TrainedModel::Svm(m) => Ok(bits(&m.weights, m.intercept)),
        TrainedModel::LogReg(m) => Ok(bits(&m.weights, m.intercept)),
        other => panic!("not a binary classifier: {other:?}"),
    }
}

/// The runner's binary commands, with the textbook training each one
/// stands for on relabelled data.
#[allow(clippy::type_complexity)]
fn binary_jobs() -> Vec<(
    &'static str,
    &'static str,
    Box<dyn Fn(&Dataset) -> (Vec<f64>, f64)>,
)> {
    let svm_with = |fraction: f64| {
        let t = SvmTrainer {
            iterations: 12,
            mini_batch_fraction: fraction,
            ..Default::default()
        };
        move |d: &Dataset| svm(d, &t)
    };
    let logreg = |d: &Dataset| descent(d, 12, 1.0, 0.001, |m, y| sigmoid(m) - y);
    vec![
        ("svm label=0 iterations=12", "SVM", Box::new(svm_with(1.0))),
        (
            "svm label=0 iterations=12 batch=0.4",
            "SVM",
            Box::new(svm_with(0.4)),
        ),
        (
            "logreg label=0 iterations=12 step=1.0 reg=0.001",
            "logreg",
            Box::new(logreg),
        ),
    ]
}

#[test]
fn an_owned_dataset_trains_as_the_textbook_relabel_standardize_and_loops() {
    let runner = JobRunner::new(JobConfig::default());
    for c in cases() {
        for (labelling, relabel, refused) in LABELLINGS {
            let data = relabelled(&c.classes, relabel);
            for (command, who, raw) in binary_jobs() {
                let spec = TrainingSpec::parse(command).unwrap();
                // A dataset nobody else holds: prepared where it lies.
                let got = outcome(runner.train_owned(relabelled(&c.classes, relabel), &spec));
                let want = binarized(&data, who).map(|d| {
                    let (w, b) = scaled(&d, &raw);
                    bits(&w, b)
                });
                assert_eq!(want.is_err(), refused, "{command}, {labelling}, {}", c.name);
                assert_eq!(got, want, "{command}, {labelling}, {}", c.name);
            }
        }
    }
}

fn snapshot(data: &Dataset) -> Vec<Vec<u64>> {
    (data.partitions())
        .map(|p| {
            (p.features().iter().chain(p.labels()))
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn training_leaves_a_dataset_the_caller_still_holds_unchanged() {
    let runner = JobRunner::new(JobConfig::default());
    for c in cases() {
        for (labelling, relabel, _) in LABELLINGS {
            let data = relabelled(&c.classes, relabel);
            let before = snapshot(&data);
            let case = format!("{labelling}, {}", c.name);
            for (command, _, _) in binary_jobs() {
                let spec = TrainingSpec::parse(command).unwrap();
                let borrowed = outcome(runner.train(&data, &spec));
                assert_eq!(snapshot(&data), before, "{command} by reference, {case}");
                let cloned = outcome(runner.train_owned(data.clone(), &spec));
                assert_eq!(snapshot(&data), before, "{command} on a clone, {case}");
                let owned = outcome(runner.train_owned(relabelled(&c.classes, relabel), &spec));
                assert_eq!((&borrowed, &cloned), (&owned, &owned), "{command}, {case}");
            }
            let svm = SvmTrainer {
                iterations: 12,
                ..Default::default()
            };
            let _ = svm.train(&data);
            assert_eq!(snapshot(&data), before, "the SVM trainer, {case}");
            let logreg = LogRegTrainer {
                iterations: 12,
                ..Default::default()
            };
            let _ = logreg.train(&data);
            assert_eq!(snapshot(&data), before, "the logreg trainer, {case}");
        }
    }
}
