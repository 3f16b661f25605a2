//! Golden models: the exact bits every trainer produces on one seeded
//! 3-partition dataset, recorded at commit `4aaef92` (when a partition was
//! a `Vec<LabeledPoint>`). A storage or iteration change inside `Dataset`
//! must not move a single bit of any of them: per-partition summation
//! order is part of the engine's contract.

use sqlml_common::SplitMix64;
use sqlml_mlengine::job::{JobConfig, JobRunner, TrainedModel, TrainingSpec};
use sqlml_mlengine::{Dataset, LabeledPoint};

/// 600 carts-shaped points (age, gender_F, gender_M, amount) with recoded
/// 1/2 labels, dealt unevenly over three partitions.
fn seeded_dataset() -> Dataset {
    let mut rng = SplitMix64::new(0x0601_DE17);
    let mut parts: Vec<Vec<LabeledPoint>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..600 {
        let age = rng.range_i64(18, 80) as f64;
        let female = rng.chance(0.5);
        let amount = 100.0 + rng.next_gaussian() * 50.0;
        let score = (amount - 100.0) / 50.0 + (age - 49.0) / 31.0 + rng.next_gaussian() * 0.3;
        let label = if score > 0.0 { 2.0 } else { 1.0 };
        let features = vec![
            age,
            f64::from(u8::from(female)),
            f64::from(u8::from(!female)),
            amount,
        ];
        let part = match rng.next_below(6) {
            0..=2 => 0,
            3..=4 => 1,
            _ => 2,
        };
        parts[part].push(LabeledPoint::new(label, features));
    }
    Dataset::new(parts).unwrap()
}

fn train(command: &str) -> TrainedModel {
    let runner = JobRunner::new(JobConfig::default());
    runner
        .train(&seeded_dataset(), &TrainingSpec::parse(command).unwrap())
        .unwrap()
}

fn bits(weights: &[f64], intercept: f64) -> Vec<u64> {
    weights
        .iter()
        .chain(std::iter::once(&intercept))
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn svm_model_is_bit_identical() {
    let TrainedModel::Svm(m) = train("svm label=4 iterations=25 step=1.0 reg=0.01") else {
        panic!("not an svm");
    };
    assert_eq!(
        bits(&m.weights, m.intercept),
        [
            4587931267985502522,
            4589930913635132192,
            13813302950489908000,
            4584706886489701662,
            13841539138390736978,
        ],
        "svm"
    );
}

#[test]
fn mini_batch_svm_model_is_bit_identical() {
    let TrainedModel::Svm(m) = train("svm label=4 iterations=25 batch=0.3") else {
        panic!("not an svm");
    };
    assert_eq!(
        bits(&m.weights, m.intercept),
        [
            4588185519714879681,
            4589649255229345759,
            13813021292084121567,
            4584619362109843459,
            13841622115677344888,
        ],
        "mini-batch svm"
    );
}

#[test]
fn logreg_model_is_bit_identical() {
    let TrainedModel::LogReg(m) = train("logreg label=4 iterations=25") else {
        panic!("not a logreg");
    };
    assert_eq!(
        bits(&m.weights, m.intercept),
        [
            4590460288644978565,
            4591504501552522807,
            13814876538407298615,
            4587078895597961522,
            13844449446943091899,
        ],
        "logreg"
    );
}

#[test]
fn linreg_model_is_bit_identical() {
    // The raw features are unscaled (ages, dollar amounts), so the step
    // must be tiny for plain gradient descent to stay finite.
    let TrainedModel::LinReg(m) = train("linreg label=4 iterations=25 step=0.00001") else {
        panic!("not a linreg");
    };
    assert!(m.weights.iter().all(|w| w.is_finite()));
    assert_eq!(
        bits(&m.weights, m.intercept),
        [
            4574069762339054566,
            4544147800323858739,
            4543810068996010489,
            4577410480736337677,
            4548490422440819244,
        ],
        "linreg"
    );
}

#[test]
fn kmeans_model_is_bit_identical() {
    let TrainedModel::KMeans(m) = train("kmeans k=3 iterations=20") else {
        panic!("not a kmeans");
    };
    let got: Vec<u64> = m
        .centroids
        .iter()
        .flatten()
        .chain(std::iter::once(&m.cost))
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        (got, m.iterations_run),
        (
            vec![
                4631828956466636091,
                4602767125047693392,
                4602502207422553951,
                4630255167887144233,
                4631824059149427100,
                4602628499623737744,
                4602703978947101496,
                4639765065218436515,
                4632426418063931484,
                4602611601267760785,
                4602712428125089975,
                4636345647333354018,
                4691546041937383251,
            ],
            13
        ),
        "kmeans"
    );
}

/// Naive Bayes and the tree keep their parameters private, so they are
/// pinned through `Debug`: Rust prints an `f64` as the shortest string
/// that parses back to the same bits, so equal strings are equal bits.
#[test]
fn naive_bayes_model_is_bit_identical() {
    let m = train("nb label=4");
    assert_eq!(format!("{m:?}"), "NaiveBayes(NaiveBayesModel { classes: [(1.0, 0.49666666666666665, [41.95973154362416, 0.4899328859060403, 0.5100671140939598, 64.88242729257685], [271.06549254538095, 0.2498986532138192, 0.2498986532138192, 1366.9269467325776]), (2.0, 0.5033333333333333, [55.966887417218544, 0.5099337748344371, 0.4900662251655629, 131.66986948217075], [253.31016183500697, 0.24990132011753868, 0.2499013201175387, 1428.8735820782204])] })");
}

#[test]
fn tree_model_is_bit_identical() {
    let m = train("tree label=4 depth=3");
    assert_eq!(format!("{m:?}"), "Tree(TreeModel { root: Split { feature: 3, threshold: 81.60545787590671, left: Split { feature: 0, threshold: 73.5, left: Split { feature: 0, threshold: 61.5, left: Leaf { label: 1.0 }, right: Leaf { label: 1.0 } }, right: Split { feature: 3, threshold: 50.22872472099397, left: Leaf { label: 1.0 }, right: Leaf { label: 2.0 } } }, right: Split { feature: 0, threshold: 42.5, left: Split { feature: 3, threshold: 133.71065401620928, left: Leaf { label: 1.0 }, right: Leaf { label: 2.0 } }, right: Split { feature: 3, threshold: 107.59365613632573, left: Leaf { label: 2.0 }, right: Leaf { label: 2.0 } } } }, depth: 3, num_nodes: 15 })");
}
