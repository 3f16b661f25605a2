//! The paper's running example (§1, §7): predicting shopping-cart
//! abandonment for an online retailer.
//!
//! Generates the synthetic `carts`/`users` warehouse, runs the
//! preparation query, recodes `gender`/`abandoned` and dummy-codes
//! `gender`, trains `SVMWithSGD`, and compares the three integration
//! strategies of Figure 3 — then evaluates the model on a held-out split.
//!
//! Run with: `cargo run --release --example cart_abandonment [num_carts]`

use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy, WorkloadScale};
use sqlml_mlengine::dataset::{Dataset, PartitionBlock};
use sqlml_mlengine::job::TrainedModel;
use sqlml_mlengine::metrics;
use sqlml_transform::TransformSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let carts: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(50_000);
    let scale = WorkloadScale::with_carts(carts);
    println!(
        "cart-abandonment scenario: {} carts, {} users",
        scale.carts, scale.users
    );

    let cluster = SimCluster::start(ClusterConfig::default())?;
    cluster.load_workload(scale, 42)?;

    let request = PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        // Transformed layout: age, gender_F, gender_M, amount, abandoned.
        ml_command: "svm label=4 iterations=50".to_string(),
    };

    let pipeline = Pipeline::new(&cluster);
    let mut last_model: Option<TrainedModel> = None;
    for strategy in [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream] {
        let report = pipeline.run(&request, strategy)?;
        println!("\n=== {} ===", strategy.label());
        print!("{}", report.timer);
        println!(
            "  ({} rows to ML, training excluded: {:.1?})",
            report.rows_to_ml, report.train_time
        );
        last_model = Some(report.model);
    }

    // Evaluate: rebuild the transformed dataset once more and hold out
    // every 5th row.
    let engine = &cluster.engine;
    engine.execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))?;
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let out = transformer.transform("prep", &request.spec)?;
    // Labels are recoded 1/2 (No/Yes) — shift to 0/1 like the trainer did.
    let mut block = PartitionBlock::new(Some(4));
    for row in out.table.collect_rows() {
        block.push_record(&row)?;
    }
    let data = Dataset::from_blocks(vec![block])?.map_labels(|l| l - 1.0);
    let (_, test) = data.split_every_kth(5);

    let model = last_model.expect("trained above");
    let acc = metrics::accuracy(&test, |f| model.predict(f));
    let report = metrics::binary_report(&test, |f| model.predict(f));
    println!("\nheld-out accuracy: {acc:.3}");
    println!(
        "precision {:.3}  recall {:.3}  f1 {:.3}",
        report.precision, report.recall, report.f1
    );
    let majority = test
        .iter()
        .filter(|p| p.label == 0.0)
        .count()
        .max(test.iter().filter(|p| p.label == 1.0).count()) as f64
        / test.num_points() as f64;
    println!("majority-class baseline: {majority:.3}");
    assert!(acc > majority, "the SVM should beat always-majority");
    println!("cart_abandonment OK");
    Ok(())
}
