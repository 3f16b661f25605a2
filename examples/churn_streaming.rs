//! A second domain scenario: telecom customer churn.
//!
//! Demonstrates pieces the cart example doesn't: the **query rewriter**
//! (§4) printing the SQL script every In-SQL pipeline runs, here ending
//! in the streaming hand-off, **effect coding** named in the request's
//! `TransformSpec`, and the **fault-injected restart protocol** (§6)
//! during a live transfer.
//!
//! Run with: `cargo run --release --example churn_streaming`

use std::sync::Arc;

use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_core::{ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy};
use sqlml_rewriter::QueryRewriter;
use sqlml_transfer::{FaultInjector, TransferArgs};
use sqlml_transform::{Coding, TransformSpec};

fn build_tables(cluster: &SimCluster) {
    let customers = Schema::new(vec![
        Field::new("custid", DataType::Int),
        Field::new("tenure_months", DataType::Int),
        Field::new("monthly_bill", DataType::Double),
        Field::categorical("plan"),
        Field::categorical("churned"),
    ]);
    let mut rng = SplitMix64::new(99);
    let rows: Vec<Row> = (0..5_000)
        .map(|cid| {
            let tenure = rng.range_i64(1, 72);
            let bill = 20.0 + rng.next_f64() * 80.0;
            let plan = *rng.choose(&["basic", "plus", "premium"]);
            // Short-tenure, high-bill customers churn.
            let p = (0.7 - 0.01 * tenure as f64 + 0.004 * (bill - 50.0)).clamp(0.05, 0.95);
            let churned = if rng.chance(p) { "Yes" } else { "No" };
            Row::new(vec![
                Value::Int(cid),
                Value::Int(tenure),
                Value::Double(bill),
                Value::Str(plan.into()),
                Value::Str(churned.into()),
            ])
        })
        .collect();
    cluster.engine.register_rows("customers", customers, rows);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = SimCluster::start(ClusterConfig::for_tests())?;
    build_tables(&cluster);

    // --- 1. The §4 rewriter: show the generated UDF script, `plan`
    // effect-coded (one of the §2 variant transformations). --------------
    let rewriter = QueryRewriter::new(cluster.engine.clone());
    let prep = "SELECT tenure_months, monthly_bill, plan, churned \
                FROM customers WHERE tenure_months > 3";
    let spec = TransformSpec::coded(&[("plan", Coding::Effect)]);
    // Transformed layout: tenure, bill, plan_eff1, plan_eff2, churned.
    let command = "logreg label=4 iterations=150";
    let target = TransferArgs {
        coord_addr: cluster.stream.coordinator_addr().to_string(),
        transfer_id: 1,
        command: command.to_string(),
        config: cluster.config.transfer,
    };
    let script = rewriter.rewrite(prep, &spec, Some(&target))?;
    println!("--- rewritten script (§4) ---");
    for (i, stmt) in script.statements.iter().enumerate() {
        println!("{:>2}. {stmt}", i + 1);
    }

    // --- 2. The request runs that script, streaming with an injected
    // fault: §6's restart protocol. ---------------------------------------
    let pipeline = Pipeline::new(&cluster);
    let injector = Arc::new(FaultInjector::new());
    injector.fail_worker_after(0, 200);
    let stream_cfg = cluster.stream_config();
    cluster
        .stream
        .install_udf(&cluster.engine, &stream_cfg, Some(Arc::clone(&injector)));
    let request = PipelineRequest {
        prep_sql: prep.to_string(),
        spec,
        ml_command: command.to_string(),
    };
    let report = pipeline.run(&request, Strategy::InSqlStream)?;
    let stats = report
        .stream_stats
        .expect("a streamed run reports its transfer");
    println!(
        "\nstreamed {} rows, restart attempts: {} (fault fired: {:?})",
        stats.rows_ingested,
        stats.max_attempts,
        injector.fired()
    );
    assert_eq!(stats.max_attempts, 2, "restart protocol must fire");
    assert_eq!(
        stats.rows_ingested,
        cluster.engine.query(prep)?.num_rows(),
        "exactly-once delivery despite the fault"
    );

    // The model should find the planted churn signal.
    let model = report.model;
    // Features: tenure, bill, plan effect-coded (basic = (1, 0)).
    let loyal = model.predict(&[70.0, 25.0, 1.0, 0.0]);
    let flighty = model.predict(&[2.0, 95.0, 1.0, 0.0]);
    println!("predict(loyal)={loyal} predict(flighty)={flighty}");
    assert_eq!(loyal, 0.0);
    assert_eq!(flighty, 1.0);
    println!("churn_streaming OK");
    Ok(())
}
