//! A second domain scenario: telecom customer churn.
//!
//! Demonstrates pieces the cart example doesn't: the **query rewriter**
//! (§4) producing an executable SQL script with UDF invocations and the
//! streaming hand-off, **effect coding**, and the **fault-injected
//! restart protocol** (§6) during a live transfer.
//!
//! Run with: `cargo run --release --example churn_streaming`

use std::sync::Arc;

use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_core::{ClusterConfig, SimCluster};
use sqlml_rewriter::{QueryRewriter, StreamTarget};
use sqlml_transfer::FaultInjector;
use sqlml_transform::TransformSpec;

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

    // --- 1. The §4 rewriter: show the generated UDF script. -------------
    let rewriter = QueryRewriter::new(cluster.engine.clone());
    let prep = "SELECT tenure_months, monthly_bill, plan, churned \
                FROM customers WHERE tenure_months > 3";
    let spec = TransformSpec::new(&["plan"]);
    let target = StreamTarget {
        coordinator_addr: cluster.stream.coordinator_addr().to_string(),
        transfer_id: 1,
        // Transformed layout: tenure, bill, plan_1..plan_3, churned.
        command: "logreg label=5 iterations=150".to_string(),
        splits_per_worker: cluster.config.transfer.splits_per_worker,
        send_buffer_bytes: cluster.config.transfer.send_buffer_bytes,
    };
    let script = rewriter.rewrite(prep, &spec, Some(&target))?;
    println!("--- rewritten script (§4) ---");
    for (i, stmt) in script.statements.iter().enumerate() {
        println!("{:>2}. {stmt}", i + 1);
    }

    // --- 2. Effect coding (the §2 variant transformations). -------------
    let transformer = sqlml_transform::InSqlTransformer::new(cluster.engine.clone());
    cluster
        .engine
        .execute(&format!("CREATE TABLE churn_prep AS {prep}"))?;
    let recoded = transformer.transform("churn_prep", &TransformSpec::default())?;
    cluster
        .engine
        .register_table("churn_recoded", recoded.table);
    let effect = cluster
        .engine
        .query("SELECT * FROM TABLE(effect_code(churn_recoded, 'plan', 3)) AS e")?;
    println!(
        "\neffect-coded schema: {}",
        effect.schema().names().join(", ")
    );
    assert!(effect.schema().names().contains(&"plan_eff1".to_string()));

    // --- 3. Streaming with an injected fault: §6's restart protocol. ----
    let injector = Arc::new(FaultInjector::new());
    injector.fail_worker_after(0, 200);
    let stream_cfg = cluster.stream_config();
    cluster
        .stream
        .install_udf(&cluster.engine, &stream_cfg, Some(Arc::clone(&injector)));
    let outcome = cluster.stream.run(
        &cluster.engine,
        "churn_recoded",
        "logreg label=3 iterations=150",
        &stream_cfg,
    )?;
    println!(
        "\nstreamed {} rows, restart attempts: {} (fault fired: {:?})",
        outcome.stats.rows_ingested,
        outcome.stats.max_attempts,
        injector.fired()
    );
    assert_eq!(outcome.stats.max_attempts, 2, "restart protocol must fire");
    assert_eq!(
        outcome.stats.rows_ingested,
        cluster.engine.table_rows("churn_recoded")?,
        "exactly-once delivery despite the fault"
    );

    // The model should find the planted churn signal.
    let model = outcome.job.model;
    // Features: tenure, bill, plan (recoded, no dummy here).
    let loyal = model.predict(&[70.0, 25.0, 1.0]);
    let flighty = model.predict(&[2.0, 95.0, 1.0]);
    println!("predict(loyal)={loyal} predict(flighty)={flighty}");
    assert_eq!(loyal, 0.0);
    assert_eq!(flighty, 1.0);
    println!("churn_streaming OK");
    Ok(())
}
