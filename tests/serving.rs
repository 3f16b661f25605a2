//! Serving-plane stress tests: many concurrent pipelines through the
//! scheduler against ONE shared cluster, checked against the sequential
//! baseline, plus leak checks around cancellation and shutdown.

mod common;

use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use common::{assert_back_to, fd_count, thread_count};

use sqlml_common::{Result, SqlmlError, Value};
use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy, WorkloadScale};
use sqlml_sched::{QueryScheduler, QuerySpec, QueryStatus, RejectReason, SchedulerConfig};
use sqlml_sqlengine::ScalarUdf;
use sqlml_transform::TransformSpec;

const STRATEGIES: [Strategy; 3] = [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream];

fn cluster() -> Arc<SimCluster> {
    let c = SimCluster::start(ClusterConfig::for_tests()).unwrap();
    c.load_workload(WorkloadScale::TINY, 909).unwrap();
    Arc::new(c)
}

fn request(i: usize) -> PipelineRequest {
    let commands = [
        "svm label=4 iterations=5",
        "logreg label=4 iterations=5",
        "nb label=4",
    ];
    PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: commands[i % commands.len()].to_string(),
    }
}

#[test]
fn eight_concurrent_pipelines_match_the_sequential_baseline() {
    let cluster = cluster();
    // Ground truth, strategy by strategy, before any concurrency.
    let baseline: Vec<usize> = {
        let pipeline = Pipeline::new(&cluster);
        STRATEGIES
            .iter()
            .map(|s| pipeline.run(&request(0), *s).unwrap().rows_to_ml)
            .collect()
    };
    assert!(baseline[0] > 0);

    // With and without the shared cache: results must be identical.
    for enable_cache in [true, false] {
        let sched = QueryScheduler::builder(SchedulerConfig {
            max_concurrent: 8,
            queue_capacity: 32,
            enable_cache,
            ..SchedulerConfig::default()
        })
        .cluster(Arc::clone(&cluster))
        .build()
        .unwrap();
        sched.set_tenant_weight("gold", 3);
        let handles: Vec<_> = (0..9)
            .map(|i| {
                let tenant = ["gold", "silver", "bronze"][i % 3];
                sched
                    .submit(QuerySpec::new(tenant, request(i), STRATEGIES[i % 3]))
                    .unwrap()
            })
            .collect();
        assert!(
            sched.stats().inflight_high_water >= 8,
            "wanted >= 8 in flight, saw {}",
            sched.stats().inflight_high_water
        );
        for (i, h) in handles.iter().enumerate() {
            let result = h.wait();
            let report = result
                .as_ref()
                .as_ref()
                .unwrap_or_else(|e| panic!("query {i} failed (cache={enable_cache}): {e}"));
            assert_eq!(
                report.rows_to_ml,
                baseline[i % 3],
                "query {i} ({}) diverged from sequential baseline",
                h.strategy().label()
            );
            assert_eq!(h.status(), QueryStatus::Completed);
        }
        let s = sched.stats();
        assert_eq!((s.completed, s.failed, s.inflight_now), (9, 0, 0));
        sched.shutdown();
    }
}

/// Scalar UDF `gate(x, i)`: records the distinct `i`s it has seen and
/// holds every caller until there are `want` of them — a barrier that
/// only opens when `want` pipelines are executing at once. Fails after
/// 10 s rather than hang.
struct Gate {
    want: usize,
    seen: Mutex<HashSet<i64>>,
    arrived: Condvar,
}

impl ScalarUdf for Gate {
    fn name(&self) -> &str {
        "gate"
    }

    fn eval(&self, args: &[Value]) -> Result<Value> {
        let mut seen = self.seen.lock().unwrap();
        if seen.insert(args[1].as_i64()?) {
            self.arrived.notify_all();
        }
        let (seen, wait) = self
            .arrived
            .wait_timeout_while(seen, Duration::from_secs(10), |s| s.len() < self.want)
            .unwrap();
        if wait.timed_out() {
            return Err(SqlmlError::Execution(format!(
                "gate: {} of {} pipelines ran at once",
                seen.len(),
                self.want
            )));
        }
        Ok(Value::Double(1.0))
    }
}

#[test]
fn eight_executors_run_eight_streaming_pipelines_at_once() {
    let cluster = cluster();
    cluster.engine.register_scalar_udf(Arc::new(Gate {
        want: 8,
        seen: Mutex::new(HashSet::new()),
        arrived: Condvar::new(),
    }));
    let sched = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 8,
        enable_cache: false,
        ..SchedulerConfig::default()
    })
    .cluster(Arc::clone(&cluster))
    .build()
    .unwrap();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let mut request = request(i);
            request.prep_sql = format!("{PREP_QUERY} AND gate(U.age, {i}) > 0.0");
            sched
                .submit(QuerySpec::new("t", request, Strategy::InSqlStream))
                .unwrap()
        })
        .collect();
    for (i, h) in handles.iter().enumerate() {
        if let Err(e) = h.wait().as_ref() {
            panic!("pipeline {i} failed: {e}");
        }
    }
    sched.shutdown();
}

#[test]
fn overload_rejects_with_queue_full_and_recovers() {
    let sched = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 1,
        queue_capacity: 2,
        ..SchedulerConfig::default()
    })
    .cluster(cluster())
    .build()
    .unwrap();
    let mut admitted = Vec::new();
    let mut rejected = 0;
    for i in 0..16 {
        match sched.submit(QuerySpec::new("t", request(i), Strategy::InSql)) {
            Ok(h) => admitted.push(h),
            Err(r) => {
                assert!(
                    matches!(r.reason, RejectReason::QueueFull { capacity: 2 }),
                    "unexpected reject: {r}"
                );
                assert!(r.to_string().contains("full"), "{r}");
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "a 16-burst must overflow a 2-slot queue");
    for h in &admitted {
        assert!(h.wait().as_ref().as_ref().is_ok());
    }
    // Backpressure cleared: the next submit is admitted and completes.
    let next = sched
        .submit(QuerySpec::new("t", request(0), Strategy::InSql))
        .unwrap();
    assert!(next.wait().as_ref().as_ref().is_ok());
    sched.shutdown();
}

#[test]
fn cancellation_and_shutdown_leak_no_threads_or_sockets() {
    let cluster = cluster();
    // Warm up one full streaming run so lazily-created resources (engine
    // pools, DFS handles) exist before we take the baseline.
    {
        let pipeline = Pipeline::new(&cluster);
        pipeline.run(&request(0), Strategy::InSqlStream).unwrap();
    }
    let threads_before = thread_count();
    let fds_before = fd_count();

    let sched = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 4,
        ..SchedulerConfig::default()
    })
    .cluster(Arc::clone(&cluster))
    .build()
    .unwrap();
    // A mix of doomed and healthy queries: instant deadlines, an explicit
    // cancel, and normal completions, all against the same cluster.
    let doomed: Vec<_> = (0..3)
        .map(|i| {
            sched
                .submit(
                    QuerySpec::new("d", request(i), STRATEGIES[i % 3])
                        .with_deadline(Duration::ZERO),
                )
                .unwrap()
        })
        .collect();
    let healthy: Vec<_> = (0..3)
        .map(|i| {
            sched
                .submit(QuerySpec::new("h", request(i), STRATEGIES[i % 3]))
                .unwrap()
        })
        .collect();
    let victim = sched
        .submit(QuerySpec::new("v", request(0), Strategy::InSqlStream))
        .unwrap();
    victim.cancel("leak test");

    for h in &doomed {
        let result = h.wait();
        let err = result.as_ref().as_ref().unwrap_err();
        assert!(err.is_cancelled(), "deadline-zero query must cancel: {err}");
        assert_eq!(h.status(), QueryStatus::Cancelled);
    }
    for h in &healthy {
        assert!(h.wait().as_ref().as_ref().is_ok(), "healthy query failed");
    }
    let _ = victim.wait(); // either cancelled or raced to completion; both fine
    let s = sched.stats();
    assert_eq!(s.inflight_now, 0);
    assert!(s.cancelled >= 3);
    sched.shutdown();

    assert_back_to(threads_before, fds_before, "cancellation and shutdown");
}

#[test]
fn default_deadline_applies_to_every_query() {
    let sched = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 2,
        default_deadline: Some(Duration::ZERO),
        ..SchedulerConfig::default()
    })
    .cluster(cluster())
    .build()
    .unwrap();
    let h = sched
        .submit(QuerySpec::new("t", request(0), Strategy::InSql))
        .unwrap();
    let result = h.wait();
    assert!(result.as_ref().as_ref().unwrap_err().is_cancelled());
    // A per-query deadline overrides the default.
    let h = sched
        .submit(
            QuerySpec::new("t", request(0), Strategy::InSql)
                .with_deadline(Duration::from_secs(300)),
        )
        .unwrap();
    assert!(h.wait().as_ref().as_ref().is_ok());
    sched.shutdown();
}
