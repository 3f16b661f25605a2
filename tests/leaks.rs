//! Process-wide leak checks for cluster and shard lifecycles: every
//! `SimCluster` owns a coordinator (an accept thread plus a listening
//! socket), and an elastic fleet boots and drops one per
//! `add_shard`/`remove_shard` cycle, so anything a cluster leaves behind
//! accumulates for the life of a serving process. A training run starts
//! one worker thread per partition, which must all be joined when it
//! returns.
//!
//! The counts come from `/proc/self`, which is process-wide: the tests
//! here serialize on [`SERIAL`] and live in their own binary so no
//! sibling boots clusters while one of them is counting.

mod common;

use std::sync::Mutex;

use common::{assert_back_to, fd_count, thread_count};

use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, PipelineRequest, SimCluster, Strategy, WorkloadScale};
use sqlml_mlengine::{Dataset, JobRunner, LabeledPoint, TrainingSpec};
use sqlml_sched::{DrainPolicy, QueryScheduler, QuerySpec, SchedulerConfig};
use sqlml_transform::TransformSpec;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn booting_and_dropping_clusters_returns_to_the_thread_and_fd_baseline() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One warm-up boot so lazily created process-wide state exists
    // before the baseline is taken.
    drop(SimCluster::start(ClusterConfig::for_tests()).unwrap());
    let (threads, fds) = (thread_count(), fd_count());
    for _ in 0..20 {
        drop(SimCluster::start(ClusterConfig::for_tests()).unwrap());
    }
    assert_back_to(threads, fds, "20 cluster boot/drop cycles");
}

#[test]
fn add_and_remove_shard_cycles_return_to_the_thread_and_fd_baseline() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sched = QueryScheduler::builder(SchedulerConfig::default())
        .warehouse(ClusterConfig::for_tests(), WorkloadScale::TINY, 909)
        .build()
        .unwrap();
    let run_one = || {
        let h = sched
            .submit(QuerySpec::new(
                "t",
                PipelineRequest {
                    prep_sql: PREP_QUERY.to_string(),
                    spec: TransformSpec::new(&["gender"]),
                    ml_command: "svm label=4 iterations=5".to_string(),
                },
                Strategy::InSqlStream,
            ))
            .unwrap();
        assert!(h.wait().as_ref().as_ref().is_ok());
    };
    // Warm up: one streaming run and one full join/leave cycle.
    run_one();
    let id = sched.add_shard().unwrap();
    sched.remove_shard(id, DrainPolicy::Migrate).unwrap();
    let (threads, fds) = (thread_count(), fd_count());
    for _ in 0..5 {
        let id = sched.add_shard().unwrap();
        run_one();
        sched.remove_shard(id, DrainPolicy::Migrate).unwrap();
    }
    assert_back_to(threads, fds, "5 add_shard/remove_shard cycles");
    sched.shutdown();
}

#[test]
fn a_training_run_returns_to_the_thread_baseline() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Four partitions of two features, labels alternating 0/1.
    let part = |p: usize| -> Vec<LabeledPoint> {
        (0..50)
            .map(|i| {
                let x = (p * 50 + i) as f64;
                LabeledPoint::new((i % 2) as f64, vec![x, x.sin()])
            })
            .collect()
    };
    let data = Dataset::new((0..4).map(part).collect()).unwrap();
    let runner = JobRunner::default();
    let train = |command: &str| {
        let spec = TrainingSpec::parse(command).unwrap();
        runner.train(&data, &spec).unwrap();
    };
    train("svm label=2 iterations=3");
    let (threads, fds) = (thread_count(), fd_count());
    for command in [
        "svm label=2 iterations=20",
        "svm label=2 iterations=20 batch=0.5",
        "logreg label=2 iterations=20",
        "linreg label=2 iterations=20 step=0.00001",
        "nb label=2",
        "kmeans k=2 iterations=20",
    ] {
        train(command);
    }
    assert_back_to(threads, fds, "six training runs");
}
