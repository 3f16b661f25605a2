//! Process-wide leak checks for cluster and shard lifecycles: every
//! `SimCluster` owns a coordinator (an accept thread plus a listening
//! socket), and an elastic fleet boots and drops one per
//! `add_shard`/`remove_shard` cycle, so anything a cluster leaves behind
//! accumulates for the life of a serving process.
//!
//! The counts come from `/proc/self`, which is process-wide: the tests
//! here serialize on [`SERIAL`] and live in their own binary so no
//! sibling boots clusters while one of them is counting.

mod common;

use std::sync::Mutex;

use common::{assert_back_to, fd_count, thread_count};

use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, PipelineRequest, SimCluster, Strategy, WorkloadScale};
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
