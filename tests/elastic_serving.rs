//! Elastic-fleet integration tests: shards joining and leaving a live
//! scheduler under load. Covers the full drain protocol (migrate vs
//! drain-in-place), the Draining reject window for racing pinned
//! submits, zero-lost/zero-duplicated handle accounting, and
//! snapshot-consistent stats while membership churns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, PipelineRequest, Strategy, WorkloadScale};
use sqlml_sched::{
    DrainPolicy, QueryScheduler, QuerySpec, QueryStatus, RejectReason, SchedulerConfig, SubmitOpts,
};
use sqlml_transform::TransformSpec;

fn request() -> PipelineRequest {
    PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: "svm label=4 iterations=5".to_string(),
    }
}

fn slow_request() -> PipelineRequest {
    PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: "svm label=4 iterations=400".to_string(),
    }
}

/// An elastic scheduler: booted from a warehouse template (which is what
/// arms `add_shard`), no cache so nothing pins and placement is purely
/// load-driven unless a test says otherwise.
fn elastic(shards: usize, config: SchedulerConfig) -> QueryScheduler {
    QueryScheduler::builder(config)
        .warehouse(ClusterConfig::for_tests(), WorkloadScale::TINY, 909)
        .shards(shards)
        .build()
        .unwrap()
}

fn plain_config() -> SchedulerConfig {
    SchedulerConfig {
        max_concurrent: 1,
        queue_capacity: 32,
        enable_cache: false,
        ..SchedulerConfig::default()
    }
}

#[test]
fn a_shard_joined_mid_burst_serves_immediately() {
    let sched = elastic(1, plain_config());
    assert_eq!(sched.shard_ids(), vec![0]);
    // Build a backlog the lone shard cannot clear quickly.
    let burst: Vec<_> = (0..6)
        .map(|_| {
            sched
                .submit(QuerySpec::new("t", slow_request(), Strategy::InSql))
                .unwrap()
        })
        .collect();
    let joined = sched.add_shard().unwrap();
    assert_eq!(joined, 1);
    assert_eq!(sched.shard_ids(), vec![0, 1]);
    assert!(
        sched.stats().registry_epoch >= 2,
        "join must bump the epoch"
    );
    // More load after the join: the router places it onto the idle
    // newcomer rather than behind the backlog.
    let tail: Vec<_> = (0..4)
        .map(|_| {
            sched
                .submit(QuerySpec::new("t", request(), Strategy::InSql))
                .unwrap()
        })
        .collect();
    for h in burst.iter().chain(tail.iter()) {
        assert!(h.wait().as_ref().as_ref().is_ok());
    }
    let s = sched.stats();
    assert_eq!((s.completed, s.inflight_now), (10, 0));
    assert_eq!(s.shards_added, 1);
    let newcomer = s
        .per_cluster
        .iter()
        .find(|c| c.shard == joined)
        .expect("joined shard missing from stats");
    assert!(
        newcomer.admitted > 0,
        "the joined shard never participated: {:?}",
        s.per_cluster
    );
    sched.shutdown();
}

#[test]
fn remove_shard_migrate_loses_no_handles_under_racing_cancels() {
    let sched = elastic(2, plain_config());
    // Occupy the doomed shard's single executor, then pile a pinned
    // backlog behind it so the drain has real work to migrate.
    let hog = sched
        .submit_opts(
            QuerySpec::new("t", slow_request(), Strategy::InSql),
            SubmitOpts::pinned(1),
        )
        .unwrap();
    let backlog: Vec<_> = (0..6)
        .map(|_| {
            sched
                .submit_opts(
                    QuerySpec::new("t", request(), Strategy::InSql),
                    SubmitOpts::pinned(1),
                )
                .unwrap()
        })
        .collect();
    // Cancels racing the drain: one queued victim, plus the running hog
    // mid-way through the removal.
    backlog[2].cancel("cancelled while queued on a draining shard");
    let removal = sched.remove_shard(1, DrainPolicy::Migrate).unwrap();
    assert_eq!(removal.shard, 1);
    assert_eq!(removal.drained_in_place, 0);
    assert!(
        removal.migrated >= 4,
        "expected most of the 6-deep backlog to migrate, got {}",
        removal.migrated
    );
    assert_eq!(sched.shard_ids(), vec![0]);
    // Every handle resolves exactly once; migrated survivors ran on the
    // surviving shard.
    let _ = hog.wait();
    let mut migrated_ok = 0;
    for (i, h) in backlog.iter().enumerate() {
        let result = h.wait();
        match result.as_ref().as_ref() {
            Ok(_) => {
                assert_eq!(h.status(), QueryStatus::Completed);
                if h.was_migrated() {
                    migrated_ok += 1;
                    assert_eq!(
                        h.ran_on(),
                        Some(0),
                        "job {i} migrated off shard 1 must run on shard 0"
                    );
                }
            }
            Err(e) => assert!(e.is_cancelled(), "job {i} failed oddly: {e}"),
        }
        assert!(h.is_finished());
    }
    assert!(
        migrated_ok >= 4,
        "migrated jobs must complete on the survivor, saw {migrated_ok}"
    );
    let s = sched.stats();
    assert_eq!(s.inflight_now, 0);
    assert_eq!(s.shards_removed, 1);
    assert_eq!(s.migrated, removal.migrated as u64);
    assert_eq!(s.per_cluster.len(), 1);
    assert_eq!(s.per_cluster[0].migrated_in, removal.migrated as u64);
    // The survivor keeps serving and its queue settled back to empty.
    let depths: Vec<usize> = sched
        .fleet_snapshot()
        .iter()
        .map(|f| f.queue_depth)
        .collect();
    assert_eq!(depths, vec![0]);
    let after = sched
        .submit(QuerySpec::new("t", request(), Strategy::InSql))
        .unwrap();
    assert!(after.wait().as_ref().as_ref().is_ok());
    sched.shutdown();
}

#[test]
fn remove_shard_drain_policy_finishes_the_backlog_in_place() {
    let sched = elastic(2, plain_config());
    let backlog: Vec<_> = (0..3)
        .map(|_| {
            sched
                .submit_opts(
                    QuerySpec::new("t", request(), Strategy::InSql),
                    SubmitOpts::pinned(1),
                )
                .unwrap()
        })
        .collect();
    let removal = sched.remove_shard(1, DrainPolicy::Drain).unwrap();
    assert_eq!(removal.migrated, 0);
    // remove_shard joins the shard's executors, so by now every queued
    // job has been finished by the departing shard itself.
    for h in &backlog {
        assert!(h.wait().as_ref().as_ref().is_ok());
        assert_eq!(h.ran_on(), Some(1), "drain-in-place must not move work");
        assert!(!h.was_migrated());
    }
    assert_eq!(sched.stats().migrated, 0);
    sched.shutdown();
}

#[test]
fn drain_guards_refuse_the_last_shard_and_unknown_ids() {
    let sched = elastic(2, plain_config());
    // Unknown id.
    let err = sched.remove_shard(9, DrainPolicy::Migrate).unwrap_err();
    assert!(err.to_string().contains("no such shard"), "{err}");
    // Drain down to one, then refuse to empty the fleet.
    sched.remove_shard(1, DrainPolicy::Migrate).unwrap();
    let err = sched.remove_shard(0, DrainPolicy::Migrate).unwrap_err();
    assert!(err.to_string().contains("last live shard"), "{err}");
    // A pinned submit to the departed shard is a typed Invalid reject;
    // the survivor still serves.
    let reject = sched
        .submit_opts(
            QuerySpec::new("t", request(), Strategy::InSql),
            SubmitOpts::pinned(1),
        )
        .unwrap_err();
    assert!(
        matches!(reject.reason, RejectReason::Invalid(_)),
        "{reject}"
    );
    let h = sched
        .submit(QuerySpec::new("t", request(), Strategy::InSql))
        .unwrap();
    assert!(h.wait().as_ref().as_ref().is_ok());
    sched.shutdown();
}

#[test]
fn stats_stay_internally_consistent_while_membership_churns() {
    let sched = Arc::new(elastic(
        2,
        SchedulerConfig {
            max_concurrent: 2,
            ..plain_config()
        },
    ));
    // A churn thread joins and drains a shard in a loop while the main
    // thread submits work and reads every stats surface. Each read must
    // be internally consistent — same shard set across per-cluster rows
    // and fleet snapshot, never a half-applied membership change.
    let churner = {
        let sched = Arc::clone(&sched);
        std::thread::spawn(move || {
            for _ in 0..5 {
                let id = sched.add_shard().unwrap();
                std::thread::sleep(Duration::from_millis(20));
                sched.remove_shard(id, DrainPolicy::Migrate).unwrap();
            }
        })
    };
    let mut handles = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while !churner.is_finished() && Instant::now() < deadline {
        if handles.len() < 40 {
            if let Ok(h) = sched.submit(QuerySpec::new("t", request(), Strategy::InSql)) {
                handles.push(h);
            }
        }
        let s = sched.stats();
        let fleet = sched.fleet_snapshot();
        // Each surface is one snapshot: the fleet it observed is always
        // a legal size (the churn keeps it in [1, 3]) and ids within a
        // surface never repeat — never a half-applied membership change.
        assert!((1..=3).contains(&fleet.len()), "fleet rows: {fleet:?}");
        let mut ids: Vec<usize> = s.per_cluster.iter().map(|c| c.shard).collect();
        let before = ids.len();
        ids.dedup();
        assert_eq!(
            ids.len(),
            before,
            "duplicate shard rows: {:?}",
            s.per_cluster
        );
        assert!(
            !s.per_cluster.is_empty() && s.per_cluster.len() <= 3,
            "fleet outside [1, 3]: {:?}",
            s.per_cluster
        );
        for f in &fleet {
            assert!(f.running <= f.executors, "running gauge inverted: {f:?}");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    churner.join().unwrap();
    for h in &handles {
        let result = h.wait();
        if let Err(e) = result.as_ref().as_ref() {
            assert!(e.is_cancelled(), "churn broke a query: {e}");
        }
        assert!(h.is_finished());
    }
    let s = sched.stats();
    assert_eq!(s.inflight_now, 0);
    assert_eq!((s.shards_added, s.shards_removed), (5, 5));
    assert_eq!(s.per_cluster.len(), 2);
    match Arc::try_unwrap(sched) {
        Ok(s) => s.shutdown(),
        Err(_) => panic!("scheduler still shared after churn"),
    }
}
