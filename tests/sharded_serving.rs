//! Sharded serving-plane stress tests: the scheduler over a fleet of
//! replicated-warehouse shards. Covers router placement, cache-affinity
//! routing, the rule that a queued query runs on the shard it was
//! placed on, however idle its peers are, and cancellation of a query
//! running on a peer shard.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{
    CacheMode, ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy, WorkloadScale,
};
use sqlml_sched::{QueryScheduler, QuerySpec, QueryStatus, SchedulerConfig, SubmitOpts};
use sqlml_transform::TransformSpec;

const STRATEGIES: [Strategy; 3] = [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream];

fn shards(n: usize) -> Vec<Arc<SimCluster>> {
    SimCluster::start_shards(ClusterConfig::for_tests(), n, WorkloadScale::TINY, 909).unwrap()
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

/// A long-running request (many ML iterations) for occupancy/cancel
/// tests.
fn slow_request() -> PipelineRequest {
    PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: "svm label=4 iterations=400".to_string(),
    }
}

#[test]
fn sharded_results_match_the_single_cluster_baseline() {
    let fleet = shards(2);
    // Ground truth from shard 0 alone, strategy by strategy.
    let baseline: Vec<usize> = {
        let pipeline = Pipeline::new(&fleet[0]);
        STRATEGIES
            .iter()
            .map(|s| pipeline.run(&request(0), *s).unwrap().rows_to_ml)
            .collect()
    };
    assert!(baseline[0] > 0);

    // Pure load routing (no cache pinning) so the 9-query burst spreads
    // over both shards; every result must match the baseline regardless
    // of which warehouse replica served it.
    let sched = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 2,
        enable_cache: false,
        ..SchedulerConfig::default()
    })
    .clusters(fleet)
    .build()
    .unwrap();
    assert_eq!(sched.shard_ids().len(), 2);
    let handles: Vec<_> = (0..9)
        .map(|i| {
            sched
                .submit(QuerySpec::new("t", request(i), STRATEGIES[i % 3]))
                .unwrap()
        })
        .collect();
    for (i, h) in handles.iter().enumerate() {
        let result = h.wait();
        let report = result
            .as_ref()
            .as_ref()
            .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
        assert_eq!(
            report.rows_to_ml,
            baseline[i % 3],
            "query {i} on shard {:?} diverged from the baseline",
            h.ran_on()
        );
        assert_eq!(h.status(), QueryStatus::Completed);
    }
    let s = sched.stats();
    assert_eq!((s.completed, s.failed, s.inflight_now), (9, 0, 0));
    assert_eq!(s.per_cluster.len(), 2);
    assert_eq!(s.per_cluster.iter().map(|c| c.admitted).sum::<u64>(), 9);
    assert!(
        s.per_cluster.iter().all(|c| c.admitted >= 1),
        "load routing left a shard idle: {:?}",
        s.per_cluster
    );
    sched.shutdown();
}

#[test]
fn a_backlog_pinned_to_one_shard_runs_there_while_its_peer_idles() {
    let sched = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 1,
        // No cache: every placement is load-driven.
        enable_cache: false,
        ..SchedulerConfig::default()
    })
    .clusters(shards(2))
    .build()
    .unwrap();
    // Occupy shard 0's only executor with a slow query and pile a
    // backlog behind it. Shard 1's executor has nothing of its own.
    let mut handles = vec![sched
        .submit_opts(
            QuerySpec::new("t", slow_request(), Strategy::InSql),
            SubmitOpts::pinned(0),
        )
        .unwrap()];
    handles.extend((0..4).map(|i| {
        sched
            .submit_opts(
                QuerySpec::new("t", request(i), Strategy::InSql),
                SubmitOpts::pinned(0),
            )
            .unwrap()
    }));
    // With shard 0 backlogged, the next unpinned query goes to shard 1.
    let next = sched
        .submit(QuerySpec::new("t", request(0), Strategy::InSql))
        .unwrap();
    assert_eq!(next.placed_on(), 1, "the router must pick the idle shard");
    for h in handles.iter().chain([&next]) {
        assert!(h.wait().as_ref().as_ref().is_ok());
        assert_eq!(h.ran_on(), Some(h.placed_on()), "a query ran off its shard");
    }
    assert!(handles.iter().all(|h| h.placed_on() == 0));
    let s = sched.stats();
    assert_eq!(s.per_cluster[0].admitted, 5);
    assert_eq!(s.per_cluster[1].admitted, 1);
    sched.shutdown();
}

#[test]
fn cancelling_a_query_running_on_the_second_shard_unwinds_cleanly_there() {
    let sched = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 1,
        enable_cache: false,
        ..SchedulerConfig::default()
    })
    .clusters(shards(2))
    .build()
    .unwrap();
    // Shard 0 busy with a hog; the victim runs on shard 1 beside it.
    let hog = sched
        .submit_opts(
            QuerySpec::new("t", slow_request(), Strategy::InSqlStream),
            SubmitOpts::pinned(0),
        )
        .unwrap();
    let victim = sched
        .submit_opts(
            QuerySpec::new("t", slow_request(), Strategy::InSqlStream),
            SubmitOpts::pinned(1),
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while victim.status() != QueryStatus::Running {
        if victim.is_finished() || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    victim.cancel("cancelled while running on shard 1");
    let result = victim.wait();
    // The expected path: cancellation unwound mid-run on shard 1. A fast
    // run may instead race past the last checkpoint; completion is
    // legal, silence or a hang is not.
    if let Err(e) = result.as_ref().as_ref() {
        assert!(e.is_cancelled(), "unexpected failure: {e}");
    }
    assert!(matches!(victim.ran_on(), None | Some(1)));
    assert!(hog.wait().as_ref().as_ref().is_ok());
    assert_eq!(hog.ran_on(), Some(0));
    // Both shards stay fully usable after the unwind.
    for shard in 0..2 {
        let h = sched
            .submit_opts(
                QuerySpec::new("t", request(0), Strategy::InSqlStream),
                SubmitOpts::pinned(shard),
            )
            .unwrap();
        assert!(
            h.wait().as_ref().as_ref().is_ok(),
            "shard {shard} unusable after a cancelled run"
        );
    }
    assert_eq!(sched.stats().inflight_now, 0);
    sched.shutdown();
}

#[test]
fn cache_affinity_routes_repeats_to_the_warm_shard() {
    let sched = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 2,
        ..SchedulerConfig::default() // enable_cache on
    })
    .clusters(shards(2))
    .build()
    .unwrap();
    // Cold run: a miss everywhere, placed purely by load; it populates
    // its shard's §5 cache.
    let cold = sched
        .submit(QuerySpec::new("t", request(0), Strategy::InSql))
        .unwrap();
    let cold_result = cold.wait();
    let cold_report = cold_result.as_ref().as_ref().expect("cold run failed");
    assert_eq!(cold_report.cache_use, CacheMode::None);
    let warm_shard = cold.ran_on().expect("cold run ran somewhere");
    assert_eq!(warm_shard, cold.placed_on());

    // Every repeat probes Full on the warm shard, pins there, and reuses
    // the cached result.
    let baseline = cold_report.rows_to_ml;
    for i in 0..4 {
        let h = sched
            .submit(QuerySpec::new("t", request(0), Strategy::InSql))
            .unwrap();
        let result = h.wait();
        let report = result
            .as_ref()
            .as_ref()
            .unwrap_or_else(|e| panic!("warm run {i} failed: {e}"));
        assert_eq!(report.cache_use, CacheMode::FullResult, "warm run {i}");
        assert_eq!(report.rows_to_ml, baseline);
        assert_eq!(h.placed_on(), warm_shard, "warm run {i} routed cold");
        assert_eq!(h.ran_on(), Some(h.placed_on()));
    }
    let s = sched.stats();
    assert!(
        s.per_cluster[warm_shard].cache_affinity_hits >= 4,
        "affinity hits not counted: {:?}",
        s.per_cluster
    );
    let other = 1 - warm_shard;
    assert_eq!(s.per_cluster[other].cache_affinity_hits, 0);
    sched.shutdown();
}
