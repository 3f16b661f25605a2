//! Seeded schedule-perturbation sweeps over the serving plane's two
//! nastiest interleavings. Only meaningful under `--features lock-order`:
//! the tracked acquire path injects deterministic, seed-driven yields
//! (see `sqlml_common::lockorder`), so each seed replays one schedule
//! and a failing seed reproduces exactly.
//!
//! Reproducing a failure: the panic message names the seed; replay just
//! that schedule with
//!
//! ```text
//! SQLML_PERTURB_SEED=<seed> cargo test --features lock-order \
//!     --test concurrency -- --test-threads=1 <test_name>
//! ```
//!
//! (the sweep honours the environment override by sweeping only that
//! seed). The runtime deadlock detector is armed the whole time — any
//! lock-order inversion one of the perturbed schedules uncovers aborts
//! the process with both acquisition sites.
#![cfg(feature = "lock-order")]

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use sqlml_cache::{CacheDecision, CacheManager, QueryDescriptor};
use sqlml_common::schema::{DataType, Field};
use sqlml_common::{row, set_perturb_seed, Schema};
use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, PipelineRequest, SimCluster, Strategy, WorkloadScale};
use sqlml_sched::{
    DrainPolicy, QueryScheduler, QuerySpec, QueryStatus, SchedulerConfig, SubmitOpts,
};
use sqlml_sqlengine::parser::parse_select;
use sqlml_sqlengine::{Engine, EngineConfig};
use sqlml_transform::{InSqlTransformer, TransformSpec};

/// Serializes the sweeps: the perturbation seed is process-global, so
/// two sweeps on parallel test threads would mix their seeds and lose
/// per-seed reproducibility.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The seeds to sweep: 32 spread over the u64 space, or exactly the one
/// named in `SQLML_PERTURB_SEED` when an operator is replaying a
/// failure.
fn sweep_seeds() -> Vec<u64> {
    if let Ok(v) = std::env::var("SQLML_PERTURB_SEED") {
        if let Ok(seed) = v.trim().parse::<u64>() {
            if seed != 0 {
                return vec![seed];
            }
        }
    }
    (1..=32u64)
        .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
        .collect()
}

fn shards(n: usize) -> Vec<Arc<SimCluster>> {
    SimCluster::start_shards(ClusterConfig::for_tests(), n, WorkloadScale::TINY, 909).unwrap()
}

fn quick_request() -> PipelineRequest {
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

/// Sweep the cancel-while-running interleaving on the second shard of a
/// 2-shard fleet across perturbed schedules: a slow hog pinned to shard
/// 0 and a slow victim pinned to shard 1 run at once, and the cancel of
/// both lands somewhere different in the victim's run/unwind window on
/// every seed.
#[test]
fn perturbed_cancel_while_running_on_a_peer_shard_sweep() {
    let _g = serial();
    for seed in sweep_seeds() {
        set_perturb_seed(seed);
        let sched = QueryScheduler::builder(SchedulerConfig {
            max_concurrent: 1,
            enable_cache: false,
            ..SchedulerConfig::default()
        })
        .clusters(shards(2))
        .build()
        .unwrap();
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
        // Wait for the victim to start running on shard 1; a perturbed
        // schedule may legally finish it first.
        let deadline = Instant::now() + Duration::from_secs(60);
        while victim.status() != QueryStatus::Running {
            if victim.is_finished() || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        victim.cancel("perturbation sweep");
        hog.cancel("perturbation sweep");
        let result = victim.wait();
        if let Err(e) = result.as_ref().as_ref() {
            assert!(e.is_cancelled(), "seed {seed}: unexpected failure: {e}");
        }
        assert!(
            matches!(victim.ran_on(), None | Some(1)),
            "seed {seed}: the victim ran off its shard"
        );
        let hog_result = hog.wait();
        if let Err(e) = hog_result.as_ref().as_ref() {
            assert!(e.is_cancelled(), "seed {seed}: unexpected hog failure: {e}");
        }
        // Both shards must stay fully usable after the unwind.
        for shard in 0..2 {
            let h = sched
                .submit_opts(
                    QuerySpec::new("t", quick_request(), Strategy::InSqlStream),
                    SubmitOpts::pinned(shard),
                )
                .unwrap();
            assert!(
                h.wait().as_ref().as_ref().is_ok(),
                "seed {seed}: shard {shard} unusable after a cancelled run"
            );
        }
        assert_eq!(sched.stats().inflight_now, 0, "seed {seed}");
        sched.shutdown();
    }
    set_perturb_seed(0);
}

/// Sweep the elastic join/leave interleaving: a burst lands on a
/// 2-shard fleet, a third shard joins mid-burst, then immediately drains
/// back out (migrating its queued work) while a cancel races the drain.
/// Across every perturbed schedule each handle must resolve exactly
/// once — completed, cancelled, or a typed reject at submit time — and
/// the fleet must end settled (no inflight, no residue).
#[test]
fn perturbed_elastic_join_leave_sweep() {
    let _g = serial();
    // 8 seeds, not 32: each iteration boots a third warehouse mid-loop,
    // which dominates the sweep's runtime.
    for seed in sweep_seeds().into_iter().take(8) {
        set_perturb_seed(seed);
        let sched = QueryScheduler::builder(SchedulerConfig {
            max_concurrent: 1,
            queue_capacity: 16,
            enable_cache: false,
            ..SchedulerConfig::default()
        })
        .warehouse(ClusterConfig::for_tests(), WorkloadScale::TINY, 909)
        .shards(2)
        .build()
        .unwrap();
        // Burst of slow queries to build a backlog, then grow the fleet.
        let burst: Vec<_> = (0..4)
            .map(|_| {
                sched
                    .submit(QuerySpec::new("t", slow_request(), Strategy::InSql))
                    .unwrap()
            })
            .collect();
        let joined = sched.add_shard().unwrap();
        // Pin more work onto the newcomer so the drain below has queued
        // jobs to migrate; a racing Draining reject is a legal outcome.
        let mut pinned = Vec::new();
        for _ in 0..3 {
            match sched.submit_opts(
                QuerySpec::new("t", quick_request(), Strategy::InSql),
                SubmitOpts::pinned(joined),
            ) {
                Ok(h) => pinned.push(h),
                Err(r) => panic!("seed {seed}: pin onto fresh shard rejected: {r}"),
            }
        }
        // Cancel one pinned query concurrently with the drain.
        pinned[1].cancel("elastic sweep");
        let removal = sched
            .remove_shard(joined, DrainPolicy::Migrate)
            .unwrap_or_else(|e| panic!("seed {seed}: drain refused: {e}"));
        assert_eq!(removal.shard, joined, "seed {seed}");
        assert!(
            !sched.shard_ids().contains(&joined),
            "seed {seed}: drained shard still registered"
        );
        for (i, h) in burst.iter().chain(pinned.iter()).enumerate() {
            let result = h.wait();
            if let Err(e) = result.as_ref().as_ref() {
                assert!(
                    e.is_cancelled() || e.to_string().contains("drained"),
                    "seed {seed}: handle {i} failed oddly: {e}"
                );
            }
            assert!(h.is_finished(), "seed {seed}: handle {i} never resolved");
        }
        let s = sched.stats();
        assert_eq!(s.inflight_now, 0, "seed {seed}");
        assert_eq!(
            (s.shards_added, s.shards_removed),
            (1, 1),
            "seed {seed}: membership counters drifted"
        );
        sched.shutdown();
    }
    set_perturb_seed(0);
}

/// The §5 running-example engine (same shape as the cache manager's
/// unit tests): carts × users with a categorical gender/abandoned.
fn engine() -> Engine {
    let e = Engine::new(EngineConfig::with_workers(2));
    let carts = Schema::new(vec![
        Field::new("userid", DataType::Int),
        Field::new("amount", DataType::Double),
        Field::categorical("abandoned"),
        Field::new("year", DataType::Int),
    ]);
    let users = Schema::new(vec![
        Field::new("userid", DataType::Int),
        Field::new("age", DataType::Int),
        Field::categorical("gender"),
        Field::categorical("country"),
    ]);
    e.register_rows(
        "carts",
        carts,
        (0..20)
            .map(|i| {
                row![
                    (i % 5) as i64,
                    10.0 + i as f64,
                    if i % 2 == 0 { "Yes" } else { "No" },
                    if i < 10 { 2013i64 } else { 2014i64 }
                ]
            })
            .collect(),
    );
    e.register_rows(
        "users",
        users,
        (0..5)
            .map(|i| {
                row![
                    i as i64,
                    20 + i as i64,
                    if i % 2 == 0 { "F" } else { "M" },
                    "USA"
                ]
            })
            .collect(),
    );
    e
}

/// Sweep the concurrent-identical-miss store race: eight threads that
/// all missed on the same descriptor race to populate the cache. Under
/// perturbation the winner (and everyone else's wait point) moves
/// around; exactly one materialization may ever survive, and the first
/// store's table name must win everywhere.
#[test]
fn perturbed_concurrent_identical_miss_sweep() {
    let _g = serial();
    for seed in sweep_seeds() {
        set_perturb_seed(seed);
        let e = engine();
        let spec = TransformSpec::default();
        e.execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))
            .unwrap();
        let out = InSqlTransformer::new(e.clone())
            .transform("prep", &spec)
            .unwrap();
        e.execute("DROP TABLE prep").unwrap();
        let d = QueryDescriptor::from_select(&parse_select(PREP_QUERY).unwrap(), e.catalog())
            .unwrap()
            .unwrap();
        let cache = CacheManager::new(e.clone());
        let names: Vec<Option<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cache, d, spec) = (&cache, d.clone(), spec.clone());
                    let (map, table) = (out.recode_map.clone(), out.table.clone());
                    s.spawn(move || cache.store_full(d, spec, map, table))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            names.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: racing stores disagreed on the winner: {names:?}"
        );
        assert_eq!(cache.len(), (1, 1), "seed {seed}: duplicate entries");
        assert!(
            e.catalog().has_table(names[0].as_deref().unwrap()),
            "seed {seed}"
        );
        assert!(
            matches!(cache.lookup(&d, &spec), CacheDecision::Full(_)),
            "seed {seed}: winner not visible to lookup"
        );
    }
    set_perturb_seed(0);
}
