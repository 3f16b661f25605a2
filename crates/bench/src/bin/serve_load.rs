//! **Serving-plane load generator (DESIGN.md §13).**
//!
//! Drives a fleet of replicated-warehouse [`SimCluster`] shards through
//! the [`QueryScheduler`] with a closed-loop multi-tenant workload and
//! reports what an operator would watch: latency percentiles
//! (p50/p95/p99), goodput, admission rejects, per-cluster
//! placement/affinity counters, and deadline behaviour.
//!
//! Each shard's DFS carries its own bandwidth throttle (its "disks"), so
//! adding shards adds aggregate I/O bandwidth — the resource that
//! actually scales when a serving fleet grows, and the one visible even
//! on a single-core host where CPU parallelism cannot be.
//!
//! Phases:
//!
//! 1. **baseline** — each strategy runs once sequentially on shard 0;
//!    its `rows_to_ml` becomes the ground truth for the load phase.
//! 2. **load** — `--queries` requests burst in from three weighted
//!    tenants (gold 4 / silver 2 / bronze 1), mixed strategies, routed
//!    over the whole fleet. Every admitted query's result must match the
//!    baseline row count for its strategy.
//! 3. **overload + deadline** — a burst against a tiny queue forces
//!    `QueueFull` rejects; a microsecond deadline shows a query
//!    cancelling cleanly while the cluster stays usable.
//! 4. **scale-out** — the same burst against 1 shard and against the
//!    full fleet; with ≥ 2 shards, fleet goodput must be strictly
//!    higher (shape-checked).
//! 5. `--elastic` — the elastic fleet: a burst on one template shard
//!    sets the goodput bar, a second (longer) burst gets a shard joined
//!    mid-flight via `add_shard` (goodput must recover past the bar),
//!    and a third burst straddles a `remove_shard(Migrate)` drain —
//!    every handle must resolve exactly once, nothing lost.
//! 6. `--sweep` — the A8 under-load ablation grid: queue capacity ×
//!    tenant-weight skew × shard count. A cell whose burst overflows its
//!    queue counts the rejects.
//!
//! Whether cache-aware routing pays is not timed here: the
//! deterministic serving-policy replay in `crates/sched/src/replay.rs`
//! decides it over ten seeds.
//!
//! Run: `cargo run --release -p sqlml-bench --bin serve_load`
//! Flags: `--queries N --inflight N --queue-cap N`
//! `--shards N --carts N --seed N --throttle-mbps M --no-cache`
//! `--elastic --sweep --verbose`

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_bench::check_shape;
use sqlml_core::workload::{WorkloadScale, PREP_QUERY};
use sqlml_core::{ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy};
use sqlml_dfs::DfsConfig;
use sqlml_sched::{
    DrainPolicy, QueryScheduler, QuerySpec, QueryStatus, RejectReason, SchedulerConfig, SubmitOpts,
};
use sqlml_transform::TransformSpec;

const STRATEGIES: [Strategy; 3] = [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream];
const TENANTS: [(&str, u32); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];
const COMMANDS: [&str; 3] = [
    "svm label=4 iterations=5",
    "logreg label=4 iterations=5",
    "nb label=4",
];

struct Args {
    queries: usize,
    inflight: usize,
    queue_cap: usize,
    shards: usize,
    carts: usize,
    seed: u64,
    throttle_mbps: u64,
    cache: bool,
    elastic: bool,
    sweep: bool,
    verbose: bool,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            queries: 12,
            inflight: 4,
            queue_cap: 64,
            shards: 2,
            carts: 40_000,
            seed: 42,
            throttle_mbps: 2,
            cache: true,
            elastic: false,
            sweep: false,
            verbose: false,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--no-cache" => {
                    a.cache = false;
                    i += 1;
                    continue;
                }
                "--elastic" => {
                    a.elastic = true;
                    i += 1;
                    continue;
                }
                "--sweep" => {
                    a.sweep = true;
                    i += 1;
                    continue;
                }
                "--verbose" => {
                    a.verbose = true;
                    i += 1;
                    continue;
                }
                _ => {}
            }
            let value = argv
                .get(i + 1)
                .unwrap_or_else(|| panic!("{} takes a value", argv[i]));
            match argv[i].as_str() {
                "--queries" => a.queries = value.parse().expect("--queries takes a number"),
                "--inflight" => a.inflight = value.parse().expect("--inflight takes a number"),
                "--queue-cap" => a.queue_cap = value.parse().expect("--queue-cap takes a number"),
                "--shards" => {
                    a.shards = value.parse().expect("--shards takes a number");
                    assert!(a.shards >= 1, "--shards must be >= 1");
                }
                "--carts" => a.carts = value.parse().expect("--carts takes a number"),
                "--seed" => a.seed = value.parse().expect("--seed takes a number"),
                "--throttle-mbps" => {
                    a.throttle_mbps = value.parse().expect("--throttle-mbps takes a number")
                }
                other => panic!("unknown argument {other:?}"),
            }
            i += 2;
        }
        a
    }

    /// Per-shard cluster layout: the paper's 4-node shape with each
    /// shard's DFS owning its own bandwidth budget.
    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            dfs: DfsConfig {
                num_datanodes: 4,
                block_size: 1024 * 1024,
                replication: 3,
                bytes_per_sec: (self.throttle_mbps > 0).then(|| self.throttle_mbps * 1024 * 1024),
                remote_bytes_per_sec: None,
            },
            ..ClusterConfig::default()
        }
    }

    fn sched_config(&self) -> SchedulerConfig {
        SchedulerConfig {
            max_concurrent: self.inflight,
            queue_capacity: self.queue_cap,
            enable_cache: self.cache,
            ..SchedulerConfig::default()
        }
    }
}

fn request(i: usize) -> PipelineRequest {
    PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: COMMANDS[i % COMMANDS.len()].to_string(),
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One measured burst: submit `n` tenant-rotating queries, wait for the
/// admitted ones, return (sorted total latencies, wall time, completed,
/// per-tenant mean *queued* latency — the fairness signal; run time would
/// drown it). Only a `QueueFull` reject is expected, and only when
/// `shed` allows it; the caller reads their count from the stats.
fn run_burst(
    sched: &QueryScheduler,
    n: usize,
    shed: bool,
) -> (Vec<Duration>, Duration, u64, HashMap<String, Duration>) {
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let (tenant, _) = TENANTS[i % TENANTS.len()];
        let spec = QuerySpec::new(tenant, request(i), STRATEGIES[i % STRATEGIES.len()]);
        match sched.submit(spec) {
            Ok(h) => handles.push(h),
            Err(r) if shed && matches!(r.reason, RejectReason::QueueFull { .. }) => {}
            Err(r) => panic!("burst query {i} rejected: {r}"),
        }
    }
    let mut latencies = Vec::with_capacity(handles.len());
    let mut per_tenant: HashMap<String, (Duration, u32)> = HashMap::new();
    let mut completed = 0u64;
    for h in &handles {
        let result = h.wait();
        if let Err(e) = result.as_ref().as_ref() {
            panic!("query {} failed under load: {e}", h.id());
        }
        completed += 1;
        let lat = h.latency().expect("finished queries have latency");
        latencies.push(lat.total);
        let slot = per_tenant
            .entry(h.tenant().to_string())
            .or_insert((Duration::ZERO, 0));
        slot.0 += lat.queued;
        slot.1 += 1;
    }
    let wall = t0.elapsed();
    latencies.sort();
    let means = per_tenant
        .into_iter()
        .map(|(t, (sum, c))| (t, sum / c.max(1)))
        .collect();
    (latencies, wall, completed, means)
}

fn goodput(completed: u64, wall: Duration) -> f64 {
    completed as f64 / wall.as_secs_f64().max(f64::EPSILON)
}

fn main() {
    let args = Args::parse();
    let scale = WorkloadScale::with_carts(args.carts);
    let fleet = SimCluster::start_shards(args.cluster_config(), args.shards, scale, args.seed)
        .expect("shard fleet");
    println!(
        "serve_load: {} shards, {} queries, {} executors/shard, queue cap {}, \
         throttle {} MB/s/shard, cache {}\n",
        fleet.len(),
        args.queries,
        args.inflight,
        args.queue_cap,
        args.throttle_mbps,
        if args.cache { "on" } else { "off" },
    );

    // --- phase 1: sequential baseline on shard 0 ----------------------
    let mut baseline: HashMap<&str, usize> = HashMap::new();
    let t0 = Instant::now();
    {
        let pipeline = Pipeline::new(&fleet[0]);
        for (i, strategy) in STRATEGIES.into_iter().enumerate() {
            let report = pipeline.run(&request(i), strategy).expect("baseline run");
            baseline.insert(strategy.label(), report.rows_to_ml);
        }
    }
    let seq_per_query = t0.elapsed() / STRATEGIES.len() as u32;
    println!(
        "baseline (sequential, shard 0): {:?}/query, rows_to_ml {:?}",
        seq_per_query, baseline
    );

    // --- phase 2: concurrent load over the fleet ----------------------
    let sched = QueryScheduler::builder(args.sched_config())
        .clusters(fleet.clone())
        .build()
        .expect("load-phase scheduler");
    for (tenant, weight) in TENANTS {
        sched.set_tenant_weight(tenant, weight);
    }
    let t1 = Instant::now();
    let handles: Vec<_> = (0..args.queries)
        .map(|i| {
            let (tenant, _) = TENANTS[i % TENANTS.len()];
            let strategy = STRATEGIES[i % STRATEGIES.len()];
            sched
                .submit(QuerySpec::new(tenant, request(i), strategy))
                .expect("burst within queue capacity")
        })
        .collect();
    let burst_hw = sched.stats().inflight_high_water;

    let mut latencies = Vec::with_capacity(handles.len());
    let mut mismatches = 0usize;
    for h in &handles {
        let result = h.wait();
        match result.as_ref() {
            Ok(report) => {
                if baseline.get(h.strategy().label()) != Some(&report.rows_to_ml) {
                    mismatches += 1;
                }
            }
            Err(e) => panic!("query {} failed under load: {e}", h.id()),
        }
        let lat = h.latency().expect("finished queries have latency");
        if args.verbose {
            println!(
                "  q{:<3} {:7} {:10} shard {:?} queued {:>8.1?} running {:>8.1?}",
                h.id(),
                h.tenant(),
                h.strategy().label(),
                h.ran_on(),
                lat.queued,
                lat.running
            );
        }
        latencies.push(lat.total);
    }
    let wall = t1.elapsed();
    latencies.sort();
    let s = sched.stats();
    let running = sched
        .fleet_snapshot()
        .iter()
        .fold((0, 0), |(r, e), f| (r + f.running, e + f.executors));
    println!(
        "\nconcurrent load ({} queries over {} shards, wall {:?}):",
        handles.len(),
        s.per_cluster.len(),
        wall
    );
    println!(
        "  p50 {:?}  p95 {:?}  p99 {:?}",
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0)
    );
    println!(
        "  goodput {:.2} queries/s  in-flight high water {burst_hw}  running {running:?}",
        goodput(s.completed, wall),
    );
    for c in &s.per_cluster {
        println!(
            "  shard {}: admitted {} affinity hits {}",
            c.shard, c.admitted, c.cache_affinity_hits
        );
    }
    sched.shutdown();

    // --- phase 3: overload rejects + deadline --------------------------
    let tiny = QueryScheduler::builder(SchedulerConfig {
        max_concurrent: 1,
        queue_capacity: 4,
        enable_cache: args.cache,
        ..SchedulerConfig::default()
    })
    .cluster(Arc::clone(&fleet[0]))
    .build()
    .expect("overload-phase scheduler");
    let mut admitted = Vec::new();
    let mut rejects = Vec::new();
    for i in 0..32 {
        match tiny.submit(QuerySpec::new("burst", request(i), Strategy::InSql)) {
            Ok(h) => admitted.push(h),
            Err(r) => rejects.push(r),
        }
    }
    let queue_full = rejects
        .iter()
        .filter(|r| matches!(r.reason, RejectReason::QueueFull { .. }))
        .count();
    println!("\noverload (burst of 32 at queue cap 4):");
    println!("  admitted {}, rejected {}", admitted.len(), rejects.len());
    if let Some(r) = rejects.first() {
        println!("  sample reject: {r}");
    }
    // The backlog drains; the queue has room again.
    for h in admitted {
        let _ = h.wait();
    }
    let doomed = tiny
        .submit(
            QuerySpec::new("deadline", request(0), Strategy::InSqlStream)
                .with_deadline(Duration::from_micros(1)),
        )
        .expect("deadline demo admits");
    let doomed_result = doomed.wait();
    let deadline_cancelled = doomed.status() == QueryStatus::Cancelled;
    println!(
        "  deadline demo: status {:?} ({})",
        doomed.status(),
        match doomed_result.as_ref() {
            Ok(_) => "completed before the token fired".to_string(),
            Err(e) => e.to_string(),
        }
    );
    let after = tiny
        .submit(QuerySpec::new("burst", request(0), Strategy::InSql))
        .expect("post-overload admit");
    let after_ok = after.wait().as_ref().is_ok();
    tiny.shutdown();

    // --- phase 4: scale-out, 1 shard vs the fleet ---------------------
    // Cache off so the work per query is constant and the comparison
    // isolates what sharding itself buys: aggregate bandwidth + executors.
    let mut scaleout_holds = true;
    let (mut solo_gp, mut fleet_gp) = (0.0, 0.0);
    if args.shards >= 2 {
        let scale_cfg = SchedulerConfig {
            max_concurrent: args.inflight,
            queue_capacity: args.queue_cap.max(args.queries),
            enable_cache: false,
            ..SchedulerConfig::default()
        };
        let solo = QueryScheduler::builder(scale_cfg.clone())
            .cluster(Arc::clone(&fleet[0]))
            .build()
            .expect("solo scheduler");
        let (_, solo_wall, solo_done, _) = run_burst(&solo, args.queries, false);
        solo.shutdown();
        let full = QueryScheduler::builder(scale_cfg)
            .clusters(fleet.clone())
            .build()
            .expect("fleet scheduler");
        let (_, fleet_wall, fleet_done, _) = run_burst(&full, args.queries, false);
        full.shutdown();
        solo_gp = goodput(solo_done, solo_wall);
        fleet_gp = goodput(fleet_done, fleet_wall);
        scaleout_holds = fleet_gp > solo_gp;
        println!(
            "\nscale-out ({} queries, cache off): 1 shard {:.2} q/s (wall {:?})  \
             {} shards {:.2} q/s (wall {:?})  speedup {:.2}x",
            args.queries,
            solo_gp,
            solo_wall,
            args.shards,
            fleet_gp,
            fleet_wall,
            fleet_gp / solo_gp.max(f64::EPSILON),
        );
    }

    // --- phase 5: elastic fleet — join mid-burst, drain under load ----
    // Cache off so goodput tracks aggregate bandwidth/executors, the
    // resource a joined shard actually adds.
    let mut elastic_recovers = true;
    let mut elastic_zero_lost = true;
    if args.elastic {
        let elastic_cfg = SchedulerConfig {
            max_concurrent: args.inflight,
            queue_capacity: args.queue_cap.max(3 * args.queries),
            enable_cache: false,
            ..SchedulerConfig::default()
        };
        let sched = QueryScheduler::builder(elastic_cfg)
            .warehouse(args.cluster_config(), scale, args.seed)
            .shards(1)
            .build()
            .expect("elastic scheduler");

        // Burst A: the 1-shard goodput bar.
        let (_, wall_a, done_a, _) = run_burst(&sched, args.queries, false);
        let gp_solo = goodput(done_a, wall_a);

        // Burst B: 3x the load, with a shard joined after the first
        // third is in — the router places the rest onto the idle
        // newcomer rather than behind the first shard's backlog.
        let n_b = 3 * args.queries;
        let t_b = Instant::now();
        let mut handles = Vec::with_capacity(n_b);
        let mut joined = None;
        for i in 0..n_b {
            if i == args.queries {
                joined = Some(sched.add_shard().expect("mid-burst add_shard"));
            }
            let (tenant, _) = TENANTS[i % TENANTS.len()];
            sched
                .submit(QuerySpec::new(
                    tenant,
                    request(i),
                    STRATEGIES[i % STRATEGIES.len()],
                ))
                .map(|h| handles.push(h))
                .expect("elastic burst within queue capacity");
        }
        for h in &handles {
            if let Err(e) = h.wait().as_ref().as_ref() {
                panic!("elastic burst query {} failed: {e}", h.id());
            }
        }
        let wall_b = t_b.elapsed();
        let gp_joined = goodput(handles.len() as u64, wall_b);
        let joined = joined.expect("burst B is larger than one --queries");
        let sb = sched.stats();
        let newcomer = sb
            .per_cluster
            .iter()
            .find(|c| c.shard == joined)
            .expect("joined shard in stats");
        println!(
            "\nelastic: 1 shard {gp_solo:.2} q/s -> join mid-burst {gp_joined:.2} q/s \
             (shard {joined} admitted {})",
            newcomer.admitted
        );
        elastic_recovers = gp_joined > gp_solo;

        // Burst C: queue work onto the joined shard, then drain it out
        // mid-flight with one cancel racing the drain. Every handle must
        // resolve exactly once.
        let mut pinned = Vec::new();
        for i in 0..args.queries {
            match sched.submit_opts(
                QuerySpec::new("gold", request(i), Strategy::InSql),
                SubmitOpts::pinned(joined),
            ) {
                Ok(h) => pinned.push(h),
                Err(r) => panic!("pin onto shard {joined} rejected: {r}"),
            }
        }
        if pinned.len() > 1 {
            pinned[1].cancel("elastic drain demo");
        }
        let removal = sched
            .remove_shard(joined, DrainPolicy::Migrate)
            .expect("drain the joined shard");
        let mut terminal = 0usize;
        for h in &pinned {
            let result = h.wait();
            if let Err(e) = result.as_ref().as_ref() {
                assert!(
                    e.is_cancelled(),
                    "drained query {} failed oddly: {e}",
                    h.id()
                );
            }
            if h.is_finished() {
                terminal += 1;
            }
        }
        let sc = sched.stats();
        elastic_zero_lost = terminal == pinned.len() && sc.inflight_now == 0;
        println!(
            "elastic: drained shard {} mid-burst — {} queued migrated, {}/{} handles \
             terminal, {} in flight after",
            removal.shard,
            removal.migrated,
            terminal,
            pinned.len(),
            sc.inflight_now
        );
        sched.shutdown();
    }

    // --- A8 sweep: queue cap × skew × shards --------------------------
    if args.sweep {
        println!(
            "\nA8 sweep (queue cap x tenant skew x shards), {} queries/cell, overflow shed:",
            args.queries
        );
        println!(
            " shards    qcap    skew   goodput(q/s)   p95(ms)   rejected   gold/bronze queue wait"
        );
        for shard_count in [1usize, args.shards.max(2)] {
            let cell_fleet: Vec<Arc<SimCluster>> = fleet[..shard_count.min(fleet.len())].to_vec();
            for qcap in [4usize, 64] {
                for (skew_label, weights) in [("flat", [1u32, 1, 1]), ("8:2:1", [8u32, 2, 1])] {
                    let sched = QueryScheduler::builder(SchedulerConfig {
                        queue_capacity: qcap,
                        ..args.sched_config()
                    })
                    .clusters(cell_fleet.clone())
                    .build()
                    .expect("sweep-cell scheduler");
                    for ((tenant, _), w) in TENANTS.iter().zip(weights) {
                        sched.set_tenant_weight(tenant, w);
                    }
                    let (lats, wall, completed, means) = run_burst(&sched, args.queries, true);
                    let stats = sched.stats();
                    let gold = means.get("gold").copied().unwrap_or_default();
                    let bronze = means.get("bronze").copied().unwrap_or_default();
                    let ratio = gold.as_secs_f64() / bronze.as_secs_f64().max(f64::EPSILON);
                    println!(
                        " {:>6}  {:>6}  {:>6}   {:>11.2}  {:>8}   {:>8}   {:>21.2}",
                        shard_count,
                        qcap,
                        skew_label,
                        goodput(completed, wall),
                        percentile(&lats, 95.0).as_millis(),
                        stats.rejected,
                        ratio,
                    );
                    sched.shutdown();
                }
            }
        }
    }

    // --- shape checks -------------------------------------------------
    let mut ok = check_shape(
        &format!("every admitted query matched its baseline rows_to_ml ({mismatches} mismatches)"),
        mismatches == 0,
    ) & check_shape(
        &format!(
            "at least {} queries were in flight together (high water {burst_hw})",
            args.queries.min(8)
        ),
        burst_hw >= args.queries.min(8),
    ) & check_shape(
        &format!(
            "overload rejected with QueueFull reasons ({queue_full} of {})",
            rejects.len()
        ),
        queue_full > 0 && queue_full == rejects.len(),
    ) & check_shape(
        "a 1µs deadline cancelled cleanly",
        deadline_cancelled && doomed_result.as_ref().is_err(),
    ) & check_shape(
        "the cluster served a query after overload + cancel",
        after_ok,
    );
    if args.shards >= 2 {
        ok &= check_shape(
            &format!(
                "{} shards give strictly higher goodput than 1 ({:.2} vs {:.2} q/s)",
                args.shards, fleet_gp, solo_gp
            ),
            scaleout_holds,
        );
    }
    if args.elastic {
        ok &= check_shape(
            "a shard joined mid-burst lifts goodput past the 1-shard bar",
            elastic_recovers,
        ) & check_shape(
            "remove_shard under load lost no handles (all terminal, none in flight)",
            elastic_zero_lost,
        );
    }
    std::process::exit(if ok { 0 } else { 1 });
}
