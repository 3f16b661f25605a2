//! A deterministic replay of the `serve-mix` serving workload, the
//! bench on which the serving plane's policies are judged.
//!
//! The replay has no threads and no wall clock. It drives the crate's
//! own policy code — [`crate::FairQueue`], [`crate::ShardRouter`]
//! through `cost::place`, `cost::Charge` and [`crate::probe_discount`]
//! — on virtual time, over the `serve-mix` shape: 2 shards × 2
//! executors, a closed window of 8 outstanding queries, tenants weighted
//! 4/2/1, the Naive / InSql / InSqlStream rotation, and the benchmark's
//! seeded query order and warm home shards. Cache probes are the real
//! `CacheManager::probe` over one small engine per shard, whose §5 cache
//! gains an entry whenever a replayed run misses, as a pipeline's does.
//! Each run lasts a service time measured on a 2-core host for its
//! strategy, cache mode and country size. A policy alternative is a
//! parameter of the replay, not a switch of the product: blind routing
//! feeds `CacheProbe::Miss` to the router and the charge.
//!
//! Run the report: `cargo test --release -p sqlml-sched replay --
//! --nocapture`.

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use sqlml_cache::{CacheManager, CacheProbe, QueryDescriptor};
    use sqlml_common::SplitMix64;
    use sqlml_core::{describe_prep, ClusterConfig, Strategy, Warehouse, WorkloadScale};
    use sqlml_sqlengine::{Engine, EngineConfig, PartitionedTable};
    use sqlml_transform::{InSqlTransformer, RecodeMap, TransformSpec};

    use crate::cost::{self, probe_discount, slot_cost, Charge};
    use crate::queue::FairQueue;
    use crate::router::{ShardLoad, ShardRouter};

    const SHARDS: usize = 2;
    const EXECUTORS: usize = 2;
    const WINDOW: usize = 8;
    const TENANTS: [(&str, u32); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];
    const STRATEGIES: [Strategy; 3] = [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream];
    /// One block of the query grid: eight country slots (USA, the hot
    /// key, takes three) by three age predicates, shuffled per block.
    const COUNTRY_SLOTS: [&str; 8] = ["USA", "USA", "USA", "CA", "UK", "DE", "FR", "JP"];
    const COUNTRIES: [&str; 6] = ["USA", "CA", "UK", "DE", "FR", "JP"];
    const AGES: [Option<i64>; 3] = [None, Some(30), Some(50)];
    /// Shards whose cache holds a country's base query when the window
    /// opens: USA on both, each small country on one.
    const HOMES: [(&str, &[usize]); 6] = [
        ("USA", &[0, 1]),
        ("CA", &[0]),
        ("DE", &[0]),
        ("UK", &[1]),
        ("FR", &[1]),
        ("JP", &[1]),
    ];
    const WARMUP_QUERIES: usize = 24;
    const MEASURED_QUERIES: usize = 1200;
    /// The seeds every verdict is read over.
    const SEEDS: std::ops::RangeInclusive<u64> = 100..=109;

    /// Running time in µs under the `serve-mix` load, at its 10th, 30th,
    /// 50th, 70th and 90th percentiles; each run draws one of the five.
    /// Measured per query from the handles of 20 s `serve-mix` windows
    /// (seed 100, 200 000 carts per shard, 2 cores): the shipped
    /// configuration for the Naive and full-hit rows, the same window
    /// with the cache off for the miss rows. A §5.2 map hit still runs
    /// the prep query and pass 2, and skips only pass 1's distinct, so
    /// it takes the miss row.
    fn service_quantiles(strategy: Strategy, mode: CacheProbe, usa: bool) -> [u64; 5] {
        match (strategy, mode, usa) {
            (Strategy::Naive, _, false) => [11_510, 15_910, 19_200, 23_040, 29_450],
            (Strategy::Naive, _, true) => [27_670, 35_920, 42_900, 49_970, 61_090],
            (Strategy::InSql, CacheProbe::Full, false) => [4_140, 7_320, 9_850, 12_750, 16_780],
            (Strategy::InSql, CacheProbe::Full, true) => [18_010, 23_810, 28_140, 32_710, 40_360],
            (Strategy::InSql, _, false) => [14_600, 19_230, 22_880, 26_920, 34_690],
            (Strategy::InSql, _, true) => [28_030, 36_230, 42_550, 49_120, 58_740],
            (Strategy::InSqlStream, CacheProbe::Full, false) => {
                [8_360, 11_160, 14_230, 17_880, 24_060]
            }
            (Strategy::InSqlStream, CacheProbe::Full, true) => {
                [14_410, 18_920, 22_340, 26_810, 33_170]
            }
            (Strategy::InSqlStream, _, false) => [18_590, 24_660, 29_000, 34_580, 42_370],
            (Strategy::InSqlStream, _, true) => [24_500, 30_010, 36_220, 43_280, 51_850],
        }
    }

    /// One serving-policy alternative.
    #[derive(Debug, Clone, Copy)]
    struct Policy {
        name: &'static str,
        /// The router and the charge see each shard's probe; off, they
        /// see `Miss` (blind load routing at full cost).
        affinity: bool,
    }

    const POLICIES: [Policy; 2] = [
        Policy {
            name: "cache-aware",
            affinity: true,
        },
        Policy {
            name: "blind",
            affinity: false,
        },
    ];

    /// One distinct query of the grid, with what a miss stores.
    struct Query {
        country: &'static str,
        age: Option<i64>,
        descriptor: QueryDescriptor,
        map: RecodeMap,
        table: PartitionedTable,
    }

    /// What every replay shares: one engine per shard holding the same
    /// small warehouse, and each distinct query's descriptor and
    /// transformed result, computed once.
    struct World {
        engines: Vec<Engine>,
        spec: TransformSpec,
        queries: Vec<Query>,
    }

    fn prep_sql(country: &str, age: Option<i64>) -> String {
        let mut sql = format!(
            "SELECT U.age, U.gender, C.amount, C.abandoned FROM carts C, users U \
             WHERE C.userid = U.userid AND U.country = '{country}'"
        );
        if let Some(a) = age {
            sql.push_str(&format!(" AND U.age > {a}"));
        }
        sql
    }

    impl World {
        fn new() -> World {
            let warehouse = Warehouse::generate(WorkloadScale::TINY, 11, 1).unwrap();
            let engines: Vec<Engine> = (0..SHARDS)
                .map(|_| {
                    let e = Engine::new(EngineConfig::with_workers(1));
                    e.register_table("carts", warehouse.carts.clone());
                    e.register_table("users", warehouse.users.clone());
                    e
                })
                .collect();
            let spec = TransformSpec::new(&["gender"]);
            let engine = &engines[0];
            let mut queries = Vec::new();
            for country in COUNTRIES {
                for age in AGES {
                    let sql = prep_sql(country, age);
                    let descriptor = describe_prep(engine, &sql).unwrap().unwrap();
                    engine
                        .execute(&format!("CREATE TABLE replay_prep AS {sql}"))
                        .unwrap();
                    let out = InSqlTransformer::new(engine.clone())
                        .transform("replay_prep", &spec)
                        .unwrap();
                    engine.execute("DROP TABLE replay_prep").unwrap();
                    queries.push(Query {
                        country,
                        age,
                        descriptor,
                        map: out.recode_map,
                        table: out.table,
                    });
                }
            }
            World {
                engines,
                spec,
                queries,
            }
        }

        fn find(&self, country: &str, age: Option<i64>) -> usize {
            self.queries
                .iter()
                .position(|q| q.country == country && q.age == age)
                .unwrap()
        }

        /// What a run that missed leaves in its shard's cache.
        fn store(&self, cache: &CacheManager, query: usize) {
            let q = &self.queries[query];
            cache.store_full(
                q.descriptor.clone(),
                self.spec.clone(),
                q.map.clone(),
                q.table.clone(),
            );
        }
    }

    /// A query waiting in a shard's fair queue.
    struct Job {
        query: usize,
        strategy: Strategy,
        charge: Charge,
        submitted: u64,
    }

    /// A query on an executor, with the cache reuse it got there.
    struct Run {
        done: u64,
        seq: u64,
        shard: usize,
        job: Job,
        mode: CacheProbe,
        started: u64,
    }

    struct Shard {
        queue: FairQueue<Job>,
        running: usize,
        cache: CacheManager,
    }

    /// One finished query, times in µs.
    struct Done {
        queued: u64,
        latency: u64,
    }

    /// What one replay measured over its window.
    #[derive(Default)]
    struct Outcome {
        done: Vec<Done>,
        window_us: u64,
        /// Placements the cache steered (a non-`Miss` affinity).
        affinity: usize,
        /// Submissions where some shard's probe offered a §5.2 map hit,
        /// the only ones a map price could steer.
        map_offers: usize,
        /// Runs whose measured cache mode prices differently from their
        /// charge, the only ones a post-run settlement could correct.
        mispriced: usize,
        /// Runs of a cache-reading strategy that missed: recomputations.
        cold: usize,
    }

    struct Replay<'w> {
        world: &'w World,
        policy: Policy,
        shards: Vec<Shard>,
        router: ShardRouter,
        /// The benchmark's query order: blocks of the grid, shuffled.
        order: SplitMix64,
        block: Vec<usize>,
        /// Service-time draws.
        draws: SplitMix64,
        now: u64,
        seq: u64,
        next_index: usize,
        runs: Vec<Run>,
        out: Outcome,
    }

    impl<'w> Replay<'w> {
        fn new(world: &'w World, policy: Policy, seed: u64) -> Replay<'w> {
            let shards: Vec<Shard> = world
                .engines
                .iter()
                .map(|e| Shard {
                    queue: FairQueue::new(64),
                    running: 0,
                    cache: CacheManager::new(e.clone()),
                })
                .collect();
            for shard in &shards {
                for (tenant, weight) in TENANTS {
                    shard.queue.set_weight(tenant, weight);
                }
            }
            for (country, homes) in HOMES {
                for &home in homes {
                    world.store(&shards[home].cache, world.find(country, None));
                }
            }
            Replay {
                world,
                policy,
                shards,
                router: ShardRouter::new(),
                order: SplitMix64::new(seed).fork(3),
                block: Vec::new(),
                draws: SplitMix64::new(seed).fork(7),
                now: 0,
                seq: 0,
                next_index: 0,
                runs: Vec::new(),
                out: Outcome::default(),
            }
        }

        fn next_query(&mut self) -> usize {
            if self.block.is_empty() {
                for country in COUNTRY_SLOTS {
                    for age in AGES {
                        self.block.push(self.world.find(country, age));
                    }
                }
                self.order.shuffle(&mut self.block);
            }
            self.block.pop().unwrap()
        }

        /// What `shard`'s cache offers `query` under `strategy`.
        fn probe(&self, shard: usize, query: usize, strategy: Strategy) -> CacheProbe {
            match strategy {
                Strategy::Naive => CacheProbe::Miss,
                _ => self.shards[shard]
                    .cache
                    .probe(&self.world.queries[query].descriptor, &self.world.spec),
            }
        }

        fn submit(&mut self) {
            let query = self.next_query();
            let index = self.next_index;
            self.next_index += 1;
            let (tenant, _) = TENANTS[(index / STRATEGIES.len()) % TENANTS.len()];
            let strategy = STRATEGIES[index % STRATEGIES.len()];
            let probes: Vec<CacheProbe> = (0..SHARDS)
                .map(|s| self.probe(s, query, strategy))
                .collect();
            if probes.contains(&CacheProbe::RecodeMap) {
                self.out.map_offers += 1;
            }
            let loads: Vec<ShardLoad> = probes
                .iter()
                .zip(&self.shards)
                .map(|(&probe, shard)| ShardLoad {
                    queue_depth: shard.queue.len(),
                    running: shard.running,
                    executors: EXECUTORS,
                    probe: if self.policy.affinity {
                        probe
                    } else {
                        CacheProbe::Miss
                    },
                    draining: false,
                })
                .collect();
            let base = slot_cost(&ClusterConfig::default(), strategy);
            let (placement, charge) = cost::place(&self.router, &loads, base).unwrap();
            if charge.affinity != CacheProbe::Miss {
                self.out.affinity += 1;
            }
            let job = Job {
                query,
                strategy,
                charge,
                submitted: self.now,
            };
            self.shards[placement.shard]
                .queue
                .push(tenant, charge.est(), job)
                .unwrap();
        }

        /// Start queued jobs on `shard`'s free executors.
        fn dispatch(&mut self, shard: usize) {
            while self.shards[shard].running < EXECUTORS && !self.shards[shard].queue.is_empty() {
                let job = self.shards[shard].queue.pop().unwrap();
                let mode = self.probe(shard, job.query, job.strategy);
                let usa = self.world.queries[job.query].country == "USA";
                let quantiles = service_quantiles(job.strategy, mode, usa);
                let service = quantiles[self.draws.next_below(5) as usize];
                self.seq += 1;
                self.runs.push(Run {
                    done: self.now + service,
                    seq: self.seq,
                    shard,
                    job,
                    mode,
                    started: self.now,
                });
                self.shards[shard].running += 1;
            }
        }

        /// Finish the earliest run: store what a miss computed and hand
        /// its executor the next queued job.
        fn complete(&mut self) -> Option<Done> {
            let next =
                (0..self.runs.len()).min_by_key(|&i| (self.runs[i].done, self.runs[i].seq))?;
            let run = self.runs.swap_remove(next);
            self.now = run.done;
            let shard = &mut self.shards[run.shard];
            shard.running -= 1;
            if run.mode == CacheProbe::Miss && run.job.strategy != Strategy::Naive {
                self.world.store(&shard.cache, run.job.query);
                self.out.cold += 1;
            }
            if probe_discount(run.mode) != probe_discount(run.job.charge.affinity) {
                self.out.mispriced += 1;
            }
            self.dispatch(run.shard);
            Some(Done {
                queued: run.started - run.job.submitted,
                latency: run.done - run.job.submitted,
            })
        }

        /// Keep `WINDOW` queries outstanding until `n` were sent, then
        /// drain; returns the finished queries.
        fn closed_loop(&mut self, n: usize) -> Vec<Done> {
            let mut sent = 0;
            let mut done = Vec::with_capacity(n);
            while sent < n.min(WINDOW) {
                self.submit();
                sent += 1;
            }
            for s in 0..SHARDS {
                self.dispatch(s);
            }
            while let Some(d) = self.complete() {
                done.push(d);
                if sent < n {
                    self.submit();
                    sent += 1;
                    for s in 0..SHARDS {
                        self.dispatch(s);
                    }
                }
            }
            done
        }

        /// The warm-up queries, then the measured window.
        fn run(mut self) -> Outcome {
            self.closed_loop(WARMUP_QUERIES);
            self.out = Outcome::default();
            let start = self.now;
            self.out.done = self.closed_loop(MEASURED_QUERIES);
            self.out.window_us = self.now - start;
            self.out
        }
    }

    /// Nearest-rank percentile of µs values, in ms.
    fn percentile_ms(values: &mut [u64], pct: f64) -> f64 {
        values.sort_unstable();
        let rank = ((pct / 100.0) * (values.len() - 1) as f64).round() as usize;
        values[rank] as f64 / 1000.0
    }

    /// What a verdict reads from one (policy, seed) replay.
    #[derive(Debug, Clone, Copy)]
    struct Row {
        seed: u64,
        latency_p95_ms: f64,
        goodput_qps: f64,
        queued_p50_ms: f64,
        queued_p95_ms: f64,
        affinity: usize,
        map_offers: usize,
        mispriced: usize,
        cold: usize,
    }

    impl Row {
        fn new(seed: u64, out: &Outcome) -> Row {
            let mut latency: Vec<u64> = out.done.iter().map(|d| d.latency).collect();
            let mut queued: Vec<u64> = out.done.iter().map(|d| d.queued).collect();
            Row {
                seed,
                latency_p95_ms: percentile_ms(&mut latency, 95.0),
                goodput_qps: out.done.len() as f64 / (out.window_us as f64 / 1e6),
                queued_p50_ms: percentile_ms(&mut queued, 50.0),
                queued_p95_ms: percentile_ms(&mut queued, 95.0),
                affinity: out.affinity,
                map_offers: out.map_offers,
                mispriced: out.mispriced,
                cold: out.cold,
            }
        }
    }

    /// Median (upper median for an even count) and max − min spread.
    fn median_spread(rows: &[Row], f: fn(&Row) -> f64) -> (f64, f64) {
        let mut v: Vec<f64> = rows.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        (v[v.len() / 2], v[v.len() - 1] - v[0])
    }

    /// Every policy replayed over `seeds`: one row per seed, then each
    /// policy's median, its seed-to-seed spread, and its distance from
    /// cache-aware routing, the policy the product runs.
    fn report(world: &World, seeds: std::ops::RangeInclusive<u64>) -> (String, Vec<Vec<Row>>) {
        let mut text = String::new();
        let _ = writeln!(
            text,
            "replay: serve-mix: {SHARDS} shards x {EXECUTORS} executors, window {WINDOW}, \
             tenants 4/2/1, {MEASURED_QUERIES} queries after {WARMUP_QUERIES} warm-up, seeds {}..={}",
            seeds.start(),
            seeds.end()
        );
        let _ = writeln!(
            text,
            "replay: {:<11} {:>4} {:>7} {:>6} {:>7} {:>7} {:>8} {:>4} {:>9} {:>4}",
            "policy",
            "seed",
            "p95_ms",
            "qps",
            "q50_ms",
            "q95_ms",
            "affinity",
            "map",
            "mispriced",
            "cold"
        );
        let mut all: Vec<Vec<Row>> = Vec::new();
        for policy in POLICIES {
            let rows: Vec<Row> = seeds
                .clone()
                .map(|seed| Row::new(seed, &Replay::new(world, policy, seed).run()))
                .collect();
            for r in &rows {
                let _ = writeln!(
                    text,
                    "replay: {:<11} {:>4} {:>7.2} {:>6.1} {:>7.2} {:>7.2} {:>8} {:>4} {:>9} {:>4}",
                    policy.name,
                    r.seed,
                    r.latency_p95_ms,
                    r.goodput_qps,
                    r.queued_p50_ms,
                    r.queued_p95_ms,
                    r.affinity,
                    r.map_offers,
                    r.mispriced,
                    r.cold
                );
            }
            all.push(rows);
        }
        let (aware_p95, _) = median_spread(&all[0], |r| r.latency_p95_ms);
        let (aware_qps, _) = median_spread(&all[0], |r| r.goodput_qps);
        for (policy, rows) in POLICIES.iter().zip(&all) {
            let (p95, p95_spread) = median_spread(rows, |r| r.latency_p95_ms);
            let (qps, qps_spread) = median_spread(rows, |r| r.goodput_qps);
            let (q50, _) = median_spread(rows, |r| r.queued_p50_ms);
            let (q95, _) = median_spread(rows, |r| r.queued_p95_ms);
            let _ = writeln!(
                text,
                "replay: {:<11} median p95 {p95:.2} ms (spread {p95_spread:.2}, vs cache-aware {:+.2}), \
                 goodput {qps:.1} q/s (spread {qps_spread:.1}, vs cache-aware {:+.1}), \
                 queued p50 {q50:.2} / p95 {q95:.2} ms",
                policy.name,
                p95 - aware_p95,
                qps - aware_qps,
            );
        }
        (text, all)
    }

    #[test]
    fn the_replay_report_is_byte_identical_for_one_seed() {
        let world = World::new();
        let (first, _) = report(&world, 100..=100);
        let (second, _) = report(&world, 100..=100);
        assert_eq!(first, second);
        print!("{first}");
    }

    /// Queue wait of a traced 20 s `serve-mix` window on the host the
    /// service times come from (seed 100): `sched.queued_s_p50` and
    /// `sched.queued_s_p95`, in ms.
    const TRACED_QUEUED_MS: (f64, f64) = (17.54, 50.40);

    #[test]
    fn serving_policies_over_seeds() {
        let world = World::new();
        let (text, all) = report(&world, SEEDS);
        print!("{text}");
        let (aware, blind) = (&all[0], &all[1]);
        // The model: the replayed queue wait reproduces the traced one.
        for (replayed, traced) in [
            (
                median_spread(aware, |r| r.queued_p50_ms).0,
                TRACED_QUEUED_MS.0,
            ),
            (
                median_spread(aware, |r| r.queued_p95_ms).0,
                TRACED_QUEUED_MS.1,
            ),
        ] {
            assert!(
                (replayed / traced - 1.0).abs() <= 0.15,
                "replayed queue wait {replayed:.2} ms against {traced:.2} ms traced"
            );
        }
        for (a, b) in aware.iter().zip(blind) {
            // Cache-aware routing runs every cached query where its full
            // result is; blind routing recomputes some.
            assert_eq!(a.cold, 0, "seed {}: cache-aware routing recomputed", a.seed);
            assert!(
                b.cold > 0,
                "seed {}: blind routing never recomputed",
                b.seed
            );
            // No §5.2 map hit is ever on offer and no run prices
            // differently from its charge, so a map price or a post-run
            // settlement could change nothing here.
            assert_eq!((a.map_offers, a.mispriced), (0, 0), "seed {}", a.seed);
        }
    }
}
