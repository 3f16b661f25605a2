//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! carries the same tables for the driver; `tests/smoke.rs` fails when
//! the two disagree.

use crate::json::Json;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
/// A run takes 5 to 9 s more than its window (five set-ups, reference runs,
/// warm-up) and up to 12 s more when the host is busy, so the driver's 92
/// runs and two builds take 2700 to 3200 of the 3420 s it allows.
pub const RUN_SECONDS: u64 = 22;

/// What the driver runs from the repo root; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "naive-batch",
        why: "Strategy::Naive runs back to back: dfs, the text codec, the external transform \
              and text ingest do the work; transfer and cache do none",
    },
    WorkloadSpec {
        name: "stream-batch",
        why: "same request under InSqlStream, no cache: sqlengine, transform UDFs, transfer \
              and stream ingest do the work; dfs does none",
    },
    WorkloadSpec {
        name: "explore-session",
        why: "6-query sessions sharing work (miss, three 5.1 hits, one 5.2 map hit, miss): \
              the cache decides the time; the batch workloads hold sharing at zero",
    },
    WorkloadSpec {
        name: "serve-mix",
        why: "closed loop of 8 outstanding queries, 3 weighted tenants, 2 shards: sched is on \
              the blocking path with a real backlog; a third of the queries bypass the cache",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression.
    pub bound: f64,
}

/// Bound of every timing and rate: the most the driver allows. Runs of one
/// commit on a shared two-core host spread 5 to 17% of their median when
/// the host is busy (middle half of ten runs; README, *Measured A/A
/// spread*), so a tighter bound rejects unchanged code.
const TIMING_BOUND: f64 = 0.25;

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "op_s_p50",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "latency_s_p95",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "pipeline_s_p50",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "goodput_qps",
        unit: "queries/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "rows/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly for a fixed seed and scale.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// A count that depends on thread timing (stalls, spills, steals).
const fn loose(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

pub const PER_LAYER: [PerLayer; 77] = [
    // common (codec)
    time("common.text_encode_ns_per_row", "ns/row"),
    time("common.text_decode_ns_per_row", "ns/row"),
    time("common.compact_encode_ns_per_row", "ns/row"),
    time("common.compact_decode_ns_per_row", "ns/row"),
    exact("common.compact_bytes_per_row", "B/row"),
    // dfs
    time("dfs.write_s_p50", "s"),
    time("dfs.read_s_p50", "s"),
    exact("dfs.bytes_written", "B"),
    exact("dfs.bytes_read", "B"),
    // sqlengine
    time("sqlengine.parse_us_p50", "us"),
    time("sqlengine.plan_us_p50", "us"),
    time("sqlengine.prep_query_s_p50", "s"),
    time("sqlengine.ctas_s_p50", "s"),
    exact("sqlengine.rows_in", "rows"),
    exact("sqlengine.rows_out", "rows"),
    exact("sqlengine.rows_in_per_row_out", "ratio"),
    // transform
    time("transform.recode_map_build_s_p50", "s"),
    time("transform.apply_s_p50", "s"),
    time("transform.total_s_p50", "s"),
    exact("transform.rows_out", "rows"),
    exact("transform.cols_out", "count"),
    // core
    time("core.external_transform_s_p50", "s"),
    time("core.stage_prep_s_p50", "s"),
    time("core.stage_trsfm_s_p50", "s"),
    time("core.stage_input_s_p50", "s"),
    time("core.stage_prep_trsfm_input_s_p50", "s"),
    // transfer
    time("transfer.stream_s_p50", "s"),
    time("transfer.first_row_ms_p50", "ms"),
    time("transfer.prefetch_wait_ms_p50", "ms"),
    loose("transfer.sender_stall_us", "us", Better::Lower),
    loose("transfer.queue_depth_hw", "count", Better::Lower),
    exact("transfer.rows_sent", "rows"),
    loose("transfer.bytes_sent", "B", Better::Lower),
    loose("transfer.batches_sent", "count", Better::Lower),
    loose("transfer.bytes_per_row", "B/row", Better::Lower),
    loose("transfer.bytes_spilled", "B", Better::Lower),
    loose("transfer.spill_events", "count", Better::Lower),
    exact("transfer.max_attempts", "count"),
    loose("transfer.dict_hit_ratio", "ratio", Better::Higher),
    // mlengine
    time("mlengine.text_ingest_s_p50", "s"),
    time("mlengine.train_s_p50", "s"),
    exact("mlengine.rows_ingested", "rows"),
    // cache
    time("cache.describe_us_p50", "us"),
    time("cache.lookup_us_p50", "us"),
    time("cache.probe_us_p50", "us"),
    time("cache.store_full_s_p50", "s"),
    time("cache.cached_select_s_p50", "s"),
    PerLayer {
        name: "cache.full_hits",
        unit: "count",
        better: Better::Higher,
        exact: true,
    },
    PerLayer {
        name: "cache.map_hits",
        unit: "count",
        better: Better::Higher,
        exact: true,
    },
    exact("cache.misses", "count"),
    PerLayer {
        name: "cache.hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        exact: true,
    },
    time("cache.full_hit_run_s_p50", "s"),
    time("cache.map_hit_run_s_p50", "s"),
    time("cache.miss_run_s_p50", "s"),
    // rewriter
    time("rewriter.rewrite_us_p50", "us"),
    // sched
    time("sched.submit_us_p50", "us"),
    time("sched.queued_s_p50", "s"),
    time("sched.queued_s_p95", "s"),
    time("sched.running_s_p50", "s"),
    time("sched.running_s_p95", "s"),
    time("sched.latency_s_p50", "s"),
    time("sched.latency_s_p95", "s"),
    time("sched.latency_naive_s_p50", "s"),
    time("sched.latency_insql_s_p50", "s"),
    time("sched.latency_stream_s_p50", "s"),
    time("sched.queued_gold_s_p50", "s"),
    time("sched.queued_bronze_s_p50", "s"),
    loose("sched.submitted", "count", Better::Higher),
    loose("sched.completed", "count", Better::Higher),
    loose("sched.rejected", "count", Better::Lower),
    loose("sched.failed", "count", Better::Lower),
    loose("sched.stolen", "count", Better::Lower),
    loose("sched.cache_affinity_hits", "count", Better::Higher),
    loose("sched.inflight_high_water", "count", Better::Lower),
    loose("sched.shard_admit_skew", "ratio", Better::Lower),
    // trace
    loose("trace.reenact_ratio", "ratio", Better::Lower),
    loose("trace.overhead_pct", "%", Better::Lower),
];

/// The text of `BENCHMARK.json`, one table row per line
/// (`benchmark spec > BENCHMARK.json` regenerates the file).
pub fn benchmark_json() -> String {
    let rows = |items: Vec<Json>| -> String {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND).render(),
        strings(&["benchmark"]).render(),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(well_formed(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(!u.is_empty() && u.len() <= 16, "{u}");
            assert!(
                u.bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{u}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= setup.bound, "{}", m.name);
        }
    }
}
