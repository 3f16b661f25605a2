//! What the four workloads share: run arguments, the outcome they hand
//! back, set-up timing, the per-operation correctness gate, and the
//! per-run result file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sqlml_core::workload::WorkloadScale;
use sqlml_core::{CacheMode, ClusterConfig, PipelineReport, SimCluster};

use crate::json::Json;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;

/// Operations at the head of every workload that warm the process up and
/// are not measured.
pub const WARMUP_OPS: usize = 2;
/// Measured operations in `--smoke` mode (the window length is ignored).
pub const SMOKE_OPS: usize = 3;
/// Warehouse under `--smoke`: TINY's 2 000 carts, but over 1 000 users
/// instead of 200. With 200 users a small country's `age > 50` slice can
/// hold one gender only; dummy coding then emits one column fewer and the
/// request's label index points past the row.
pub const SMOKE_SCALE: WorkloadScale = WorkloadScale {
    carts: 2_000,
    users: 1_000,
};
/// Fewest operations a traced run re-enacts, however short its window.
pub const MIN_TRACED_OPS: usize = 5;
/// How many times a run builds its warehouse; `setup_s` is the median.
const SETUPS: usize = 5;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// Warehouse size: `full_carts` carts (and a hundredth as many
    /// users), or [`SMOKE_SCALE`] under `--smoke`.
    pub fn scale(&self, full_carts: usize) -> WorkloadScale {
        if self.smoke {
            SMOKE_SCALE
        } else {
            WorkloadScale::with_carts(full_carts)
        }
    }

    /// Whether a window that has run `ops` measured operations since
    /// `start` should run another.
    pub fn window_open(&self, ops: usize, start: Instant) -> bool {
        if self.smoke {
            ops < SMOKE_OPS
        } else {
            let floor = if self.trace { MIN_TRACED_OPS } else { 1 };
            ops < floor || start.elapsed().as_secs_f64() < self.seconds
        }
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub scale: WorkloadScale,
    /// Operations attempted and failed, with the first few reasons.
    pub gate: Gate,
    /// Either every end-to-end metric (untraced) or every per-layer
    /// metric (traced), by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Within-run timing series, summarised into the result file.
    pub timings: Vec<(&'static str, Vec<f64>)>,
    pub ops: usize,
    pub window_s: f64,
    pub tracer: Option<Tracer>,
}

/// Tally of attempted and failed operations with their reasons.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Count one operation; `Err` carries why it counts as failed.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("{what}: {why}"));
                }
                false
            }
        }
    }
}

/// The per-operation correctness gate: the right number of rows reached
/// the ML side, a streamed run delivered each row exactly once without a
/// restart, and (where the workload fixes it) the §5 cache did what the
/// script expects.
pub fn check_report(
    report: &PipelineReport,
    expected_rows: usize,
    expected_cache: Option<CacheMode>,
) -> Result<(), String> {
    if report.rows_to_ml != expected_rows {
        return Err(format!(
            "rows_to_ml {} != reference {expected_rows}",
            report.rows_to_ml
        ));
    }
    if let Some(s) = &report.stream_stats {
        if s.rows_sent != s.receive.rows_received || s.rows_sent != s.rows_ingested as u64 {
            return Err(format!(
                "stream counters disagree: sent {} received {} ingested {}",
                s.rows_sent, s.receive.rows_received, s.rows_ingested
            ));
        }
        if s.max_attempts != 1 {
            return Err(format!("stream restarted: max_attempts {}", s.max_attempts));
        }
    }
    if let Some(want) = expected_cache {
        if report.cache_use != want {
            return Err(format!("cache_use {:?} != {want:?}", report.cache_use));
        }
    }
    Ok(())
}

/// Build the warehouse [`SETUPS`] times, dropping each before the next so
/// peak memory is one warehouse; returns the last build and every build's
/// wall-clock seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (built.expect("SETUPS >= 1"), times)
}

/// One cluster with the default layout (4 nodes, 4 SQL + 4 ML workers,
/// k = 1, DFS throttle off) and the seeded warehouse loaded.
pub fn boot_cluster(scale: WorkloadScale, seed: u64) -> SimCluster {
    let cluster = SimCluster::start(ClusterConfig::default()).expect("cluster start");
    cluster.load_workload(scale, seed).expect("warehouse load");
    cluster
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metric set every workload reports, from its measured
/// window. `latency_p95` is the workload's 95th percentile over its
/// pipeline requests (the operations themselves, except where an operation
/// is a session of several); `ok_requests` and `ok_rows` count correct
/// operations only.
pub fn end_to_end_metrics(
    setup_times: &[f64],
    op_s: &[f64],
    latency_p95: f64,
    pipeline_s: &[f64],
    ok_requests: usize,
    ok_rows: usize,
    window_s: f64,
) -> BTreeMap<&'static str, f64> {
    let window_s = window_s.max(f64::EPSILON);
    BTreeMap::from([
        ("setup_s", stats::median(setup_times)),
        ("op_s_p50", stats::median(op_s)),
        ("latency_s_p95", latency_p95),
        ("pipeline_s_p50", stats::median(pipeline_s)),
        ("goodput_qps", ok_requests as f64 / window_s),
        ("rows_per_s", ok_rows as f64 / window_s),
        ("peak_rss_mib", peak_rss_mib()),
    ])
}

/// Every per-layer metric at 0 — a layer a workload never enters reports
/// no time and no work.
pub fn zeroed_layers() -> BTreeMap<&'static str, f64> {
    spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

/// Set a per-layer metric by name; a name outside the table is a bug in
/// the harness, caught here instead of silently dropped.
pub fn set(layers: &mut BTreeMap<&'static str, f64>, name: &str, value: f64) {
    match layers.get_mut(name) {
        Some(slot) => *slot = value,
        None => panic!("{name} is not a per-layer metric in spec::PER_LAYER"),
    }
}

fn git_rev(repo_root: &Path) -> String {
    // Only ask git inside a real checkout: the driver's copy is not a
    // repository, and git would otherwise walk up out of it.
    if !repo_root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": u}, ...}` in table order.
pub fn metrics_json(metrics: &BTreeMap<&'static str, f64>) -> Json {
    let order = spec::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(spec::PER_LAYER.iter().map(|m| m.name));
    Json::obj(order.filter_map(|name| {
        metrics.get(name).map(|v| {
            (
                name,
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit_of(name)))]),
            )
        })
    }))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.gate.failed == 0)),
        ("attempted", Json::from(outcome.gate.attempted)),
        ("failed", Json::from(outcome.gate.failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
    .render()
}

/// Write the run's result file (`<workload>.json`, or
/// `layers-<workload>.json` plus `trace-<workload>.jsonl` for a traced
/// run) with everything needed to repeat it.
pub fn write_result_files(args: &RunArgs, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let doc = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::from(args.seed)),
        ("git_rev", Json::str(git_rev(repo_root))),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("carts", Json::from(outcome.scale.carts)),
        ("users", Json::from(outcome.scale.users)),
        ("smoke", Json::Bool(args.smoke)),
        ("traced", Json::Bool(args.trace)),
        ("warmup_ops", Json::from(WARMUP_OPS)),
        ("repeats", Json::from(outcome.ops)),
        ("window_s_requested", Json::Num(args.seconds)),
        ("window_s", Json::Num(outcome.window_s)),
        ("attempted", Json::from(outcome.gate.attempted)),
        ("failed", Json::from(outcome.gate.failed)),
        ("failed_share", Json::Num(outcome.gate.failed_share())),
        ("correct", Json::Bool(outcome.gate.failed == 0)),
        (
            "failures",
            Json::Arr(
                outcome
                    .gate
                    .failures
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&outcome.metrics)),
        (
            "timings",
            Json::obj(
                outcome
                    .timings
                    .iter()
                    .map(|(name, series)| (*name, stats::summary(series))),
            ),
        ),
    ]);
    let stem = if args.trace { "layers-" } else { "" };
    let path = args.out_dir.join(format!("{stem}{}.json", args.workload));
    std::fs::write(path, doc.render() + "\n")?;
    if let Some(tracer) = &outcome.tracer {
        tracer.write_jsonl(&args.out_dir.join(format!("trace-{}.jsonl", args.workload)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_failures_against_attempts() {
        let mut g = Gate::default();
        assert!(g.check("op 0", Ok(())));
        assert!(!g.check("op 1", Err("rows differ".into())));
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert_eq!(g.failures, vec!["op 1: rows differ".to_string()]);
    }

    #[test]
    fn timed_setup_builds_every_time_and_keeps_the_last() {
        let mut n = 0;
        let (last, times) = timed_setup(|| {
            n += 1;
            n
        });
        assert_eq!((last, times.len()), (SETUPS, SETUPS));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            scale: WorkloadScale::TINY,
            gate: Gate {
                attempted: 3,
                ..Gate::default()
            },
            metrics: BTreeMap::from([("setup_s", 0.5), ("op_s_p50", 0.25)]),
            timings: Vec::new(),
            ops: 3,
            window_s: 1.0,
            tracer: None,
        };
        let line = Json::parse(&result_line(&outcome)).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
