//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or ablation from
//! the paper's evaluation; this library holds the common scaffolding:
//! cluster construction with paper-like parameters, result rows, and
//! plain-text "figure" rendering.

use std::time::Duration;

use sqlml_core::{ClusterConfig, SimCluster, WorkloadScale};
use sqlml_dfs::DfsConfig;
use sqlml_transfer::TransferConfig;

/// Parameters shared by the figure binaries, settable from the command
/// line (see [`BenchParams::from_args`]).
#[derive(Debug, Clone)]
pub struct BenchParams {
    pub scale: WorkloadScale,
    /// Per-datanode DFS bandwidth in MB/s. The paper's cluster moved
    /// tens of gigabytes through 12 SATA disks and 10 GbE; at laptop
    /// scale an explicit bandwidth model keeps the *relative* stage
    /// costs honest. `None` disables throttling.
    pub throttle_mbps: Option<u64>,
    pub seed: u64,
    /// Streaming data-plane tunables; `--frame-bytes` sets the frame
    /// size, `k` and the send buffer stay at the paper's values unless an
    /// ablation sweeps them.
    pub transfer: TransferConfig,
    /// Print per-stage breakdowns (and, when built with the
    /// `alloc-counters` feature, bytes allocated per stage).
    pub verbose: bool,
}

impl Default for BenchParams {
    fn default() -> Self {
        BenchParams {
            scale: WorkloadScale::SMALL,
            throttle_mbps: Some(4),
            seed: 42,
            transfer: TransferConfig::default(),
            verbose: false,
        }
    }
}

impl BenchParams {
    /// Parse `--carts N`, `--throttle-mbps M` (0 = off), `--seed S`,
    /// `--frame-bytes N` and `--verbose` from the
    /// command line, over the defaults. A bad value panics with a message
    /// naming it before anything runs.
    pub fn from_args() -> BenchParams {
        let mut p = BenchParams::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            // `--verbose` is the one flag without a value argument.
            if args[i] == "--verbose" {
                p.verbose = true;
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("{} takes a value", args[i]));
            match args[i].as_str() {
                "--carts" => {
                    let carts: usize = value.parse().expect("--carts takes a number");
                    p.scale = WorkloadScale::with_carts(carts);
                }
                "--throttle-mbps" => {
                    let mbps: u64 = value.parse().expect("--throttle-mbps takes a number");
                    p.throttle_mbps = if mbps == 0 { None } else { Some(mbps) };
                }
                "--seed" => p.seed = value.parse().expect("--seed takes a number"),
                "--frame-bytes" => {
                    p.transfer.frame_bytes = value.parse().expect("--frame-bytes takes a number");
                }
                other => panic!("unknown argument {other:?}"),
            }
            i += 2;
        }
        if let Err(e) = p.transfer.validate() {
            panic!("{e}");
        }
        p
    }

    /// Build the 4-node cluster the paper used (1 SQL worker per node,
    /// ML workers colocated) with the configured transfer tunables and
    /// DFS throttle, and load the workload.
    pub fn start_cluster(&self) -> SimCluster {
        let cluster = SimCluster::start(ClusterConfig {
            sql_workers: 4,
            ml_workers: 4,
            transfer: self.transfer,
            dfs: DfsConfig {
                num_datanodes: 4,
                block_size: 1024 * 1024,
                replication: 3,
                bytes_per_sec: self.throttle_mbps.map(|m| m * 1024 * 1024),
                remote_bytes_per_sec: None,
            },
            block_level_splits: false,
        })
        .expect("cluster start");
        cluster
            .load_workload(self.scale, self.seed)
            .expect("workload load");
        cluster
    }
}

/// One bar of a figure: a label and its stage breakdown.
#[derive(Debug, Clone)]
pub struct FigureBar {
    pub label: String,
    pub stages: Vec<(String, Duration)>,
}

impl FigureBar {
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }
}

/// Render bars the way the paper's figures read: stacked stages plus a
/// speedup column relative to the first bar.
pub fn render_figure(title: &str, bars: &[FigureBar]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let baseline = bars.first().map(|b| b.total().as_secs_f64()).unwrap_or(1.0);
    let width = bars.iter().map(|b| b.label.len()).max().unwrap_or(8).max(8);
    for bar in bars {
        let total = bar.total();
        let speedup = baseline / total.as_secs_f64().max(f64::EPSILON);
        let stages: Vec<String> = bar
            .stages
            .iter()
            .map(|(n, d)| format!("{n}={:.2}s", d.as_secs_f64()))
            .collect();
        out.push_str(&format!(
            "  {:<width$}  total={:7.2}s  speedup={speedup:4.2}x  [{}]\n",
            bar.label,
            total.as_secs_f64(),
            stages.join("  "),
        ));
    }
    out
}

/// Assert a "shape" claim and report it (used by the binaries to declare
/// whether the paper's qualitative result reproduced).
pub fn check_shape(description: &str, holds: bool) -> bool {
    println!(
        "shape check: {description} ... {}",
        if holds { "HOLDS" } else { "VIOLATED" }
    );
    holds
}

/// Stage list of a pipeline report as figure stages.
pub fn stages_of(report: &sqlml_core::PipelineReport) -> Vec<(String, Duration)> {
    report
        .timer
        .stages()
        .iter()
        .map(|s| (s.name.clone(), s.duration))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_rendering_contains_labels_and_speedups() {
        let bars = vec![
            FigureBar {
                label: "naive".into(),
                stages: vec![
                    ("prep".into(), Duration::from_secs(2)),
                    ("trsfm".into(), Duration::from_secs(2)),
                ],
            },
            FigureBar {
                label: "insql".into(),
                stages: vec![("prep+trsfm".into(), Duration::from_secs(2))],
            },
        ];
        let text = render_figure("Figure 3", &bars);
        assert!(text.contains("naive"));
        assert!(text.contains("speedup=2.00x"), "{text}");
    }

    #[test]
    fn params_default_to_small_scale() {
        let p = BenchParams::default();
        assert_eq!(p.scale, WorkloadScale::SMALL);
        assert!(p.throttle_mbps.is_some());
    }
}
