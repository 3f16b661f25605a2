//! `compare A/ B/`: judge result set B against result set A, one row per
//! (end-to-end metric, workload).
//!
//! A result set is a directory holding `<workload>.json` files — directly,
//! or one level down (`run --runs N` writes `run-01/`, `run-02/`, …). The
//! across-run quartiles are computed the way the benchmark driver computes
//! them (`stats::quartiles`).
//!
//! After the verdicts it prints, without judging them, the per-layer
//! medians of both sets that differ from 0 — where a change's saving or
//! cost sits — and checks that runs of one seed agree on every count
//! marked exact.

use std::path::Path;

use crate::json::Json;
use crate::spec::{self, Better, EndToEnd};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// Side A's own run-to-run spread is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Every run of one workload found in a result set: the untraced result
/// files, or with `stem` `"layers-"` the traced ones.
fn load_runs(set: &Path, stem: &str, workload: &str) -> Result<Vec<Json>, String> {
    let file = format!("{stem}{workload}.json");
    let mut paths = vec![set.join(&file)];
    let entries = std::fs::read_dir(set).map_err(|e| format!("{}: {e}", set.display()))?;
    let mut subdirs: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    subdirs.sort();
    paths.extend(subdirs.iter().map(|d| d.join(&file)));
    let mut runs = Vec::new();
    for path in paths.iter().filter(|p| p.is_file()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(runs)
}

fn metric_values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failed_ops(runs: &[Json]) -> f64 {
    runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum()
}

/// The rule: `unresolved` when A's inter-quartile spread exceeds the
/// bound; otherwise `worse` / `better` when B's median differs from A's
/// by more than the bound in that direction; otherwise `unchanged`.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (_, a_med, _) = stats::quartiles(a);
    let (_, b_med, _) = stats::quartiles(b);
    if stats::spread(a) > metric.bound {
        return Verdict::Unresolved;
    }
    let change = (b_med - a_med) / a_med.abs().max(f64::MIN_POSITIVE);
    let worsening = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Print the comparison table; `Ok(true)` when no row is `worse` and no
/// run in either set failed an operation.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<16} {:<15} {:>12} {:>12} {:>7} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "A n", "B median", "B q1..q3", "B n", "bound"
    );
    for workload in spec::workload_names() {
        let a_runs = load_runs(a_dir, "", workload)?;
        let b_runs = load_runs(b_dir, "", workload)?;
        if a_runs.is_empty() || b_runs.is_empty() {
            return Err(format!(
                "{workload}: {} runs in {}, {} in {} — both sets need at least one",
                a_runs.len(),
                a_dir.display(),
                b_runs.len(),
                b_dir.display()
            ));
        }
        for metric in &spec::END_TO_END {
            let a = metric_values(&a_runs, metric.name);
            let b = metric_values(&b_runs, metric.name);
            if a.is_empty() || b.is_empty() {
                return Err(format!(
                    "{workload}: {} missing from a result file",
                    metric.name
                ));
            }
            let (a1, a2, a3) = stats::quartiles(&a);
            let (b1, b2, b3) = stats::quartiles(&b);
            let verdict = judge(metric, &a, &b);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<15} {:>12.5} {:>12} {:>7} {:>12.5} {:>12} {:>7} {:>5.0}%  {} ({:+.1}%, A spread {:.1}%)",
                workload,
                metric.name,
                a2,
                format!("{a1:.4}..{a3:.4}"),
                a.len(),
                b2,
                format!("{b1:.4}..{b3:.4}"),
                b.len(),
                metric.bound * 100.0,
                verdict.as_str(),
                (b2 - a2) / a2.abs().max(f64::MIN_POSITIVE) * 100.0,
                stats::spread(&a) * 100.0,
            );
        }
        // `failed_share` has no bound: any failed operation is a defect.
        let (fa, fb) = (failed_ops(&a_runs), failed_ops(&b_runs));
        let verdict = if fa + fb > 0.0 { "worse" } else { "unchanged" };
        clean &= fa + fb == 0.0;
        println!(
            "{workload:<16} {:<15} {fa:>12} {:>12} {:>7} {fb:>12} {:>12} {:>7} {:>6}  {verdict}",
            "failed_ops",
            "",
            a_runs.len(),
            "",
            b_runs.len(),
            "0",
        );
    }
    Ok(clean & compare_layers(a_dir, b_dir)?)
}

/// The per-layer table and the exact-count check; `Ok(false)` when two
/// runs of one seed disagree on an exact count, or when a workload has no
/// traced runs of one seed in both sets to check.
fn compare_layers(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let mut exact_ok = true;
    println!(
        "\n{:<16} {:<36} {:>14} {:>14} {:>8}  unit",
        "workload", "per-layer metric", "A median", "B median", "change"
    );
    for workload in spec::workload_names() {
        let a_runs = load_runs(a_dir, "layers-", workload)?;
        let b_runs = load_runs(b_dir, "layers-", workload)?;
        for metric in &spec::PER_LAYER {
            let (_, a, _) = stats::quartiles(&metric_values(&a_runs, metric.name));
            let (_, b, _) = stats::quartiles(&metric_values(&b_runs, metric.name));
            if a != 0.0 || b != 0.0 {
                println!(
                    "{workload:<16} {:<36} {a:>14.4} {b:>14.4} {:>+7.1}%  {}",
                    metric.name,
                    (b - a) / a.abs().max(f64::MIN_POSITIVE) * 100.0,
                    metric.unit,
                );
            }
        }
        let seed_of = |run: &Json| run.get("seed").and_then(Json::as_f64);
        let value_of =
            |run: &Json, name: &str| metric_values(std::slice::from_ref(run), name).pop();
        let mut pairs = 0;
        for a in &a_runs {
            for b in b_runs.iter().filter(|b| seed_of(b) == seed_of(a)) {
                pairs += 1;
                for metric in spec::PER_LAYER.iter().filter(|m| m.exact) {
                    let (va, vb) = (value_of(a, metric.name), value_of(b, metric.name));
                    if va != vb {
                        exact_ok = false;
                        println!(
                            "{workload}: exact count {} differs on seed {:?}: {va:?} vs {vb:?}",
                            metric.name,
                            seed_of(a)
                        );
                    }
                }
            }
        }
        // A check that compared nothing has not passed.
        if pairs == 0 {
            exact_ok = false;
            println!(
                "{workload}: exact counts NOT checked: no traced runs of one seed in both sets"
            );
        } else {
            println!("{workload}: exact counts compared on {pairs} same-seed pairs of traced runs");
        }
    }
    Ok(exact_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> &'static EndToEnd {
        spec::end_to_end("op_s_p50").unwrap()
    }

    fn higher() -> &'static EndToEnd {
        spec::end_to_end("goodput_qps").unwrap()
    }

    #[test]
    fn steady_sides_within_the_bound_are_unchanged() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.05, 1.04, 1.06, 1.05, 1.03];
        assert_eq!(judge(lower(), &a, &b), Verdict::Unchanged);
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slow = [1.40, 1.41, 1.39, 1.42, 1.40];
        let fast = [0.60, 0.61, 0.59, 0.60, 0.62];
        assert_eq!(judge(lower(), &a, &slow), Verdict::Worse);
        assert_eq!(judge(lower(), &a, &fast), Verdict::Better);
        assert_eq!(judge(higher(), &a, &slow), Verdict::Better);
        assert_eq!(judge(higher(), &a, &fast), Verdict::Worse);
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_whatever_b_says() {
        let a = [0.7, 1.0, 1.3, 0.8, 1.2];
        let b = [2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(judge(lower(), &a, &b), Verdict::Unresolved);
    }

    #[test]
    fn single_runs_compare_by_value() {
        assert_eq!(judge(lower(), &[1.0], &[1.05]), Verdict::Unchanged);
        assert_eq!(judge(lower(), &[1.0], &[1.5]), Verdict::Worse);
    }
}
