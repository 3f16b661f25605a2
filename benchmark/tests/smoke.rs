//! End-to-end check of the benchmark itself: `--smoke` runs of every
//! workload in both modes, twice with one seed, through the real binary
//! and the real command line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use sqlml_benchmark::json::Json;
use sqlml_benchmark::spec;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One `--smoke` run; returns the parsed last line of standard output.
fn smoke(workload: &str, trace: bool, out: &Path) -> Json {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--out"])
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line ({e}): {last}"))
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
            (name.clone(), m.get("value").and_then(Json::as_f64).unwrap())
        })
        .collect()
}

fn check_result_shape(result: &Json, workload: &str) {
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        text,
        spec::benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with `benchmark spec > BENCHMARK.json`"
    );
    let doc = Json::parse(&text).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let len = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().len();
    assert!((2..=8).contains(&len("workloads")));
    assert!((1..=16).contains(&len("end_to_end")));
    assert!((1..=128).contains(&len("per_layer")));
    assert!(len("command") <= 32);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // The driver makes 4 + 22 x workloads runs and two builds inside
    // 3420 s; a run takes up to 9 s more than its window (explore-session).
    let runs = 4 + 22 * len("workloads");
    assert!(runs as f64 * (seconds + 9.0) < 3420.0 - 300.0);
}

#[test]
fn smoke_runs_emit_every_metric_and_repeat_exact_counts() {
    let (first, second) = (out_dir("a"), out_dir("b"));
    for workload in spec::workload_names() {
        let mut layers = Vec::new();
        for out in [&first, &second] {
            let e2e = smoke(workload, false, out);
            check_result_shape(&e2e, workload);
            let values = metric_values(&e2e);
            let names: Vec<&str> = values.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{workload}: end-to-end metric set");
            for (name, v) in &values {
                assert!(v.is_finite() && *v > 0.0, "{workload}: {name} = {v}");
            }

            let traced = smoke(workload, true, out);
            check_result_shape(&traced, workload);
            let values = metric_values(&traced);
            let names: Vec<&str> = values.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{workload}: per-layer metric set");
            assert!(values.values().all(|v| v.is_finite()), "{workload}");
            assert!(values["trace.reenact_ratio"] > 0.0, "{workload}");
            layers.push(values);

            for file in [
                format!("{workload}.json"),
                format!("layers-{workload}.json"),
                format!("trace-{workload}.jsonl"),
            ] {
                assert!(out.join(&file).is_file(), "{file} not written");
            }
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            assert_eq!(
                layers[0][m.name], layers[1][m.name],
                "{workload}: exact count {} differs between two runs of one seed",
                m.name
            );
        }

        // The result file records what is needed to repeat the run.
        let doc =
            Json::parse(&std::fs::read_to_string(first.join(format!("{workload}.json"))).unwrap())
                .unwrap();
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
        for key in [
            "git_rev", "nproc", "carts", "users", "repeats", "window_s", "timings",
        ] {
            assert!(doc.get(key).is_some(), "{workload}.json lacks {key}");
        }
        // Every trace line is a span or a count.
        let trace = std::fs::read_to_string(first.join(format!("trace-{workload}.jsonl"))).unwrap();
        assert!(trace.lines().count() > 0);
        for line in trace.lines() {
            let v = Json::parse(line).unwrap();
            assert!(
                v.get("name").is_some() || v.get("count").is_some(),
                "{line}"
            );
        }
    }

    // Both result sets are complete, so `compare` can judge them: exit 0
    // (no regression) or 1 (smoke timings are noise), never a usage or
    // read error.
    let output = Command::new(BIN)
        .arg("compare")
        .args([&first, &second])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&output.stdout);
    assert!(matches!(output.status.code(), Some(0 | 1)), "{table}");
    for workload in spec::workload_names() {
        for m in &spec::END_TO_END {
            assert!(
                table
                    .lines()
                    .any(|l| l.starts_with(workload) && l.contains(m.name)),
                "no row for {} on {workload}:\n{table}",
                m.name
            );
        }
        assert!(
            table.contains(&format!(
                "{workload}: exact counts compared on 1 same-seed pair"
            )),
            "{table}"
        );
    }

    // A set without traced runs leaves the exact counts unchecked, and
    // `compare` says so instead of passing.
    let untraced = out_dir("c");
    std::fs::create_dir_all(&untraced).unwrap();
    for workload in spec::workload_names() {
        let file = format!("{workload}.json");
        std::fs::copy(second.join(&file), untraced.join(&file)).unwrap();
    }
    let output = Command::new(BIN)
        .arg("compare")
        .args([&first, &untraced])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "{table}");
    assert!(table.contains("exact counts NOT checked"), "{table}");
}

#[test]
fn bad_arguments_are_refused_before_anything_runs() {
    for args in [
        vec![
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "naive-batch", "--seed", "x"],
        vec!["--workload", "naive-batch", "--trace", "2"],
        vec!["--workload", "naive-batch", "--seconds", "0"],
        vec!["compare", "only-one-dir"],
        vec![],
    ] {
        let output = Command::new(BIN).args(&args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
