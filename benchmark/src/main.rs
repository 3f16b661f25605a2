//! Command line of the repo benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! benchmark run (--all | --workload W) [--seed N] [--seconds S] [--runs N]
//!               [--smoke] [--out DIR]
//! benchmark compare A/ B/
//! benchmark spec
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the result object the benchmark driver
//! reads. `run` starts one such process per workload and mode.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sqlml_benchmark::harness::{self, RunArgs};
use sqlml_benchmark::{compare, run_workload, spec};

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
  benchmark run (--all | --workload W) [--seed N] [--seconds S] [--runs N] [--smoke] [--out DIR]
  benchmark compare A/ B/
  benchmark spec          (prints BENCHMARK.json from the metric tables)";

/// Window of the traced run `run` makes after each measurement; short,
/// because a traced run re-enacts at least `harness::MIN_TRACED_OPS`
/// operations however short its window.
const TRACED_SECONDS: f64 = 5.0;

fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs and bare switches, in any order.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(argv: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < argv.len() {
            let flag = &argv[i];
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag:?}"));
            }
            if switches.contains(&flag.as_str()) {
                flags.switches.push(flag.clone());
                i += 1;
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} takes a value"))?;
                flags.pairs.push((flag.clone(), value.clone()));
                i += 2;
            }
        }
        Ok(flags)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a number, got {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

/// One run in this process.
fn single(argv: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(argv, &["--smoke"])?;
    flags.only(&["--workload", "--seed", "--seconds", "--trace", "--out"])?;
    let workload = flags.get("--workload").ok_or("--workload is required")?;
    if !spec::workload_names().contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            spec::workload_names()
        ));
    }
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let seconds: f64 = flags.num("--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let args = RunArgs {
        workload: workload.to_string(),
        seed: flags.num("--seed", 42u64)?,
        seconds,
        trace,
        smoke: flags.has("--smoke"),
        out_dir: flags.get("--out").map_or_else(default_out, PathBuf::from),
    };

    // The transfer layer spills send buffers under the system temp
    // directory; keep that inside the benchmark's own output directory.
    // Set before any thread exists.
    let tmp = args.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let outcome = run_workload(&args);
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = outcome?;

    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "{} seed {} ({mode}): {} carts, {} operations in {:.2} s, {} attempted, {} failed",
        args.workload,
        args.seed,
        outcome.scale.carts,
        outcome.ops,
        outcome.window_s,
        outcome.gate.attempted,
        outcome.gate.failed
    );
    if let Some(obj) = harness::metrics_json(&outcome.metrics).as_obj() {
        for (name, m) in obj {
            let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }
    println!(
        "  {:<40} {:>16.6} ratio",
        "failed_share",
        outcome.gate.failed_share()
    );
    for why in &outcome.gate.failures {
        eprintln!("  FAILED {why}");
    }
    harness::write_result_files(&args, &outcome).map_err(|e| format!("writing results: {e}"))?;
    println!("{}", harness::result_line(&outcome));
    Ok(if outcome.gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One process per workload and mode: the untraced measurement, then the
/// short traced run.
fn run_suite(argv: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(argv, &["--all", "--smoke"])?;
    flags.only(&["--workload", "--seed", "--seconds", "--runs", "--out"])?;
    let workloads: Vec<&str> = match (flags.has("--all"), flags.get("--workload")) {
        (true, None) => spec::workload_names(),
        (false, Some(w)) => vec![w],
        _ => return Err("run takes exactly one of --all and --workload W".into()),
    };
    let seed: u64 = flags.num("--seed", 42)?;
    let seconds: f64 = flags.num("--seconds", spec::RUN_SECONDS as f64)?;
    let runs: usize = flags.num("--runs", 1)?;
    let out = flags.get("--out").map_or_else(default_out, PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut all_ok = true;
    for run in 0..runs.max(1) {
        let dir = if runs > 1 {
            out.join(format!("run-{:02}", run + 1))
        } else {
            out.clone()
        };
        for workload in &workloads {
            for (trace, secs) in [("0", seconds), ("1", TRACED_SECONDS)] {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &(seed + run as u64).to_string()])
                    .args(["--seconds", &secs.to_string()])
                    .arg("--out")
                    .arg(&dir);
                if flags.has("--smoke") {
                    child.arg("--smoke");
                }
                let status = child
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !status.success() {
                    eprintln!("{workload} (--trace {trace}) exited with {status}");
                    all_ok = false;
                }
            }
        }
    }
    println!("results in {}", out.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run_suite(&argv[1..]),
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)).map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("compare takes two result-set directories".into()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => single(&argv),
        _ => Err(USAGE.into()),
    };
    result.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
