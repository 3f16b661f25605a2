//! Offline shim for the `criterion` API surface this workspace uses.
//!
//! The build environment has no crate registry, so the real criterion is
//! replaced by this small measurement harness: per benchmark it
//! calibrates an iteration count to a fixed sample budget, collects
//! `sample_size` samples, and reports the median per-iteration time plus
//! throughput when configured. Output is plain text, one line per
//! benchmark — stable enough to paste into EXPERIMENTS.md. As with
//! criterion, `cargo bench --bench NAME -- FILTER` runs only the
//! benchmarks whose id (`group/name`) contains `FILTER`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-sample measurement budget. Small enough that a full `cargo bench`
/// sweep stays in seconds, large enough to dominate timer overhead.
const SAMPLE_BUDGET: Duration = Duration::from_millis(2);

#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Top-level harness configuration + entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    /// Only benchmarks whose id contains this run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            filter: None,
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(3);
        self
    }

    /// Run only the benchmarks whose id (`group/name`, or `name` outside
    /// a group) contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Take the filter from the command line, as criterion does: the
    /// first argument that is not a flag (`cargo bench` adds `--bench`).
    pub fn configure_from_args(self) -> Self {
        match filter_arg(std::env::args().skip(1)) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("group {name}");
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            throughput: None,
            filter: self.filter.clone(),
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        if selects(&self.filter, name) {
            run_benchmark(name, self.sample_size, None, f);
        }
        self
    }
}

/// The first argument that is not a flag.
fn filter_arg(mut args: impl Iterator<Item = String>) -> Option<String> {
    args.find(|a| !a.starts_with('-'))
}

fn selects(filter: &Option<String>, id: &str) -> bool {
    filter.as_ref().is_none_or(|f| id.contains(f.as_str()))
}

/// A named group of benchmarks sharing a throughput setting.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    filter: Option<String>,
}

impl BenchmarkGroup {
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        if selects(&self.filter, &format!("{}/{name}", self.name)) {
            run_benchmark(name, self.sample_size, self.throughput, f);
        }
        self
    }

    pub fn finish(self) {}
}

/// Passed to each benchmark closure; `iter` runs the measured routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    // Calibrate: grow the iteration count until one sample fills the budget.
    let mut iters: u64 = 1;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= SAMPLE_BUDGET || iters >= 1 << 20 {
            break;
        }
        iters = if b.elapsed.is_zero() {
            iters * 16
        } else {
            // Aim for ~1.5x the budget so most samples land above it.
            let scale = SAMPLE_BUDGET.as_secs_f64() * 1.5 / b.elapsed.as_secs_f64();
            (iters as f64 * scale.clamp(1.1, 16.0)).ceil() as u64
        };
    }

    let mut per_iter_ns: Vec<f64> = (0..sample_size)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter_ns[per_iter_ns.len() / 2];

    let rate = match throughput {
        Some(Throughput::Bytes(bytes)) => {
            let gib_per_s = bytes as f64 / median * 1e9 / (1u64 << 30) as f64;
            format!("  {gib_per_s:8.3} GiB/s")
        }
        Some(Throughput::Elements(n)) => {
            let melem_per_s = n as f64 / median * 1e9 / 1e6;
            format!(
                "  {melem_per_s:8.3} Melem/s  {:7.2} ns/elem",
                median / n as f64
            )
        }
        None => String::new(),
    };
    println!("  {name:<40} {}{rate}", format_ns(median));
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:9.1} ns/iter")
    } else if ns < 1e6 {
        format!("{:9.2} us/iter", ns / 1e3)
    } else {
        format!("{:9.3} ms/iter", ns / 1e6)
    }
}

/// Expands to a function running every target with the given config and
/// the command line's filter.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            $(
                let mut c: $crate::Criterion = $config.configure_from_args();
                $target(&mut c);
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Expands to `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("sum_to_100", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.finish();
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().sample_size(3);
        targets = quick
    }

    #[test]
    fn harness_runs_a_group_end_to_end() {
        benches();
    }

    #[test]
    fn a_filter_runs_only_the_benchmarks_whose_id_contains_it() {
        let ran = std::cell::RefCell::new(Vec::new());
        let mut c = Criterion::default().sample_size(3).with_filter("hot/naive");
        let mut group = c.benchmark_group("hot");
        for name in ["naive_job1", "join", "naive_job2"] {
            group.bench_function(name, |b| {
                ran.borrow_mut().push(name);
                b.iter(|| 1)
            });
        }
        group.finish();
        // Outside a group the id is the name alone.
        c.bench_function("naive_job3", |b| {
            ran.borrow_mut().push("naive_job3");
            b.iter(|| 1)
        });
        let mut ran = ran.into_inner();
        ran.dedup();
        assert_eq!(ran, ["naive_job1", "naive_job2"]);

        let mut everything = Criterion::default().sample_size(3);
        let mut runs = 0;
        everything.bench_function("any", |b| {
            runs += 1;
            b.iter(|| 1)
        });
        assert!(runs > 0);
    }

    #[test]
    fn the_filter_is_the_first_argument_that_is_not_a_flag() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_arg(args(&["--bench"]).into_iter()), None);
        assert_eq!(
            filter_arg(args(&["--bench", "naive", "join"]).into_iter()),
            Some("naive".to_string())
        );
        assert_eq!(filter_arg(args(&[]).into_iter()), None);
    }

    #[test]
    fn formatting_covers_all_ranges() {
        assert!(format_ns(5.0).contains("ns/iter"));
        assert!(format_ns(5e4).contains("us/iter"));
        assert!(format_ns(5e7).contains("ms/iter"));
    }
}
