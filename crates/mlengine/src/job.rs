//! The job runner: split scheduling, parallel ingestion, and training
//! dispatch.
//!
//! A job is launched with an [`InputFormat`] and a [`TrainingSpec`] (the
//! "command and arguments" the paper's coordinator forwards). The runner
//!
//! 1. asks the format for its splits (`m = n·k` for a SQL stream),
//! 2. assigns splits to the `n` ML workers **preferring colocated
//!    workers** (split locations vs. worker nodes — step 3 of the paper's
//!    Figure 2),
//! 3. has each worker drain its splits through `RecordReader`s in
//!    parallel, each filling its partition of the in-memory [`Dataset`]
//!    (the RDD analogue) as numbers while it reads, and
//! 4. trains the requested algorithm on the dataset.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_common::{Result, SqlmlError};

use crate::dataset::{Dataset, PartitionBlock};
use crate::input::{InputFormat, InputSplit};
use crate::kmeans::{KMeansModel, KMeansTrainer};
use crate::linreg::{LinRegModel, LinRegTrainer};
use crate::logreg::{LogRegModel, LogRegTrainer};
use crate::naive_bayes::{NaiveBayesModel, NaiveBayesTrainer};
use crate::svm::{SvmModel, SvmTrainer};
use crate::tree::{TreeModel, TreeTrainer};

/// ML cluster configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Number of ML workers (the paper ran 6 Spark workers per server).
    pub num_workers: usize,
    /// Node names hosting the workers (worker `i` lives on
    /// `worker_nodes[i % len]`). Empty means synthetic `node-i` names.
    pub worker_nodes: Vec<String>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            num_workers: 4,
            worker_nodes: Vec::new(),
        }
    }
}

impl JobConfig {
    pub fn worker_node(&self, worker: usize) -> String {
        if self.worker_nodes.is_empty() {
            sqlml_dfs::node_name(worker)
        } else {
            self.worker_nodes[worker % self.worker_nodes.len()].clone()
        }
    }
}

/// What happened during ingestion — the measurements behind the paper's
/// "input for ml" bars.
#[derive(Debug, Clone)]
pub struct IngestReport {
    pub num_splits: usize,
    /// Splits whose assigned worker's node was in the split's preferred
    /// locations (data-local reads).
    pub local_splits: usize,
    pub rows: usize,
    pub duration: Duration,
}

/// The training command: algorithm + hyper-parameters + label column.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainingSpec {
    SvmSgd {
        label_col: usize,
        iterations: usize,
        step_size: f64,
        reg_param: f64,
        mini_batch_fraction: f64,
    },
    LogReg {
        label_col: usize,
        iterations: usize,
        step_size: f64,
        reg_param: f64,
    },
    LinReg {
        label_col: usize,
        iterations: usize,
        step_size: f64,
    },
    NaiveBayes {
        label_col: usize,
    },
    DecisionTree {
        label_col: usize,
        max_depth: usize,
    },
    KMeans {
        k: usize,
        max_iterations: usize,
    },
}

impl TrainingSpec {
    /// Parse a command string like
    /// `svm label=3 iterations=50 step=1.0 reg=0.01` — the "command and
    /// arguments of the target ML algorithm" that flow through the
    /// coordinator protocol.
    pub fn parse(command: &str) -> Result<TrainingSpec> {
        let mut parts = command.split_whitespace();
        let algo = parts
            .next()
            .ok_or_else(|| SqlmlError::Ml("empty ML command".into()))?;
        let mut kv: HashMap<&str, &str> = HashMap::new();
        for p in parts {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| SqlmlError::Ml(format!("bad ML argument {p:?}")))?;
            kv.insert(k, v);
        }
        let get_usize = |k: &str, default: usize| -> Result<usize> {
            kv.get(k)
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|e| SqlmlError::Ml(format!("bad {k}: {e}")))
                })
                .unwrap_or(Ok(default))
        };
        let get_f64 = |k: &str, default: f64| -> Result<f64> {
            kv.get(k)
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|e| SqlmlError::Ml(format!("bad {k}: {e}")))
                })
                .unwrap_or(Ok(default))
        };
        match algo.to_ascii_lowercase().as_str() {
            "svm" => Ok(TrainingSpec::SvmSgd {
                label_col: get_usize("label", 0)?,
                iterations: get_usize("iterations", 100)?,
                step_size: get_f64("step", 1.0)?,
                reg_param: get_f64("reg", 0.01)?,
                mini_batch_fraction: get_f64("batch", 1.0)?,
            }),
            "logreg" => Ok(TrainingSpec::LogReg {
                label_col: get_usize("label", 0)?,
                iterations: get_usize("iterations", 200)?,
                step_size: get_f64("step", 1.0)?,
                reg_param: get_f64("reg", 0.001)?,
            }),
            "linreg" => Ok(TrainingSpec::LinReg {
                label_col: get_usize("label", 0)?,
                iterations: get_usize("iterations", 300)?,
                step_size: get_f64("step", 0.1)?,
            }),
            "naivebayes" | "nb" => Ok(TrainingSpec::NaiveBayes {
                label_col: get_usize("label", 0)?,
            }),
            "tree" => Ok(TrainingSpec::DecisionTree {
                label_col: get_usize("label", 0)?,
                max_depth: get_usize("depth", 5)?,
            }),
            "kmeans" => Ok(TrainingSpec::KMeans {
                k: get_usize("k", 2)?,
                max_iterations: get_usize("iterations", 50)?,
            }),
            other => Err(SqlmlError::Ml(format!("unknown ML algorithm {other:?}"))),
        }
    }

    /// The label column this spec trains against (k-means is
    /// unsupervised; it uses column 0 as a feature like any other — the
    /// runner treats its `label_col` as "none").
    pub fn label_col(&self) -> Option<usize> {
        match self {
            TrainingSpec::SvmSgd { label_col, .. }
            | TrainingSpec::LogReg { label_col, .. }
            | TrainingSpec::LinReg { label_col, .. }
            | TrainingSpec::NaiveBayes { label_col }
            | TrainingSpec::DecisionTree { label_col, .. } => Some(*label_col),
            TrainingSpec::KMeans { .. } => None,
        }
    }
}

/// A trained model of any supported kind.
#[derive(Debug, Clone)]
pub enum TrainedModel {
    Svm(SvmModel),
    LogReg(LogRegModel),
    LinReg(LinRegModel),
    NaiveBayes(NaiveBayesModel),
    Tree(TreeModel),
    KMeans(KMeansModel),
}

impl TrainedModel {
    /// Predict a label / value / cluster id for one feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        match self {
            TrainedModel::Svm(m) => m.predict(features),
            TrainedModel::LogReg(m) => m.predict(features),
            TrainedModel::LinReg(m) => m.predict(features),
            TrainedModel::NaiveBayes(m) => m.predict(features),
            TrainedModel::Tree(m) => m.predict(features),
            TrainedModel::KMeans(m) => m.predict(features) as f64,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            TrainedModel::Svm(_) => "svm",
            TrainedModel::LogReg(_) => "logreg",
            TrainedModel::LinReg(_) => "linreg",
            TrainedModel::NaiveBayes(_) => "naivebayes",
            TrainedModel::Tree(_) => "tree",
            TrainedModel::KMeans(_) => "kmeans",
        }
    }
}

/// Outcome of a full job: the model plus stage timings.
#[derive(Debug)]
pub struct JobOutcome {
    pub model: TrainedModel,
    pub ingest: IngestReport,
    pub train_duration: Duration,
}

/// The splits one ML worker reads.
type WorkerSplits = Vec<Arc<dyn InputSplit>>;

/// Runs ML jobs against a fixed cluster configuration.
#[derive(Debug, Clone, Default)]
pub struct JobRunner {
    pub config: JobConfig,
}

impl JobRunner {
    pub fn new(config: JobConfig) -> Self {
        JobRunner { config }
    }

    /// Assign splits to workers, preferring locality; returns per-worker
    /// split lists and the number of local assignments.
    fn assign_splits(
        &self,
        splits: Vec<Arc<dyn InputSplit>>,
    ) -> Result<(Vec<WorkerSplits>, usize)> {
        let n = self.config.num_workers;
        if n == 0 {
            return Err(SqlmlError::Ml(
                "an ML job needs at least one worker (num_workers is 0)".into(),
            ));
        }
        let nodes: Vec<String> = (0..n).map(|w| self.config.worker_node(w)).collect();
        let mut assigned: Vec<WorkerSplits> = (0..n).map(|_| Vec::new()).collect();
        let mut local = 0usize;
        for split in splits {
            let locations = split.locations();
            // Least-loaded among colocated workers, else least-loaded.
            let colocated = (0..n)
                .filter(|w| locations.iter().any(|l| *l == nodes[*w]))
                .min_by_key(|w| assigned[*w].len());
            let target = match colocated {
                Some(w) => {
                    local += 1;
                    w
                }
                // lint:allow(panic) n is the worker count, checked > 0 above
                None => (0..n).min_by_key(|w| assigned[*w].len()).expect("n > 0"),
            };
            assigned[target].push(split);
        }
        Ok((assigned, local))
    }

    /// Ingest through the format into a [`Dataset`], one partition per
    /// worker, with the given label column (`None` treats every column as
    /// a feature with label 0 — the unsupervised path). Rows become
    /// numbers on the thread that reads them, so the report's `duration`
    /// covers everything between the format and the trainable dataset.
    pub fn ingest_dataset(
        &self,
        format: &dyn InputFormat,
        label_col: Option<usize>,
    ) -> Result<(Dataset, IngestReport)> {
        let start = Instant::now();
        let splits = format.get_splits()?;
        let num_splits = splits.len();
        let (assigned, local_splits) = self.assign_splits(splits)?;
        let worker_nodes: Vec<String> = (0..self.config.num_workers)
            .map(|w| self.config.worker_node(w))
            .collect();

        // Each worker drains its splits on its own thread, and reads its
        // splits concurrently (one reader task per split, as a real
        // executor runs multiple tasks). Concurrency matters for
        // streaming formats: a sender may wait for *all* its readers to
        // connect before emitting anything, so sequential reads would
        // deadlock the rendezvous. Every reader task fills its own block;
        // the worker joins them in split order.
        let blocks = std::thread::scope(|scope| -> Result<Vec<PartitionBlock>> {
            let handles: Vec<_> = assigned
                .into_iter()
                .enumerate()
                .map(|(w, splits)| {
                    let node = &worker_nodes[w];
                    scope.spawn(move || -> Result<PartitionBlock> {
                        let blocks = std::thread::scope(|inner| -> Result<Vec<PartitionBlock>> {
                            let readers: Vec<_> = splits
                                .iter()
                                .map(|s| {
                                    inner.spawn(move || -> Result<PartitionBlock> {
                                        let mut block = PartitionBlock::new(label_col);
                                        let mut reader = format.create_reader(s.as_ref(), node)?;
                                        while reader.next_batch(&mut block)? > 0 {}
                                        Ok(block)
                                    })
                                })
                                .collect();
                            readers
                                .into_iter()
                                .map(|h| {
                                    h.join().map_err(|_| {
                                        SqlmlError::Ml("split reader panicked".into())
                                    })?
                                })
                                .collect()
                        })?;
                        let mut partition = PartitionBlock::new(label_col);
                        for block in blocks {
                            partition.append(block)?;
                        }
                        Ok(partition)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| SqlmlError::Ml("ML worker thread panicked".into()))?
                })
                .collect()
        })?;

        let rows = blocks.iter().map(PartitionBlock::len).sum();
        let dataset = Dataset::from_blocks(blocks)?;
        Ok((
            dataset,
            IngestReport {
                num_splits,
                local_splits,
                rows,
                duration: start.elapsed(),
            },
        ))
    }

    /// Full job: ingest + train.
    pub fn run(&self, format: &dyn InputFormat, spec: &TrainingSpec) -> Result<JobOutcome> {
        let (dataset, ingest) = self.ingest_dataset(format, spec.label_col())?;
        let start = Instant::now();
        let model = self.train(&dataset, spec)?;
        Ok(JobOutcome {
            model,
            ingest,
            train_duration: start.elapsed(),
        })
    }

    /// Train on an already-ingested dataset.
    ///
    /// For the binary classifiers, label sets of exactly two distinct
    /// values are normalized onto {0, 1} by label order — so data whose
    /// label column was *recoded* (consecutive codes starting at 1, per
    /// §2.1) trains without an extra shift step, just as an MLlib user
    /// would remap a 1/2-coded class column.
    pub fn train(&self, dataset: &Dataset, spec: &TrainingSpec) -> Result<TrainedModel> {
        let dataset = match spec {
            TrainingSpec::SvmSgd { .. } | TrainingSpec::LogReg { .. } => {
                std::borrow::Cow::Owned(binarize_labels(dataset))
            }
            _ => std::borrow::Cow::Borrowed(dataset),
        };
        let dataset: &Dataset = &dataset;
        Ok(match spec {
            TrainingSpec::SvmSgd {
                iterations,
                step_size,
                reg_param,
                mini_batch_fraction,
                ..
            } => TrainedModel::Svm(
                SvmTrainer {
                    iterations: *iterations,
                    step_size: *step_size,
                    reg_param: *reg_param,
                    scale_features: true,
                    mini_batch_fraction: *mini_batch_fraction,
                }
                .train(dataset)?,
            ),
            TrainingSpec::LogReg {
                iterations,
                step_size,
                reg_param,
                ..
            } => TrainedModel::LogReg(
                LogRegTrainer {
                    iterations: *iterations,
                    step_size: *step_size,
                    reg_param: *reg_param,
                    scale_features: true,
                }
                .train(dataset)?,
            ),
            TrainingSpec::LinReg {
                iterations,
                step_size,
                ..
            } => TrainedModel::LinReg(
                LinRegTrainer {
                    iterations: *iterations,
                    step_size: *step_size,
                    reg_param: 0.0,
                }
                .train(dataset)?,
            ),
            TrainingSpec::NaiveBayes { .. } => {
                TrainedModel::NaiveBayes(NaiveBayesTrainer.train(dataset)?)
            }
            TrainingSpec::DecisionTree { max_depth, .. } => TrainedModel::Tree(
                TreeTrainer {
                    max_depth: *max_depth,
                    ..Default::default()
                }
                .train(dataset)?,
            ),
            TrainingSpec::KMeans { k, max_iterations } => TrainedModel::KMeans(
                KMeansTrainer {
                    k: *k,
                    max_iterations: *max_iterations,
                    ..Default::default()
                }
                .train(dataset)?,
            ),
        })
    }
}

/// Map a two-valued label set onto {0, 1} (smaller label → 0). Datasets
/// already labeled {0, 1} pass through unchanged (and unclassifiable
/// label sets are left for the trainer's own validation to reject).
fn binarize_labels(data: &Dataset) -> Dataset {
    let labels = data.labels();
    if labels == [0.0, 1.0] || labels.len() > 2 {
        return data.clone();
    }
    // Degenerate single-class data: call it class 0.
    let one = labels.get(1).copied();
    data.map_labels(|l| if Some(l) == one { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::MemoryInputFormat;
    use sqlml_common::{row, Row, SplitMix64};

    fn blob_format(parts: usize, n: usize, seed: u64) -> MemoryInputFormat {
        let mut rng = SplitMix64::new(seed);
        let mut partitions: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
        for i in 0..n {
            let cls = (i % 2) as i64;
            let c = if cls == 0 { -2.0 } else { 2.0 };
            partitions[i % parts].push(row![
                c + rng.next_gaussian() * 0.4,
                c + rng.next_gaussian() * 0.4,
                cls
            ]);
        }
        MemoryInputFormat::new(partitions)
    }

    #[test]
    fn command_parsing() {
        assert_eq!(
            TrainingSpec::parse("svm label=2 iterations=50 step=0.5 reg=0.1 batch=0.25").unwrap(),
            TrainingSpec::SvmSgd {
                label_col: 2,
                iterations: 50,
                step_size: 0.5,
                reg_param: 0.1,
                mini_batch_fraction: 0.25
            }
        );
        assert_eq!(
            TrainingSpec::parse("kmeans k=3").unwrap(),
            TrainingSpec::KMeans {
                k: 3,
                max_iterations: 50
            }
        );
        assert!(TrainingSpec::parse("quantum label=1").is_err());
        assert!(TrainingSpec::parse("svm label").is_err());
        assert!(TrainingSpec::parse("").is_err());
    }

    #[test]
    fn end_to_end_svm_job_through_input_format() {
        let fmt = blob_format(3, 300, 51);
        let runner = JobRunner::new(JobConfig {
            num_workers: 3,
            ..Default::default()
        });
        let spec = TrainingSpec::parse("svm label=2 iterations=60").unwrap();
        let outcome = runner.run(&fmt, &spec).unwrap();
        assert_eq!(outcome.ingest.rows, 300);
        assert_eq!(outcome.model.kind(), "svm");
        // Model must separate the blobs.
        assert_eq!(outcome.model.predict(&[2.0, 2.0]), 1.0);
        assert_eq!(outcome.model.predict(&[-2.0, -2.0]), 0.0);
    }

    #[test]
    fn locality_aware_assignment_prefers_colocated_workers() {
        // 4 splits homed on node-0..node-3; 4 workers on the same nodes.
        let fmt = blob_format(4, 40, 53);
        let runner = JobRunner::new(JobConfig {
            num_workers: 4,
            worker_nodes: (0..4).map(sqlml_dfs::node_name).collect(),
        });
        let (_, report) = runner.ingest_dataset(&fmt, Some(2)).unwrap();
        assert_eq!(report.num_splits, 4);
        assert_eq!(report.local_splits, 4, "all splits should read locally");
    }

    #[test]
    fn misaligned_nodes_yield_no_local_splits() {
        let fmt = blob_format(4, 40, 55); // splits on node-0..3
        let runner = JobRunner::new(JobConfig {
            num_workers: 4,
            worker_nodes: (10..14).map(sqlml_dfs::node_name).collect(),
        });
        let (_, report) = runner.ingest_dataset(&fmt, Some(2)).unwrap();
        assert_eq!(report.local_splits, 0);
        assert_eq!(report.rows, 40);
    }

    #[test]
    fn more_splits_than_workers_balances_load() {
        let fmt = blob_format(8, 80, 57);
        let runner = JobRunner::new(JobConfig {
            num_workers: 2,
            worker_nodes: vec!["node-0".into(), "node-1".into()],
        });
        let (data, report) = runner.ingest_dataset(&fmt, Some(2)).unwrap();
        assert_eq!(data.num_partitions(), 2);
        assert_eq!(report.num_splits, 8);
        let (a, b) = (data.partition(0).len(), data.partition(1).len());
        assert_eq!((a + b, report.rows), (80, 80));
        // Neither worker should be starved.
        assert!(a >= 30 && b >= 30);
    }

    #[test]
    fn a_worker_joins_its_splits_in_split_order() {
        // Four one-row splits on one worker: the partition is the splits
        // concatenated in the order the format listed them.
        let parts = (0..4).map(|i| vec![row![f64::from(i), 0.5, 1i64]]);
        let fmt = MemoryInputFormat::new(parts.collect());
        let runner = JobRunner::new(JobConfig {
            num_workers: 1,
            ..Default::default()
        });
        let (data, _) = runner.ingest_dataset(&fmt, Some(2)).unwrap();
        let firsts: Vec<f64> = data.iter().map(|p| p.features[0]).collect();
        assert_eq!(firsts, [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn a_job_without_workers_is_an_error_not_a_panic() {
        let fmt = MemoryInputFormat::new(vec![vec![row![1.0, 1.0, 0i64]; 2]]);
        let runner = JobRunner::new(JobConfig {
            num_workers: 0,
            ..Default::default()
        });
        let err = runner.ingest_dataset(&fmt, Some(2)).unwrap_err();
        assert!(matches!(err, SqlmlError::Ml(_)), "{err}");
        assert!(err.to_string().contains("num_workers"), "{err}");
        let spec = TrainingSpec::parse("svm label=2").unwrap();
        assert!(matches!(runner.run(&fmt, &spec), Err(SqlmlError::Ml(_))));
    }

    #[test]
    fn kmeans_job_is_unsupervised() {
        let fmt = blob_format(2, 100, 59);
        let runner = JobRunner::new(JobConfig {
            num_workers: 2,
            ..Default::default()
        });
        let outcome = runner
            .run(
                &fmt,
                &TrainingSpec::parse("kmeans k=2 iterations=30").unwrap(),
            )
            .unwrap();
        match outcome.model {
            TrainedModel::KMeans(m) => {
                // Features are (x, y, label); the blobs sit at ±2.
                assert_eq!(m.centroids.len(), 2);
            }
            other => panic!("unexpected model {other:?}"),
        }
    }

    #[test]
    fn recoded_one_two_labels_train_binary_classifiers() {
        // Labels 1/2, the output of §2.1 recoding.
        let mut rng = SplitMix64::new(67);
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                let cls = (i % 2) as i64; // 0 or 1
                let c = if cls == 0 { -2.0 } else { 2.0 };
                row![
                    c + rng.next_gaussian() * 0.3,
                    c + rng.next_gaussian() * 0.3,
                    cls + 1 // recoded: 1 or 2
                ]
            })
            .collect();
        let fmt = MemoryInputFormat::new(vec![rows]);
        let runner = JobRunner::new(JobConfig {
            num_workers: 1,
            ..Default::default()
        });
        let outcome = runner
            .run(
                &fmt,
                &TrainingSpec::parse("svm label=2 iterations=50").unwrap(),
            )
            .unwrap();
        // Class "2" (around +2) maps to 1.
        assert_eq!(outcome.model.predict(&[2.0, 2.0]), 1.0);
        assert_eq!(outcome.model.predict(&[-2.0, -2.0]), 0.0);
    }

    #[test]
    fn truly_bad_labels_still_rejected() {
        let rows = vec![
            row![1.0, 1.0, 5i64],
            row![2.0, 2.0, 9i64],
            row![0.0, 0.0, 11i64],
        ];
        let fmt = MemoryInputFormat::new(vec![rows]);
        let runner = JobRunner::new(JobConfig {
            num_workers: 1,
            ..Default::default()
        });
        assert!(runner
            .run(&fmt, &TrainingSpec::parse("svm label=2").unwrap())
            .is_err());
    }

    #[test]
    fn all_model_kinds_train_through_the_runner() {
        let fmt = blob_format(2, 200, 61);
        let runner = JobRunner::new(JobConfig {
            num_workers: 2,
            ..Default::default()
        });
        for cmd in [
            "svm label=2 iterations=20",
            "logreg label=2 iterations=20",
            "linreg label=2 iterations=20",
            "nb label=2",
            "tree label=2 depth=3",
            "kmeans k=2 iterations=5",
        ] {
            let spec = TrainingSpec::parse(cmd).unwrap();
            let outcome = runner.run(&fmt, &spec).unwrap();
            // Each model must at least produce finite predictions.
            // Supervised models see 2 features (label column removed);
            // the unsupervised k-means sees all 3 columns.
            let features: &[f64] = if spec.label_col().is_some() {
                &[1.0, 1.0]
            } else {
                &[1.0, 1.0, 0.0]
            };
            let p = outcome.model.predict(features);
            assert!(p.is_finite(), "{cmd} produced {p}");
        }
    }
}
