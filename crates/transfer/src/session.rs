//! End-to-end streaming-transfer sessions: SQL query → table UDF →
//! coordinator → ML job, all in flight at once.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use sqlml_common::lockorder::TrackedMutex;
use sqlml_common::{CancelToken, Result, SqlmlError};
use sqlml_mlengine::job::{JobConfig, JobOutcome, JobRunner, TrainingSpec};
use sqlml_sqlengine::Engine;

use crate::config::{TransferArgs, TransferConfig};
use crate::coordinator::Coordinator;
use crate::input_format::SqlStreamInputFormat;
use crate::metrics::{MetricsSnapshot, TransferMetrics};
use crate::stream_udf::{StreamTransferUdf, WorkerTransferStats};

pub use crate::stream_udf::FaultInjector;

/// Per-session settings.
#[derive(Debug, Clone)]
pub struct StreamSessionConfig {
    /// The data plane's tunables.
    pub transfer: TransferConfig,
    /// ML cluster layout for the launched job.
    pub ml_job: JobConfig,
    /// Directory for send-buffer spill files.
    pub spill_dir: PathBuf,
}

impl Default for StreamSessionConfig {
    fn default() -> Self {
        StreamSessionConfig {
            transfer: TransferConfig::default(),
            ml_job: JobConfig::default(),
            spill_dir: std::env::temp_dir().join("sqlml-spill"),
        }
    }
}

/// Aggregated transfer statistics for one session.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    pub rows_sent: u64,
    pub bytes_sent: u64,
    /// Data frames pushed by all SQL workers.
    pub batches_sent: u64,
    pub bytes_spilled: u64,
    /// Times any send buffer spilled a chunk to disk.
    pub spill_events: u64,
    /// Max attempts over all SQL workers (>1 means the restart protocol
    /// fired).
    pub max_attempts: u32,
    /// Microseconds encode threads stalled on full sender queues.
    pub sender_stall_us: u64,
    /// Most frames ever queued at once on any worker's sender queues.
    pub queue_depth_hw: u64,
    /// Always 0: the numeric wire has no string dictionary. Kept only
    /// while the benchmark's `transfer.dict_hit_ratio` still reads it.
    pub dict_hits: u64,
    /// Always 0, as `dict_hits`.
    pub dict_misses: u64,
    /// Rows the ML job actually ingested.
    pub rows_ingested: usize,
    /// Data-local splits on the ML side.
    pub local_splits: usize,
    pub num_splits: usize,
    /// Receive-side counters observed by the ML readers.
    pub receive: MetricsSnapshot,
}

/// What a completed streaming run returns.
#[derive(Debug)]
pub struct StreamRunOutcome {
    pub job: JobOutcome,
    pub stats: StreamStats,
}

type JobResultSender = mpsc::Sender<Result<JobOutcome>>;

/// Session-scoped cancellation registry.
///
/// The `stream_transfer` UDF runs deep inside the SQL engine and only
/// receives SQL `Value` arguments, so a cancellation token cannot be
/// passed to it directly. Instead the session registers each transfer's
/// token here, keyed by transfer id (which *is* a UDF argument), and the
/// UDF looks its token up at execution time. Unknown ids resolve to a
/// never-cancelled default so direct SQL invocations keep working.
#[derive(Debug)]
pub struct CancelRegistry {
    tokens: TrackedMutex<HashMap<u64, CancelToken>>,
}

impl Default for CancelRegistry {
    fn default() -> Self {
        CancelRegistry {
            tokens: TrackedMutex::new("transfer.session.cancels", HashMap::new()),
        }
    }
}

impl CancelRegistry {
    pub fn register(&self, transfer_id: u64, token: CancelToken) {
        self.tokens.lock().insert(transfer_id, token);
    }

    pub fn forget(&self, transfer_id: u64) {
        self.tokens.lock().remove(&transfer_id);
    }

    /// The token for a transfer, or a fresh never-cancelled one.
    pub fn get(&self, transfer_id: u64) -> CancelToken {
        self.tokens
            .lock()
            .get(&transfer_id)
            .cloned()
            .unwrap_or_default()
    }
}

/// ML job config plus the shared receive-side counters.
#[derive(Debug, Clone)]
struct PendingJob {
    job: JobConfig,
    metrics: Arc<TransferMetrics>,
}

/// A long-standing streaming-transfer service wrapping one coordinator.
/// Sessions (transfers) are numbered and independent, so one
/// `StreamSession` can serve many pipeline runs — the coordinator is the
/// paper's "long standing coordinator service".
pub struct StreamSession {
    coordinator: Coordinator,
    next_id: AtomicU64,
    pending: Arc<TrackedMutex<HashMap<u64, (PendingJob, JobResultSender)>>>,
    cancels: Arc<CancelRegistry>,
}

impl StreamSession {
    pub fn start() -> Result<StreamSession> {
        let coordinator = Coordinator::start()?;
        let pending: Arc<TrackedMutex<HashMap<u64, (PendingJob, JobResultSender)>>> = Arc::new(
            TrackedMutex::new("transfer.session.pending", HashMap::new()),
        );
        let coord_addr = coordinator.addr().to_string();
        {
            let pending = Arc::clone(&pending);
            // Step 2 of Figure 2: when a session's registration barrier
            // completes, the coordinator launches the ML job with the
            // command the SQL workers passed along.
            coordinator.set_job_launcher(Arc::new(move |info| {
                let Some((pending_job, sender)) = pending.lock().remove(&info.transfer_id) else {
                    return; // unknown session (e.g. external test traffic)
                };
                let result = (|| -> Result<JobOutcome> {
                    let spec = TrainingSpec::parse(&info.command)?;
                    let format = SqlStreamInputFormat::new(coord_addr.clone(), info.transfer_id)
                        .with_metrics(Arc::clone(&pending_job.metrics));
                    JobRunner::new(pending_job.job).run(&format, &spec)
                })();
                let _ = sender.send(result);
            }));
        }
        Ok(StreamSession {
            coordinator,
            next_id: AtomicU64::new(1),
            pending,
            cancels: Arc::new(CancelRegistry::default()),
        })
    }

    /// The session's cancellation registry (shared with the installed
    /// `stream_transfer` UDF).
    pub fn cancel_registry(&self) -> &Arc<CancelRegistry> {
        &self.cancels
    }

    pub fn coordinator_addr(&self) -> &str {
        self.coordinator.addr()
    }

    /// Register the `stream_transfer` UDF on an engine, optionally wired
    /// to a fault injector. Call once per engine.
    pub fn install_udf(
        &self,
        engine: &Engine,
        config: &StreamSessionConfig,
        fault: Option<Arc<FaultInjector>>,
    ) {
        let mut udf = StreamTransferUdf::new(config.spill_dir.clone())
            .with_cancel_registry(Arc::clone(&self.cancels));
        if let Some(f) = fault {
            udf = udf.with_fault_injector(f);
        }
        engine.register_table_udf(Arc::new(udf));
    }

    /// Run one streaming transfer: stream `table` out of `engine` into a
    /// freshly launched ML job running `command` (e.g.
    /// `"svm label=3 iterations=50"`). Blocks until both sides finish.
    pub fn run(
        &self,
        engine: &Engine,
        table: &str,
        command: &str,
        config: &StreamSessionConfig,
    ) -> Result<StreamRunOutcome> {
        self.run_with_cancel(engine, table, command, config, &CancelToken::new())
    }

    /// [`StreamSession::run`] with a cooperative cancellation token: the
    /// token is registered for the transfer so the `stream_transfer` UDF
    /// polls it at every frame cut, and the whole group tears down
    /// through the normal error path when it fires.
    pub fn run_with_cancel(
        &self,
        engine: &Engine,
        table: &str,
        command: &str,
        config: &StreamSessionConfig,
        cancel: &CancelToken,
    ) -> Result<StreamRunOutcome> {
        // Validate the command, the job layout, the table's shape and the
        // token before anything moves: past this point a job that cannot
        // start leaves the SQL workers waiting out their reader deadline,
        // and a table the job cannot ingest would be streamed whole first.
        let spec = TrainingSpec::parse(command)?;
        if config.ml_job.num_workers == 0 {
            return Err(SqlmlError::Ml(
                "an ML job needs at least one worker (ml_job.num_workers is 0)".into(),
            ));
        }
        let source = engine.catalog().table(table)?;
        source.check_numeric(table)?;
        let width = source.schema().len();
        if let Some(lc) = spec.label_col().filter(|&lc| lc >= width) {
            return Err(SqlmlError::Ml(format!(
                "label column {lc} out of range for the {width}-column table {table}"
            )));
        }
        cancel.check("stream transfer start")?;
        let transfer_id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let metrics = Arc::new(TransferMetrics::new());
        let (tx, rx) = mpsc::channel();
        self.pending.lock().insert(
            transfer_id,
            (
                PendingJob {
                    job: config.ml_job.clone(),
                    metrics: Arc::clone(&metrics),
                },
                tx,
            ),
        );

        // Kick off the SQL side; this blocks until all rows are streamed.
        let args = TransferArgs {
            coord_addr: self.coordinator_addr().to_string(),
            transfer_id,
            command: command.to_string(),
            config: config.transfer,
        };
        let sql = format!(
            "SELECT * FROM TABLE(stream_transfer({table}, {})) AS s",
            args.to_sql()
        );
        self.cancels.register(transfer_id, cancel.clone());
        let stats_result = engine.query(&sql);
        self.cancels.forget(transfer_id);

        // Collect the ML job result (it may still be training) — unless
        // the SQL side failed *before* the registration barrier completed,
        // in which case the pending entry is still ours and the job was
        // never launched: reclaiming it here means an early SQL error (or
        // cancellation) returns immediately instead of waiting out the
        // two-minute report timeout on a job that can never start.
        let job_launched = self.pending.lock().remove(&transfer_id).is_none();
        let job_result = if job_launched {
            rx.recv_timeout(Duration::from_secs(120))
                .map_err(|_| SqlmlError::Transfer("ML job did not report back".into()))
        } else {
            Err(SqlmlError::Transfer(
                "ML job never launched (SQL side failed before the barrier)".into(),
            ))
        };
        self.coordinator.handle().forget_session(transfer_id);

        let stats_table = stats_result?;
        let job = job_result??;

        let mut stats = StreamStats {
            rows_ingested: job.ingest.rows,
            local_splits: job.ingest.local_splits,
            num_splits: job.ingest.num_splits,
            receive: metrics.snapshot(),
            ..Default::default()
        };
        for r in stats_table.collect_rows() {
            let w = WorkerTransferStats::from_row(&r)?;
            stats.rows_sent += w.rows_sent;
            stats.bytes_sent += w.bytes_sent;
            stats.batches_sent += w.batches_sent;
            stats.bytes_spilled += w.bytes_spilled;
            stats.spill_events += w.spill_events;
            stats.max_attempts = stats.max_attempts.max(w.attempts);
            stats.sender_stall_us += w.queue_stall_us;
            stats.queue_depth_hw = stats.queue_depth_hw.max(w.queue_depth_hw);
        }
        Ok(StreamRunOutcome { job, stats })
    }
}
