//! The SQL-side streaming table UDF (the paper's "parallel table UDF in
//! the SQL system" that starts the transfer).
//!
//! Invoked as
//! `TABLE(stream_transfer(result, '<coordinator-addr>', <transfer-id>,
//! '<ml command>', <k>, <send-buffer-bytes>[, <frame-bytes>]))` (the
//! argument list is owned by [`crate::config::TransferArgs`]), it runs
//! once per partition (= per SQL worker): registers with the coordinator,
//! accepts `k` reader connections, and streams the partition's rows
//! round-robin over them through spillable send buffers.
//! Its SQL-visible output is one statistics row per worker.
//!
//! The data plane is batched and overlapped: a frame is a row range of
//! the partition's typed columns, each shipped as one fixed-width run
//! (no intermediate `Row`, no per-cell tag); the range is `frame_bytes` ÷
//! the partition's row stride and nothing else cuts a frame; and one
//! dedicated [`crate::sender`] thread per peer drains that peer's bounded
//! queue so socket writes of batch N overlap the encode of batch N+1. The
//! handshake carries a checked [`crate::protocol::WIRE_VERSION`].

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_common::codec::NumericColumn;
use sqlml_common::lockorder::TrackedMutex;
use sqlml_common::schema::{DataType, Field};
use sqlml_common::{CancelToken, Result, Row, Schema, SqlmlError, Value};
use sqlml_sqlengine::udf::{PartitionCtx, TableUdf};
use sqlml_sqlengine::Batch;

use crate::buffer::SpillableBuffer;
use crate::config::TransferArgs;
use crate::protocol::{numeric_frame, read_message, write_message, Message};
use crate::sender;
use crate::session::CancelRegistry;

/// How many times a SQL worker retries its whole group after a transfer
/// failure (§6's restart protocol) before giving up.
pub const MAX_ATTEMPTS: u32 = 4;

/// Shortest and longest sleep between two polls of the reader barrier.
const MIN_ACCEPT_NAP: Duration = Duration::from_micros(50);
const MAX_ACCEPT_NAP: Duration = Duration::from_millis(2);

/// Deliberate failure plans for fault-tolerance tests and ablations.
#[derive(Debug)]
pub struct FaultInjector {
    /// (sql worker, fail after this many rows sent) — each fires once.
    plans: TrackedMutex<Vec<(usize, usize)>>,
    fired: TrackedMutex<Vec<(usize, usize)>>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            plans: TrackedMutex::new("transfer.faults.plans", Vec::new()),
            fired: TrackedMutex::new("transfer.faults.fired", Vec::new()),
        }
    }
}

impl FaultInjector {
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Schedule: SQL worker `worker` kills its connections after sending
    /// `after_rows` rows (once).
    pub fn fail_worker_after(&self, worker: usize, after_rows: usize) {
        self.plans.lock().push((worker, after_rows));
    }

    /// Called by the streaming loop; consumes a matching plan.
    fn should_fail(&self, worker: usize, rows_sent: usize) -> bool {
        // Take the matching plan out under `plans` alone; `fired` is
        // locked only after that guard is released (keeps the two locks
        // order-free for the lock-order suite).
        let plan = {
            let mut plans = self.plans.lock();
            plans
                .iter()
                .position(|(w, after)| *w == worker && rows_sent >= *after)
                .map(|pos| plans.remove(pos))
        };
        if let Some(plan) = plan {
            self.fired.lock().push(plan);
            true
        } else {
            false
        }
    }

    /// Faults actually triggered so far.
    pub fn fired(&self) -> Vec<(usize, usize)> {
        self.fired.lock().clone()
    }
}

/// Per-worker transfer statistics — and the one owner of the UDF's
/// SQL-visible output row: column names ([`Self::schema`]), encoding
/// (`to_row`) and checked decoding ([`Self::from_row`]) all
/// follow the field order below.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTransferStats {
    pub worker: usize,
    pub rows_sent: u64,
    pub bytes_sent: u64,
    pub batches_sent: u64,
    pub bytes_spilled: u64,
    pub spill_events: u64,
    pub attempts: u32,
    /// Microseconds the encode thread stalled on full sender queues.
    pub queue_stall_us: u64,
    /// Most frames ever queued at once across this worker's peers.
    pub queue_depth_hw: u64,
    /// Frame-dictionary hits; 0 on the numeric plane (kept for the
    /// SQL-visible row layout).
    pub dict_hits: u64,
    /// Frame-dictionary misses; 0 on the numeric plane.
    pub dict_misses: u64,
}

impl WorkerTransferStats {
    /// The stats row as (column name, value), in SQL-visible order.
    fn columns(&self) -> [(&'static str, u64); 11] {
        [
            ("worker", self.worker as u64),
            ("rows_sent", self.rows_sent),
            ("bytes_sent", self.bytes_sent),
            ("batches_sent", self.batches_sent),
            ("bytes_spilled", self.bytes_spilled),
            ("spill_events", self.spill_events),
            ("attempts", u64::from(self.attempts)),
            ("queue_stall_us", self.queue_stall_us),
            ("queue_depth_hw", self.queue_depth_hw),
            ("dict_hits", self.dict_hits),
            ("dict_misses", self.dict_misses),
        ]
    }

    /// Output layout of the UDF.
    pub fn schema() -> Schema {
        let columns = Self::default().columns();
        Schema::new(columns.map(|(c, _)| Field::new(c, DataType::Int)).to_vec())
    }

    fn to_row(&self) -> Row {
        Row::new(self.columns().map(|(_, v)| Value::Int(v as i64)).to_vec())
    }

    /// Decode one stats row. The counts come back through a SQL table,
    /// i.e. as `i64`; a negative one can only mean a corrupted row, so it
    /// is an [`SqlmlError::Overflow`] naming the column rather than an
    /// `as` cast wrapping it into a huge unsigned value.
    pub fn from_row(row: &Row) -> Result<WorkerTransferStats> {
        let columns = Self::default().columns();
        if row.len() != columns.len() {
            return Err(SqlmlError::Transfer(format!(
                "worker stats row has {} columns, expected {}",
                row.len(),
                columns.len()
            )));
        }
        // Struct fields initialize in written order, so each `next()`
        // reads the column `columns()` lists at the same position.
        let mut counts = (columns.iter().zip(row.values()))
            .map(|((name, _), v)| sqlml_common::counter_u64(v.as_i64()?, name));
        let mut next = || counts.next().unwrap_or(Ok(0));
        Ok(WorkerTransferStats {
            worker: sqlml_common::counter_u32(next()?, "worker")? as usize,
            rows_sent: next()?,
            bytes_sent: next()?,
            batches_sent: next()?,
            bytes_spilled: next()?,
            spill_events: next()?,
            attempts: sqlml_common::counter_u32(next()?, "attempts")?,
            queue_stall_us: next()?,
            queue_depth_hw: next()?,
            dict_hits: next()?,
            dict_misses: next()?,
        })
    }
}

/// The streaming-transfer table UDF.
pub struct StreamTransferUdf {
    spill_dir: PathBuf,
    fault: Option<Arc<FaultInjector>>,
    /// Where to look up this transfer's cancellation token (the UDF only
    /// receives SQL values, so the token travels by transfer id).
    cancels: Option<Arc<CancelRegistry>>,
}

impl StreamTransferUdf {
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        StreamTransferUdf {
            spill_dir: spill_dir.into(),
            fault: None,
            cancels: None,
        }
    }

    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    pub fn with_cancel_registry(mut self, registry: Arc<CancelRegistry>) -> Self {
        self.cancels = Some(registry);
        self
    }
}

impl TableUdf for StreamTransferUdf {
    fn name(&self) -> &str {
        "stream_transfer"
    }

    fn output_schema(&self, _input: &Schema, args: &[Value]) -> Result<Schema> {
        TransferArgs::from_values(args)?;
        Ok(WorkerTransferStats::schema())
    }

    fn execute(
        &self,
        batch: &Batch,
        input_schema: &Schema,
        args: &[Value],
        ctx: &PartitionCtx,
    ) -> Result<Batch> {
        let args = TransferArgs::from_values(args)?;
        let cancel = self
            .cancels
            .as_ref()
            .map(|r| r.get(args.transfer_id))
            .unwrap_or_default();
        cancel.check("stream_transfer setup")?;
        if ctx.num_partitions > ctx.num_workers {
            return Err(SqlmlError::Transfer(format!(
                "stream_transfer needs one partition per SQL worker \
                 ({} partitions > {} workers would deadlock the registration barrier)",
                ctx.num_partitions, ctx.num_workers
            )));
        }

        // The only step that can refuse the data, so it runs before
        // anything registers or connects.
        let layout = WireLayout::of(batch, input_schema)?;

        // Step 7 preparation: data listener up before registering, so the
        // address we advertise is immediately connectable.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let data_addr = listener.local_addr()?.to_string();

        // Step 1: register with the coordinator.
        let mut coord = TcpStream::connect(&args.coord_addr)
            .map_err(|e| SqlmlError::Transfer(format!("coordinator unreachable: {e}")))?;
        write_message(
            &mut coord,
            &Message::RegisterSql {
                transfer_id: args.transfer_id,
                worker: sqlml_common::counter_u32(ctx.partition, "worker partition index")?,
                total_workers: sqlml_common::counter_u32(
                    ctx.num_partitions,
                    "total SQL worker count",
                )?,
                data_addr,
                node: ctx.node.clone(),
                command: args.command.clone(),
                splits_per_worker: args.config.splits_per_worker,
            },
        )?;
        match read_message(&mut coord)? {
            Message::SqlAck { .. } => {}
            Message::Abort { reason } => {
                return Err(SqlmlError::Transfer(format!(
                    "coordinator rejected registration: {reason}"
                )))
            }
            other => {
                return Err(SqlmlError::Transfer(format!(
                    "unexpected coordinator reply {other:?}"
                )))
            }
        }
        drop(coord);

        // Steps 7+8 with the §6 restart protocol around them.
        let mut last_err: Option<SqlmlError> = None;
        for attempt in 1..=MAX_ATTEMPTS {
            match self.stream_group(&layout, &listener, &args, ctx, attempt, &cancel) {
                Ok(stats) => {
                    return Ok(Batch::from_rows(
                        &WorkerTransferStats::schema(),
                        &[stats.to_row()],
                    ))
                }
                Err(e) => {
                    // Cancellation is not a transfer fault: never restart
                    // the group for it, surface it right away.
                    if e.is_cancelled() || cancel.is_cancelled() {
                        return Err(e);
                    }
                    last_err = Some(e);
                    // Restart: connections are dropped by stream_group on
                    // error; readers will reconnect for the next attempt.
                }
            }
        }
        Err(last_err.unwrap_or_else(|| SqlmlError::Transfer("transfer failed".into())))
    }
}

/// A partition as the wire ships it: every column a [`NumericColumn`],
/// an integer column's width decided here, once for all its frames.
struct WireLayout<'a> {
    columns: Vec<NumericColumn<'a>>,
    rows: usize,
}

impl<'a> WireLayout<'a> {
    /// A column holding a string is a `Type` error naming it.
    fn of(batch: &'a Batch, schema: &Schema) -> Result<Self> {
        let named = |(c, col): (usize, &'a Arc<sqlml_sqlengine::Column>)| {
            col.numeric().map_err(|e| {
                let name = schema.fields().get(c).map_or("?", |f| f.name.as_str());
                SqlmlError::Type(format!("cannot stream column {c} ({name}): {e}"))
            })
        };
        Ok(WireLayout {
            columns: (batch.columns().iter().enumerate())
                .map(named)
                .collect::<Result<_>>()?,
            rows: batch.len(),
        })
    }
}

impl StreamTransferUdf {
    /// One attempt: accept `k` readers, stream all rows round-robin, end
    /// each stream. Any failure tears the whole group down (the restart
    /// granularity §6 prescribes); success returns the worker's stats
    /// row for this (the final) attempt.
    fn stream_group(
        &self,
        layout: &WireLayout<'_>,
        listener: &TcpListener,
        args: &TransferArgs,
        ctx: &PartitionCtx,
        attempt: u32,
        cancel: &CancelToken,
    ) -> Result<WorkerTransferStats> {
        let config = &args.config;
        let k = config.splits_per_worker as usize;
        // Accept k hellos (any split order), with a deadline so a dead ML
        // job cannot hang the SQL worker forever. `DataStart` is deferred
        // until every peer has said hello, so no reader starts consuming
        // an attempt that a missing sibling will force to restart.
        listener.set_nonblocking(true)?;
        let waiting_since = Instant::now();
        let deadline = waiting_since + Duration::from_secs(60);
        let mut slots: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
        let mut connected = 0usize;
        while connected < k {
            let (mut stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // A cancelled transfer must not sit out the reader
                    // deadline: the barrier may never complete.
                    cancel.check("stream_transfer reader barrier")?;
                    let now = Instant::now();
                    if now > deadline {
                        return Err(SqlmlError::Transfer(
                            "timed out waiting for ML readers to connect".into(),
                        ));
                    }
                    // Back off with the wait: readers that connect a
                    // millisecond in (the common case) are seen within
                    // 0.1 ms, a job that takes seconds to start costs a
                    // wake every 2 ms.
                    let nap = (now - waiting_since) / 16;
                    std::thread::sleep(nap.clamp(MIN_ACCEPT_NAP, MAX_ACCEPT_NAP));
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_nodelay(true)?;
            match read_message(&mut stream)? {
                Message::DataHello {
                    transfer_id: tid,
                    split_index,
                    ..
                } if tid == args.transfer_id && (split_index as usize) < slots.len() => {
                    if slots[split_index as usize].is_some() {
                        // Stale reader from a previous attempt: refuse it;
                        // it will reconnect.
                        write_message(
                            &mut stream,
                            &Message::Abort {
                                reason: "duplicate split".into(),
                            },
                        )?;
                        continue;
                    }
                    slots[split_index as usize] = Some(stream);
                    connected += 1;
                }
                Message::DataHello {
                    transfer_id: tid, ..
                } if tid != args.transfer_id => {
                    // Ephemeral listener ports get reused across sessions:
                    // a retrying reader from an older transfer can land on
                    // this group's listener. Name both ids in the refusal
                    // so the reader knows to give up rather than retry.
                    let _ = write_message(
                        &mut stream,
                        &Message::Abort {
                            reason: format!(
                                "wrong session: hello for transfer {tid}, \
                                 this sender serves transfer {}",
                                args.transfer_id
                            ),
                        },
                    );
                }
                _ => {
                    let _ = write_message(
                        &mut stream,
                        &Message::Abort {
                            reason: "bad hello".into(),
                        },
                    );
                }
            }
        }
        let mut conns: Vec<TcpStream> = Vec::with_capacity(k);
        for slot in slots {
            let Some(mut stream) = slot else {
                return Err(SqlmlError::Transfer(
                    "reader slot empty after barrier".into(),
                ));
            };
            write_message(&mut stream, &Message::DataStart { attempt })?;
            conns.push(stream);
        }

        // One bounded spillable buffer + sender thread per peer.
        // The backpressure bound sits well above the spill threshold so
        // spilling still absorbs bursts; only a runaway queue stalls the
        // encode thread.
        let queue_bound = config
            .send_buffer_bytes
            .saturating_mul(64)
            .clamp(1 << 20, 64 << 20);
        let buffers: Vec<Arc<SpillableBuffer>> = (0..k)
            .map(|i| {
                Arc::new(
                    SpillableBuffer::new(
                        config.send_buffer_bytes,
                        &self.spill_dir,
                        // Tagged with the transfer id so concurrent
                        // sessions' spill files are distinguishable.
                        format!(
                            "t{}w{}p{}a{attempt}s{i}",
                            args.transfer_id, ctx.worker, ctx.partition
                        ),
                    )
                    .bounded(queue_bound),
                )
            })
            .collect();
        let failed = Arc::new(AtomicBool::new(false));

        let result = std::thread::scope(|scope| -> Result<WorkerTransferStats> {
            let peers: Vec<(TcpStream, Arc<SpillableBuffer>)> = conns
                .into_iter()
                .zip(buffers.iter().map(Arc::clone))
                .collect();
            let writers = sender::spawn_senders(scope, peers, Arc::clone(&failed));

            // Producer: one frame per row range of the partition's
            // columns, round-robin over the peers (step 8). The range is
            // `frame_bytes` ÷ row stride — at least one row, so a row
            // wider than `frame_bytes` ships alone.
            let (columns, total_rows) = (&layout.columns[..], layout.rows);
            let stride: usize = columns.iter().map(NumericColumn::stride).sum();
            let frame_rows = (config.frame_bytes / stride.max(1)).max(1);
            let mut counters = WorkerTransferStats {
                worker: ctx.partition,
                rows_sent: total_rows as u64,
                attempts: attempt,
                ..Default::default()
            };
            let mut per_peer_rows = vec![0u64; k];
            let mut produce = |counters: &mut WorkerTransferStats| -> Result<()> {
                for (n, start) in (0..total_rows).step_by(frame_rows).enumerate() {
                    // Frame-granular cancellation point: fires between
                    // frames, never mid-encode.
                    cancel.check("stream_transfer data plane")?;
                    if failed.load(Ordering::SeqCst) {
                        return Err(SqlmlError::Transfer("a peer connection failed".into()));
                    }
                    if let Some(injector) = &self.fault {
                        if injector.should_fail(ctx.partition, start) {
                            return Err(SqlmlError::InjectedFault(format!(
                                "worker {} killed after {start} rows",
                                ctx.partition
                            )));
                        }
                    }
                    let rows = start..(start + frame_rows).min(total_rows);
                    let peer = n % k;
                    per_peer_rows[peer] += rows.len() as u64;
                    let frame = numeric_frame(columns, rows)?;
                    counters.bytes_sent += frame.len() as u64;
                    counters.batches_sent += 1;
                    buffers[peer].push(frame)?;
                }
                for (i, b) in buffers.iter().enumerate() {
                    let end = Message::DataEnd {
                        total_rows: per_peer_rows[i],
                    }
                    .encode()?;
                    counters.bytes_sent += end.len() as u64;
                    b.push(end)?;
                }
                Ok(())
            };
            let produced = produce(&mut counters);

            // Close buffers so senders drain and exit (even on failure,
            // where sockets drop and readers see the break).
            for b in &buffers {
                b.close();
            }
            let mut writer_err = None;
            for w in writers {
                if let Err(e) = w
                    .join()
                    .map_err(|_| SqlmlError::Transfer("sender thread panicked".into()))?
                {
                    writer_err = Some(e);
                }
            }
            produced?;
            if let Some(e) = writer_err {
                return Err(e);
            }
            Ok(counters)
        });

        result.map(|mut counters| {
            for b in &buffers {
                let s = b.stats();
                counters.bytes_spilled += s.bytes_spilled;
                counters.spill_events += s.spill_events;
                counters.queue_stall_us += s.stall_us;
                counters.queue_depth_hw = counters.queue_depth_hw.max(s.depth_high_water);
            }
            counters
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_schema_validates_args() {
        let udf = StreamTransferUdf::new(std::env::temp_dir());
        let good = vec![
            Value::Str("127.0.0.1:1".into()),
            Value::Int(1),
            Value::Str("svm label=0".into()),
            Value::Int(2),
            Value::Int(4096),
        ];
        assert!(udf.output_schema(&Schema::empty(), &good).is_ok());
        let mut bad_k = good.clone();
        bad_k[3] = Value::Int(0);
        assert!(udf.output_schema(&Schema::empty(), &bad_k).is_err());
        assert!(udf.output_schema(&Schema::empty(), &good[..3]).is_err());
    }

    #[test]
    fn fault_injector_fires_once_per_plan() {
        let f = FaultInjector::new();
        f.fail_worker_after(1, 10);
        assert!(!f.should_fail(1, 5));
        assert!(!f.should_fail(0, 50));
        assert!(f.should_fail(1, 10));
        assert!(!f.should_fail(1, 10), "plan must fire only once");
        assert_eq!(f.fired(), vec![(1, 10)]);
    }

    #[test]
    fn stats_row_round_trips_in_schema_order_and_rejects_corruption() {
        let s = WorkerTransferStats {
            worker: 2,
            rows_sent: 100,
            bytes_sent: 5000,
            batches_sent: 3,
            bytes_spilled: 128,
            spill_events: 1,
            attempts: 4,
            queue_stall_us: 7,
            queue_depth_hw: 9,
            dict_hits: 40,
            dict_misses: 6,
        };
        let row = s.to_row();
        // The SQL-visible layout: names and positions are a contract.
        assert_eq!(
            WorkerTransferStats::schema().names().join(","),
            "worker,rows_sent,bytes_sent,batches_sent,bytes_spilled,spill_events,\
             attempts,queue_stall_us,queue_depth_hw,dict_hits,dict_misses"
        );
        let ints = [2, 100, 5000, 3, 128, 1, 4, 7, 9, 40, 6].map(Value::Int);
        assert_eq!(row.values(), ints);
        assert_eq!(WorkerTransferStats::from_row(&row).unwrap(), s);

        // A negative count is an error naming the column, never a wrap;
        // so are an `attempts` past u32 and a short row.
        let with = |at: usize, v: i64| {
            let mut bad = ints.to_vec();
            bad[at] = Value::Int(v);
            WorkerTransferStats::from_row(&Row::new(bad))
        };
        let err = with(2, -5).unwrap_err();
        assert!(matches!(err, SqlmlError::Overflow(_)), "{err}");
        assert!(err.to_string().contains("bytes_sent -5"), "{err}");
        assert!(with(6, i64::from(u32::MAX) + 1).is_err());
        assert!(WorkerTransferStats::from_row(&Row::new(ints[..10].to_vec())).is_err());
    }
}
