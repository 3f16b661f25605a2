//! The ML-side `SqlStreamInputFormat` — the paper's "specialized
//! SQLStreamInputFormat": the only change an existing ML job needs to
//! ingest live SQL streams instead of files.

use std::any::Any;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sqlml_common::{Result, Row, Schema, SqlmlError};
use sqlml_mlengine::input::{InputFormat, InputSplit, RecordReader};

use crate::metrics::TransferMetrics;
use crate::protocol::{read_message_with, write_message, Message};

/// How many times a reader re-attempts its stream after a connection
/// failure (matching the sender's restart protocol).
pub const MAX_READ_ATTEMPTS: u32 = 8;

/// Socket read buffer on the data plane (the consumer half of the
/// paper's buffered transfer path).
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Decoded batches the prefetch thread may run ahead of the ML consumer.
/// Together with the batch being decoded and the one sitting in
/// `pending`, this keeps the reader's memory within the documented
/// O(batch) bound (≤ 4 batches in flight).
const PREFETCH_BATCHES: usize = 2;

/// One streaming split: "read group-index `index_in_group` from SQL
/// worker `sql_worker` at `data_addr`", preferably on node `location`.
#[derive(Debug, Clone)]
pub struct StreamSplit {
    pub transfer_id: u64,
    pub sql_worker: u32,
    pub index_in_group: u32,
    pub data_addr: String,
    pub location: String,
}

impl InputSplit for StreamSplit {
    fn locations(&self) -> Vec<String> {
        vec![self.location.clone()]
    }

    fn describe(&self) -> String {
        format!(
            "sqlstream:{}/{}#{} @{}",
            self.transfer_id, self.sql_worker, self.index_in_group, self.data_addr
        )
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `InputFormat` over a live parallel SQL stream. `get_splits` implements
/// the customized `getInputSplits()` of §3: it contacts the coordinator,
/// which replies with `m = n·k` splits grouped per SQL worker and located
/// at the SQL workers' nodes.
pub struct SqlStreamInputFormat {
    coordinator_addr: String,
    transfer_id: u64,
    schema: Schema,
    metrics: Option<Arc<TransferMetrics>>,
}

impl SqlStreamInputFormat {
    pub fn new(coordinator_addr: impl Into<String>, transfer_id: u64, schema: Schema) -> Self {
        SqlStreamInputFormat {
            coordinator_addr: coordinator_addr.into(),
            transfer_id,
            schema,
            metrics: None,
        }
    }

    /// Share receive-side throughput counters with every reader this
    /// format creates (used by `StreamSession` for stage reporting).
    pub fn with_metrics(mut self, metrics: Arc<TransferMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

impl InputFormat for SqlStreamInputFormat {
    fn get_splits(&self, _requested: usize) -> Result<Vec<Arc<dyn InputSplit>>> {
        let mut coord = TcpStream::connect(&self.coordinator_addr)
            .map_err(|e| SqlmlError::Transfer(format!("coordinator unreachable: {e}")))?;
        write_message(
            &mut coord,
            &Message::GetSplits {
                transfer_id: self.transfer_id,
            },
        )?;
        let mut scratch = Vec::new();
        match read_message_with(&mut coord, &mut scratch)? {
            Message::Splits { entries } => Ok(entries
                .into_iter()
                .map(|e| {
                    Arc::new(StreamSplit {
                        transfer_id: self.transfer_id,
                        sql_worker: e.sql_worker,
                        index_in_group: e.index_in_group,
                        data_addr: e.data_addr,
                        location: e.location,
                    }) as Arc<dyn InputSplit>
                })
                .collect()),
            Message::Abort { reason } => Err(SqlmlError::Transfer(format!(
                "coordinator refused splits: {reason}"
            ))),
            other => Err(SqlmlError::Transfer(format!(
                "unexpected coordinator reply {other:?}"
            ))),
        }
    }

    fn create_reader(&self, split: &dyn InputSplit) -> Result<Box<dyn RecordReader>> {
        let s = split
            .as_any()
            .downcast_ref::<StreamSplit>()
            .ok_or_else(|| {
                SqlmlError::Transfer("SqlStreamInputFormat got a foreign split".into())
            })?;
        Ok(Box::new(StreamRecordReader::new(
            s.clone(),
            self.metrics.clone(),
        )))
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }
}

/// Pipelined reader over one streaming split, with decode-ahead.
///
/// A dedicated prefetch thread owns the socket and the whole
/// reconnect/skip state machine: it reads frames, deserializes them, and
/// pushes decoded batches through a bounded channel. The ML thread pops
/// batches from the channel, so deserialization overlaps both the socket
/// reads *and* ML-side consumption. Peak memory stays O(batch): the
/// channel holds at most [`PREFETCH_BATCHES`] batches plus one being
/// handed over, plus the batch in `pending`. A running row count is
/// validated against the sender's `DataEnd` total.
///
/// Exactly-once across the §6 whole-group restart protocol: the prefetch
/// thread tracks a `forwarded` watermark (rows pushed into the channel —
/// every one of which the reader will deliver), and on reconnect skips
/// that many rows of the sender's deterministic re-stream before
/// forwarding more.
pub struct StreamRecordReader {
    split: StreamSplit,
    metrics: Option<Arc<TransferMetrics>>,
    /// Decoded batches from the prefetch thread; `None` until started or
    /// after the channel is consumed/failed.
    rx: Option<mpsc::Receiver<Result<Vec<Row>>>>,
    started: bool,
    /// Rows currently inside the channel (including one mid-handoff),
    /// maintained by the prefetch thread; lets the reader observe its
    /// total memory footprint.
    queued_rows: Arc<AtomicUsize>,
    /// Set by the prefetch thread on a clean `DataEnd` before it exits,
    /// so the reader can tell a clean end from a dead thread.
    ended_clean: Arc<AtomicBool>,
    /// Rows of the current decoded batch only.
    pending: VecDeque<Row>,
    /// Rows handed to the ML engine.
    delivered: u64,
    finished: bool,
    /// High-water mark of pending + channel rows (observability for the
    /// O(batch) memory guarantee).
    max_pending: usize,
}

impl StreamRecordReader {
    pub fn new(split: StreamSplit, metrics: Option<Arc<TransferMetrics>>) -> Self {
        StreamRecordReader {
            split,
            metrics,
            rx: None,
            started: false,
            queued_rows: Arc::new(AtomicUsize::new(0)),
            ended_clean: Arc::new(AtomicBool::new(false)),
            pending: VecDeque::new(),
            delivered: 0,
            finished: false,
            max_pending: 0,
        }
    }

    /// Largest number of rows ever buffered at once (decoded batches in
    /// the prefetch channel plus the batch being delivered) — stays
    /// O(batch) no matter how long the stream is.
    pub fn max_pending_rows(&self) -> usize {
        self.max_pending
    }

    /// Rows handed to the ML engine so far.
    pub fn rows_delivered(&self) -> u64 {
        self.delivered
    }

    /// Spawn the decode-ahead thread on first use.
    fn ensure_started(&mut self) -> Result<()> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        let (tx, rx) = mpsc::sync_channel(PREFETCH_BATCHES);
        let worker = PrefetchWorker {
            split: self.split.clone(),
            metrics: self.metrics.clone(),
            conn: None,
            scratch: Vec::new(),
            forwarded: 0,
            received_this_attempt: 0,
            skip_remaining: 0,
            next_attempt: 1,
            queued_rows: Arc::clone(&self.queued_rows),
            ended_clean: Arc::clone(&self.ended_clean),
        };
        std::thread::Builder::new()
            .name(format!(
                "sqlml-prefetch-{}-{}",
                self.split.sql_worker, self.split.index_in_group
            ))
            .spawn(move || worker.run(&tx))
            .map_err(|e| {
                SqlmlError::Transfer(format!("failed to spawn decode-ahead thread: {e}"))
            })?;
        self.rx = Some(rx);
        Ok(())
    }

    /// Pop the next decoded batch from the prefetch channel into
    /// `pending`. `Ok(true)` when rows are pending, `Ok(false)` on clean
    /// end of stream.
    fn fill_pending(&mut self) -> Result<bool> {
        self.ensure_started()?;
        let Some(rx) = self.rx.as_ref() else {
            return Ok(false);
        };
        let wait_start = Instant::now();
        match rx.recv() {
            Ok(Ok(rows)) => {
                if let Some(m) = &self.metrics {
                    m.on_prefetch_wait(wait_start.elapsed());
                }
                self.queued_rows.fetch_sub(rows.len(), Ordering::Relaxed);
                self.pending.extend(rows);
                let depth = self.pending.len() + self.queued_rows.load(Ordering::Relaxed);
                self.max_pending = self.max_pending.max(depth);
                if let Some(m) = &self.metrics {
                    m.on_prefetch_depth(depth);
                }
                Ok(true)
            }
            Ok(Err(e)) => {
                self.rx = None;
                Err(e)
            }
            Err(mpsc::RecvError) => {
                self.rx = None;
                if self.ended_clean.load(Ordering::SeqCst) {
                    self.finished = true;
                    Ok(false)
                } else {
                    Err(SqlmlError::Transfer(
                        "decode-ahead thread exited without DataEnd".into(),
                    ))
                }
            }
        }
    }

    fn deliver(&mut self, row: Row) -> Row {
        self.delivered += 1;
        if self.delivered == 1 {
            if let Some(m) = &self.metrics {
                m.on_first_row();
            }
        }
        row
    }
}

/// The decode-ahead half of [`StreamRecordReader`]: owns the socket, the
/// restart protocol, and the forwarded-rows watermark; runs until the
/// stream ends cleanly, a fatal error is forwarded, or the reader is
/// dropped (its channel send fails).
struct PrefetchWorker {
    split: StreamSplit,
    metrics: Option<Arc<TransferMetrics>>,
    conn: Option<BufReader<TcpStream>>,
    /// Reusable frame-payload buffer (no per-frame allocation).
    scratch: Vec<u8>,
    /// Rows pushed into the channel — the exactly-once watermark (the
    /// reader delivers everything it receives).
    forwarded: u64,
    /// Rows received in the current attempt, checked at `DataEnd`.
    received_this_attempt: u64,
    /// Rows to skip after a reconnect (re-streamed, already forwarded).
    skip_remaining: u64,
    next_attempt: u32,
    queued_rows: Arc<AtomicUsize>,
    ended_clean: Arc<AtomicBool>,
}

impl PrefetchWorker {
    /// One connection + handshake attempt. Both handshake frames carry
    /// the wire version, checked where they are decoded.
    fn connect(&mut self) -> Result<()> {
        let mut stream = TcpStream::connect(&self.split.data_addr)
            .map_err(|e| SqlmlError::Transfer(format!("sender unreachable: {e}")))?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        write_message(
            &mut stream,
            &Message::DataHello {
                transfer_id: self.split.transfer_id,
                split_index: self.split.index_in_group,
                attempt: self.next_attempt,
            },
        )?;
        let mut conn = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
        match read_message_with(&mut conn, &mut self.scratch)? {
            Message::DataStart { .. } => {
                self.conn = Some(conn);
                self.received_this_attempt = 0;
                Ok(())
            }
            Message::Abort { reason } => {
                Err(SqlmlError::Transfer(format!("sender aborted: {reason}")))
            }
            other => Err(SqlmlError::Transfer(format!(
                "expected DataStart, got {other:?}"
            ))),
        }
    }

    /// Connect with retries until the attempt budget is exhausted.
    fn begin_attempt(&mut self) -> Result<()> {
        let mut last_err: Option<SqlmlError> = None;
        while self.next_attempt <= MAX_READ_ATTEMPTS {
            let attempt = self.next_attempt;
            match self.connect() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last_err = Some(e);
                    self.next_attempt += 1;
                    // Sender may be mid-restart; give it a moment.
                    std::thread::sleep(Duration::from_millis(25 * u64::from(attempt)));
                }
            }
        }
        Err(SqlmlError::Transfer(format!(
            "stream read failed after {MAX_READ_ATTEMPTS} attempts: {}",
            last_err.map_or_else(|| "no attempt budget left".into(), |e| e.to_string())
        )))
    }

    /// Main loop: read → decode → forward until clean end, fatal error,
    /// or reader drop. Backpressure comes from the bounded channel: when
    /// the ML side falls behind, `send` blocks and so does the socket.
    fn run(mut self, tx: &mpsc::SyncSender<Result<Vec<Row>>>) {
        loop {
            if self.conn.is_none() {
                if let Err(e) = self.begin_attempt() {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
            let Some(conn) = self.conn.as_mut() else {
                let _ = tx.send(Err(SqlmlError::Transfer(
                    "reader connection missing after begin_attempt".into(),
                )));
                return;
            };
            let broken_reason = match read_message_with(conn, &mut self.scratch) {
                Ok(Message::RowBatch { rows }) => {
                    // 4-byte length prefix + payload.
                    let frame_bytes = self.scratch.len() as u64 + 4;
                    self.received_this_attempt += rows.len() as u64;
                    if let Some(m) = &self.metrics {
                        m.on_batch(rows.len() as u64, frame_bytes);
                    }
                    // min() bounds the skip by the batch length, which
                    // already fits in usize.
                    #[allow(clippy::cast_possible_truncation)]
                    let skip = self.skip_remaining.min(rows.len() as u64) as usize;
                    self.skip_remaining -= skip as u64;
                    if skip < rows.len() {
                        let fresh: Vec<Row> = if skip == 0 {
                            rows
                        } else {
                            rows.into_iter().skip(skip).collect()
                        };
                        self.forwarded += fresh.len() as u64;
                        self.queued_rows.fetch_add(fresh.len(), Ordering::Relaxed);
                        if tx.send(Ok(fresh)).is_err() {
                            // Reader dropped mid-stream; nothing to clean.
                            return;
                        }
                    }
                    continue;
                }
                Ok(Message::DataEnd { total_rows }) => {
                    if self.received_this_attempt != total_rows {
                        format!(
                            "row count mismatch: got {}, sender said {total_rows}",
                            self.received_this_attempt
                        )
                    } else if self.skip_remaining > 0 {
                        format!(
                            "re-stream ended {} rows short of the delivered watermark",
                            self.skip_remaining
                        )
                    } else {
                        if let Some(m) = &self.metrics {
                            m.on_data_end();
                        }
                        // Publish the clean end *before* the channel
                        // disconnect the reader observes.
                        self.ended_clean.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                Ok(Message::Abort { reason }) => format!("sender aborted: {reason}"),
                Ok(other) => {
                    let _ = tx.send(Err(SqlmlError::Transfer(format!(
                        "unexpected data frame {other:?}"
                    ))));
                    return;
                }
                Err(e) => e.to_string(),
            };
            // Broken attempt (connection failure, abort, or count
            // mismatch): restart against the sender's next attempt,
            // skipping the already-forwarded prefix of the re-stream.
            self.conn = None;
            self.skip_remaining = self.forwarded;
            self.next_attempt += 1;
            if self.next_attempt > MAX_READ_ATTEMPTS {
                let _ = tx.send(Err(SqlmlError::Transfer(format!(
                    "stream read failed after {MAX_READ_ATTEMPTS} attempts: {broken_reason}"
                ))));
                return;
            }
            std::thread::sleep(Duration::from_millis(25 * u64::from(self.next_attempt)));
        }
    }
}

impl RecordReader for StreamRecordReader {
    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(self.deliver(row)));
            }
            if self.finished {
                return Ok(None);
            }
            if !self.fill_pending()? {
                return Ok(None);
            }
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Row>, max_rows: usize) -> Result<usize> {
        let mut n = 0;
        while n < max_rows {
            if self.pending.is_empty() && (self.finished || !self.fill_pending()?) {
                break;
            }
            while n < max_rows {
                match self.pending.pop_front() {
                    Some(row) => {
                        let row = self.deliver(row);
                        out.push(row);
                        n += 1;
                    }
                    None => break,
                }
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::Value;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn split_metadata() {
        let s = StreamSplit {
            transfer_id: 5,
            sql_worker: 2,
            index_in_group: 1,
            data_addr: "127.0.0.1:9999".into(),
            location: "node-2".into(),
        };
        assert_eq!(s.locations(), vec!["node-2"]);
        assert!(s.describe().contains("5/2#1"));
    }

    #[test]
    fn foreign_split_is_rejected() {
        use sqlml_mlengine::input::MemoryInputFormat;
        let fmt = SqlStreamInputFormat::new("127.0.0.1:1", 1, Schema::empty());
        let mem = MemoryInputFormat::new(Schema::empty(), vec![vec![]]);
        let split = mem.get_splits(1).unwrap();
        assert!(fmt.create_reader(split[0].as_ref()).is_err());
    }

    #[test]
    fn get_splits_fails_fast_without_coordinator() {
        // Port 1 is essentially never listening.
        let fmt = SqlStreamInputFormat::new("127.0.0.1:1", 1, Schema::empty());
        assert!(fmt.get_splits(4).is_err());
    }

    fn local_split(addr: String) -> StreamSplit {
        StreamSplit {
            transfer_id: 7,
            sql_worker: 0,
            index_in_group: 0,
            data_addr: addr,
            location: "node-0".into(),
        }
    }

    /// Accept one reader, answer its hello, then hand the socket to `f`.
    fn fake_sender(
        f: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut scratch = Vec::new();
            match read_message_with(&mut stream, &mut scratch).unwrap() {
                Message::DataHello { .. } => {}
                other => panic!("expected hello, got {other:?}"),
            }
            write_message(&mut stream, &Message::DataStart { attempt: 1 }).unwrap();
            f(stream);
        });
        (addr, handle)
    }

    /// The acceptance-criteria memory bound: ≥100k rows through a small
    /// batch size must never buffer more than a few batches in the reader.
    #[test]
    fn reader_memory_is_bounded_by_batch_size_over_100k_rows() {
        const TOTAL_ROWS: usize = 120_000;
        const BATCH: usize = 32;
        let (addr, sender) = fake_sender(|mut stream| {
            let rows: Vec<Row> = (0..BATCH as i64)
                .map(|i| Row::new(vec![Value::Int(i), Value::Str("pad-pad-pad".into())]))
                .collect();
            let mut frame = Vec::new();
            Message::RowBatch { rows }.encode_into(&mut frame).unwrap();
            for _ in 0..TOTAL_ROWS / BATCH {
                stream.write_all(&frame).unwrap();
            }
            write_message(
                &mut stream,
                &Message::DataEnd {
                    total_rows: TOTAL_ROWS as u64,
                },
            )
            .unwrap();
        });

        let mut reader = StreamRecordReader::new(local_split(addr), None);
        let mut count = 0u64;
        while let Some(_row) = reader.next_row().unwrap() {
            count += 1;
        }
        sender.join().unwrap();
        assert_eq!(count, TOTAL_ROWS as u64);
        assert!(
            reader.max_pending_rows() <= 4 * BATCH,
            "reader buffered {} rows — memory is not O(batch)",
            reader.max_pending_rows()
        );
    }

    /// Pipelining: the reader yields rows while the sender is still
    /// producing, i.e. before `DataEnd` exists anywhere. The sender
    /// blocks on a channel until the test has consumed mid-stream rows.
    #[test]
    fn reader_yields_rows_before_data_end() {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (addr, sender) = fake_sender(move |mut stream| {
            let rows = vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])];
            let mut frame = Vec::new();
            Message::RowBatch { rows }.encode_into(&mut frame).unwrap();
            stream.write_all(&frame).unwrap();
            stream.flush().unwrap();
            // Do not send DataEnd until the reader has yielded rows.
            release_rx.recv().unwrap();
            write_message(&mut stream, &Message::DataEnd { total_rows: 2 }).unwrap();
        });

        let metrics = Arc::new(TransferMetrics::new());
        let mut reader = StreamRecordReader::new(local_split(addr), Some(Arc::clone(&metrics)));
        let first = reader.next_row().unwrap().unwrap();
        assert_eq!(first.get(0), &Value::Int(1));
        // A row came out while DataEnd had not been sent: pipelining.
        release_tx.send(()).unwrap();
        assert!(reader.next_row().unwrap().is_some());
        assert!(reader.next_row().unwrap().is_none());
        sender.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.rows_received, 2);
        assert_eq!(snap.batches_received, 1);
        assert!(snap.time_to_first_row.unwrap() <= snap.time_to_first_data_end.unwrap());
    }

    /// Running count vs `DataEnd` (satellite 1): a sender that lies about
    /// the total is detected even though rows were consumed on the fly.
    #[test]
    fn row_count_mismatch_is_detected_incrementally() {
        let (addr, sender) = fake_sender(|mut stream| {
            let rows = vec![Row::new(vec![Value::Int(1)])];
            let mut frame = Vec::new();
            Message::RowBatch { rows }.encode_into(&mut frame).unwrap();
            stream.write_all(&frame).unwrap();
            // Lie: claim 5 rows were sent. The reader treats this as a
            // broken attempt and retries; with the sender gone, every
            // retry fails and the final error surfaces the mismatch.
            let _ = write_message(&mut stream, &Message::DataEnd { total_rows: 5 });
        });
        let mut reader = StreamRecordReader::new(local_split(addr), None);
        assert!(reader.next_row().unwrap().is_some(), "first row streams");
        let err = loop {
            match reader.next_row() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("mismatch must not end cleanly"),
                Err(e) => break e,
            }
        };
        sender.join().unwrap();
        assert!(err.to_string().contains("attempts"), "{err}");
    }

    /// `next_batch` drains whole decoded batches without re-buffering.
    #[test]
    fn next_batch_returns_rows_in_order() {
        const TOTAL: usize = 1000;
        let (addr, sender) = fake_sender(|mut stream| {
            let mut frame = Vec::new();
            for chunk in (0..TOTAL as i64).collect::<Vec<_>>().chunks(64) {
                let rows: Vec<Row> = chunk
                    .iter()
                    .map(|i| Row::new(vec![Value::Int(*i)]))
                    .collect();
                frame.clear();
                Message::RowBatch { rows }.encode_into(&mut frame).unwrap();
                stream.write_all(&frame).unwrap();
            }
            write_message(
                &mut stream,
                &Message::DataEnd {
                    total_rows: TOTAL as u64,
                },
            )
            .unwrap();
        });
        let mut reader = StreamRecordReader::new(local_split(addr), None);
        let mut got = Vec::new();
        loop {
            let n = reader.next_batch(&mut got, 256).unwrap();
            if n == 0 {
                break;
            }
        }
        sender.join().unwrap();
        assert_eq!(got.len(), TOTAL);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, r)| r.get(0) == &Value::Int(i as i64)));
        assert_eq!(reader.rows_delivered(), TOTAL as u64);
    }
}
