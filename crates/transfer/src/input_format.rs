//! The ML-side `SqlStreamInputFormat` — the paper's "specialized
//! SQLStreamInputFormat": the only change an existing ML job needs to
//! ingest live SQL streams instead of files.

use std::any::Any;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_common::{Result, SqlmlError};
use sqlml_mlengine::dataset::PartitionBlock;
use sqlml_mlengine::input::{InputFormat, InputSplit, RecordReader};

use crate::metrics::TransferMetrics;
use crate::protocol::{
    read_data_frame, read_message_with, write_message, DataFrame, Message, FRAME_HEADER_BYTES,
};

/// How many times a reader re-attempts its stream after a connection
/// failure (matching the sender's restart protocol).
pub const MAX_READ_ATTEMPTS: u32 = 8;

/// Socket read buffer on the data plane (the consumer half of the
/// paper's buffered transfer path).
const READ_BUFFER_BYTES: usize = 64 * 1024;

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
    metrics: Option<Arc<TransferMetrics>>,
}

impl SqlStreamInputFormat {
    pub fn new(coordinator_addr: impl Into<String>, transfer_id: u64) -> Self {
        SqlStreamInputFormat {
            coordinator_addr: coordinator_addr.into(),
            transfer_id,
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
    fn get_splits(&self) -> Result<Vec<Arc<dyn InputSplit>>> {
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

    fn create_reader(
        &self,
        split: &dyn InputSplit,
        _worker_node: &str,
    ) -> Result<Box<dyn RecordReader>> {
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
}

/// Pipelined reader over one streaming split.
///
/// The reader owns the socket and the whole reconnect/skip state machine
/// and runs it on the calling ML thread, one frame per call
/// (`JobRunner::ingest_dataset` gives every split a thread of its own, so
/// sibling splits still decode in parallel). Rows leave one way:
/// `next_batch` hands each frame to [`PartitionBlock::push_frame`], which
/// scatters its column runs straight into the caller's block, and
/// buffers nothing. A running row count is validated against the
/// sender's `DataEnd` total.
///
/// The session refused any table that is not numeric, and any label
/// column past its width, before the stream started (see
/// `StreamSession::run_with_cancel`), so a frame that does not decode
/// into the block — cut short, an unknown run code, rows of another
/// width — is the wire's fault and takes the ordinary path of a broken
/// attempt.
///
/// Exactly-once across the §6 whole-group restart protocol: the reader
/// tracks a `forwarded` watermark (rows appended to the caller's block),
/// and on reconnect skips that many rows of the sender's deterministic
/// re-stream before accepting more. A failure is sticky, so a caller that
/// retries can never mistake a broken stream for a clean, short one.
pub struct StreamRecordReader {
    split: StreamSplit,
    metrics: Option<Arc<TransferMetrics>>,
    conn: Option<BufReader<TcpStream>>,
    /// Reusable frame-payload buffer (no per-frame allocation).
    scratch: Vec<u8>,
    /// Rows appended to the caller's blocks — the exactly-once watermark.
    forwarded: u64,
    /// Rows received in the current attempt, checked at `DataEnd`.
    received_this_attempt: u64,
    /// Rows to skip after a reconnect (re-streamed, already forwarded).
    skip_remaining: u64,
    next_attempt: u32,
    finished: bool,
    /// The first fatal stream error, kept so later calls repeat it.
    failed: Option<String>,
    /// Most rows ever accepted from one frame (observability for the
    /// O(batch) memory guarantee: nothing larger is ever buffered).
    max_pending: usize,
}

impl StreamRecordReader {
    pub fn new(split: StreamSplit, metrics: Option<Arc<TransferMetrics>>) -> Self {
        StreamRecordReader {
            split,
            metrics,
            conn: None,
            scratch: Vec::new(),
            forwarded: 0,
            received_this_attempt: 0,
            skip_remaining: 0,
            next_attempt: 1,
            finished: false,
            failed: None,
            max_pending: 0,
        }
    }

    /// Largest number of rows ever taken in at once (one frame's worth) —
    /// stays O(batch) no matter how long the stream is.
    pub fn max_pending_rows(&self) -> usize {
        self.max_pending
    }

    /// Rows handed to the ML engine so far.
    pub fn rows_delivered(&self) -> u64 {
        self.forwarded
    }

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

    /// The stream state machine: read → decode → accept until a frame
    /// yields fresh rows (their count is returned), the stream ends
    /// cleanly (0), or the attempt budget is spent. Backpressure is the
    /// socket itself: while the ML side is busy nothing reads, and the
    /// sender's queue fills.
    fn read_fresh_frame(&mut self, out: &mut PartitionBlock) -> Result<usize> {
        loop {
            if self.conn.is_none() {
                self.begin_attempt()?;
            }
            let Some(conn) = self.conn.as_mut() else {
                return Err(SqlmlError::Transfer(
                    "reader connection missing after begin_attempt".into(),
                ));
            };
            let broken_reason = match read_data_frame(conn, &mut self.scratch) {
                Ok(DataFrame::Numeric(batch)) => {
                    let skip = usize::try_from(self.skip_remaining).unwrap_or(usize::MAX);
                    match out.push_frame(batch, skip) {
                        Ok(rows) => {
                            self.received_this_attempt += rows as u64;
                            if let Some(m) = &self.metrics {
                                m.on_batch(rows as u64, (FRAME_HEADER_BYTES + batch.len()) as u64);
                            }
                            let fresh = rows.saturating_sub(skip);
                            self.skip_remaining -= (rows - fresh) as u64;
                            if fresh > 0 {
                                self.forwarded += fresh as u64;
                                self.max_pending = self.max_pending.max(fresh);
                                return Ok(fresh);
                            }
                            continue;
                        }
                        Err(e) => e.to_string(),
                    }
                }
                Ok(DataFrame::Other(Message::DataEnd { total_rows })) => {
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
                        self.conn = None;
                        self.finished = true;
                        return Ok(0);
                    }
                }
                Ok(DataFrame::Other(Message::Abort { reason })) => {
                    format!("sender aborted: {reason}")
                }
                Ok(DataFrame::Other(other)) => {
                    self.conn = None;
                    return Err(SqlmlError::Transfer(format!(
                        "unexpected data frame {other:?}"
                    )));
                }
                Err(e) => e.to_string(),
            };
            // Broken attempt (connection failure, undecodable frame,
            // abort, or count mismatch): restart against the sender's next
            // attempt, skipping the already-forwarded prefix of the
            // re-stream.
            self.conn = None;
            self.skip_remaining = self.forwarded;
            self.next_attempt += 1;
            if self.next_attempt > MAX_READ_ATTEMPTS {
                return Err(SqlmlError::Transfer(format!(
                    "stream read failed after {MAX_READ_ATTEMPTS} attempts: {broken_reason}"
                )));
            }
            std::thread::sleep(Duration::from_millis(25 * u64::from(self.next_attempt)));
        }
    }
}

impl RecordReader for StreamRecordReader {
    /// One frame per call: read and decode the next frame that carries
    /// undelivered rows straight into `out`. 0 at (and after) the clean
    /// end of the stream; an error is final and repeated by every later
    /// call.
    fn next_batch(&mut self, out: &mut PartitionBlock) -> Result<usize> {
        if let Some(first) = &self.failed {
            return Err(SqlmlError::Transfer(format!(
                "stream reader already failed: {first}"
            )));
        }
        if self.finished {
            return Ok(0);
        }
        let wait_start = Instant::now();
        let nothing_yet = self.forwarded == 0;
        let fresh = self
            .read_fresh_frame(out)
            .inspect_err(|e| self.failed = Some(e.to_string()))?;
        if let Some(m) = self.metrics.as_ref().filter(|_| fresh > 0) {
            m.on_prefetch_wait(wait_start.elapsed());
            if nothing_yet {
                m.on_first_row();
            }
        }
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::numeric_frame;
    use sqlml_common::codec::NumericColumn;
    use sqlml_mlengine::Dataset;
    use std::io::Write;
    use std::net::TcpListener;
    use std::ops::Range;

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
    }

    #[test]
    fn foreign_split_is_rejected() {
        use sqlml_mlengine::input::MemoryInputFormat;
        let fmt = SqlStreamInputFormat::new("127.0.0.1:1", 1);
        let mem = MemoryInputFormat::new(vec![vec![]]);
        let split = mem.get_splits().unwrap();
        assert!(fmt.create_reader(split[0].as_ref(), "node-0").is_err());
    }

    #[test]
    fn get_splits_fails_fast_without_coordinator() {
        // Port 1 is essentially never listening.
        let fmt = SqlStreamInputFormat::new("127.0.0.1:1", 1);
        assert!(fmt.get_splits().is_err());
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

    type Attempt = Box<dyn FnOnce(TcpStream) + Send>;

    /// Accept one reader per attempt, in order: read its hello, then hand
    /// the socket to the attempt, which decides whether `DataStart`
    /// follows.
    fn fake_sender_attempts(attempts: Vec<Attempt>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for attempt in attempts {
                let (mut stream, _) = listener.accept().unwrap();
                let mut scratch = Vec::new();
                match read_message_with(&mut stream, &mut scratch).unwrap() {
                    Message::DataHello { .. } => {}
                    other => panic!("expected hello, got {other:?}"),
                }
                attempt(stream);
            }
        });
        (addr, handle)
    }

    /// An attempt that answers the hello with `DataStart`, then runs `f`.
    fn started(f: impl FnOnce(TcpStream) + Send + 'static) -> Attempt {
        Box::new(move |mut stream| {
            write_message(&mut stream, &Message::DataStart { attempt: 1 }).unwrap();
            f(stream);
        })
    }

    /// Accept one reader, answer its hello, then hand the socket to `f`.
    fn fake_sender(
        f: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        fake_sender_attempts(vec![started(f)])
    }

    /// Send `rows` of the test partition (row `i` is `[i]`) as frames of
    /// `frame_rows` rows, then a `DataEnd` claiming `end` rows, if any.
    fn send_rows(stream: &mut TcpStream, rows: Range<u64>, frame_rows: u64, end: Option<u64>) {
        let ids: Vec<i64> = rows.clone().map(|i| i as i64).collect();
        let column = [NumericColumn::int(&ids, None)];
        let frame_rows = usize::try_from(frame_rows).unwrap();
        for at in (0..ids.len()).step_by(frame_rows) {
            let cut = (at + frame_rows).min(ids.len());
            let frame = numeric_frame(&column, at..cut).unwrap();
            stream.write_all(&frame).unwrap();
        }
        if let Some(total_rows) = end {
            write_message(stream, &Message::DataEnd { total_rows }).unwrap();
        }
    }

    /// The acceptance-criteria memory bound: ≥100k rows through a small
    /// batch size must never buffer more than one batch in the reader.
    #[test]
    fn reader_memory_is_bounded_by_batch_size_over_100k_rows() {
        const TOTAL_ROWS: u64 = 120_000;
        const BATCH: u64 = 32;
        let (addr, sender) = fake_sender(|mut stream| {
            send_rows(&mut stream, 0..TOTAL_ROWS, BATCH, Some(TOTAL_ROWS))
        });
        let mut reader = StreamRecordReader::new(local_split(addr), None);
        let mut block = PartitionBlock::new(None);
        while reader.next_batch(&mut block).unwrap() > 0 {}
        sender.join().unwrap();
        assert_eq!(block.len() as u64, TOTAL_ROWS);
        assert!(
            reader.max_pending_rows() as u64 <= BATCH,
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
            send_rows(&mut stream, 1..3, 2, None);
            // Do not send DataEnd until the reader has yielded rows.
            release_rx.recv().unwrap();
            write_message(&mut stream, &Message::DataEnd { total_rows: 2 }).unwrap();
        });

        let metrics = Arc::new(TransferMetrics::new());
        let mut reader = StreamRecordReader::new(local_split(addr), Some(Arc::clone(&metrics)));
        let mut block = PartitionBlock::new(None);
        assert_eq!(reader.next_batch(&mut block).unwrap(), 2);
        // Rows came out while DataEnd had not been sent: pipelining.
        release_tx.send(()).unwrap();
        assert_eq!(reader.next_batch(&mut block).unwrap(), 0);
        sender.join().unwrap();
        assert_eq!(first_column(block), numbers(1..3));
        let snap = metrics.snapshot();
        assert_eq!(snap.rows_received, 2);
        assert_eq!(snap.batches_received, 1);
        assert!(snap.time_to_first_row.unwrap() <= snap.time_to_first_data_end.unwrap());
    }

    /// Running count vs `DataEnd` (satellite 1): a sender that lies about
    /// the total is detected even though rows were consumed on the fly.
    #[test]
    fn row_count_mismatch_is_detected_incrementally() {
        // Lie: claim 5 rows were sent. The reader treats this as a
        // broken attempt and retries; with the sender gone, every
        // retry fails and the final error surfaces the mismatch.
        let (addr, sender) = fake_sender(|mut stream| send_rows(&mut stream, 0..1, 1, Some(5)));
        let mut reader = StreamRecordReader::new(local_split(addr), None);
        let mut block = PartitionBlock::new(None);
        assert_eq!(
            reader.next_batch(&mut block).unwrap(),
            1,
            "first row streams"
        );
        let err = loop {
            match reader.next_batch(&mut block) {
                Ok(0) => panic!("mismatch must not end cleanly"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        sender.join().unwrap();
        assert!(err.to_string().contains("attempts"), "{err}");
        assert_eq!(block.len(), 1);
    }

    /// The first column of every row of `block`, in order.
    fn first_column(block: PartitionBlock) -> Vec<f64> {
        let data = Dataset::from_blocks(vec![block]).unwrap();
        data.iter().map(|p| p.features[0]).collect()
    }

    fn numbers(rows: Range<u64>) -> Vec<f64> {
        rows.map(|i| i as f64).collect()
    }

    /// `next_batch` hands over one frame per call, in order, with nothing
    /// lost at the frame boundaries.
    #[test]
    fn next_batch_returns_rows_in_order() {
        const TOTAL: u64 = 1000;
        let (addr, sender) =
            fake_sender(|mut stream| send_rows(&mut stream, 0..TOTAL, 64, Some(TOTAL)));
        let metrics = Arc::new(TransferMetrics::new());
        let mut reader = StreamRecordReader::new(local_split(addr), Some(Arc::clone(&metrics)));
        let mut block = PartitionBlock::new(None);
        let mut calls = Vec::new();
        loop {
            match reader.next_batch(&mut block).unwrap() {
                0 => break,
                n => calls.push(n),
            }
        }
        sender.join().unwrap();
        assert_eq!(calls.len(), 16, "{calls:?}");
        assert!(calls[..15].iter().all(|n| *n == 64), "{calls:?}");
        assert_eq!(first_column(block), numbers(0..TOTAL));
        assert_eq!(reader.rows_delivered(), TOTAL);
        assert_eq!(
            reader.next_batch(&mut PartitionBlock::new(None)).unwrap(),
            0
        );
        let snap = metrics.snapshot();
        assert_eq!((snap.rows_received, snap.batches_received), (TOTAL, 16));
        assert!(snap.time_to_first_row.unwrap() <= snap.time_to_first_data_end.unwrap());
    }

    /// The attempts of the restart scenario: the first dies after a whole
    /// number of frames, the second before `DataStart`, and the third
    /// re-streams everything in frames of a different size, so the
    /// delivered watermark falls inside one of them
    /// (`0 < skip < rows.len()`).
    fn drop_refuse_then_restream(
        first: u64,
        watermark: u64,
        second: u64,
        total: u64,
    ) -> Vec<Attempt> {
        vec![
            started(move |mut stream| send_rows(&mut stream, 0..watermark, first, None)),
            Box::new(drop),
            started(move |mut stream| send_rows(&mut stream, 0..total, second, Some(total))),
        ]
    }

    /// The restart state machine, one thread, no cluster, on the path a
    /// job takes. Every row arrives exactly once, in order, and never
    /// more than one frame is taken in at a time.
    #[test]
    fn seeded_connection_drops_then_a_full_restream_deliver_exactly_once() {
        let mut rng = sqlml_common::SplitMix64::new(0x5EED_CAFE);
        for case in 0..12 {
            let first = 2 + rng.next_below(9);
            let watermark = first * (1 + rng.next_below(6));
            // A re-stream frame size that does not divide the watermark.
            let second = (2..40).find(|r| !watermark.is_multiple_of(*r)).unwrap();
            let total = watermark + 1 + rng.next_below(200);
            let (addr, sender) =
                fake_sender_attempts(drop_refuse_then_restream(first, watermark, second, total));
            let mut reader = StreamRecordReader::new(local_split(addr), None);
            let mut block = PartitionBlock::new(None);
            while reader.next_batch(&mut block).unwrap() > 0 {}
            sender.join().unwrap();
            let shape =
                format!("case {case}: {first}-row frames cut at {watermark}, then {second}");
            assert_eq!(first_column(block), numbers(0..total), "{shape}");
            assert_eq!(reader.rows_delivered(), total, "{shape}");
            assert!(
                reader.max_pending_rows() as u64 <= first.max(second),
                "{shape}"
            );
        }
    }

    /// A re-stream that ends (with a truthful `DataEnd`) before reaching
    /// the rows already delivered is a broken attempt, never a clean end.
    #[test]
    fn restream_shorter_than_the_watermark_is_an_error() {
        let mut attempts = vec![started(|mut stream| send_rows(&mut stream, 0..10, 5, None))];
        attempts.extend(
            (1..MAX_READ_ATTEMPTS)
                .map(|_| started(|mut stream| send_rows(&mut stream, 0..6, 3, Some(6)))),
        );
        let (addr, sender) = fake_sender_attempts(attempts);
        let mut reader = StreamRecordReader::new(local_split(addr), None);
        let mut block = PartitionBlock::new(None);
        let err = loop {
            match reader.next_batch(&mut block) {
                Ok(0) => panic!("a short re-stream must not end cleanly"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        sender.join().unwrap();
        assert_eq!(block.len(), 10, "only the first attempt delivered rows");
        let short = "4 rows short of the delivered watermark";
        assert!(err.to_string().contains(short), "{err}");
    }

    /// A fatal stream error is sticky: a caller that retries sees the
    /// first failure again, not a clean (and silently short) end.
    #[test]
    fn a_failed_reader_keeps_failing_instead_of_ending_cleanly() {
        let refuse = || -> Attempt {
            let reason = "not today".into();
            Box::new(|mut stream| write_message(&mut stream, &Message::Abort { reason }).unwrap())
        };
        let (addr, sender) =
            fake_sender_attempts((0..MAX_READ_ATTEMPTS).map(|_| refuse()).collect());
        let mut reader = StreamRecordReader::new(local_split(addr), None);
        let mut block = PartitionBlock::new(None);
        let first = reader.next_batch(&mut block).unwrap_err();
        sender.join().unwrap();
        // The sender is gone: the later calls fail by themselves, and name
        // the first failure.
        let second = reader.next_batch(&mut block).unwrap_err();
        let third = reader.next_batch(&mut block).unwrap_err();
        for err in [first, second, third] {
            assert!(err.to_string().contains("not today"), "{err}");
        }
        assert!(block.is_empty());
    }

    /// A frame that does not decode into the block — cut off inside a
    /// run, carrying a run code no encoder writes, or holding rows of
    /// another width — is re-streamed like any broken attempt, and leaves
    /// no row of its own behind to land twice.
    #[test]
    fn a_corrupt_frame_leaves_nothing_behind_and_is_restreamed() {
        let ids: Vec<i64> = (8..16).collect();
        let halves = [0.5; 8];
        let one = [NumericColumn::int(&ids, None)];
        let two = [one[0].clone(), NumericColumn::double(&halves[..], None)];
        // Drop the last cell and patch the length prefix: a well-framed
        // payload whose run ends early.
        let mut cut_short = numeric_frame(&one, 0..8).unwrap();
        cut_short.pop();
        let len = u32::try_from(cut_short.len() - 4).unwrap();
        cut_short[..4].copy_from_slice(&len.to_le_bytes());
        let mut bad_code = numeric_frame(&one, 0..8).unwrap();
        bad_code[4 + 1 + 8] = 0x03;
        let bad_frames = [cut_short, bad_code, numeric_frame(&two, 0..8).unwrap()];
        for bad_frame in bad_frames {
            let corrupt = started(move |mut stream| {
                send_rows(&mut stream, 0..8, 8, None);
                stream.write_all(&bad_frame).unwrap();
                // Hold the socket until the reader has seen the frame.
                let _ = read_message_with(&mut stream, &mut Vec::new());
            });
            let (addr, sender) = fake_sender_attempts(vec![
                corrupt,
                started(|mut stream| send_rows(&mut stream, 0..30, 7, Some(30))),
            ]);
            let mut reader = StreamRecordReader::new(local_split(addr), None);
            let mut block = PartitionBlock::new(None);
            assert_eq!(reader.next_batch(&mut block).unwrap(), 8);
            // The next call meets the bad frame, restarts, skips the
            // delivered prefix: the block grows by fresh rows only.
            assert_eq!(reader.next_batch(&mut block).unwrap(), 6);
            assert_eq!(block.len(), 14);
            while reader.next_batch(&mut block).unwrap() > 0 {}
            sender.join().unwrap();
            assert_eq!(first_column(block), numbers(0..30));
            assert_eq!(reader.rows_delivered(), 30);
        }
    }
}
