//! Cheap atomic throughput counters for the SQL→ML data plane.
//!
//! One [`TransferMetrics`] is shared (via `Arc`) between a
//! `StreamSession` and every `StreamRecordReader` of its transfer, so the
//! receive side of the pipeline can be observed without locks on the hot
//! path: each counter is a relaxed atomic add per batch, and
//! time-to-first-row is a single compare-exchange.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const UNSET: u64 = u64::MAX;

/// Receive-side counters for one streaming transfer.
#[derive(Debug)]
pub struct TransferMetrics {
    start: Instant,
    rows_received: AtomicU64,
    bytes_received: AtomicU64,
    batches_received: AtomicU64,
    /// Microseconds from `start` until the first row was yielded.
    first_row_us: AtomicU64,
    /// Microseconds from `start` until the first `DataEnd` was observed.
    first_data_end_us: AtomicU64,
    /// Microseconds ML threads spent waiting for their next decoded
    /// batch (the blocking frame read plus its decode).
    prefetch_wait_us: AtomicU64,
}

impl Default for TransferMetrics {
    fn default() -> Self {
        TransferMetrics::new()
    }
}

impl TransferMetrics {
    pub fn new() -> Self {
        TransferMetrics {
            start: Instant::now(),
            rows_received: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            batches_received: AtomicU64::new(0),
            first_row_us: AtomicU64::new(UNSET),
            first_data_end_us: AtomicU64::new(UNSET),
            prefetch_wait_us: AtomicU64::new(0),
        }
    }

    /// Record one decoded data frame of `rows` rows and
    /// `frame_bytes` wire bytes.
    pub fn on_batch(&self, rows: u64, frame_bytes: u64) {
        self.rows_received.fetch_add(rows, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(frame_bytes, Ordering::Relaxed);
        self.batches_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that a row was handed to the ML engine (first call wins).
    pub fn on_first_row(&self) {
        self.stamp(&self.first_row_us);
    }

    /// Record that a reader observed its `DataEnd` (first call wins).
    pub fn on_data_end(&self) {
        self.stamp(&self.first_data_end_us);
    }

    /// Record time an ML thread spent waiting for its next decoded batch.
    pub fn on_prefetch_wait(&self, waited: Duration) {
        let us = u64::try_from(waited.as_micros()).unwrap_or(u64::MAX);
        self.prefetch_wait_us.fetch_add(us, Ordering::Relaxed);
    }

    fn stamp(&self, slot: &AtomicU64) {
        if slot.load(Ordering::Relaxed) != UNSET {
            return;
        }
        // u64 microseconds overflow ~585k years after session start.
        #[allow(clippy::cast_possible_truncation)]
        let us = self.start.elapsed().as_micros() as u64;
        let _ = slot.compare_exchange(UNSET, us, Ordering::Relaxed, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let us = |slot: &AtomicU64| match slot.load(Ordering::Relaxed) {
            UNSET => None,
            v => Some(Duration::from_micros(v)),
        };
        MetricsSnapshot {
            rows_received: self.rows_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            batches_received: self.batches_received.load(Ordering::Relaxed),
            time_to_first_row: us(&self.first_row_us),
            time_to_first_data_end: us(&self.first_data_end_us),
            prefetch_wait: Duration::from_micros(self.prefetch_wait_us.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of [`TransferMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub rows_received: u64,
    pub bytes_received: u64,
    pub batches_received: u64,
    pub time_to_first_row: Option<Duration>,
    pub time_to_first_data_end: Option<Duration>,
    /// Total time ML threads waited for their next decoded batch.
    pub prefetch_wait: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_first_stamps_stick() {
        let m = TransferMetrics::new();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        m.on_batch(64, 2048);
        m.on_batch(36, 1024);
        m.on_first_row();
        std::thread::sleep(Duration::from_millis(2));
        m.on_first_row(); // must not overwrite
        m.on_data_end();
        let s = m.snapshot();
        assert_eq!(s.rows_received, 100);
        assert_eq!(s.bytes_received, 3072);
        assert_eq!(s.batches_received, 2);
        let first_row = s.time_to_first_row.unwrap();
        let data_end = s.time_to_first_data_end.unwrap();
        assert!(first_row <= data_end, "row arrived before DataEnd");
        // The second on_first_row call (2ms later) must not have moved it.
        assert!(data_end >= first_row + Duration::from_millis(1));
    }
}
