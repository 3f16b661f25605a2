//! Per-peer send buffers with spill-to-disk (§3: "If an ML worker is slow
//! to ingest its data and the corresponding send buffer becomes full, we
//! can spill it onto the local disks to synchronize the producer and
//! consumers").
//!
//! A [`SpillableBuffer`] is a bounded in-memory chunk queue between one
//! producer (the SQL worker's streaming loop) and one consumer (the
//! socket-writer thread for one ML peer). When the in-memory queue is at
//! capacity, `push` diverts chunks to a spill file rather than blocking
//! the producer — the paper's point is exactly that a slow reader must
//! not stall the SQL pipeline.
//!
//! On top of the spill tier sits an optional *total* queued-bytes bound
//! ([`SpillableBuffer::bounded`]): once memory + unread spill together
//! exceed it, `push` blocks until the consumer catches up. This is the
//! backpressure valve of the overlapped data plane — without it a dead
//! socket would grow the spill file until the disk fills. Time spent
//! blocked and the frame-queue depth high-water are recorded and surface
//! in the transfer stats.

use std::collections::VecDeque;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sqlml_common::lockorder::{TrackedCondvar, TrackedMutex};
use sqlml_common::{Result, SqlmlError};

/// The spill file as a byte queue: chunks lie back to back in
/// `read_pos..write_pos`, their lengths in `lens`. The producer alone
/// moves `write_pos`, the consumer alone `read_pos`, each after its
/// positional write / read — which runs with the lock released.
#[derive(Debug, Default)]
struct SpillFile {
    file: Option<Arc<File>>,
    path: Option<PathBuf>,
    write_pos: u64,
    read_pos: u64,
    /// Length of every unread chunk, oldest first.
    lens: VecDeque<usize>,
}

#[derive(Debug)]
struct State {
    memory: VecDeque<Vec<u8>>,
    memory_bytes: usize,
    spill: SpillFile,
    closed: bool,
    bytes_spilled: u64,
    spill_events: u64,
    /// Unread payload bytes across memory *and* the spill file.
    queued_bytes: usize,
    /// Chunks currently queued (memory + spill).
    depth: u64,
    depth_high_water: u64,
    stall_us: u64,
}

impl State {
    /// Bookkeeping shared by both enqueue paths.
    fn on_enqueue(&mut self, chunk_len: usize) {
        self.queued_bytes += chunk_len;
        self.depth += 1;
        self.depth_high_water = self.depth_high_water.max(self.depth);
    }

    /// Bookkeeping shared by every dequeue path; call with the chunk just
    /// removed from memory or the spill file.
    fn on_dequeue(&mut self, chunk_len: usize) {
        self.queued_bytes = self.queued_bytes.saturating_sub(chunk_len);
        self.depth = self.depth.saturating_sub(1);
    }

    /// The next chunk if it is in memory, else where the oldest spilled
    /// chunk lies (nothing moves until [`SpillableBuffer::unspill`]
    /// publishes the read), else `None`.
    fn next_chunk(&mut self) -> Result<Option<Next>> {
        if let Some(chunk) = self.memory.pop_front() {
            self.memory_bytes -= chunk.len();
            self.on_dequeue(chunk.len());
            return Ok(Some(Next::Memory(chunk)));
        }
        let Some(&len) = self.spill.lens.front() else {
            return Ok(None);
        };
        let Some(file) = self.spill.file.clone() else {
            return Err(SqlmlError::Transfer(
                "spill cursor set but spill file missing".into(),
            ));
        };
        Ok(Some(Next::Spilled(file, self.spill.read_pos, len)))
    }
}

/// What a consumer takes out of the state under the lock.
enum Next {
    Memory(Vec<u8>),
    /// File, offset and length of the oldest spilled chunk.
    Spilled(Arc<File>, u64, usize),
}

/// Statistics observed by tests and the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    pub bytes_spilled: u64,
    /// Number of chunks diverted through the spill file.
    pub spill_events: u64,
    /// Microseconds the producer spent blocked on the queued-bytes bound.
    pub stall_us: u64,
    /// Most chunks (frames) ever queued at once.
    pub depth_high_water: u64,
}

/// Bounded producer/consumer chunk queue with disk overflow. One
/// producer, one consumer: each side's file cursor is its own.
#[derive(Debug)]
pub struct SpillableBuffer {
    capacity_bytes: usize,
    /// Total queued-bytes bound past which `push` blocks (backpressure).
    max_queued_bytes: Option<usize>,
    spill_dir: PathBuf,
    tag: String,
    state: TrackedMutex<State>,
    available: TrackedCondvar,
    /// Signaled on every dequeue so a producer blocked on the bound wakes.
    space: TrackedCondvar,
}

impl SpillableBuffer {
    /// `capacity_bytes` is the in-memory bound (the paper's send-buffer
    /// size, 4 KiB in its experiments). Spill files are created lazily in
    /// `spill_dir`.
    pub fn new(
        capacity_bytes: usize,
        spill_dir: impl Into<PathBuf>,
        tag: impl Into<String>,
    ) -> Self {
        SpillableBuffer {
            capacity_bytes: capacity_bytes.max(1),
            max_queued_bytes: None,
            spill_dir: spill_dir.into(),
            tag: tag.into(),
            state: TrackedMutex::new(
                "transfer.buffer.state",
                State {
                    memory: VecDeque::new(),
                    memory_bytes: 0,
                    spill: SpillFile::default(),
                    closed: false,
                    bytes_spilled: 0,
                    spill_events: 0,
                    queued_bytes: 0,
                    depth: 0,
                    depth_high_water: 0,
                    stall_us: 0,
                },
            ),
            available: TrackedCondvar::new("transfer.buffer.available"),
            space: TrackedCondvar::new("transfer.buffer.space"),
        }
    }

    /// Add a total queued-bytes bound: once memory plus unread spill
    /// exceed `max_queued_bytes`, `push` blocks until the consumer drains
    /// below it (recording the stall time). The bound sits *above* the
    /// in-memory capacity, so the spill tier still absorbs bursts without
    /// stalling the producer.
    pub fn bounded(mut self, max_queued_bytes: usize) -> Self {
        self.max_queued_bytes = Some(max_queued_bytes.max(1));
        self
    }

    /// Enqueue a chunk: memory if there is room, disk otherwise. Blocks
    /// only when a queued-bytes bound is set and exceeded; the time spent
    /// blocked is recorded in [`BufferStats::stall_us`].
    pub fn push(&self, chunk: Vec<u8>) -> Result<()> {
        let closed = || SqlmlError::Transfer("push to closed buffer".into());
        // Under the lock: backpressure, then either the memory queue or
        // the file range this chunk will occupy.
        let (file, offset) = {
            let mut st = self.state.lock();
            if let Some(bound) = self.max_queued_bytes {
                // A chunk larger than the whole bound is still accepted when
                // the queue is empty, so progress is always possible.
                if st.queued_bytes + chunk.len() > bound && st.depth > 0 && !st.closed {
                    let t0 = Instant::now();
                    while st.queued_bytes + chunk.len() > bound && st.depth > 0 && !st.closed {
                        self.space.wait(&mut st);
                    }
                    st.stall_us += u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                }
            }
            if st.closed {
                return Err(closed());
            }
            // Spill whenever memory is at capacity OR the spill file still
            // holds unread data (to preserve chunk order). A chunk larger
            // than the whole capacity still goes to memory when the queue
            // is empty, so progress is always possible.
            let over_capacity =
                st.memory_bytes + chunk.len() > self.capacity_bytes && !st.memory.is_empty();
            if !over_capacity && st.spill.lens.is_empty() {
                st.memory_bytes += chunk.len();
                st.on_enqueue(chunk.len());
                st.memory.push_back(chunk);
                drop(st);
                self.available.notify_one();
                return Ok(());
            }
            (st.spill.file.clone(), st.spill.write_pos)
        };
        // Lock released: one positional write, no seek. The chunk is not
        // in the queue until its length is published below.
        let file = match file {
            Some(file) => file,
            None => self.create_spill_file()?,
        };
        file.write_all_at(&chunk, offset)?;
        let mut st = self.state.lock();
        if st.closed {
            return Err(closed());
        }
        st.spill.write_pos += chunk.len() as u64;
        st.spill.lens.push_back(chunk.len());
        st.bytes_spilled += chunk.len() as u64;
        st.spill_events += 1;
        st.on_enqueue(chunk.len());
        drop(st);
        self.available.notify_one();
        Ok(())
    }

    /// Create the spill file (no lock held) and record it in the state.
    fn create_spill_file(&self) -> Result<Arc<File>> {
        std::fs::create_dir_all(&self.spill_dir)?;
        static SPILL_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SPILL_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = self.spill_dir.join(format!(
            "spill-{}-{}-{seq}.bin",
            self.tag,
            std::process::id()
        ));
        let file = File::options()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        let file = Arc::new(file);
        let mut st = self.state.lock();
        st.spill.file = Some(Arc::clone(&file));
        st.spill.path = Some(path);
        Ok(file)
    }

    /// Read back the spilled chunk [`State::next_chunk`] located — one
    /// positional read with the lock released — then publish the dequeue.
    fn unspill(&self, file: &File, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut chunk = vec![0u8; len];
        file.read_exact_at(&mut chunk, offset)?;
        let mut st = self.state.lock();
        st.spill.read_pos += len as u64;
        st.spill.lens.pop_front();
        st.on_dequeue(len);
        Ok(chunk)
    }

    /// Dequeue the next chunk, blocking until one is available or the
    /// buffer is closed (then `None` once drained).
    pub fn pop(&self) -> Result<Option<Vec<u8>>> {
        let next = {
            let mut st = self.state.lock();
            loop {
                if let Some(next) = st.next_chunk()? {
                    break next;
                }
                if st.closed {
                    return Ok(None);
                }
                self.available.wait(&mut st);
            }
        };
        self.take(next).map(Some)
    }

    /// Dequeue the next chunk if one is ready, never blocking. Returns
    /// `None` both when the queue is momentarily empty and when it is
    /// closed and drained — callers that need to distinguish use [`pop`]
    /// for the blocking path. Writer threads use this to coalesce all
    /// currently queued chunks into one socket write.
    ///
    /// [`pop`]: SpillableBuffer::pop
    pub fn try_pop(&self) -> Result<Option<Vec<u8>>> {
        let next = self.state.lock().next_chunk()?;
        next.map(|next| self.take(next)).transpose()
    }

    /// Finish a dequeue outside the lock: a spilled chunk is read back
    /// here; either way the producer hears there is space.
    fn take(&self, next: Next) -> Result<Vec<u8>> {
        let chunk = match next {
            Next::Memory(chunk) => chunk,
            Next::Spilled(file, offset, len) => self.unspill(&file, offset, len)?,
        };
        self.space.notify_one();
        Ok(chunk)
    }

    /// Signal end of stream; blocked consumers drain and then see `None`,
    /// and a producer blocked on the queued-bytes bound fails its push.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
        self.space.notify_all();
    }

    pub fn stats(&self) -> BufferStats {
        let st = self.state.lock();
        BufferStats {
            bytes_spilled: st.bytes_spilled,
            spill_events: st.spill_events,
            stall_us: st.stall_us,
            depth_high_water: st.depth_high_water,
        }
    }
}

impl Drop for SpillableBuffer {
    fn drop(&mut self) {
        // Take the path out under the lock, delete the file after
        // releasing it — like the spill reads and writes, filesystem
        // calls never run under the guard.
        let path = self.state.lock().spill.path.take();
        if let Some(p) = path {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmp_dir() -> PathBuf {
        std::env::temp_dir().join("sqlml-buffer-tests")
    }

    #[test]
    fn fifo_order_within_memory() {
        let b = SpillableBuffer::new(1024, tmp_dir(), "fifo");
        b.push(vec![1]).unwrap();
        b.push(vec![2]).unwrap();
        b.push(vec![3]).unwrap();
        b.close();
        assert_eq!(b.pop().unwrap(), Some(vec![1]));
        assert_eq!(b.pop().unwrap(), Some(vec![2]));
        assert_eq!(b.pop().unwrap(), Some(vec![3]));
        assert_eq!(b.pop().unwrap(), None);
    }

    #[test]
    fn overflow_spills_and_preserves_order() {
        let b = SpillableBuffer::new(8, tmp_dir(), "spill-order");
        // Each chunk is 6 bytes; capacity 8 holds one chunk.
        let chunks: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 6]).collect();
        for c in &chunks {
            b.push(c.clone()).unwrap();
        }
        assert!(b.stats().bytes_spilled > 0, "expected spilling");
        b.close();
        let mut got = Vec::new();
        while let Some(c) = b.pop().unwrap() {
            got.push(c);
        }
        assert_eq!(got, chunks, "order must survive the spill file");
    }

    #[test]
    fn no_spill_when_consumer_keeps_up() {
        let b = SpillableBuffer::new(1 << 20, tmp_dir(), "nospill");
        for i in 0..100u8 {
            b.push(vec![i; 100]).unwrap();
            assert!(b.pop().unwrap().is_some());
        }
        assert_eq!(b.stats().bytes_spilled, 0);
    }

    #[test]
    fn concurrent_producer_consumer_delivers_everything() {
        let b = Arc::new(SpillableBuffer::new(64, tmp_dir(), "concurrent"));
        let producer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                for i in 0..1000u32 {
                    b.push(i.to_le_bytes().to_vec()).unwrap();
                }
                b.close();
            })
        };
        let consumer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(c) = b.pop().unwrap() {
                    got.push(u32::from_le_bytes(c.try_into().unwrap()));
                }
                got
            })
        };
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn oversized_chunk_round_trips_through_spill_byte_exactly() {
        // Capacity far below the chunk size, with the memory queue
        // occupied, forces the oversized chunk through the spill file.
        let b = SpillableBuffer::new(8, tmp_dir(), "oversized");
        let small = vec![0xAB; 6];
        let big: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        b.push(small.clone()).unwrap();
        b.push(big.clone()).unwrap();
        let stats = b.stats();
        assert_eq!(stats.bytes_spilled, big.len() as u64);
        assert_eq!(stats.spill_events, 1);
        b.close();
        assert_eq!(b.pop().unwrap(), Some(small));
        assert_eq!(
            b.pop().unwrap(),
            Some(big),
            "spilled chunk must round-trip byte-exactly"
        );
        assert_eq!(b.pop().unwrap(), None);
    }

    #[test]
    fn try_pop_never_blocks_and_drains_spill() {
        let b = SpillableBuffer::new(4, tmp_dir(), "trypop");
        assert_eq!(b.try_pop().unwrap(), None, "empty queue returns None");
        b.push(vec![1; 4]).unwrap();
        b.push(vec![2; 4]).unwrap(); // spilled: memory is at capacity
        assert!(b.stats().spill_events > 0);
        assert_eq!(b.try_pop().unwrap(), Some(vec![1; 4]));
        assert_eq!(b.try_pop().unwrap(), Some(vec![2; 4]));
        assert_eq!(b.try_pop().unwrap(), None);
    }

    #[test]
    fn push_after_close_fails() {
        let b = SpillableBuffer::new(8, tmp_dir(), "closed");
        b.close();
        assert!(b.push(vec![1]).is_err());
    }

    #[test]
    fn depth_high_water_and_queued_accounting() {
        let b = SpillableBuffer::new(4, tmp_dir(), "depth");
        b.push(vec![1; 4]).unwrap();
        b.push(vec![2; 4]).unwrap(); // spilled
        b.push(vec![3; 4]).unwrap(); // spilled
        assert_eq!(b.stats().depth_high_water, 3);
        b.close();
        while b.pop().unwrap().is_some() {}
        // High-water survives the drain.
        assert_eq!(b.stats().depth_high_water, 3);
        assert_eq!(b.stats().stall_us, 0, "unbounded buffer never stalls");
    }

    #[test]
    fn bounded_push_blocks_until_consumer_drains() {
        use std::time::{Duration, Instant};
        let b = Arc::new(SpillableBuffer::new(4, tmp_dir(), "bound").bounded(8));
        b.push(vec![1; 4]).unwrap();
        b.push(vec![2; 4]).unwrap(); // at the bound now
        let pusher = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                b.push(vec![3; 4]).unwrap();
                t0.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(b.pop().unwrap().is_some(), "make room");
        let waited = pusher.join().unwrap();
        assert!(waited >= Duration::from_millis(40), "push must block");
        assert!(b.stats().stall_us >= 40_000);
        // The remaining chunks arrive in order.
        b.close();
        assert_eq!(b.pop().unwrap(), Some(vec![2; 4]));
        assert_eq!(b.pop().unwrap(), Some(vec![3; 4]));
        assert_eq!(b.pop().unwrap(), None);
    }

    #[test]
    fn close_unblocks_a_stalled_producer_with_an_error() {
        let b = Arc::new(SpillableBuffer::new(4, tmp_dir(), "bound-close").bounded(4));
        b.push(vec![1; 4]).unwrap();
        let pusher = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.push(vec![2; 4]))
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        b.close();
        assert!(
            pusher.join().unwrap().is_err(),
            "a stalled push must fail when the buffer closes (writer death)"
        );
    }

    #[test]
    fn oversized_chunk_passes_the_bound_when_queue_is_empty() {
        let b = SpillableBuffer::new(4, tmp_dir(), "bound-oversized").bounded(8);
        // 100 bytes > bound 8, but the queue is empty: must not deadlock.
        b.push(vec![7; 100]).unwrap();
        assert_eq!(b.stats().stall_us, 0);
        b.close();
        assert_eq!(b.pop().unwrap(), Some(vec![7; 100]));
    }

    #[test]
    fn pop_blocks_until_push() {
        use std::time::{Duration, Instant};
        let b = Arc::new(SpillableBuffer::new(8, tmp_dir(), "block"));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let v = b.pop().unwrap();
                (v, t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        b.push(vec![9]).unwrap();
        let (v, waited) = waiter.join().unwrap();
        assert_eq!(v, Some(vec![9]));
        assert!(waited >= Duration::from_millis(40));
    }
}
