//! Sender threads for the SQL-side data plane.
//!
//! The streaming UDF encodes frames on its own thread and enqueues them
//! into per-peer [`SpillableBuffer`]s; the threads spawned here own the
//! sockets and drain those queues, so encoding batch N+1 overlaps the
//! socket write of batch N.
//!
//! One dedicated thread per peer, blocking on [`SpillableBuffer::pop`]
//! and coalescing everything already queued into one buffered write.
//! Dedicated rather than pooled: a thread sweeping several peers was
//! slower in every cell of EXPERIMENTS.md A2b.
//!
//! Drain protocol: the producer pushes every frame **including the final
//! `DataEnd`** into the queue, then closes it. A sender thread therefore
//! never needs to know about message boundaries — it exits when `pop`
//! returns `None` (closed and drained), having already flushed `DataEnd`.
//! On any socket or spill error the thread marks the shared `failed`
//! flag and closes *every* buffer in the group: the producer's next
//! `push` fails (even one blocked on the backpressure bound wakes and
//! fails), the group tears down, and the coordinator's whole-group
//! restart takes over — delivered-watermark dedup on the reader keeps
//! delivery exactly-once.

use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

use sqlml_common::{Result, SqlmlError};

use crate::buffer::SpillableBuffer;

/// Socket write-buffer size for each peer connection.
pub const WRITE_BUFFER_BYTES: usize = 64 * 1024;

/// Spawn one sender thread per peer of a transfer group inside `scope`.
///
/// Returns the join handles; the caller joins them after closing the
/// buffers and propagates the first error into the group restart path.
pub fn spawn_senders<'scope>(
    scope: &'scope Scope<'scope, '_>,
    peers: Vec<(TcpStream, Arc<SpillableBuffer>)>,
    failed: Arc<AtomicBool>,
) -> Vec<ScopedJoinHandle<'scope, Result<()>>> {
    let all_buffers: Vec<Arc<SpillableBuffer>> = peers.iter().map(|(_, b)| Arc::clone(b)).collect();
    peers
        .into_iter()
        .map(|(stream, buffer)| {
            let failed = Arc::clone(&failed);
            let all_buffers = all_buffers.clone();
            scope.spawn(move || {
                drain(stream, &buffer).map_err(|e| {
                    // Poison the whole group so the producer (possibly
                    // blocked on backpressure) and sibling senders all
                    // unwind into the restart protocol.
                    failed.store(true, Ordering::SeqCst);
                    for b in &all_buffers {
                        b.close();
                    }
                    SqlmlError::Transfer(format!("peer write failed: {e}"))
                })
            })
        })
        .collect()
}

/// Per-peer drain: block for the next frame, then opportunistic
/// `try_pop` to coalesce everything queued behind it into one flush.
fn drain(stream: TcpStream, buffer: &SpillableBuffer) -> Result<()> {
    let mut writer = BufWriter::with_capacity(WRITE_BUFFER_BYTES, stream);
    while let Some(chunk) = buffer.pop()? {
        writer.write_all(&chunk)?;
        while let Some(chunk) = buffer.try_pop()? {
            writer.write_all(&chunk)?;
        }
        writer.flush()?;
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::Duration;

    fn spill_dir() -> std::path::PathBuf {
        std::env::temp_dir().join("sqlml-sender-tests")
    }

    /// Accept `n` connections and return the bytes read from each.
    fn sink_peers(listener: TcpListener, n: usize) -> std::thread::JoinHandle<Vec<Vec<u8>>> {
        std::thread::spawn(move || {
            let mut outs = Vec::new();
            for _ in 0..n {
                let (mut conn, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                conn.read_to_end(&mut buf).unwrap();
                outs.push(buf);
            }
            outs
        })
    }

    #[test]
    fn senders_deliver_each_peers_frames_in_order() {
        let num_peers = 3;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = sink_peers(listener, num_peers);
        let peers: Vec<(TcpStream, Arc<SpillableBuffer>)> = (0..num_peers)
            .map(|i| {
                let stream = TcpStream::connect(addr).unwrap();
                let buffer = Arc::new(SpillableBuffer::new(64, spill_dir(), format!("sender-{i}")));
                (stream, buffer)
            })
            .collect();
        let buffers: Vec<Arc<SpillableBuffer>> = peers.iter().map(|(_, b)| Arc::clone(b)).collect();
        let failed = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let handles = spawn_senders(scope, peers, Arc::clone(&failed));
            // Interleave pushes across peers, then close.
            for round in 0..50u8 {
                for (i, b) in buffers.iter().enumerate() {
                    b.push(vec![round, u8::try_from(i).unwrap()]).unwrap();
                }
            }
            for b in &buffers {
                b.close();
            }
            for h in handles {
                h.join().unwrap().unwrap();
            }
        });
        assert!(!failed.load(Ordering::SeqCst));
        let outs = sink.join().unwrap();
        // Accept order need not match connect order; each stream's second
        // byte identifies its peer.
        let mut seen = vec![false; num_peers];
        for out in &outs {
            assert_eq!(out.len(), 100);
            let peer = out[1];
            assert!(!std::mem::replace(&mut seen[peer as usize], true));
            for (round, pair) in out.chunks(2).enumerate() {
                assert_eq!(
                    pair,
                    [u8::try_from(round).unwrap(), peer],
                    "peer {peer} round {round}"
                );
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn write_failure_poisons_the_whole_group() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept both peers, then immediately drop the first connection.
        let acceptor = std::thread::spawn(move || {
            let (dead, _) = listener.accept().unwrap();
            let (alive, _) = listener.accept().unwrap();
            drop(dead);
            alive
        });
        let s0 = TcpStream::connect(addr).unwrap();
        let s1 = TcpStream::connect(addr).unwrap();
        let _alive_end = acceptor.join().unwrap();
        let b0 = Arc::new(SpillableBuffer::new(64, spill_dir(), "poison-0"));
        let b1 = Arc::new(SpillableBuffer::new(64, spill_dir(), "poison-1"));
        let failed = Arc::new(AtomicBool::new(false));
        let saw_error = std::thread::scope(|scope| {
            let handles = spawn_senders(
                scope,
                vec![(s0, Arc::clone(&b0)), (s1, Arc::clone(&b1))],
                Arc::clone(&failed),
            );
            // Keep writing into peer 0 until the broken pipe surfaces and
            // the failure path closes the buffers.
            let mut closed = false;
            for _ in 0..20_000 {
                if b0.push(vec![0u8; 1024]).is_err() {
                    closed = true;
                    break;
                }
                // Give the writer thread a chance to hit the dead socket.
                std::thread::sleep(Duration::from_micros(50));
            }
            b0.close();
            b1.close();
            let mut errs = 0;
            for h in handles {
                if h.join().unwrap().is_err() {
                    errs += 1;
                }
            }
            closed && errs >= 1
        });
        assert!(saw_error, "dead peer must poison the group");
        assert!(failed.load(Ordering::SeqCst));
        assert!(
            b1.push(vec![1]).is_err(),
            "sibling buffer must be closed by the failure"
        );
    }
}
