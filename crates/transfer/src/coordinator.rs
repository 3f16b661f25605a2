//! The coordinator service (Figure 2 of the paper).
//!
//! A long-standing TCP service that bridges the SQL and ML systems:
//! it collects SQL-worker registrations (step 1), launches the ML job
//! when the last one arrives (step 2), answers the ML `InputFormat`'s
//! split request with the locality-annotated split table (step 3), and
//! records ML-worker registrations (step 4). Matching (step 5/6) is
//! carried *in* the split table: each split names its SQL worker's data
//! address, so a reader opening split `(w, i)` is by construction matched
//! to SQL worker `w`.
//!
//! One coordinator serves many transfer sessions concurrently, keyed by
//! `transfer_id`.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqlml_common::lockorder::{TrackedCondvar, TrackedMutex};
use sqlml_common::{Result, SqlmlError};

use crate::protocol::{read_message, write_message, Message, SplitEntry};

/// What the coordinator knows about one registered SQL worker.
#[derive(Debug, Clone)]
pub struct SqlWorkerInfo {
    pub worker: u32,
    pub data_addr: String,
    pub node: String,
}

/// A fully registered transfer session, handed to the job launcher.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    pub transfer_id: u64,
    pub command: String,
    pub splits_per_worker: u32,
    /// SQL workers ordered by worker id.
    pub workers: Vec<SqlWorkerInfo>,
}

impl SessionInfo {
    /// The split table: `n·k` entries, grouped per SQL worker, located at
    /// the SQL worker's node (step 3 of Figure 2).
    pub fn split_entries(&self) -> Vec<SplitEntry> {
        let mut out = Vec::with_capacity(self.workers.len() * self.splits_per_worker as usize);
        for w in &self.workers {
            for i in 0..self.splits_per_worker {
                out.push(SplitEntry {
                    sql_worker: w.worker,
                    index_in_group: i,
                    data_addr: w.data_addr.clone(),
                    location: w.node.clone(),
                });
            }
        }
        out
    }
}

#[derive(Default)]
struct Session {
    total_workers: Option<u32>,
    command: Option<String>,
    splits_per_worker: u32,
    workers: HashMap<u32, SqlWorkerInfo>,
    complete: Option<SessionInfo>,
    ml_workers: Vec<(u32, String)>,
    launched: bool,
}

#[derive(Default)]
struct SharedState {
    sessions: HashMap<u64, Session>,
}

/// Callback invoked (on a dedicated thread) when a session completes
/// registration — this is how the coordinator "launches the ML job".
pub type JobLauncher = Arc<dyn Fn(SessionInfo) + Send + Sync>;

struct Inner {
    state: TrackedMutex<SharedState>,
    session_ready: TrackedCondvar,
    launcher: TrackedMutex<Option<JobLauncher>>,
    /// Set by [`Coordinator`]'s `Drop`; the accept loop exits at its next
    /// wake-up.
    stopping: AtomicBool,
}

/// The running coordinator service. Dropping it stops the accept loop
/// and closes the listening socket; sessions already snapshotted can be
/// [`Coordinator::restore`]d on a fresh address.
pub struct Coordinator {
    inner: Arc<Inner>,
    addr: String,
    /// The accept loop (it owns the listener); joined on drop.
    accept: Option<JoinHandle<()>>,
}

/// A cheap handle for querying the coordinator from tests/benchmarks.
#[derive(Clone)]
pub struct CoordinatorHandle {
    inner: Arc<Inner>,
    pub addr: String,
}

impl Coordinator {
    /// Bind on an ephemeral localhost port and start serving.
    pub fn start() -> Result<Coordinator> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        // The one deliberate nesting in this file: completing the
        // registration barrier reads the launcher callback while the
        // session state is still locked, so the launch decision and the
        // session's `complete` flag stay atomic. Declared here (and in
        // xtask/lock-order.manifest) so the reverse nesting can never
        // creep in.
        sqlml_common::declare_order(&[(
            "transfer.coordinator.state",
            "transfer.coordinator.launcher",
        )]);
        let inner = Arc::new(Inner {
            state: TrackedMutex::new("transfer.coordinator.state", SharedState::default()),
            session_ready: TrackedCondvar::new("transfer.coordinator.session_ready"),
            launcher: TrackedMutex::new("transfer.coordinator.launcher", None),
            stopping: AtomicBool::new(false),
        });
        let serve_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("sqlml-coordinator".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if serve_inner.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    match conn {
                        Ok(stream) => {
                            let inner = Arc::clone(&serve_inner);
                            std::thread::spawn(move || {
                                let _ = handle_connection(stream, inner);
                            });
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(Coordinator {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// Address (`host:port`) clients use — the paper's "IP and port
    /// number of the coordinator".
    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn handle(&self) -> CoordinatorHandle {
        CoordinatorHandle {
            inner: Arc::clone(&self.inner),
            addr: self.addr.clone(),
        }
    }

    /// Install the ML job launcher (step 2's action). Must be set before
    /// SQL workers finish registering.
    pub fn set_job_launcher(&self, launcher: JobLauncher) {
        *self.inner.launcher.lock() = Some(launcher);
    }
}

impl Drop for Coordinator {
    /// Stop and join the accept loop, which closes the listener it owns.
    /// Without this every coordinator ever started — one per cluster, so
    /// one per `add_shard`/`remove_shard` cycle of an elastic fleet —
    /// left a thread blocked in `accept` and a listening socket behind
    /// for the life of the process (`tests/leaks.rs`).
    fn drop(&mut self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        // `accept` has no timeout; one throwaway connection wakes the
        // loop so it sees the flag. If even that fails the thread is left
        // detached rather than hanging the drop on a join.
        if TcpStream::connect(&self.addr).is_ok() {
            if let Some(accept) = self.accept.take() {
                let _ = accept.join();
            }
        }
    }
}

impl CoordinatorHandle {
    /// Block until the session has all SQL workers registered; returns
    /// the session info. Used by `SqlStreamInputFormat::get_splits`.
    pub fn wait_for_session(&self, transfer_id: u64, timeout: Duration) -> Result<SessionInfo> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        loop {
            if let Some(info) = state
                .sessions
                .get(&transfer_id)
                .and_then(|s| s.complete.clone())
            {
                return Ok(info);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SqlmlError::Transfer(format!(
                    "timed out waiting for transfer session {transfer_id}"
                )));
            }
            self.inner
                .session_ready
                .wait_for(&mut state, deadline - now);
        }
    }

    /// Registered ML workers of a session (step-4 bookkeeping).
    pub fn ml_workers(&self, transfer_id: u64) -> Vec<(u32, String)> {
        self.inner
            .state
            .lock()
            .sessions
            .get(&transfer_id)
            .map(|s| s.ml_workers.clone())
            .unwrap_or_default()
    }

    /// Drop a finished session's state.
    pub fn forget_session(&self, transfer_id: u64) {
        self.inner.state.lock().sessions.remove(&transfer_id);
    }

    /// Snapshot every completed session — the state a ZooKeeper-backed
    /// deployment would persist so that a replacement coordinator can
    /// keep answering split requests (§6: "we need the coordinator
    /// service to be resilient itself. This can be achieved by using
    /// Zookeeper").
    pub fn snapshot(&self) -> Vec<SessionInfo> {
        self.inner
            .state
            .lock()
            .sessions
            .values()
            .filter_map(|s| s.complete.clone())
            .collect()
    }
}

impl Coordinator {
    /// Start a replacement coordinator primed with a snapshot: sessions
    /// whose registration barrier had already completed are immediately
    /// answerable (`GetSplits`, `wait_for_session`) on the new address.
    pub fn restore(snapshot: Vec<SessionInfo>) -> Result<Coordinator> {
        let coord = Coordinator::start()?;
        {
            let mut state = coord.inner.state.lock();
            for info in snapshot {
                let mut session = Session {
                    total_workers: Some(sqlml_common::counter_u32(
                        info.workers.len(),
                        "restored session worker count",
                    )?),
                    command: Some(info.command.clone()),
                    splits_per_worker: info.splits_per_worker,
                    launched: true, // never relaunch a restored job
                    ..Session::default()
                };
                for w in &info.workers {
                    session.workers.insert(w.worker, w.clone());
                }
                session.complete = Some(info.clone());
                state.sessions.insert(info.transfer_id, session);
            }
        }
        coord.inner.session_ready.notify_all();
        Ok(coord)
    }
}

fn handle_connection(mut stream: TcpStream, inner: Arc<Inner>) -> Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    loop {
        let msg = match read_message(&mut stream) {
            Ok(m) => m,
            Err(_) => return Ok(()), // client hung up
        };
        match msg {
            Message::RegisterSql {
                transfer_id,
                worker,
                total_workers,
                data_addr,
                node,
                command,
                splits_per_worker,
            } => {
                // Decide under the lock, but keep all socket I/O outside
                // it: a slow peer must not stall every other connection.
                let decision: std::result::Result<Option<(SessionInfo, JobLauncher)>, String> = {
                    let mut state = inner.state.lock();
                    let session = state.sessions.entry(transfer_id).or_default();
                    match session.total_workers {
                        Some(t) if t != total_workers => Err(format!(
                            "inconsistent total_workers: {t} vs {total_workers}"
                        )),
                        _ => {
                            session.total_workers = Some(total_workers);
                            session.command.get_or_insert_with(|| command.clone());
                            session.splits_per_worker = splits_per_worker;
                            session.workers.insert(
                                worker,
                                SqlWorkerInfo {
                                    worker,
                                    data_addr,
                                    node,
                                },
                            );
                            // Step 2: "When all the SQL workers have
                            // registered, the coordinator launches the ML
                            // job".
                            if session.workers.len() == total_workers as usize && !session.launched
                            {
                                session.launched = true;
                                let mut workers: Vec<SqlWorkerInfo> =
                                    session.workers.values().cloned().collect();
                                workers.sort_by_key(|w| w.worker);
                                let info = SessionInfo {
                                    transfer_id,
                                    command: session.command.clone().unwrap_or_default(),
                                    splits_per_worker,
                                    workers,
                                };
                                session.complete = Some(info.clone());
                                inner.session_ready.notify_all();
                                Ok(inner.launcher.lock().clone().map(|l| (info, l)))
                            } else {
                                Ok(None)
                            }
                        }
                    }
                };
                match decision {
                    Err(reason) => {
                        write_message(&mut stream, &Message::Abort { reason })?;
                        continue;
                    }
                    Ok(launch) => {
                        if let Some((info, launcher)) = launch {
                            std::thread::Builder::new()
                                .name(format!("sqlml-job-{}", info.transfer_id))
                                .spawn(move || launcher(info))?;
                        }
                        write_message(&mut stream, &Message::SqlAck { splits_per_worker })?;
                    }
                }
            }
            Message::GetSplits { transfer_id } => {
                // Step 3: block until registration completes, then answer
                // with the locality-annotated split table.
                let info = CoordinatorHandle {
                    inner: Arc::clone(&inner),
                    addr: String::new(),
                }
                .wait_for_session(transfer_id, Duration::from_secs(30));
                match info {
                    Ok(info) => write_message(
                        &mut stream,
                        &Message::Splits {
                            entries: info.split_entries(),
                        },
                    )?,
                    Err(e) => write_message(
                        &mut stream,
                        &Message::Abort {
                            reason: e.to_string(),
                        },
                    )?,
                }
            }
            Message::RegisterMl {
                transfer_id,
                ml_worker,
                node,
            } => {
                inner
                    .state
                    .lock()
                    .sessions
                    .entry(transfer_id)
                    .or_default()
                    .ml_workers
                    .push((ml_worker, node));
                write_message(&mut stream, &Message::MlAck)?;
            }
            other => {
                write_message(
                    &mut stream,
                    &Message::Abort {
                        reason: format!("unexpected control message {other:?}"),
                    },
                )?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn connect(addr: &str) -> TcpStream {
        TcpStream::connect(addr).unwrap()
    }

    fn register(addr: &str, transfer_id: u64, worker: u32, total: u32) -> Message {
        let mut s = connect(addr);
        write_message(
            &mut s,
            &Message::RegisterSql {
                transfer_id,
                worker,
                total_workers: total,
                data_addr: format!("127.0.0.1:{}", 9000 + worker),
                node: format!("node-{worker}"),
                command: "svm label=3".into(),
                splits_per_worker: 2,
            },
        )
        .unwrap();
        read_message(&mut s).unwrap()
    }

    #[test]
    fn registration_barrier_launches_job_once() {
        let coord = Coordinator::start().unwrap();
        let launches = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(std::sync::Mutex::new(None::<SessionInfo>));
        {
            let launches = Arc::clone(&launches);
            let seen = Arc::clone(&seen);
            coord.set_job_launcher(Arc::new(move |info| {
                launches.fetch_add(1, Ordering::SeqCst);
                *seen.lock().unwrap() = Some(info);
            }));
        }
        let ack = register(coord.addr(), 7, 0, 3);
        assert_eq!(
            ack,
            Message::SqlAck {
                splits_per_worker: 2
            }
        );
        register(coord.addr(), 7, 1, 3);
        assert_eq!(launches.load(Ordering::SeqCst), 0, "not all registered yet");
        register(coord.addr(), 7, 2, 3);
        // Give the launcher thread a moment.
        for _ in 0..100 {
            if launches.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(launches.load(Ordering::SeqCst), 1);
        let info = seen.lock().unwrap().clone().unwrap();
        assert_eq!(info.transfer_id, 7);
        assert_eq!(info.workers.len(), 3);
        assert_eq!(info.command, "svm label=3");
        // Duplicate registration must not relaunch.
        register(coord.addr(), 7, 2, 3);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(launches.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn split_table_has_n_times_k_grouped_entries() {
        let coord = Coordinator::start().unwrap();
        for w in 0..2 {
            register(coord.addr(), 9, w, 2);
        }
        let mut s = connect(coord.addr());
        write_message(&mut s, &Message::GetSplits { transfer_id: 9 }).unwrap();
        match read_message(&mut s).unwrap() {
            Message::Splits { entries } => {
                assert_eq!(entries.len(), 4); // n=2, k=2
                assert_eq!(entries[0].sql_worker, 0);
                assert_eq!(entries[0].index_in_group, 0);
                assert_eq!(entries[1].index_in_group, 1);
                assert_eq!(entries[2].sql_worker, 1);
                assert_eq!(entries[0].location, "node-0");
                assert_eq!(entries[3].location, "node-1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_splits_blocks_until_registration_completes() {
        let coord = Coordinator::start().unwrap();
        let addr = coord.addr().to_string();
        let waiter = std::thread::spawn(move || {
            let mut s = connect(&addr);
            write_message(&mut s, &Message::GetSplits { transfer_id: 11 }).unwrap();
            read_message(&mut s).unwrap()
        });
        std::thread::sleep(Duration::from_millis(100));
        register(coord.addr(), 11, 0, 1);
        match waiter.join().unwrap() {
            Message::Splits { entries } => assert_eq!(entries.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ml_registration_is_recorded() {
        let coord = Coordinator::start().unwrap();
        let mut s = connect(coord.addr());
        write_message(
            &mut s,
            &Message::RegisterMl {
                transfer_id: 13,
                ml_worker: 4,
                node: "node-4".into(),
            },
        )
        .unwrap();
        assert_eq!(read_message(&mut s).unwrap(), Message::MlAck);
        assert_eq!(coord.handle().ml_workers(13), vec![(4, "node-4".into())]);
        coord.handle().forget_session(13);
        assert!(coord.handle().ml_workers(13).is_empty());
    }

    #[test]
    fn sessions_are_independent() {
        let coord = Coordinator::start().unwrap();
        register(coord.addr(), 100, 0, 1);
        let info = coord
            .handle()
            .wait_for_session(100, Duration::from_secs(1))
            .unwrap();
        assert_eq!(info.transfer_id, 100);
        assert!(coord
            .handle()
            .wait_for_session(200, Duration::from_millis(100))
            .is_err());
    }

    #[test]
    fn snapshot_restore_preserves_completed_sessions() {
        let coord = Coordinator::start().unwrap();
        register(coord.addr(), 21, 0, 2);
        register(coord.addr(), 21, 1, 2);
        let snapshot = coord.handle().snapshot();
        assert_eq!(snapshot.len(), 1);

        // "Crash" the coordinator; a replacement takes over from the
        // snapshot at a fresh address.
        drop(coord);
        let replacement = Coordinator::restore(snapshot).unwrap();
        let info = replacement
            .handle()
            .wait_for_session(21, Duration::from_millis(200))
            .unwrap();
        assert_eq!(info.workers.len(), 2);
        // And it still answers GetSplits over the wire.
        let mut s = connect(replacement.addr());
        write_message(&mut s, &Message::GetSplits { transfer_id: 21 }).unwrap();
        match read_message(&mut s).unwrap() {
            Message::Splits { entries } => assert_eq!(entries.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        // Unknown sessions still time out on the replacement.
        assert!(replacement
            .handle()
            .wait_for_session(999, Duration::from_millis(50))
            .is_err());
    }

    #[test]
    fn inconsistent_worker_totals_are_rejected() {
        let coord = Coordinator::start().unwrap();
        register(coord.addr(), 15, 0, 3);
        let mut s = connect(coord.addr());
        write_message(
            &mut s,
            &Message::RegisterSql {
                transfer_id: 15,
                worker: 1,
                total_workers: 4, // mismatch
                data_addr: "127.0.0.1:1".into(),
                node: "node-1".into(),
                command: String::new(),
                splits_per_worker: 2,
            },
        )
        .unwrap();
        assert!(matches!(
            read_message(&mut s).unwrap(),
            Message::Abort { .. }
        ));
    }
}
