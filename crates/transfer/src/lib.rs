//! Parallel streaming data transfer between SQL and ML workers (§3).
//!
//! Instead of materializing the prepared/transformed data on the shared
//! file system, each SQL worker streams its partition directly to a group
//! of ML workers over TCP. A long-standing **coordinator** service
//! bridges the two independent distributed systems:
//!
//! 1. every SQL worker registers with the coordinator (worker id, data
//!    address, total worker count, and the ML command to launch);
//! 2. once all have registered, the coordinator **launches the ML job**;
//! 3. the job's [`SqlStreamInputFormat`] asks the coordinator for input
//!    splits — `m = n·k` of them, grouped per SQL worker, each carrying
//!    the SQL worker's node as its preferred location so the scheduler
//!    colocates readers with their senders;
//! 4. ML workers register back and are matched to their SQL worker;
//! 5. readers connect to their SQL worker's data listener, and rows flow
//!    round-robin over the sockets as numeric column-run frames (one
//!    wire format, version-checked in the handshake), through per-peer
//!    **send buffers that spill to disk** when a reader is slow (§3's
//!    producer/consumer synchronization), each drained by its own sender
//!    thread; each reader reads and decodes its frames on the ML thread
//!    that owns its split.
//!
//! The data plane's three tunables live in [`TransferConfig`].
//!
//! Fault tolerance follows §6's restart protocol: when any connection of
//! a SQL worker's group fails, the worker restarts the *whole group*
//! (drops all its connections, re-accepts, and resends from the start of
//! its deterministic partition), and the readers reconnect and discard
//! partial data — giving exactly-once delivery at dataset granularity.

pub mod buffer;
pub mod config;
pub mod coordinator;
pub mod input_format;
pub mod metrics;
pub mod protocol;
pub mod sender;
pub mod session;
pub mod stream_udf;

pub use buffer::SpillableBuffer;
pub use config::{TransferArgs, TransferConfig};
pub use coordinator::{Coordinator, CoordinatorHandle};
pub use input_format::{SqlStreamInputFormat, StreamRecordReader};
pub use metrics::{MetricsSnapshot, TransferMetrics};
pub use session::{CancelRegistry, FaultInjector, StreamSession, StreamSessionConfig, StreamStats};
pub use stream_udf::StreamTransferUdf;
