//! A simulated HDFS-like distributed file system.
//!
//! The paper's baselines hand data between the SQL and ML systems through
//! files on a shared distributed file system; this crate provides that
//! substrate. It reproduces the HDFS behaviours the integration techniques
//! interact with:
//!
//! * files are split into fixed-size **blocks**,
//! * each block is **replicated** on `replication` distinct datanodes,
//! * block **locality** (which nodes hold which block) is exposed so that
//!   compute tasks can be scheduled next to their data,
//! * per-node **throughput throttling** lets benchmarks model disk/network
//!   bandwidth so that the materialization hops of the naive pipeline cost
//!   what they cost on a real cluster,
//! * datanodes can be **killed**, after which reads transparently fail over
//!   to surviving replicas.
//!
//! Everything is in-process and thread-safe; a [`Dfs`] handle can be cloned
//! and shared across the SQL workers, the external transform job, and the
//! ML workers.

mod cluster;
mod namenode;
mod throttle;

pub use cluster::{Dfs, DfsConfig, DfsWriter};
pub use namenode::{BlockLocation, FileStatus};
pub use throttle::Throttle;

/// Identifies a datanode within one [`Dfs`] instance.
pub type NodeId = usize;

/// Symbolic network name of a datanode, used for locality matching between
/// the DFS, the SQL workers, and the ML workers.
pub fn node_name(id: NodeId) -> String {
    format!("node-{id}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_names_are_stable() {
        assert_eq!(node_name(0), "node-0");
        assert_eq!(node_name(12), "node-12");
    }
}
