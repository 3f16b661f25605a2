//! Serving-plane counters and the point-in-time views over them. Every
//! per-shard row of a view is read from one registry snapshot, so the
//! rows are mutually consistent even while shards join or leave.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::scheduler::QueryScheduler;

/// Serving-plane counters (monotonic except the in-flight gauge).
#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub submitted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub cancelled: AtomicU64,
    pub inflight_now: AtomicUsize,
    pub inflight_hw: AtomicUsize,
    pub migrated: AtomicU64,
    pub shards_added: AtomicU64,
    pub shards_removed: AtomicU64,
}

/// A point-in-time copy of one cluster's serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Stable id of the shard these counters belong to.
    pub shard: usize,
    /// Queries the router placed on this cluster.
    pub admitted: u64,
    /// Always 0: shards no longer steal queued queries from each other
    /// (a query runs where it was placed, or where a drain migrated it).
    /// Kept so existing readers of the field still compile.
    pub stolen: u64,
    /// Placements driven by cache affinity (the probe hit here).
    pub cache_affinity_hits: u64,
    /// Queued jobs this cluster adopted from a draining peer.
    pub migrated_in: u64,
    /// The shard was mid-drain when the snapshot was taken.
    pub draining: bool,
}

/// A point-in-time copy of the serving-plane counters. All per-shard
/// rows come from one registry snapshot, so they are mutually
/// consistent even while shards join or leave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStatsSnapshot {
    pub submitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    /// Admitted and not yet finished (queued + running).
    pub inflight_now: usize,
    /// Most queries ever in flight at once.
    pub inflight_high_water: usize,
    /// Queued jobs re-admitted onto live peers by shard drains.
    pub migrated: u64,
    /// Shards that joined the fleet at runtime.
    pub shards_added: u64,
    /// Shards drained out of the fleet at runtime.
    pub shards_removed: u64,
    /// Fleet-membership epoch the per-cluster rows were read at (bumps on
    /// every join/leave).
    pub registry_epoch: u64,
    /// Per-cluster placement/affinity/migration counters, in registration
    /// order; each row names its shard's stable id. Length 1 for a
    /// single-cluster scheduler.
    pub per_cluster: Vec<ClusterCounters>,
}

/// One shard's row in [`QueryScheduler::fleet_snapshot`] — all fields
/// read from the same registry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStat {
    /// Stable shard id.
    pub shard: usize,
    pub queue_depth: usize,
    /// Queries executing on the shard.
    pub running: usize,
    /// The shard's executor threads: `running` never exceeds it.
    pub executors: usize,
    pub draining: bool,
}

impl QueryScheduler {
    pub fn stats(&self) -> SchedStatsSnapshot {
        let snap = self.registry.snapshot();
        SchedStatsSnapshot {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            inflight_now: self.stats.inflight_now.load(Ordering::Relaxed),
            inflight_high_water: self.stats.inflight_hw.load(Ordering::Relaxed),
            migrated: self.stats.migrated.load(Ordering::Relaxed),
            shards_added: self.stats.shards_added.load(Ordering::Relaxed),
            shards_removed: self.stats.shards_removed.load(Ordering::Relaxed),
            registry_epoch: snap.epoch(),
            per_cluster: snap
                .shards()
                .iter()
                .map(|s| ClusterCounters {
                    shard: s.id(),
                    admitted: s.counters.admitted.load(Ordering::Relaxed),
                    stolen: 0,
                    cache_affinity_hits: s.counters.affinity_hits.load(Ordering::Relaxed),
                    migrated_in: s.counters.migrated_in.load(Ordering::Relaxed),
                    draining: s.is_draining(),
                })
                .collect(),
        }
    }

    /// Per-shard load and drain state, in registration order, all fields
    /// read from the same registry snapshot: sum `queue_depth` for the
    /// fleet backlog, `running`/`executors` for how busy each shard is.
    pub fn fleet_snapshot(&self) -> Vec<ShardStat> {
        let snap = self.registry.snapshot();
        snap.shards()
            .iter()
            .map(|s| ShardStat {
                shard: s.id(),
                queue_depth: s.queue.len(),
                running: s.running.load(Ordering::Relaxed),
                executors: self.executors(),
                draining: s.is_draining(),
            })
            .collect()
    }
}
