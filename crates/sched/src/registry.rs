//! The epoch-versioned shard registry: the fleet membership table behind
//! the elastic serving plane.
//!
//! Before elasticity the scheduler held its shards in a plain
//! `Arc<Vec<Shard>>` fixed at construction. Runtime join/leave breaks
//! that in two ways: shard *indices* stop being stable identities (shard
//! 2 may leave while shard 3 stays), and any code that iterates the
//! fleet (placement probes, drain migration, stats) can race a resize
//! and observe a half-updated table. The registry fixes both:
//!
//! * every shard gets a **stable id** assigned at registration and never
//!   reused — handles, counters, and pinning all speak ids, not indices;
//! * readers take a [`Snapshot`]: an `Arc` clone of the current
//!   membership vector plus the **epoch** (bumped on every join/leave).
//!   A snapshot is immutable and internally consistent — probing,
//!   migration, and stats iterate it without holding the registry lock,
//!   so a concurrent resize can never interleave mismatched per-shard
//!   views;
//! * leave is a two-phase **drain protocol**: [`ShardRegistry::begin_drain`]
//!   flips the shard's draining flag *under the write lock*, where it can
//!   atomically check that at least one non-draining peer remains — two
//!   racing `remove_shard` calls can therefore never drain the whole
//!   fleet and strand migrating jobs with nowhere to go.
//!
//! Lock discipline: the registry holds exactly one lock
//! (`sched.registry`), taken briefly for snapshot/insert/remove and
//! never while touching a shard's queue. The scheduler's
//! outer locks (`sched.tenants`, `sched.workers`) order strictly before
//! it; see `xtask/lock-order.manifest`.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sqlml_cache::CacheManager;
use sqlml_common::lockorder::TrackedRwLock;
use sqlml_core::SimCluster;

use crate::queue::FairQueue;

/// Per-shard serving counters (monotonic).
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub admitted: AtomicU64,
    pub affinity_hits: AtomicU64,
    /// Queued jobs this shard adopted from a draining peer.
    pub migrated_in: AtomicU64,
}

/// One serving shard: a cluster plus its queue, running gauge, cache,
/// counters, and drain flag. `T` is the queue's item type (the
/// scheduler's `Job`).
pub(crate) struct ShardEntry<T> {
    id: usize,
    pub cluster: Arc<SimCluster>,
    pub queue: FairQueue<T>,
    /// Queries executing on this shard's executors right now — the
    /// router's busy signal.
    pub running: AtomicUsize,
    pub cache: Option<Arc<CacheManager>>,
    pub counters: ShardCounters,
    draining: AtomicBool,
}

impl<T> ShardEntry<T> {
    /// The shard's stable id: assigned at registration, never reused.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the shard is on its way out of the fleet: the router no
    /// longer places onto it and pinned submissions are refused.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

impl<T> fmt::Debug for ShardEntry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardEntry")
            .field("id", &self.id)
            .field("queue_depth", &self.queue.len())
            .field("draining", &self.is_draining())
            .finish()
    }
}

/// An immutable, internally consistent view of the fleet at one epoch.
/// Cheap to take (one `Arc` clone under a brief read lock) and cheap to
/// hold — membership changes build a fresh vector, they never mutate one
/// a snapshot may still reference.
pub(crate) struct Snapshot<T> {
    epoch: u64,
    shards: Arc<Vec<Arc<ShardEntry<T>>>>,
}

impl<T> Snapshot<T> {
    /// The membership epoch this snapshot was taken at (bumped on every
    /// join/leave; equal epochs ⇒ identical membership).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn shards(&self) -> &[Arc<ShardEntry<T>>] {
        &self.shards
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Find a shard by stable id.
    pub fn find(&self, id: usize) -> Option<&Arc<ShardEntry<T>>> {
        self.shards.iter().find(|s| s.id() == id)
    }
}

struct Registered<T> {
    epoch: u64,
    shards: Arc<Vec<Arc<ShardEntry<T>>>>,
}

/// Why [`ShardRegistry::begin_drain`] refused to start a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DrainRefused {
    /// No shard with that id is registered (wrong id, or already gone).
    NoSuchShard,
    /// The shard is already draining (a concurrent `remove_shard` won).
    AlreadyDraining,
    /// Removing this shard would leave no live peer to adopt its work.
    LastShard,
}

impl fmt::Display for DrainRefused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainRefused::NoSuchShard => write!(f, "no such shard in the fleet"),
            DrainRefused::AlreadyDraining => write!(f, "shard is already draining"),
            DrainRefused::LastShard => {
                write!(f, "refusing to drain the last live shard of the fleet")
            }
        }
    }
}

/// The fleet membership table. See the module docs for the protocol.
pub(crate) struct ShardRegistry<T> {
    inner: TrackedRwLock<Registered<T>>,
    next_id: AtomicUsize,
}

impl<T> ShardRegistry<T> {
    pub fn new() -> ShardRegistry<T> {
        ShardRegistry {
            inner: TrackedRwLock::new(
                "sched.registry",
                Registered {
                    epoch: 0,
                    shards: Arc::new(Vec::new()),
                },
            ),
            next_id: AtomicUsize::new(0),
        }
    }

    /// Assemble a shard entry around a booted cluster, assigning the
    /// next stable id. The entry is not yet visible to readers — call
    /// [`ShardRegistry::insert`] once its executors are wired up.
    pub fn build_entry(
        &self,
        cluster: Arc<SimCluster>,
        queue_capacity: usize,
        cache: Option<Arc<CacheManager>>,
    ) -> Arc<ShardEntry<T>> {
        Arc::new(ShardEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            cluster,
            queue: FairQueue::new(queue_capacity),
            running: AtomicUsize::new(0),
            cache,
            counters: ShardCounters::default(),
            draining: AtomicBool::new(false),
        })
    }

    /// Publish a shard to readers; returns the new epoch.
    pub fn insert(&self, entry: Arc<ShardEntry<T>>) -> u64 {
        let mut inner = self.inner.write();
        let mut shards: Vec<Arc<ShardEntry<T>>> = inner.shards.as_ref().clone();
        shards.push(entry);
        inner.shards = Arc::new(shards);
        inner.epoch += 1;
        inner.epoch
    }

    /// Unpublish a shard; snapshots taken earlier keep their (now stale)
    /// view, which is safe: the entry's queue outlives them. Returns the
    /// removed entry, or `None` if the id is unknown.
    pub fn remove(&self, id: usize) -> Option<Arc<ShardEntry<T>>> {
        let mut inner = self.inner.write();
        let pos = inner.shards.iter().position(|s| s.id() == id)?;
        let mut shards: Vec<Arc<ShardEntry<T>>> = inner.shards.as_ref().clone();
        let removed = shards.remove(pos);
        inner.shards = Arc::new(shards);
        inner.epoch += 1;
        Some(removed)
    }

    /// Atomically flip a shard to draining — but only if it exists, is
    /// not already draining, and at least one non-draining peer would
    /// remain. Done under the write lock so two racing drains cannot
    /// both pass the last-live-peer check.
    pub fn begin_drain(&self, id: usize) -> Result<Arc<ShardEntry<T>>, DrainRefused> {
        let inner = self.inner.write();
        let entry = inner
            .shards
            .iter()
            .find(|s| s.id() == id)
            .ok_or(DrainRefused::NoSuchShard)?;
        if entry.is_draining() {
            return Err(DrainRefused::AlreadyDraining);
        }
        let live_peers = inner
            .shards
            .iter()
            .filter(|s| s.id() != id && !s.is_draining())
            .count();
        if live_peers == 0 {
            return Err(DrainRefused::LastShard);
        }
        entry.draining.store(true, Ordering::Release);
        Ok(Arc::clone(entry))
    }

    pub fn snapshot(&self) -> Snapshot<T> {
        let inner = self.inner.read();
        Snapshot {
            epoch: inner.epoch,
            shards: Arc::clone(&inner.shards),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_core::workload::WorkloadScale;
    use sqlml_core::ClusterConfig;

    fn registry_of(n: usize) -> ShardRegistry<u32> {
        let reg = ShardRegistry::new();
        for c in
            SimCluster::start_shards(ClusterConfig::for_tests(), n, WorkloadScale::TINY, 5).unwrap()
        {
            let entry = reg.build_entry(c, 4, None);
            reg.insert(entry);
        }
        reg
    }

    #[test]
    fn snapshots_are_epoch_stamped_and_immutable() {
        let reg = registry_of(2);
        let before = reg.snapshot();
        assert_eq!((before.epoch(), before.len()), (2, 2));
        let ids: Vec<usize> = before.shards().iter().map(|s| s.id()).collect();
        assert_eq!(ids, vec![0, 1]);
        // A membership change bumps the epoch; the old snapshot is
        // untouched.
        let gone = reg.begin_drain(1).unwrap();
        reg.remove(gone.id()).unwrap();
        let after = reg.snapshot();
        assert_eq!((after.epoch(), after.len()), (3, 1));
        assert_eq!(before.len(), 2);
        assert!(before.find(1).is_some());
        assert!(after.find(1).is_none());
    }

    #[test]
    fn ids_are_never_reused() {
        let reg = registry_of(2);
        reg.begin_drain(0).unwrap();
        reg.remove(0).unwrap();
        let c =
            SimCluster::start_seeded(ClusterConfig::for_tests(), WorkloadScale::TINY, 5).unwrap();
        let entry = reg.build_entry(c, 4, None);
        let fresh = entry.id();
        reg.insert(entry);
        assert_eq!(fresh, 2, "removed id 0 must not be recycled");
    }

    #[test]
    fn begin_drain_refuses_the_last_live_shard() {
        let reg = registry_of(2);
        reg.begin_drain(0).unwrap();
        // Draining 1 too would leave migrating jobs nowhere to go.
        assert_eq!(reg.begin_drain(1).unwrap_err(), DrainRefused::LastShard);
        // And a double drain of the same shard is refused, not repeated.
        assert_eq!(
            reg.begin_drain(0).unwrap_err(),
            DrainRefused::AlreadyDraining
        );
        assert_eq!(reg.begin_drain(9).unwrap_err(), DrainRefused::NoSuchShard);
    }
}
