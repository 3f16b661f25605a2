//! Shard leave: the two-phase drain behind
//! [`QueryScheduler::remove_shard`] — flip the shard to draining under
//! the registry write lock, then migrate or finish its backlog before
//! its executors are joined. No admitted handle is ever lost.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sqlml_common::{Result, SqlmlError};

use crate::handle::{finalize, Job};
use crate::registry::ShardEntry;
use crate::scheduler::QueryScheduler;

/// How many fresh-snapshot placement attempts a drain migration makes
/// per job before declaring the fleet collapsed. Each retry only fires
/// when the chosen peer closed between snapshot and push — i.e. another
/// shard drained concurrently — so the bound is effectively the number
/// of simultaneous drains the migration can ride out.
const MIGRATE_RETRIES: usize = 8;

/// What [`QueryScheduler::remove_shard`] does with the departing shard's
/// queued (not yet running) jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPolicy {
    /// Lift the backlog out in WFQ order and re-admit it onto live
    /// peers: each job is re-placed by the router (cache-pinned jobs
    /// re-probe the surviving caches first) and force-pushed past the
    /// peer's capacity bound so nothing already admitted is ever lost.
    Migrate,
    /// Leave the backlog in place: the departing shard's own executors
    /// finish every queued job before the shard is torn down. Slower to
    /// leave, but no job changes cluster.
    Drain,
}

/// Receipt from a completed [`QueryScheduler::remove_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRemoval {
    /// Stable id of the removed shard.
    pub shard: usize,
    /// Queued jobs re-admitted onto live peers ([`DrainPolicy::Migrate`]).
    pub migrated: usize,
    /// Queued jobs the departing shard's own executors finished
    /// ([`DrainPolicy::Drain`]; counted at drain start).
    pub drained_in_place: usize,
}

impl QueryScheduler {
    /// Drain shard `id` out of the fleet: flip it to draining (the
    /// router stops placing onto it, thieves stop raiding it, racing
    /// pinned submits reject with [`crate::RejectReason::Draining`]),
    /// dispose of its backlog per `policy`, close its queue, join its
    /// executor threads, and unregister it. In-flight runs finish
    /// normally wherever they are; their WFQ costs still settle onto the
    /// queue that admitted them. A cancel racing the drain resolves its
    /// handle exactly once — the migration path skips already-finalized
    /// jobs.
    ///
    /// Refuses to drain the last live shard (there would be nowhere to
    /// migrate, and a fleet of zero cannot serve).
    pub fn remove_shard(&self, id: usize, policy: DrainPolicy) -> Result<ShardRemoval> {
        let entry = self
            .registry
            .begin_drain(id)
            .map_err(|e| SqlmlError::Execution(format!("remove_shard({id}): {e}")))?;
        let (migrated, drained_in_place) = match policy {
            DrainPolicy::Migrate => (self.migrate_queued(&entry), 0),
            DrainPolicy::Drain => (0, entry.queue.len()),
        };
        // Close after draining: under Migrate, stragglers that raced the
        // lift-out land behind it and are finished by the shard's own
        // executors before they observe Closed.
        entry.queue.close();
        let handles = {
            let mut workers = self.workers.lock();
            let handles = workers.remove(&id);
            self.registry.remove(id);
            handles
        };
        // Join outside every lock: executors may be mid-pipeline.
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
        self.stats.shards_removed.fetch_add(1, Ordering::Relaxed);
        Ok(ShardRemoval {
            shard: id,
            migrated,
            drained_in_place,
        })
    }

    /// Lift the draining shard's backlog out in WFQ order and re-admit
    /// each job onto a live peer. Pinned jobs re-probe the surviving
    /// caches (their old affinity died with the shard they were pinned
    /// to); every job's WFQ charge is re-stamped for its new home and
    /// its home pointer re-aimed so post-run settlement lands where the
    /// new estimate was charged. Force-push bypasses the peer's capacity
    /// bound — an admitted query is never bounced back to the client —
    /// but a peer that closed mid-migration hands the job back and a
    /// fresh snapshot picks another. Returns how many jobs moved.
    fn migrate_queued(&self, from: &Arc<ShardEntry<Job>>) -> usize {
        let mut moved = 0;
        'jobs: for mut job in from.queue.drain_now() {
            // Cancelled-while-queued jobs are already terminal; dropping
            // them here is the same skip their executor would have done.
            if job.shared.is_finished() {
                continue;
            }
            for _ in 0..MIGRATE_RETRIES {
                let snap = self.registry.snapshot();
                let Some((target, affinity)) =
                    self.place(&snap, job.descriptor.as_ref(), &job.request)
                else {
                    break;
                };
                job.charge.restamp(affinity);
                job.home = Arc::clone(&target);
                let shared = Arc::clone(&job.shared);
                let charge = job.charge;
                match target.queue.force_push(&shared.tenant, charge.est, job) {
                    Ok(_) => {
                        shared.migrated.store(true, Ordering::Relaxed);
                        target.counters.migrated_in.fetch_add(1, Ordering::Relaxed);
                        if charge.pinned {
                            target
                                .counters
                                .affinity_hits
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        self.stats.migrated.fetch_add(1, Ordering::Relaxed);
                        moved += 1;
                        continue 'jobs;
                    }
                    // The chosen peer closed between snapshot and push
                    // (a racing drain): take the job back and re-place
                    // it from a fresh snapshot.
                    Err((_, back)) => job = back,
                }
            }
            // No live peer after bounded retries (the fleet collapsed
            // around us). Zero-lost still holds: the handle resolves,
            // as a failure, exactly once.
            finalize(
                &job.shared,
                &self.stats,
                Err(SqlmlError::Execution(format!(
                    "shard {} drained but no live peer could adopt the query",
                    from.id()
                ))),
            );
        }
        moved
    }
}
