//! The executor loop: each shard's pool of worker threads popping its
//! fair queue in WFQ order, stealing from backlogged peers when idle,
//! and running one admitted query at a time. The pool's size is the
//! shard's one concurrency bound.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sqlml_core::Pipeline;

use crate::handle::{finalize, Job};
use crate::queue::Popped;
use crate::registry::{ShardEntry, Snapshot};
use crate::scheduler::QueryScheduler;
use crate::stats::Stats;

/// How long an idle executor waits on its own queue before scanning
/// peers for stealable work. Bounds steal latency, not correctness.
const STEAL_POLL: Duration = Duration::from_millis(10);

impl QueryScheduler {
    /// One shard's executor pool: `max_concurrent` threads popping its
    /// queue (and stealing from peers via fresh registry snapshots). Each
    /// thread owns one [`Pipeline`] over the shard's cluster; with
    /// `enable_cache` all of a shard's threads share one §5 cache.
    pub(crate) fn spawn_executors(&self, entry: &Arc<ShardEntry<Job>>) -> Vec<JoinHandle<()>> {
        (0..self.executors())
            .map(|_| {
                let entry = Arc::clone(entry);
                let registry = Arc::clone(&self.registry);
                let stats = Arc::clone(&self.stats);
                let stealing = self.config.work_stealing;
                let steal_min = self.config.steal_min_backlog.max(1);
                std::thread::spawn(move || {
                    let pipeline = match &entry.cache {
                        Some(c) => Pipeline::with_shared_cache(&entry.cluster, Arc::clone(c)),
                        None => Pipeline::new(&entry.cluster),
                    };
                    loop {
                        match entry.queue.pop_timeout(STEAL_POLL) {
                            Popped::Item(job) => run_one(&pipeline, &entry, &stats, job),
                            Popped::Closed => break,
                            // A draining shard stops raiding peers: its
                            // executors only finish what is already
                            // theirs and then exit.
                            Popped::Empty => {
                                if stealing && !entry.is_draining() {
                                    let snap = registry.snapshot();
                                    if let Some(job) = try_steal(&snap, entry.id(), steal_min) {
                                        run_one(&pipeline, &entry, &stats, job);
                                    }
                                }
                            }
                        }
                    }
                })
            })
            .collect()
    }
}

/// Scan peers for the most-backlogged queue and claim its head-of-line
/// query — unless that query is cache-pinned to its home shard. Peers
/// mid-drain are never raided: their backlog is the drain protocol's to
/// migrate (or finish), and racing it would double-account the jobs.
fn try_steal(snap: &Snapshot<Job>, me: usize, steal_min: usize) -> Option<Job> {
    let victim = snap
        .shards()
        .iter()
        .filter(|s| s.id() != me && !s.is_draining())
        .map(|s| (s.queue.len(), s))
        .filter(|(len, _)| *len >= steal_min)
        .max_by_key(|(len, _)| *len)?
        .1;
    victim.queue.try_pop_if(|job| !job.charge.pinned)
}

/// Execute one admitted query on this worker thread (shard `me`). A
/// stolen job (`me` ≠ home) runs *entirely* here: pipeline, §6 transfer
/// state, and cache population all belong to the stealing cluster; only
/// tenant cost accounting settles back home. The job's home pointer
/// keeps the home queue alive even if that shard has since left the
/// registry.
fn run_one(pipeline: &Pipeline<'_>, me: &Arc<ShardEntry<Job>>, stats: &Stats, job: Job) {
    let shared = Arc::clone(&job.shared);
    // A query whose deadline passed while it was queued never starts.
    if let Err(e) = shared.cancel.check("queued") {
        finalize(&shared, stats, Err(e));
        return;
    }
    // A query cancelled while queued is already terminal and must not
    // run.
    if !shared.claim(me.id()) {
        return;
    }
    if me.id() != job.home.id() {
        shared.stolen.store(true, Ordering::Relaxed);
        me.counters.stolen.fetch_add(1, Ordering::Relaxed);
    }
    // No guard: a panicking run kills this executor thread either way.
    me.running.fetch_add(1, Ordering::Relaxed);
    let result = pipeline.run_with(&job.request, shared.strategy, &shared.cancel);
    me.running.fetch_sub(1, Ordering::Relaxed);
    // Settle the measured WFQ cost back onto the tenant's virtual clock
    // at the *home* queue, where admission (or drain migration) charged
    // the estimate.
    if let Ok(report) = &result {
        if let Some(measured) = job.charge.settlement(report.cache_use) {
            job.home
                .queue
                .settle(&shared.tenant, job.charge.est, measured);
            stats.cost_settlements.fetch_add(1, Ordering::Relaxed);
        }
    }
    finalize(&shared, stats, result);
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use sqlml_core::Strategy;

    use crate::scheduler::fixtures::{request, sched_with};
    use crate::{QuerySpec, QueryStatus, SchedulerConfig};

    #[test]
    fn zero_deadline_cancels_cleanly_and_cluster_stays_usable() {
        let sched = sched_with(SchedulerConfig::default());
        let doomed = sched
            .submit(
                QuerySpec::new("t", request(), Strategy::InSqlStream).with_deadline(Duration::ZERO),
            )
            .unwrap();
        let result = doomed.wait();
        let err = result.as_ref().as_ref().unwrap_err();
        assert!(err.is_cancelled(), "expected cancellation, got {err}");
        assert!(err.to_string().contains("queued"), "{err}");
        assert_eq!(doomed.status(), QueryStatus::Cancelled);
        assert_eq!(doomed.ran_on(), None);
        // The shared cluster is unharmed: the next query completes.
        let ok = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSqlStream))
            .unwrap();
        assert!(ok.wait().as_ref().as_ref().is_ok());
        sched.shutdown();
    }
}
