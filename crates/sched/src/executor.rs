//! The executor loop: each shard's pool of worker threads popping its
//! fair queue in WFQ order and running one admitted query at a time.
//! The pool's size is the shard's one concurrency bound. A query runs on
//! the shard whose queue it was popped from: placement at admission is
//! the one balancing decision, and drain migration the one way a queued
//! query changes shard.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use sqlml_core::Pipeline;

use crate::handle::{finalize, Job};
use crate::registry::ShardEntry;
use crate::scheduler::QueryScheduler;
use crate::stats::Stats;

impl QueryScheduler {
    /// One shard's executor pool: `max_concurrent` threads, each blocking
    /// on the shard's queue until it closes. Each thread owns one
    /// [`Pipeline`] over the shard's cluster; with `enable_cache` all of a
    /// shard's threads share one §5 cache.
    pub(crate) fn spawn_executors(&self, entry: &Arc<ShardEntry<Job>>) -> Vec<JoinHandle<()>> {
        (0..self.executors())
            .map(|_| {
                let entry = Arc::clone(entry);
                let stats = Arc::clone(&self.stats);
                std::thread::spawn(move || {
                    let pipeline = match &entry.cache {
                        Some(c) => Pipeline::with_shared_cache(&entry.cluster, Arc::clone(c)),
                        None => Pipeline::new(&entry.cluster),
                    };
                    while let Some(job) = entry.queue.pop() {
                        run_one(&pipeline, &entry, &stats, job);
                    }
                })
            })
            .collect()
    }
}

/// Execute one admitted query on this worker thread of shard `me`, the
/// shard whose queue admitted it (or, after a drain migration, adopted
/// it): check the deadline, claim it, run it, and finalize its handle.
fn run_one(pipeline: &Pipeline<'_>, me: &ShardEntry<Job>, stats: &Stats, job: Job) {
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
    // No guard: a panicking run kills this executor thread either way.
    me.running.fetch_add(1, Ordering::Relaxed);
    let result = pipeline.run_with(&job.request, shared.strategy, &shared.cancel);
    me.running.fetch_sub(1, Ordering::Relaxed);
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
