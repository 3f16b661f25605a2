//! Bounded admission queue with weighted fair queueing across tenants.
//!
//! Classic WFQ by virtual finish times: each tenant keeps a FIFO of its
//! queued items, each stamped `max(vtime, tenant.last_finish) +
//! cost/weight` at admission. [`FairQueue::pop`] always takes the
//! globally smallest stamp, so service interleaves tenants in proportion
//! to their weights regardless of arrival bursts — a tenant that dumps
//! 100 queries cannot starve a tenant that submits one.
//!
//! The queue is **bounded**: admission past `capacity` fails immediately
//! with [`RejectReason::QueueFull`]. Backpressure is the caller's to
//! handle (retry, shed, or surface to the user) — the serving plane
//! never buffers unboundedly.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use sqlml_common::lockorder::{TrackedCondvar, TrackedMutex};

/// Why a submission was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue is at capacity; retry later or shed load.
    QueueFull { capacity: usize },
    /// The scheduler is shutting down and accepts no new work.
    ShuttingDown,
    /// The targeted shard is draining out of the fleet (`remove_shard`
    /// in progress). Transient from the fleet's point of view: an
    /// unpinned resubmission lands on a live peer.
    Draining { shard: usize },
    /// The request failed upfront validation (bad SQL, bad ML command).
    Invalid(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} queued)")
            }
            RejectReason::ShuttingDown => write!(f, "scheduler is shutting down"),
            RejectReason::Draining { shard } => {
                write!(f, "shard {shard} is draining out of the fleet")
            }
            RejectReason::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

/// A refused submission (the error type of `submit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    pub reason: RejectReason,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rejected: {}", self.reason)
    }
}

impl std::error::Error for Rejected {}

/// Per-tenant scheduling state.
struct Tenant<T> {
    weight: u32,
    /// Virtual finish time of this tenant's most recently admitted item.
    last_finish: f64,
    /// (virtual finish stamp, item), FIFO per tenant.
    items: VecDeque<(f64, T)>,
}

struct State<T> {
    tenants: HashMap<String, Tenant<T>>,
    /// Total queued items across all tenants.
    queued: usize,
    /// Global virtual time: advances to the stamp of each popped item.
    vtime: f64,
    closed: bool,
}

/// The bounded weighted-fair admission queue.
pub struct FairQueue<T> {
    capacity: usize,
    state: TrackedMutex<State<T>>,
    ready: TrackedCondvar,
}

impl<T> FairQueue<T> {
    pub fn new(capacity: usize) -> FairQueue<T> {
        FairQueue {
            capacity: capacity.max(1),
            state: TrackedMutex::new(
                "sched.queue.state",
                State {
                    tenants: HashMap::new(),
                    queued: 0,
                    vtime: 0.0,
                    closed: false,
                },
            ),
            ready: TrackedCondvar::new("sched.queue.ready"),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Set a tenant's weight (default 1). Affects items admitted from now
    /// on; already-queued stamps keep their order.
    pub fn set_weight(&self, tenant: &str, weight: u32) {
        let mut st = self.state.lock();
        st.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Tenant {
                weight: 1,
                last_finish: 0.0,
                items: VecDeque::new(),
            })
            .weight = weight.max(1);
    }

    /// Admit an item for `tenant` with WFQ service cost `cost` (any
    /// consistent unit; the serving plane uses worker slots). Returns the
    /// queue depth after admission, or the reject reason.
    pub fn push(&self, tenant: &str, cost: f64, item: T) -> Result<usize, Rejected> {
        self.push_inner(tenant, cost, item, true)
            .map_err(|(r, _)| r)
    }

    /// [`FairQueue::push`] without the capacity bound — the shard-drain
    /// migration path, where a job evicted from a draining shard must
    /// land on its new home even if that queue is momentarily full
    /// (dropping an already-admitted query would break the zero-lost
    /// guarantee). A closed queue still refuses; the rejected item is
    /// returned so the caller can try another peer.
    pub fn force_push(&self, tenant: &str, cost: f64, item: T) -> Result<usize, (Rejected, T)> {
        self.push_inner(tenant, cost, item, false)
    }

    fn push_inner(
        &self,
        tenant: &str,
        cost: f64,
        item: T,
        bounded: bool,
    ) -> Result<usize, (Rejected, T)> {
        let mut st = self.state.lock();
        if st.closed {
            return Err((
                Rejected {
                    reason: RejectReason::ShuttingDown,
                },
                item,
            ));
        }
        if bounded && st.queued >= self.capacity {
            return Err((
                Rejected {
                    reason: RejectReason::QueueFull {
                        capacity: self.capacity,
                    },
                },
                item,
            ));
        }
        let vtime = st.vtime;
        let entry = st
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Tenant {
                weight: 1,
                last_finish: 0.0,
                items: VecDeque::new(),
            });
        let stamp = vtime.max(entry.last_finish) + cost.max(0.0) / f64::from(entry.weight.max(1));
        entry.last_finish = stamp;
        entry.items.push_back((stamp, item));
        st.queued += 1;
        let depth = st.queued;
        drop(st);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Take the item with the smallest virtual finish stamp, blocking
    /// while the queue is empty. `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(item) = Self::take_best(&mut st) {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            self.ready.wait(&mut st);
        }
    }

    /// Pop the globally smallest-stamped item, advancing virtual time;
    /// tenant name breaks stamp ties deterministically.
    fn take_best(st: &mut State<T>) -> Option<T> {
        let (stamp, name) = st
            .tenants
            .iter()
            .filter_map(|(name, t)| t.items.front().map(|(stamp, _)| (*stamp, name.clone())))
            .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))?;
        let item = st
            .tenants
            .get_mut(&name)
            .and_then(|t| t.items.pop_front())
            .map(|(_, item)| item)?;
        st.queued -= 1;
        st.vtime = st.vtime.max(stamp);
        Some(item)
    }

    /// Take *everything* queued right now, in WFQ pop order, without
    /// closing the queue. The shard-drain path: a draining shard's
    /// backlog is lifted out wholesale and re-admitted onto live peers,
    /// preserving the order WFQ would have served it in. Pushes that
    /// race this call simply land after it and are drained by the
    /// shard's own executors before they exit.
    pub fn drain_now(&self) -> Vec<T> {
        let mut st = self.state.lock();
        let mut out = Vec::with_capacity(st.queued);
        while let Some(item) = Self::take_best(&mut st) {
            out.push(item);
        }
        out
    }

    /// Close the queue: pending items still drain, new pushes are
    /// rejected, and blocked `pop`s return `None` once empty.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }

    pub fn len(&self) -> usize {
        self.state.lock().queued
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_one_tenant() {
        let q = FairQueue::new(10);
        for i in 0..5 {
            q.push("a", 1.0, i).unwrap();
        }
        let order: Vec<i32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_rejects_with_capacity() {
        let q = FairQueue::new(2);
        q.push("a", 1.0, 1).unwrap();
        q.push("a", 1.0, 2).unwrap();
        let err = q.push("a", 1.0, 3).unwrap_err();
        assert_eq!(err.reason, RejectReason::QueueFull { capacity: 2 });
        assert!(err.to_string().contains("full"), "{err}");
        // Draining makes room again.
        assert_eq!(q.pop(), Some(1));
        q.push("a", 1.0, 3).unwrap();
    }

    #[test]
    fn burst_tenant_cannot_starve_a_light_one() {
        let q = FairQueue::new(100);
        // Tenant a dumps 10 items first; tenant b submits one afterwards.
        for i in 0..10 {
            q.push("a", 1.0, format!("a{i}")).unwrap();
        }
        q.push("b", 1.0, "b0".to_string()).unwrap();
        // b's single item has stamp ~1.0, equal to a's first item — it is
        // served ahead of a's long backlog (stamps 2.0, 3.0, …).
        let first_two = [q.pop().unwrap(), q.pop().unwrap()];
        assert!(
            first_two.contains(&"b0".to_string()),
            "b starved: {first_two:?}"
        );
    }

    #[test]
    fn heavier_weight_drains_proportionally_faster() {
        let q = FairQueue::new(100);
        q.set_weight("heavy", 2);
        q.set_weight("light", 1);
        for i in 0..6 {
            q.push("heavy", 1.0, format!("h{i}")).unwrap();
            q.push("light", 1.0, format!("l{i}")).unwrap();
        }
        // In the first 6 pops, the weight-2 tenant gets ~2/3 of service.
        let served: Vec<String> = (0..6).map(|_| q.pop().unwrap()).collect();
        let heavy = served.iter().filter(|s| s.starts_with('h')).count();
        assert!(heavy >= 4, "weight-2 tenant got only {heavy}/6: {served:?}");
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = Arc::new(FairQueue::new(10));
        q.push("a", 1.0, 7).unwrap();
        q.close();
        assert_eq!(
            q.push("a", 1.0, 8).unwrap_err().reason,
            RejectReason::ShuttingDown
        );
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
        // A parked popper wakes up on close too.
        let q2 = Arc::new(FairQueue::<i32>::new(10));
        let popper = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    /// Property (satellite): a tenant submitting discounted (cache-hit)
    /// queries must not starve a full-cost tenant, over random arrival
    /// orders. WFQ bounds the damage analytically: with costs 0.1 vs 1.0
    /// at equal weight, at most 10 discounted items can be stamped below
    /// each full-cost item, so full's k-th item pops within 11k pops.
    #[test]
    fn discounted_queries_do_not_starve_full_cost_tenants() {
        use sqlml_common::SplitMix64;
        for seed in 0..25u64 {
            let mut rng = SplitMix64::new(0xD15C_0000 + seed);
            let q = FairQueue::new(1000);
            let (mut nd, mut nf) = (0usize, 0usize);
            // Random interleaving of 40 discounted + 12 full arrivals.
            let mut arrivals: Vec<bool> = (0..52).map(|i| i < 40).collect();
            for i in (1..arrivals.len()).rev() {
                arrivals.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            for discounted in arrivals {
                if discounted {
                    q.push("disc", 0.1, format!("d{nd}")).unwrap();
                    nd += 1;
                } else {
                    q.push("full", 1.0, format!("f{nf}")).unwrap();
                    nf += 1;
                }
            }
            let order: Vec<String> = (0..52).map(|_| q.pop().unwrap()).collect();
            for k in 0..nf {
                let pos = order
                    .iter()
                    .position(|s| *s == format!("f{k}"))
                    .unwrap_or_else(|| panic!("f{k} starved entirely (seed {seed})"));
                assert!(
                    pos <= 11 * (k + 1),
                    "seed {seed}: full-cost item f{k} popped at {pos}, \
                     past the WFQ bound {}",
                    11 * (k + 1)
                );
            }
            // FIFO preserved within each tenant (compare indices, not
            // strings — "f9" vs "f10" would trip a lexicographic check).
            let fs: Vec<usize> = order
                .iter()
                .filter_map(|s| s.strip_prefix('f').and_then(|n| n.parse().ok()))
                .collect();
            assert!(fs.windows(2).all(|w| w[0] < w[1]), "seed {seed}: {fs:?}");
        }
    }

    #[test]
    fn drain_now_lifts_the_backlog_in_wfq_order() {
        let q = FairQueue::new(10);
        q.push("a", 1.0, "a0").unwrap();
        q.push("a", 1.0, "a1").unwrap();
        q.push("b", 1.0, "b0").unwrap();
        let drained = q.drain_now();
        assert_eq!(drained.len(), 3);
        // WFQ order: the two stamp-1.0 heads first, then a's stamp-2.0.
        assert_eq!(drained[2], "a1");
        assert!(q.is_empty());
        // The queue stays open: new work is still admitted and served.
        q.push("a", 1.0, "a2").unwrap();
        assert_eq!(q.pop(), Some("a2"));
    }

    #[test]
    fn force_push_overrides_capacity_but_not_close() {
        let q = FairQueue::new(1);
        q.push("a", 1.0, 1).unwrap();
        assert!(q.push("a", 1.0, 2).is_err());
        // Migration may exceed the bound...
        assert_eq!(q.force_push("a", 1.0, 2).unwrap(), 2);
        assert_eq!(q.len(), 2);
        // ...but never lands on a closed queue, and hands the item back.
        q.close();
        let (err, item) = q.force_push("a", 1.0, 3).unwrap_err();
        assert_eq!(err.reason, RejectReason::ShuttingDown);
        assert_eq!(item, 3);
    }

    #[test]
    fn draining_reject_names_the_shard() {
        let r = Rejected {
            reason: RejectReason::Draining { shard: 4 },
        };
        assert!(r.to_string().contains("shard 4"), "{r}");
        assert!(r.to_string().contains("draining"), "{r}");
    }

    #[test]
    fn costlier_items_advance_virtual_time_more() {
        let q = FairQueue::new(100);
        // A tenant streaming expensive queries falls behind one running
        // cheap ones at equal weight.
        q.push("exp", 4.0, "e0").unwrap();
        q.push("exp", 4.0, "e1").unwrap();
        q.push("cheap", 1.0, "c0").unwrap();
        q.push("cheap", 1.0, "c1").unwrap();
        q.push("cheap", 1.0, "c2").unwrap();
        let order: Vec<&str> = (0..5).map(|_| q.pop().unwrap()).collect();
        // c0 (stamp 1), c1 (2), c2 (3) all beat e1 (stamp 8).
        let e1_pos = order.iter().position(|s| *s == "e1").unwrap();
        assert_eq!(e1_pos, 4, "{order:?}");
    }
}
