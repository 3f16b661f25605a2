//! Cache-aware placement across serving shards.
//!
//! Each admitted request is placed on one of N `SimCluster` shards by a
//! score combining three signals an operator would reach for first:
//!
//! * **cache affinity** — a shard whose §5 cache already holds a usable
//!   full-transform entry for the request's descriptor (probed cheaply
//!   via [`sqlml_cache::CacheManager::probe`]) can serve it near-free, so
//!   it earns a large bonus. A §5.2 recode-map entry earns none: the run
//!   still executes the prep query and pass 2;
//! * **queue depth** — every request already waiting on a shard pushes
//!   new work elsewhere;
//! * **busy executors** — a shard whose executors are all running makes
//!   even a short queue wait long; a fully busy shard weighs as one more
//!   queued request.
//!
//! The affinity bonus is deliberately finite: a shard that is deeply
//! backlogged loses its cache advantage (a full-result hit is not worth
//! waiting behind eight queued pipelines), so the router sends the
//! query to a less loaded peer and recomputes there. Placement is the
//! serving plane's one balancing decision: a placed query runs on its
//! shard, and only a drain of that shard moves it.
//!
//! **Lock discipline of the probe path** (audited for the lock-order
//! suite): the router itself holds no locks — its only state is an
//! atomic round-robin cursor — so placement can never participate in a
//! lock cycle. The per-shard [`sqlml_cache::CacheManager::probe`] it
//! calls takes `cache.full` and then `cache.maps` strictly
//! *sequentially* (each guard is released before the next lock), which
//! is consistent with the declared `cache.full → cache.maps` order from
//! `CacheManager::new`; the tracked layer (`sqlml_common::lockorder`,
//! built with `--features lock-order`) asserts that order at runtime
//! and aborts on any inversion.

use std::sync::atomic::{AtomicUsize, Ordering};

use sqlml_cache::CacheProbe;

/// What a full-result reuse is worth, in queue-depth units.
const FULL_BONUS: f64 = 8.0;

/// One shard's load signals at placement time.
#[derive(Debug, Clone, Copy)]
pub struct ShardLoad {
    /// Requests waiting in the shard's admission queue.
    pub queue_depth: usize,
    /// Queries executing on the shard right now.
    pub running: usize,
    /// The shard's executor threads (≥ 1).
    pub executors: usize,
    /// What the shard's §5 cache would offer this request.
    pub probe: CacheProbe,
    /// The shard is leaving the fleet (`remove_shard` drain in
    /// progress): ineligible for placement no matter its score.
    pub draining: bool,
}

/// A placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index of the chosen shard.
    pub shard: usize,
    /// `Full` when the chosen shard holds the request's full result: an
    /// affinity placement, admitted at a discounted WFQ cost. Otherwise
    /// `Miss`: the placement was load-driven.
    pub affinity: CacheProbe,
}

/// Scores shards and breaks ties round-robin so equally idle shards
/// share load instead of all placements landing on shard 0.
#[derive(Debug, Default)]
pub struct ShardRouter {
    rr: AtomicUsize,
}

impl ShardRouter {
    pub fn new() -> ShardRouter {
        ShardRouter::default()
    }

    fn score(load: &ShardLoad) -> f64 {
        let bonus = match load.probe {
            CacheProbe::Full => FULL_BONUS,
            CacheProbe::RecodeMap | CacheProbe::Miss => 0.0,
        };
        let busy = load.running as f64 / load.executors.max(1) as f64;
        bonus - load.queue_depth as f64 - busy
    }

    /// Choose a shard for one request; the scan starts at a rotating
    /// offset so exact ties spread round-robin. Draining shards are
    /// ineligible; `None` means no live shard exists (empty or
    /// fleet-wide drain — the caller rejects rather than placing onto a
    /// shard that is on its way out).
    pub fn place(&self, loads: &[ShardLoad]) -> Option<Placement> {
        if loads.is_empty() {
            return None;
        }
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % loads.len();
        let mut best: Option<usize> = None;
        let mut best_score = f64::NEG_INFINITY;
        for k in 0..loads.len() {
            let i = (start + k) % loads.len();
            if loads[i].draining {
                continue;
            }
            let s = Self::score(&loads[i]);
            if s > best_score {
                best_score = s;
                best = Some(i);
            }
        }
        best.map(|shard| Placement {
            shard,
            affinity: match loads[shard].probe {
                CacheProbe::Full => CacheProbe::Full,
                CacheProbe::RecodeMap | CacheProbe::Miss => CacheProbe::Miss,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle(probe: CacheProbe) -> ShardLoad {
        ShardLoad {
            queue_depth: 0,
            running: 0,
            executors: 4,
            probe,
            draining: false,
        }
    }

    #[test]
    fn cache_affinity_wins_on_an_idle_fleet() {
        let r = ShardRouter::new();
        let loads = [
            idle(CacheProbe::Miss),
            idle(CacheProbe::Full),
            idle(CacheProbe::RecodeMap),
        ];
        for _ in 0..8 {
            let p = r.place(&loads).unwrap();
            assert_eq!((p.shard, p.affinity), (1, CacheProbe::Full));
        }
    }

    #[test]
    fn deep_backlog_overrides_cache_affinity() {
        let r = ShardRouter::new();
        let mut loads = [idle(CacheProbe::Full), idle(CacheProbe::Miss)];
        loads[0].queue_depth = 12; // worth more than the FULL bonus of 8
        assert_eq!(r.place(&loads).unwrap().shard, 1);
        assert_eq!(r.place(&loads).unwrap().affinity, CacheProbe::Miss);
    }

    #[test]
    fn busy_executors_push_work_to_the_free_shard() {
        let r = ShardRouter::new();
        let mut loads = [idle(CacheProbe::Miss), idle(CacheProbe::Miss)];
        loads[0].running = loads[0].executors; // every executor busy
        for _ in 0..6 {
            assert_eq!(r.place(&loads).unwrap().shard, 1);
        }
    }

    #[test]
    fn exact_ties_spread_round_robin() {
        let r = ShardRouter::new();
        let loads = [idle(CacheProbe::Miss); 3];
        let picks: Vec<usize> = (0..6).map(|_| r.place(&loads).unwrap().shard).collect();
        for shard in 0..3 {
            assert_eq!(
                picks.iter().filter(|p| **p == shard).count(),
                2,
                "uneven spread: {picks:?}"
            );
        }
    }

    #[test]
    fn draining_shards_are_never_placed_onto() {
        let r = ShardRouter::new();
        // The draining shard has the best score by far (idle + cache
        // hit); placement must still avoid it.
        let mut loads = [idle(CacheProbe::Full), idle(CacheProbe::Miss)];
        loads[0].draining = true;
        loads[1].queue_depth = 6;
        for _ in 0..8 {
            assert_eq!(r.place(&loads).unwrap().shard, 1);
        }
        // A fleet-wide drain (or an empty fleet) has no placement.
        loads[1].draining = true;
        assert_eq!(r.place(&loads), None);
        assert_eq!(r.place(&[]), None);
    }
}
