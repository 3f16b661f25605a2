//! The cache-aware WFQ cost model, in one place. The unit is the worker
//! slots a strategy occupies ([`slot_cost`]); admission charges it
//! discounted by what the §5 cache probe predicts, a drain migration
//! re-prices it against the adopting shard, and after the run the cost
//! the actual [`CacheMode`] implies is settled back, so a misprediction
//! never compounds. [`Charge`] carries one job through all three.

use sqlml_cache::CacheProbe;
use sqlml_core::{CacheMode, SimCluster, Strategy};

/// WFQ cost multiplier for a query expected (or measured) to enjoy a
/// §5.1 full-result reuse: the run collapses to one SELECT over a
/// materialization, so charging full slot cost would let WFQ starve the
/// cluster of its cheapest, most profitable work.
pub const FULL_DISCOUNT: f64 = 0.1;
/// WFQ cost multiplier under §5.2 recode-map reuse (one of recoding's
/// two passes is skipped; the prep query still runs).
pub const MAP_DISCOUNT: f64 = 0.5;

/// The WFQ cost multiplier a probe outcome predicts.
pub fn probe_discount(probe: CacheProbe) -> f64 {
    match probe {
        CacheProbe::Full => FULL_DISCOUNT,
        CacheProbe::RecodeMap => MAP_DISCOUNT,
        CacheProbe::Miss => 1.0,
    }
}

/// Worker slots a strategy occupies on a cluster: streaming holds the
/// SQL and ML sides live simultaneously; staged strategies hold one side
/// at a time, so their footprint is the wider of the two.
pub(crate) fn slot_cost(cluster: &SimCluster, strategy: Strategy) -> usize {
    let sql = cluster.config.sql_workers.max(1);
    let ml = cluster.config.ml_workers.max(1);
    match strategy {
        Strategy::Naive | Strategy::InSql => sql.max(ml),
        Strategy::InSqlStream => sql + ml,
    }
}

/// What one queued job costs its tenant on the queue it waits in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Charge {
    /// Undiscounted slot cost, the unit of the WFQ cost model.
    base: f64,
    /// What the queue charged the tenant's virtual clock.
    pub est: f64,
    /// `SchedulerConfig::cache_aware`; off = full cost, never settled
    /// (the ablation baseline).
    cache_aware: bool,
}

impl Charge {
    /// The charge for placing a `strategy` query on `cluster` with the
    /// cache affinity the router found there.
    pub fn new(
        cluster: &SimCluster,
        strategy: Strategy,
        affinity: CacheProbe,
        cache_aware: bool,
    ) -> Charge {
        let base = slot_cost(cluster, strategy) as f64;
        let mut charge = Charge {
            base,
            est: base,
            cache_aware,
        };
        charge.restamp(affinity);
        charge
    }

    /// Re-price against the adopting shard's cache affinity (drain
    /// migration: the old affinity died with the departing shard).
    pub fn restamp(&mut self, affinity: CacheProbe) {
        if self.cache_aware {
            self.est = self.base * probe_discount(affinity);
        }
    }

    /// The measured cost to settle back onto the tenant's clock, when it
    /// differs from the estimate that was charged.
    pub fn settlement(&self, measured: CacheMode) -> Option<f64> {
        // The same discounts, keyed by what the pipeline reports it
        // actually reused.
        let cost = self.base
            * probe_discount(match measured {
                CacheMode::FullResult => CacheProbe::Full,
                CacheMode::RecodeMap => CacheProbe::RecodeMap,
                CacheMode::None => CacheProbe::Miss,
            });
        (self.cache_aware && (cost - self.est).abs() > f64::EPSILON).then_some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discounts_order_by_reuse_quality() {
        assert!(probe_discount(CacheProbe::Full) < probe_discount(CacheProbe::RecodeMap));
        assert!(probe_discount(CacheProbe::RecodeMap) < probe_discount(CacheProbe::Miss));
        assert_eq!(probe_discount(CacheProbe::Miss), 1.0);
    }
}
