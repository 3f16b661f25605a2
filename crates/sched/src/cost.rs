//! The cache-aware WFQ cost model and the placement step that applies
//! it, in one place. The unit is the worker slots a strategy occupies
//! ([`slot_cost`]). [`place`] routes a request and prices it on the shard
//! it lands on, discounted when that shard's §5 cache holds the
//! request's full result. [`Charge`] carries the price with the job.
//! Admission, drain migration and the serving-policy replay all place
//! through [`place`].

use sqlml_cache::CacheProbe;
use sqlml_core::{ClusterConfig, Strategy};

use crate::router::{Placement, ShardLoad, ShardRouter};

/// WFQ cost multiplier for a query expected to enjoy a §5.1 full-result
/// reuse: the run collapses to one SELECT over a materialization, so
/// charging full slot cost would let WFQ starve the cluster of its
/// cheapest, most profitable work. A §5.2 map reuse is charged in full:
/// it still runs the prep query and pass 2.
pub const FULL_DISCOUNT: f64 = 0.1;

/// The WFQ cost multiplier a probe outcome predicts.
pub fn probe_discount(probe: CacheProbe) -> f64 {
    match probe {
        CacheProbe::Full => FULL_DISCOUNT,
        CacheProbe::RecodeMap | CacheProbe::Miss => 1.0,
    }
}

/// Worker slots a strategy occupies on a cluster: streaming holds the
/// SQL and ML sides live simultaneously; staged strategies hold one side
/// at a time, so their footprint is the wider of the two.
pub(crate) fn slot_cost(config: &ClusterConfig, strategy: Strategy) -> f64 {
    let sql = config.sql_workers.max(1);
    let ml = config.ml_workers.max(1);
    let slots = match strategy {
        Strategy::Naive | Strategy::InSql => sql.max(ml),
        Strategy::InSqlStream => sql + ml,
    };
    slots as f64
}

/// What one queued job costs its tenant on the queue it waits in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Charge {
    /// Undiscounted slot cost, the unit of the WFQ cost model.
    pub base: f64,
    /// The cache reuse the job's shard offered when it was placed there.
    pub affinity: CacheProbe,
}

impl Charge {
    /// What the queue charges the tenant's virtual clock.
    pub fn est(&self) -> f64 {
        self.base * probe_discount(self.affinity)
    }
}

/// Route one request over the fleet's `loads` and price it on the shard
/// it lands on: `base` slot cost, discounted by the cache reuse that
/// shard offers. `None` means no live shard exists.
pub(crate) fn place(
    router: &ShardRouter,
    loads: &[ShardLoad],
    base: f64,
) -> Option<(Placement, Charge)> {
    let placement = router.place(loads)?;
    Some((
        placement,
        Charge {
            base,
            affinity: placement.affinity,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_full_result_hit_is_discounted() {
        assert_eq!(probe_discount(CacheProbe::Full), FULL_DISCOUNT);
        assert_eq!(probe_discount(CacheProbe::RecodeMap), 1.0);
        assert_eq!(probe_discount(CacheProbe::Miss), 1.0);
    }
}
