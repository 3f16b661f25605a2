//! Client-side retry for admission rejects.
//!
//! A bounded admission queue surfaces backpressure as
//! [`RejectReason::QueueFull`]; a closed-loop caller that immediately
//! resubmits turns that into a hot loop against the scheduler's mutex.
//! [`RetryPolicy`] is the standard remedy: bounded exponential backoff
//! with decorrelating jitter, giving up early when the caller's deadline
//! could no longer be met anyway. Only *transient* rejects are retried:
//! `QueueFull` (the backlog drains) and `Draining` (the targeted shard
//! is leaving the fleet, but an unpinned resubmission routes to a live
//! peer). `Invalid` and `ShuttingDown` rejects are permanent by
//! construction.
//!
//! The loop is written against a [`Clock`] so unit tests drive it with a
//! fake clock and assert the exact sleep schedule; production code uses
//! [`SystemClock`].

use std::time::{Duration, Instant};

use sqlml_common::SplitMix64;

use crate::queue::{RejectReason, Rejected};

/// Bounded exponential backoff with jitter for `QueueFull` rejects.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total admission attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a uniform
    /// factor in `[1 - jitter, 1]`, decorrelating competing clients.
    pub jitter: f64,
    /// Seed for the jitter stream (deterministic for tests; callers that
    /// want decorrelation across clients should vary it).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered backoff before retry number `retry` (0-based):
    /// `min(base × 2^retry, cap)`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
        exp.min(self.cap)
    }
}

/// Time source the retry loop runs against, so tests can fake it.
pub trait Clock {
    fn now(&self) -> Instant;
    fn sleep(&self, d: Duration);
}

/// The real clock.
#[derive(Debug, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Run `attempt` until it succeeds, rejects permanently, exhausts
/// `policy.max_attempts`, or would sleep past `deadline` (measured from
/// the first attempt — the origin a scheduled query's deadline counts
/// from too, so a retried submission never sleeps through the window the
/// query needed to actually run).
pub fn retry_queue_full<T>(
    policy: &RetryPolicy,
    deadline: Option<Duration>,
    clock: &impl Clock,
    mut attempt: impl FnMut() -> Result<T, Rejected>,
) -> Result<T, Rejected> {
    let start = clock.now();
    let mut rng = SplitMix64::new(policy.seed);
    let attempts = policy.max_attempts.max(1);
    let mut last = None;
    for retry in 0..attempts {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(r)
                if matches!(
                    r.reason,
                    RejectReason::QueueFull { .. } | RejectReason::Draining { .. }
                ) =>
            {
                last = Some(r)
            }
            Err(r) => return Err(r), // Invalid / ShuttingDown: permanent
        }
        if retry + 1 == attempts {
            break;
        }
        let mut sleep = policy.backoff(retry);
        if policy.jitter > 0.0 {
            // Uniform in [1 - jitter, 1].
            let unit = rng.next_below(1 << 20) as f64 / (1u64 << 20) as f64;
            let factor = 1.0 - policy.jitter.clamp(0.0, 1.0) * unit;
            sleep = sleep.mul_f64(factor);
        }
        if let Some(d) = deadline {
            // Deadline-aware give-up: if the next attempt could not even
            // be *made* before the deadline, surrender now with the last
            // reject instead of sleeping into certain failure.
            let elapsed = clock.now().saturating_duration_since(start);
            if elapsed + sleep >= d {
                break;
            }
        }
        clock.sleep(sleep);
    }
    Err(last.unwrap_or(Rejected {
        reason: RejectReason::QueueFull { capacity: 0 },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A fake clock: `sleep` advances time instantly and records itself.
    struct FakeClock {
        origin: Instant,
        elapsed: RefCell<Duration>,
        slept: RefCell<Vec<Duration>>,
    }

    impl FakeClock {
        fn new() -> FakeClock {
            FakeClock {
                origin: Instant::now(),
                elapsed: RefCell::new(Duration::ZERO),
                slept: RefCell::new(Vec::new()),
            }
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            self.origin + *self.elapsed.borrow()
        }
        fn sleep(&self, d: Duration) {
            *self.elapsed.borrow_mut() += d;
            self.slept.borrow_mut().push(d);
        }
    }

    fn full() -> Rejected {
        Rejected {
            reason: RejectReason::QueueFull { capacity: 2 },
        }
    }

    fn policy_no_jitter() -> RetryPolicy {
        RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(55),
            ..RetryPolicy::default()
        };
        let series: Vec<u64> = (0..5).map(|i| p.backoff(i).as_millis() as u64).collect();
        assert_eq!(series, vec![10, 20, 40, 55, 55]);
        // Huge retry counts saturate instead of overflowing the shift.
        assert_eq!(p.backoff(40), Duration::from_millis(55));
    }

    #[test]
    fn retries_queue_full_until_success() {
        let clock = FakeClock::new();
        let mut calls = 0;
        let out = retry_queue_full(&policy_no_jitter(), None, &clock, || {
            calls += 1;
            if calls < 3 {
                Err(full())
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
        // Two sleeps, exponentially spaced: 10ms then 20ms.
        assert_eq!(
            *clock.slept.borrow(),
            vec![Duration::from_millis(10), Duration::from_millis(20)]
        );
    }

    #[test]
    fn permanent_rejects_are_not_retried() {
        let clock = FakeClock::new();
        let mut calls = 0;
        let out: Result<(), Rejected> = retry_queue_full(&policy_no_jitter(), None, &clock, || {
            calls += 1;
            Err(Rejected {
                reason: RejectReason::Invalid("bad sql".into()),
            })
        });
        assert!(matches!(out.unwrap_err().reason, RejectReason::Invalid(_)));
        assert_eq!(calls, 1);
        assert!(clock.slept.borrow().is_empty());
    }

    #[test]
    fn exhausting_attempts_returns_the_last_reject() {
        let clock = FakeClock::new();
        let mut calls = 0;
        let out: Result<(), Rejected> = retry_queue_full(&policy_no_jitter(), None, &clock, || {
            calls += 1;
            Err(full())
        });
        assert!(matches!(
            out.unwrap_err().reason,
            RejectReason::QueueFull { capacity: 2 }
        ));
        assert_eq!(calls, 5);
        assert_eq!(clock.slept.borrow().len(), 4);
    }

    #[test]
    fn deadline_aware_give_up_skips_the_doomed_sleep() {
        let clock = FakeClock::new();
        let mut calls = 0;
        // First backoff is 10ms; a 5ms deadline means the retry could
        // never be attempted in time — give up after one call, no sleep.
        let out: Result<(), Rejected> = retry_queue_full(
            &policy_no_jitter(),
            Some(Duration::from_millis(5)),
            &clock,
            || {
                calls += 1;
                Err(full())
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 1);
        assert!(clock.slept.borrow().is_empty());
    }

    #[test]
    fn deadline_admits_retries_that_still_fit() {
        let clock = FakeClock::new();
        let mut calls = 0;
        // 10 + 20ms of backoff fit a 100ms deadline; the third (40ms,
        // cumulative 70 < 100) fits too, so all 5 attempts are made
        // (cumulative sleeps 10+20+40+80 = 150 > 100 stops after the
        // fourth attempt's backoff check).
        let out: Result<(), Rejected> = retry_queue_full(
            &policy_no_jitter(),
            Some(Duration::from_millis(100)),
            &clock,
            || {
                calls += 1;
                Err(full())
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 4);
        assert_eq!(clock.slept.borrow().len(), 3);
    }

    #[test]
    fn draining_rejects_are_retried_like_queue_full() {
        // A submit that races a `remove_shard` sees Draining; the next
        // attempt routes to a live peer. The FakeClock pins the exact
        // backoff schedule: two sleeps (10ms, 20ms) before success.
        let clock = FakeClock::new();
        let mut calls = 0;
        let out = retry_queue_full(&policy_no_jitter(), None, &clock, || {
            calls += 1;
            if calls < 3 {
                Err(Rejected {
                    reason: RejectReason::Draining { shard: 1 },
                })
            } else {
                Ok("placed on a live peer")
            }
        });
        assert_eq!(out.unwrap(), "placed on a live peer");
        assert_eq!(calls, 3);
        assert_eq!(
            *clock.slept.borrow(),
            vec![Duration::from_millis(10), Duration::from_millis(20)]
        );
        // Exhaustion surfaces the Draining reject itself.
        let clock = FakeClock::new();
        let out: Result<(), Rejected> = retry_queue_full(&policy_no_jitter(), None, &clock, || {
            Err(Rejected {
                reason: RejectReason::Draining { shard: 7 },
            })
        });
        assert!(matches!(
            out.unwrap_err().reason,
            RejectReason::Draining { shard: 7 }
        ));
    }

    #[test]
    fn jitter_stays_within_the_configured_band() {
        let p = RetryPolicy {
            max_attempts: 20,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(100),
            jitter: 0.5,
            seed: 7,
        };
        let clock = FakeClock::new();
        let _: Result<(), Rejected> = retry_queue_full(&p, None, &clock, || Err(full()));
        let slept = clock.slept.borrow();
        assert_eq!(slept.len(), 19);
        assert!(slept
            .iter()
            .all(|d| *d >= Duration::from_millis(50) && *d <= Duration::from_millis(100)));
        // And it actually varies.
        assert!(slept.iter().any(|d| *d != slept[0]));
    }
}
