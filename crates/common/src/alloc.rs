//! Optional counting allocator (feature `alloc-counters`).
//!
//! When the `alloc-counters` feature is enabled this crate installs a
//! `#[global_allocator]` that wraps the system allocator with atomic
//! counters: cumulative bytes allocated, live bytes, peak live bytes,
//! and the number of allocation and free calls.
//! [`StageTimer::time`](crate::StageTimer::time) snapshots
//! the cumulative counter around each stage, so per-stage allocation
//! totals show up next to wall-clock times in benchmark breakdowns
//! (`figure3 --verbose`).
//!
//! Without the feature every probe returns 0/`None` and no allocator is
//! installed — zero overhead on the default build.

#[cfg(feature = "alloc-counters")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCATED: AtomicU64 = AtomicU64::new(0);
    pub static LIVE: AtomicU64 = AtomicU64::new(0);
    pub static PEAK: AtomicU64 = AtomicU64::new(0);
    pub static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
    pub static FREE_CALLS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that tallies every allocation.
    pub struct CountingAllocator;

    impl CountingAllocator {
        fn on_alloc(size: usize) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
            let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }

        fn on_dealloc(size: usize) {
            FREE_CALLS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_sub(size as u64, Ordering::Relaxed);
        }
    }

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                Self::on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            Self::on_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                Self::on_dealloc(layout.size());
                Self::on_alloc(new_size);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}

/// Whether allocation counting is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "alloc-counters")
}

/// Cumulative bytes allocated since process start (0 when the
/// `alloc-counters` feature is off).
pub fn bytes_allocated() -> u64 {
    #[cfg(feature = "alloc-counters")]
    {
        counting::ALLOCATED.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-counters"))]
    {
        0
    }
}

/// Cumulative `(allocation, free)` calls, a `realloc` counting as one of
/// each (`(0, 0)` when the feature is off): what tells one allocation
/// per column from one per row.
pub fn alloc_calls() -> (u64, u64) {
    #[cfg(feature = "alloc-counters")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        (
            counting::ALLOC_CALLS.load(Relaxed),
            counting::FREE_CALLS.load(Relaxed),
        )
    }
    #[cfg(not(feature = "alloc-counters"))]
    {
        (0, 0)
    }
}

/// Bytes currently live (allocated minus freed; 0 when the feature is
/// off).
pub fn bytes_live() -> u64 {
    #[cfg(feature = "alloc-counters")]
    {
        counting::LIVE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-counters"))]
    {
        0
    }
}

/// High-water mark of live bytes (0 when the feature is off).
pub fn bytes_peak() -> u64 {
    #[cfg(feature = "alloc-counters")]
    {
        counting::PEAK.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-counters"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_consistent_with_feature_flag() {
        if enabled() {
            let before = bytes_allocated();
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            drop(v);
            assert!(bytes_allocated() >= before + (1 << 16));
            assert!(bytes_peak() >= 1 << 16);
        } else {
            assert_eq!(bytes_allocated(), 0);
            assert_eq!(alloc_calls(), (0, 0));
            assert_eq!(bytes_live(), 0);
            assert_eq!(bytes_peak(), 0);
        }
    }
}
