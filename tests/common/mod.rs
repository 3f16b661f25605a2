//! Process-wide resource counts for the leak checks (Linux `/proc`).

use std::time::{Duration, Instant};

/// Kernel thread count for this process, from /proc (Linux CI).
pub fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Open file descriptors for this process.
pub fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Wait up to 10 s (detached per-run helpers — ML readers joining,
/// sockets in TIME_WAIT teardown — need a moment) for the process to
/// return to a baseline: no extra thread, at most 4 fds of slack.
pub fn assert_back_to(threads_before: usize, fds_before: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (t, f) = (thread_count(), fd_count());
        if t <= threads_before && f <= fds_before + 4 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what} leaked: threads {threads_before} -> {t}, fds {fds_before} -> {f}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
