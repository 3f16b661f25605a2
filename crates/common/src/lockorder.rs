//! Tracked synchronization primitives with lock-order deadlock detection.
//!
//! Every `Mutex`/`RwLock`/`Condvar` in the workspace's concurrent planes
//! (cache, sched, transfer, dfs, mq, sqlengine, mlengine) is declared
//! through this module with a **static lock-class name** (`"cache.full"`,
//! `"sched.queue.state"`, …). The tracked types are newtypes over
//! `std::sync` that are never poisoned: a panic while a guard is held
//! leaves the data to the next holder, as it stands. In the default build
//! the detector's hooks are empty and its per-guard state is zero-sized.
//! Under the `lock-order` feature every acquisition is instrumented:
//!
//! * each thread keeps a stack of the guards it currently holds;
//! * acquiring lock `B` while holding `A` inserts the edge `A → B` into a
//!   global lock-order graph **before** blocking, so even a real deadlock
//!   reports instead of hanging;
//! * inserting an edge runs an on-insert cycle check — a potential AB/BA
//!   deadlock aborts the process with both acquisition sites and both
//!   captured backtraces;
//! * orders declared via [`declare_order`] (the committed manifest, see
//!   `xtask/lock-order.manifest`) are checked directly: acquiring against
//!   a declared edge is an inversion even before a full cycle exists;
//! * same-instance re-entry (a guaranteed self-deadlock with the std
//!   backend) panics immediately;
//! * `Condvar::wait` while holding a guard on a *different* lock is
//!   flagged — the foreign guard would be held across the sleep;
//! * guard drops feed per-class log2 hold-time histograms
//!   ([`hold_time_report`]);
//! * [`set_perturb_seed`] (or `SQLML_PERTURB_SEED`) injects deterministic
//!   seed-driven yields on the acquire path so the serving-plane tests
//!   replay many interleavings reproducibly.
//!
//! The detector's verdicts are *potential*-deadlock verdicts: a cycle in
//! the class graph means two threads **could** interleave into a deadlock
//! even if this run did not.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

use detector::Ticket;
pub use detector::{declare_order, hold_time_report, set_perturb_seed};
#[cfg(feature = "lock-order")]
pub use detector::{set_on_violation, take_violations};
pub use std::sync::WaitTimeoutResult;

/// What the detector does when it finds a violation (cycle, declared-order
/// inversion, or foreign-guard condvar wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnViolation {
    /// Print the full report to stderr and abort the process. The default:
    /// an executor thread's panic could be swallowed, an abort cannot.
    Abort,
    /// Record the report for `take_violations`; used by the detector's
    /// own unit tests.
    Record,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardKind {
    Mutex,
    Read,
    Write,
}

/// The detector without the `lock-order` feature: hooks that do nothing
/// and a per-guard state of no size.
#[cfg(not(feature = "lock-order"))]
mod detector {
    use super::GuardKind;

    pub(super) struct Ticket;

    #[inline(always)]
    pub(super) fn acquire<G>(
        _name: &'static str,
        _instance: usize,
        _kind: GuardKind,
        lock: impl FnOnce() -> G,
    ) -> (Ticket, G) {
        (Ticket, lock())
    }

    #[inline(always)]
    pub(super) fn release(_ticket: &Ticket) {}

    #[inline(always)]
    pub(super) fn before_wait(_condvar: &'static str, _ticket: &Ticket) {}

    /// No-op without the `lock-order` feature.
    #[inline]
    pub fn declare_order(_pairs: &[(&'static str, &'static str)]) {}

    /// No-op without the `lock-order` feature.
    #[inline]
    pub fn set_perturb_seed(_seed: u64) {}

    /// Empty without the `lock-order` feature.
    #[inline]
    pub fn hold_time_report() -> String {
        String::new()
    }
}

/// The detector under the `lock-order` feature.
#[cfg(feature = "lock-order")]
mod detector {
    use super::{GuardKind, OnViolation};
    use std::backtrace::Backtrace;
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex as StdMutex, Once, OnceLock};
    use std::time::{Duration, Instant};

    /// What a guard keeps for the detector: the token of its held-stack
    /// entry and the address of its lock.
    pub(super) struct Ticket {
        token: u64,
        instance: usize,
    }

    /// Instrumented acquisition: the checks run before `lock` blocks, the
    /// guard joins the held stack after.
    #[track_caller]
    pub(super) fn acquire<G>(
        name: &'static str,
        instance: usize,
        kind: GuardKind,
        lock: impl FnOnce() -> G,
    ) -> (Ticket, G) {
        let site = Location::caller();
        before_acquire(name, instance, kind, site);
        let guard = lock();
        let token = after_acquire(name, instance, kind, site);
        (Ticket { token, instance }, guard)
    }

    pub(super) fn release(ticket: &Ticket) {
        on_release(ticket.token);
    }

    #[track_caller]
    pub(super) fn before_wait(condvar: &'static str, ticket: &Ticket) {
        check_wait(condvar, ticket.instance, Location::caller());
    }

    // ---------------------------------------------------------------
    // Global registry: lock-order graph, declared manifest, histograms.
    // Guarded by a *std* mutex — the registry must never recurse into
    // the tracked layer.
    // ---------------------------------------------------------------

    #[derive(Clone)]
    struct EdgeInfo {
        /// Where the outer (held) lock was acquired.
        from_site: &'static Location<'static>,
        /// Where the inner lock was acquired while the outer was held.
        to_site: &'static Location<'static>,
        /// Backtrace of the inner acquisition — captured once, on the
        /// first time this class pair nests.
        backtrace: String,
    }

    #[derive(Default)]
    struct Registry {
        /// Adjacency: lock class → classes acquired while it was held.
        adj: HashMap<&'static str, Vec<&'static str>>,
        edges: HashMap<(&'static str, &'static str), EdgeInfo>,
        /// Orders declared by [`declare_order`] (the committed manifest).
        declared: Vec<(&'static str, &'static str)>,
        /// Per-class log2(µs) hold-time buckets.
        histograms: HashMap<&'static str, [u64; 32]>,
        violations: Vec<String>,
        mode: Option<OnViolation>,
    }

    fn registry() -> &'static StdMutex<Registry> {
        static REGISTRY: OnceLock<StdMutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| StdMutex::new(Registry::default()))
    }

    fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        f(&mut reg)
    }

    /// Set what happens on a violation. Defaults to [`OnViolation::Abort`].
    pub fn set_on_violation(mode: OnViolation) {
        with_registry(|r| r.mode = Some(mode));
    }

    /// Drain violations recorded under [`OnViolation::Record`].
    pub fn take_violations() -> Vec<String> {
        with_registry(|r| std::mem::take(&mut r.violations))
    }

    fn report_violation(reg: &mut Registry, msg: String) {
        match reg.mode.unwrap_or(OnViolation::Abort) {
            OnViolation::Record => reg.violations.push(msg),
            OnViolation::Abort => {
                // An abort is the only reliable way to fail the test from
                // an executor thread whose panic nobody joins.
                eprintln!(
                    "\n==== lock-order violation ====\n{msg}\n=============================="
                );
                std::process::abort();
            }
        }
    }

    /// Declare edges of the committed lock-order manifest. Acquiring in
    /// the reverse direction of a declared edge is reported immediately,
    /// even before both directions have been observed at runtime.
    pub fn declare_order(pairs: &[(&'static str, &'static str)]) {
        with_registry(|r| {
            for &(a, b) in pairs {
                if !r.declared.contains(&(a, b)) {
                    r.declared.push((a, b));
                }
            }
        });
    }

    fn describe_edge(from: &'static str, to: &'static str, info: &EdgeInfo) -> String {
        format!(
            "  {from} -> {to}\n    {from} acquired at {}\n    {to} acquired at {}\n    \
             backtrace of the inner acquisition:\n{}",
            info.from_site,
            info.to_site,
            indent(&info.backtrace, "      "),
        )
    }

    fn indent(s: &str, pad: &str) -> String {
        s.lines().map(|l| format!("{pad}{l}\n")).collect::<String>()
    }

    /// Depth-first search for a path `from → … → to` in the class graph.
    fn find_path(
        reg: &Registry,
        from: &'static str,
        to: &'static str,
    ) -> Option<Vec<&'static str>> {
        let mut stack = vec![vec![from]];
        let mut seen = vec![from];
        while let Some(path) = stack.pop() {
            // lint:allow(panic) every pushed path starts non-empty
            let last = *path.last().expect("paths are non-empty");
            if last == to {
                return Some(path);
            }
            for &next in reg.adj.get(last).map(Vec::as_slice).unwrap_or(&[]) {
                if !seen.contains(&next) {
                    seen.push(next);
                    let mut p = path.clone();
                    p.push(next);
                    stack.push(p);
                }
            }
        }
        None
    }

    /// Record that `to` was acquired while `from` was held; runs the
    /// declared-order check and the on-insert cycle check.
    fn insert_edge(
        from: &'static str,
        from_site: &'static Location<'static>,
        to: &'static str,
        to_site: &'static Location<'static>,
    ) {
        with_registry(|reg| {
            if from == to {
                // Two *instances* of the same class nested (same-instance
                // re-entry already panicked on the acquire path).
                let msg = format!(
                    "lock class `{from}` nested inside itself: instance acquired at {to_site} \
                     while another `{from}` (acquired at {from_site}) was held.\n\
                     Two threads doing this against opposite instances deadlock.\n\
                     backtrace:\n{}",
                    indent(&format!("{}", Backtrace::force_capture()), "  "),
                );
                report_violation(reg, msg);
                return;
            }
            if reg.edges.contains_key(&(from, to)) {
                return; // seen before: fast path, nothing new to learn
            }
            if reg.declared.contains(&(to, from)) {
                let msg = format!(
                    "declared lock order inverted: the manifest orders `{to}` before `{from}`, \
                     but `{to}` was acquired at {to_site} while `{from}` (acquired at \
                     {from_site}) was held.\nbacktrace:\n{}",
                    indent(&format!("{}", Backtrace::force_capture()), "  "),
                );
                report_violation(reg, msg);
                return;
            }
            let info = EdgeInfo {
                from_site,
                to_site,
                backtrace: format!("{}", Backtrace::force_capture()),
            };
            // Does the reverse direction already exist (possibly through
            // intermediate classes)? Check BEFORE committing the edge so
            // the report can show the new edge separately.
            let closing = find_path(reg, to, from);
            reg.edges.insert((from, to), info.clone());
            reg.adj.entry(from).or_default().push(to);
            if let Some(path) = closing {
                let mut msg = format!(
                    "potential deadlock: acquiring `{to}` after `{from}` completes a cycle in \
                     the lock-order graph.\nnew edge:\n{}existing path closing the cycle:\n",
                    describe_edge(from, to, &info),
                );
                for pair in path.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    if let Some(existing) = reg.edges.get(&(a, b)) {
                        msg.push_str(&describe_edge(a, b, existing));
                    }
                }
                report_violation(reg, msg);
            }
        });
    }

    // ---------------------------------------------------------------
    // Per-thread held-guard stacks.
    // ---------------------------------------------------------------

    struct Held {
        name: &'static str,
        /// Address of the owning lock — distinguishes instances within a
        /// class for re-entry detection.
        instance: usize,
        kind: GuardKind,
        site: &'static Location<'static>,
        since: Instant,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static TOKEN: AtomicU64 = AtomicU64::new(1);

    /// Pre-acquire bookkeeping: perturbation, re-entry check, edge
    /// insertion. Runs *before* blocking so a genuine deadlock still gets
    /// its report out.
    fn before_acquire(
        name: &'static str,
        instance: usize,
        kind: GuardKind,
        site: &'static Location<'static>,
    ) {
        maybe_perturb();
        let nested: Vec<(&'static str, &'static Location<'static>)> = HELD.with(|h| {
            let held = h.borrow();
            for e in held.iter() {
                if e.instance == instance {
                    // Dropping the borrow before panicking keeps the
                    // RefCell usable for the unwinding guards.
                    let prior = e.site;
                    drop(held);
                    // lint:allow(panic) deliberate: reporting a guaranteed deadlock
                    panic!(
                        "re-entrant acquisition of `{name}` at {site}: this thread already \
                         holds the same instance (acquired at {prior}); the std backend \
                         deadlocks here"
                    );
                }
            }
            held.iter()
                .filter(|e| {
                    // Read-read nesting on the same class is order-neutral.
                    !(e.name == name && e.kind == GuardKind::Read && kind == GuardKind::Read)
                })
                .map(|e| (e.name, e.site))
                .collect()
        });
        for (held_name, held_site) in nested {
            insert_edge(held_name, held_site, name, site);
        }
    }

    /// Post-acquire bookkeeping: push the guard on the held stack.
    fn after_acquire(
        name: &'static str,
        instance: usize,
        kind: GuardKind,
        site: &'static Location<'static>,
    ) -> u64 {
        let token = TOKEN.fetch_add(1, Ordering::Relaxed);
        HELD.with(|h| {
            h.borrow_mut().push(Held {
                name,
                instance,
                kind,
                site,
                since: Instant::now(),
                token,
            });
        });
        token
    }

    /// Guard-drop bookkeeping: pop (guards may drop out of LIFO order)
    /// and feed the hold-time histogram.
    fn on_release(token: u64) {
        let popped = HELD.with(|h| {
            let mut held = h.borrow_mut();
            held.iter()
                .rposition(|e| e.token == token)
                .map(|i| held.remove(i))
        });
        if let Some(e) = popped {
            let micros = e.since.elapsed().as_micros();
            let bucket = (128 - micros.leading_zeros()).min(31) as usize;
            with_registry(|r| {
                r.histograms.entry(e.name).or_insert([0; 32])[bucket] += 1;
            });
        }
    }

    /// Flag a condvar wait performed while foreign guards are held: the
    /// wait sleeps with those locks still taken.
    fn check_wait(cv_name: &'static str, waited_instance: usize, site: &'static Location<'static>) {
        let foreign: Vec<(&'static str, &'static Location<'static>)> = HELD.with(|h| {
            h.borrow()
                .iter()
                .filter(|e| e.instance != waited_instance)
                .map(|e| (e.name, e.site))
                .collect()
        });
        if foreign.is_empty() {
            return;
        }
        let list = foreign
            .iter()
            .map(|(n, s)| format!("  `{n}` acquired at {s}\n"))
            .collect::<String>();
        with_registry(|reg| {
            let msg = format!(
                "condvar `{cv_name}` waited at {site} while holding guards on other locks:\n\
                 {list}those locks stay held for the whole sleep.\nbacktrace:\n{}",
                indent(&format!("{}", Backtrace::force_capture()), "  "),
            );
            report_violation(reg, msg);
        });
    }

    // ---------------------------------------------------------------
    // Seeded schedule perturbation.
    // ---------------------------------------------------------------

    static PERTURB_SEED: AtomicU64 = AtomicU64::new(0);
    static THREAD_INDEX: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        static PERTURB_STATE: Cell<u64> = const { Cell::new(0) };
    }

    /// Enable seed-driven yields on every tracked acquire (0 disables).
    /// The `SQLML_PERTURB_SEED` environment variable sets this at first
    /// use if the program has not.
    pub fn set_perturb_seed(seed: u64) {
        PERTURB_SEED.store(seed, Ordering::Relaxed);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn maybe_perturb() {
        static ENV: Once = Once::new();
        ENV.call_once(|| {
            if let Ok(v) = std::env::var("SQLML_PERTURB_SEED") {
                if let Ok(seed) = v.trim().parse::<u64>() {
                    // Explicit set_perturb_seed wins over the environment.
                    let _ = PERTURB_SEED.compare_exchange(
                        0,
                        seed,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
            }
        });
        let seed = PERTURB_SEED.load(Ordering::Relaxed);
        if seed == 0 {
            return;
        }
        let roll = PERTURB_STATE.with(|cell| {
            let mut state = cell.get();
            if state == 0 {
                // Derive a per-thread stream: deterministic given a stable
                // thread-spawn order (true of the fixed executor pools).
                let idx = THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
                state = seed ^ idx.wrapping_mul(0xA076_1D64_78BD_642F);
                // Never leave the sentinel value behind.
                splitmix(&mut state);
                if state == 0 {
                    state = 1;
                }
            }
            let roll = splitmix(&mut state);
            cell.set(state);
            roll
        });
        match roll % 16 {
            0..=2 => std::thread::yield_now(),
            3 => std::thread::sleep(Duration::from_micros(50)),
            _ => {}
        }
    }

    // ---------------------------------------------------------------
    // Hold-time report.
    // ---------------------------------------------------------------

    /// Render the per-class hold-time histograms (log2 µs buckets).
    pub fn hold_time_report() -> String {
        with_registry(|r| {
            let mut names: Vec<&'static str> = r.histograms.keys().copied().collect();
            names.sort_unstable();
            let mut out = String::new();
            for name in names {
                let buckets = &r.histograms[name];
                out.push_str(name);
                out.push(':');
                for (i, &count) in buckets.iter().enumerate() {
                    if count > 0 {
                        let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                        out.push_str(&format!(" [{lo}µs]={count}"));
                    }
                }
                out.push('\n');
            }
            out
        })
    }
}

// ---------------------------------------------------------------------------
// The tracked types.
// ---------------------------------------------------------------------------

/// The address of a lock: tells instances of one class apart.
#[inline(always)]
fn instance<L: ?Sized>(lock: &L) -> usize {
    lock as *const L as *const u8 as usize
}

/// Named mutex over [`std::sync::Mutex`], never poisoned.
pub struct TrackedMutex<T: ?Sized> {
    name: &'static str,
    inner: Mutex<T>,
}

/// RAII guard for [`TrackedMutex`].
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    ticket: Ticket,
    /// `None` only while [`TrackedCondvar`] has handed the std guard to
    /// the std condvar, which holds this guard's `&mut` borrow throughout.
    inner: Option<MutexGuard<'a, T>>,
}

impl<T> TrackedMutex<T> {
    #[inline]
    pub fn new(name: &'static str, value: T) -> Self {
        TrackedMutex {
            name,
            inner: Mutex::new(value),
        }
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    #[inline]
    #[cfg_attr(feature = "lock-order", track_caller)]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let (ticket, inner) =
            detector::acquire(self.name, instance(self), GuardKind::Mutex, || {
                self.inner.lock().unwrap_or_else(PoisonError::into_inner)
            });
        TrackedMutexGuard {
            ticket,
            inner: Some(inner),
        }
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock-class name this lock was declared with.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("name", &self.name)
            .field("inner", &&self.inner)
            .finish()
    }
}

const TAKEN: &str = "mutex guard taken by a condvar wait";

impl<'a, T: ?Sized> TrackedMutexGuard<'a, T> {
    /// Hand the std guard to a condvar wait, which puts it back.
    #[inline]
    fn take(&mut self) -> MutexGuard<'a, T> {
        // lint:allow(panic) `inner` is `None` only inside a condvar wait, under one `&mut`
        self.inner.take().expect(TAKEN)
    }
}

impl<T: ?Sized> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // lint:allow(panic) `inner` is `None` only inside a condvar wait, under one `&mut`
        self.inner.as_deref().expect(TAKEN)
    }
}

impl<T: ?Sized> DerefMut for TrackedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // lint:allow(panic) `inner` is `None` only inside a condvar wait, under one `&mut`
        self.inner.as_deref_mut().expect(TAKEN)
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        detector::release(&self.ticket);
    }
}

/// Named reader-writer lock over [`std::sync::RwLock`], never poisoned.
pub struct TrackedRwLock<T: ?Sized> {
    name: &'static str,
    inner: RwLock<T>,
}

pub struct TrackedReadGuard<'a, T: ?Sized> {
    ticket: Ticket,
    inner: RwLockReadGuard<'a, T>,
}

pub struct TrackedWriteGuard<'a, T: ?Sized> {
    ticket: Ticket,
    inner: RwLockWriteGuard<'a, T>,
}

impl<T> TrackedRwLock<T> {
    #[inline]
    pub fn new(name: &'static str, value: T) -> Self {
        TrackedRwLock {
            name,
            inner: RwLock::new(value),
        }
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    #[inline]
    #[cfg_attr(feature = "lock-order", track_caller)]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let (ticket, inner) = detector::acquire(self.name, instance(self), GuardKind::Read, || {
            self.inner.read().unwrap_or_else(PoisonError::into_inner)
        });
        TrackedReadGuard { ticket, inner }
    }

    #[inline]
    #[cfg_attr(feature = "lock-order", track_caller)]
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let (ticket, inner) =
            detector::acquire(self.name, instance(self), GuardKind::Write, || {
                self.inner.write().unwrap_or_else(PoisonError::into_inner)
            });
        TrackedWriteGuard { ticket, inner }
    }

    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("name", &self.name)
            .field("inner", &&self.inner)
            .finish()
    }
}

impl<T: ?Sized> Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for TrackedReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        detector::release(&self.ticket);
    }
}

impl<T: ?Sized> Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for TrackedWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for TrackedWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        detector::release(&self.ticket);
    }
}

/// Named condition variable over [`std::sync::Condvar`], operating on a
/// [`TrackedMutexGuard`] in place.
pub struct TrackedCondvar {
    name: &'static str,
    inner: Condvar,
}

impl TrackedCondvar {
    #[inline]
    pub fn new(name: &'static str) -> Self {
        TrackedCondvar {
            name,
            inner: Condvar::new(),
        }
    }

    #[inline]
    #[cfg_attr(feature = "lock-order", track_caller)]
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        detector::before_wait(self.name, &guard.ticket);
        let held = self
            .inner
            .wait(guard.take())
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(held);
    }

    #[inline]
    #[cfg_attr(feature = "lock-order", track_caller)]
    pub fn wait_for<T>(
        &self,
        guard: &mut TrackedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        detector::before_wait(self.name, &guard.ticket);
        let (held, result) = self
            .inner
            .wait_timeout(guard.take(), timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(held);
        result
    }

    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedCondvar")
            .field("name", &self.name)
            .finish()
    }
}

/// The primitives' own contract, in both builds: what the std types give,
/// and no poisoning.
#[cfg(test)]
mod lock_tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_round_trip() {
        let m = TrackedMutex::new("test.prim.mutex", 1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = TrackedRwLock::new("test.prim.rwlock", vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
        assert_eq!(l.into_inner(), [1, 2, 3]);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((
            TrackedMutex::new("test.prim.cv.lock", false),
            TrackedCondvar::new("test.prim.cv"),
        ));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = TrackedMutex::new("test.prim.timeout.lock", ());
        let cv = TrackedCondvar::new("test.prim.timeout.cv");
        let mut g = m.lock();
        let start = Instant::now();
        let r = cv.wait_for(&mut g, Duration::from_millis(20));
        assert!(r.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn a_panic_while_holding_a_guard_poisons_nothing() {
        let m = Arc::new(TrackedMutex::new("test.prim.poison.mutex", 1));
        let l = Arc::new(TrackedRwLock::new("test.prim.poison.rwlock", vec![1]));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let died = std::thread::spawn(move || {
            let mut g = m2.lock();
            let mut w = l2.write();
            *g = 2;
            w.push(2);
            panic!("dies holding both guards");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*m.lock(), 2);
        assert_eq!(*l.write(), [1, 2]);
        assert_eq!(*l.read(), [1, 2]);
    }
}

#[cfg(all(test, feature = "lock-order"))]
mod tests {
    use super::*;
    use std::sync::{Mutex as StdMutex, OnceLock};
    use std::time::Duration;

    /// The detector's mode and graph are global; serialize the tests that
    /// flip the mode and use unique lock-class names per test so stale
    /// edges cannot connect across tests.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<StdMutex<()>> = OnceLock::new();
        GATE.get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn ab_ba_inversion_is_reported_with_both_sites() {
        let _g = serial();
        set_on_violation(OnViolation::Record);
        let _ = take_violations();

        let a = TrackedMutex::new("test.abba.a", 1);
        let b = TrackedMutex::new("test.abba.b", 2);
        {
            let ga = a.lock();
            let gb = b.lock(); // edge a -> b
            drop(gb);
            drop(ga);
        }
        assert!(take_violations().is_empty(), "consistent order is clean");
        {
            let gb = b.lock();
            let ga = a.lock(); // edge b -> a closes the cycle
            drop(ga);
            drop(gb);
        }
        let violations = take_violations();
        set_on_violation(OnViolation::Abort);
        assert_eq!(violations.len(), 1, "exactly one cycle: {violations:?}");
        let report = &violations[0];
        assert!(report.contains("potential deadlock"), "{report}");
        // Both edges of the AB/BA pair, each with its acquisition sites.
        assert!(report.contains("test.abba.b -> test.abba.a"), "{report}");
        assert!(report.contains("test.abba.a -> test.abba.b"), "{report}");
        assert!(
            report.matches("acquired at").count() >= 4,
            "all four acquisition sites should be listed: {report}"
        );
        assert!(
            report.matches("lockorder.rs").count() >= 4,
            "sites should carry file:line: {report}"
        );
        assert!(report.contains("backtrace"), "{report}");
    }

    #[test]
    fn transitive_cycle_through_a_middle_lock_is_caught() {
        let _g = serial();
        set_on_violation(OnViolation::Record);
        let _ = take_violations();

        let a = TrackedMutex::new("test.tri.a", ());
        let b = TrackedMutex::new("test.tri.b", ());
        let c = TrackedMutex::new("test.tri.c", ());
        {
            let ga = a.lock();
            let _gb = b.lock(); // a -> b
            drop(ga);
        }
        {
            let gb = b.lock();
            let _gc = c.lock(); // b -> c
            drop(gb);
        }
        assert!(take_violations().is_empty());
        {
            let gc = c.lock();
            let _ga = a.lock(); // c -> a: cycle a -> b -> c -> a
            drop(gc);
        }
        let violations = take_violations();
        set_on_violation(OnViolation::Abort);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("test.tri.a -> test.tri.b"));
        assert!(violations[0].contains("test.tri.b -> test.tri.c"));
        assert!(violations[0].contains("test.tri.c -> test.tri.a"));
    }

    #[test]
    fn declared_order_inversion_is_reported_without_a_full_cycle() {
        let _g = serial();
        set_on_violation(OnViolation::Record);
        let _ = take_violations();

        declare_order(&[("test.decl.outer", "test.decl.inner")]);
        let outer = TrackedMutex::new("test.decl.outer", ());
        let inner = TrackedMutex::new("test.decl.inner", ());
        // Reverse nesting: inner then outer. No a->b edge was ever
        // observed, the manifest alone convicts it.
        let gi = inner.lock();
        let go = outer.lock();
        drop(go);
        drop(gi);
        let violations = take_violations();
        set_on_violation(OnViolation::Abort);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("declared lock order inverted"));
        assert!(violations[0].contains("test.decl.outer"));
        assert!(violations[0].contains("test.decl.inner"));
    }

    #[test]
    fn reentrant_same_instance_lock_panics() {
        let _g = serial();
        let m = std::sync::Arc::new(TrackedMutex::new("test.reent.m", ()));
        let m2 = std::sync::Arc::clone(&m);
        let result = std::panic::catch_unwind(move || {
            let _g1 = m2.lock();
            let _g2 = m2.lock(); // would self-deadlock on the std backend
        });
        let err = result.expect_err("re-entry must panic before blocking");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("re-entrant acquisition"), "{msg}");
        assert!(msg.contains("test.reent.m"), "{msg}");
        // The stack unwound cleanly: the lock is usable again.
        drop(m.lock());
    }

    #[test]
    fn condvar_wait_holding_a_foreign_guard_is_flagged() {
        let _g = serial();
        set_on_violation(OnViolation::Record);
        let _ = take_violations();

        let foreign = TrackedMutex::new("test.cvwait.foreign", ());
        let own = TrackedMutex::new("test.cvwait.own", ());
        let cv = TrackedCondvar::new("test.cvwait.cv");
        let gf = foreign.lock();
        let mut go = own.lock();
        let r = cv.wait_for(&mut go, Duration::from_millis(1));
        assert!(r.timed_out());
        drop(go);
        drop(gf);
        let violations = take_violations();
        set_on_violation(OnViolation::Abort);
        assert!(
            violations.iter().any(
                |v| v.contains("condvar `test.cvwait.cv`") && v.contains("test.cvwait.foreign")
            ),
            "{violations:?}"
        );
        // Waiting on the lock's own condvar with nothing else held is
        // legitimate and must stay silent.
        let mut go = own.lock();
        let _ = cv.wait_for(&mut go, Duration::from_millis(1));
        drop(go);
        assert!(take_violations().is_empty());
    }

    #[test]
    fn read_read_nesting_on_one_class_is_not_a_self_cycle() {
        let _g = serial();
        set_on_violation(OnViolation::Record);
        let _ = take_violations();

        let l1 = TrackedRwLock::new("test.rr.class", 0u32);
        let l2 = TrackedRwLock::new("test.rr.class", 0u32);
        let g1 = l1.read();
        let g2 = l2.read();
        drop(g2);
        drop(g1);
        assert!(take_violations().is_empty(), "read-read is order-neutral");
        // Write nesting across instances of one class IS convicted.
        let g1 = l1.write();
        let g2 = l2.write();
        drop(g2);
        drop(g1);
        let violations = take_violations();
        set_on_violation(OnViolation::Abort);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("nested inside itself")),
            "{violations:?}"
        );
    }

    #[test]
    fn hold_time_histogram_records_guard_lifetimes() {
        let _g = serial();
        let m = TrackedMutex::new("test.hist.m", ());
        {
            let _g = m.lock();
            std::thread::sleep(Duration::from_micros(200));
        }
        let report = hold_time_report();
        assert!(report.contains("test.hist.m"), "{report}");
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        let _g = serial();
        // Smoke: with a seed set, acquires still behave; determinism of
        // the decision stream is a property of SplitMix64 itself.
        set_perturb_seed(77);
        let m = TrackedMutex::new("test.perturb.m", 0u64);
        for _ in 0..256 {
            *m.lock() += 1;
        }
        set_perturb_seed(0);
        assert_eq!(*m.lock(), 256);
    }
}
