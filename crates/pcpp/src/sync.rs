//! Minimal `parking_lot`-style synchronization primitives over
//! [`std::sync`] — with an optional model-checking backend.
//!
//! The container this workspace builds in has no access to crates.io, so
//! the runtime uses these thin wrappers instead of `parking_lot`: locks
//! return guards directly (no poison `Result`s — a poisoned lock means a
//! program thread already panicked, and the scheduler's own poison flag
//! handles that case), and [`Condvar::wait`] takes the guard by `&mut`
//! like `parking_lot`'s does.
//!
//! Under the `model-check` feature every operation first announces
//! itself to the [`crate::chk`] cooperative scheduler; on threads it
//! controls, the announcement blocks until the checker grants the turn,
//! which is how `extrap-check` enumerates interleavings.  The *real*
//! std operation still happens afterwards, so unchecked threads (and
//! checked builds running outside a scenario) behave exactly like the
//! plain wrappers, at the cost of one thread-local check per operation.
//! The feature is on wherever `extrap-check` is linked, the `extrap`
//! binary included; builds without it (the `perfbench` workspace) get
//! the plain wrappers alone.

use std::sync;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A mutex whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

/// A guard for [`Mutex`]; releases the lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    #[cfg_attr(not(feature = "model-check"), allow(dead_code))]
    lock: &'a Mutex<T>,
    /// `None` only transiently inside [`Condvar::wait`] (and after an
    /// aborted checked wait, where dropping without the lock is
    /// exactly right).
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Wraps `value` in a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, ignoring poison (the value stays accessible so
    /// sibling threads can unwind cleanly).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "model-check")]
        crate::chk::mutex_lock(self as *const Mutex<T> as usize);
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before announcing the virtual unlock:
        // nobody else runs until the announcement is scheduled, and the
        // next virtual owner must find the real lock free.
        let held = self.inner.take().is_some();
        #[cfg(feature = "model-check")]
        if held {
            crate::chk::mutex_unlock(self.lock as *const Mutex<T> as usize);
        }
        #[cfg(not(feature = "model-check"))]
        let _ = held;
    }
}

/// A condition variable compatible with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically releases the guarded lock and blocks until notified;
    /// re-acquires the lock before returning (spurious wakeups possible,
    /// as with any condvar).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(feature = "model-check")]
        if crate::chk::on_checked_thread() {
            self.wait_checked(guard, None);
            return;
        }
        let inner = guard.inner.take().expect("guard holds the lock");
        guard.inner = Some(self.inner.wait(inner).unwrap_or_else(|e| e.into_inner()));
    }

    /// Like [`wait`](Condvar::wait) with a timeout; returns whether the
    /// wait timed out.  Under the checker the timeout is virtual: it
    /// fires only when no other transition can run, advancing the
    /// checker's clock (see [`Instant`]).
    pub fn wait_timeout<T>(&self, guard: &mut MutexGuard<'_, T>, dur: Duration) -> bool {
        #[cfg(feature = "model-check")]
        if crate::chk::on_checked_thread() {
            return self.wait_checked(guard, Some(dur));
        }
        let inner = guard.inner.take().expect("guard holds the lock");
        let (inner, result) = self
            .inner
            .wait_timeout(inner, dur)
            .unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(inner);
        result.timed_out()
    }

    /// The checked wait: release the *real* lock first (a sibling the
    /// checker wakes must be able to take it while this thread is
    /// suspended), park virtually, then re-take the real lock once the
    /// virtual relock is granted (uncontended by construction — the
    /// virtual owner is this thread).
    #[cfg(feature = "model-check")]
    fn wait_checked<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Option<Duration>) -> bool {
        let mutex_addr = guard.lock as *const Mutex<T> as usize;
        drop(guard.inner.take().expect("guard holds the lock"));
        let timed_out = crate::chk::cond_wait(self as *const Condvar as usize, mutex_addr, timeout);
        guard.inner = Some(guard.lock.inner.lock().unwrap_or_else(|e| e.into_inner()));
        timed_out
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        #[cfg(feature = "model-check")]
        crate::chk::notify(self as *const Condvar as usize, true);
        self.inner.notify_all();
    }

    /// Wakes one waiting thread.  Under the checker the *oldest* virtual
    /// waiter is woken (deterministic; real condvars may pick any — a
    /// documented under-exploration).
    pub fn notify_one(&self) {
        #[cfg(feature = "model-check")]
        crate::chk::notify(self as *const Condvar as usize, false);
        self.inner.notify_one();
    }
}

/// A reader–writer lock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: sync::RwLock<T>,
}

/// A shared guard for [`RwLock`]; releases the lock on drop.
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    #[cfg_attr(not(feature = "model-check"), allow(dead_code))]
    lock: &'a RwLock<T>,
    inner: Option<sync::RwLockReadGuard<'a, T>>,
}

/// An exclusive guard for [`RwLock`]; releases the lock on drop.
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    #[cfg_attr(not(feature = "model-check"), allow(dead_code))]
    lock: &'a RwLock<T>,
    inner: Option<sync::RwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    /// Wraps `value` in a new lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "model-check")]
        crate::chk::rw_read(self as *const RwLock<T> as usize);
        RwLockReadGuard {
            lock: self,
            inner: Some(self.inner.read().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "model-check")]
        crate::chk::rw_write(self as *const RwLock<T> as usize);
        RwLockWriteGuard {
            lock: self,
            inner: Some(self.inner.write().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        let held = self.inner.take().is_some();
        #[cfg(feature = "model-check")]
        if held {
            crate::chk::rw_unlock(self.lock as *const RwLock<T> as usize);
        }
        #[cfg(not(feature = "model-check"))]
        let _ = held;
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        let held = self.inner.take().is_some();
        #[cfg(feature = "model-check")]
        if held {
            crate::chk::rw_unlock(self.lock as *const RwLock<T> as usize);
        }
        #[cfg(not(feature = "model-check"))]
        let _ = held;
    }
}

/// A checker-visible boolean flag (SeqCst [`AtomicBool`] underneath).
///
/// Cancellation tokens, shutdown flags, and similar cross-thread
/// booleans go through this type so the model checker sees — and can
/// reorder around — every load and store.
#[derive(Debug, Default)]
pub struct AtomicFlag {
    inner: AtomicBool,
}

impl AtomicFlag {
    /// Creates a flag with the given initial value.
    pub const fn new(value: bool) -> AtomicFlag {
        AtomicFlag {
            inner: AtomicBool::new(value),
        }
    }

    /// Reads the flag.
    pub fn load(&self) -> bool {
        #[cfg(feature = "model-check")]
        crate::chk::atomic_load(self as *const AtomicFlag as usize);
        self.inner.load(Ordering::SeqCst)
    }

    /// Writes the flag.
    pub fn store(&self, value: bool) {
        #[cfg(feature = "model-check")]
        crate::chk::atomic_store(self as *const AtomicFlag as usize);
        self.inner.store(value, Ordering::SeqCst);
    }

    /// Writes the flag, returning the previous value.
    pub fn swap(&self, value: bool) -> bool {
        #[cfg(feature = "model-check")]
        crate::chk::atomic_store(self as *const AtomicFlag as usize);
        self.inner.swap(value, Ordering::SeqCst)
    }
}

/// A point in time that is real on normal threads and *virtual* inside a
/// model-checking scenario.
///
/// Timeout-driven code (the serve layer's long-poll deadlines) measures
/// time through this type so the checker can model timeouts without
/// wall-clock sleeps: inside a scenario, `now()` reads the scheduler's
/// virtual clock, which advances only when a timed wait fires at
/// quiescence.  Outside a scenario (and always without the
/// `model-check` feature) it is a plain [`std::time::Instant`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Instant(Repr);

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Repr {
    Real(std::time::Instant),
    #[cfg(feature = "model-check")]
    Virtual(u64),
}

impl Instant {
    /// The current time — virtual inside a checking scenario.
    pub fn now() -> Instant {
        #[cfg(feature = "model-check")]
        if let Some(ns) = crate::chk::virtual_now() {
            return Instant(Repr::Virtual(ns));
        }
        Instant(Repr::Real(std::time::Instant::now()))
    }

    /// Time elapsed since this instant (zero if it is in the future or
    /// from a different clock domain).
    pub fn elapsed(&self) -> Duration {
        Instant::now().saturating_duration_since(*self)
    }

    /// `self - earlier`, clamped at zero.  Instants from different
    /// clock domains (one real, one virtual) compare as zero apart.
    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        match (self.0, earlier.0) {
            (Repr::Real(a), Repr::Real(b)) => a.saturating_duration_since(b),
            #[cfg(feature = "model-check")]
            (Repr::Virtual(a), Repr::Virtual(b)) => Duration::from_nanos(a.saturating_sub(b)),
            #[cfg(feature = "model-check")]
            _ => Duration::ZERO,
        }
    }
}

impl std::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        match self.0 {
            Repr::Real(t) => Instant(Repr::Real(t + d)),
            #[cfg(feature = "model-check")]
            Repr::Virtual(ns) => Instant(Repr::Virtual(
                ns.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
            )),
        }
    }
}

/// Runs `f` with model-checking suspended on the calling thread: every
/// sync operation inside goes straight to std, and threads spawned
/// inside are ordinary OS threads.  [`crate::Program::run`] wraps its
/// body in this — the traced program's run-token scheduler is part of
/// the measurement substrate, not the object under test.  No-op without
/// the `model-check` feature.
pub fn unchecked_scope<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "model-check")]
    {
        crate::chk::unchecked_scope(f)
    }
    #[cfg(not(feature = "model-check"))]
    {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn condvar_wait_reacquires_the_lock() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(handle.join().unwrap());
    }

    #[test]
    fn wait_timeout_reports_expiry() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = lock.lock();
        assert!(cv.wait_timeout(&mut guard, Duration::from_millis(1)));
    }

    #[test]
    fn rwlock_allows_many_readers() {
        let l = RwLock::new(7);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 14);
    }

    #[test]
    fn atomic_flag_swaps() {
        let f = AtomicFlag::new(false);
        assert!(!f.swap(true));
        assert!(f.load());
        f.store(false);
        assert!(!f.load());
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        assert!(t1 >= t0);
        assert!(t1.saturating_duration_since(t0) >= Duration::from_millis(5));
        assert_eq!(t0.saturating_duration_since(t1), Duration::ZERO);
    }
}
