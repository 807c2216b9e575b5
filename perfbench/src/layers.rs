//! Per-layer timing taken from outside the program.
//!
//! Nothing here adds a span to program code. A traced run wraps the
//! deployment's store in [`TimedStore`], an [`ObjectStore`] decorator on the
//! same seam as `FaultyStore`, and times every admin, session, pipeline and
//! sweeper call the benchmark makes with [`timed`]. A layer's self time is its
//! call time minus the store time nested under it on the same thread, which
//! the decorator keeps in thread-local counters.
//!
//! Totals stay in memory (atomics) and are read once the run ends.

use cloud_store::{
    Bytes, MetricsSnapshot, ObjectStore, PollResult, Request, StoreError, StoreHandle, StoreTicket,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Nanoseconds this thread spent in store calls that do work.
    static STORE_NS: Cell<u64> = const { Cell::new(0) };
    /// Nanoseconds this thread spent blocked in long polls with a timeout
    /// (waiting for a change, not serving a request).
    static WAIT_NS: Cell<u64> = const { Cell::new(0) };
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn thread_store_ns() -> (u64, u64) {
    (STORE_NS.with(Cell::get), WAIT_NS.with(Cell::get))
}

/// Time accumulated by the calls into one layer.
#[derive(Debug, Default)]
pub struct Layer {
    total_ns: AtomicU64,
    store_ns: AtomicU64,
    wait_ns: AtomicU64,
}

impl Layer {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let (store0, wait0) = thread_store_ns();
        let t0 = Instant::now();
        let out = f();
        let total = nanos(t0.elapsed());
        let (store1, wait1) = thread_store_ns();
        self.total_ns.fetch_add(total, Ordering::Relaxed);
        self.store_ns.fetch_add(store1 - store0, Ordering::Relaxed);
        self.wait_ns.fetch_add(wait1 - wait0, Ordering::Relaxed);
        out
    }

    /// Call time minus long-poll waiting, in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        let total = self.total_ns.load(Ordering::Relaxed);
        let wait = self.wait_ns.load(Ordering::Relaxed);
        total.saturating_sub(wait) as f64 / 1e6
    }

    /// Store time nested under the calls, in milliseconds.
    pub fn store_ms(&self) -> f64 {
        self.store_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Busy time minus nested store time, in milliseconds.
    pub fn self_ms(&self) -> f64 {
        (self.busy_ms() - self.store_ms()).max(0.0)
    }
}

/// The traced run's accumulators, one [`Layer`] per surface the benchmark calls.
#[derive(Debug, Default)]
pub struct Tracer {
    store_busy_ns: Arc<AtomicU64>,
    /// Admin calls: group create, add, remove, coordinated revocations.
    pub admin: Layer,
    /// Serial `ClientSession` reads and writes.
    pub session: Layer,
    /// Key pickups: `ClientSession::refresh` and `ClientSession::watch`.
    pub refresh: Layer,
    /// `PipelinedSession::write` and `PipelinedSession::read_begin`.
    pub enqueue: Layer,
    /// `PipelinedSession::read_wait` and `PipelinedSession::flush`.
    pub drain: Layer,
    /// Sweeper passes and watches.
    pub sweeper: Layer,
}

impl Tracer {
    /// Wraps `inner` in the timing decorator feeding this tracer.
    pub fn wrap(&self, inner: StoreHandle) -> StoreHandle {
        StoreHandle::new(TimedStore {
            inner,
            busy_ns: Arc::clone(&self.store_busy_ns),
        })
    }

    /// Time spent in blocking store calls on every thread, in
    /// milliseconds (long-poll waiting excluded).
    pub fn store_busy_ms(&self) -> f64 {
        self.store_busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Runs `f`, timing it into `layer` when a tracer is present.
pub fn timed<T>(tracer: Option<&Tracer>, layer: fn(&Tracer) -> &Layer, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => layer(t).time(f),
        None => f(),
    }
}

/// The timing decorator. `submit`, `routing_epoch` and `metrics` forward to
/// the wrapped store, so submit lanes and routing behave exactly as in the
/// untraced run; asynchronous submissions are not timed here (their
/// service time is only visible inside the store).
struct TimedStore {
    inner: StoreHandle,
    busy_ns: Arc<AtomicU64>,
}

impl TimedStore {
    fn run<T>(&self, f: impl FnOnce(&StoreHandle) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&self.inner);
        let ns = nanos(t0.elapsed());
        STORE_NS.with(|c| c.set(c.get() + ns));
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl ObjectStore for TimedStore {
    fn try_put(&self, folder: &str, item: &str, data: Bytes) -> Result<u64, StoreError> {
        self.run(|s| s.try_put(folder, item, data))
    }

    fn try_put_if_version(
        &self,
        folder: &str,
        item: &str,
        data: Bytes,
        expected: u64,
    ) -> Result<u64, StoreError> {
        self.run(|s| s.try_put_if_version(folder, item, data, expected))
    }

    fn try_put_many(&self, folder: &str, items: Vec<(String, Bytes)>) -> Result<u64, StoreError> {
        self.run(|s| s.try_put_many(folder, items))
    }

    fn try_get(&self, folder: &str, item: &str) -> Result<Option<(Bytes, u64)>, StoreError> {
        self.run(|s| s.try_get(folder, item))
    }

    fn try_delete(&self, folder: &str, item: &str) -> Result<bool, StoreError> {
        self.run(|s| s.try_delete(folder, item))
    }

    fn try_list(&self, folder: &str) -> Result<Vec<String>, StoreError> {
        self.run(|s| s.try_list(folder))
    }

    fn try_list_folders(&self) -> Result<Vec<String>, StoreError> {
        self.run(StoreHandle::try_list_folders)
    }

    fn try_folder_version(&self, folder: &str) -> Result<u64, StoreError> {
        self.run(|s| s.try_folder_version(folder))
    }

    fn try_long_poll(
        &self,
        folder: &str,
        since: u64,
        timeout: Duration,
    ) -> Result<PollResult, StoreError> {
        if timeout.is_zero() {
            // a zero-timeout poll is a freshness probe: real work
            return self.run(|s| s.try_long_poll(folder, since, timeout));
        }
        let t0 = Instant::now();
        let out = self.inner.try_long_poll(folder, since, timeout);
        let ns = nanos(t0.elapsed());
        WAIT_NS.with(|c| c.set(c.get() + ns));
        out
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn routing_epoch(&self) -> u64 {
        self.inner.routing_epoch()
    }

    fn submit(&self, request: Request) -> StoreTicket {
        self.inner.submit(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::CloudStore;

    #[test]
    fn nested_store_time_is_split_out_of_the_layer() {
        let tracer = Tracer::default();
        let store = tracer.wrap(CloudStore::new().into());
        timed(
            Some(&tracer),
            |t| &t.session,
            || {
                store.put("f", "a", &b"x"[..]);
                assert!(store.get("f", "a").is_some());
                std::thread::sleep(Duration::from_millis(2));
            },
        );
        assert!(tracer.session.store_ms() > 0.0);
        assert!(tracer.session.self_ms() >= 2.0);
        assert!((tracer.store_busy_ms() - tracer.session.store_ms()).abs() < 1e-9);
    }

    #[test]
    fn blocking_polls_count_as_waiting_not_work() {
        let tracer = Tracer::default();
        let store = tracer.wrap(CloudStore::new().into());
        timed(
            Some(&tracer),
            |t| &t.sweeper,
            || {
                store.long_poll("f", 0, Duration::from_millis(20));
            },
        );
        assert!(tracer.sweeper.busy_ms() < 15.0);
        assert_eq!(tracer.store_busy_ms(), 0.0);
    }
}
