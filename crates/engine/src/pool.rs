//! The persistent work-stealing worker pool behind
//! [`crate::Engine::parse_many`].
//!
//! The original batch path spun up a fresh [`std::thread::scope`] per
//! call — correct, but a serving engine pays thread spawn/join (tens of
//! microseconds each) on *every* batch. The pool here is created once
//! per [`crate::Engine`] (lazily, on the first submitted batch) and
//! keeps its workers alive across batches:
//!
//! * each worker **pins itself to its own CPU** as it starts: worker
//!   `me` takes the `me % n`-th of the `n` CPUs its creator may run on.
//!   The kernel may never rebalance threads: with cpuset load balancing
//!   off (`cpuset.sched_load_balance = 0`, as on the 2-vCPU reference
//!   box) a thread stays on the CPU it was created on, and unpinned
//!   workers all ran on one CPU, so a two-document batch took as long
//!   as serving both in turn. A worker whose pin fails, and every
//!   worker on a non-Linux target, runs unpinned;
//!   [`PoolStats::pinned`] counts the pins that took;
//! * one double-ended job queue **per worker** (the crossbeam deque
//!   shape, built from `std` primitives — this workspace vendors no
//!   lock-free deque): submissions land round-robin on the per-worker
//!   queues, an idle worker pops its own queue from the back and, when
//!   that runs dry, *steals* from the front of a sibling's queue, so a
//!   shard queued behind a busy pinned worker still runs on an idle one;
//! * a single parking lot (`Mutex` + `Condvar` around a queued-job
//!   counter) for sleep/wake — workers spin only across the
//!   nanosecond-scale window between a queue push and its counter
//!   update, and park otherwise;
//! * batches are submitted as contiguous *shards* of the input range and
//!   reassembled in input order on the calling thread, so pool results
//!   are indistinguishable (modulo timings) from a sequential batch
//!   served on the calling thread — the property suites assert exactly
//!   that;
//! * a panic in a shard ends the shard, not its worker: the caller waits
//!   for the rest of the batch, then re-raises the panic of the earliest
//!   failed shard with its original payload, as a sequential batch would
//!   have raised it.
//!
//! The pool is not reentrant: a job must never submit a batch to the
//! pool that runs it (the calling thread blocks until its batch
//! drains). The engine only submits from caller threads.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A shard's results in item order, or the payload of the panic that
/// ended it.
type ShardResult<R> = Result<Vec<R>, Box<dyn Any + Send>>;

/// Observability counters for the engine's persistent worker pool (see
/// [`crate::Engine::engine_stats`]). All zero until the first batch
/// forces the pool into existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads kept alive by the pool.
    pub workers: usize,
    /// Workers that pinned themselves to their own CPU (each counts
    /// once it has started; below `workers` when the kernel refused a
    /// pin, and 0 off Linux).
    pub pinned: usize,
    /// Request shards submitted across all batches.
    pub submitted: u64,
    /// Shards executed by pool workers, a shard that panicked included.
    pub executed: u64,
    /// Shards a worker stole from a sibling's queue.
    pub steals: u64,
    /// Batches run through the pool.
    pub batches: u64,
}

/// The sleep/wake state shared by all workers.
#[derive(Debug)]
struct Park {
    /// Jobs pushed but not yet grabbed. Transiently negative when a
    /// grab races ahead of its submission's counter update — the wait
    /// condition is `queued <= 0`, so the race costs a yield, never a
    /// lost wakeup.
    queued: i64,
    shutdown: bool,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Job>>>,
    park: Mutex<Park>,
    signal: Condvar,
    pinned: AtomicUsize,
    submitted: AtomicU64,
    executed: AtomicU64,
    steals: AtomicU64,
    batches: AtomicU64,
    /// Round-robin cursor for shard placement.
    next_queue: AtomicUsize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Jobs are opaque closures; show the observable counters.
        f.debug_struct("Shared")
            .field("queues", &self.queues.len())
            .field("pinned", &self.pinned)
            .field("submitted", &self.submitted)
            .field("executed", &self.executed)
            .field("steals", &self.steals)
            .field("batches", &self.batches)
            .finish_non_exhaustive()
    }
}

/// Locks `m`, poisoned or not. The pool's locks guard a queue push or
/// pop and a few field writes, none of which can unwind halfway, and no
/// job runs under them.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Pops from `me`'s own queue (back), then steals from siblings
    /// (front), oldest-first from the queue after `me`.
    fn grab(&self, me: usize) -> Option<Job> {
        if let Some(job) = lock(&self.queues[me]).pop_back() {
            return Some(job);
        }
        let n = self.queues.len();
        for d in 1..n {
            let victim = (me + d) % n;
            if let Some(job) = lock(&self.queues[victim]).pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(&self, me: usize) {
        loop {
            match self.grab(me) {
                Some(job) => {
                    lock(&self.park).queued -= 1;
                    job();
                }
                None => {
                    let park = lock(&self.park);
                    if park.shutdown {
                        return;
                    }
                    if park.queued <= 0 {
                        let _unused = self
                            .signal
                            .wait(park)
                            .unwrap_or_else(PoisonError::into_inner);
                    } else {
                        // Counter says work exists but the push has not
                        // landed in a queue yet: yield and rescan.
                        drop(park);
                        std::thread::yield_now();
                    }
                }
            }
        }
    }
}

/// CPU placement for pool workers, through the two Linux calls `std`
/// does not wrap (there is no `libc` crate in this workspace). This
/// module holds the serving crates' only unsafe code.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod affinity {
    use std::ffi::c_int;

    /// glibc's and musl's `cpu_set_t`: a 1,024-bit mask of 128 bytes.
    /// On a host with more CPUs than that, `sched_getaffinity` fails
    /// and the worker stays unpinned.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
    }

    /// The calling thread's mask, or `None` if the kernel refused it.
    fn mask() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a live, writable `cpu_set_t` of exactly the
        // size passed, so the kernel writes only inside it; pid 0 names
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// The CPUs in `set`, ascending.
    fn cpus(set: &CpuSet) -> Vec<usize> {
        (0..set.0.len() * 64)
            .filter(|&cpu| set.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Pins the calling thread to the `k % n`-th of the `n` CPUs it may
    /// run on now. Returns whether the kernel took the one-CPU mask; on
    /// `false` the thread keeps the mask it had.
    pub(super) fn pin_to_nth_allowed(k: usize) -> bool {
        let Some(allowed) = mask().map(|set| cpus(&set)) else {
            return false;
        };
        let Some(&cpu) = allowed.get(k % allowed.len().max(1)) else {
            return false;
        };
        let mut one = CpuSet([0; 16]);
        one.0[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live `cpu_set_t` of exactly the size passed,
        // which the kernel only reads; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) == 0 }
    }

    /// The CPUs the calling thread may run on, ascending (empty if the
    /// kernel refused the query).
    #[cfg(test)]
    pub(super) fn allowed() -> Vec<usize> {
        mask().map(|set| cpus(&set)).unwrap_or_default()
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    /// No portable placement call: workers stay where the OS puts them.
    pub(super) fn pin_to_nth_allowed(_k: usize) -> bool {
        false
    }
}

/// A fixed-size pool of long-lived worker threads, each pinned to its
/// own CPU where the OS allows it, with per-worker stealable job queues.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (0 = one per available core); worker
    /// `me` pins itself to the `me % n`-th of the `n` CPUs the calling
    /// thread may run on.
    pub(crate) fn new(workers: usize) -> WorkerPool {
        let n = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            workers
        };
        let shared = Arc::new(Shared {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(Park {
                queued: 0,
                shutdown: false,
            }),
            signal: Condvar::new(),
            pinned: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            next_queue: AtomicUsize::new(0),
        });
        let handles = (0..n)
            .map(|me| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lambek-pool-{me}"))
                    .spawn(move || {
                        // A new thread inherits its creator's mask, so
                        // `me % n` indexes the creator's CPUs.
                        if affinity::pin_to_nth_allowed(me) {
                            shared.pinned.fetch_add(1, Ordering::Relaxed);
                        }
                        shared.worker_loop(me);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.handles.len(),
            pinned: self.shared.pinned.load(Ordering::Relaxed),
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
        }
    }

    /// Instantaneous per-shard queue depths (jobs pushed but not yet
    /// grabbed), one entry per worker. Each queue is locked briefly in
    /// turn, so the vector is per-queue exact but not a cross-queue
    /// atomic snapshot — the gauge semantics exporters expect.
    pub(crate) fn queue_depths(&self) -> Vec<usize> {
        self.shared.queues.iter().map(|q| lock(q).len()).collect()
    }

    /// Runs `f` over every item, sharded across the pool, and returns
    /// the results in item order. `shards_hint` bounds the shard count
    /// (0 = one per worker); an empty item list submits nothing.
    ///
    /// `f` receives the item's global index in the batch, so reports
    /// can carry it without threading state through the shards.
    ///
    /// # Panics
    ///
    /// If `f` panics on some item, once every shard has come back: with
    /// the payload of the earliest shard that panicked.
    pub(crate) fn run_batch<T, R, F>(&self, items: Vec<T>, shards_hint: usize, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let shards = if shards_hint == 0 {
            self.workers()
        } else {
            shards_hint
        }
        .clamp(1, items.len());
        let per = items.len().div_ceil(shards);
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, ShardResult<R>)>();
        // Peel each shard off as an owned contiguous chunk (no clones);
        // the chunk remembers its base index for report numbering.
        let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(shards);
        let mut start = 0;
        let mut rest = items;
        for _ in 0..shards {
            let take = per.min(rest.len());
            let tail = rest.split_off(take);
            chunks.push((start, rest));
            start += take;
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        let submitted = chunks.len();
        for (shard_idx, (base, chunk)) in chunks.into_iter().enumerate() {
            let f = f.clone();
            let tx = tx.clone();
            let shared = self.shared.clone();
            let job: Job = Box::new(move || {
                // `f` is `Fn + Sync`, so whatever a panic leaves
                // half-updated sits behind its own synchronization; the
                // chunk dies with the shard.
                let out = panic::catch_unwind(AssertUnwindSafe(|| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, item)| f(base + i, item))
                        .collect()
                }));
                // Count completion *before* the send: the caller reads
                // `executed` as soon as every shard has been received,
                // so an increment after the send could still be in
                // flight and make `submitted == executed` flicker.
                shared.executed.fetch_add(1, Ordering::Relaxed);
                // The receiver only disappears if the caller panicked;
                // a dead letter is then irrelevant.
                let _unused = tx.send((shard_idx, out));
            });
            let q = self.shared.next_queue.fetch_add(1, Ordering::Relaxed) % self.workers();
            lock(&self.shared.queues[q]).push_back(job);
        }
        drop(tx);
        self.shared
            .submitted
            .fetch_add(submitted as u64, Ordering::Relaxed);
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        lock(&self.shared.park).queued += submitted as i64;
        self.shared.signal.notify_all();
        let mut slots: Vec<Option<Vec<R>>> = (0..submitted).map(|_| None).collect();
        let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
        for _ in 0..submitted {
            let (shard_idx, out) = rx.recv().expect("every pool job sends its shard");
            match out {
                Ok(out) => slots[shard_idx] = Some(out),
                Err(payload) => {
                    if first_panic.as_ref().is_none_or(|&(at, _)| shard_idx < at) {
                        first_panic = Some((shard_idx, payload));
                    }
                }
            }
        }
        if let Some((_, payload)) = first_panic {
            panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .flat_map(|s| s.expect("every shard reported"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.park).shutdown = true;
        self.shared.signal.notify_all();
        for h in self.handles.drain(..) {
            let _unused = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_item_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..257).collect();
        let out = pool.run_batch(items, 0, |i, x| (i as u64, x * 2));
        assert_eq!(out.len(), 257);
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*doubled, i as u64 * 2);
        }
        let stats = pool.stats();
        assert_eq!(stats.batches, 1);
        assert!(stats.submitted >= 1 && stats.submitted <= 4);
        assert_eq!(stats.submitted, stats.executed);
    }

    #[test]
    fn empty_batch_submits_nothing() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.run_batch(Vec::<u64>::new(), 3, |_, x| *x);
        assert!(out.is_empty());
        assert_eq!(pool.stats().submitted, 0);
        assert_eq!(pool.stats().batches, 0);
    }

    #[test]
    fn pool_survives_many_batches_from_many_threads() {
        let pool = Arc::new(WorkerPool::new(3));
        std::thread::scope(|scope| {
            for t in 0..6 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for round in 0..20 {
                        let items: Vec<u64> = (0..17).map(|i| i + t * 1000 + round).collect();
                        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
                        assert_eq!(pool.run_batch(items, 0, |_, x| x + 1), expect);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.batches, 120);
        assert_eq!(stats.submitted, stats.executed);
    }

    #[test]
    fn single_worker_pool_still_drains() {
        let pool = WorkerPool::new(1);
        let out = pool.run_batch((0..50u64).collect(), 8, |_, x| x * x);
        assert_eq!(out[49], 49 * 49);
        assert_eq!(pool.stats().steals, 0);
    }

    #[test]
    fn queue_depths_are_per_worker_and_drain_to_zero() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.queue_depths(), vec![0, 0, 0]);
        let out = pool.run_batch((0..40u64).collect(), 0, |_, x| x + 1);
        assert_eq!(out.len(), 40);
        // run_batch returns only after every shard was received, and
        // executed shards were grabbed off their queues first.
        assert_eq!(pool.queue_depths(), vec![0, 0, 0]);
    }

    /// Runs one single-item shard per worker and returns, sorted by
    /// worker, each worker's index and what `probe` saw there. Each item
    /// waits until all of them have started, which only as many live
    /// workers, each holding one, can do; a dead worker fails the batch
    /// after 10 s instead of hanging it.
    fn on_every_worker<R: Send + 'static>(pool: &WorkerPool, probe: fn() -> R) -> Vec<(usize, R)> {
        let n = pool.workers();
        let started = Arc::new(AtomicUsize::new(0));
        let mut seen = pool.run_batch((0..n).collect(), n, move |_, _| {
            started.fetch_add(1, Ordering::SeqCst);
            let give_up = Instant::now() + Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < n {
                assert!(
                    Instant::now() < give_up,
                    "a pool worker never took its item"
                );
                std::thread::yield_now();
            }
            let name = std::thread::current().name().map(str::to_owned);
            let me = name
                .and_then(|name| name.strip_prefix("lambek-pool-")?.parse().ok())
                .expect("items run on named pool workers");
            (me, probe())
        });
        seen.sort_by_key(|&(me, _)| me);
        seen
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_spares_its_worker() {
        let pool = WorkerPool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch((0..8u64).collect(), 0, |_, &x| {
                assert!(x != 5, "item {x} is poison");
                x
            })
        }));
        let payload = caught.expect_err("the item's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 5 is poison"),
            "the caller re-raises the original payload"
        );
        let workers: Vec<usize> = on_every_worker(&pool, || ())
            .into_iter()
            .map(|(me, ())| me)
            .collect();
        assert_eq!(workers, vec![0, 1], "both workers outlive the panic");
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.executed, stats.submitted);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn each_worker_is_pinned_to_its_own_cpu() {
        let creator = affinity::allowed();
        if creator.len() < 2 {
            eprintln!(
                "skipped: {} CPU(s) allowed, the test needs 2",
                creator.len()
            );
            return;
        }
        let n = creator.len().min(4);
        let pool = WorkerPool::new(n);
        let seen = on_every_worker(&pool, affinity::allowed);
        assert_eq!(seen.len(), n);
        let mut cpus = Vec::new();
        for (me, mask) in seen {
            assert_eq!(
                mask,
                vec![creator[me % creator.len()]],
                "worker {me}'s mask"
            );
            cpus.push(mask[0]);
        }
        cpus.sort_unstable();
        cpus.dedup();
        assert_eq!(cpus.len(), n, "no two workers share a CPU");
        assert_eq!(pool.stats().pinned, n);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn more_workers_than_cpus_share_them_and_keep_order() {
        if affinity::allowed().is_empty() {
            eprintln!("skipped: the CPU mask cannot be read");
            return;
        }
        // A thread of the test's own, so the narrowed mask dies with it.
        std::thread::spawn(|| {
            assert!(affinity::pin_to_nth_allowed(0), "narrowing to one CPU");
            let only = affinity::allowed();
            assert_eq!(only.len(), 1);
            let pool = WorkerPool::new(3);
            let seen = on_every_worker(&pool, affinity::allowed);
            assert_eq!(seen.len(), 3);
            for (me, mask) in seen {
                assert_eq!(mask, only, "worker {me} shares the creator's one CPU");
            }
            assert_eq!(pool.stats().pinned, 3);
            let out = pool.run_batch((0..8u64).collect(), 8, |i, x| (i, x * 3));
            let expect: Vec<(usize, u64)> = (0..8).map(|i| (i, i as u64 * 3)).collect();
            assert_eq!(out, expect);
            assert_eq!(pool.stats().submitted, 3 + 8);
        })
        .join()
        .expect("the narrowed thread's checks pass");
    }
}
