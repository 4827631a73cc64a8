//! The persistent work-stealing worker pool behind
//! [`crate::Engine::parse_many`].
//!
//! The original batch path spun up a fresh [`std::thread::scope`] per
//! call — correct, but a serving engine pays thread spawn/join (tens of
//! microseconds each) on *every* batch. The pool here is created once
//! per [`crate::Engine`] (lazily, on the first submitted batch) and
//! keeps its workers alive across batches:
//!
//! * one double-ended job queue **per worker** (the crossbeam deque
//!   shape, built from `std` primitives — this workspace vendors no
//!   lock-free deque): submissions land round-robin on the per-worker
//!   queues, an idle worker pops its own queue from the back and, when
//!   that runs dry, *steals* from the front of a sibling's queue, so an
//!   unlucky shard distribution still keeps every core busy;
//! * a single parking lot (`Mutex` + `Condvar` around a queued-job
//!   counter) for sleep/wake — workers spin only across the
//!   nanosecond-scale window between a queue push and its counter
//!   update, and park otherwise;
//! * batches are submitted as contiguous *shards* of the input range and
//!   reassembled in input order on the calling thread, so pool results
//!   are indistinguishable (modulo timings) from a sequential batch
//!   served on the calling thread — the property suites assert exactly
//!   that.
//!
//! The pool is not reentrant: a job must never submit a batch to the
//! pool that runs it (the calling thread blocks until its batch
//! drains). The engine only submits from caller threads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Observability counters for the engine's persistent worker pool (see
/// [`crate::Engine::engine_stats`]). All zero until the first batch
/// forces the pool into existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads kept alive by the pool.
    pub workers: usize,
    /// Request shards submitted across all batches.
    pub submitted: u64,
    /// Shards executed to completion by pool workers.
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
            .field("submitted", &self.submitted)
            .field("executed", &self.executed)
            .field("steals", &self.steals)
            .field("batches", &self.batches)
            .finish_non_exhaustive()
    }
}

impl Shared {
    /// Pops from `me`'s own queue (back), then steals from siblings
    /// (front), oldest-first from the queue after `me`.
    fn grab(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.queues[me]
            .lock()
            .expect("pool queue poisoned")
            .pop_back()
        {
            return Some(job);
        }
        let n = self.queues.len();
        for d in 1..n {
            let victim = (me + d) % n;
            if let Some(job) = self.queues[victim]
                .lock()
                .expect("pool queue poisoned")
                .pop_front()
            {
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
                    self.park.lock().expect("pool park poisoned").queued -= 1;
                    job();
                }
                None => {
                    let park = self.park.lock().expect("pool park poisoned");
                    if park.shutdown {
                        return;
                    }
                    if park.queued <= 0 {
                        let _unused = self.signal.wait(park).expect("pool park poisoned");
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

/// A fixed-size pool of long-lived worker threads with per-worker
/// stealable job queues.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (0 = one per available core).
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
                    .spawn(move || shared.worker_loop(me))
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
        self.shared
            .queues
            .iter()
            .map(|q| q.lock().expect("pool queue poisoned").len())
            .collect()
    }

    /// Runs `f` over every item, sharded across the pool, and returns
    /// the results in item order. `shards_hint` bounds the shard count
    /// (0 = one per worker); an empty item list submits nothing.
    ///
    /// `f` receives the item's global index in the batch, so reports
    /// can carry it without threading state through the shards.
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
        let (tx, rx) = mpsc::channel::<(usize, Vec<R>)>();
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
                let out: Vec<R> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, item)| f(base + i, item))
                    .collect();
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
            self.shared.queues[q]
                .lock()
                .expect("pool queue poisoned")
                .push_back(job);
        }
        drop(tx);
        self.shared
            .submitted
            .fetch_add(submitted as u64, Ordering::Relaxed);
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        {
            let mut park = self.shared.park.lock().expect("pool park poisoned");
            park.queued += submitted as i64;
        }
        self.shared.signal.notify_all();
        let mut slots: Vec<Option<Vec<R>>> = (0..submitted).map(|_| None).collect();
        for _ in 0..submitted {
            let (shard_idx, out) = rx.recv().expect("a pool worker panicked mid-shard");
            slots[shard_idx] = Some(out);
        }
        slots
            .into_iter()
            .flat_map(|s| s.expect("every shard reported"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut park = self.shared.park.lock().expect("pool park poisoned");
            park.shutdown = true;
        }
        self.shared.signal.notify_all();
        for h in self.handles.drain(..) {
            let _unused = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
