//! Persistent worker pool for data-parallel kernels.
//!
//! The SGEMM kernels used to spawn fresh scoped threads on every call, which
//! put thread creation (tens of microseconds) on the training hot path — once
//! per matmul, thousands of times per epoch. This module replaces that with a
//! process-wide pool of parked workers that is created lazily on first use
//! and lives for the rest of the process.
//!
//! # Thread count
//!
//! The pool sizes itself from the `CT_NUM_THREADS` environment variable when
//! set (any integer ≥ 1), otherwise from [`std::thread::available_parallelism`].
//! The value is read once and cached. Tests that need a specific worker count
//! without mutating process environment use [`with_threads`], which overrides
//! the count for the current thread only (a global override would race under
//! `cargo test`'s parallel test threads).
//!
//! # Determinism contract
//!
//! [`run_partitioned`] splits `0..n_items` into at most `threads` contiguous
//! disjoint ranges and invokes `f` once per range. Callers partition *output*
//! items (rows or columns of the result), so every output element is computed
//! by exactly one worker with the same sequential inner-loop order regardless
//! of how many workers participate. Results are therefore bitwise identical
//! for any thread count — `CT_NUM_THREADS=1` and `CT_NUM_THREADS=16` produce
//! the same bytes.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Minimum useful work per dispatched range, in inner-loop multiply-adds.
/// Dispatching a job costs on the order of a channel send plus a wakeup
/// (single-digit microseconds); at a conservative throughput of roughly one
/// multiply-add per nanosecond, half a million of them (~0.5 ms) amortize
/// that overhead to well under one percent.
pub const GRAIN_FLOPS: usize = 1 << 19;

/// Smallest `min_items_per_worker` such that each worker receives at least
/// [`GRAIN_FLOPS`] multiply-adds, given the cost of one item. Kernels use
/// this instead of a hard-coded element-count threshold, so the serial/
/// parallel crossover tracks the actual work per row or column.
pub fn min_items_for_grain(cost_per_item: usize) -> usize {
    GRAIN_FLOPS.div_ceil(cost_per_item.max(1))
}

/// Configured parallelism: `CT_NUM_THREADS` if set and ≥ 1, else the OS
/// reported available parallelism, else 1. Read once, then cached.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        match std::env::var("CT_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside pool workers so nested `run_partitioned` calls run inline
    /// instead of re-entering the pool (which could deadlock if every worker
    /// waited on jobs that only other workers could run).
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Parallelism used by the current thread: the [`with_threads`] override if
/// one is installed, otherwise [`configured_threads`].
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(configured_threads)
}

/// Run `f` with the calling thread's parallelism pinned to `n` (≥ 1). The
/// override nests and is restored even if `f` panics. This may *raise*
/// parallelism above the configured value — the pool grows on demand — which
/// lets determinism tests exercise the multi-worker path on small machines.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    sender: Sender<Job>,
    receiver: Arc<Mutex<Receiver<Job>>>,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (sender, receiver) = channel();
        Pool {
            sender,
            receiver: Arc::new(Mutex::new(receiver)),
            spawned: Mutex::new(0),
        }
    })
}

/// Grow the pool to at least `want` parked workers.
fn ensure_workers(p: &'static Pool, want: usize) {
    let mut spawned = p.spawned.lock().unwrap();
    while *spawned < want {
        let rx = Arc::clone(&p.receiver);
        std::thread::Builder::new()
            .name(format!("ct-pool-{spawned}"))
            .spawn(move || worker_loop(rx))
            .expect("failed to spawn pool worker");
        *spawned += 1;
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>) {
    IN_POOL_WORKER.with(|c| c.set(true));
    // Holding the mutex while blocked in `recv` is fine: exactly one worker
    // waits in `recv` at a time, the rest queue on the mutex, and each job
    // hand-off releases the lock before the job runs.
    loop {
        let job = rx.lock().unwrap().recv();
        match job {
            Ok(job) => job(),
            Err(_) => break, // sender dropped: process is shutting down
        }
    }
}

/// Countdown latch with panic propagation.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut rem = self.remaining.lock().unwrap();
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = self.remaining.lock().unwrap();
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap();
        }
    }
}

/// Split `0..n_items` into contiguous disjoint ranges and run `f` on each,
/// using the persistent pool for all but the first range (which runs on the
/// calling thread). Blocks until every range has completed.
///
/// The number of ranges is `min(current_threads(), n_items / min_items)`, so
/// no worker receives fewer than `min_items_per_worker` items; below that the
/// call degrades to a plain inline `f(0..n_items)` with no synchronization.
///
/// `f` must tolerate being called concurrently on disjoint ranges. A panic in
/// any range is re-raised on the calling thread after all ranges finish.
pub fn run_partitioned<F>(n_items: usize, min_items_per_worker: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n_items == 0 {
        return;
    }
    let min_items = min_items_per_worker.max(1);
    let max_useful = (n_items / min_items).max(1);
    let workers = if IN_POOL_WORKER.with(Cell::get) {
        1
    } else {
        current_threads().min(max_useful)
    };
    if workers <= 1 {
        f(0..n_items);
        return;
    }

    let chunk = n_items.div_ceil(workers);
    let ranges: Vec<Range<usize>> = (0..workers)
        .map(|w| w * chunk..((w + 1) * chunk).min(n_items))
        .filter(|r| !r.is_empty())
        .collect();

    let p = pool();
    ensure_workers(p, ranges.len() - 1);
    let latch = Arc::new(Latch::new(ranges.len() - 1));

    // SAFETY: the jobs borrow `f` for less than this stack frame — `wait()`
    // below does not return until every job has counted down, and each job
    // counts down only after its call into `f` has returned (including by
    // panic, which `catch_unwind` converts into a flag). The lifetime erase
    // is needed because `mpsc::Sender` requires `'static` payloads.
    let f_ref: &(dyn Fn(Range<usize>) + Sync) = &f;
    let f_static: &'static (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(f_ref) };

    for r in ranges[1..].iter().cloned() {
        let latch = Arc::clone(&latch);
        let job: Job = Box::new(move || {
            if catch_unwind(AssertUnwindSafe(|| f_static(r))).is_err() {
                latch.panicked.store(true, Ordering::Relaxed);
            }
            latch.count_down();
        });
        p.sender.send(job).expect("worker pool channel closed");
    }

    let caller_result = catch_unwind(AssertUnwindSafe(|| f(ranges[0].clone())));
    latch.wait();
    if let Err(payload) = caller_result {
        std::panic::resume_unwind(payload);
    }
    if latch.panicked.load(Ordering::Relaxed) {
        panic!("worker pool job panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn covers_every_item_exactly_once() {
        for threads in [1, 2, 3, 7] {
            with_threads(threads, || {
                let n = 1003;
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                run_partitioned(n, 1, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads}: some item not covered exactly once"
                );
            });
        }
    }

    #[test]
    fn respects_min_items_per_worker() {
        with_threads(8, || {
            // 10 items at ≥ 6 per worker: only one range is useful.
            let concurrent = AtomicUsize::new(0);
            let ranges = AtomicUsize::new(0);
            run_partitioned(10, 6, |r| {
                assert_eq!(r, 0..10);
                concurrent.fetch_add(1, Ordering::Relaxed);
                ranges.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ranges.load(Ordering::Relaxed), 1);
        });
    }

    #[test]
    fn zero_items_is_a_no_op() {
        run_partitioned(0, 1, |_| panic!("must not be called"));
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = current_threads();
        with_threads(5, || assert_eq!(current_threads(), 5));
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                run_partitioned(100, 1, |r| {
                    if r.start > 0 {
                        panic!("boom in worker");
                    }
                });
            })
        }));
        assert!(result.is_err(), "panic in a pool job must propagate");
    }

    #[test]
    fn min_items_for_grain_scales_inversely_with_cost() {
        assert_eq!(min_items_for_grain(GRAIN_FLOPS), 1);
        assert_eq!(min_items_for_grain(GRAIN_FLOPS / 4), 4);
        assert!(min_items_for_grain(0) >= 1);
        assert_eq!(min_items_for_grain(usize::MAX), 1);
    }
}
