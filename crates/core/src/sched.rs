//! Deterministic work-stealing job pool for the tuning pipeline.
//!
//! Every experiment driver fans work out — Table 1 cells, Figure 7
//! (benchmark × machine × method × dataset) cells, fault-matrix sweeps,
//! and (inside [`crate::strategy`]) the per-round candidate frontier of
//! Iterative Elimination. Before this module each driver spawned one OS
//! thread per cell with `std::thread::scope`, so a single slow cell
//! pinned wall-clock while sibling threads idled, and nothing below cell
//! granularity ran concurrently.
//!
//! [`Pool`] replaces that with a shared job scheduler:
//!
//! * **Deterministic by construction.** `map`/`run` return results in
//!   job-index order, whatever the interleaving; a job's identity is its
//!   index, never its worker or completion time. Callers that need
//!   stdout/JSON/trace byte-identity simply merge in index order — the
//!   same outputs fall out at 1, 2, or N threads.
//! * **Work-stealing.** Jobs are dealt round-robin into per-worker
//!   deques; a worker pops its own deque from the front and steals from
//!   the back of a victim's when empty, so a long job's siblings migrate
//!   to idle workers instead of waiting behind it.
//! * **Bounded nesting via a token budget.** A `Pool` holds a shared
//!   budget of `threads - 1` helper tokens. Every `map` (including ones
//!   issued *from inside a job*, e.g. frontier pre-compilation during a
//!   Figure 7 cell) acquires as many tokens as are free and always runs
//!   the calling thread as worker 0, so nested parallelism never
//!   oversubscribes beyond the configured thread count and always makes
//!   progress even with zero free tokens.
//!
//! Thread count resolution: `PEAK_THREADS` (a positive integer) wins,
//! else `std::thread::available_parallelism()`. `PEAK_THREADS=1` is the
//! exact serial path: jobs run inline on the caller in index order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Poison-tolerant lock: the pool's mutexes guard plain data (token
/// counts, job indices, result slots) whose invariants hold at every
/// await point, so a panic inside a job must not wedge the pool for
/// every later batch — the serve daemon runs panicking jobs behind
/// `catch_unwind` and keeps scheduling on the same pool afterwards.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "PEAK_THREADS";

/// Resolve the default thread count: `PEAK_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("warning: ignoring invalid {THREADS_ENV}={v:?} (want a positive integer)");
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Cumulative scheduler counters (monotonic; snapshot with
/// [`Pool::stats`]). All clones of a pool share one set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Jobs executed to completion.
    pub jobs: u64,
    /// Jobs a worker stole from another worker's deque.
    pub stolen: u64,
    /// Jobs executed by the submitting thread (worker 0).
    pub inline_jobs: u64,
    /// `map`/`run` batches dispatched.
    pub batches: u64,
}

#[derive(Default)]
struct Counters {
    jobs: AtomicU64,
    stolen: AtomicU64,
    inline_jobs: AtomicU64,
    batches: AtomicU64,
}

/// Helper-thread token budget shared by a pool and everything it is
/// passed into. Non-blocking: callers take what is free (possibly
/// nothing) and run the rest of the batch themselves.
struct Budget {
    free: Mutex<usize>,
}

impl Budget {
    fn acquire_up_to(&self, want: usize) -> usize {
        let mut free = lock_ignore_poison(&self.free);
        let got = want.min(*free);
        *free -= got;
        got
    }

    fn release(&self, n: usize) {
        *lock_ignore_poison(&self.free) += n;
    }
}

/// Returns acquired helper tokens on drop, so a panicking job unwinding
/// out of `map` cannot leak budget and starve every later batch down to
/// serial execution.
struct BudgetGuard<'a> {
    budget: &'a Budget,
    tokens: usize,
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        if self.tokens > 0 {
            self.budget.release(self.tokens);
        }
    }
}

/// Deterministic work-stealing job pool. Cheap to clone; clones share
/// the token budget and counters, which is exactly what nested use
/// wants (pass a clone down into jobs).
#[derive(Clone)]
pub struct Pool {
    threads: usize,
    budget: Arc<Budget>,
    counters: Arc<Counters>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

impl Pool {
    /// Pool sized by [`default_threads`] (`PEAK_THREADS` override).
    pub fn from_env() -> Pool {
        Pool::with_threads(default_threads())
    }

    /// Pool with an explicit thread target (≥ 1; the calling thread is
    /// always one of them).
    pub fn with_threads(threads: usize) -> Pool {
        let threads = threads.max(1);
        Pool {
            threads,
            budget: Arc::new(Budget { free: Mutex::new(threads - 1) }),
            counters: Arc::new(Counters::default()),
        }
    }

    /// Configured thread target.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the cumulative scheduler counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            stolen: self.counters.stolen.load(Ordering::Relaxed),
            inline_jobs: self.counters.inline_jobs.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
        }
    }

    /// Run `n_jobs` jobs, job `i` being `f(i)`, and return the results
    /// in index order. The calling thread always participates; up to
    /// `threads - 1` helpers join, subject to the shared token budget
    /// (nested calls degrade gracefully toward inline execution).
    pub fn map<T, F>(&self, n_jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        if n_jobs == 0 {
            return Vec::new();
        }
        let helpers = if self.threads <= 1 || n_jobs <= 1 {
            0
        } else {
            self.budget.acquire_up_to((self.threads - 1).min(n_jobs - 1))
        };
        if helpers == 0 {
            // Serial fast path — also the PEAK_THREADS=1 reference
            // semantics: inline, in index order.
            let out: Vec<T> = (0..n_jobs)
                .map(|i| {
                    let r = self.run_job(&f, i);
                    self.counters.inline_jobs.fetch_add(1, Ordering::Relaxed);
                    r
                })
                .collect();
            return out;
        }
        let workers = helpers + 1;
        // Tokens return on drop even if a job panics and unwinds out of
        // the scope below.
        let _guard = BudgetGuard { budget: &self.budget, tokens: helpers };
        // Deal jobs round-robin into per-worker deques.
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..n_jobs {
            lock_ignore_poison(&deques[i % workers]).push_back(i);
        }
        let results: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let deques = &deques;
            let results = &results;
            let f = &f;
            for id in 1..workers {
                scope.spawn(move || self.worker_loop(id, workers, deques, results, f));
            }
            self.worker_loop(0, workers, deques, results, f);
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner().unwrap_or_else(|e| e.into_inner()).expect("job completed")
            })
            .collect()
    }

    /// Run a batch of one-shot jobs (closures of one type, e.g. built by
    /// mapping over a job list) and return their results in submission
    /// order.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        self.map(slots.len(), |i| {
            let job = lock_ignore_poison(&slots[i]).take().expect("job taken once");
            job()
        })
    }

    fn worker_loop<T, F>(
        &self,
        id: usize,
        workers: usize,
        deques: &[Mutex<VecDeque<usize>>],
        results: &[Mutex<Option<T>>],
        f: &F,
    ) where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        loop {
            // Own deque first (front — submission order)…
            let own = lock_ignore_poison(&deques[id]).pop_front();
            let (job, stolen) = match own {
                Some(i) => (Some(i), false),
                None => {
                    // …then steal from the back of the first non-empty
                    // victim, scanning deterministically from id+1.
                    let mut found = None;
                    for off in 1..workers {
                        let victim = (id + off) % workers;
                        if let Some(i) = lock_ignore_poison(&deques[victim]).pop_back() {
                            found = Some(i);
                            break;
                        }
                    }
                    (found, true)
                }
            };
            let Some(i) = job else {
                return; // all deques empty: batch is drained
            };
            let r = self.run_job(f, i);
            if stolen {
                self.counters.stolen.fetch_add(1, Ordering::Relaxed);
            }
            if id == 0 {
                self.counters.inline_jobs.fetch_add(1, Ordering::Relaxed);
            }
            *lock_ignore_poison(&results[i]) = Some(r);
        }
    }

    fn run_job<T, F>(&self, f: &F, i: usize) -> T
    where
        F: Fn(usize) -> T,
    {
        self.counters.jobs.fetch_add(1, Ordering::Relaxed);
        f(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_returns_results_in_index_order() {
        for threads in [1, 2, 5] {
            let pool = Pool::with_threads(threads);
            let out = pool.map(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn run_executes_each_closure_once() {
        let pool = Pool::with_threads(4);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..17)
            .map(|i| {
                let hits = &hits;
                move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..17).collect::<Vec<_>>());
        assert_eq!(hits.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn stealing_happens_under_skew() {
        // Worker 0's deque gets the slow jobs (indices 0, 2, 4…): with a
        // skewed distribution the other worker must steal to finish.
        let pool = Pool::with_threads(2);
        let out = pool.map(8, |i| {
            if i % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        // Stealing is scheduling-dependent; assert only that the batch
        // completed and counters are coherent.
        let s = pool.stats();
        assert_eq!(s.jobs, 8);
        assert!(s.stolen <= 8);
    }

    #[test]
    fn nested_maps_respect_the_token_budget_and_complete() {
        let pool = Pool::with_threads(3);
        let inner = pool.clone();
        let out = pool.map(6, move |i| {
            let sub = inner.map(5, |j| i * 10 + j);
            sub.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, want);
        // Budget fully returned: a later batch can still go parallel.
        assert_eq!(pool.map(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_thread_pool_is_inline_and_ordered() {
        let pool = Pool::with_threads(1);
        let order = Mutex::new(Vec::new());
        let _ = pool.map(6, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
        let s = pool.stats();
        assert_eq!(s.inline_jobs, 6);
        assert_eq!(s.stolen, 0);
    }

    #[test]
    fn determinism_across_thread_counts() {
        let golden: Vec<u64> = Pool::with_threads(1).map(40, |i| (i as u64).wrapping_mul(0x9E37));
        for threads in [2, 4, 8] {
            let got = Pool::with_threads(threads).map(40, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(got, golden, "threads={threads}");
        }
    }

    /// Serializes tests that mutate `PEAK_THREADS`: the environment is
    /// process-global and the test harness runs tests in parallel.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn env_parsing_defaults() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var(THREADS_ENV);
        // The available-parallelism fallback path must be ≥ 1.
        assert!(default_threads() >= 1);
    }

    #[test]
    fn env_override_single_thread_and_invalid_values() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(THREADS_ENV, "1");
        assert_eq!(default_threads(), 1);
        let pool = Pool::from_env();
        assert_eq!(pool.threads(), 1);
        // PEAK_THREADS=1 is the exact serial reference: inline, ordered.
        let order = Mutex::new(Vec::new());
        let _ = pool.map(5, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.stats().inline_jobs, 5);

        std::env::set_var(THREADS_ENV, "7");
        assert_eq!(default_threads(), 7);
        // Invalid values fall back to available parallelism (≥ 1).
        for bad in ["0", "-3", "lots", ""] {
            std::env::set_var(THREADS_ENV, bad);
            assert!(default_threads() >= 1, "{bad:?}");
        }
        std::env::remove_var(THREADS_ENV);
    }

    #[test]
    fn empty_job_lists_complete_and_return_empty() {
        for threads in [1, 2, 64] {
            let pool = Pool::with_threads(threads);
            let out: Vec<usize> = pool.map(0, |i| i);
            assert!(out.is_empty(), "threads={threads}");
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = Vec::new();
            let out = pool.run(jobs);
            assert!(out.is_empty(), "threads={threads}");
            let s = pool.stats();
            assert_eq!(s.jobs, 0, "threads={threads}");
            assert_eq!(s.batches, 2, "threads={threads}");
            // An empty batch must not leak budget tokens: a later real
            // batch still completes.
            assert_eq!(pool.map(3, |i| i), vec![0, 1, 2], "threads={threads}");
        }
    }

    #[test]
    fn pool_survives_a_panicking_job_without_leaking_budget() {
        // The serve daemon isolates panicking jobs with catch_unwind but
        // keeps scheduling on the same pool: a panic must neither poison
        // the pool's locks nor leak helper tokens.
        for threads in [1, 3] {
            let pool = Pool::with_threads(threads);
            for round in 0..3 {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.map(6, |i| {
                        if i == 4 {
                            panic!("injected job failure (round {round})");
                        }
                        i * 3
                    })
                }));
                assert!(r.is_err(), "threads={threads} round={round}");
                // The pool still runs full batches afterwards — in
                // parallel, with the full budget.
                let out = pool.map(8, |i| i + 100);
                assert_eq!(out, (100..108).collect::<Vec<_>>(), "threads={threads}");
            }
        }
    }

    #[test]
    fn oversubscribed_pool_matches_serial_bit_for_bit() {
        // Far more threads than jobs (and than cores): results must be
        // byte-identical to the serial pool, including order-sensitive
        // float accumulation.
        let work = |i: usize| -> u64 {
            let mut acc = 0.1_f64;
            for k in 0..=i {
                acc = acc * 1.5 + (k as f64) * 0.3;
            }
            acc.to_bits()
        };
        let golden: Vec<u64> = Pool::with_threads(1).map(5, work);
        for threads in [48, 64, 128] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.map(5, work), golden, "threads={threads}");
            // Also with a single job, and repeated batches on one pool.
            assert_eq!(pool.map(1, work), golden[..1], "threads={threads}");
            assert_eq!(pool.map(5, work), golden, "threads={threads}");
        }
    }
}
