//! A scoped parallel map built on `std::thread` only.
//!
//! The characterization workload of the paper's §2.4 — "perform many
//! analogue simulation runs" — is embarrassingly parallel: every
//! Monte-Carlo sample, validity grid point and extraction rig builds its
//! own circuit and solves it independently. The workspace builds fully
//! offline, so instead of pulling in `rayon` this crate provides the one
//! primitive that workload needs: [`ThreadPool::par_map`] /
//! [`ThreadPool::par_map_n`] evaluate a `Fn + Sync` over a slice (or
//! index range) and collect the results *in input order*, so callers stay
//! deterministic regardless of the execution interleaving.
//!
//! Each call runs inside [`std::thread::scope`]: up to `threads` freshly
//! spawned workers claim job indices from one shared counter until none
//! are left, so a slow job never holds up the others.
//! A [`global()`] pool is lazily sized with
//! [`std::thread::available_parallelism`] workers.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// A worker count for parallel maps. Threads live only for the duration
/// of one [`ThreadPool::par_map_n`] call.
///
/// # Example
///
/// ```
/// let pool = gabm_par::ThreadPool::new(4);
/// let squares = pool.par_map(&[1, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f(index, &item)` to every item and returns the results in
    /// input order. Deterministic for a pure `f` at any thread count; a
    /// single-threaded pool runs inline with zero overhead.
    pub fn par_map<T, R>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.par_map_n(items.len(), |k| f(k, &items[k]))
    }

    /// Applies `f(k)` for `k` in `0..n` and returns the results in index
    /// order — [`ThreadPool::par_map`] without a backing slice.
    ///
    /// If a job panics, its own payload is re-raised on the calling thread
    /// after every worker has stopped.
    pub fn par_map_n<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        // Every job runs under a detached root span, inline or on a
        // worker, so span structure is invariant in the thread count.
        let job = |k| {
            let _job = gabm_trace::span_root("par.job");
            f(k)
        };
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        // Relaxed suffices: the counter only hands out distinct indices;
        // results travel back through the join, which synchronizes.
        let claim = || {
            let mut done = Vec::new();
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    return done;
                }
                done.push((k, job(k)));
            }
        };
        // The caller only waits: running jobs on its own thread would nest
        // their spans under the caller's open span in a Chrome trace, where
        // detached roots cannot be told apart.
        let mut done: Vec<(usize, R)> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|id| {
                    thread::Builder::new()
                        .name(format!("gabm-par-{id}"))
                        .spawn_scoped(s, claim)
                        .expect("worker thread spawns")
                })
                .collect();
            // Re-raise a job's own panic payload; `scope` would otherwise
            // replace it with a generic "a scoped thread panicked".
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        });
        done.sort_unstable_by_key(|&(k, _)| k);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool, built lazily with one worker per
/// [`std::thread::available_parallelism`] thread.
pub fn global() -> &'static ThreadPool {
    GLOBAL_POOL
        .get_or_init(|| ThreadPool::new(thread::available_parallelism().map_or(1, |n| n.get())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1, 2, 7] {
            let pool = ThreadPool::new(threads);
            let items: Vec<usize> = (0..100).collect();
            let out = pool.par_map(&items, |k, &x| {
                assert_eq!(k, x);
                x * x
            });
            let expect: Vec<usize> = (0..100).map(|x| x * x).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_n_matches_serial() {
        let pool = ThreadPool::new(3);
        let out = pool.par_map_n(17, |k| k as f64 * 1.5);
        let expect: Vec<f64> = (0..17).map(|k| k as f64 * 1.5).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn jobs_run_on_at_most_t_threads_named_gabm_par() {
        for threads in [2, 3] {
            let pool = ThreadPool::new(threads);
            let ran = pool.par_map_n(24, |_| {
                let me = thread::current();
                (me.id(), me.name().unwrap_or("").to_string())
            });
            let distinct: HashSet<_> = ran.iter().map(|(id, _)| *id).collect();
            assert!(distinct.len() <= threads, "threads = {threads}");
            for (_, name) in &ran {
                assert!(name.starts_with("gabm-par-"), "ran on '{name}'");
            }
        }
    }

    #[test]
    fn panic_in_job_propagates_to_caller() {
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map_n(8, |k| {
                    if k == 5 {
                        panic!("boom at {k}");
                    }
                    k
                })
            }));
            let payload = result.expect_err("job panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("boom at 5"),
                "threads = {threads}"
            );
            // Pool must still be usable after a propagated panic.
            assert_eq!(pool.par_map_n(3, |k| k), vec![0, 1, 2]);
        }
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = ThreadPool::new(2);
        for _ in 0..3 {
            assert_eq!(pool.par_map_n(4, |k| k + 1), vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.par_map_n(2, |k| k), vec![0, 1]);
    }
}
