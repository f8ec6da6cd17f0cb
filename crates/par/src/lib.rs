//! A small work-stealing thread pool built on `std::thread` only.
//!
//! The characterization workload of the paper's §2.4 — "perform many
//! analogue simulation runs" — is embarrassingly parallel: every
//! Monte-Carlo sample, validity grid point and extraction rig builds its
//! own circuit and solves it independently. The workspace builds fully
//! offline, so instead of pulling in `rayon` this crate provides the two
//! primitives that workload needs:
//!
//! * [`ThreadPool::scope`] — spawn borrowing closures and wait for all of
//!   them, with panic propagation back to the caller;
//! * [`ThreadPool::par_map`] / [`ThreadPool::par_map_n`] — evaluate a
//!   `Fn + Sync` over a slice (or index range) and collect the results
//!   *in input order*, so callers stay deterministic regardless of the
//!   execution interleaving.
//!
//! Each worker owns a deque: submitted jobs are distributed round-robin,
//! a worker pops its own queue from the front and, when empty, *steals*
//! from the back of the fullest sibling queue. A [`global()`] pool is
//! lazily built with [`std::thread::available_parallelism`] workers.
//!
//! Jobs must not block on other jobs of the same pool (no nested
//! `scope` from inside a worker): the pool is sized for compute-bound
//! simulation runs, not for dependency graphs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between the pool handle and its workers.
struct State {
    /// One deque per worker; the owner pops the front, thieves the back.
    queues: Vec<VecDeque<Job>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
}

/// A fixed-size pool of worker threads with per-worker work-stealing
/// deques.
///
/// # Example
///
/// ```
/// let pool = gabm_par::ThreadPool::new(4);
/// let squares = pool.par_map(&[1, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    next_queue: AtomicUsize,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: (0..threads).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gabm-par-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("worker thread spawns")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            next_queue: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one type-erased job, round-robin over the worker deques.
    fn push(&self, job: Job) {
        let slot = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.threads();
        let mut st = self.shared.state.lock().unwrap();
        st.queues[slot].push_back(job);
        if gabm_trace::enabled() {
            let depth: usize = st.queues.iter().map(VecDeque::len).sum();
            gabm_trace::gauge_max("par.queue_depth", depth as u64);
        }
        drop(st);
        self.shared.work_ready.notify_one();
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowing jobs, then waits
    /// for every spawned job to finish before returning.
    ///
    /// If any job panics, the first panic payload is re-raised on the
    /// calling thread (after all jobs have completed, so borrows stay
    /// sound).
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env, '_>) -> R) -> R {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: std::marker::PhantomData,
        };
        // Even when `f` itself panics mid-spawn, already-queued jobs must
        // complete before the stack frame (and its borrows) unwinds.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait();
        if let Some(payload) = scope.state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Applies `f(index, &item)` to every item and returns the results in
    /// input order. Deterministic for a pure `f` at any thread count; a
    /// single-threaded pool runs inline with zero overhead.
    pub fn par_map<T, R>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        if self.threads() <= 1 || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(k, t)| {
                    let _job = gabm_trace::span_root("par.job");
                    f(k, t)
                })
                .collect();
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        let f = &f;
        self.scope(|s| {
            for (k, (slot, item)) in slots.iter_mut().zip(items).enumerate() {
                s.spawn(move || *slot = Some(f(k, item)));
            }
        });
        slots
            .into_iter()
            .map(|o| o.expect("scope joined every job"))
            .collect()
    }

    /// Applies `f(k)` for `k` in `0..n` and returns the results in index
    /// order — [`ThreadPool::par_map`] without a backing slice.
    pub fn par_map_n<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        if self.threads() <= 1 || n <= 1 {
            return (0..n)
                .map(|k| {
                    let _job = gabm_trace::span_root("par.job");
                    f(k)
                })
                .collect();
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let f = &f;
        self.scope(|s| {
            for (k, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = Some(f(k)));
            }
        });
        slots
            .into_iter()
            .map(|o| o.expect("scope joined every job"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads())
            .finish()
    }
}

fn worker_loop(shared: &Shared, id: usize) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.queues[id].pop_front() {
                    break job;
                }
                // Steal from the back of the fullest sibling deque.
                let victim = st
                    .queues
                    .iter()
                    .enumerate()
                    .filter(|(i, q)| *i != id && !q.is_empty())
                    .max_by_key(|(_, q)| q.len())
                    .map(|(i, _)| i);
                if let Some(v) = victim {
                    gabm_trace::add("par.steals", 1);
                    break st.queues[v].pop_back().expect("victim queue non-empty");
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_ready.wait(st).unwrap();
            }
        };
        job();
    }
}

struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`]; jobs may
/// borrow anything that outlives the `scope` call.
pub struct Scope<'env, 'pool> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::scope`.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env, '_> {
    /// Queues `job` on the pool. The job may borrow from the environment
    /// of the enclosing [`ThreadPool::scope`] call; a panic inside it is
    /// captured and re-raised by `scope`.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let wrapped = move || {
            // Detached root span: a job's trace path is the same whether
            // it runs here or inline on the caller (see the fast paths of
            // `par_map`/`par_map_n`), so span structure is invariant in
            // the thread count.
            let _job = gabm_trace::span_root("par.job");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        };
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: `scope` waits for `pending == 0` before returning, so
        // every job (and its `'env` borrows) finishes while the borrowed
        // environment is still alive. The transmute only erases `'env` to
        // `'static` on the trait object; nothing else changes.
        let boxed: Job = unsafe { std::mem::transmute(boxed) };
        self.pool.push(boxed);
    }

    fn wait(&self) {
        let mut pending = self.state.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.state.done.wait(pending).unwrap();
        }
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
    use std::sync::atomic::AtomicBool;

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
    fn jobs_run_on_worker_threads() {
        let pool = ThreadPool::new(2);
        let names = pool.par_map_n(8, |_| thread::current().name().unwrap_or("").to_string());
        for n in names {
            assert!(n.starts_with("gabm-par-"), "ran on '{n}'");
        }
    }

    #[test]
    fn scope_borrows_disjoint_slots_mutably() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u64; 32];
        pool.scope(|s| {
            for (k, slot) in data.iter_mut().enumerate() {
                s.spawn(move || *slot = k as u64 + 1);
            }
        });
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k as u64 + 1);
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
            assert!(result.is_err(), "threads = {threads}");
            // Pool must still be usable after a propagated panic.
            assert_eq!(pool.par_map_n(3, |k| k), vec![0, 1, 2]);
        }
    }

    #[test]
    fn pool_is_reusable_and_joins_on_drop() {
        let flag = AtomicBool::new(false);
        {
            let pool = ThreadPool::new(2);
            for _ in 0..3 {
                pool.par_map_n(4, |_| ());
            }
            pool.scope(|s| {
                s.spawn(|| flag.store(true, Ordering::SeqCst));
            });
        }
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.par_map_n(2, |k| k), vec![0, 1]);
    }
}
