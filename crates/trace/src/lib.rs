//! # gabm-trace — structured tracing for the simulation stack
//!
//! An in-tree, zero-external-dependency observability layer: hierarchical
//! spans with nanosecond timing, named counters, and per-thread
//! event buffers that merge at flush. The collector exports Chrome
//! trace-event JSON (loadable in `chrome://tracing` / Perfetto) and a
//! plain-text hierarchical summary.
//!
//! Tracing is compiled in but **off by default**: every probe starts with a
//! single relaxed atomic load, so instrumented hot paths cost one
//! predictable branch when disabled (`harness traceov` measures the
//! overhead and CI gates it at ≤2 % on the comparator transient).
//!
//! ```
//! gabm_trace::enable();
//! {
//!     let _outer = gabm_trace::span("demo.outer");
//!     let _inner = gabm_trace::span("demo.inner");
//!     gabm_trace::add("demo.widgets", 3);
//! }
//! let trace = gabm_trace::finish();
//! assert_eq!(trace.counters, vec![("demo.widgets".to_string(), 3)]);
//! assert!(trace.to_chrome_json(true).contains("demo.inner"));
//! ```
//!
//! ## Model
//!
//! * [`span`] returns an RAII guard; nesting on a thread comes from the
//!   begin/end ordering of guards, so the caller never threads IDs around.
//! * [`span_root`] starts a *detached* span: summaries and
//!   [`Trace::structure`] treat it as a new logical root. The parallel
//!   map wraps every job in one, which is what makes span structure
//!   identical at any thread count (a job inlined on the caller's thread
//!   would otherwise nest under the caller).
//! * [`add`] bumps a named counter; counters sum across threads at flush.
//! * Each thread owns its buffer behind an uncontended mutex registered in
//!   a process-wide list; nothing is shared on the hot path, and
//!   [`snapshot`] / [`finish`] merge the buffers into a [`Trace`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod cli;
mod export;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every [`enable`]; buffers lazily discard events from older
/// epochs, so re-enabling never mixes two sessions.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_SEQ: AtomicUsize = AtomicUsize::new(0);

/// `true` while a trace session is collecting. One relaxed load — this is
/// the entire disabled-path cost of every probe.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn clock() -> &'static Mutex<Option<Instant>> {
    static CLOCK: OnceLock<Mutex<Option<Instant>>> = OnceLock::new();
    CLOCK.get_or_init(|| Mutex::new(None))
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Buffer>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<Buffer>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Starts (or restarts) a trace session: resets the clock to zero and
/// invalidates events from any previous session.
pub fn enable() {
    *clock().lock().unwrap() = Some(Instant::now());
    // A buffer only the registry still holds belongs to an exited thread
    // (parallel-map workers exit after every call). Its events stay
    // readable until now; the new session invalidates them, so drop it.
    registry()
        .lock()
        .unwrap()
        .retain(|buf| Arc::strong_count(buf) > 1);
    EPOCH.fetch_add(1, Ordering::AcqRel);
    ENABLED.store(true, Ordering::Release);
}

/// Stops collection. Already-buffered events stay available to
/// [`snapshot`] until the next [`enable`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// One buffered trace event. Timestamps are nanoseconds since [`enable`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Span start.
    Begin {
        /// Span name (dotted taxonomy, e.g. `sim.tran.step`).
        name: &'static str,
        /// Nanoseconds since the session started.
        ts_ns: u64,
        /// Detached spans restart the logical path (see [`span_root`]).
        detached: bool,
        /// Optional single key/value annotation.
        arg: Option<(&'static str, String)>,
    },
    /// Span end, closing the most recent unclosed [`Event::Begin`] on the
    /// same thread.
    End {
        /// Nanoseconds since the session started.
        ts_ns: u64,
    },
}

impl Event {
    /// The event timestamp in nanoseconds since the session started.
    pub fn ts_ns(&self) -> u64 {
        match *self {
            Event::Begin { ts_ns, .. } | Event::End { ts_ns } => ts_ns,
        }
    }
}

#[derive(Debug, Default)]
struct Buffer {
    epoch: u64,
    thread: String,
    seq: usize,
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
}

struct Tls {
    epoch: u64,
    start: Instant,
    buf: Arc<Mutex<Buffer>>,
}

thread_local! {
    static TLS: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

/// Runs `f` against this thread's buffer (synced to the current epoch)
/// with the current session timestamp.
fn with_buffer(f: impl FnOnce(&mut Buffer, u64)) {
    let epoch = EPOCH.load(Ordering::Acquire);
    TLS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let tls = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(Buffer {
                thread: std::thread::current()
                    .name()
                    .unwrap_or("thread")
                    .to_string(),
                seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
                ..Buffer::default()
            }));
            registry().lock().unwrap().push(Arc::clone(&buf));
            Tls {
                epoch: 0,
                start: Instant::now(),
                buf,
            }
        });
        if tls.epoch != epoch {
            tls.epoch = epoch;
            tls.start = clock().lock().unwrap().unwrap_or_else(Instant::now);
        }
        let now = tls.start.elapsed().as_nanos() as u64;
        let mut b = tls.buf.lock().unwrap();
        if b.epoch != epoch {
            b.epoch = epoch;
            b.events.clear();
            b.counters.clear();
        }
        f(&mut b, now);
    });
}

/// RAII span guard: records the end event when dropped. Guards are
/// thread-bound (`!Send`) — nesting is defined by begin/end order on one
/// thread.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    epoch: u64,
    live: bool,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    const fn noop() -> Span {
        Span {
            epoch: 0,
            live: false,
            _not_send: PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live || !enabled() {
            return;
        }
        let epoch = self.epoch;
        with_buffer(|b, now| {
            if b.epoch == epoch {
                b.events.push(Event::End { ts_ns: now });
            }
        });
    }
}

fn begin(name: &'static str, detached: bool, arg: Option<(&'static str, String)>) -> Span {
    let mut epoch = 0;
    with_buffer(|b, now| {
        b.events.push(Event::Begin {
            name,
            ts_ns: now,
            detached,
            arg,
        });
        epoch = b.epoch;
    });
    Span {
        epoch,
        live: true,
        _not_send: PhantomData,
    }
}

/// Opens a span nested under the enclosing span of the current thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::noop();
    }
    begin(name, false, None)
}

/// Opens a *detached* span: a new logical root, regardless of what is
/// open on this thread. Used for pool jobs so the span structure does not
/// depend on whether a job ran inline or on a worker.
#[inline]
pub fn span_root(name: &'static str) -> Span {
    if !enabled() {
        return Span::noop();
    }
    begin(name, true, None)
}

/// Opens a span with one key/value annotation. The value closure only
/// runs when tracing is enabled, so call sites pay nothing for the
/// formatting when disabled.
#[inline]
pub fn span_with(name: &'static str, key: &'static str, value: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span::noop();
    }
    begin(name, false, Some((key, value())))
}

/// Adds `delta` to the named counter (summed across threads at flush).
#[inline]
pub fn add(name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    with_buffer(|b, _| match b.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            b.counters.insert(name.to_string(), delta);
        }
    });
}

/// Event stream of one thread, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrace {
    /// OS thread name at first event (`main`, `gabm-par-3`, …).
    pub name: String,
    /// Begin/end events in the order they were recorded.
    pub events: Vec<Event>,
}

/// A merged, immutable trace session: per-thread event streams plus
/// cross-thread counter totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Per-thread streams, sorted by thread name (registration order
    /// breaks ties) for stable output.
    pub threads: Vec<ThreadTrace>,
    /// Counter totals, summed across threads, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Largest event timestamp (ns); used to close unfinished spans.
    pub end_ns: u64,
}

/// Merges every thread's buffer for the current session into a [`Trace`]
/// without stopping collection.
pub fn snapshot() -> Trace {
    let epoch = EPOCH.load(Ordering::Acquire);
    let bufs: Vec<Arc<Mutex<Buffer>>> = registry().lock().unwrap().clone();
    let mut picked: Vec<(String, usize, Vec<Event>)> = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for buf in bufs {
        let b = buf.lock().unwrap();
        if b.epoch != epoch {
            continue;
        }
        for (name, v) in &b.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        if !b.events.is_empty() {
            picked.push((b.thread.clone(), b.seq, b.events.clone()));
        }
    }
    picked.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let end_ns = picked
        .iter()
        .flat_map(|(_, _, evs)| evs.iter().map(Event::ts_ns))
        .max()
        .unwrap_or(0);
    Trace {
        threads: picked
            .into_iter()
            .map(|(name, _, events)| ThreadTrace { name, events })
            .collect(),
        counters: counters.into_iter().collect(),
        end_ns,
    }
}

/// Stops collection and returns the merged trace.
pub fn finish() -> Trace {
    disable();
    snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace state is process-global; tests that enable it must not
    /// overlap under the parallel test runner.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_probes_are_inert() {
        let _g = lock();
        disable();
        let _s = span("t.nothing");
        add("t.counter", 5);
        enable();
        let t = finish();
        assert!(t.threads.is_empty());
        assert!(t.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_counters_sum() {
        let _g = lock();
        enable();
        {
            let _a = span("t.outer");
            add("t.n", 1);
            {
                let _b = span("t.inner");
                add("t.n", 2);
            }
        }
        let t = finish();
        assert_eq!(t.threads.len(), 1);
        let evs = &t.threads[0].events;
        assert_eq!(evs.len(), 4);
        assert!(matches!(
            evs[0],
            Event::Begin {
                name: "t.outer",
                ..
            }
        ));
        assert!(matches!(
            evs[1],
            Event::Begin {
                name: "t.inner",
                ..
            }
        ));
        assert!(matches!(evs[2], Event::End { .. }));
        assert!(matches!(evs[3], Event::End { .. }));
        assert_eq!(t.counters, vec![("t.n".to_string(), 3)]);
    }

    #[test]
    fn threads_merge_counters() {
        let _g = lock();
        enable();
        add("t.shared", 1);
        std::thread::Builder::new()
            .name("trace-test-worker".into())
            .spawn(|| {
                let _s = span_root("t.job");
                add("t.shared", 10);
            })
            .unwrap()
            .join()
            .unwrap();
        let t = finish();
        assert_eq!(t.counters, vec![("t.shared".to_string(), 11)]);
        let worker = t
            .threads
            .iter()
            .find(|th| th.name == "trace-test-worker")
            .expect("worker thread registered");
        assert!(matches!(
            worker.events[0],
            Event::Begin { detached: true, .. }
        ));
    }

    #[test]
    fn enable_drops_buffers_of_exited_threads() {
        let _g = lock();
        enable();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|id| {
                    std::thread::Builder::new()
                        .name(format!("trace-prune-{id}"))
                        .spawn_scoped(s, || {
                            let _s = span_root("t.job");
                        })
                        .unwrap()
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
        });
        let is_worker = |name: &str| name.starts_with("trace-prune-");
        let t = finish();
        assert_eq!(
            t.threads.iter().filter(|th| is_worker(&th.name)).count(),
            2,
            "exited workers' events still merge into their session"
        );
        enable();
        disable();
        let kept: Vec<String> = registry()
            .lock()
            .unwrap()
            .iter()
            .map(|buf| buf.lock().unwrap().thread.clone())
            .collect();
        assert!(!kept.iter().any(|name| is_worker(name)), "kept {kept:?}");
    }

    #[test]
    fn reenable_discards_previous_session() {
        let _g = lock();
        enable();
        add("t.old", 1);
        enable();
        add("t.new", 2);
        let t = finish();
        assert_eq!(t.counters, vec![("t.new".to_string(), 2)]);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let _g = lock();
        enable();
        {
            let _a = span("t.a");
            let _b = span("t.b");
        }
        let t = finish();
        let ts: Vec<u64> = t.threads[0].events.iter().map(Event::ts_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
        assert_eq!(t.end_ns, *ts.last().unwrap());
    }
}
