//! Deterministic fork-join parallelism for the USEP solver hot paths.
//!
//! The paper's scalability figures (Figs. 2–4) measure running time as
//! the headline axis, and the hot paths they exercise — RatioGreedy's
//! `O(|U|·|V|)` heap seeding, the per-user DPs of the capacity-relaxed
//! bound, local-search move evaluation, experiment fan-out — are all
//! embarrassingly parallel *scans* whose results feed a sequential
//! commit step. (RatioGreedy's per-pop refreshes are not among them:
//! each re-probes only the few users whose schedules changed since the
//! event's last refresh, far below what a fork-join section repays.)
//! This crate supplies exactly that shape and nothing more:
//!
//! * [`par_map`] / [`par_map_init`] — a scoped fork-join map over a
//!   slice. Work is distributed as contiguous index chunks through a
//!   `crossbeam::channel`, each worker owns optional per-worker state
//!   (a scratch DP workspace, a local trace-counter block), and results
//!   are merged **by item index**, so the output is bit-identical to a
//!   sequential run of the same closure regardless of thread count or
//!   scheduling. The closure must be a pure function of `(index, item)`
//!   and its own worker state for that guarantee to mean anything;
//!   every call site in this workspace reads shared solver state
//!   immutably during the map and applies effects in index order
//!   afterwards.
//! * [`resolve_threads`] / [`set_threads`] — the thread-count
//!   resolution chain: explicit per-call value, then the process-global
//!   override (set once from `--threads`), then the `USEP_THREADS`
//!   environment variable, then [`std::thread::available_parallelism`].
//!
//! # Guard integration
//!
//! Every worker polls [`Guard::checkpoint`] once per chunk, before
//! computing it. [`Guard`] is `Sync` and its trip is sticky, so one
//! tripped worker stops the whole pool within a chunk's worth of work.
//! Items whose chunk was never computed come back as `None`; callers
//! treat computed items as the usable prefix and keep the planning
//! constraint-valid, exactly as the sequential truncation paths do.
//! On a completed (untripped) run every slot is `Some` and the
//! `Vec<Option<R>>` unwraps losslessly.
//!
//! # No external dependencies
//!
//! Built on `std::thread::scope` via the vendored `crossbeam` adapter;
//! no rayon, no thread-pool daemon, no global state beyond one atomic
//! for the `--threads` override. Spawning a handful of OS threads per
//! parallel section costs microseconds, which is noise against the
//! millisecond-scale sections it pays for — and keeps every section's
//! lifetime lexically scoped, so borrowing the instance and planning
//! from the caller's stack needs no `Arc`.

#![forbid(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use usep_guard::Guard;
use usep_trace::{Counter, Probe};

/// Process-global thread-count override; 0 means "not set".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `0` clears) the process-global thread-count override.
/// Sits between an explicit per-call count and `USEP_THREADS` in the
/// resolution chain; the CLI's `--threads` flag lands here.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The current process-global override, if any.
pub fn global_threads() -> Option<usize> {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Resolves a thread count: `explicit` > [`set_threads`] override >
/// `USEP_THREADS` env var > [`std::thread::available_parallelism`].
/// Always at least 1; malformed or zero values fall through to the
/// next link in the chain (with a one-time stderr warning for a set
/// but unusable `USEP_THREADS`, so a typo'd environment doesn't
/// silently change the parallelism).
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(global_threads)
        .or_else(env_threads)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// `USEP_THREADS`, when set to a usable (positive integer) value.
/// An unusable value warns once per process and falls through.
fn env_threads() -> Option<usize> {
    let raw = std::env::var("USEP_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid USEP_THREADS='{raw}' \
                     (expected a positive integer); using the next link \
                     in the resolution chain"
                );
            });
            None
        }
    }
}

/// Shorthand for [`resolve_threads`]`(None)`: the thread count every
/// hot path uses unless a caller passes one explicitly.
pub fn current_threads() -> usize {
    resolve_threads(None)
}

/// Chunk length for `n` items across `threads` workers: 4 chunks per
/// worker for load balance (scan costs per item are uneven — users
/// differ in candidate counts), never below 1.
fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 4).max(1)
}

/// Maps `f` over `items` on `threads` workers and returns the results
/// in item order. See [`par_map_init`] for the full contract; this is
/// the stateless form.
pub fn par_map<T, R, F>(threads: usize, items: &[T], guard: &Guard, f: F) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_init(threads, items, guard, || (), |(), i, item| f(i, item), |()| ())
}

/// Maps `f` over `items` on `threads` workers with per-worker state.
///
/// Each worker calls `init` once to build its state `S` (a scratch
/// workspace, a local counter block), threads it through every `f`
/// call it executes, and hands it to `drain` when done — which is
/// where per-worker trace counters merge into the session sink.
/// `drain` also runs for workers that stopped on a guard trip, so no
/// counts are lost on truncation.
///
/// Results are placed by item index: `out[i]` is `Some(f(state, i,
/// &items[i]))` when item `i`'s chunk was computed and `None` when a
/// guard trip stopped the pool first. On a run where the guard never
/// trips, every slot is `Some` and the output is bit-identical to
/// `items.iter().enumerate().map(…)` with a single state.
///
/// `threads <= 1`, few items, or an inactive single chunk run inline
/// on the caller's thread with the same chunked checkpoint cadence, so
/// sequential and parallel runs see guard checkpoints at the same
/// rate.
///
/// # Panics
///
/// A panic inside `f` re-raises on the calling thread with the
/// original payload (the first panicking chunk in index order wins,
/// deterministically at every thread count); remaining workers stop
/// within one chunk and the pool never hangs. The panicking worker's
/// state is dropped without `drain`, since the panic may have left it
/// mid-update.
pub fn par_map_init<T, R, S, I, F, D>(
    threads: usize,
    items: &[T],
    guard: &Guard,
    init: I,
    f: F,
    drain: D,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    D: Fn(S) + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    let chunk = chunk_len(n, threads);

    if threads == 1 {
        let mut state = init();
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        for start in (0..n).step_by(chunk) {
            if guard.checkpoint() {
                break;
            }
            for (i, item) in items.iter().enumerate().skip(start).take(chunk) {
                out.push(Some(f(&mut state, i, item)));
            }
        }
        out.resize_with(n, || None);
        drain(state);
        return out;
    }

    let (tx, rx) = crossbeam::channel::unbounded::<usize>();
    for start in (0..n).step_by(chunk) {
        let _ = tx.send(start);
    }
    drop(tx);

    // A panic inside `f` must reach the caller as a panic with the
    // original payload, never as a hung channel or a poisoned scope.
    // Each worker catches its chunk's panic, poisons the pool so idle
    // workers stop dequeuing, and reports the payload with its chunk
    // start; the driving thread re-raises the panic of the *lowest*
    // chunk index. Chunks are dequeued in index order, so that is the
    // first panic a sequential run of the same closure would hit (at
    // chunk granularity) — deterministic at every thread count.
    let poisoned = AtomicBool::new(false);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n, || None);
    let worker_results = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let rx = rx.clone();
                let (init, f, drain) = (&init, &f, &drain);
                let poisoned = &poisoned;
                s.spawn(move |_| {
                    let mut state = Some(init());
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut panicked: Option<(usize, Box<dyn Any + Send>)> = None;
                    while let Ok(start) = rx.recv() {
                        if poisoned.load(Ordering::Relaxed) || guard.checkpoint() {
                            break;
                        }
                        let st = state.as_mut().expect("state lives until a panic");
                        let attempt = catch_unwind(AssertUnwindSafe(|| {
                            for (i, item) in items.iter().enumerate().skip(start).take(chunk) {
                                local.push((i, f(st, i, item)));
                            }
                        }));
                        if let Err(payload) = attempt {
                            poisoned.store(true, Ordering::Relaxed);
                            panicked = Some((start, payload));
                            // the panic may have left the worker state
                            // mid-update; drop it without draining
                            state = None;
                            break;
                        }
                    }
                    if let Some(st) = state {
                        drain(st);
                    }
                    (local, panicked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("usep-par workers contain panics via catch_unwind"))
            .collect::<Vec<_>>()
    })
    .expect("scope itself cannot fail");

    let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
    for (local, panicked) in worker_results {
        if let Some((start, payload)) = panicked {
            if first_panic.as_ref().is_none_or(|&(s, _)| start < s) {
                first_panic = Some((start, payload));
            }
        }
        for (i, r) in local {
            out[i] = Some(r);
        }
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    out
}

/// [`par_map_init`] wrapped in an observable section: the whole
/// fork-join runs inside a span named `section` on `probe`, one
/// [`Counter::ParSection`] tick is counted, and each worker records its
/// busy time into the `par.worker_ms` histogram when it drains.
///
/// Request-scoped observability falls out of the probe argument: when
/// the serve layer passes a `RequestProbe`, the section's span events
/// carry that request's id, so a slow parallel scan is attributable to
/// the request that ran it. Determinism is preserved — the span and
/// section counter are caller-side (thread-count-independent), and the
/// per-worker histogram feeds summaries only, never counter snapshots.
#[allow(clippy::too_many_arguments)]
pub fn par_map_section<T, R, S, I, F, D>(
    threads: usize,
    section: &'static str,
    probe: &dyn Probe,
    items: &[T],
    guard: &Guard,
    init: I,
    f: F,
    drain: D,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    D: Fn(S) + Sync,
{
    struct Timed<S> {
        inner: S,
        started: std::time::Instant,
    }
    probe.span_enter(section);
    probe.count(Counter::ParSection, 1);
    let out = par_map_init(
        threads,
        items,
        guard,
        || Timed { inner: init(), started: std::time::Instant::now() },
        |t, i, item| f(&mut t.inner, i, item),
        |t| {
            if probe.enabled() {
                probe.record("par.worker_ms", t.started.elapsed().as_secs_f64() * 1e3);
            }
            drain(t.inner);
        },
    );
    probe.span_exit(section);
    out
}

/// [`par_map`] that panics on guard-trip holes: for call sites with an
/// inactive (or absent) guard where truncation is impossible, this
/// unwraps the `Option` layer.
pub fn par_map_complete<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(threads, items, Guard::none(), f)
        .into_iter()
        .map(|r| r.expect("no guard was active, so no item can be missing"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use usep_guard::{SolveBudget, TruncationReason};

    /// Serializes tests that touch process-global state (the override
    /// atomic and the environment).
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn resolution_chain_precedence() {
        let _g = GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        std::env::set_var("USEP_THREADS", "3");
        set_threads(0);
        assert_eq!(resolve_threads(Some(7)), 7);
        assert_eq!(resolve_threads(None), 3);
        set_threads(5);
        assert_eq!(resolve_threads(None), 5);
        assert_eq!(resolve_threads(Some(2)), 2);
        set_threads(0);
        std::env::set_var("USEP_THREADS", "zebra");
        let fallback = resolve_threads(None);
        assert!(fallback >= 1, "malformed env falls through to hardware");
        std::env::remove_var("USEP_THREADS");
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn par_map_matches_sequential_at_all_thread_counts() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 3 + i as u64).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got: Vec<u64> = par_map(threads, &items, Guard::none(), |i, x| x * 3 + i as u64)
                .into_iter()
                .map(Option::unwrap)
                .collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_oversized_thread_counts_are_safe() {
        let out = par_map(8, &[] as &[u32], Guard::none(), |_, x| *x);
        assert!(out.is_empty());
        let out = par_map_complete(100, &[1u32, 2], |_, x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn tripped_guard_computes_nothing() {
        let budget = SolveBudget::unlimited().with_chaos_trip(0, TruncationReason::Cancelled);
        let guard = Guard::new(&budget);
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let out = par_map(threads, &items, &guard, |_, x| *x);
            assert!(out.iter().all(Option::is_none), "threads={threads}");
        }
    }

    #[test]
    fn mid_run_trip_leaves_holes_but_keeps_computed_results_correct() {
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1, 4] {
            let budget =
                SolveBudget::unlimited().with_chaos_trip(2, TruncationReason::Deadline);
            let guard = Guard::new(&budget);
            let out = par_map(threads, &items, &guard, |_, x| x * 2);
            assert!(guard.is_tripped());
            let computed = out.iter().flatten().count();
            assert!(computed < items.len(), "threads={threads}: trip must truncate");
            for (i, r) in out.iter().enumerate() {
                if let Some(v) = r {
                    assert_eq!(*v, items[i] * 2);
                }
            }
        }
    }

    #[test]
    fn per_worker_state_inits_and_drains_once_per_worker() {
        use std::sync::atomic::AtomicU64;
        let inits = AtomicU64::new(0);
        let drained_total = AtomicU64::new(0);
        let items: Vec<u64> = (0..256).collect();
        let out = par_map_init(
            4,
            &items,
            Guard::none(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, _, x| {
                *acc += x;
                *x
            },
            |acc| {
                drained_total.fetch_add(acc, Ordering::Relaxed);
            },
        );
        assert_eq!(out.iter().flatten().copied().collect::<Vec<_>>(), items);
        assert_eq!(inits.load(Ordering::Relaxed), 4, "one state per worker");
        assert_eq!(drained_total.load(Ordering::Relaxed), items.iter().sum::<u64>());
    }

    #[test]
    fn worker_panic_propagates_payload_to_caller() {
        let items: Vec<u32> = (0..500).collect();
        for threads in [1, 2, 4, 16] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(threads, &items, Guard::none(), |_, x| {
                    if *x == 97 {
                        panic!("boom at {x}");
                    }
                    *x * 2
                })
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("String payload");
            assert_eq!(msg, "boom at 97", "threads={threads}");
        }
    }

    #[test]
    fn first_panicking_chunk_wins_deterministically() {
        // every item from 100 on panics; the propagated payload must be
        // the lowest-index one at every thread count, every run
        let items: Vec<u32> = (0..400).collect();
        for threads in [1, 3, 8] {
            for _ in 0..5 {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    par_map(threads, &items, Guard::none(), |_, x| {
                        if *x >= 100 {
                            panic!("panic item {x}");
                        }
                        *x
                    })
                }));
                let payload = result.expect_err("panic must propagate");
                let msg = payload.downcast_ref::<String>().expect("String payload");
                assert_eq!(msg, "panic item 100", "threads={threads}");
            }
        }
    }

    #[test]
    fn panic_skips_drain_for_the_panicking_worker_only() {
        use std::sync::atomic::AtomicU64;
        let inits = AtomicU64::new(0);
        let drains = AtomicU64::new(0);
        let items: Vec<u64> = (0..256).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_init(
                4,
                &items,
                Guard::none(),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), _, x| {
                    if *x == 3 {
                        panic!("die");
                    }
                    *x
                },
                |()| {
                    drains.fetch_add(1, Ordering::Relaxed);
                },
            )
        }));
        assert!(result.is_err());
        let inited = inits.load(Ordering::Relaxed);
        let drained = drains.load(Ordering::Relaxed);
        assert_eq!(drained, inited - 1, "exactly the panicking worker skips drain");
    }

    #[test]
    fn par_map_section_spans_count_and_time_workers() {
        use usep_trace::{RequestCtx, RequestProbe, TraceSink};
        let sink = TraceSink::new();
        let scoped = RequestProbe::new(&sink, RequestCtx::new("req-7"));
        let items: Vec<u64> = (0..300).collect();
        for threads in [1, 4] {
            let out = par_map_section(
                threads,
                "par.scan",
                &scoped,
                &items,
                Guard::none(),
                || 0u64,
                |acc, _, x| {
                    *acc += 1;
                    x * 2
                },
                |_| {},
            );
            assert_eq!(out.iter().flatten().count(), items.len(), "threads={threads}");
        }
        assert_eq!(sink.counter(Counter::ParSection), 2, "one tick per section, not per worker");
        let span = sink.span_totals().iter().find(|t| t.name == "par.scan").cloned().unwrap();
        assert_eq!(span.count, 2);
        // 1-thread run records 1 worker, 4-thread run records 4
        assert_eq!(sink.histogram_summary("par.worker_ms").unwrap().count, 5);
    }

    #[test]
    fn chunk_len_is_positive_and_covers() {
        for n in [1usize, 2, 7, 100, 1000] {
            for t in [1usize, 2, 8, 64] {
                let c = chunk_len(n, t);
                assert!(c >= 1);
                assert!((0..n).step_by(c).count() * c >= n);
            }
        }
    }
}
