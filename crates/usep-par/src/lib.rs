//! Deterministic fork-join parallelism for the USEP scans that pay for it.
//!
//! Every solver runs on the calling thread. What fans out are the
//! embarrassingly parallel *scans* around the solvers whose results feed
//! a sequential step: the per-user DPs of the capacity-relaxed bound,
//! local-search move evaluation, and the independent cells and seeds of
//! experiment panels and ensembles. This crate supplies exactly that
//! shape and nothing more:
//!
//! * [`par_map`] / [`par_map_init`] — a scoped fork-join map over a
//!   slice. Work is distributed as contiguous index chunks through a
//!   `crossbeam::channel`, each worker owns optional per-worker state
//!   (a scratch DP workspace, a local trace-counter block), and results
//!   are merged **by item index**, so the output is bit-identical to a
//!   sequential run of the same closure regardless of thread count or
//!   scheduling. The closure must be a pure function of `(index, item)`
//!   and its own worker state for that guarantee to mean anything;
//!   every call site in this workspace reads shared state immutably
//!   during the map and applies effects in index order afterwards.
//!   A map always runs to completion: no caller can use part of one.
//! * [`current_threads`] / [`set_threads`] — the thread-count
//!   resolution chain: the process-global override (set once from
//!   `--threads`), then the `USEP_THREADS` environment variable, then
//!   [`std::thread::available_parallelism`].
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
use usep_trace::{Counter, Probe};

/// Process-global thread-count override; 0 means "not set".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `0` clears) the process-global thread-count override,
/// which takes precedence over `USEP_THREADS`; the CLI's `--threads`
/// flag lands here.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The thread count of every parallel section: the [`set_threads`]
/// override > `USEP_THREADS` env var >
/// [`std::thread::available_parallelism`]. Always at least 1; zero or
/// malformed values fall through to the next link in the chain (with a
/// one-time stderr warning for a set but unusable `USEP_THREADS`, so a
/// typo'd environment doesn't silently change the parallelism).
pub fn current_threads() -> usize {
    Some(GLOBAL_THREADS.load(Ordering::Relaxed))
        .filter(|&n| n > 0)
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

/// Chunk length for `n` items across `threads` workers: 4 chunks per
/// worker for load balance (scan costs per item are uneven — users
/// differ in candidate counts), never below 1.
fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 4).max(1)
}

/// Maps `f` over `items` on `threads` workers and returns the results
/// in item order. See [`par_map_init`] for the full contract; this is
/// the stateless form.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_init(threads, items, || (), |(), i, item| f(i, item), |()| ())
}

/// Maps `f` over `items` on `threads` workers with per-worker state.
///
/// Each worker calls `init` once to build its state `S` (a scratch
/// workspace, a local counter block), threads it through every `f`
/// call it executes, and hands it to `drain` when done — which is
/// where per-worker trace counters merge into the session sink.
///
/// `out[i]` is `f(state, i, &items[i])`, so the output is bit-identical
/// to `items.iter().enumerate().map(…)` with a single state. With
/// `threads <= 1` or a single item the map runs inline on the caller's
/// thread.
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
    init: I,
    f: F,
    drain: D,
) -> Vec<R>
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
    if threads == 1 {
        let mut state = init();
        let out = items.iter().enumerate().map(|(i, item)| f(&mut state, i, item)).collect();
        drain(state);
        return out;
    }

    let chunk = chunk_len(n, threads);
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
    let worker_results = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let rx = rx.clone();
                let (init, f, drain) = (&init, &f, &drain);
                let poisoned = &poisoned;
                s.spawn(move |_| {
                    let mut state = Some(init());
                    let mut done: Vec<(usize, Vec<R>)> = Vec::new();
                    let mut panicked: Option<(usize, Box<dyn Any + Send>)> = None;
                    while let Ok(start) = rx.recv() {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let st = state.as_mut().expect("state lives until a panic");
                        let end = (start + chunk).min(n);
                        let attempt = catch_unwind(AssertUnwindSafe(|| {
                            (start..end).map(|i| f(st, i, &items[i])).collect::<Vec<R>>()
                        }));
                        match attempt {
                            Ok(rs) => done.push((start, rs)),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Relaxed);
                                panicked = Some((start, payload));
                                // the panic may have left the worker state
                                // mid-update; drop it without draining
                                state = None;
                                break;
                            }
                        }
                    }
                    if let Some(st) = state {
                        drain(st);
                    }
                    (done, panicked)
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
    let mut chunks: Vec<(usize, Vec<R>)> = Vec::with_capacity(n.div_ceil(chunk));
    for (done, panicked) in worker_results {
        if let Some((start, payload)) = panicked {
            if first_panic.as_ref().is_none_or(|&(s, _)| start < s) {
                first_panic = Some((start, payload));
            }
        }
        chunks.extend(done);
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    // with no panic every chunk ran, so the sorted chunks tile 0..n
    chunks.sort_unstable_by_key(|&(start, _)| start);
    chunks.into_iter().flat_map(|(_, rs)| rs).collect()
}

/// [`par_map_init`] wrapped in an observable section: the whole
/// fork-join runs inside a span named `section` on `probe`, one
/// [`Counter::ParSection`] tick is counted, and each worker records its
/// busy time into the `par.worker_ms` histogram when it drains.
///
/// Request-scoped observability falls out of the probe argument: when
/// the caller passes a `RequestProbe`, the section's span events carry
/// that request's id, so a slow parallel scan is attributable to the
/// request that ran it. Determinism is preserved — the span and
/// section counter are caller-side (thread-count-independent), and the
/// per-worker histogram feeds summaries only, never counter snapshots.
pub fn par_map_section<T, R, S, I, F, D>(
    threads: usize,
    section: &'static str,
    probe: &dyn Probe,
    items: &[T],
    init: I,
    f: F,
    drain: D,
) -> Vec<R>
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch process-global state (the override
    /// atomic and the environment).
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn resolution_chain_precedence() {
        let _g = GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        std::env::set_var("USEP_THREADS", "3");
        set_threads(0);
        assert_eq!(current_threads(), 3);
        set_threads(5);
        assert_eq!(current_threads(), 5, "the override beats the environment");
        set_threads(0);
        std::env::set_var("USEP_THREADS", "zebra");
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(current_threads(), hardware, "malformed env falls through to hardware");
        std::env::set_var("USEP_THREADS", "0");
        assert_eq!(current_threads(), hardware, "zero falls through to hardware");
        std::env::remove_var("USEP_THREADS");
        assert_eq!(current_threads(), hardware);
    }

    #[test]
    fn par_map_matches_sequential_at_all_thread_counts() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 3 + i as u64).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got: Vec<u64> = par_map(threads, &items, |i, x| x * 3 + i as u64);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_oversized_thread_counts_are_safe() {
        let out = par_map(8, &[] as &[u32], |_, x| *x);
        assert!(out.is_empty());
        let out = par_map(100, &[1u32, 2], |_, x| x + 1);
        assert_eq!(out, vec![2, 3]);
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
        assert_eq!(out, items);
        assert_eq!(inits.load(Ordering::Relaxed), 4, "one state per worker");
        assert_eq!(drained_total.load(Ordering::Relaxed), items.iter().sum::<u64>());
    }

    #[test]
    fn worker_panic_propagates_payload_to_caller() {
        let items: Vec<u32> = (0..500).collect();
        for threads in [1, 2, 4, 16] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(threads, &items, |_, x| {
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
                    par_map(threads, &items, |_, x| {
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
                || 0u64,
                |acc, _, x| {
                    *acc += 1;
                    x * 2
                },
                |_| {},
            );
            assert_eq!(out.len(), items.len(), "threads={threads}");
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
