//! The host-speed reference.
//!
//! On a shared host, CPU-bound work can run at very different speeds
//! from one minute to the next: on the 2-vCPU Xeon this benchmark was
//! built on, every solve ran up to 60% slower for seconds to minutes at
//! a time while other tenants were busy, and per-run medians of raw
//! solve times spread 25–50% between runs. The slowdown is uniform
//! across kinds of CPU work: over the same minute, the ratio of a DeDPO
//! solve's time to this module's fixed kernel's stayed within ±2% while
//! both swung by ±25%.
//!
//! So each CPU-bound time the benchmark reports is scaled to the
//! kernel's nominal speed: multiplied by [`NOMINAL_MS`] divided by the
//! kernel's time measured right beside it. The kernel (fill a 1 MiB
//! buffer from xorshift, then sort it) is the benchmark's own code, so
//! a change to the program cannot move it, and it is timed in thread
//! CPU time, so waiting for a core the load keeps busy does not count.
//! Served requests take their samples from a [`Sampler`] that times the
//! kernel only while no request is in flight. The raw wall times stay in
//! the detail record.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's thread CPU time on the unloaded reference host
/// (Intel Xeon, 2.1 GHz).
pub const NOMINAL_MS: f64 = 2.6;

const WORDS: usize = 1 << 17;

/// Thread CPU time of the calling thread, in milliseconds.
#[cfg(target_os = "linux")]
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as f64 * 1e3 + t.nsec as f64 / 1e6
}

/// Elsewhere the kernel is timed in wall time.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ms() -> f64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// The kernel and its buffer, allocated once so that timing it never
/// touches the heap figures.
pub struct Reference {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference { buf: vec![0; WORDS], samples: Vec::with_capacity(4096) }
    }

    /// The median of every sample taken so far: how fast the host ran.
    pub fn median_ms(&self) -> f64 {
        if self.samples.is_empty() {
            NOMINAL_MS
        } else {
            crate::common::median(&self.samples)
        }
    }

    /// Runs the kernel once; its thread CPU time in milliseconds.
    pub fn sample_ms(&mut self) -> f64 {
        let started = thread_cpu_ms();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for v in self.buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        let took = thread_cpu_ms() - started;
        self.samples.push(took);
        took
    }

    /// Runs `f`; returns its result, its wall seconds, and those seconds
    /// scaled to the nominal speed by kernel samples taken before and
    /// after it.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.sample_ms();
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed().as_secs_f64();
        let after = self.sample_ms();
        (out, wall, scale(wall, (before + after) / 2.0))
    }
}

/// `value` measured while the kernel took `kernel_ms`, at nominal speed.
pub fn scale(value: f64, kernel_ms: f64) -> f64 {
    value * NOMINAL_MS / kernel_ms
}

/// Requests in flight and requests begun, kept by a load generator so
/// that a [`Sampler`] can time the kernel while the program idles.
#[derive(Default)]
pub struct Activity {
    inflight: AtomicUsize,
    begun: AtomicUsize,
}

impl Activity {
    pub fn begin(&self) {
        self.begun.fetch_add(1, Ordering::SeqCst);
        self.inflight.fetch_add(1, Ordering::SeqCst);
    }

    pub fn end(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// The count of requests begun, when none is in flight.
    fn quiet(&self) -> Option<usize> {
        let begun = self.begun.load(Ordering::SeqCst);
        (self.inflight.load(Ordering::SeqCst) == 0).then_some(begun)
    }
}

/// The heap's high-water mark second by second, and, given an
/// [`Activity`], kernel samples, taken on a thread of their own while a
/// load runs.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Samples>,
}

/// Time between kernel samples; the kernel then takes a few percent of
/// one core.
const PERIOD: Duration = Duration::from_millis(50);

impl Sampler {
    /// Kernel samples count only when no request was in flight from the
    /// sample's start to its end: beside a request the kernel would read
    /// the request's own contention for the cores (two vCPUs may share a
    /// physical core), not the host's speed.
    pub fn start(activity: Option<Arc<Activity>>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut reference = Reference::new();
        let handle = std::thread::spawn(move || {
            let mut samples = Samples { kernel: Vec::with_capacity(4096), heap_peaks: Vec::with_capacity(512) };
            usep_metrics::alloc::reset_peak();
            let mut second = Instant::now() + Duration::from_secs(1);
            while !flag.load(Ordering::Relaxed) {
                if let Some(activity) = &activity {
                    if let Some(begun) = activity.quiet() {
                        let at = Instant::now();
                        let took = reference.sample_ms();
                        if activity.quiet() == Some(begun) {
                            samples.kernel.push((at, took));
                        }
                    }
                }
                if Instant::now() >= second {
                    samples.heap_peaks.push(usep_metrics::alloc::peak_bytes());
                    usep_metrics::alloc::reset_peak();
                    second += Duration::from_secs(1);
                }
                std::thread::sleep(PERIOD);
            }
            samples.heap_peaks.push(usep_metrics::alloc::peak_bytes());
            samples
        });
        Sampler { stop, handle }
    }

    pub fn finish(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("the host-speed sampler panicked")
    }
}

/// What a [`Sampler`] saw: kernel samples `(when, thread CPU ms)`, and
/// the heap's high-water mark (bytes, absolute) of each second.
pub struct Samples {
    kernel: Vec<(Instant, f64)>,
    pub heap_peaks: Vec<usize>,
}

/// Kernel samples nearest in time that describe the host's speed at an
/// instant.
const NEAREST: usize = 5;

impl Samples {
    /// The median of the kernel samples nearest to the middle of
    /// `[from, to]`; `None` when there are none.
    pub fn kernel_ms(&self, from: Instant, to: Instant) -> Option<f64> {
        let mid = from + (to - from) / 2;
        let gap = |t: Instant| if t > mid { t - mid } else { mid - t };
        let mut near: Vec<(Duration, f64)> = self.kernel.iter().map(|&(t, ms)| (gap(t), ms)).collect();
        near.sort_by_key(|&(d, _)| d);
        near.truncate(NEAREST);
        let near: Vec<f64> = near.into_iter().map(|(_, ms)| ms).collect();
        (!near.is_empty()).then(|| crate::common::median(&near))
    }
}
