//! Scaling of the `usep-par` fork-join sections with thread count.
//!
//! Times the two parallel sections — the capacity-relaxed bound's
//! per-user DPs and a local-search polish — at 1, 2 and 4 threads on
//! one instance. (The solvers run on the calling thread, so they have
//! nothing to scale.) The results are bit-identical at every count (see
//! `tests/par_determinism.rs`), so any time difference is pure
//! scheduling.
//!
//! Besides the usual criterion output, the run exports a machine-
//! readable summary (median ns per section per thread count, plus the
//! 4-thread speedup) to `BENCH_par.json` at the workspace root — path
//! overridable via the `BENCH_PAR_JSON` environment variable — so CI
//! can track the parallel-speedup trajectory across commits. On a host
//! with fewer than four hardware threads the four workers time-share
//! the cores, so the export writes `"speedup_4t": null` with a
//! `"reason"` instead of a number that says nothing about scaling.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use usep_algos::{bounds, local_search, solve, Algorithm};
use usep_bench::BENCH_USERS;
use usep_core::Instance;
use usep_gen::{generate, SyntheticConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn bench_instance() -> Instance {
    let cfg = SyntheticConfig::default().with_events(50).with_users(BENCH_USERS);
    generate(&cfg, 2015)
}

/// A timed parallel section: a name and a closure returning a value to
/// keep the optimizer honest.
type Section<'a> = (&'static str, Box<dyn Fn() -> f64 + 'a>);

/// The two parallel sections, as named closures over one instance.
fn sections(inst: &Instance) -> Vec<Section<'_>> {
    let base = solve(Algorithm::DeGreedy, inst);
    let bound = move || bounds::capacity_relaxed_bound(inst);
    let polish = move || {
        let mut p = base.clone();
        local_search::improve(inst, &mut p, 3) as f64
    };
    vec![
        ("capacity_relaxed_bound", Box::new(bound)),
        ("local_search", Box::new(polish)),
    ]
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_scaling");
    g.sample_size(10).warm_up_time(Duration::from_secs(1)).measurement_time(Duration::from_secs(2));
    let inst = bench_instance();
    for (name, run) in sections(&inst) {
        for threads in THREAD_COUNTS {
            usep_par::set_threads(threads);
            g.bench_with_input(BenchmarkId::new(name, threads), &(), |b, ()| {
                b.iter(|| black_box(run()))
            });
        }
        usep_par::set_threads(0);
    }
    g.finish();
}

/// Medians from a small fixed-shape sample, independent of criterion's
/// calibration, feeding the JSON export.
fn median_ns(run: &dyn Fn() -> f64, samples: usize) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn export_summary() {
    let inst = bench_instance();
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries = Vec::new();
    for (name, run) in sections(&inst) {
        let mut medians = Vec::new();
        for threads in THREAD_COUNTS {
            usep_par::set_threads(threads);
            black_box(run()); // warm-up
            medians.push((threads, median_ns(run.as_ref(), 7)));
        }
        usep_par::set_threads(0);
        let t1 = medians[0].1.max(1) as f64;
        let t4 = medians[medians.len() - 1].1.max(1) as f64;
        let per_thread: Vec<String> = medians
            .iter()
            .map(|(t, ns)| format!("{{\"threads\":{t},\"median_ns\":{ns}}}"))
            .collect();
        let speedup = if hardware_threads >= 4 {
            format!("\"speedup_4t\":{:.3}", t1 / t4)
        } else {
            format!(
                "\"speedup_4t\":null,\"reason\":\"{hardware_threads} hardware thread(s): \
                 4 workers time-share them, so t1/t4 measures no scaling\""
            )
        };
        entries.push(format!(
            "{{\"section\":\"{name}\",\"runs\":[{}],{speedup}}}",
            per_thread.join(",")
        ));
    }
    let json = format!(
        "{{\"bench\":\"par_scaling\",\"events\":{},\"users\":{},\"hardware_threads\":{},\"sections\":[{}]}}\n",
        inst.num_events(),
        inst.num_users(),
        hardware_threads,
        entries.join(",")
    );
    // `BENCH_PAR_JSON` overrides; the default resolves to the workspace
    // root (cargo runs benches from the package dir, which previously
    // stranded the export in crates/usep-bench/)
    let path = std::env::var("BENCH_PAR_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| usep_bench::workspace_root_path("BENCH_par.json"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench);

fn main() {
    // mirror the harness's test-mode gate: `cargo test` builds and runs
    // harness=false bench binaries without `--bench`
    if !std::env::args().skip(1).any(|a| a == "--bench") {
        return;
    }
    benches();
    export_summary();
}
