//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <fig4_batch|serve_cities|delta_session>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! Run from the repository root (`bash perfbench/run.sh ...` builds it
//! first). With `--trace 0` the last stdout line carries every
//! end-to-end metric; with `--trace 1` every per-layer metric, timed from
//! outside each layer. The line before it is a detail record: provenance
//! (cores, commit, build profile, rustc, seed), every metric the run
//! measured, and the failures found. See `perfbench/README.md`.

mod common;
mod delta;
mod fig4;
mod host;
mod serve;
mod solvers;

use common::{nproc, Metrics, RunCfg, Scale, Tally, E2E, LAYERS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use usep_trace::json::Value;

#[global_allocator]
static ALLOC: usep_metrics::CountingAllocator = usep_metrics::CountingAllocator;

const WORKLOADS: [&str; 3] = ["fig4_batch", "serve_cities", "delta_session"];

struct Args {
    workload: String,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.len() % 2 != 0 {
        return Err("arguments come in --key value pairs".to_string());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    for pair in raw.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?.max(1))
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--scale" => {
                scale = match value {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err("--scale takes full or smoke".to_string()),
                }
            }
            other => return Err(format!("unknown argument or value: {other} {value}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required, one of {WORKLOADS:?}"))?;
    let tmp = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        cfg: RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
            tmp,
        },
        workload,
    })
}

/// The commit checked out at the working directory, when it is a git
/// checkout (read from `.git`, no process spawned).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown (not a git checkout)".to_string() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| format!("unknown ({head})")),
    }
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from, so runs from checkouts without git stay attributable.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "vendored", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv1a64:{hash:016x}")
}

fn provenance(args: &Args) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    Value::Map(vec![
        ("nproc".to_string(), Value::U64(nproc() as u64)),
        ("commit".to_string(), Value::Str(git_commit())),
        ("source_digest".to_string(), Value::Str(source_digest())),
        ("profile".to_string(), s(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("rustc".to_string(), s(env!("PERFBENCH_RUSTC"))),
        ("workload".to_string(), s(&args.workload)),
        ("seed".to_string(), Value::U64(args.cfg.seed)),
        ("seconds".to_string(), Value::U64(args.cfg.seconds)),
        ("trace".to_string(), Value::U64(u64::from(args.cfg.trace))),
        (
            "scale".to_string(),
            s(if args.cfg.scale == Scale::Full { "full" } else { "smoke" }),
        ),
    ])
}

/// `{"name": {"value": v, "unit": u}, ...}` over `catalogue`; a value
/// that cannot be measured here is `null` with its reason.
fn render(catalogue: &[(&str, &str)], metrics: &Metrics, missing: f64) -> Value {
    Value::Map(
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let mut fields = vec![("unit".to_string(), Value::Str(unit.to_string()))];
                match metrics.entry(name) {
                    Some(Ok(v)) => fields.insert(0, ("value".to_string(), Value::F64(*v))),
                    Some(Err(reason)) => {
                        fields.insert(0, ("value".to_string(), Value::F64(f64::NAN)));
                        fields.push(("reason".to_string(), Value::Str(reason.clone())));
                    }
                    None => fields.insert(0, ("value".to_string(), Value::F64(missing))),
                }
                (name.to_string(), Value::Map(fields))
            })
            .collect(),
    )
}

fn all_measured(metrics: &Metrics) -> Value {
    let names = E2E.iter().chain(LAYERS.iter());
    let present: Vec<(&str, &str)> =
        names.filter(|(n, _)| metrics.entry(n).is_some()).copied().collect();
    render(&present, metrics, 0.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    if let Err(e) = std::fs::create_dir_all(&cfg.tmp) {
        eprintln!("perfbench: scratch directory {}: {e}", cfg.tmp.display());
        return ExitCode::FAILURE;
    }

    let (mut e2e, mut layers, mut tally) = (Metrics::default(), Metrics::default(), Tally::default());
    let mut detail = Vec::new();
    let outcome = match args.workload.as_str() {
        "fig4_batch" => {
            fig4::run(cfg, &mut e2e, &mut layers, &mut tally);
            Ok(())
        }
        "serve_cities" => serve::run(cfg, &mut e2e, &mut layers, &mut tally, &mut detail),
        _ => delta::run(cfg, &mut e2e, &mut layers, &mut tally),
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    for (name, _) in E2E {
        if e2e.get(name).is_none() {
            tally.fail(format!("end-to-end metric {name} was not measured"));
        }
    }
    let mut record = vec![
        ("provenance".to_string(), provenance(&args)),
        ("e2e".to_string(), all_measured(&e2e)),
        ("layers".to_string(), all_measured(&layers)),
        (
            "violations".to_string(),
            Value::Seq(tally.violations.iter().map(|v| Value::Str(v.clone())).collect()),
        ),
    ];
    record.append(&mut detail);
    println!("{}", Value::Map(vec![("perfbench".to_string(), Value::Map(record))]).render());

    let metrics = if cfg.trace { render(&LAYERS, &layers, 0.0) } else { render(&E2E, &e2e, 0.0) };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.render()
    );
    ExitCode::SUCCESS
}
