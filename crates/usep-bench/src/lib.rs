//! Shared helpers for the Criterion benchmarks.
//!
//! The paper's figures are timed by `usep-experiments`; these targets
//! time the layers under them: the flat core's hot paths
//! (`core_hot_paths`), fork-join scaling (`par_scaling`), served
//! requests (`serve_throughput`) and the cost of tracing
//! (`trace_overhead`).

#![warn(missing_docs)]

/// User count used by the benchmark instances (the paper's default is
/// 5000; benches run at 250 to keep Criterion's sampling tractable).
pub const BENCH_USERS: usize = 250;

/// Resolves a bench-export filename against the *workspace root*.
///
/// Cargo runs bench binaries with the package directory as the working
/// directory, so a bare relative path would land the export in
/// `crates/usep-bench/` instead of the repo root where CI (and the
/// README) look for it. Anchoring on `CARGO_MANIFEST_DIR` makes the
/// destination independent of the invoker's cwd.
pub fn workspace_root_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2) // crates/usep-bench → crates → workspace root
        .expect("usep-bench sits two levels below the workspace root")
        .join(file)
}
