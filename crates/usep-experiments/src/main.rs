//! `usep-experiments` — regenerates every table and figure of the USEP
//! paper's evaluation (§5) on simulated substrates.
//!
//! ```text
//! usep-experiments [--figure all|2|3|4|table6|special|ext]
//!                  [--panel <name>]      # e.g. v, u, cap, cr, fb, real
//!                  [--scale quick|full]  # quick (default) shrinks |U|
//!                  [--seed N] [--out DIR]
//! usep-experiments --list
//! usep-experiments --figure replot   # re-render SVGs from existing CSVs
//! ```
//!
//! Results land in `--out` (default `results/`) as one CSV per metric per
//! panel plus a combined markdown file, and progress is logged to stderr.
//! `--scale full` uses the paper's exact Table-7 sizes (hours of compute
//! for the DeDP panels); `quick` divides user counts by 8 and keeps every
//! other knob, which preserves all the qualitative shapes the paper
//! reports (see EXPERIMENTS.md).

mod panels;
mod sweep;

use panels::{all_panels, Panel};
use std::path::PathBuf;
use std::process::ExitCode;

/// Register the counting allocator so memory measurements are live.
#[global_allocator]
static ALLOC: usep_metrics::CountingAllocator = usep_metrics::CountingAllocator;

struct Args {
    figure: String,
    panel: Option<String>,
    quick: bool,
    seed: u64,
    out: PathBuf,
    list: bool,
    /// Per-measurement wall-clock deadline; truncated runs are recorded
    /// with their outcome tag instead of running unboundedly.
    timeout_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figure: "all".to_string(),
        panel: None,
        quick: true,
        seed: 2015, // SIGMOD'15
        out: PathBuf::from("results"),
        list: false,
        timeout_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        match a.as_str() {
            "--figure" | "-f" => args.figure = next("--figure")?,
            "--panel" | "-p" => args.panel = Some(next("--panel")?),
            "--scale" | "-s" => {
                args.quick = match next("--scale")?.as_str() {
                    "quick" => true,
                    "full" => false,
                    other => return Err(format!("unknown scale '{other}' (quick|full)")),
                }
            }
            "--seed" => {
                args.seed = next("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    next("--timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --timeout-ms: {e}"))?,
                )
            }
            "--threads" | "-t" => {
                let n: usize = next("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                usep_par::set_threads(n);
            }
            "--out" | "-o" => args.out = PathBuf::from(next("--out")?),
            "--list" | "-l" => args.list = true,
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

const HELP: &str = "usep-experiments — regenerate the USEP paper's figures

USAGE:
    usep-experiments [--figure all|2|3|4|table6|special|ext] [--panel NAME]
                     [--scale quick|full] [--seed N] [--out DIR]
                     [--timeout-ms N]   # per-measurement deadline; truncated
                                        # runs are tagged, not discarded
                     [--threads N]      # workers for the untimed ext
                                        # panels (quality, variance);
                                        # every solve runs on one thread
                                        # (default: USEP_THREADS, then
                                        # the machine's core count)
    usep-experiments --list
    usep-experiments --figure replot [--out DIR]   # re-render SVGs from CSVs

Panels (use with --figure N --panel NAME, or omit --panel for all of N):
    figure 2:  v, u, cap, cr
    figure 3:  fb, mu-power, cap-normal, budget-normal
    figure 4:  scal-100, scal-200, scal-500, real
    table6, special (no panels)
    ext:       quality, variance, fairness (beyond-the-paper extensions)";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.figure == "replot" {
        return match sweep::replot(&args.out) {
            Ok(n) => {
                eprintln!("rendered {n} SVGs from the CSVs in {}", args.out.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let panels = all_panels(args.quick);
    if args.list {
        for p in &panels {
            println!("figure {:<7} panel {:<15} {}", p.figure, p.name, p.title);
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&Panel> = panels
        .iter()
        .filter(|p| args.figure == "all" || p.figure == args.figure)
        .filter(|p| args.panel.as_deref().is_none_or(|n| p.name == n))
        .collect();
    if selected.is_empty() {
        eprintln!("error: no panel matches --figure {} --panel {:?}", args.figure, args.panel);
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let budget = args
        .timeout_ms
        .map(|ms| {
            usep_metrics::SolveBudget::unlimited()
                .with_deadline(std::time::Duration::from_millis(ms))
        });
    let scale = if args.quick { "quick" } else { "full" };
    eprintln!(
        "running {} panel(s) at scale '{scale}', seed {}, into {}",
        selected.len(),
        args.seed,
        args.out.display()
    );
    for p in selected {
        eprintln!("== figure {} / {} — {}", p.figure, p.name, p.title);
        match sweep::run_panel(p, args.seed, &args.out, budget.as_ref()) {
            Ok(files) => {
                for f in files {
                    eprintln!("   wrote {}", f.display());
                }
            }
            Err(e) => {
                eprintln!("error in panel {}: {e}", p.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
