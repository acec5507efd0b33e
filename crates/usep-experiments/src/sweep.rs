//! Panel execution: generate instances, run algorithms, write results.

use crate::panels::{Panel, PanelKind};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use usep_core::PlanningStats;
use usep_gen::CityConfig;
use usep_metrics::{run_measured, run_measured_guarded, Measurement, ResultTable, SolveBudget};

/// Re-renders an SVG next to every `*_{utility,time,memory}.csv` in
/// `dir` without re-running any experiment. Returns the number of SVGs
/// written.
pub fn replot(dir: &Path) -> io::Result<usize> {
    let mut n = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|s| s.to_str()) else { continue };
        let Some(stem) = name.strip_suffix(".csv") else { continue };
        let (y_label, log_y) = if stem.ends_with("_utility") {
            ("total utility score", false)
        } else if stem.ends_with("_time") {
            ("running time (s)", true)
        } else if stem.ends_with("_memory") {
            ("peak memory (MB)", true)
        } else {
            continue;
        };
        let csv = std::fs::read_to_string(&path)?;
        let table = match ResultTable::from_csv(stem.replace('_', " "), &csv) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("   skipping {name}: {e}");
                continue;
            }
        };
        let svg_path = path.with_extension("svg");
        std::fs::write(&svg_path, usep_metrics::LinePlot::from_table(&table, y_label, log_y).render_svg())?;
        n += 1;
    }
    Ok(n)
}

/// Runs one panel, writing CSVs plus a markdown summary into `out`.
/// Returns the written file paths. When `budget` is set, sweep
/// measurements run guarded: a solve that trips the deadline records a
/// truncated (but constraint-valid) data point instead of running
/// unboundedly. Non-sweep panels ignore the budget — their solves are
/// either fast (city stats) or Ω-comparisons where truncation would
/// invalidate the comparison.
pub fn run_panel(
    panel: &Panel,
    seed: u64,
    out: &Path,
    budget: Option<&SolveBudget>,
) -> io::Result<Vec<PathBuf>> {
    match &panel.kind {
        PanelKind::Sweep { x_label, algos, points } => {
            run_sweep(panel, x_label, algos, points, seed, out, budget)
        }
        PanelKind::CityStats => run_city_stats(panel, seed, out),
        PanelKind::QualityGap { x_label, points } => {
            run_quality_gap(panel, x_label, points, seed, out)
        }
        PanelKind::Variance { seeds, make } => run_variance(panel, seeds, make, out),
        PanelKind::Fairness { make } => run_fairness(panel, make, seed, out),
    }
}

/// Extension panel: fairness metrics per algorithm (Ω maximizers vs the
/// max-min water-filling solver) under capacity scarcity.
fn run_fairness(
    panel: &Panel,
    make: &(dyn Fn(u64) -> usep_core::Instance + Send + Sync),
    seed: u64,
    out: &Path,
) -> io::Result<Vec<PathBuf>> {
    use usep_algos::{MaxMinGreedy, Solver};
    use usep_core::FairnessStats;
    let inst = make(seed);
    let mut table = ResultTable::new(
        format!("Extension — {}", panel.title),
        "algorithm",
        vec![
            "Ω".into(),
            "Jain index".into(),
            "served %".into(),
            "min served Ω_u".into(),
            "median served Ω_u".into(),
        ],
    );
    let mut row = |name: &str, planning: &usep_core::Planning| {
        planning.validate(&inst).expect("feasible planning");
        let f = FairnessStats::compute(&inst, planning);
        eprintln!(
            "   {:<12} Ω = {:>8.2}  Jain {:.3}  served {:>5.1}%  min {:.3}",
            name,
            planning.omega(&inst),
            f.jain_index,
            100.0 * f.served_fraction,
            f.min_served
        );
        table.push_row(
            name,
            vec![
                planning.omega(&inst),
                f.jain_index,
                100.0 * f.served_fraction,
                f.min_served,
                f.median_served,
            ],
        );
    };
    for algo in usep_algos::Algorithm::PAPER_SET {
        row(algo.name(), &usep_algos::solve(algo, &inst));
    }
    row("MaxMinGreedy", &MaxMinGreedy.solve(&inst));
    let csv = out.join("ext_fairness.csv");
    table.write_csv(&csv)?;
    let md = out.join("ext_fairness.md");
    std::fs::write(&md, table.to_markdown())?;
    Ok(vec![csv, md])
}

/// Extension panel: mean ± std of Ω per algorithm over an ensemble of
/// seeds (parallel across seeds — Ω is timing-independent).
fn run_variance(
    panel: &Panel,
    seeds: &[u64],
    make: &(dyn Fn(u64) -> usep_core::Instance + Send + Sync),
    out: &Path,
) -> io::Result<Vec<PathBuf>> {
    // honors --threads / USEP_THREADS; capped because seed ensembles
    // are small and per-thread instance generation dominates beyond 8
    let threads = usep_par::current_threads().min(8);
    let mut table = ResultTable::new(
        format!("Extension — {}", panel.title),
        "algorithm",
        vec!["mean Ω".into(), "std".into(), "min".into(), "max".into(), "runs".into()],
    );
    for algo in usep_algos::Algorithm::PAPER_SET {
        let e = usep_metrics::evaluate_ensemble(algo, seeds, threads, make);
        eprintln!(
            "   {:<12} Ω = {:>9.2} ± {:>6.2}  [{:.2}, {:.2}] over {} seeds",
            e.algorithm, e.mean, e.std, e.min, e.max, e.runs
        );
        table.push_row(
            e.algorithm.clone(),
            vec![e.mean, e.std, e.min, e.max, e.runs as f64],
        );
    }
    let csv = out.join("ext_variance.csv");
    table.write_csv(&csv)?;
    let md = out.join("ext_variance.md");
    std::fs::write(&md, table.to_markdown())?;
    Ok(vec![csv, md])
}

/// Extension panel: Ω of DeDPO+RG / DeGreedy+RG / DeGreedy+RG+LS against
/// the relaxation upper bound (a certified fraction of optimal, since
/// `bound ≥ OPT`).
fn run_quality_gap(
    panel: &Panel,
    x_label: &str,
    points: &[crate::panels::PanelPoint],
    seed: u64,
    out: &Path,
) -> io::Result<Vec<PathBuf>> {
    use usep_algos::{bounds, local_search, solve, Algorithm};
    let mut table = ResultTable::new(
        format!("Extension — {}", panel.title),
        x_label,
        vec![
            "upper bound".into(),
            "DeDPO+RG Ω".into(),
            "DeDPO+RG %".into(),
            "DeGreedy+RG Ω".into(),
            "DeGreedy+RG %".into(),
            "DeGreedy+RG+LS Ω".into(),
            "LS moves".into(),
        ],
    );
    // each panel cell is an independent untimed Ω measurement, so the
    // cells fan out over the worker pool (unlike run_sweep, whose
    // timing/memory numbers would be corrupted by co-running solves);
    // rows are collected by point index, keeping the table order and
    // values identical to a sequential run
    let indices: Vec<usize> = (0..points.len()).collect();
    let rows = usep_par::par_map_complete(usep_par::current_threads(), &indices, |_, &pi| {
        let p = &points[pi];
        let inst = (p.make)(seed.wrapping_add(pi as u64));
        let ub = bounds::best_upper_bound(&inst);
        let dedporg = solve(Algorithm::DeDPORG, &inst).omega(&inst);
        let mut dgr = solve(Algorithm::DeGreedyRG, &inst);
        let dgr_omega = dgr.omega(&inst);
        let moves = local_search::improve(&inst, &mut dgr, 5);
        dgr.validate(&inst).expect("local search keeps plannings feasible");
        let ls_omega = dgr.omega(&inst);
        (ub, dedporg, dgr_omega, ls_omega, moves)
    });
    for (pi, (ub, dedporg, dgr_omega, ls_omega, moves)) in rows.into_iter().enumerate() {
        let p = &points[pi];
        eprintln!(
            "   [{x_label}={}] bound {ub:.1}: DeDPO+RG {:.1}% | DeGreedy+RG {:.1}% | +LS {:.1}% ({moves} moves)",
            p.x,
            100.0 * dedporg / ub,
            100.0 * dgr_omega / ub,
            100.0 * ls_omega / ub,
        );
        table.push_row(
            p.x.clone(),
            vec![
                ub,
                dedporg,
                100.0 * dedporg / ub,
                dgr_omega,
                100.0 * dgr_omega / ub,
                ls_omega,
                moves as f64,
            ],
        );
    }
    let csv = out.join("ext_quality.csv");
    table.write_csv(&csv)?;
    let md = out.join("ext_quality.md");
    std::fs::write(&md, table.to_markdown())?;
    Ok(vec![csv, md])
}

fn run_sweep(
    panel: &Panel,
    x_label: &str,
    algos: &[usep_algos::Algorithm],
    points: &[crate::panels::PanelPoint],
    seed: u64,
    out: &Path,
    budget: Option<&SolveBudget>,
) -> io::Result<Vec<PathBuf>> {
    // measurements stay sequential on the panel level: co-running
    // solves would contaminate each other's wall-clock and the global
    // counting allocator's peak; parallelism happens *inside* each
    // solve instead, via the usep-par hot paths
    let columns: Vec<String> = algos.iter().map(|a| a.name().to_string()).collect();
    let mk = |metric: &str| {
        ResultTable::new(
            format!("Figure {} / {} — {metric} ({})", panel.figure, panel.name, panel.title),
            x_label,
            columns.clone(),
        )
    };
    let mut utility = mk("total utility score");
    let mut time = mk("running time (s)");
    let mut memory = mk("peak memory (MB)");
    let mut raw: Vec<(String, Vec<Measurement>)> = Vec::new();

    for (pi, p) in points.iter().enumerate() {
        let t0 = Instant::now();
        let inst = (p.make)(seed.wrapping_add(pi as u64));
        // lower the flat view now: it is input data every solver shares,
        // not time or memory of whichever solver happens to run first
        inst.freeze();
        eprintln!(
            "   [{}={}] generated |V|={} |U|={} cr={:.3} in {:.1}s",
            x_label,
            p.x,
            inst.num_events(),
            inst.num_users(),
            inst.conflict_ratio(),
            t0.elapsed().as_secs_f64()
        );
        let mut us = Vec::with_capacity(algos.len());
        let mut ts = Vec::with_capacity(algos.len());
        let mut ms = Vec::with_capacity(algos.len());
        let mut measurements = Vec::with_capacity(algos.len());
        for &a in algos {
            let m = match budget {
                Some(b) => run_measured_guarded(a, &inst, b),
                None => run_measured(a, &inst),
            };
            let tag = if m.outcome == "complete" {
                String::new()
            } else {
                format!("   [{}]", m.outcome)
            };
            eprintln!(
                "      {:<12} Ω = {:>10.2}   {:>8.2}s   {:>8.1} MB   ({} assignments){tag}",
                m.algorithm,
                m.omega,
                m.seconds,
                m.peak_bytes as f64 / 1e6,
                m.assignments
            );
            us.push(m.omega);
            ts.push(m.seconds);
            ms.push(m.peak_bytes as f64 / 1e6);
            measurements.push(m);
        }
        utility.push_row(p.x.clone(), us);
        time.push_row(p.x.clone(), ts);
        memory.push_row(p.x.clone(), ms);
        raw.push((p.x.clone(), measurements));
    }

    let stem = format!("fig{}_{}", panel.figure, panel.name);
    let mut files = Vec::new();
    for (t, suffix, y_label, log_y) in [
        (&utility, "utility", "total utility score", false),
        (&time, "time", "running time (s)", true),
        (&memory, "memory", "peak memory (MB)", true),
    ] {
        let path = out.join(format!("{stem}_{suffix}.csv"));
        t.write_csv(&path)?;
        files.push(path);
        let svg_path = out.join(format!("{stem}_{suffix}.svg"));
        std::fs::write(&svg_path, usep_metrics::LinePlot::from_table(t, y_label, log_y).render_svg())?;
        files.push(svg_path);
    }
    let md_path = out.join(format!("{stem}.md"));
    std::fs::write(
        &md_path,
        format!("{}\n{}\n{}\n", utility.to_markdown(), time.to_markdown(), memory.to_markdown()),
    )?;
    files.push(md_path);
    let json_path = out.join(format!("{stem}.json"));
    std::fs::write(&json_path, serde_json::to_string_pretty(&raw).expect("serializable"))?;
    files.push(json_path);
    Ok(files)
}

fn run_city_stats(panel: &Panel, seed: u64, out: &Path) -> io::Result<Vec<PathBuf>> {
    let mut table = ResultTable::new(
        format!("Table 6 — {}", panel.title),
        "city",
        vec![
            "|V|".into(),
            "|U|".into(),
            "mean c_v".into(),
            "measured cr".into(),
            "mean b_u".into(),
            "DeDPO Ω".into(),
            "DeDPO served users".into(),
        ],
    );
    for (i, cfg) in CityConfig::all_cities().into_iter().enumerate() {
        let inst = usep_gen::generate_city(&cfg, seed.wrapping_add(i as u64));
        let cap_mean = inst.events().iter().map(|e| f64::from(e.capacity)).sum::<f64>()
            / inst.num_events() as f64;
        let b_mean = inst.users().iter().map(|u| f64::from(u.budget.value())).sum::<f64>()
            / inst.num_users() as f64;
        let m = run_measured(usep_algos::Algorithm::DeDPO, &inst);
        let planning = usep_algos::solve(usep_algos::Algorithm::DeDPO, &inst);
        let stats = PlanningStats::compute(&inst, &planning);
        eprintln!(
            "   {:<10} |V|={:<4} |U|={:<5} mean c_v={:.1} cr={:.3} Ω={:.1}",
            cfg.name,
            inst.num_events(),
            inst.num_users(),
            cap_mean,
            inst.conflict_ratio(),
            m.omega
        );
        table.push_row(
            cfg.name.clone(),
            vec![
                inst.num_events() as f64,
                inst.num_users() as f64,
                cap_mean,
                inst.conflict_ratio(),
                b_mean,
                m.omega,
                stats.users_served as f64,
            ],
        );
    }
    let csv = out.join("table6.csv");
    table.write_csv(&csv)?;
    let md = out.join("table6.md");
    std::fs::write(&md, table.to_markdown())?;
    Ok(vec![csv, md])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replot_renders_svgs_for_metric_csvs_only() {
        let dir = std::env::temp_dir().join(format!("usep_replot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("fig9_x_time.csv"),
            "|V|,A,B\n10,0.5,0.2\n20,1.5,0.4\n",
        )
        .unwrap();
        std::fs::write(dir.join("notes.csv"), "a,b\n1,2\n").unwrap(); // no metric suffix
        std::fs::write(dir.join("fig9_x.md"), "# not a csv").unwrap();
        let n = replot(&dir).unwrap();
        assert_eq!(n, 1);
        let svg = std::fs::read_to_string(dir.join("fig9_x_time.svg")).unwrap();
        assert!(svg.contains("<polyline"));
        assert!(!dir.join("notes.svg").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replot_skips_malformed_csv_without_failing() {
        let dir = std::env::temp_dir().join(format!("usep_replot_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken_memory.csv"), "x,a\n1,notanumber\n").unwrap();
        assert_eq!(replot(&dir).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
