//! Subcommand implementations.

use crate::args::Flags;
use std::path::Path;
use std::time::Duration;
use usep_algos::{bounds, local_search, Algorithm, GuardedSolver, SolveBudget};
use usep_core::{Instance, Planning, PlanningStats};
use usep_gen::{generate, generate_city, CityConfig, Spread, SyntheticConfig, UtilityDistribution};
use usep_oracle::FuzzConfig;
use usep_trace::{Counter, Probe, TraceSink, NOOP};

/// Exit code for a solve that hit its budget and returned a truncated
/// (but constraint-valid) planning. Distinct from 0 (complete) and
/// 1 (error) so scripts can tell the three apart.
pub const EXIT_TRUNCATED: u8 = 3;

const HELP: &str = "usep — utility-aware social event-participant planning (SIGMOD'15)

SUBCOMMANDS:
    gen       generate a synthetic instance (Table-7 knobs)
    city      generate a simulated Meetup city instance (Table 6)
    solve     run a planning algorithm on an instance
              (--timeout-ms N / --mem-budget-mb N bound the solve; a
              truncated solve prints its outcome and exits with code 3;
              the solver runs on one thread; --threads N spreads the
              --local-search polish over N worker threads — results
              are bit-identical at any count)
    stats     print instance / planning statistics
    validate  check a planning against all four USEP constraints
    verify    run the independent verification oracle: every solver, the
              guarded chain and the serve path differentially checked
              against a from-scratch validator, exact optima (small
              instances) and relaxation bounds, plus the metamorphic
              suite (--instance FILE for one instance, or --fuzz N
              --seed S for a seeded campaign; --repro-out FILE writes a
              minimized JSON repro of the first violation; exits 0 only
              when no violations were found)
    bound     print upper bounds on the optimal Ω (and the gap of a plan)
    convert   convert an instance between JSON and the compact binary format
    plan-user print the DP-optimal personal itinerary for one user
              (--instance FILE --user N; ignores capacities, Alg. 2)
    serve     run the batch solve service (TCP, one JSON object per line;
              --addr HOST:PORT, --workers N, --queue N, --max-bytes N,
              --max-timeout-ms N, --journal FILE, --resume true,
              --max-requests N to drain-and-exit; panics are contained
              per request, overload is shed with a typed response, and
              accepted work survives a crash via the journal;
              --metrics-addr HOST:PORT serves Prometheus-text /metrics,
              /healthz, /buildinfo and /flightrec on a second port, and
              --flightrec N sizes the flight-recorder ring)
    serve fleet
              run the geo-sharded serve fleet: a router front-end
              (same JSON-lines protocol) over N supervised `serve`
              shard children, each with its own --shard-id-stamped
              journal under --journal-dir; city-labeled requests go to
              their city's shard (--cities \"vancouver=shard-0,...\",
              default round-robin over the three usep-gen cities),
              unlabeled ones by rendezvous hash; dead shards are failed
              over with backoff and restarted with --resume from their
              own journal; duplicate ids answer from the router's
              first-completion-wins cache (--addr HOST:PORT,
              --shards N, --metrics-addr HOST:PORT for fleet /metrics,
              --forward-timeout-ms N, --sweeps N, plus shard
              passthrough knobs --workers/--queue/--max-timeout-ms/
              --chaos-*)
    request   submit one instance to a running server (--addr HOST:PORT
              --instance FILE --id KEY; prints the response JSON; exits
              0 on complete, 3 on truncated, 1 otherwise; --city NAME
              labels the request for fleet routing, --fleet true
              defaults the address to the fleet router's port)
    delta     run the incremental-replanning harness: --fuzz N replays N
              seeded mutation traces (event add/remove, capacity change,
              user arrive/depart, μ updates) through the warm delta
              engine, with the independent oracle validator re-checking
              the planning after every single mutation and the
              differential referee holding Ω within --drift-bound of a
              cold solve (--seed S, --mutations M, --events E,
              --users U size the traces; --min-repair-fraction X fails
              the run if fewer than X of all mutations were absorbed by
              bounded repair; --repro-out FILE writes a kind-preserving
              minimized JSON repro of the first failing trace).
              --trace-in FILE instead replays one saved trace — e.g. a
              repro a failing campaign wrote — under the same referee
    chaos     run the deterministic fault-injection campaign: N seeded
              scenarios composing disk faults (torn writes, lying
              fsyncs, bit rot, ENOSPC), a hostile network proxy,
              power-cut crashes and injected panics over a live server,
              each refereed by the verification oracle and the metrics
              reconciliation identities (--scenarios N --seed S;
              --repro-out FILE writes a minimized JSON repro of the
              first violation; exits 0 only when every scenario is
              clean). --scenario-seed S replays exactly one scenario
              from the seed a failing campaign printed. --fleet true
              instead runs a whole-fleet scenario — router, shard
              children, a mid-run SIGKILL — with --requests N
              --shards K --kill true|false
    top       live service summary from a /metrics endpoint
              (--addr HOST:PORT of --metrics-addr; --interval-ms N,
              --iterations N [0 = forever], --clear true; shows qps,
              p50/p95/p99 solve latency, shed rate, degradation mix)
    dump      dump a running server's flight recorder (--addr HOST:PORT
              of the *solve* listener; prints the last-N annotated
              events as one JSON line)

Common flags: --instance FILE, --plan FILE, --out FILE, --seed N,
--algorithm ratiogreedy|dedp|dedpo|dedpo+rg|degreedy|degreedy+rg|baseline,
--local-search N (solve), --threads N (solve --local-search, bound;
defaults to the USEP_THREADS environment variable, then the machine's
core count).
See the crate docs for the full flag list.

Tracing (solve): --trace-out FILE writes a JSON-lines trace (span and
counter events, one JSON object per line, final 'summary' record);
--trace-summary true prints the counter/span summary to stderr.";

/// Dispatches a parsed command line. Returns the process exit code on
/// success (`0`, or [`EXIT_TRUNCATED`] for a budget-truncated solve).
pub fn dispatch(argv: &[String]) -> Result<u8, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        println!("{HELP}");
        return Ok(0);
    };
    // `serve fleet` is the one two-token subcommand; peel the word off
    // before the flag parser sees it
    if cmd == "serve" && rest.first().is_some_and(|a| a == "fleet") {
        return cmd_serve_fleet(&Flags::parse(&rest[1..])?).map(|()| 0);
    }
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&flags).map(|()| 0),
        "city" => cmd_city(&flags).map(|()| 0),
        "solve" => cmd_solve(&flags),
        "stats" => cmd_stats(&flags).map(|()| 0),
        "validate" => cmd_validate(&flags).map(|()| 0),
        "verify" => cmd_verify(&flags).map(|()| 0),
        "delta" => cmd_delta(&flags).map(|()| 0),
        "chaos" => cmd_chaos(&flags).map(|()| 0),
        "bound" => cmd_bound(&flags).map(|()| 0),
        "convert" => cmd_convert(&flags).map(|()| 0),
        "plan-user" => cmd_plan_user(&flags).map(|()| 0),
        "serve" => cmd_serve(&flags).map(|()| 0),
        "request" => cmd_request(&flags),
        "top" => cmd_top(&flags).map(|()| 0),
        "dump" => cmd_dump(&flags).map(|()| 0),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(0)
        }
        other => Err(format!("unknown subcommand '{other}' (try 'usep help')")),
    }
}

/// Installs `--threads N` as the process-global worker count for the
/// parallel sections `solve --local-search` and `bound` run. Absent,
/// the resolution falls through to `USEP_THREADS` and then the
/// machine's core count; plannings and bounds are bit-identical at
/// every setting.
fn apply_threads_flag(flags: &Flags) -> Result<(), String> {
    if let Some(t) = flags.get("threads") {
        let n: usize = t.parse().map_err(|e| format!("bad --threads '{t}': {e}"))?;
        if n == 0 {
            return Err("--threads must be at least 1".into());
        }
        usep_par::set_threads(n);
    }
    Ok(())
}

fn parse_mu(s: &str) -> Result<UtilityDistribution, String> {
    match s {
        "uniform" => Ok(UtilityDistribution::Uniform),
        "normal" => Ok(UtilityDistribution::Normal { mean: 0.5, std: 0.25 }),
        "power-0.5" => Ok(UtilityDistribution::Power { exponent: 0.5 }),
        "power-4" => Ok(UtilityDistribution::Power { exponent: 4.0 }),
        other => Err(format!("unknown --mu '{other}' (uniform|normal|power-0.5|power-4)")),
    }
}

fn parse_spread(s: &str) -> Result<Spread, String> {
    match s {
        "uniform" => Ok(Spread::Uniform),
        "normal" => Ok(Spread::Normal),
        other => Err(format!("unknown spread '{other}' (uniform|normal)")),
    }
}

fn load_instance(flags: &Flags) -> Result<Instance, String> {
    let path = flags.require("instance")?;
    load_instance_path(&path)
}

/// Loads an instance from JSON or the compact binary format, sniffing
/// the `USEP` magic so either extension works.
///
/// The binary decoder re-validates through `InstanceBuilder`; the JSON
/// path deserializes structurally and trusts its input, so the loaded
/// instance is passed through [`Instance::validate`] here — otherwise a
/// hand-edited file can smuggle in NaN utilities, zero capacities or an
/// infinite budget and panic (or silently corrupt) a solve later.
fn load_instance_path(path: &str) -> Result<Instance, String> {
    let raw = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    if raw.starts_with(b"USEP") {
        return usep_core::codec::decode(&raw).map_err(|e| format!("parse {path}: {e}"));
    }
    let text = String::from_utf8(raw).map_err(|e| format!("read {path}: {e}"))?;
    let inst: Instance = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    inst.validate().map_err(|e| format!("invalid instance {path}: {e}"))?;
    Ok(inst)
}

fn load_plan(path: &str) -> Result<Planning, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn write_json<T: serde::Serialize>(value: &T, path: &str) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let cfg = SyntheticConfig {
        num_events: flags.get_or("events", 100usize)?,
        num_users: flags.get_or("users", 5000usize)?,
        mu_dist: parse_mu(&flags.get("mu").unwrap_or_else(|| "uniform".into()))?,
        capacity_mean: flags.get_or("capacity-mean", 50u32)?,
        capacity_dist: parse_spread(
            &flags.get("capacity-dist").unwrap_or_else(|| "uniform".into()),
        )?,
        budget_factor: flags.get_or("fb", 2.0f64)?,
        budget_dist: parse_spread(&flags.get("budget-dist").unwrap_or_else(|| "uniform".into()))?,
        conflict_ratio: flags.get_or("cr", 0.25f64)?,
        grid: flags.get_or("grid", 100i32)?,
        duration: (30, 120),
        time_per_unit: flags.get_or("time-per-unit", 0u32)?,
    };
    let seed = flags.get_or("seed", 42u64)?;
    let out = flags.require("out")?;
    flags.reject_unknown()?;
    let inst = generate(&cfg, seed);
    write_json(&inst, &out)?;
    eprintln!(
        "wrote {out}: |V|={} |U|={} cr={:.3}",
        inst.num_events(),
        inst.num_users(),
        inst.conflict_ratio()
    );
    Ok(())
}

fn cmd_city(flags: &Flags) -> Result<(), String> {
    let name = flags.get("name").unwrap_or_else(|| "singapore".into());
    let mut cfg = match name.as_str() {
        "vancouver" => CityConfig::vancouver(),
        "auckland" => CityConfig::auckland(),
        "singapore" => CityConfig::singapore(),
        other => return Err(format!("unknown --name '{other}'")),
    };
    cfg.budget_factor = flags.get_or("fb", 2.0f64)?;
    let seed = flags.get_or("seed", 42u64)?;
    let out = flags.require("out")?;
    flags.reject_unknown()?;
    let inst = generate_city(&cfg, seed);
    write_json(&inst, &out)?;
    eprintln!("wrote {out}: {} with |V|={} |U|={}", cfg.name, inst.num_events(), inst.num_users());
    Ok(())
}

fn cmd_solve(flags: &Flags) -> Result<u8, String> {
    let inst = load_instance(flags)?;
    let algo_name = flags.get("algorithm").unwrap_or_else(|| "dedpo".into());
    let algo = Algorithm::parse(&algo_name)
        .ok_or_else(|| format!("unknown --algorithm '{algo_name}'"))?;
    let ls_rounds = flags.get_or("local-search", 0usize)?;
    let timeout_ms = flags.get("timeout-ms").map(|s| s.parse::<u64>()).transpose()
        .map_err(|e| format!("bad --timeout-ms: {e}"))?;
    let mem_budget_mb = flags.get("mem-budget-mb").map(|s| s.parse::<usize>()).transpose()
        .map_err(|e| format!("bad --mem-budget-mb: {e}"))?;
    let out = flags.get("out");
    let trace_out = flags.get("trace-out");
    let trace_summary = flags.get_or("trace-summary", false)?;
    apply_threads_flag(flags)?;
    flags.reject_unknown()?;

    let mut budget = SolveBudget::unlimited();
    if let Some(ms) = timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(mb) = mem_budget_mb {
        budget = budget.with_memory_ceiling(mb.saturating_mul(1024 * 1024));
    }

    let sink: Option<TraceSink> = match &trace_out {
        Some(path) => {
            Some(TraceSink::to_file(Path::new(path)).map_err(|e| format!("open {path}: {e}"))?)
        }
        None if trace_summary => Some(TraceSink::new()),
        None => None,
    };
    let probe: &dyn Probe = match &sink {
        Some(s) => s,
        None => &NOOP,
    };

    let t0 = std::time::Instant::now();
    let mut report = GuardedSolver::new(algo, budget).solve_with_probe(&inst, probe);
    let solve_secs = t0.elapsed().as_secs_f64();
    let mut plan = std::mem::replace(&mut report.planning, Planning::empty(&inst));
    // local search only polishes complete solves: after a truncation
    // there is no time (or memory) left to spend
    let improved = if ls_rounds > 0 && report.outcome.is_complete() {
        local_search::improve(&inst, &mut plan, ls_rounds)
    } else {
        0
    };
    plan.validate(&inst).map_err(|e| format!("solver bug — infeasible planning: {e}"))?;
    println!(
        "{}: Ω = {:.4}, {} assignments, {:.3}s{}",
        report.executed.name(),
        plan.omega(&inst),
        plan.num_assignments(),
        solve_secs,
        if ls_rounds > 0 {
            format!(", local search applied {improved} moves")
        } else {
            String::new()
        }
    );
    if report.degraded() {
        let trail: Vec<&str> = report.fallbacks.iter().map(|a| a.name()).collect();
        eprintln!(
            "degraded: {} → {} (abandoned: {})",
            report.requested.name(),
            report.executed.name(),
            trail.join(", ")
        );
    }
    if !report.outcome.is_complete() {
        eprintln!("outcome: {}", report.outcome);
    }
    if let Some(out) = out {
        write_json(&plan, &out)?;
        eprintln!("wrote {out}");
    }
    if let Some(sink) = &sink {
        sink.finish().map_err(|e| format!("write trace: {e}"))?;
        if let Some(path) = &trace_out {
            eprintln!("wrote trace {path}");
        }
        if trace_summary {
            print_trace_summary(sink);
        }
    }
    Ok(if report.outcome.is_complete() { 0 } else { EXIT_TRUNCATED })
}

/// Human-readable counter/span/histogram summary on stderr, mirroring
/// the trace file's final `summary` record.
fn print_trace_summary(sink: &TraceSink) {
    eprintln!("trace counters:");
    for (c, v) in sink.counters() {
        if v > 0 {
            eprintln!("  {c} = {v}");
        }
    }
    let spans = sink.span_totals();
    if !spans.is_empty() {
        eprintln!("trace spans:");
        for t in spans {
            eprintln!("  {} x{} {:.3} ms", t.name, t.count, t.total_ns as f64 / 1e6);
        }
    }
    for name in sink.histogram_names() {
        if let Some(s) = sink.histogram_summary(&name) {
            eprintln!(
                "trace histogram {name}: n={} min={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
                s.count, s.min, s.p50, s.p95, s.p99, s.max
            );
        }
    }
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let inst = load_instance(flags)?;
    let plan_path = flags.get("plan");
    flags.reject_unknown()?;
    println!("instance:");
    println!("  |V| = {}, |U| = {}", inst.num_events(), inst.num_users());
    println!("  conflict ratio = {:.3}", inst.conflict_ratio());
    let cap_mean = inst.events().iter().map(|e| f64::from(e.capacity)).sum::<f64>()
        / inst.num_events().max(1) as f64;
    let b_mean = inst.users().iter().map(|u| f64::from(u.budget.value())).sum::<f64>()
        / inst.num_users().max(1) as f64;
    println!("  mean capacity = {cap_mean:.1}, mean budget = {b_mean:.1}");
    println!("  total utility mass = {:.1}", inst.total_utility_mass());
    if let Some(p) = plan_path {
        let plan = load_plan(&p)?;
        println!("\nplanning:\n{}", PlanningStats::compute(&inst, &plan));
        let f = usep_core::FairnessStats::compute(&inst, &plan);
        println!(
            "fairness: Jain {:.3}, served {:.1}%, min/median/p90 served Ω_u = {:.3}/{:.3}/{:.3}",
            f.jain_index,
            100.0 * f.served_fraction,
            f.min_served,
            f.median_served,
            f.p90_served
        );
    }
    Ok(())
}

fn cmd_validate(flags: &Flags) -> Result<(), String> {
    let inst = load_instance(flags)?;
    let plan = load_plan(&flags.require("plan")?)?;
    flags.reject_unknown()?;
    match plan.validate(&inst) {
        Ok(()) => {
            println!(
                "planning is feasible: Ω = {:.4}, {} assignments",
                plan.omega(&inst),
                plan.num_assignments()
            );
            Ok(())
        }
        Err(e) => Err(format!("planning violates constraints: {e}")),
    }
}

/// `usep verify`: the independent verification oracle, over one
/// instance file or a seeded fuzz campaign. Violations are printed as
/// JSON findings (one per line) and turn the exit code non-zero, so a
/// CI job is just `usep verify --fuzz 500 --seed 42`.
fn cmd_verify(flags: &Flags) -> Result<(), String> {
    let instance_path = flags.get("instance");
    let fuzz_count = flags.get("fuzz").map(|s| s.parse::<u64>()).transpose()
        .map_err(|e| format!("bad --fuzz: {e}"))?;
    let seed = flags.get_or("seed", 42u64)?;
    let metamorphic_every = flags.get_or("metamorphic-every", 5u64)?;
    let repro_out = flags.get("repro-out");
    flags.reject_unknown()?;
    let sink = TraceSink::new();

    let (label, findings, repro) = match (instance_path, fuzz_count) {
        (Some(path), None) => {
            let inst = load_instance_path(&path)?;
            let mut findings = usep_oracle::verify_instance(&inst, &sink);
            findings.extend(usep_oracle::run_metamorphic(&inst, seed, &sink));
            // only minimize when there is something to reproduce
            let repro = if findings.is_empty() {
                None
            } else {
                let minimal = usep_oracle::minimize(
                    &inst,
                    |i| !usep_oracle::verify_instance(i, &NOOP).is_empty(),
                    &sink,
                );
                serde_json::to_string(&minimal).ok()
            };
            let findings = findings
                .into_iter()
                .map(|f| serde_json::to_string(&f).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            (path, findings, repro)
        }
        (None, Some(count)) => {
            let report =
                usep_oracle::run_fuzz(&FuzzConfig { count, seed, metamorphic_every }, &sink);
            eprintln!(
                "fuzz: {} instances verified, {} through the metamorphic suite",
                report.instances, report.metamorphic_runs
            );
            let findings = report
                .findings
                .iter()
                .map(|f| {
                    serde_json::to_string(&f.finding)
                        .map(|j| format!("instance #{} (seed {}): {j}", f.index, f.instance_seed))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            (format!("fuzz --seed {seed}"), findings, report.repro)
        }
        _ => return Err("verify needs exactly one of --instance FILE or --fuzz N".into()),
    };

    let checks = sink.counter(Counter::OracleCheck);
    if findings.is_empty() {
        println!("{label}: verified clean — {checks} oracle checks, 0 violations");
        return Ok(());
    }
    for f in &findings {
        println!("{f}");
    }
    if let Some(json) = repro {
        if let Some(out) = repro_out {
            std::fs::write(&out, json).map_err(|e| format!("write {out}: {e}"))?;
            eprintln!("wrote minimized repro {out}");
        }
    }
    Err(format!("{label}: {} violation(s) found after {checks} oracle checks", findings.len()))
}

/// `usep delta`: the incremental-replanning harness. `--fuzz N` runs N
/// seeded mutation traces through the warm [`usep_delta::DeltaEngine`]
/// with the oracle's independent constraint validator re-checking the
/// planning after every mutation; `--trace-in FILE` replays one saved
/// trace (typically a minimized repro from a failing campaign). CI is
/// `usep delta --fuzz 300 --seed 42 --min-repair-fraction 0.9`.
fn cmd_delta(flags: &Flags) -> Result<(), String> {
    use usep_delta::{DeltaFuzzConfig, MutationTrace, RefereeConfig};

    let trace_in = flags.get("trace-in");
    let fuzz = flags
        .get("fuzz")
        .map(|s| s.parse::<usize>())
        .transpose()
        .map_err(|e| format!("bad --fuzz: {e}"))?;
    let seed = flags.get_or("seed", 42u64)?;
    let mutations = flags.get_or("mutations", 40usize)?;
    let events = flags.get_or("events", 8usize)?;
    let users = flags.get_or("users", 12usize)?;
    let referee = RefereeConfig {
        drift_bound: flags.get_or("drift-bound", RefereeConfig::default().drift_bound)?,
        ..RefereeConfig::default()
    };
    let min_repair = flags
        .get("min-repair-fraction")
        .map(|s| s.parse::<f64>())
        .transpose()
        .map_err(|e| format!("bad --min-repair-fraction: {e}"))?;
    let repro_out = flags.get("repro-out");
    flags.reject_unknown()?;
    let sink = TraceSink::new();

    match (trace_in, fuzz) {
        (Some(path), None) => {
            let json =
                std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            let trace: MutationTrace =
                serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))?;
            let report =
                usep_delta::run_trace(&trace, &referee, &sink, &usep_oracle::oracle_step_check)
                    .map_err(|f| {
                        format!("{path}: step {} failed ({:?}): {}", f.step, f.kind, f.detail)
                    })?;
            println!(
                "{path}: {} mutations clean — {} bounded repairs / {} full resolves, \
                 final Ω {:.4} (cold {:.4}), worst Ω ratio {:.4}",
                report.steps,
                report.repairs,
                report.fallbacks,
                report.final_omega,
                report.final_omega_cold,
                report.min_omega_ratio
            );
            Ok(())
        }
        (None, Some(traces)) => {
            let cfg = DeltaFuzzConfig { traces, seed, mutations, events, users, referee };
            let report = usep_oracle::run_oracle_delta_fuzz(&cfg, &sink);
            println!(
                "delta fuzz --seed {seed}: {} traces, {} mutations — {:.1}% bounded repair \
                 ({} repairs / {} full resolves), worst Ω ratio {:.4}",
                report.traces,
                report.steps,
                100.0 * report.repair_fraction(),
                report.repairs,
                report.fallbacks,
                report.min_omega_ratio
            );
            if !report.findings.is_empty() {
                for f in &report.findings {
                    println!(
                        "trace seed {}: step {} failed ({:?}): {} — minimized to {} mutation(s)",
                        f.seed,
                        f.failure.step,
                        f.failure.kind,
                        f.failure.detail,
                        f.minimized.mutations.len()
                    );
                }
                if let Some(out) = repro_out {
                    let json = serde_json::to_string(&report.findings[0].minimized)
                        .map_err(|e| e.to_string())?;
                    std::fs::write(&out, json).map_err(|e| format!("write {out}: {e}"))?;
                    eprintln!("wrote minimized repro {out} (replay: usep delta --trace-in {out})");
                }
                return Err(format!("delta fuzz: {} failing trace(s)", report.findings.len()));
            }
            if let Some(floor) = min_repair {
                if report.repair_fraction() < floor {
                    return Err(format!(
                        "delta fuzz: bounded-repair fraction {:.3} below the --min-repair-fraction \
                         floor {floor} — the engine is falling back to full resolves too often",
                        report.repair_fraction()
                    ));
                }
            }
            Ok(())
        }
        _ => Err("delta needs exactly one of --trace-in FILE or --fuzz N".into()),
    }
}

/// `usep chaos`: the deterministic fault-injection campaign. Seeded
/// scenarios compose disk, network and process faults over a live
/// server (or, with `--fleet true`, a real sharded fleet), every
/// answer is oracle-checked and every metrics identity audited; the
/// first violation is minimized and printed as a replayable repro.
/// CI is just `usep chaos --scenarios 200 --seed 42`.
fn cmd_chaos(flags: &Flags) -> Result<(), String> {
    if flags.get_or("fleet", false)? {
        return cmd_chaos_fleet(flags);
    }
    let seed = flags.get_or("seed", 42u64)?;
    let scenarios = flags.get_or("scenarios", 200u64)?;
    let scenario_seed = flags.get("scenario-seed").map(|s| s.parse::<u64>()).transpose()
        .map_err(|e| format!("bad --scenario-seed: {e}"))?;
    let repro_out = flags.get("repro-out");
    flags.reject_unknown()?;
    let sink = TraceSink::new();

    // replay mode: one scenario, from the exact seed a failing
    // campaign printed — no campaign arithmetic in between
    if let Some(s) = scenario_seed {
        let spec = usep_chaos::ScenarioSpec::from_seed(s);
        eprintln!(
            "replaying scenario seed {s:#x}: {}",
            serde_json::to_string(&spec).map_err(|e| e.to_string())?
        );
        let outcome = usep_chaos::run_scenario(&spec, &sink);
        println!("{}", serde_json::to_string(&outcome).map_err(|e| e.to_string())?);
        return if outcome.violations.is_empty() {
            eprintln!(
                "scenario clean: {} answers refereed, {} disk + {} net faults injected",
                outcome.answered, outcome.disk_faults, outcome.net_faults
            );
            Ok(())
        } else {
            Err(format!("scenario seed {s:#x}: {} violation(s)", outcome.violations.len()))
        };
    }

    let outcome = usep_chaos::run_campaign(seed, scenarios, &sink);
    let checks = sink.counter(Counter::OracleCheck);
    match outcome.repro {
        None => {
            println!(
                "chaos --seed {seed}: {} scenarios clean — {} faults injected, \
                 {} answers, {checks} oracle checks",
                outcome.scenarios_run, outcome.total_faults, outcome.total_answered
            );
            Ok(())
        }
        Some(repro) => {
            let json = serde_json::to_string_pretty(&repro).map_err(|e| e.to_string())?;
            println!("{json}");
            if let Some(out) = repro_out {
                std::fs::write(&out, &json).map_err(|e| format!("write {out}: {e}"))?;
                eprintln!("wrote minimized repro {out}");
            }
            Err(format!(
                "scenario #{} violated {} invariant(s); replay with: \
                 usep chaos --scenario-seed {}",
                repro.scenario_index,
                repro.violations.len(),
                repro.scenario_seed
            ))
        }
    }
}

/// `usep chaos --fleet true`: one whole-fleet failure scenario — this
/// binary respawned as router + shard children, seeded mixed-city
/// traffic, a mid-run `SIGKILL`, and the fleet metrics identity as the
/// referee. Replaces the old hand-rolled fleet-smoke kill script.
fn cmd_chaos_fleet(flags: &Flags) -> Result<(), String> {
    let spec = usep_chaos::FleetScenarioSpec {
        seed: flags.get_or("seed", 42u64)?,
        requests: flags.get_or("requests", 24u64)?,
        shards: flags.get_or("shards", 3usize)?,
        kill: flags.get_or("kill", true)?,
    };
    flags.reject_unknown()?;
    let program = std::env::current_exe()
        .map_err(|e| format!("cannot locate the usep binary for shard spawns: {e}"))?
        .to_string_lossy()
        .into_owned();
    let sink = TraceSink::new();
    let outcome = usep_chaos::run_fleet_scenario(&program, &spec, &sink)
        .map_err(|e| format!("start fleet scenario: {e}"))?;
    println!("{}", serde_json::to_string(&outcome).map_err(|e| e.to_string())?);
    if outcome.violations.is_empty() {
        eprintln!(
            "fleet scenario clean: {} answers, {} shard restart(s), \
             {} oracle checks",
            outcome.answered,
            outcome.restarts,
            sink.counter(Counter::OracleCheck)
        );
        Ok(())
    } else {
        Err(format!(
            "fleet scenario --seed {}: {} violation(s)",
            spec.seed,
            outcome.violations.len()
        ))
    }
}

fn cmd_bound(flags: &Flags) -> Result<(), String> {
    let inst = load_instance(flags)?;
    let plan_path = flags.get("plan");
    apply_threads_flag(flags)?;
    flags.reject_unknown()?;
    let cap = bounds::capacity_relaxed_bound(&inst);
    let bud = bounds::budget_relaxed_bound(&inst);
    println!("upper bounds on Ω(A*):");
    println!("  capacity-relaxed = {cap:.4}");
    println!("  budget-relaxed   = {bud:.4}");
    println!("  best             = {:.4}", cap.min(bud));
    if let Some(p) = plan_path {
        let plan = load_plan(&p)?;
        let omega = plan.omega(&inst);
        println!(
            "plan Ω = {omega:.4} → at least {:.1}% of optimal",
            100.0 * omega / cap.min(bud).max(f64::MIN_POSITIVE)
        );
    }
    Ok(())
}

fn cmd_plan_user(flags: &Flags) -> Result<(), String> {
    use usep_algos::optimal_user_schedule;
    use usep_core::{EventId, Schedule, UserId};
    let inst = load_instance(flags)?;
    let uid: u32 = flags.require("user")?.parse().map_err(|e| format!("bad --user: {e}"))?;
    flags.reject_unknown()?;
    if uid as usize >= inst.num_users() {
        return Err(format!("user {uid} out of range (|U| = {})", inst.num_users()));
    }
    let u = UserId(uid);
    let cands: Vec<(EventId, f64)> = inst
        .event_ids()
        .map(|v| (v, inst.mu(v, u)))
        .filter(|&(_, m)| m > 0.0)
        .collect();
    let (events, score) = optimal_user_schedule(&inst, u, &cands);
    let sched = Schedule::from_time_ordered(&inst, events);
    print!("{}", sched.describe(&inst, u));
    println!("(capacity-free optimum: Ω = {score:.3} over {} candidate events)", cands.len());
    Ok(())
}

/// `usep serve`: runs the batch solve service until killed, or until
/// `--max-requests N` completions drain (then exits 0 — the shape the
/// crash-recovery scripts use to finish a dead server's journal).
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let algo_name = flags.get("algorithm").unwrap_or_else(|| "dedpo".into());
    let default_algorithm = Algorithm::parse(&algo_name)
        .ok_or_else(|| format!("unknown --algorithm '{algo_name}'"))?;
    let max_requests = flags.get("max-requests").map(|s| s.parse::<u64>()).transpose()
        .map_err(|e| format!("bad --max-requests: {e}"))?;
    let max_mem_budget_bytes = flags.get("max-mem-budget-mb").map(|s| s.parse::<usize>())
        .transpose()
        .map_err(|e| format!("bad --max-mem-budget-mb: {e}"))?
        .map(|mb| mb.saturating_mul(1024 * 1024));
    let chaos_trip = flags.get("chaos-trip").map(|s| s.parse::<u64>()).transpose()
        .map_err(|e| format!("bad --chaos-trip: {e}"))?;
    let chaos_panic_every = flags.get("chaos-panic-every").map(|s| s.parse::<u64>()).transpose()
        .map_err(|e| format!("bad --chaos-panic-every: {e}"))?;
    let cfg = usep_serve::ServeConfig {
        addr: flags.get("addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
        workers: flags.get_or("workers", 2usize)?,
        queue_capacity: flags.get_or("queue", 64usize)?,
        max_reserved_bytes: flags.get_or("max-bytes", 256usize * 1024 * 1024)?,
        max_timeout_ms: flags.get_or("max-timeout-ms", 30_000u64)?,
        max_mem_budget_bytes,
        default_algorithm,
        journal: flags.get("journal").map(std::path::PathBuf::from),
        resume: flags.get_or("resume", false)?,
        max_requests,
        chaos_trip,
        chaos_panic_every,
        chaos_delay_ms: flags.get_or("chaos-delay-ms", 0u64)?,
        metrics_addr: flags.get("metrics-addr"),
        flight_recorder_capacity: flags.get_or("flightrec", 256usize)?,
        shard_id: flags.get("shard-id"),
        ..usep_serve::ServeConfig::default()
    };
    flags.reject_unknown()?;
    let server = usep_serve::Server::start(cfg).map_err(|e| format!("start server: {e}"))?;
    // the bound address on stdout, so scripts using port 0 can find it
    println!("listening {}", server.addr());
    if let Some(maddr) = server.metrics_addr() {
        println!("metrics {maddr}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if server.resumed() > 0 {
        eprintln!("resumed {} journaled request(s)", server.resumed());
    }
    server.wait();
    eprintln!("server drained; exiting");
    Ok(())
}

/// `usep serve fleet`: runs the geo-sharded fleet — router front-end,
/// N supervised `usep serve` shard children with per-shard journals,
/// health probes and a fleet `/metrics` listener — until killed.
fn cmd_serve_fleet(flags: &Flags) -> Result<(), String> {
    let shard_count = flags.get_or("shards", 3usize)?;
    let cities = match flags.get("cities") {
        None => Vec::new(),
        Some(spec) => parse_city_map(&spec)?,
    };
    // knobs forwarded verbatim to every shard's own `serve` invocation
    let mut shard_args = Vec::new();
    for passthrough in [
        "workers",
        "queue",
        "max-bytes",
        "max-timeout-ms",
        "max-mem-budget-mb",
        "algorithm",
        "chaos-trip",
        "chaos-panic-every",
        "chaos-delay-ms",
    ] {
        if let Some(v) = flags.get(passthrough) {
            shard_args.extend([format!("--{passthrough}"), v]);
        }
    }
    let program = std::env::current_exe()
        .map_err(|e| format!("cannot locate the usep binary for shard spawns: {e}"))?
        .to_string_lossy()
        .into_owned();
    let cfg = usep_fleet::FleetConfig {
        addr: flags.get("addr").unwrap_or_else(|| "127.0.0.1:7979".into()),
        metrics_addr: flags.get("metrics-addr"),
        program,
        shard_count,
        journal_dir: std::path::PathBuf::from(
            flags.get("journal-dir").unwrap_or_else(|| "fleet-journals".into()),
        ),
        cities,
        shard_args,
        shard_metrics: flags.get_or("shard-metrics", true)?,
        resume: flags.get_or("resume", false)?,
        probe_interval: Duration::from_millis(flags.get_or("probe-interval-ms", 500u64)?),
        probe_timeout: Duration::from_millis(flags.get_or("probe-timeout-ms", 500u64)?),
        forward_timeout: Duration::from_millis(flags.get_or("forward-timeout-ms", 120_000u64)?),
        sweeps: flags.get_or("sweeps", 2u32)?,
        ..usep_fleet::FleetConfig::default()
    };
    flags.reject_unknown()?;
    let fleet = usep_fleet::Fleet::start(cfg).map_err(|e| format!("start fleet: {e}"))?;
    // same banner contract as `serve`, so scripts using port 0 work
    println!("listening {}", fleet.addr());
    if let Some(maddr) = fleet.metrics_addr() {
        println!("metrics {maddr}");
    }
    for shard in fleet.shards() {
        println!("shard {} {}", shard.name, shard.addr());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // the fleet runs until the process is killed; the supervisor keeps
    // shards alive, the router keeps routing
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Parses `--cities "vancouver=shard-0,auckland=shard-1"`.
fn parse_city_map(spec: &str) -> Result<Vec<(String, String)>, String> {
    spec.split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|pair| {
            pair.split_once('=')
                .map(|(c, s)| (c.trim().to_string(), s.trim().to_string()))
                .ok_or_else(|| format!("bad --cities entry '{pair}' (want city=shard-name)"))
        })
        .collect()
}

/// `usep request`: one solve against a running server. Exit code
/// mirrors `solve`: 0 complete, [`EXIT_TRUNCATED`] truncated, error
/// (1) for failed / overloaded / rejected outcomes.
fn cmd_request(flags: &Flags) -> Result<u8, String> {
    // --fleet retargets the default address at the fleet router's
    // default port; an explicit --addr always wins
    let fleet = flags.get_or("fleet", false)?;
    let default_addr = if fleet { "127.0.0.1:7979" } else { "127.0.0.1:7878" };
    let addr = flags.get("addr").unwrap_or_else(|| default_addr.into());
    let id = flags.require("id")?;
    let instance = load_instance(flags)?;
    let request = usep_serve::SolveRequest {
        id,
        instance: std::sync::Arc::new(instance),
        algorithm: flags.get("algorithm"),
        timeout_ms: flags.get("timeout-ms").map(|s| s.parse()).transpose()
            .map_err(|e| format!("bad --timeout-ms: {e}"))?,
        mem_budget_mb: flags.get("mem-budget-mb").map(|s| s.parse()).transpose()
            .map_err(|e| format!("bad --mem-budget-mb: {e}"))?,
        city: flags.get("city"),
    };
    let client_timeout = Duration::from_millis(flags.get_or("client-timeout-ms", 120_000u64)?);
    flags.reject_unknown()?;
    let response = usep_serve::send_request(&addr, &request, client_timeout)
        .map_err(|e| format!("request to {addr}: {e}"))?;
    println!("{}", serde_json::to_string(&response).map_err(|e| e.to_string())?);
    eprintln!(
        "{}: {} (Ω = {:.4}, {} assignments, {} retries)",
        response.id,
        response.status.describe(),
        response.omega,
        response.assignments,
        response.retries
    );
    match response.status {
        usep_serve::Status::Complete => Ok(0),
        usep_serve::Status::Truncated { .. } => Ok(EXIT_TRUNCATED),
        other => Err(format!("server answered: {}", other.describe())),
    }
}

/// `usep top`: polls a server's `/metrics` endpoint and renders a
/// one-screen service summary (qps, latency quantiles, shed rate,
/// degradation mix) per poll.
fn cmd_top(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").unwrap_or_else(|| "127.0.0.1:9187".into());
    let interval = Duration::from_millis(flags.get_or("interval-ms", 1000u64)?);
    let iterations = flags.get_or("iterations", 0u64)?;
    let clear = flags.get_or("clear", false)?;
    flags.reject_unknown()?;
    let mut stdout = std::io::stdout();
    usep_obs::top::run(&addr, interval, iterations, clear, &mut stdout)
        .map_err(|e| format!("top {addr}: {e}"))
}

/// `usep dump`: asks a running server (on its *solve* port) for its
/// flight-recorder contents and prints the JSON line.
fn cmd_dump(flags: &Flags) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write as _};
    let addr = flags.get("addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let timeout = Duration::from_millis(flags.get_or("client-timeout-ms", 10_000u64)?);
    flags.reject_unknown()?;
    let mut stream =
        std::net::TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    writeln!(stream, "{{\"verb\":\"dump\"}}").map_err(|e| format!("send to {addr}: {e}"))?;
    stream.flush().map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|e| format!("read from {addr}: {e}"))?;
    print!("{line}");
    Ok(())
}

fn cmd_convert(flags: &Flags) -> Result<(), String> {
    let inst = load_instance(flags)?;
    let out = flags.require("out")?;
    flags.reject_unknown()?;
    let before = std::fs::metadata(flags.require("instance").expect("checked")).map(|m| m.len());
    if out.ends_with(".json") {
        write_json(&inst, &out)?;
    } else {
        std::fs::write(&out, usep_core::codec::encode(&inst))
            .map_err(|e| format!("write {out}: {e}"))?;
    }
    let after = std::fs::metadata(&out).map(|m| m.len());
    if let (Ok(b), Ok(a)) = (before, after) {
        eprintln!("wrote {out} ({b} → {a} bytes)");
    } else {
        eprintln!("wrote {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&argv(&["help"])).is_ok());
        assert!(dispatch(&argv(&[])).is_ok());
    }

    #[test]
    fn gen_solve_validate_bound_pipeline() {
        let dir = std::env::temp_dir().join(format!("usep_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let plan = dir.join("plan.json");
        let inst_s = inst.to_str().unwrap();
        let plan_s = plan.to_str().unwrap();

        dispatch(&argv(&[
            "gen", "--events", "10", "--users", "20", "--capacity-mean", "3", "--seed", "1",
            "--out", inst_s,
        ]))
        .unwrap();
        dispatch(&argv(&[
            "solve", "--instance", inst_s, "--algorithm", "dedpo+rg", "--local-search", "2",
            "--out", plan_s,
        ]))
        .unwrap();
        dispatch(&argv(&["validate", "--instance", inst_s, "--plan", plan_s])).unwrap();
        dispatch(&argv(&["stats", "--instance", inst_s, "--plan", plan_s])).unwrap();
        dispatch(&argv(&["bound", "--instance", inst_s, "--plan", plan_s])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn convert_roundtrip_binary_and_back() {
        let dir = std::env::temp_dir().join(format!("usep_cli_conv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json1 = dir.join("a.json");
        let bin = dir.join("a.usep");
        let json2 = dir.join("b.json");
        dispatch(&argv(&[
            "gen", "--events", "8", "--users", "12", "--seed", "2", "--out",
            json1.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "convert", "--instance", json1.to_str().unwrap(), "--out", bin.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "convert", "--instance", bin.to_str().unwrap(), "--out", json2.to_str().unwrap(),
        ]))
        .unwrap();
        let a: usep_core::Instance =
            serde_json::from_str(&std::fs::read_to_string(&json1).unwrap()).unwrap();
        let b: usep_core::Instance =
            serde_json::from_str(&std::fs::read_to_string(&json2).unwrap()).unwrap();
        assert_eq!(a, b);
        // binary is denser than JSON
        assert!(std::fs::metadata(&bin).unwrap().len() < std::fs::metadata(&json1).unwrap().len());
        // binary instances are directly solvable
        dispatch(&argv(&["solve", "--instance", bin.to_str().unwrap(), "--algorithm", "degreedy"]))
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_user_prints_itinerary() {
        let dir = std::env::temp_dir().join(format!("usep_cli_pu_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        dispatch(&argv(&[
            "gen", "--events", "6", "--users", "4", "--seed", "9", "--out",
            inst.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&["plan-user", "--instance", inst.to_str().unwrap(), "--user", "2"]))
            .unwrap();
        let e = dispatch(&argv(&["plan-user", "--instance", inst.to_str().unwrap(), "--user", "9"]))
            .unwrap_err();
        assert!(e.contains("out of range"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn city_generation() {
        let dir = std::env::temp_dir().join(format!("usep_cli_city_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("city.json");
        dispatch(&argv(&[
            "city", "--name", "auckland", "--seed", "3", "--out", inst.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(inst.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn solve_trace_out_emits_valid_jsonl_with_summary() {
        let dir = std::env::temp_dir().join(format!("usep_cli_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let trace = dir.join("run.jsonl");
        let inst_s = inst.to_str().unwrap();
        let trace_s = trace.to_str().unwrap();
        dispatch(&argv(&[
            "gen", "--events", "10", "--users", "15", "--capacity-mean", "3", "--seed", "4",
            "--out", inst_s,
        ]))
        .unwrap();
        dispatch(&argv(&[
            "solve", "--instance", inst_s, "--algorithm", "ratiogreedy", "--trace-out", trace_s,
            "--trace-summary", "true",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "spans + summary expected, got {} lines", lines.len());
        for line in &lines {
            let _: serde::Content =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e}"));
        }
        let last = lines.last().unwrap();
        assert!(last.contains("\"type\":\"summary\""), "last line must be the summary: {last}");
        assert!(last.contains("\"heap_push\""), "summary lists the counter registry");
        // every non-summary record is a span event for this solver
        for line in &lines[..lines.len() - 1] {
            assert!(
                line.contains("\"span_enter\"") || line.contains("\"span_exit\""),
                "unexpected record {line}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expired_timeout_exits_truncated() {
        let dir = std::env::temp_dir().join(format!("usep_cli_to_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let inst_s = inst.to_str().unwrap();
        dispatch(&argv(&[
            "gen", "--events", "8", "--users", "30", "--seed", "7", "--out", inst_s,
        ]))
        .unwrap();
        // a zero deadline expires before the first attempt starts: the
        // planning is empty-but-valid and the exit code flags truncation
        let code = dispatch(&argv(&[
            "solve", "--instance", inst_s, "--algorithm", "dedpo", "--timeout-ms", "0",
        ]))
        .unwrap();
        assert_eq!(code, EXIT_TRUNCATED);
        // an unbudgeted solve of the same instance exits 0
        let code =
            dispatch(&argv(&["solve", "--instance", inst_s, "--algorithm", "dedpo"])).unwrap();
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_mem_budget_degrades_but_completes() {
        let dir = std::env::temp_dir().join(format!("usep_cli_mb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let inst_s = inst.to_str().unwrap();
        dispatch(&argv(&[
            "gen", "--events", "6", "--users", "10", "--seed", "5", "--out", inst_s,
        ]))
        .unwrap();
        // a 0 MB ceiling forces the chain down to DeGreedy+RG, which
        // charges no allocations and completes — exit code stays 0
        let code = dispatch(&argv(&[
            "solve", "--instance", inst_s, "--algorithm", "dedp", "--mem-budget-mb", "0",
        ]))
        .unwrap();
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_instance_rejected_on_load() {
        let dir = std::env::temp_dir().join(format!("usep_cli_val_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        dispatch(&argv(&[
            "gen", "--events", "4", "--users", "6", "--seed", "11", "--out",
            good.to_str().unwrap(),
        ]))
        .unwrap();
        // graft an extra utility entry: |mu| no longer equals |V|·|U|
        let text = std::fs::read_to_string(&good).unwrap();
        assert!(text.contains("\"mu\": ["), "serialized shape changed: {text}");
        std::fs::write(&bad, text.replacen("\"mu\": [", "\"mu\": [9.0,", 1)).unwrap();
        let e = dispatch(&argv(&["solve", "--instance", bad.to_str().unwrap()])).unwrap_err();
        assert!(e.contains("invalid instance"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_single_instance_reports_clean() {
        let dir = std::env::temp_dir().join(format!("usep_cli_ver_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let inst_s = inst.to_str().unwrap();
        dispatch(&argv(&[
            "gen", "--events", "5", "--users", "4", "--capacity-mean", "2", "--seed", "3",
            "--out", inst_s,
        ]))
        .unwrap();
        assert_eq!(dispatch(&argv(&["verify", "--instance", inst_s])).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_fuzz_campaign_reports_clean() {
        assert_eq!(dispatch(&argv(&["verify", "--fuzz", "8", "--seed", "42"])).unwrap(), 0);
    }

    #[test]
    fn verify_requires_exactly_one_mode() {
        let e = dispatch(&argv(&["verify"])).unwrap_err();
        assert!(e.contains("exactly one"), "{e}");
        let e = dispatch(&argv(&["verify", "--fuzz", "2", "--instance", "x.json"])).unwrap_err();
        assert!(e.contains("exactly one"), "{e}");
    }

    #[test]
    fn top_and_dump_run_against_a_live_server() {
        let cfg = usep_serve::ServeConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..usep_serve::ServeConfig::default()
        };
        let server = usep_serve::Server::start(cfg).unwrap();
        let addr = server.addr().to_string();
        let maddr = server.metrics_addr().unwrap().to_string();

        dispatch(&argv(&["top", "--addr", &maddr, "--iterations", "1"])).unwrap();
        dispatch(&argv(&["dump", "--addr", &addr])).unwrap();

        // unreachable endpoints fail with a readable error, not a hang
        let e = dispatch(&argv(&["dump", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(e.contains("connect"), "{e}");

        server.shutdown();
        server.wait();
    }

    #[test]
    fn typo_flags_are_rejected() {
        let e = dispatch(&argv(&["gen", "--evnts", "10", "--out", "/tmp/x.json"])).unwrap_err();
        assert!(e.contains("unknown flag"), "{e}");
    }

    #[test]
    fn bad_algorithm_rejected() {
        let dir = std::env::temp_dir().join(format!("usep_cli_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        dispatch(&argv(&[
            "gen", "--events", "3", "--users", "3", "--seed", "1", "--out",
            inst.to_str().unwrap(),
        ]))
        .unwrap();
        let e = dispatch(&argv(&[
            "solve", "--instance", inst.to_str().unwrap(), "--algorithm", "quantum",
        ]))
        .unwrap_err();
        assert!(e.contains("unknown --algorithm"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
