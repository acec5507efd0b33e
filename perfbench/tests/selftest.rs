//! Benchmark self-test at reduced scale (`--scale smoke`): every
//! workload runs once untraced and once traced, and the output contract
//! is checked against `BENCHMARK.json`.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use serde::Content;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const WORKLOADS: [&str; 3] = ["fig4_batch", "serve_cities", "delta_session"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn field<'a>(c: &'a Content, key: &str) -> &'a Content {
    match c {
        Content::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object looking up {key}"),
    }
}

fn num(c: &Content) -> f64 {
    match c {
        Content::F64(x) => *x,
        Content::I64(n) => *n as f64,
        Content::U64(n) => *n as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn text(c: &Content) -> &str {
    match c {
        Content::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn entries(c: &Content) -> &[(String, Content)] {
    match c {
        Content::Map(e) => e,
        other => panic!("not an object: {other:?}"),
    }
}

/// One run: the detail record and the result line.
struct Run {
    detail: Content,
    result: Content,
}

impl Run {
    /// A metric the run measured (either kind), from the detail record.
    fn measured(&self, name: &str) -> f64 {
        for kind in ["e2e", "layers"] {
            if let Some((_, m)) = entries(field(&self.detail, kind)).iter().find(|(k, _)| k == name) {
                return num(field(m, "value"));
            }
        }
        panic!("{name} was not measured");
    }
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "2", "--scale", "smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace} failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: expected a detail and a result line: {stdout}");
    let parse = |l: &str| serde_json::from_str::<Content>(l).expect("a JSON line");
    let detail = field(&parse(lines[lines.len() - 2]), "perfbench").clone();
    Run { detail, result: parse(lines[lines.len() - 1]) }
}

/// Every workload untraced then traced, run once and shared by the tests.
fn runs() -> &'static BTreeMap<(&'static str, bool), Run> {
    static RUNS: OnceLock<BTreeMap<(&'static str, bool), Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .map(|(w, t)| ((w, t), run(w, t)))
            .collect()
    })
}

fn benchmark_json() -> Content {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(bench: &Content, list: &str) -> Vec<(String, String)> {
    match field(bench, list) {
        Content::Seq(items) => items
            .iter()
            .map(|m| (text(field(m, "name")).to_string(), text(field(m, "unit")).to_string()))
            .collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

#[test]
fn output_names_match_benchmark_json() {
    let bench = benchmark_json();
    let workloads: Vec<String> = match field(&bench, "workloads") {
        Content::Seq(items) => items.iter().map(|w| text(field(w, "name")).to_string()).collect(),
        other => panic!("workloads is not a list: {other:?}"),
    };
    assert_eq!(workloads, WORKLOADS);
    for ((workload, trace), r) in runs() {
        let want = declared(&bench, if *trace { "per_layer" } else { "end_to_end" });
        let got: Vec<(String, String)> = entries(field(&r.result, "metrics"))
            .iter()
            .map(|(name, m)| (name.clone(), text(field(m, "unit")).to_string()))
            .collect();
        assert_eq!(got, want, "{workload} trace={trace}");
        assert_eq!(field(&r.result, "correct"), &Content::Bool(true), "{workload} trace={trace}: {:?}", field(&r.detail, "violations"));
        assert_eq!(num(field(&r.result, "failed")), 0.0);
        assert!(num(field(&r.result, "attempted")) >= 1.0);
        if !trace {
            for (name, m) in entries(field(&r.result, "metrics")) {
                assert!(num(field(m, "value")) > 0.0, "{workload}: {name} reads 0");
            }
        }
        let prov = field(&r.detail, "provenance");
        assert_eq!(text(field(prov, "workload")), *workload);
        assert_eq!(num(field(prov, "seed")), 7.0);
        assert!(num(field(prov, "nproc")) >= 1.0);
        for key in ["commit", "source_digest", "profile", "rustc"] {
            assert!(!text(field(prov, key)).is_empty(), "provenance.{key}");
        }
    }
}

#[test]
fn serve_phases_sum_to_client_latency() {
    let r = &runs()[&("serve_cities", true)];
    let requests = field(&r.detail, "requests");
    let Content::Seq(rows) = field(requests, "rows") else { panic!("rows is not a list") };
    assert!(!rows.is_empty());
    for row in rows {
        let Content::Seq(cells) = row else { panic!("row is not a list") };
        let v: Vec<f64> = cells.iter().map(num).collect();
        // latency = late + admission + queue wait + solve + backoff + transport
        let (latency, parts) = (v[0], v[1..].iter().sum::<f64>());
        assert!((latency - parts).abs() <= 1e-6 * latency.max(1.0), "{v:?}");
        assert!(v[1..].iter().all(|&p| p >= -1e-3), "a negative phase: {v:?}");
    }
}

/// Layer times are as measured, so their parents are the unscaled
/// `wall.*` figures of the same run.
#[test]
fn traced_layer_times_within_their_parents() {
    let le = |r: &Run, part: &str, whole: &str, scale: f64| {
        let (p, w) = (r.measured(part), r.measured(whole) * scale);
        assert!(p <= w, "{part} = {p} exceeds {whole} = {w}");
    };
    for workload in WORKLOADS {
        let r = &runs()[&(workload, true)];
        le(r, "algos.augment_ms.dedpo", "wall.solve_s.dedpo_rg", 1e3);
        le(r, "algos.augment_ms.degreedy", "wall.solve_s.degreedy_rg", 1e3);
    }
    let serve = &runs()[&("serve_cities", true)];
    for phase in ["admission", "queue_wait", "solve", "transport"] {
        le(serve, &format!("serve.{phase}_ms.p50"), "wall.req_p50_ms", 1.0);
        le(serve, &format!("serve.{phase}_ms.p90"), "wall.req_p90_ms", 1.0);
    }
    let delta = &runs()[&("delta_session", true)];
    le(delta, "delta.apply_ms.p50", "wall.req_p50_ms", 1.0);
    le(delta, "serve.transport_ms.p50", "wall.req_p50_ms", 1.0);
    le(delta, "delta.open_ms", "wall.setup_s", 1e3);
}

#[test]
fn untraced_and_traced_runs_agree() {
    for workload in WORKLOADS {
        let (plain, traced) = (&runs()[&(workload, false)], &runs()[&(workload, true)]);
        assert_eq!(plain.measured("omega_sum"), traced.measured("omega_sum"), "{workload}");
    }
    let (plain, traced) = (&runs()[&("delta_session", false)], &runs()[&("delta_session", true)]);
    assert_eq!(plain.measured("delta.fallbacks"), traced.measured("delta.fallbacks"));
}
