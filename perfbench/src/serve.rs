//! `serve_cities`: the in-process server (2 workers, fsynced file
//! journal, `/metrics` on) under seeded open-loop jittered-grid arrivals
//! of pre-encoded Table-6 Auckland and Singapore requests (80/20), one
//! fresh connection per request, default DeDPO solver. MB-sized
//! payloads make decode, journal append + fsync and response encode as
//! costly as the solve, so the `serve` layers do most of the work here.

use crate::common::{
    calibration_slot, load_secs, median, ms, nproc, quantile, reconcile, scrape, start_server,
    stop_server, Metrics, Rng, RunCfg, Scale, Tally, MB,
};
use crate::host::{self, Activity, Reference, Sampler};
use crate::solvers::{check_planning, core_layer_ms, set_solve_metrics, solve_rounds_for, trace_round};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use usep_core::Instance;
use usep_gen::{generate_city, CityConfig};
use usep_serve::{Journal, JournalRecord, PhaseTimings, SolveRequest, SolveResponse, Status};
use usep_trace::json::Value;

/// A response counts toward goodput when its line arrives within this
/// of the request's due time.
const LIMIT_MS: f64 = 1000.0;

/// Every encoded request starts with its id; the rest of the line is
/// encoded once per instance during set-up.
const ID_PREFIX: &str = "{\"id\":\"\",";

struct Params {
    /// Offered load, requests per second: about a third of the capacity
    /// a 2-client closed loop measures on this mix (19.5 req/s).
    rate: f64,
    auckland: usize,
    singapore: usize,
    singapore_share: f64,
    setups: usize,
    /// Auckland instances the `solve_s.*` figures average over.
    calibration: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            rate: 6.5,
            auckland: 40,
            singapore: 20,
            singapore_share: 0.2,
            setups: 5,
            calibration: 16,
        },
        Scale::Smoke => Params {
            rate: 4.0,
            auckland: 2,
            singapore: 1,
            singapore_share: 0.3,
            setups: 1,
            calibration: 2,
        },
    }
}

struct Inputs {
    /// Auckland instances first, then Singapore.
    instances: Vec<Arc<Instance>>,
    /// Per instance: the request line after the id field, newline included.
    tails: Vec<Vec<u8>>,
    /// Per request: due time in seconds from the start, instance index.
    schedule: Vec<(f64, usize)>,
}

fn encode_tail(inst: &Arc<Instance>) -> Result<Vec<u8>, String> {
    let request = SolveRequest {
        id: String::new(),
        instance: Arc::clone(inst),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    };
    let line = serde_json::to_string(&request).map_err(|e| format!("encode request: {e}"))?;
    let tail = line.strip_prefix(ID_PREFIX).ok_or("request encoding does not lead with its id")?;
    Ok(format!("{tail}\n").into_bytes())
}

fn request_id(i: usize) -> String {
    format!("sc-{i}")
}

/// The request pool is the same on every run, Table-6 instances from
/// generator seeds `1..=count` per city (the first Auckland ones are the
/// solver suite of `solvers::auckland_suite`), so that runs on different
/// seeds compare like with like: one Singapore instance can take twice
/// as long to solve as another. `--seed` draws the arrival times, the
/// order of the mix and where in each city's pool the requests start.
fn build_inputs(cfg: &RunCfg, p: &Params) -> Result<Inputs, String> {
    let mut rng = Rng::new(cfg.seed);
    let mut instances = Vec::new();
    for (city, count) in [(CityConfig::auckland(), p.auckland), (CityConfig::singapore(), p.singapore)]
    {
        for s in 1..=count as u64 {
            instances.push(Arc::new(generate_city(&city, s)));
        }
    }
    let tails = instances.iter().map(encode_tail).collect::<Result<Vec<_>, _>>()?;

    // jittered grid: one due time drawn uniformly in each 1/rate slot of
    // [0, load). Poisson arrivals clump at random, and the share of
    // Auckland requests slowed by a Singapore one beside them moved with
    // the clumps: the median sat on the knee between the two and spread
    // 26% (IQR over median) across five seeds on a 2-vCPU Xeon, against
    // 4% here.
    let load = load_secs(cfg);
    let n = ((p.rate * load).round() as usize).max(1);
    let due: Vec<f64> = (0..n).map(|i| (i as f64 + rng.unit()) * load / n as f64).collect();
    // an exact mix, the Singapore requests likewise one to a stretch of
    // n / n_singapore requests, at a uniform place in it
    let n_singapore = (n as f64 * p.singapore_share).round() as usize;
    let mut is_singapore = vec![false; n];
    for k in 0..n_singapore {
        let at = ((k as f64 + rng.unit()) * n as f64 / n_singapore as f64) as usize;
        is_singapore[at.min(n - 1)] = true;
    }
    let (mut a, mut s) = (rng.below(p.auckland), rng.below(p.singapore));
    let schedule = due
        .into_iter()
        .zip(is_singapore)
        .map(|(d, sing)| {
            let idx = if sing {
                s += 1;
                p.auckland + s % p.singapore
            } else {
                a += 1;
                a % p.auckland
            };
            (d, idx)
        })
        .collect();
    Ok(Inputs { instances, tails, schedule })
}

/// One request as the client saw it.
struct Reply {
    due: Instant,
    done: Instant,
    /// Send start minus due time: how late the generator ran.
    late_ms: f64,
    /// Full response line received, counted from the due time.
    latency_ms: f64,
    /// Full response line received, counted from the send.
    service_ms: f64,
    line: Result<String, String>,
}

/// Sends one request over a fresh connection and reads the response line.
fn send_one(addr: SocketAddr, id: &str, tail: &[u8]) -> Result<String, String> {
    let io = |e: std::io::Error| format!("transport: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(io)?;
    stream.write_all(format!("{{\"id\":\"{id}\",").as_bytes()).map_err(io)?;
    stream.write_all(tail).map_err(io)?;
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line).map_err(io)? {
        0 => Err("transport: server closed the connection before responding".to_string()),
        _ => Ok(line),
    }
}

/// Open loop over the scheduled requests in `range`, their due times
/// counted from `t0`: each request is sent at its due time on a fresh
/// connection, by whichever of `conns` sender threads is free; a request
/// no sender could take on time is timed from its due time all the same.
fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    range: Range<usize>,
    t0: f64,
    conns: usize,
    activity: &Activity,
) -> (Vec<Reply>, f64) {
    let n = range.len();
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let replies: Mutex<Vec<Option<Reply>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                if k >= n {
                    break;
                }
                let i = range.start + k;
                let (due_s, inst) = inputs.schedule[i];
                let due = start + Duration::from_secs_f64(due_s - t0);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                activity.begin();
                let sent = Instant::now();
                let line = send_one(addr, &request_id(i), &inputs.tails[inst]);
                let done = Instant::now();
                activity.end();
                let reply = Reply {
                    due,
                    done,
                    late_ms: ms(sent.saturating_duration_since(due)),
                    latency_ms: ms(done.saturating_duration_since(due)),
                    service_ms: ms(done - sent),
                    line,
                };
                replies.lock().expect("a sender panicked")[k] = Some(reply);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let replies = replies.into_inner().expect("a sender panicked");
    (replies.into_iter().map(|r| r.expect("every request was sent")).collect(), wall)
}

/// Checks one response line: Complete, the right id, and a planning the
/// oracle accepts with the Ω the server reported.
fn check_reply(line: &str, id: &str, inst: &Instance) -> Result<SolveResponse, String> {
    let resp: SolveResponse =
        serde_json::from_str(line.trim_end()).map_err(|e| format!("{id}: malformed response: {e}"))?;
    if resp.status != Status::Complete {
        return Err(format!("{id}: status {}", resp.status.describe()));
    }
    if resp.id != id {
        return Err(format!("{id}: response carries id '{}'", resp.id));
    }
    let planning = resp.planning.as_ref().ok_or(format!("{id}: no planning"))?;
    let omega = check_planning(inst, planning).map_err(|e| format!("{id}: {e}"))?;
    if (omega - resp.omega).abs() > 1e-6 * omega.abs().max(1.0) {
        return Err(format!("{id}: reported Ω {} but the planning is worth {omega}", resp.omega));
    }
    Ok(resp)
}

pub fn run(
    cfg: &RunCfg,
    e2e: &mut Metrics,
    layers: &mut Metrics,
    tally: &mut Tally,
    detail: &mut Vec<(String, Value)>,
) -> Result<(), String> {
    let p = params(cfg.scale);

    // set-up: generate, pre-encode and schedule; start the server
    let mut reference = Reference::new();
    let (mut setups, mut setup_walls) = (Vec::new(), Vec::new());
    let mut ready = None;
    for k in 0..p.setups {
        let (made, wall, scaled) = reference.timed(|| -> Result<_, String> {
            let inputs = build_inputs(cfg, &p)?;
            let server = start_server(&cfg.tmp, &format!("serve{k}"))
                .map_err(|e| format!("start server: {e}"))?;
            Ok((inputs, server))
        });
        setups.push(scaled);
        setup_walls.push(wall);
        if let Some((_, old)) = ready.replace(made?) {
            stop_server(old);
        }
    }
    let (inputs, server) = ready.ok_or("no set-up ran")?;
    e2e.set("setup_s", median(&setups));
    layers.set("wall.setup_s", median(&setup_walls));

    // the load in two halves, and around them the solvers alone,
    // in-process, on Auckland request instances while the server idles
    let auckland: Vec<&Instance> =
        inputs.instances[..p.calibration].iter().map(|a| a.as_ref()).collect();
    let half = load_secs(cfg) / 2.0;
    let split = inputs.schedule.partition_point(|&(due, _)| due < half);
    // heap: the high-water mark of each second of load above the
    // post-setup baseline, and their median; one second holding two
    // Singapore payloads instead of one moves the run's maximum by half
    let (mut rounds, mut replies, mut kernels, mut heap_peaks, mut wall) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0.0);
    for (range, t0) in [(0..split, 0.0), (split..inputs.schedule.len(), half)] {
        solve_rounds_for(&auckland, calibration_slot(cfg), &mut rounds, &mut reference, tally);
        let baseline = usep_metrics::alloc::current_bytes();
        let activity = Arc::new(Activity::default());
        let sampler = Sampler::start(Some(Arc::clone(&activity)));
        let (part, secs) = open_loop(server.addr(), &inputs, range, t0, nproc(), &activity);
        let seen = sampler.finish();
        kernels.extend(part.iter().map(|r| seen.kernel_ms(r.due, r.done)));
        heap_peaks.extend(seen.heap_peaks.iter().map(|&b| b.saturating_sub(baseline) as f64 / MB));
        replies.extend(part);
        wall += secs;
    }
    solve_rounds_for(&auckland, calibration_slot(cfg), &mut rounds, &mut reference, tally);
    set_solve_metrics(&rounds, e2e, layers);
    // each request at the host's speed around it: the kernel samples
    // nearest to it in time among those taken while no request was in
    // flight (the set-up and solver rounds' samples if there were none)
    let fallback = reference.median_ms();
    let kernels: Vec<f64> = kernels.into_iter().map(|k| k.unwrap_or(fallback)).collect();

    let scraped = scrape(&server);
    stop_server(server);
    let scraped = match scraped {
        Ok(s) => {
            tally.check(reconcile(&s));
            let accepted = s.value("usep_serve_accepted_total").unwrap_or(0.0);
            let n = inputs.schedule.len() as f64;
            tally.check(if accepted == n {
                Ok(())
            } else {
                Err(format!("/metrics: {accepted} accepted of {n} sent"))
            });
            Some(s)
        }
        Err(e) => {
            tally.fail(e);
            None
        }
    };

    let mut responses: Vec<Option<SolveResponse>> = Vec::with_capacity(replies.len());
    let mut good = 0;
    let mut omega_sum = 0.0;
    for (i, reply) in replies.iter().enumerate() {
        let inst = &inputs.instances[inputs.schedule[i].1];
        let checked = reply
            .line
            .clone()
            .and_then(|line| check_reply(&line, &request_id(i), inst));
        let resp = tally.op(checked);
        if let Some(r) = &resp {
            omega_sum += r.omega;
            if host::scale(reply.latency_ms, kernels[i]) <= LIMIT_MS {
                good += 1;
            }
        }
        responses.push(resp);
    }
    let latencies: Vec<f64> = replies.iter().zip(&kernels).map(|(r, &k)| host::scale(r.latency_ms, k)).collect();
    let walls: Vec<f64> = replies.iter().map(|r| r.latency_ms).collect();
    e2e.set("req_p50_ms", quantile(&latencies, 0.5));
    e2e.set("req_p90_ms", quantile(&latencies, 0.9));
    layers.set("wall.req_p50_ms", quantile(&walls, 0.5));
    layers.set("wall.req_p90_ms", quantile(&walls, 0.9));
    layers.set("host.kernel_ms", median(&kernels));
    e2e.set("goodput_rps", good as f64 / wall);
    e2e.set("omega_sum", omega_sum);
    e2e.set("peak_heap_mb", median(&heap_peaks));
    e2e.set("repair_frac", 1.0);
    let ok = responses.iter().flatten().count();
    layers.set("loadgen.sent", replies.len() as f64);
    layers.set("loadgen.ok", ok as f64);
    layers.set("loadgen.failed", (replies.len() - ok) as f64);

    if !cfg.trace {
        return Ok(());
    }
    // the solver layers on the heaviest request type
    trace_round(&inputs.instances[p.auckland], 5, tally, layers);

    // phases from each response's timing block; transport is the rest of
    // the client's send-to-response time
    let mut rows = Vec::new();
    let mut phase: [Vec<f64>; 4] = Default::default();
    for (reply, resp) in replies.iter().zip(&responses) {
        let Some(t) = resp.as_ref().and_then(|r| r.timings) else { continue };
        let PhaseTimings { admission_ms, queue_wait_ms, solve_ms, backoff_ms } = t;
        let transport = reply.service_ms - admission_ms - queue_wait_ms - solve_ms - backoff_ms;
        for (k, v) in [admission_ms, queue_wait_ms, solve_ms, transport].into_iter().enumerate() {
            phase[k].push(v);
        }
        rows.push(Value::Seq(
            [reply.latency_ms, reply.late_ms, admission_ms, queue_wait_ms, solve_ms, backoff_ms, transport]
                .into_iter()
                .map(Value::F64)
                .collect(),
        ));
    }
    for (k, name) in ["admission", "queue_wait", "solve", "transport"].iter().enumerate() {
        layers.set(&format!("serve.{name}_ms.p50"), quantile(&phase[k], 0.5));
        layers.set(&format!("serve.{name}_ms.p90"), quantile(&phase[k], 0.9));
    }
    detail.push((
        "requests".to_string(),
        Value::Map(vec![
            (
                "columns".to_string(),
                Value::Seq(
                    ["latency_ms", "late_ms", "admission_ms", "queue_wait_ms", "solve_ms", "backoff_ms", "transport_ms"]
                        .into_iter()
                        .map(|c| Value::Str(c.to_string()))
                        .collect(),
                ),
            ),
            ("rows".to_string(), Value::Seq(rows)),
        ]),
    ));
    layers.set(
        "loadgen.late_ms.max",
        replies.iter().map(|r| r.late_ms).fold(0.0, f64::max),
    );

    // admission split, timed on the same request lines: decode, then the
    // core steps on the freshly decoded instance
    let mut per_instance = Vec::new();
    for (k, tail) in inputs.tails.iter().enumerate() {
        let mut line = format!("{{\"id\":\"{}\",", request_id(k)).into_bytes();
        line.extend_from_slice(tail);
        let text = String::from_utf8(line).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let decoded: SolveRequest =
            serde_json::from_str(text.trim_end()).map_err(|e| format!("decode request: {e}"))?;
        let decode = ms(started.elapsed());
        let (freeze, validate) = tally.op(core_layer_ms(&decoded.instance)).unwrap_or_default();
        per_instance.push([decode, freeze, validate]);
    }
    let by_request = |col: usize| -> Vec<f64> {
        inputs.schedule.iter().map(|&(_, idx)| per_instance[idx][col]).collect()
    };
    layers.set("serve.decode_ms.p50", median(&by_request(0)));
    layers.set("core.freeze_ms", median(&by_request(1)));
    layers.set("core.validate_ms", median(&by_request(2)));

    let encode: Vec<f64> = responses
        .iter()
        .flatten()
        .map(|r| {
            let started = Instant::now();
            let _ = serde_json::to_string(r);
            ms(started.elapsed())
        })
        .collect();
    layers.set("serve.encode_ms.p50", median(&encode));

    // journal: the accept and completion records of the first requests,
    // appended (with fsync) to a journal of our own
    let samples = match cfg.scale {
        Scale::Full => 30,
        Scale::Smoke => 5,
    };
    let path = cfg.tmp.join("journal-serve-probe.jsonl");
    let journal = Journal::open(&path).map_err(|e| format!("open probe journal: {e}"))?;
    let before = journal.len().map_err(|e| e.to_string())?;
    let mut appends = Vec::new();
    for (i, resp) in responses.iter().enumerate().take(samples) {
        let Some(resp) = resp else { continue };
        let request = SolveRequest {
            id: request_id(i),
            instance: Arc::clone(&inputs.instances[inputs.schedule[i].1]),
            algorithm: None,
            timeout_ms: None,
            mem_budget_mb: None,
            city: None,
        };
        let started = Instant::now();
        let appended = journal
            .append(&JournalRecord::Accepted { request })
            .and_then(|()| journal.append(&JournalRecord::Completed { response: resp.clone() }));
        if tally.op(appended.map_err(|e| format!("probe journal append: {e}"))).is_some() {
            appends.push(ms(started.elapsed()));
        }
    }
    let bytes = journal.len().map_err(|e| e.to_string())?.saturating_sub(before);
    drop(journal);
    let _ = std::fs::remove_file(&path);
    layers.set("serve.journal_append_ms.p50", quantile(&appends, 0.5));
    layers.set("serve.journal_append_ms.p90", quantile(&appends, 0.9));
    layers.set("serve.journal_bytes_per_req", bytes as f64 / appends.len().max(1) as f64);
    layers.set("serve.journal_append_samples", appends.len() as f64);

    if let Some(s) = scraped {
        layers.set("serve.shed", s.family_sum("usep_serve_shed_total"));
        layers.set("serve.retries", s.value("usep_serve_retried_total").unwrap_or(0.0));
        layers.set("serve.degraded", s.family_sum("usep_serve_degraded_total"));
    }
    Ok(())
}
