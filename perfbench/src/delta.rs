//! `delta_session`: the serve workload's server and journal with one
//! warm delta session per hardware thread, each opened on a
//! Vancouver-size Table-6 instance and fed a seeded mutation stream in a
//! closed loop over one long-lived connection. Many tiny journal records
//! over persistent connections, and the only workload where `delta` does
//! the work (patch, release, augmentation repair, cold fallback).

use crate::common::{
    calibration_slot, load_secs, mean, median, ms, nproc, quantile, reconcile, scrape,
    start_server, stop_server, Metrics, Rng, RunCfg, Scale, Tally, MB,
};
use crate::host::{Reference, Sampler};
use crate::solvers::{auckland_suite, check_planning, core_layer_ms, set_solve_metrics, solve_rounds_for, trace_round};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use usep_core::{EventId, Instance, Point, TimeInterval, UserId};
use usep_delta::{DeltaConfig, DeltaEngine, MuEntry, Mutation, MutationOutcome, RepairKind};
use usep_gen::{generate_city, CityConfig};
use usep_serve::{Journal, JournalRecord, MutateRequest, MutateResponse};
use usep_trace::NOOP;

/// A mutation counts toward goodput when its reply arrives within this.
const LIMIT_MS: f64 = 250.0;

struct Params {
    city: CityConfig,
    /// Mutations per session per second of load: the stream is a fixed
    /// length, sized so a session at the seed commit's ≈52 ms per line
    /// takes a little less than the load's share of `--seconds`.
    per_second: f64,
    setups: usize,
    /// Auckland-size instances the `solve_s.*` figures average over.
    calibration: usize,
    /// Mutations per session appended to the probe journal (traced run).
    journal_samples: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            city: CityConfig::vancouver(),
            per_second: 16.0,
            setups: 2,
            calibration: 16,
            journal_samples: 150,
        },
        Scale::Smoke => Params {
            city: CityConfig::auckland(),
            per_second: 5.0,
            setups: 1,
            calibration: 2,
            journal_samples: 1000,
        },
    }
}

struct Session {
    name: String,
    instance: Arc<Instance>,
    open_line: Vec<u8>,
    mutations: Vec<Mutation>,
    lines: Vec<Vec<u8>>,
}

fn mutate_request(session: &str) -> MutateRequest {
    MutateRequest {
        verb: "mutate".to_string(),
        session: session.to_string(),
        open: None,
        fallback_threshold: None,
        mutation_id: None,
        mutation: None,
        query: false,
        close: false,
    }
}

fn encode_line(req: &MutateRequest) -> Result<Vec<u8>, String> {
    let line = serde_json::to_string(req).map_err(|e| format!("encode mutate line: {e}"))?;
    Ok(format!("{line}\n").into_bytes())
}

fn mutation_id(session: usize, j: usize) -> String {
    format!("m{session}-{j}")
}

/// An event as the generator tracks it: its parameters and utility
/// column, so removing it can later re-add the same event.
struct LiveEvent {
    id: u32,
    capacity: u32,
    location: Point,
    time: TimeInterval,
    fee: u32,
    mu: Vec<MuEntry>,
}

/// A seeded mutation stream over `inst` that tracks stable ids the way
/// `DeltaEngine` assigns them (initial entities `0..n`, arrivals the
/// next counter), so every mutation is valid. Mix: μ updates (30% of
/// them zeroing), capacity shrink and grow, user arrive and depart,
/// event remove and re-add.
fn mutation_stream(inst: &Instance, n: usize, seed: u64) -> Vec<Mutation> {
    let mut rng = Rng::new(seed);
    let (nv, nu) = (inst.num_events(), inst.num_users());
    let mut events: Vec<LiveEvent> = (0..nv)
        .map(|v| {
            let e = inst.event(EventId(v as u32));
            let mu = (0..nu as u32)
                .filter_map(|u| {
                    let m = inst.mu(EventId(v as u32), UserId(u));
                    (m > 0.0).then_some(MuEntry { id: u, mu: m as f32 })
                })
                .collect();
            LiveEvent {
                id: v as u32,
                capacity: e.capacity,
                location: e.location,
                time: e.time,
                fee: inst.fee(EventId(v as u32)),
                mu,
            }
        })
        .collect();
    let mut users: Vec<u32> = (0..nu as u32).collect();
    let mut departed: HashSet<u32> = HashSet::new();
    let mut graveyard: Vec<LiveEvent> = Vec::new();
    let (mut next_event, mut next_user) = (nv as u32, nu as u32);

    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let roll = rng.below(100);
        let m = if roll < 40 {
            // μ update on a pair the user cares about
            let e = &events[rng.below(events.len())];
            let Some(entry) = (0..5)
                .map(|_| e.mu.get(rng.below(e.mu.len())).copied())
                .find(|x| x.is_some_and(|x| !departed.contains(&x.id)))
                .flatten()
            else {
                continue;
            };
            let mu = if rng.chance(30) { 0.0 } else { (0.05 + 0.95 * rng.unit()) as f32 };
            Mutation::MuUpdate { event: e.id, user: entry.id, mu }
        } else if roll < 60 {
            let pick = rng.below(events.len());
            let e = &mut events[pick];
            e.capacity = if rng.chance(50) {
                (e.capacity / 2).max(1)
            } else {
                e.capacity + 1 + rng.below(20) as u32
            };
            Mutation::CapacityChange { event: e.id, capacity: e.capacity }
        } else if roll < 70 {
            let like = inst.user(UserId(rng.below(nu) as u32));
            let mut mu = Vec::new();
            for e in &events {
                if rng.chance(25) {
                    mu.push(MuEntry { id: e.id, mu: (0.05 + 0.95 * rng.unit()) as f32 });
                }
            }
            users.push(next_user);
            next_user += 1;
            Mutation::UserArrive { location: like.location, budget: like.budget.value(), mu }
        } else if roll < 80 {
            if users.len() <= nu / 2 {
                continue;
            }
            let user = users.swap_remove(rng.below(users.len()));
            departed.insert(user);
            Mutation::UserDepart { user }
        } else if roll < 90 {
            if events.len() <= nv / 2 {
                continue;
            }
            let e = events.swap_remove(rng.below(events.len()));
            let event = e.id;
            graveyard.push(e);
            Mutation::EventRemove { event }
        } else {
            if graveyard.is_empty() {
                continue;
            }
            let mut e = graveyard.swap_remove(rng.below(graveyard.len()));
            e.mu.retain(|x| !departed.contains(&x.id));
            e.id = next_event;
            next_event += 1;
            let m = Mutation::EventAdd {
                capacity: e.capacity,
                location: e.location,
                time: e.time,
                fee: e.fee,
                mu: e.mu.clone(),
            };
            events.push(e);
            m
        };
        out.push(m);
    }
    out
}

fn build_sessions(cfg: &RunCfg, p: &Params) -> Result<Vec<Session>, String> {
    let mut rng = Rng::new(cfg.seed ^ 0xde17a);
    let per_session = ((p.per_second * load_secs(cfg)).round() as usize).max(2);
    (0..nproc())
        .map(|k| {
            let name = format!("s{k}");
            let instance = Arc::new(generate_city(&p.city, rng.next_u64()));
            let mutations = mutation_stream(&instance, per_session, rng.next_u64());
            let open_line = encode_line(&MutateRequest {
                open: Some(Arc::clone(&instance)),
                ..mutate_request(&name)
            })?;
            let lines = mutations
                .iter()
                .enumerate()
                .map(|(j, m)| {
                    encode_line(&MutateRequest {
                        mutation_id: Some(mutation_id(k, j)),
                        mutation: Some(m.clone()),
                        ..mutate_request(&name)
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Session { name, instance, open_line, mutations, lines })
        })
        .collect()
}

/// A long-lived session connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let io = |e: std::io::Error| format!("transport: {e}");
        let writer = TcpStream::connect(addr).map_err(io)?;
        writer.set_nodelay(true).map_err(io)?;
        writer.set_read_timeout(Some(Duration::from_secs(120))).map_err(io)?;
        let reader = BufReader::new(writer.try_clone().map_err(io)?);
        Ok(Conn { writer, reader })
    }

    /// One line out, one line back.
    fn roundtrip(&mut self, line: &[u8]) -> Result<String, String> {
        let io = |e: std::io::Error| format!("transport: {e}");
        self.writer.write_all(line).map_err(io)?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply).map_err(io)? {
            0 => Err("transport: server closed the session connection".to_string()),
            _ => Ok(reply),
        }
    }
}

fn parse_reply(line: &str) -> Result<MutateResponse, String> {
    serde_json::from_str(line.trim_end()).map_err(|e| format!("malformed mutate reply: {e}"))
}

/// Opens every session on its own connection, concurrently.
fn open_sessions(addr: SocketAddr, sessions: &[Session]) -> Result<Vec<Conn>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|session| {
                s.spawn(move || {
                    let mut conn = Conn::open(addr)?;
                    let reply = parse_reply(&conn.roundtrip(&session.open_line)?)?;
                    if !reply.ok || reply.outcome.as_deref() != Some("opened") {
                        return Err(format!("open {}: {:?}", session.name, reply.error));
                    }
                    Ok(conn)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("opener panicked")).collect()
    })
}

/// Closed loop: each session sends its next line when the previous reply
/// is in. Per session, per line: latency (ms) and the reply.
type Replies = Vec<Vec<(f64, Result<String, String>)>>;

fn closed_loop(conns: &mut [Conn], sessions: &[Session], range: Range<usize>) -> (Replies, f64) {
    let started = Instant::now();
    let replies = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(sessions)
            .map(|(conn, session)| {
                let range = range.clone();
                s.spawn(move || {
                    session.lines[range]
                        .iter()
                        .map(|line| {
                            let sent = Instant::now();
                            let reply = conn.roundtrip(line);
                            (ms(sent.elapsed()), reply)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session client panicked")).collect()
    });
    (replies, started.elapsed().as_secs_f64())
}

/// The in-process replay of one session's stream on a shadow engine.
struct Shadow {
    engine: DeltaEngine,
    open_ms: f64,
    applied: Vec<(f64, MutationOutcome)>,
}

fn replay(session: &Session) -> Result<Shadow, String> {
    let started = Instant::now();
    let mut engine =
        DeltaEngine::new((*session.instance).clone(), DeltaConfig::default(), &NOOP);
    let open_ms = ms(started.elapsed());
    let mut applied = Vec::with_capacity(session.mutations.len());
    for (j, m) in session.mutations.iter().enumerate() {
        let started = Instant::now();
        let out = engine
            .apply(m, &NOOP)
            .map_err(|e| format!("{}: shadow engine rejected mutation {j}: {e}", session.name))?;
        applied.push((ms(started.elapsed()), out));
    }
    Ok(Shadow { engine, open_ms, applied })
}

/// Checks one served reply against the shadow engine's outcome.
fn check_reply(reply: &Result<String, String>, expect: &MutationOutcome, id: &str) -> Result<MutateResponse, String> {
    let resp = parse_reply(reply.as_ref().map_err(|e| format!("{id}: {e}"))?)?;
    if !resp.ok {
        return Err(format!("{id}: rejected: {:?}", resp.error));
    }
    let outcome = match expect.kind {
        RepairKind::Repaired => "repaired",
        RepairKind::Fallback => "fallback",
    };
    if resp.outcome.as_deref() != Some(outcome) || resp.mutation_id.as_deref() != Some(id) {
        return Err(format!("{id}: served {:?}/{:?}, shadow {outcome}", resp.mutation_id, resp.outcome));
    }
    if (resp.omega - expect.omega).abs() > 1e-9 * expect.omega.abs().max(1.0) {
        return Err(format!("{id}: served Ω {} but the shadow engine has {}", resp.omega, expect.omega));
    }
    Ok(resp)
}

pub fn run(cfg: &RunCfg, e2e: &mut Metrics, layers: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let p = params(cfg.scale);

    // set-up: generate instances and streams, pre-encode every line,
    // start the server and open the sessions
    let mut reference = Reference::new();
    let (mut setups, mut setup_walls) = (Vec::new(), Vec::new());
    let mut ready = None;
    for k in 0..p.setups {
        let (made, wall, scaled) = reference.timed(|| -> Result<_, String> {
            let sessions = build_sessions(cfg, &p)?;
            let server = start_server(&cfg.tmp, &format!("delta{k}"))
                .map_err(|e| format!("start server: {e}"))?;
            let conns = open_sessions(server.addr(), &sessions)?;
            Ok((sessions, conns, server))
        });
        setups.push(scaled);
        setup_walls.push(wall);
        if let Some((_, old_conns, old)) = ready.replace(made?) {
            drop(old_conns);
            stop_server(old);
        }
    }
    let (sessions, mut conns, server) = ready.ok_or("no set-up ran")?;
    e2e.set("setup_s", median(&setups));
    layers.set("wall.setup_s", median(&setup_walls));

    // the solvers alone, on the Auckland suite (one Vancouver-size solve
    // takes 1–2 s and varies by instance)
    let suite = auckland_suite(p.calibration);
    let refs: Vec<&Instance> = suite.iter().collect();

    // the streams in two halves, with solver rounds before, between and
    // after them
    let len = sessions[0].lines.len();
    let mut replies: Replies = sessions.iter().map(|_| Vec::new()).collect();
    let (mut rounds, mut heap_peaks, mut wall) = (Vec::new(), Vec::new(), 0.0);
    for range in [0..len / 2, len / 2..len] {
        solve_rounds_for(&refs, calibration_slot(cfg), &mut rounds, &mut reference, tally);
        let baseline = usep_metrics::alloc::current_bytes();
        let sampler = Sampler::start(None);
        let (part, secs) = closed_loop(&mut conns, &sessions, range);
        let seen = sampler.finish();
        heap_peaks.extend(seen.heap_peaks.iter().map(|&b| b.saturating_sub(baseline) as f64 / MB));
        for (all, more) in replies.iter_mut().zip(part) {
            all.extend(more);
        }
        wall += secs;
    }
    solve_rounds_for(&refs, calibration_slot(cfg), &mut rounds, &mut reference, tally);
    set_solve_metrics(&rounds, e2e, layers);
    layers.set("host.kernel_ms", reference.median_ms());
    drop(conns);

    let scraped = scrape(&server);
    stop_server(server);
    let scraped = match scraped {
        Ok(s) => {
            tally.check(reconcile(&s));
            Some(s)
        }
        Err(e) => {
            tally.fail(e);
            None
        }
    };

    // correctness: replay every stream on a shadow engine; each served
    // reply must match it, and each final planning must pass the oracle
    let mut shadows = Vec::new();
    let (mut good, mut omega_sum, mut mutations, mut repairs) = (0, 0.0, 0u64, 0u64);
    for (k, (session, served)) in sessions.iter().zip(&replies).enumerate() {
        let shadow = match replay(session) {
            Ok(s) => s,
            Err(e) => {
                tally.attempted += served.len() as u64;
                tally.fail(e);
                continue;
            }
        };
        let mut last = None;
        for (j, ((latency, reply), (_, expect))) in served.iter().zip(&shadow.applied).enumerate() {
            if let Some(resp) = tally.op(check_reply(reply, expect, &mutation_id(k, j))) {
                if *latency <= LIMIT_MS {
                    good += 1;
                }
                last = Some(resp);
            }
        }
        let omega = shadow.engine.omega();
        let stats = shadow.engine.stats();
        tally.check(
            check_planning(shadow.engine.instance(), shadow.engine.planning())
                .map_err(|e| format!("{}: final planning: {e}", session.name))
                .and_then(|_| match &last {
                    Some(r) if r.mutations == stats.mutations && r.fallbacks == stats.fallbacks => Ok(()),
                    _ => Err(format!("{}: final served state does not match the shadow engine", session.name)),
                }),
        );
        omega_sum += omega;
        mutations += stats.mutations;
        repairs += stats.repairs;
        shadows.push(shadow);
    }

    // a mutate line waits mostly on the connection's fixed residual, not
    // on the CPU, so these latencies stay as measured
    let latencies: Vec<f64> = replies.iter().flatten().map(|(l, _)| *l).collect();
    e2e.set("req_p50_ms", quantile(&latencies, 0.5));
    e2e.set("req_p90_ms", quantile(&latencies, 0.9));
    layers.set("wall.req_p50_ms", quantile(&latencies, 0.5));
    layers.set("wall.req_p90_ms", quantile(&latencies, 0.9));
    e2e.set("goodput_rps", good as f64 / wall);
    e2e.set("omega_sum", omega_sum);
    // the median over the seconds of the streams of each second's heap
    // high-water mark above the post-setup baseline, as in serve_cities
    e2e.set("peak_heap_mb", median(&heap_peaks));
    e2e.set("repair_frac", if mutations == 0 { 1.0 } else { repairs as f64 / mutations as f64 });
    layers.set("delta.fallbacks", shadows.iter().map(|s| s.engine.stats().fallbacks as f64).sum());

    if !cfg.trace {
        return Ok(());
    }
    // the solver layers on a session's instance: cold opens and
    // fallbacks run RatioGreedy on it, repairs the +RG pass
    trace_round(&sessions[0].instance, 1, tally, layers);
    let fresh = generate_city(&p.city, {
        let mut rng = Rng::new(cfg.seed ^ 0xde17a);
        rng.next_u64()
    });
    if let Some((freeze, validate)) = tally.op(core_layer_ms(&fresh)) {
        layers.set("core.freeze_ms", freeze);
        layers.set("core.validate_ms", validate);
    }

    let applied: Vec<&(f64, MutationOutcome)> = shadows.iter().flat_map(|s| &s.applied).collect();
    let apply_ms: Vec<f64> = applied.iter().map(|(t, _)| *t).collect();
    let of_kind = |kind| -> Vec<f64> {
        applied.iter().filter(|(_, o)| o.kind == kind).map(|(t, _)| *t).collect()
    };
    layers.set("delta.open_ms", median(&shadows.iter().map(|s| s.open_ms).collect::<Vec<_>>()));
    layers.set("delta.apply_ms.p50", quantile(&apply_ms, 0.5));
    layers.set("delta.apply_ms.p90", quantile(&apply_ms, 0.9));
    layers.set("delta.apply_ms.repair.p50", median(&of_kind(RepairKind::Repaired)));
    layers.set("delta.apply_ms.fallback.p50", median(&of_kind(RepairKind::Fallback)));
    layers.set(
        "delta.touched_mean",
        mean(&applied.iter().map(|(_, o)| o.touched as f64).collect::<Vec<_>>()),
    );
    layers.set("delta.evicted", applied.iter().map(|(_, o)| o.evicted as f64).sum());
    layers.set("delta.added", applied.iter().map(|(_, o)| o.added as f64).sum());
    layers.set("delta.mutations", applied.len() as f64);

    // the admission split of a mutate line: decode, journal append with
    // fsync (on a journal of our own), reply encode; transport is the
    // client latency minus the shadow apply and the append
    let path = cfg.tmp.join("journal-delta-probe.jsonl");
    let journal = Journal::open(&path).map_err(|e| format!("open probe journal: {e}"))?;
    let before = journal.len().map_err(|e| e.to_string())?;
    let (mut decode, mut encode, mut appends, mut transport) = (vec![], vec![], vec![], vec![]);
    for (k, ((session, served), shadow)) in sessions.iter().zip(&replies).zip(&shadows).enumerate() {
        for (j, (line, mutation)) in session.lines.iter().zip(&session.mutations).enumerate() {
            let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
            let started = Instant::now();
            let _: MutateRequest =
                serde_json::from_str(text.trim_end()).map_err(|e| format!("decode mutate line: {e}"))?;
            decode.push(ms(started.elapsed()));
            if let Some((_, Ok(reply))) = served.get(j) {
                if let Ok(resp) = parse_reply(reply) {
                    let started = Instant::now();
                    let _ = serde_json::to_string(&resp);
                    encode.push(ms(started.elapsed()));
                }
            }
            if j >= p.journal_samples {
                continue;
            }
            let record = JournalRecord::DeltaMutate {
                session: session.name.clone(),
                mutation_id: mutation_id(k, j),
                mutation: mutation.clone(),
            };
            let started = Instant::now();
            if tally.op(journal.append(&record).map_err(|e| format!("probe journal append: {e}"))).is_some() {
                let append = ms(started.elapsed());
                appends.push(append);
                if let (Some((latency, Ok(_))), Some((apply, _))) = (served.get(j), shadow.applied.get(j)) {
                    transport.push(latency - apply - append);
                }
            }
        }
    }
    let bytes = journal.len().map_err(|e| e.to_string())?.saturating_sub(before);
    drop(journal);
    let _ = std::fs::remove_file(&path);
    layers.set("serve.decode_ms.p50", median(&decode));
    layers.set("serve.encode_ms.p50", median(&encode));
    layers.set("serve.journal_append_ms.p50", quantile(&appends, 0.5));
    layers.set("serve.journal_append_ms.p90", quantile(&appends, 0.9));
    layers.set("serve.journal_bytes_per_req", bytes as f64 / appends.len().max(1) as f64);
    layers.set("serve.journal_append_samples", appends.len() as f64);
    layers.set("serve.transport_ms.p50", quantile(&transport, 0.5));
    layers.set("serve.transport_ms.p90", quantile(&transport, 0.9));

    if let Some(s) = scraped {
        layers.set("serve.shed", s.family_sum("usep_serve_shed_total"));
        layers.set("serve.retries", s.value("usep_serve_retried_total").unwrap_or(0.0));
        layers.set("serve.degraded", s.family_sum("usep_serve_degraded_total"));
    }
    Ok(())
}
