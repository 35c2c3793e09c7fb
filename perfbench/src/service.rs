//! The `service` workload: an in-process `lcld` (`Service::start`, one
//! worker per core, default queue) served over a Unix socket with
//! `serve_unix`, driven by a closed loop of 2 connections with 4 requests
//! in flight each, rotating the 13 problem presets × 4 seeds.
//!
//! Every record is checked against a direct `plan(..).run()` oracle, and
//! the client's counts against the wire `stats` counters.

use crate::outcome::{mean, Outcome};
use crate::stats::{median, p99, percentile, splitmix64};
use crate::trace::Tracer;
use crate::Scale;
use lcl_core::problem_spec::ProblemSpec;
use lcl_harness::{plan, plan_cached, run_timed, EngineConfig, RunConfig, RunRecord};
use lcl_service::protocol::fnv1a_u64s;
use lcl_service::{
    serve_unix, Request, Response, Service, ServiceConfig, ServiceStats, SocketServer, WireRecord,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Seeds per preset.
const SEEDS: usize = 4;
/// Client connections.
const CONNECTIONS: usize = 2;
/// Requests in flight per connection.
const IN_FLIGHT: usize = 4;
/// Set-up repetitions of a timed run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// How long a client waits for a reply before counting the id unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One distinct job: a preset at a seed.
struct Key {
    problem: ProblemSpec,
    seed: u64,
}

/// What the direct `plan(..).run()` oracle answered for a key.
#[derive(Debug, Clone, PartialEq)]
struct Oracle {
    n: u64,
    node_averaged: f64,
    worst_case: u64,
    labels_fnv: u64,
    rounds_fnv: u64,
}

impl Oracle {
    fn of_record(record: &RunRecord) -> Oracle {
        Oracle {
            n: record.n as u64,
            node_averaged: record.node_averaged,
            worst_case: record.worst_case,
            labels_fnv: fnv1a_u64s(&record.labels),
            rounds_fnv: fnv1a_u64s(&record.rounds),
        }
    }

    fn of_wire(record: &WireRecord) -> Oracle {
        Oracle {
            n: record.n,
            node_averaged: record.node_averaged,
            worst_case: record.worst_case,
            labels_fnv: record.labels_fnv,
            rounds_fnv: record.rounds_fnv,
        }
    }
}

/// How a request ended, seen from the client.
enum Reply {
    Record(Box<WireRecord>),
    Error(String),
    Overloaded,
    Unanswered,
}

/// One request's client-side record. Times are ns since the tracer origin.
struct Sample {
    id: u64,
    key: usize,
    send_ns: u64,
    recv_ns: u64,
    reply: Reply,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.recv_ns - self.send_ns) as f64 / 1e6
    }
}

fn keys(seed: u64) -> Vec<Key> {
    let seeds: Vec<u64> = (0..SEEDS as u64)
        .map(|i| splitmix64(seed.wrapping_add(i)) % 1_000_000 + 1)
        .collect();
    ProblemSpec::presets()
        .into_iter()
        .flat_map(|(_, problem)| {
            seeds.iter().map(move |&seed| Key {
                problem: problem.clone(),
                seed,
            })
        })
        .collect()
}

fn solve_line(key: &Key, n: usize, id: u64) -> String {
    Request::Solve {
        id,
        problem: key.problem.clone(),
        n,
        seed: key.seed,
        detail: false,
        shards: None,
        max_resident: None,
        packing: None,
    }
    .to_line()
}

fn oracles(t: &mut Tracer, keys: &[Key], n: usize) -> Result<Vec<Oracle>, String> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let job = i as u64;
            let plan = t
                .span("plan", job, |_| {
                    plan(&k.problem, n, &RunConfig::seeded(k.seed))
                })
                .map_err(|e| e.to_string())?;
            let record = t
                .span("Plan::run", job, |_| plan.run())
                .map_err(|e| e.to_string())?;
            Ok(Oracle::of_record(&record))
        })
        .collect()
}

/// Which requests a client connection sends.
#[derive(Clone, Copy)]
enum Schedule {
    /// Keep sending until the deadline.
    Until(Instant),
    /// Send each key once, split across the connections.
    EachKeyOnce,
}

/// One load phase: who connects where, and what they send.
#[derive(Clone, Copy)]
struct Load<'a> {
    path: &'a Path,
    /// Sample times are ns since this instant.
    origin: Instant,
    keys: &'a [Key],
    n: usize,
    conns: usize,
    /// Key index the rotation starts at.
    first: usize,
    schedule: Schedule,
}

impl Load<'_> {
    /// Runs `conns` clients on their own threads and joins them all.
    fn run(self) -> Result<Vec<Sample>, String> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.conns)
                .map(|c| s.spawn(move || self.client(c)))
                .collect();
            let mut all = Vec::new();
            for h in handles {
                all.extend(
                    h.join()
                        .map_err(|_| "client thread panicked".to_string())??,
                );
            }
            Ok(all)
        })
    }

    /// One closed-loop client connection: `IN_FLIGHT` requests
    /// outstanding, a new one sent as each reply arrives.
    fn client(self, conn: usize) -> Result<Vec<Sample>, String> {
        let stream = UnixStream::connect(self.path).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        let ns = |at: Instant| ns_of(self.origin, at);
        let keys = self.keys;
        let mut pending: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        let mut samples = Vec::new();
        let mut sent = 0usize;
        let mut send = |pending: &mut BTreeMap<u64, (usize, u64)>| -> Result<bool, String> {
            let key = match self.schedule {
                // Every connection sends at least one request.
                Schedule::Until(deadline) if sent > 0 && Instant::now() >= deadline => {
                    return Ok(false)
                }
                Schedule::Until(_) => (self.first + conn + self.conns * sent) % keys.len(),
                Schedule::EachKeyOnce => {
                    let k = conn + self.conns * sent;
                    if k >= keys.len() {
                        return Ok(false);
                    }
                    k
                }
            };
            let id = ((conn as u64) << 32) | sent as u64;
            let mut line = solve_line(&keys[key], self.n, id);
            line.push('\n');
            let at = Instant::now();
            writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            pending.insert(id, (key, ns(at)));
            sent += 1;
            Ok(true)
        };
        for _ in 0..IN_FLIGHT {
            if !send(&mut pending)? {
                break;
            }
        }
        let mut line = String::new();
        while !pending.is_empty() {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let recv_ns = ns(Instant::now());
            let response = Response::from_line(line.trim_end()).map_err(|e| e.message)?;
            let Some(id) = response.id() else {
                return Err(format!("reply without an id: {}", line.trim_end()));
            };
            let Some((key, send_ns)) = pending.remove(&id) else {
                return Err(format!("reply to unknown id {id}"));
            };
            let reply = match response {
                Response::Record { record, .. } => Reply::Record(Box::new(record)),
                Response::Overloaded { .. } => Reply::Overloaded,
                Response::Error { kind, message, .. } => {
                    Reply::Error(format!("{}: {message}", kind.tag()))
                }
                other => Reply::Error(format!("unexpected `{}` reply", other.kind())),
            };
            samples.push(Sample {
                id,
                key,
                send_ns,
                recv_ns,
                reply,
            });
            send(&mut pending)?;
        }
        let now = ns(Instant::now());
        samples.extend(pending.into_iter().map(|(id, (key, send_ns))| Sample {
            id,
            key,
            send_ns,
            recv_ns: now,
            reply: Reply::Unanswered,
        }));
        Ok(samples)
    }
}

/// Counts of one load phase, by reply kind.
#[derive(Default)]
struct Tally {
    ok: u64,
    errors: u64,
    overloaded: u64,
    unanswered: u64,
}

/// Checks every reply against its oracle; returns the tally.
fn check(samples: &[Sample], oracles: &[Oracle], out: &mut Outcome, what: &str) -> Tally {
    let mut tally = Tally::default();
    for s in samples {
        out.attempted += 1;
        match &s.reply {
            Reply::Record(r) => {
                tally.ok += 1;
                let got = Oracle::of_wire(r);
                let want = &oracles[s.key];
                let mut problems = Vec::new();
                if !r.verified {
                    problems.push("record is not verified".to_string());
                }
                if got != *want {
                    problems.push(format!("got {got:?}, oracle {want:?}"));
                }
                out.check(&format!("{what} id {} ({})", s.id, r.problem), problems);
            }
            Reply::Error(e) => {
                tally.errors += 1;
                out.fail(format!("{what} id {}: error {e}", s.id));
            }
            Reply::Overloaded => {
                tally.overloaded += 1;
                out.fail(format!("{what} id {}: overloaded", s.id));
            }
            Reply::Unanswered => {
                tally.unanswered += 1;
                out.fail(format!(
                    "{what} id {}: unanswered after {REPLY_TIMEOUT:?}",
                    s.id
                ));
            }
        }
    }
    tally
}

/// The wire `stats` request over a fresh connection.
fn wire_stats(path: &Path, id: u64) -> Result<ServiceStats, String> {
    let mut stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut line = Request::Stats { id }.to_line();
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    match Response::from_line(reply.trim_end()).map_err(|e| e.message)? {
        Response::Stats { stats, .. } => Ok(stats),
        other => Err(format!("`stats` answered with `{}`", other.kind())),
    }
}

/// A running service, its socket, and the oracle answers.
struct Running {
    // Held for their lifetime only. Field order is drop order: stop
    // accepting before the pool stops.
    _server: SocketServer,
    _service: Service,
    oracles: Vec<Oracle>,
}

/// Set-up: oracle answers, `Service::start`, socket bind, and a warm-up
/// pass of every key (checked against the oracles).
fn set_up(
    t: &mut Tracer,
    path: &Path,
    origin: Instant,
    keys: &[Key],
    n: usize,
    out: &mut Outcome,
) -> Result<Running, String> {
    let oracles = oracles(t, keys, n)?;
    let service = Service::start(ServiceConfig::default());
    let server = serve_unix(&service, path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    let warm = Load {
        path,
        origin,
        keys,
        n,
        conns: 1,
        first: 0,
        schedule: Schedule::EachKeyOnce,
    }
    .run()?;
    let mut scratch = Outcome::default();
    check(&warm, &oracles, &mut scratch, "warm-up");
    out.problems.extend(scratch.problems);
    Ok(Running {
        _server: server,
        _service: service,
        oracles,
    })
}

/// The size of every solve.
fn size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 2_000,
        Scale::Tiny => 200,
    }
}

/// Runs the service workload; the socket lives in `dir`.
#[must_use]
pub fn run(scale: Scale, seed: u64, seconds: f64, dir: &Path, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(scale, seed, seconds, dir, t, &mut out) {
        out.fail(e);
    }
    out
}

fn run_inner(
    scale: Scale,
    seed: u64,
    seconds: f64,
    dir: &Path,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = size(scale);
    let keys = keys(seed);
    let path: PathBuf = dir.join(format!(
        "lcld-{}-{}.sock",
        std::process::id(),
        splitmix64(seed) % 10_000
    ));
    let origin = t.origin();
    let first = (splitmix64(seed ^ 0x5e) % keys.len() as u64) as usize;
    let cfg = ServiceConfig::default();
    // Solves run under the planner's default engine knobs.
    let engine = EngineConfig::default();
    out.note(format!(
        "config: n={n} keys={} connections={CONNECTIONS} in_flight={IN_FLIGHT} queue={} \
         workers=available_parallelism ({}) engine.chunk_size={} engine.threads={}",
        keys.len(),
        cfg.queue_capacity,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        engine.resolved_chunk_size(),
        engine.resolved_threads(n)
    ));

    let reps = if t.enabled() { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut running = None;
    for _ in 0..reps {
        // Tear the previous repetition down before timing the next.
        drop(running.take());
        let t0 = Instant::now();
        let r = t.span("setup", 0, |t| set_up(t, &path, origin, &keys, n, out))?;
        setup.push(t0.elapsed().as_secs_f64());
        running = Some(r);
    }
    let Some(running) = running else {
        return Err("no set-up ran".into());
    };

    let before = t.span("stats", 0, |_| wire_stats(&path, u64::MAX - 1))?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let samples = t.span("load", 0, |t| {
        let samples = Load {
            path: &path,
            origin,
            keys: &keys,
            n,
            conns: CONNECTIONS,
            first,
            schedule: Schedule::Until(deadline),
        }
        .run()?;
        for s in &samples {
            t.record("client.request", s.id, s.send_ns, s.recv_ns);
        }
        Ok::<_, String>(samples)
    })?;
    let after = t.span("stats", 0, |_| wire_stats(&path, u64::MAX))?;
    let tally = check(&samples, &running.oracles, out, "job");

    // Cross-check the client's counts against the wire counters.
    for (what, client, wire) in [
        ("jobs_ok", tally.ok, after.jobs_ok - before.jobs_ok),
        (
            "jobs_failed",
            tally.errors,
            after.jobs_failed - before.jobs_failed,
        ),
        (
            "overloaded",
            tally.overloaded,
            after.overloaded - before.overloaded,
        ),
    ] {
        if client != wire {
            out.problems
                .push(format!("client counted {client} {what}, wire stats {wire}"));
        }
    }
    out.note(format!(
        "client: ok={} errors={} overloaded={} unanswered={}; wire: jobs_ok={} jobs_failed={} overloaded={}",
        tally.ok,
        tally.errors,
        tally.overloaded,
        tally.unanswered,
        after.jobs_ok - before.jobs_ok,
        after.jobs_failed - before.jobs_failed,
        after.overloaded - before.overloaded
    ));

    let ok: Vec<&Sample> = samples
        .iter()
        .filter(|s| matches!(s.reply, Reply::Record(_)))
        .collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_ms()).collect();
    let (jobs_per_s, nodes_per_s) = windowed_rates(&ok, t.now_ns().min(ns_of(origin, deadline)));
    if t.enabled() {
        trace_metrics(t, &keys, n, &running.oracles, &ok, &before, &after, out);
    }
    out.end_to_end(
        t.enabled(),
        &[
            ("nodes_per_s", nodes_per_s),
            ("jobs_per_s", jobs_per_s),
            ("job_ms_p50", median(&latencies).unwrap_or(0.0)),
            ("setup_s", median(&setup).unwrap_or(0.0)),
        ],
    );
    out.tail_note(&latencies);
    drop(running);
    Ok(())
}

/// Nanoseconds from `origin` to `at`.
fn ns_of(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// Length of one throughput window.
const WINDOW_NS: u64 = 2_000_000_000;

/// Jobs and nodes per second: the median over [`WINDOW_NS`] windows of
/// the phase from the first send to `end_ns` (the deadline), counting
/// replies by arrival, so a transient stall moves one window, not the
/// figure. A phase shorter than two windows is one window.
fn windowed_rates(ok: &[&Sample], end_ns: u64) -> (f64, f64) {
    let Some(start_ns) = ok.iter().map(|s| s.send_ns).min() else {
        return (0.0, 0.0);
    };
    let last_ns = ok.iter().map(|s| s.recv_ns).max().unwrap_or(start_ns);
    let windows = ((end_ns.saturating_sub(start_ns)) / WINDOW_NS).max(1) as usize;
    let width = if windows == 1 {
        last_ns.saturating_sub(start_ns) + 1
    } else {
        WINDOW_NS
    };
    let mut jobs = vec![0u64; windows];
    let mut nodes = vec![0u64; windows];
    for s in ok {
        let w = ((s.recv_ns.saturating_sub(start_ns)) / width) as usize;
        if let (Some(j), Reply::Record(r)) = (jobs.get_mut(w), &s.reply) {
            *j += 1;
            nodes[w] += r.n;
        }
    }
    let rate = |counts: &[u64]| {
        let per_s: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64 * 1e9 / width as f64)
            .collect();
        median(&per_s).unwrap_or(0.0)
    };
    (rate(&jobs), rate(&nodes))
}

/// Cache hit rate of the lookups between two snapshots.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// The traced extras: a serial in-process replay of each distinct key
/// (`Request::from_line` → `plan_cached` → `build_shared` → `run_timed`
/// → `Response::to_line`), and the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn trace_metrics(
    t: &mut Tracer,
    keys: &[Key],
    n: usize,
    oracles: &[Oracle],
    ok: &[&Sample],
    before: &ServiceStats,
    after: &ServiceStats,
    out: &mut Outcome,
) {
    let mut replay_ms = vec![0.0; keys.len()];
    let (mut parse, mut plans, mut builds, mut runs, mut encodes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, key) in keys.iter().enumerate() {
        let job = i as u64;
        let line = solve_line(key, n, job);
        let replayed = t.span("replay", job, |t| -> Result<Oracle, String> {
            let request = t
                .span("Request::from_line", job, |_| Request::from_line(&line))
                .map_err(|e| e.message)?;
            let Request::Solve { problem, seed, .. } = request else {
                return Err("replayed line is not a solve".into());
            };
            let (plan, cached) = t
                .span("plan_cached", job, |_| {
                    plan_cached(&problem, n, &RunConfig::seeded(seed))
                })
                .map_err(|e| e.to_string())?;
            let instance = t
                .span("InstanceSpec::build_shared", job, |_| {
                    plan.spec.build_shared()
                })
                .map_err(|e| e.to_string())?;
            let record = t
                .span("Algorithm::run", job, |_| {
                    run_timed(plan.solver, &instance, &plan.config)
                })
                .map_err(|e| e.to_string())?;
            let wire = WireRecord {
                algorithm: record.algorithm.clone(),
                spec: record.spec.clone(),
                problem: plan.problem.describe(),
                n: record.n as u64,
                seed: record.seed,
                node_averaged: record.node_averaged,
                worst_case: record.worst_case,
                median_round: record.median_round,
                waiting_averaged: record.waiting_averaged,
                verified: record.verified,
                engine: record.engine.clone(),
                elapsed_ms: record.elapsed_ms,
                peak_arena_bytes: record.peak_arena_bytes,
                plan_cached: cached,
                labels_fnv: fnv1a_u64s(&record.labels),
                rounds_fnv: fnv1a_u64s(&record.rounds),
                labels: None,
                rounds: None,
            };
            let oracle = Oracle::of_wire(&wire);
            t.span("Response::to_line", job, |_| {
                Response::Record {
                    id: job,
                    record: wire,
                }
                .to_line()
            });
            Ok(oracle)
        });
        out.attempted += 1;
        match replayed {
            Ok(got) if got == oracles[i] => {}
            Ok(got) => out.fail(format!("replay {i}: got {got:?}, oracle {:?}", oracles[i])),
            Err(e) => out.fail(format!("replay {i}: {e}")),
        }
        let ms = |name| t.last_ms(name, job).unwrap_or(0.0);
        replay_ms[i] = ms("replay");
        parse.push(ms("Request::from_line"));
        plans.push(ms("plan_cached"));
        builds.push(ms("InstanceSpec::build_shared"));
        runs.push(ms("Algorithm::run"));
        encodes.push(ms("Response::to_line"));
    }
    let waits: Vec<f64> = ok
        .iter()
        .map(|s| s.latency_ms() - replay_ms[s.key])
        .collect();
    out.metric("planner.plan_ms", mean(&plans));
    out.metric("graph.build_ms", mean(&builds));
    out.metric("harness.run_ms", mean(&runs));
    out.metric("service.parse_us", mean(&parse) * 1e3);
    out.metric("service.encode_us", mean(&encodes) * 1e3);
    out.metric(
        "service.exec_ms",
        mean(&plans) + mean(&builds) + mean(&runs),
    );
    if let Some(p50) = percentile(&waits, 50.0) {
        out.metric("service.wait_ms_p50_est", p50);
    }
    if let Some(p99) = p99(&waits) {
        out.metric("service.wait_ms_p99_est", p99);
    }
    out.metric(
        "service.plan_cache_hit_rate",
        hit_rate(
            after.plan_cache.hits - before.plan_cache.hits,
            after.plan_cache.misses - before.plan_cache.misses,
        ),
    );
    out.metric(
        "service.instance_cache_hit_rate",
        hit_rate(
            after.instance_cache.hits - before.instance_cache.hits,
            after.instance_cache.misses - before.instance_cache.misses,
        ),
    );
    out.metric(
        "service.levels_cache_hit_rate",
        hit_rate(
            after.peeling_cache.hits - before.peeling_cache.hits,
            after.peeling_cache.misses - before.peeling_cache.misses,
        ),
    );
    out.metric(
        "service.overloaded",
        (after.overloaded - before.overloaded) as f64,
    );
    out.metric(
        "service.jobs_failed",
        (after.jobs_failed - before.jobs_failed) as f64,
    );
}
