//! The batch workloads — `wave` and `landscape` — run the
//! way `lcl run` does: `InstanceSpec::build`, then `Algorithm::run`
//! (through `run_timed`) up to a verified `RunRecord`.
//!
//! Jobs draw from a pool of [`POOL`] pinned `(n, seed)` entries per
//! solver. The workload seed picks where in the pool a run starts, and
//! each pass moves one entry on, so a run never repeats an instance and
//! the process-wide peeling cache stays cold the way a fresh `lcl run`
//! finds it.

use crate::outcome::{mean, mib, Outcome};
use crate::pins;
use crate::stats::{median, splitmix64};
use crate::trace::Tracer;
use crate::Scale;
use lcl_algorithms::linial::linial_round_count;
use lcl_algorithms::path_lcl_solver::verify_path_lcl;
use lcl_algorithms::protocols::linial::{cascade_space, LinialCascade};
use lcl_algorithms::protocols::randomized::RandomizedColoring;
use lcl_algorithms::protocols::two_coloring::WaveTwoColoring;
use lcl_algorithms::protocols::{plan_round_budget, scheduled_cast_factory};
use lcl_core::coloring::{ColorLabel, HierarchicalColoring, Variant};
use lcl_core::problem::LclProblem;
use lcl_core::problem_spec::PathTable;
use lcl_graph::Tree;
use lcl_harness::{
    resolver, run_timed, Algorithm, EngineConfig, Instance, InstanceSpec, RunConfig, RunRecord,
    ShardConfig,
};
use lcl_local::engine::{run_sync_with, NodeContext, Protocol};
use lcl_local::identifiers::Ids;
use lcl_local::packed::PackableMessage;
use lcl_shard::run_sharded;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pinned `(n, seed)` entries per solver.
pub const POOL: usize = 32;

/// Set-up repetitions of a timed run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The solvers that read `Instance::levels` (the traced run times the
/// peeling as its own span before `Algorithm::run`, which then reuses it).
const LEVELS_USERS: &[&str] = &["generic-coloring"];

/// The solvers whose traced jobs are also replayed on `run_sharded` with
/// [`SHARD_REPLAY`]: those `lcl sweep --scale huge` runs out-of-core.
const SHARD_SOLVERS: &[&str] = &["linial", "randomized", "dfree-a", "fast-decomposition"];

/// The shard layout of the `huge` preset: 6 shards, 2 resident, packed.
const SHARD_REPLAY: ShardConfig = ShardConfig {
    shards: 6,
    max_resident: 2,
    packing: true,
};

/// What one batch workload runs.
pub struct Shape {
    /// The solvers of one pass, in registry order.
    pub solvers: Vec<&'static dyn Algorithm>,
    /// Target size of pool entry 0 (entry `i` asks for `n + i`).
    pub n: usize,
    /// Target size of the set-up warm-up jobs.
    pub warm_n: usize,
    /// Engine knobs of every job.
    pub engine: EngineConfig,
}

/// The batch workloads by name.
pub const NAMES: &[&str] = &["wave", "landscape"];

/// The shape of batch workload `name` at `scale`.
///
/// # Panics
///
/// On a name outside [`NAMES`] (the caller checked it).
#[must_use]
pub fn shape(name: &str, scale: Scale) -> Shape {
    let tiny = scale == Scale::Tiny;
    let pick = |names: &[&str]| -> Vec<&'static dyn Algorithm> {
        resolver()
            .algorithms()
            .iter()
            .copied()
            .filter(|a| names.contains(&a.name()))
            .collect()
    };
    match name {
        // One worker: with the default two, every round's thread spawns
        // and barrier on a shared 2-vCPU host made run-to-run spread 0.41.
        "wave" => Shape {
            solvers: pick(&["two-coloring"]),
            n: if tiny { 2_000 } else { 100_000 },
            warm_n: if tiny { 500 } else { 10_000 },
            engine: EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
        },
        "landscape" => Shape {
            solvers: resolver()
                .algorithms()
                .iter()
                .copied()
                .filter(|a| a.name() != "two-coloring")
                .collect(),
            n: if tiny { 5_000 } else { 500_000 },
            warm_n: if tiny { 1_000 } else { 50_000 },
            engine: EngineConfig::default(),
        },
        other => unreachable!("`{other}` is not a batch workload"),
    }
}

/// One job: what `lcl run` is asked to do.
pub struct Job {
    /// Job id (trace spans carry it).
    pub id: u64,
    /// The solver.
    pub solver: &'static dyn Algorithm,
    /// The instance.
    pub spec: InstanceSpec,
    /// The run configuration.
    pub cfg: RunConfig,
}

/// The job of `solver` at pool `entry` of a workload of target size `n`.
#[must_use]
pub fn job(
    solver: &'static dyn Algorithm,
    n: usize,
    entry: usize,
    engine: &EngineConfig,
    id: u64,
) -> Job {
    let cfg = RunConfig {
        seed: 1 + entry as u64,
        engine: engine.clone(),
        ..RunConfig::default()
    };
    Job {
        id,
        solver,
        spec: solver.default_spec(n + entry, &cfg),
        cfg,
    }
}

/// Builds and runs a job, the span tree being `job` ⊃ {build, levels,
/// run}. Returns the instance (dropped by the caller, outside the timing)
/// and the record.
fn execute(t: &mut Tracer, job: &Job) -> Result<(Instance, RunRecord), String> {
    t.span("job", job.id, |t| {
        let instance = t
            .span("InstanceSpec::build", job.id, |_| job.spec.build())
            .map_err(|e| e.to_string())?;
        if t.enabled() && LEVELS_USERS.contains(&job.solver.name()) {
            if let Some(k) = job.spec.hierarchy_k() {
                t.span("Instance::levels", job.id, |_| instance.levels(k));
            }
        }
        let record = t
            .span("Algorithm::run", job.id, |_| {
                run_timed(job.solver, &instance, &job.cfg)
            })
            .map_err(|e| e.to_string())?;
        Ok((instance, record))
    })
}

/// Per-layer sums over the traced jobs.
#[derive(Default)]
struct Layers {
    jobs: usize,
    nodes: usize,
    job_ms: f64,
    build_ms: f64,
    levels_ms: Vec<f64>,
    run_ms: f64,
    verify_ms: Vec<f64>,
    engine_ms: f64,
    setup_ms: f64,
    rounds: u64,
    messages: u64,
    engine_arena: u64,
    shard_ms: Vec<f64>,
    /// `engine_ms` of the jobs that also ran the sharded replay.
    shard_engine_ms: f64,
    shard_arena: u64,
    io_read: u64,
    io_write: u64,
}

/// Runs batch workload `name`.
#[must_use]
pub fn run(name: &str, scale: Scale, seed: u64, seconds: f64, t: &mut Tracer) -> Outcome {
    let shape = shape(name, scale);
    let start = (splitmix64(seed) % POOL as u64) as usize;
    let mut out = Outcome::default();
    out.note(format!(
        "config: n={} engine.chunk_size={} engine.threads={} shard={:?} verify=true",
        shape.n,
        shape.engine.resolved_chunk_size(),
        shape.engine.resolved_threads(shape.n),
        shape.engine.shard
    ));

    // Set-up: one warm-up job per solver, repeated; the median counts.
    let reps = if t.enabled() { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        for (i, &solver) in shape.solvers.iter().enumerate() {
            let warm = job(solver, shape.warm_n, start, &shape.engine, i as u64);
            match execute(&mut Tracer::new(false), &warm) {
                Ok((_, record)) => out.check("warm-up", pins::intrinsic_problems(&record)),
                Err(e) => out.fail(format!("warm-up {}: {e}", solver.name())),
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
    }

    // Per pass: verified nodes, verified jobs, and their summed wall time.
    let mut passes: Vec<(usize, usize, f64)> = Vec::new();
    let mut walls = Vec::new();
    let mut layers = Layers::default();
    let phase = Instant::now();
    let mut next_id = 1u64;
    loop {
        let entry = (start + passes.len()) % POOL;
        let mut pass = (0, 0, 0.0);
        for &solver in &shape.solvers {
            let job = job(solver, shape.n, entry, &shape.engine, next_id);
            next_id += 1;
            out.attempted += 1;
            let t0 = Instant::now();
            let result = execute(t, &job);
            let wall = t0.elapsed();
            match result {
                Ok((instance, record)) => {
                    let problems = pins::problems(&record);
                    if problems.is_empty() {
                        walls.push(wall.as_secs_f64());
                        pass.0 += record.n;
                        pass.1 += 1;
                        pass.2 += wall.as_secs_f64();
                    }
                    out.check(&job.spec.describe(), problems);
                    if t.enabled() {
                        trace_job(t, &job, &instance, &record, wall, &mut layers, &mut out);
                    }
                }
                Err(e) => out.fail(format!("{} on {}: {e}", solver.name(), job.spec.describe())),
            }
        }
        passes.push(pass);
        // Whole passes only; stop before a pass predicted to end past the
        // budget, and before the pool would repeat an instance.
        let elapsed = phase.elapsed().as_secs_f64();
        if passes.len() >= POOL || elapsed + elapsed / passes.len() as f64 > seconds {
            break;
        }
    }
    out.note(format!(
        "passes={} jobs={} pool_start={start} job walls (s): {}",
        passes.len(),
        out.attempted,
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if t.enabled() {
        layer_metrics(&layers, &mut out);
    }
    // Medians over passes: a pass mixes solvers of very different cost,
    // so each pass is one sample of the workload.
    let ok: Vec<_> = passes.iter().filter(|p| p.1 > 0).collect();
    let per_pass = |f: &dyn Fn(&(usize, usize, f64)) -> f64| {
        median(&ok.iter().map(|p| f(p)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.end_to_end(
        t.enabled(),
        &[
            ("nodes_per_s", per_pass(&|p| p.0 as f64 / p.2)),
            ("jobs_per_s", per_pass(&|p| p.1 as f64 / p.2)),
            ("job_ms_p50", per_pass(&|p| 1e3 * p.2 / p.1 as f64)),
            ("setup_s", median(&setup).unwrap_or(0.0)),
        ],
    );
    out.tail_note(&walls.iter().map(|w| w * 1e3).collect::<Vec<_>>());
    out
}

/// The traced extras of one job: the public verifier, the engine replays
/// (full and zero-round) and, for [`SHARD_SOLVERS`], the sharded replay.
fn trace_job(
    t: &mut Tracer,
    job: &Job,
    instance: &Instance,
    record: &RunRecord,
    wall: Duration,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let id = job.id;
    let tree = instance.tree();
    layers.jobs += 1;
    layers.nodes += record.n;
    layers.job_ms += wall.as_secs_f64() * 1e3;
    layers.build_ms += t.last_ms("InstanceSpec::build", id).unwrap_or(0.0);
    layers.run_ms += t.last_ms("Algorithm::run", id).unwrap_or(0.0);
    if let Some(ms) = t.last_ms("Instance::levels", id) {
        layers.levels_ms.push(ms);
    }

    if let Some(verifier) = Verifier::of(job.solver.name(), &job.spec) {
        let verdict = t.span(verifier.span_name(), id, |_| {
            verifier.check(tree, &record.labels)
        });
        layers
            .verify_ms
            .push(t.last_ms(verifier.span_name(), id).unwrap_or(0.0));
        if let Err(e) = verdict {
            out.fail(format!("{}: public verifier: {e}", job.spec.describe()));
        }
    }

    let native = Native::of(job.solver.name(), record);
    let mono = &job.cfg.engine;
    let full = t.span("replay", id, |t| {
        t.span("lcl_local::run_sync_with", id, |_| {
            native.run(tree, mono, Exec::Monolithic)
        })
    });
    let engine_ms = t.last_ms("lcl_local::run_sync_with", id).unwrap_or(0.0);
    match full {
        Ok(r) => {
            if r.labels != record.labels || r.rounds != record.rounds {
                out.fail(format!(
                    "{}: engine replay differs from the record",
                    job.spec.describe()
                ));
            }
            layers.messages += r.messages;
            layers.engine_arena = layers.engine_arena.max(r.peak_arena_bytes);
        }
        Err(e) => out.fail(format!("{}: engine replay: {e}", job.spec.describe())),
    }
    layers.engine_ms += engine_ms;
    layers.rounds += record.worst_case.max(1);

    let zero = Native::Cast {
        labels: Arc::new(record.labels.clone()),
        rounds: Arc::new(vec![0; record.n]),
    };
    let setup = t.span("replay.setup", id, |t| {
        t.span("lcl_local::run_sync_with", id, |_| {
            zero.run(tree, mono, Exec::Monolithic)
        })
    });
    if let Err(e) = setup {
        out.fail(format!("{}: zero-round replay: {e}", job.spec.describe()));
    }
    layers.setup_ms += t.last_ms("lcl_local::run_sync_with", id).unwrap_or(0.0);

    if SHARD_SOLVERS.contains(&job.solver.name()) {
        let engine = EngineConfig {
            shard: Some(SHARD_REPLAY),
            ..job.cfg.engine.clone()
        };
        let io0 = proc_io();
        let sharded = t.span("replay.sharded", id, |t| {
            t.span("lcl_shard::run_sharded", id, |_| {
                native.run(tree, &engine, Exec::Sharded)
            })
        });
        let io1 = proc_io();
        let shard_ms = t.last_ms("lcl_shard::run_sharded", id).unwrap_or(0.0);
        match sharded {
            Ok(r) => {
                if r.labels != record.labels || r.rounds != record.rounds {
                    out.fail(format!(
                        "{}: sharded replay differs from the record",
                        job.spec.describe()
                    ));
                }
                layers.shard_arena = layers.shard_arena.max(r.peak_arena_bytes);
            }
            Err(e) => out.fail(format!("{}: sharded replay: {e}", job.spec.describe())),
        }
        layers.shard_ms.push(shard_ms);
        layers.io_read += io1.0.saturating_sub(io0.0);
        layers.io_write += io1.1.saturating_sub(io0.1);
        layers.shard_engine_ms += engine_ms;
    }
}

fn layer_metrics(l: &Layers, out: &mut Outcome) {
    if l.jobs == 0 {
        return;
    }
    let jobs = l.jobs as f64;
    let loop_ms = (l.engine_ms - l.setup_ms) / jobs;
    let solve_est = (l.run_ms - l.engine_ms) / jobs;
    out.metric("engine.run_ms", l.engine_ms / jobs);
    out.metric("engine.setup_ms", l.setup_ms / jobs);
    out.metric("engine.loop_ms", loop_ms);
    out.metric("engine.rounds", l.rounds as f64 / jobs);
    out.metric("engine.messages", l.messages as f64 / jobs);
    out.metric(
        "engine.loop_us_per_round",
        (l.engine_ms - l.setup_ms) * 1e3 / l.rounds.max(1) as f64,
    );
    out.metric(
        "engine.setup_ns_per_node",
        l.setup_ms * 1e6 / l.nodes.max(1) as f64,
    );
    out.metric("engine.peak_arena_mib", mib(l.engine_arena));
    out.metric("graph.build_ms", l.build_ms / jobs);
    out.metric("harness.run_ms", l.run_ms / jobs);
    out.metric("algorithms.solve_ms_est", solve_est);
    if !l.levels_ms.is_empty() {
        out.metric("levels.ms", mean(&l.levels_ms));
    }
    if !l.verify_ms.is_empty() {
        out.metric("verify.ms", mean(&l.verify_ms));
    }
    if !l.shard_ms.is_empty() {
        let shards = l.shard_ms.len() as f64;
        out.metric("shard.run_ms", mean(&l.shard_ms));
        out.metric("shard.peak_arena_mib", mib(l.shard_arena));
        out.metric("shard.io_read_mib", mib(l.io_read) / shards);
        out.metric("shard.io_write_mib", mib(l.io_write) / shards);
        out.metric(
            "shard.vs_mono_ratio",
            l.shard_ms.iter().sum::<f64>() / l.shard_engine_ms.max(1e-9),
        );
    }
    let job_ms = l.job_ms / jobs;
    let share = |ms: f64| 100.0 * ms / job_ms.max(1e-9);
    out.note(format!(
        "split of job time {job_ms:.1} ms (estimates): graph.build {:.1}% + levels {:.1}% + \
         algorithms.solve_est {:.1}% + engine.setup {:.1}% + engine.loop {:.1}%",
        share(l.build_ms / jobs),
        share(mean(&l.levels_ms) * l.levels_ms.len() as f64 / jobs),
        share(solve_est),
        share(l.setup_ms / jobs),
        share(loop_ms),
    ));
    out.note(format!(
        "verifier ran on {} of {} jobs",
        l.verify_ms.len(),
        l.jobs
    ));
}

/// `rchar`/`wchar` of `/proc/self/io` (zeros where unavailable).
fn proc_io() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let get = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (get("rchar:"), get("wchar:"))
}

/// A public verifier that applies to a solver's canonical labels.
enum Verifier {
    /// `verify_path_lcl` on a proper-coloring table, after subtracting
    /// `offset` from every label code.
    PathTable { table: PathTable, offset: u64 },
    /// `HierarchicalColoring::verify` (3½ variant) on decoded colors.
    Hierarchical { k: usize },
}

impl Verifier {
    /// The verifier of `solver`'s default problem, if a public one exists.
    fn of(solver: &str, spec: &InstanceSpec) -> Option<Verifier> {
        let coloring = |colors, offset| Verifier::PathTable {
            table: PathTable::proper_coloring(colors),
            offset,
        };
        match solver {
            "two-coloring" => Some(coloring(2, 0)),
            "linial" | "path-lcl" => Some(coloring(3, 0)),
            // Red, Green and Yellow are label codes 4, 5 and 6.
            "randomized" => Some(coloring(3, 4)),
            "generic-coloring" => spec.hierarchy_k().map(|k| Verifier::Hierarchical { k }),
            _ => None,
        }
    }

    fn span_name(&self) -> &'static str {
        match self {
            Verifier::PathTable { .. } => "verify_path_lcl",
            Verifier::Hierarchical { .. } => "HierarchicalColoring::verify",
        }
    }

    fn check(&self, tree: &Tree, labels: &[u64]) -> Result<(), String> {
        match self {
            Verifier::PathTable { table, offset } => {
                let decoded: Vec<u64> = labels
                    .iter()
                    .map(|&l| l.checked_sub(*offset).unwrap_or(u64::MAX))
                    .collect();
                verify_path_lcl(tree, table, &decoded)
            }
            Verifier::Hierarchical { k } => {
                let colors = labels
                    .iter()
                    .map(|&l| color_of(l).ok_or_else(|| format!("label {l} is not a color")))
                    .collect::<Result<Vec<_>, _>>()?;
                HierarchicalColoring::new(*k, Variant::ThreeHalf)
                    .verify(tree, &vec![(); labels.len()], &colors)
                    .map_err(|v| v.to_string())
            }
        }
    }
}

/// The harness's stable label code of a color (its golden encoding).
fn color_code(c: ColorLabel) -> u64 {
    match c {
        ColorLabel::White => 0,
        ColorLabel::Black => 1,
        ColorLabel::Exempt => 2,
        ColorLabel::Decline => 3,
        ColorLabel::Red => 4,
        ColorLabel::Green => 5,
        ColorLabel::Yellow => 6,
    }
}

fn color_of(code: u64) -> Option<ColorLabel> {
    [
        ColorLabel::White,
        ColorLabel::Black,
        ColorLabel::Exempt,
        ColorLabel::Decline,
        ColorLabel::Red,
        ColorLabel::Green,
        ColorLabel::Yellow,
    ]
    .into_iter()
    .find(|&c| color_code(c) == code)
}

/// The engine-level protocol a job ran, rebuilt for a replay.
enum Native {
    /// `WaveTwoColoring` on random ids.
    Wave { seed: u64 },
    /// `LinialCascade` on random ids.
    Linial { seed: u64 },
    /// `RandomizedColoring` on sequential ids.
    Randomized { seed: u64 },
    /// `ScheduledCast` machines replaying a solved plan.
    Cast {
        labels: Arc<Vec<u64>>,
        rounds: Arc<Vec<u64>>,
    },
}

#[derive(Clone, Copy)]
enum Exec {
    Monolithic,
    Sharded,
}

/// What a replay produced.
struct Replayed {
    labels: Vec<u64>,
    rounds: Vec<u64>,
    messages: u64,
    peak_arena_bytes: u64,
}

impl Native {
    fn of(solver: &str, record: &RunRecord) -> Native {
        match solver {
            "two-coloring" => Native::Wave { seed: record.seed },
            "linial" => Native::Linial { seed: record.seed },
            "randomized" => Native::Randomized { seed: record.seed },
            _ => Native::Cast {
                labels: Arc::new(record.labels.clone()),
                rounds: Arc::new(record.rounds.clone()),
            },
        }
    }

    fn run(&self, tree: &Tree, engine: &EngineConfig, exec: Exec) -> Result<Replayed, String> {
        let n = tree.node_count();
        match self {
            Native::Wave { seed } => exec_protocol(
                tree,
                &Ids::random(n, *seed),
                |_| WaveTwoColoring::new(),
                n as u64 + 2,
                engine,
                exec,
                color_code,
            ),
            Native::Linial { seed } => {
                let ids = Ids::random(n, *seed);
                let space = cascade_space(&ids, 2);
                exec_protocol(
                    tree,
                    &ids,
                    |c: &NodeContext| LinialCascade::new(c.id, space, 2),
                    linial_round_count(space, 2) + 2,
                    engine,
                    exec,
                    |c| c,
                )
            }
            Native::Randomized { seed } => exec_protocol(
                tree,
                &Ids::sequential(n),
                |c: &NodeContext| RandomizedColoring::new(*seed, c.id as usize),
                RandomizedColoring::round_budget(n),
                engine,
                exec,
                color_code,
            ),
            Native::Cast { labels, rounds } => exec_protocol(
                tree,
                &Ids::sequential(n),
                scheduled_cast_factory(labels.clone(), rounds.clone()),
                plan_round_budget(rounds),
                engine,
                exec,
                |c| c,
            ),
        }
    }
}

fn exec_protocol<P, F>(
    tree: &Tree,
    ids: &Ids,
    factory: F,
    budget: u64,
    engine: &EngineConfig,
    exec: Exec,
    code: impl Fn(P::Output) -> u64,
) -> Result<Replayed, String>
where
    P: Protocol,
    P::Message: PackableMessage,
    F: FnMut(&NodeContext) -> P,
{
    let outcome = match exec {
        Exec::Monolithic => {
            run_sync_with(tree, ids, factory, budget, engine).map_err(|e| e.to_string())?
        }
        Exec::Sharded => {
            run_sharded(tree, ids, factory, budget, engine).map_err(|e| e.to_string())?
        }
    };
    Ok(Replayed {
        rounds: outcome.stats.as_slice().to_vec(),
        labels: outcome.outputs.into_iter().map(code).collect(),
        messages: outcome.messages,
        peak_arena_bytes: outcome.peak_arena_bytes,
    })
}

/// Solves every pooled job of every batch workload at both scales on the
/// single-threaded monolithic engine and returns the `pins.tsv` lines.
///
/// # Errors
///
/// The first job that fails to run.
pub fn pin_lines() -> Result<Vec<String>, String> {
    let single = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let mut lines = Vec::new();
    for scale in [Scale::Full, Scale::Tiny] {
        for name in NAMES {
            let shape = shape(name, scale);
            for entry in 0..POOL {
                for &solver in &shape.solvers {
                    let job = job(solver, shape.n, entry, &single, 0);
                    let (_, record) = execute(&mut Tracer::new(false), &job)?;
                    let problems = pins::intrinsic_problems(&record);
                    if !problems.is_empty() {
                        return Err(problems.join("; "));
                    }
                    lines.push(pins::line(&record));
                }
            }
            eprintln!("pinned {name} at {scale:?}");
        }
    }
    lines.sort();
    lines.dedup();
    Ok(lines)
}
