//! `serve_live`: the serving path under live updates. A durable
//! `ServeCore` (warm set {CC, SSSP:0}, 2 ms admission window, WAL synced
//! every batch, checkpoint every 16 batches) is served on loopback and
//! driven by two connections, one thread each, both open loop:
//!
//! - A sends queries at 60 q/s in `gograph_loadgen`'s mix, each timed
//!   from its due time, then runs closed-loop bursts for capacity while
//!   the updates keep flowing;
//! - B sends 8 batches/s of 32 updates and, after each ack, polls Stats
//!   until the batch is applied.
//!
//! A traced run then drives the same schedule in process through
//! `ServeCore::execute_query`, `enqueue_updates` and `pin_epoch`.

use crate::gates::{compare, Agreement};
use crate::report::Outcome;
use crate::stats::{median, percentile, Percentile};
use crate::trace::Tracer;
use crate::{RunArgs, Size};
use gograph_core::{metric, GoGraph};
use gograph_engine::{Mode, Pipeline, Sssp};
use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
use gograph_graph::{CsrGraph, EdgeUpdate, VertexId};
use gograph_partition::{Partitioner, RabbitPartition};
use gograph_serve::{
    serve, AlgSpec, DurabilityConfig, ModeSpec, QueryRequest, ServeClient, ServeConfig, ServeCore,
    ServerHandle, StatsSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const QUERY_RATE: f64 = 60.0;
const UPDATE_RATE: f64 = 8.0;
/// 27 insertions and 5 removals per batch: the 85/15 mix.
const UPDATE_INSERTS: usize = 27;
const UPDATE_REMOVES: usize = 5;
/// Queries per closed-loop burst; `job_s` is the median burst time.
const BURST: usize = 100;
const MIN_BURSTS: usize = 3;
/// Share of the run's seconds spent in the open-loop phase; the rest
/// goes to the closed-loop bursts.
const OPEN_SHARE: f64 = 0.85;
/// Share of the run's seconds a traced run adds for the in-process phase.
const CORE_SHARE: f64 = 0.3;
const BOOTS: usize = 7;
/// How long a batch may take to publish before it counts as failed.
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// The default `gograph_serve` graph (planted partition, shuffled
/// labels, its generator seeds 42 and 7). The run's seed draws the
/// traffic: query sources and targets, and update batches.
pub fn input(size: Size) -> CsrGraph {
    let (n, m) = match size {
        Size::Tiny => (400, 2_400),
        Size::Standard => (40_000, 240_000),
    };
    shuffle_labels(
        &planted_partition(PlantedPartitionConfig {
            num_vertices: n,
            num_edges: m,
            communities: (n / 100).max(4),
            p_intra: 0.8,
            gamma: 2.4,
            seed: 42,
        }),
        7,
    )
}

/// Removes a durable-state directory when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running server and its durable state. Fields drop in order: the
/// server shuts down (writing its last checkpoint) before its directory
/// is removed.
struct Booted {
    server: ServerHandle,
    _dir: ScratchDir,
}

/// Generates a graph and boots a durable server on loopback.
fn boot(size: Size, dir: PathBuf) -> Result<(Booted, CsrGraph), String> {
    let dir = ScratchDir(dir);
    let _ = std::fs::remove_dir_all(&dir.0);
    let g = input(size);
    let config = ServeConfig {
        durability: Some(DurabilityConfig::new(&dir.0)),
        ..ServeConfig::default()
    };
    let core = ServeCore::start(&g, config).map_err(|e| format!("boot: {e}"))?;
    let server = serve("127.0.0.1:0", core).map_err(|e| format!("bind: {e}"))?;
    Ok((Booted { server, _dir: dir }, g))
}

#[derive(Clone, Copy)]
enum Kind {
    WarmSssp,
    Sssp,
    Bfs,
    Cc,
}

/// `gograph_loadgen`'s query mix (55% SSSP from the warm source 0, 25%
/// SSSP and 10% BFS from random sources, 10% CC), dealt in shuffled
/// blocks of 20 so every block holds exactly those shares.
struct QueryMix {
    rng: StdRng,
    block: Vec<Kind>,
    n: u32,
}

impl QueryMix {
    fn new(seed: u64, n: u32) -> QueryMix {
        QueryMix {
            rng: StdRng::seed_from_u64(seed),
            block: Vec::new(),
            n,
        }
    }

    fn next(&mut self) -> (AlgSpec, Vec<VertexId>, VertexId) {
        if self.block.is_empty() {
            let shares = [
                (Kind::WarmSssp, 11),
                (Kind::Sssp, 5),
                (Kind::Bfs, 2),
                (Kind::Cc, 2),
            ];
            for (kind, count) in shares {
                self.block.extend(std::iter::repeat_n(kind, count));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("refilled above");
        let random = self.rng.random_range(0..self.n);
        let target = self.rng.random_range(0..self.n);
        let (alg, sources) = match kind {
            Kind::WarmSssp => (AlgSpec::Sssp, vec![0]),
            Kind::Sssp => (AlgSpec::Sssp, vec![random]),
            Kind::Bfs => (AlgSpec::Bfs, vec![random]),
            Kind::Cc => (AlgSpec::Cc, vec![]),
        };
        (alg, sources, target)
    }
}

/// Update batches: insertions between random distinct vertices with
/// weights in [1, 10), removals of random edges of the initial graph.
struct UpdateGen {
    rng: StdRng,
    n: u32,
    edges: Vec<(VertexId, VertexId)>,
}

impl UpdateGen {
    fn new(seed: u64, g: &CsrGraph) -> UpdateGen {
        UpdateGen {
            rng: StdRng::seed_from_u64(seed),
            n: g.num_vertices() as u32,
            edges: g.edges().map(|e| (e.src, e.dst)).collect(),
        }
    }

    fn next_batch(&mut self) -> Vec<EdgeUpdate> {
        let mut batch = Vec::with_capacity(UPDATE_INSERTS + UPDATE_REMOVES);
        while batch.len() < UPDATE_INSERTS {
            let (src, dst) = (
                self.rng.random_range(0..self.n),
                self.rng.random_range(0..self.n),
            );
            if src != dst {
                let w = self.rng.random_range(1.0..10.0);
                batch.push(EdgeUpdate::insert_weighted(src, dst, w));
            }
        }
        for _ in 0..UPDATE_REMOVES {
            let (src, dst) = self.edges[self.rng.random_range(0..self.edges.len())];
            batch.push(EdgeUpdate::remove(src, dst));
        }
        batch
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Connection A's measurements.
struct QueryLog {
    from_due_ms: Vec<f64>,
    /// The subset of `from_due_ms` for SSSP from the warm source.
    warm_from_due_ms: Vec<f64>,
    from_send_ms: Vec<f64>,
    runtime_ms: Vec<f64>,
    late_ms: Vec<f64>,
    burst_s: Vec<f64>,
    traced_burst_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

/// Connection B's measurements.
struct UpdateLog {
    ack_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

/// The schedule of one measured session.
#[derive(Clone, Copy)]
struct Plan {
    seed: u64,
    start: Instant,
    open: Duration,
    capacity: Duration,
    trace: bool,
    origin: Instant,
}

fn queries(addr: SocketAddr, n: u32, plan: Plan) -> Result<QueryLog, String> {
    let mut c = ServeClient::connect(addr).map_err(|e| format!("query connection: {e}"))?;
    let mut mix = QueryMix::new(plan.seed.wrapping_add(10), n);
    let mut log = QueryLog {
        from_due_ms: Vec::new(),
        warm_from_due_ms: Vec::new(),
        from_send_ms: Vec::new(),
        runtime_ms: Vec::new(),
        late_ms: Vec::new(),
        burst_s: Vec::new(),
        traced_burst_s: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::new(plan.trace, plan.origin),
    };
    let open_end = plan.start + plan.open;
    for i in 0u64.. {
        let due = plan.start + Duration::from_secs_f64(i as f64 / QUERY_RATE);
        if due >= open_end {
            break;
        }
        sleep_until(due);
        let sent = Instant::now();
        let (alg, sources, target) = mix.next();
        let warm_source = alg == AlgSpec::Sssp && sources == [0];
        let reply = c.query(alg, ModeSpec::Async, true, &sources, &[target]);
        let done = Instant::now();
        log.attempted += 1;
        match reply {
            Ok(r) if r.converged => {
                let runtime = Duration::from_micros(r.runtime_micros);
                log.from_due_ms.push(ms(done - due));
                if warm_source {
                    log.warm_from_due_ms.push(ms(done - due));
                }
                log.from_send_ms.push(ms(done - sent));
                log.runtime_ms.push(ms(runtime));
                log.late_ms.push(ms(sent - due));
                let root = log.tracer.record("serve.query", None, i, sent, done);
                let engine_start = done.checked_sub(runtime).unwrap_or(sent).max(sent);
                log.tracer
                    .record("engine.query", root, i, engine_start, done);
            }
            _ => log.failed += 1,
        }
    }

    // Closed-loop bursts for capacity, updates still flowing. A traced
    // run alternates traced and untraced bursts.
    let capacity_end = open_end + plan.capacity;
    let min_bursts = if plan.trace {
        MIN_BURSTS + 1
    } else {
        MIN_BURSTS
    };
    let mut longest = Duration::ZERO;
    let mut b = 0;
    while b < min_bursts || Instant::now() + longest <= capacity_end {
        let traced = plan.trace && b.is_multiple_of(2);
        let t = Instant::now();
        let root = if traced {
            log.tracer.open("serve.burst", None, b as u64)
        } else {
            None
        };
        for q in 0..BURST {
            let (alg, sources, target) = mix.next();
            let sent = Instant::now();
            let reply = c.query(alg, ModeSpec::Async, true, &sources, &[target]);
            log.attempted += 1;
            if traced {
                log.tracer
                    .record("serve.burst_query", root, q as u64, sent, Instant::now());
            }
            if !matches!(reply, Ok(ref r) if r.converged) {
                log.failed += 1;
            }
        }
        log.tracer.close(root);
        let took = t.elapsed();
        longest = longest.max(took);
        if traced {
            log.traced_burst_s.push(took.as_secs_f64());
        } else {
            log.burst_s.push(took.as_secs_f64());
        }
        b += 1;
    }
    Ok(log)
}

fn updates(
    addr: SocketAddr,
    g: &CsrGraph,
    plan: Plan,
    stop: &AtomicBool,
) -> Result<UpdateLog, String> {
    let mut c = ServeClient::connect(addr).map_err(|e| format!("update connection: {e}"))?;
    let mut gen = UpdateGen::new(plan.seed.wrapping_add(20), g);
    let mut log = UpdateLog {
        ack_ms: Vec::new(),
        publish_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::new(plan.trace, plan.origin),
    };
    let before = c.stats().map_err(|e| format!("stats: {e}"))?;
    let mut errors = before.mutator_errors;
    for j in 0u64.. {
        let due = plan.start + Duration::from_secs_f64(j as f64 / UPDATE_RATE);
        sleep_until(due);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let batch = gen.next_batch();
        let sent = Instant::now();
        log.attempted += 1;
        if c.send_updates(&batch).is_err() {
            log.failed += 1;
            continue;
        }
        let acked = Instant::now();
        log.ack_ms.push(ms(acked - due));
        log.tracer.record("serve.update_ack", None, j, sent, acked);
        let target = before.batches_enqueued + j + 1;
        loop {
            let s = c.stats().map_err(|e| format!("stats: {e}"))?;
            if s.batches_applied + s.mutator_errors >= target {
                if s.mutator_errors > errors {
                    errors = s.mutator_errors;
                    log.failed += 1;
                } else {
                    let seen = Instant::now();
                    log.publish_ms.push(ms(seen - due));
                    log.tracer
                        .record("serve.publish_wait", None, j, acked, seen);
                }
                break;
            }
            if acked.elapsed() > PUBLISH_TIMEOUT {
                log.failed += 1;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(log)
}

/// Runs connections A and B against the server until A is done.
fn session(addr: SocketAddr, g: &CsrGraph, plan: Plan) -> Result<(QueryLog, UpdateLog), String> {
    let stop = AtomicBool::new(false);
    let n = g.num_vertices() as u32;
    std::thread::scope(|s| {
        let b = s.spawn(|| updates(addr, g, plan, &stop));
        let a = s.spawn(|| queries(addr, n, plan));
        let a = a.join().expect("query thread");
        stop.store(true, Ordering::SeqCst);
        let b = b.join().expect("update thread");
        Ok((a?, b?))
    })
}

/// The same schedule in process: query, enqueue and publish latencies of
/// the core without the transport.
struct CoreLog {
    query_ms: Vec<f64>,
    enqueue_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn core_session(core: &ServeCore, g: &CsrGraph, seed: u64, duration: Duration) -> CoreLog {
    let n = g.num_vertices() as u32;
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + duration;
    let stop = AtomicBool::new(false);
    let (queried, updated) = std::thread::scope(|s| {
        let b = s.spawn(|| {
            let mut gen = UpdateGen::new(seed.wrapping_add(40), g);
            let (mut enqueue_ms, mut publish_ms, mut attempted, mut failed) =
                (Vec::new(), Vec::new(), 0u64, 0u64);
            for j in 0u64.. {
                sleep_until(start + Duration::from_secs_f64(j as f64 / UPDATE_RATE));
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let batch = gen.next_batch();
                let before = core.pin_epoch().epoch;
                let t = Instant::now();
                attempted += 1;
                if core.enqueue_updates(batch).is_err() {
                    failed += 1;
                    continue;
                }
                enqueue_ms.push(ms(t.elapsed()));
                loop {
                    if core.pin_epoch().epoch > before {
                        publish_ms.push(ms(t.elapsed()));
                        break;
                    }
                    if t.elapsed() > PUBLISH_TIMEOUT {
                        failed += 1;
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            (enqueue_ms, publish_ms, attempted, failed)
        });
        let a = s.spawn(|| {
            let mut mix = QueryMix::new(seed.wrapping_add(30), n);
            let (mut query_ms, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
            for i in 0u64.. {
                let due = start + Duration::from_secs_f64(i as f64 / QUERY_RATE);
                if due >= end {
                    break;
                }
                sleep_until(due);
                let (alg, sources, _) = mix.next();
                let t = Instant::now();
                let outcome = core.execute_query(QueryRequest {
                    alg,
                    mode: ModeSpec::Async,
                    sources,
                    combine: true,
                    max_epoch_lag: None,
                });
                attempted += 1;
                match outcome {
                    Ok(o) if o.converged => query_ms.push(ms(t.elapsed())),
                    _ => failed += 1,
                }
            }
            (query_ms, attempted, failed)
        });
        let a = a.join().expect("in-process query thread");
        stop.store(true, Ordering::SeqCst);
        (a, b.join().expect("in-process update thread"))
    });
    CoreLog {
        query_ms: queried.0,
        enqueue_ms: updated.0,
        publish_ms: updated.1,
        attempted: queried.1 + updated.2,
        failed: queried.2 + updated.3,
    }
}

/// The serve gate: after the mutator drained every batch, an SSSP(0)
/// reply over TCP equals a direct engine run on the pinned final epoch.
fn check(server: &ServerHandle) -> Result<(), String> {
    let core = server.core();
    core.quiesce();
    let epoch = core.pin_epoch();
    let n = epoch.graph.num_vertices() as VertexId;
    let mut c =
        ServeClient::connect(server.local_addr()).map_err(|e| format!("gate connection: {e}"))?;
    let targets: Vec<VertexId> = (0..n).collect();
    let reply = c
        .query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &targets)
        .map_err(|e| format!("gate query: {e}"))?;
    let direct = Pipeline::on(&epoch.graph)
        .order_ref(&epoch.order)
        .mode(Mode::Async)
        .algorithm(Sssp::new(0))
        .execute()
        .map_err(|e| format!("gate engine run: {e}"))?;
    check_reply(
        &reply.values,
        reply.epoch,
        epoch.epoch,
        &direct.stats.final_states,
    )
}

fn check_reply(
    values: &[(VertexId, f64)],
    reply_epoch: u64,
    epoch: u64,
    expected: &[f64],
) -> Result<(), String> {
    if reply_epoch != epoch {
        return Err(format!(
            "gate reply ran on epoch {reply_epoch}, final epoch is {epoch}"
        ));
    }
    if values
        .iter()
        .enumerate()
        .any(|(i, &(v, _))| v as usize != i)
    {
        return Err("gate reply lists targets out of order".into());
    }
    let got: Vec<f64> = values.iter().map(|&(_, x)| x).collect();
    compare(
        "SSSP(0) reply vs engine on the final epoch",
        expected,
        &got,
        Agreement::Exact,
    )
}

fn delta(a: &StatsSnapshot, b: &StatsSnapshot, f: fn(&StatsSnapshot) -> u64) -> f64 {
    (f(b) - f(a)) as f64
}

fn describe(name: &str, p: &Percentile) -> String {
    format!(
        "{name} {:.3} ms (n={}, {} beyond)",
        p.value, p.samples, p.beyond
    )
}

pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let origin = Instant::now();
    let mut setups = Vec::with_capacity(BOOTS);
    let mut booted = None;
    for k in 0..BOOTS {
        let dir = crate::scratch_dir().join(format!("serve-{}-{k}", std::process::id()));
        drop(booted.take());
        let t = Instant::now();
        booted = Some(boot(Size::Standard, dir)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (booted, g) = booted.expect("at least one boot");
    let server = &booted.server;
    let addr = server.local_addr();
    eprintln!(
        "serve_live: |V|={} |E|={} on {addr}, boot {:.3}s",
        g.num_vertices(),
        g.num_edges(),
        median(&setups)
    );

    let core = server.core();
    let before = core.stats_snapshot();
    let open = Duration::from_secs_f64(args.seconds * OPEN_SHARE);
    let plan = Plan {
        seed: args.seed,
        start: Instant::now() + Duration::from_millis(20),
        open,
        capacity: Duration::from_secs_f64(args.seconds) - open,
        trace: args.trace,
        origin,
    };
    let (qlog, ulog) = session(addr, &g, plan)?;
    let after = core.stats_snapshot();
    let peak = crate::record::peak_rss_mib();
    out.attempted += qlog.attempted + ulog.attempted;
    out.failed += qlog.failed + ulog.failed;

    check(server)?;

    let warm_p50 = percentile(&qlog.warm_from_due_ms, 0.50)?;
    let query_p50 = percentile(&qlog.from_due_ms, 0.50)?;
    let query_p99 = percentile(&qlog.from_due_ms, 0.99)?;
    let ack_p50 = percentile(&ulog.ack_ms, 0.50)?;
    let ack_p90 = percentile(&ulog.ack_ms, 0.90)?;
    let publish_p50 = percentile(&ulog.publish_ms, 0.50)?;
    let publish_p90 = percentile(&ulog.publish_ms, 0.90)?;
    let capacity = BURST as f64 / median(&qlog.burst_s);
    let error_frac = out.failed as f64 / out.attempted as f64;

    if args.trace {
        let runtime_p50 = percentile(&qlog.runtime_ms, 0.50)?;
        let outside: Vec<f64> = qlog
            .from_send_ms
            .iter()
            .zip(&qlog.runtime_ms)
            .map(|(l, r)| l - r)
            .collect();
        out.set("engine.query_runtime_p50_ms", runtime_p50.value);
        out.set(
            "serve.outside_engine_p50_ms",
            percentile(&outside, 0.50)?.value,
        );
        out.set(
            "loadgen.late_p99_ms",
            percentile(&qlog.late_ms, 0.99)?.value,
        );
        let queries = delta(&before, &after, |s| s.queries);
        let executions =
            delta(&before, &after, |s| s.warm_hits) + delta(&before, &after, |s| s.cold_runs);
        out.set(
            "serve.warm_hit_ratio",
            delta(&before, &after, |s| s.warm_hits) / executions,
        );
        out.set(
            "serve.coalesced_ratio",
            delta(&before, &after, |s| s.coalesced) / queries,
        );
        out.set(
            "serve.query_rounds",
            delta(&before, &after, |s| s.query_rounds),
        );
        out.set(
            "serve.mutator_rounds",
            delta(&before, &after, |s| s.mutator_rounds),
        );
        out.set("serve.wal_bytes", delta(&before, &after, |s| s.wal_bytes));
        out.set(
            "serve.checkpoints_written",
            delta(&before, &after, |s| s.checkpoints_written),
        );
        out.set(
            "serve.checkpoint_bytes",
            delta(&before, &after, |s| s.checkpoint_bytes_written),
        );
        out.set("query_p50_ms", query_p50.value);
        out.set("query_p99_ms", query_p99.value);
        out.set("update_ack_p50_ms", ack_p50.value);
        out.set("update_ack_p90_ms", ack_p90.value);
        out.set("publish_p50_ms", publish_p50.value);
        out.set("publish_p90_ms", publish_p90.value);
        out.set("capacity_qps", capacity);
        out.set("error_frac", error_frac);
        let mut tracer = qlog.tracer;
        tracer.merge(ulog.tracer);
        out.set(
            "trace.unattributed_frac",
            tracer.unattributed_frac("serve.query"),
        );
        out.set(
            "trace.overhead_frac",
            median(&qlog.traced_burst_s) / median(&qlog.burst_s) - 1.0,
        );

        // The same schedule in process, without the transport.
        let clog = core_session(
            core,
            &g,
            args.seed,
            Duration::from_secs_f64(args.seconds * CORE_SHARE),
        );
        out.attempted += clog.attempted;
        out.failed += clog.failed;
        out.set(
            "serve.core.query_p50_ms",
            percentile(&clog.query_ms, 0.50)?.value,
        );
        out.set(
            "serve.core.enqueue_p50_ms",
            percentile(&clog.enqueue_ms, 0.50)?.value,
        );
        out.set(
            "serve.core.publish_p50_ms",
            percentile(&clog.publish_ms, 0.50)?.value,
        );
        check(server)?;

        let t = Instant::now();
        let order = GoGraph::default().run(&g);
        out.set("core.reorder_s", t.elapsed().as_secs_f64());
        out.set(
            "core.metric_fraction",
            metric(&g, &order) as f64 / g.num_edges() as f64,
        );
        let t = Instant::now();
        std::hint::black_box(RabbitPartition::default().partition(&g));
        out.set("partition.rabbit_s", t.elapsed().as_secs_f64());
        crate::write_trace(args, out.workload, &tracer)?;
    } else {
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", peak);
        out.set("job_s", median(&qlog.burst_s));
        // The whole mix's median sits where the warm-source majority
        // (55%) meets the slower classes, so a few slow warm queries
        // move it across that edge; the majority class's own median
        // does not.
        out.set("latency_p50_ms", warm_p50.value);
        out.lines.push(format!(
            "job_s {:.4} s (median of {} closed-loop bursts of {BURST} queries) = capacity_qps {:.1}; setup_s {:.4} s (median of {BOOTS} boots)",
            median(&qlog.burst_s),
            qlog.burst_s.len(),
            capacity,
            median(&setups),
        ));
        out.lines.push(format!(
            "{} (SSSP from the warm source); {}; {} (open loop at {QUERY_RATE} q/s, from due time)",
            describe("latency_p50_ms", &warm_p50),
            describe("query_p50_ms", &query_p50),
            describe("query_p99_ms", &query_p99),
        ));
        out.lines.push(format!(
            "{}; {}; {}; {} ({UPDATE_RATE} batches/s, from due time)",
            describe("update_ack_p50_ms", &ack_p50),
            describe("update_ack_p90_ms", &ack_p90),
            describe("publish_p50_ms", &publish_p50),
            describe("publish_p90_ms", &publish_p90),
        ));
        out.lines.push(format!(
            "error_frac {error_frac} ({} of {})",
            out.failed, out.attempted
        ));
    }
    if out.failed > 0 {
        return Err(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sessions_pass_the_gate_on_two_seeds() {
        for seed in [3, 11] {
            let dir = std::env::temp_dir().join(format!(
                "perfbench-serve-test-{}-{seed}",
                std::process::id()
            ));
            let (booted, g) = boot(Size::Tiny, dir).unwrap();
            let server = &booted.server;
            let origin = Instant::now();
            let plan = Plan {
                seed,
                start: Instant::now(),
                open: Duration::from_millis(600),
                capacity: Duration::from_millis(100),
                trace: true,
                origin,
            };
            let (q, u) = session(server.local_addr(), &g, plan).unwrap();
            assert_eq!((q.failed, u.failed), (0, 0));
            assert!(q.from_due_ms.len() >= 30);
            assert!(!u.publish_ms.is_empty());
            assert_eq!(q.burst_s.len() + q.traced_burst_s.len(), MIN_BURSTS + 1);
            let c = core_session(server.core(), &g, seed, Duration::from_millis(400));
            assert_eq!(c.failed, 0);
            assert!(!c.publish_ms.is_empty());
            check(server).unwrap();
        }
    }

    #[test]
    fn a_corrupted_reply_fails_the_gate() {
        let expected = vec![0.0, 2.0, f64::INFINITY];
        let values: Vec<(VertexId, f64)> = vec![(0, 0.0), (1, 2.0), (2, f64::INFINITY)];
        check_reply(&values, 4, 4, &expected).unwrap();
        let mut bad = values.clone();
        bad[1].1 = 3.0;
        assert!(check_reply(&bad, 4, 4, &expected).is_err());
        assert!(check_reply(&values, 3, 4, &expected).is_err());
        assert!(check_reply(&values[..2], 4, 4, &expected).is_err());
    }

    #[test]
    fn the_query_mix_holds_its_shares() {
        let mut mix = QueryMix::new(1, 1000);
        let mut counts = [0; 4];
        for _ in 0..200 {
            let (alg, sources, _) = mix.next();
            let i = match (alg, sources.as_slice()) {
                (AlgSpec::Sssp, [0]) => 0,
                (AlgSpec::Sssp, _) => 1,
                (AlgSpec::Bfs, _) => 2,
                _ => 3,
            };
            counts[i] += 1;
        }
        // A random SSSP source can be 0 too; allow for it.
        assert!(
            counts[0] >= 110 && counts[0] + counts[1] == 160,
            "{counts:?}"
        );
        assert_eq!((counts[2], counts[3]), (20, 20));
    }
}
