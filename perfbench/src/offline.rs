//! `offline_flat` and `offline_compressed`: the paper's pipeline. A
//! shuffled, weighted RMAT graph is reordered by GoGraph, relabeled
//! (and, for `offline_compressed`, compressed), then BFS, SSSP, PageRank
//! and CC run to convergence under `Mode::Async` and `Mode::Parallel(2)`.

use crate::gates::{compare, Agreement, PAGERANK_TOLERANCE};
use crate::report::{Outcome, Workload};
use crate::stats::{median, sum_of_step_medians};
use crate::trace::{SpanId, Tracer};
use crate::{RunArgs, Size};
use gograph_core::{metric, GoGraph};
use gograph_engine::{
    Bfs, ConnectedComponents, IterativeAlgorithm, Mode, PageRank, Pipeline, Sssp,
};
use gograph_engine::{ConvergenceNorm, Monotonicity};
use gograph_graph::generators::{rmat, shuffle_labels, with_random_weights, RmatConfig};
use gograph_graph::stats::bytes_per_edge;
use gograph_graph::{CsrGraph, VertexId, Weight};
use gograph_partition::{Partitioner, RabbitPartition};
use std::time::Instant;

/// Algorithms in job order; index into [`Job::states`] is
/// `mode * 4 + algorithm`.
const ALGORITHMS: [&str; 4] = ["bfs", "sssp", "pagerank", "cc"];
const MODES: [(&str, Mode); 2] = [("async", Mode::Async), ("parallel2", Mode::Parallel(2))];
/// Span names, in the same order as the job's kernel runs.
const KERNEL_SPANS: [&str; 8] = [
    "engine.async.bfs",
    "engine.async.sssp",
    "engine.async.pagerank",
    "engine.async.cc",
    "engine.parallel2.bfs",
    "engine.parallel2.sssp",
    "engine.parallel2.pagerank",
    "engine.parallel2.cc",
];
/// Fewest jobs per run: three medians' worth, and enough kernel runs
/// for a p50 with ten samples beyond it.
const MIN_JOBS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn algorithm(name: &str, source: VertexId) -> Box<dyn IterativeAlgorithm> {
    match name {
        "bfs" => Box::new(Bfs::new(source)),
        "sssp" => Box::new(Sssp::new(source)),
        "pagerank" => Box::new(PageRank::default()),
        _ => Box::new(ConnectedComponents),
    }
}

/// CC's labels are vertex ids, so a run on relabeled ids computes
/// different labels than a run on input ids. This is CC on input ids
/// with every vertex starting from its *relabeled* id: the same
/// computation as the relabeled run, expressed in input ids.
struct CarriedLabelCc {
    labels: Vec<f64>,
}

impl IterativeAlgorithm for CarriedLabelCc {
    fn name(&self) -> &'static str {
        "cc-carried-labels"
    }
    fn init(&self, _g: &CsrGraph, v: VertexId) -> f64 {
        self.labels[v as usize]
    }
    fn gather_identity(&self) -> f64 {
        f64::INFINITY
    }
    fn gather(&self, acc: f64, neighbor_state: f64, _w: Weight, _d: usize) -> f64 {
        acc.min(neighbor_state)
    }
    fn apply(&self, _g: &CsrGraph, _v: VertexId, current: f64, acc: f64) -> f64 {
        current.min(acc)
    }
    fn monotonicity(&self) -> Monotonicity {
        Monotonicity::Decreasing
    }
    fn norm(&self) -> ConvergenceNorm {
        ConvergenceNorm::Max
    }
    fn epsilon(&self) -> f64 {
        0.0
    }
    fn supports_push(&self) -> bool {
        true
    }
    fn uses_edge_weights(&self) -> bool {
        false
    }
}

fn agreement(name: &str) -> Agreement {
    if name == "pagerank" {
        Agreement::Within(PAGERANK_TOLERANCE)
    } else {
        Agreement::Exact
    }
}

/// The workload's input: a graph500 RMAT graph with shuffled labels and
/// uniform weights in [1, 10), all drawn from `seed`.
pub fn input(seed: u64, size: Size) -> CsrGraph {
    let scale = match size {
        Size::Tiny => 10,
        Size::Standard => 18,
    };
    let natural = rmat(RmatConfig::graph500(scale, 8, seed));
    let shuffled = shuffle_labels(&natural, seed.wrapping_add(1));
    with_random_weights(&shuffled, 1.0, 10.0, seed.wrapping_add(2))
}

/// The BFS/SSSP source, in input ids: the vertex of largest out-degree.
pub fn source_of(g: &CsrGraph) -> VertexId {
    g.vertices().max_by_key(|&v| g.out_degree(v)).unwrap_or(0)
}

/// One job's results.
pub struct Job {
    /// The GoGraph order (input id → position).
    pub order: gograph_graph::Permutation,
    /// The relabeled graph on flat storage.
    pub relabeled: CsrGraph,
    /// The graph the kernels ran on (flat or compressed).
    pub run_graph: CsrGraph,
    /// Final states in relabeled ids, `mode * 4 + algorithm`.
    pub states: Vec<Vec<f64>>,
    pub rounds: Vec<usize>,
    pub push_rounds: usize,
    pub non_converged: usize,
    /// Wall time of each step: reorder, relabel, (compress,) 8 kernels.
    pub step_seconds: Vec<f64>,
}

/// Input in memory → every final state ready. Spans cover each call
/// into a layer; `job` is their parent.
pub fn run_job(
    g: &CsrGraph,
    source: VertexId,
    compressed: bool,
    tr: &mut Tracer,
    request: u64,
) -> Job {
    let job: Option<SpanId> = tr.open("offline.job", None, request);
    let mut step_seconds = Vec::with_capacity(11);
    let (order, took) = tr.span("core.reorder", job, request, || GoGraph::default().run(g));
    step_seconds.push(took.as_secs_f64());
    let (relabeled, took) = tr.span("graph.relabel", job, request, || g.relabeled(&order));
    step_seconds.push(took.as_secs_f64());
    let run_graph = if compressed {
        let (c, took) = tr.span("graph.compress", job, request, || relabeled.compress());
        step_seconds.push(took.as_secs_f64());
        c
    } else {
        relabeled.clone()
    };
    let src = order.position(source);
    let mut states = Vec::with_capacity(8);
    let mut rounds = Vec::with_capacity(8);
    let mut push_rounds = 0;
    let mut non_converged = 0;
    for (m, &(_, mode)) in MODES.iter().enumerate() {
        for (a, &name) in ALGORITHMS.iter().enumerate() {
            let alg = algorithm(name, src);
            let (result, took) = tr.span(KERNEL_SPANS[m * 4 + a], job, request, || {
                Pipeline::on(&run_graph)
                    .mode(mode)
                    .algorithm_ref(alg.as_ref())
                    .execute()
                    .expect("a valid offline pipeline")
            });
            step_seconds.push(took.as_secs_f64());
            non_converged += usize::from(!result.stats.converged);
            rounds.push(result.stats.rounds);
            push_rounds += result.stats.push_rounds;
            states.push(result.stats.final_states);
        }
    }
    tr.close(job);
    Job {
        order,
        relabeled,
        run_graph,
        states,
        rounds,
        push_rounds,
        non_converged,
        step_seconds,
    }
}

/// The offline gates on one job's results:
/// - async and parallel(2) agree;
/// - on `offline_compressed`, compressed and flat storage agree;
/// - every state equals an identity-order run on the input, mapped back
///   to input ids.
pub fn check(g: &CsrGraph, source: VertexId, job: &Job, compressed: bool) -> Result<(), String> {
    for (a, &name) in ALGORITHMS.iter().enumerate() {
        compare(
            &format!("{name}: parallel(2) vs async"),
            &job.states[a],
            &job.states[4 + a],
            agreement(name),
        )?;
    }
    if compressed {
        let src = job.order.position(source);
        for (a, &name) in ALGORITHMS.iter().enumerate() {
            let alg = algorithm(name, src);
            let flat = Pipeline::on(&job.relabeled)
                .algorithm_ref(alg.as_ref())
                .execute()
                .map_err(|e| e.to_string())?;
            compare(
                &format!("{name}: compressed vs flat"),
                &flat.stats.final_states,
                &job.states[a],
                agreement(name),
            )?;
        }
    }
    for (a, &name) in ALGORITHMS.iter().enumerate() {
        let alg = if name == "cc" {
            let labels = (0..g.num_vertices() as VertexId)
                .map(|v| f64::from(job.order.position(v)))
                .collect();
            Box::new(CarriedLabelCc { labels })
        } else {
            algorithm(name, source)
        };
        let reference = Pipeline::on(g)
            .algorithm_ref(alg.as_ref())
            .execute()
            .map_err(|e| e.to_string())?;
        if !reference.stats.converged {
            return Err(format!("{name}: identity-order reference did not converge"));
        }
        for (m, (mode, _)) in MODES.iter().enumerate() {
            let mapped: Vec<f64> = (0..g.num_vertices() as VertexId)
                .map(|v| job.states[m * 4 + a][job.order.position(v) as usize])
                .collect();
            compare(
                &format!("{name} {mode}: GoGraph order vs identity order"),
                &reference.stats.final_states,
                &mapped,
                agreement(name),
            )?;
        }
    }
    Ok(())
}

pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let compressed = out.workload == Workload::OfflineCompressed;
    let origin = Instant::now();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut g = None;
    for _ in 0..SETUPS {
        drop(g.take());
        let t = Instant::now();
        g = Some(input(args.seed, Size::Standard));
        setups.push(t.elapsed().as_secs_f64());
    }
    let g = g.expect("at least one set-up");
    let source = source_of(&g);
    eprintln!(
        "{}: |V|={} |E|={} source={source}, set-up {:.3}s",
        out.workload.name(),
        g.num_vertices(),
        g.num_edges(),
        median(&setups)
    );

    // Jobs until the time is up. A traced run alternates traced and
    // untraced jobs, so the tracing overhead is measured in the run.
    let mut traced = Tracer::new(true, origin);
    let mut untraced = Tracer::new(false, origin);
    let min_jobs = if args.trace {
        2 * MIN_JOBS - 2
    } else {
        MIN_JOBS
    };
    let measure = Instant::now();
    let mut job_seconds = Vec::new();
    let mut traced_seconds = Vec::new();
    let mut steps = Vec::new();
    let mut last = None;
    let mut peak = 0.0;
    let mut k = 0u64;
    // Another job starts while it is expected to end within the run's
    // seconds; a run has at least `min_jobs` whatever the seconds.
    let mut longest = 0.0f64;
    while (k as usize) < min_jobs || measure.elapsed().as_secs_f64() + longest <= args.seconds {
        drop(last.take());
        let trace_this = args.trace && k.is_multiple_of(2);
        let tr = if trace_this {
            &mut traced
        } else {
            &mut untraced
        };
        let t = Instant::now();
        let job = run_job(&g, source, compressed, tr, k);
        let took = t.elapsed().as_secs_f64();
        longest = longest.max(took);
        if trace_this {
            traced_seconds.push(took);
        } else {
            job_seconds.push(took);
            steps.push(job.step_seconds.clone());
        }
        out.attempted += 8;
        out.failed += job.non_converged as u64;
        if k == 0 {
            // Memory a run needs: set-up plus one job. Later jobs only
            // add allocator noise.
            peak = crate::record::peak_rss_mib();
        }
        last = Some(job);
        k += 1;
    }
    let job = last.expect("at least one job");

    // Correctness, outside the timed region.
    check(&g, source, &job, compressed)?;
    if out.failed > 0 {
        return Err(format!("{} kernel runs did not converge", out.failed));
    }

    if args.trace {
        layers(&g, &job, &traced, &traced_seconds, &job_seconds, out)?;
        return crate::write_trace(args, out.workload, &traced);
    }
    // The offline request is the whole job, so its latency is the
    // job's wall time (the median over whole jobs, where `job_s` sums
    // step medians). The kernel runs are not requests of their own: the
    // median over all eight sits between the fast kernels' classes and
    // ranged from 45 to 67 ms over ten runs.
    let job_s = sum_of_step_medians(&steps);
    let latency_ms = median(&job_seconds) * 1e3;
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak);
    out.set("job_s", job_s);
    out.set("latency_p50_ms", latency_ms);
    out.lines.push(format!(
        "job_s {job_s:.4} s (step medians over {} jobs); latency_p50_ms {latency_ms:.1} ms (median whole job); setup_s {:.4} s (median of {SETUPS}); error_frac {}",
        job_seconds.len(),
        median(&setups),
        out.failed as f64 / out.attempted as f64,
    ));
    Ok(())
}

fn layers(
    g: &CsrGraph,
    job: &Job,
    tr: &Tracer,
    traced_seconds: &[f64],
    untraced_seconds: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let med = |name: &str| median(&tr.durations(name));
    out.set("core.reorder_s", med("core.reorder"));
    out.set("graph.relabel_s", med("graph.relabel"));
    if out.workload == Workload::OfflineCompressed {
        out.set("graph.compress_s", med("graph.compress"));
    }
    for (span, rounds) in KERNEL_SPANS.iter().zip(&job.rounds) {
        out.set(&format!("{span}_s"), med(span));
        out.set(&format!("{span}_rounds"), *rounds as f64);
    }
    out.set("engine.push_rounds", job.push_rounds as f64);
    out.set("graph.bytes_per_edge", bytes_per_edge(&job.run_graph));
    out.set(
        "core.metric_fraction",
        metric(g, &job.order) as f64 / g.num_edges() as f64,
    );
    let t = Instant::now();
    std::hint::black_box(RabbitPartition::default().partition(g));
    out.set("partition.rabbit_s", t.elapsed().as_secs_f64());

    let unattributed = tr.unattributed_frac("offline.job");
    if unattributed > 0.10 {
        return Err(format!(
            "named spans cover only {:.1}% of the offline job",
            100.0 * (1.0 - unattributed)
        ));
    }
    out.set("trace.unattributed_frac", unattributed);
    out.set(
        "trace.overhead_frac",
        median(traced_seconds) / median(untraced_seconds) - 1.0,
    );
    out.set("error_frac", out.failed as f64 / out.attempted as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_jobs_pass_the_gates_on_two_seeds() {
        for seed in [3, 11] {
            for compressed in [false, true] {
                let g = input(seed, Size::Tiny);
                let source = source_of(&g);
                let mut tr = Tracer::new(true, Instant::now());
                let job = run_job(&g, source, compressed, &mut tr, 0);
                assert_eq!(job.non_converged, 0);
                check(&g, source, &job, compressed).unwrap();
                assert!(tr.unattributed_frac("offline.job") < 0.10);
            }
        }
    }

    #[test]
    fn a_corrupted_state_fails_the_gates() {
        let g = input(5, Size::Tiny);
        let source = source_of(&g);
        let mut tr = Tracer::new(false, Instant::now());
        let flat = run_job(&g, source, false, &mut tr, 0);
        let compressed = run_job(&g, source, true, &mut tr, 0);
        check(&g, source, &flat, false).unwrap();
        check(&g, source, &compressed, true).unwrap();
        for a in 0..4 {
            let v = flat.states[a].iter().position(|x| x.is_finite()).unwrap();
            let bump = |job: &Job, which: &[usize]| {
                let mut states = job.states.clone();
                for &i in which {
                    states[i][v] += 1.0;
                }
                Job {
                    order: job.order.clone(),
                    relabeled: job.relabeled.clone(),
                    run_graph: job.run_graph.clone(),
                    states,
                    rounds: job.rounds.clone(),
                    push_rounds: job.push_rounds,
                    non_converged: job.non_converged,
                    step_seconds: job.step_seconds.clone(),
                }
            };
            // One mode corrupted: async vs parallel(2) disagree.
            assert!(check(&g, source, &bump(&flat, &[a]), false).is_err());
            assert!(check(&g, source, &bump(&flat, &[4 + a]), false).is_err());
            // Both modes corrupted alike: the identity-order reference
            // (flat) or the flat storage run (compressed) disagrees.
            assert!(check(&g, source, &bump(&flat, &[a, 4 + a]), false).is_err());
            assert!(check(&g, source, &bump(&compressed, &[a, 4 + a]), true).is_err());
        }
    }
}
