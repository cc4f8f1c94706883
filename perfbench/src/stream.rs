//! `stream_updates`: the write path. A shuffled planted-partition graph
//! is bootstrapped on half its edges; the other half arrives, with every
//! 31st bootstrap edge departing, in 32 batches. One `StreamingPipeline`
//! per algorithm (PageRank, SSSP, BFS, CC) applies every batch.

use crate::gates::{compare, Agreement, PAGERANK_TOLERANCE};
use crate::report::Outcome;
use crate::stats::{median, percentile, sum_of_step_medians};
use crate::trace::Tracer;
use crate::{RunArgs, Size};
use gograph_core::{metric, GoGraph, IncrementalGoGraph};
use gograph_engine::{
    split_batches, Bfs, ConnectedComponents, IterativeAlgorithm, PageRank, Pipeline, Sssp,
    StreamingPipeline,
};
use gograph_graph::generators::{
    planted_partition, shuffle_labels, with_random_weights, PlantedPartitionConfig,
};
use gograph_graph::{CsrGraph, Edge, EdgeUpdate, GraphBuilder, Permutation, VertexId};
use gograph_partition::{Partitioner, RabbitPartition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const ALGORITHMS: [&str; 4] = ["pagerank", "sssp", "bfs", "cc"];
const BATCHES: usize = 32;
/// Fewest passes over the schedule per run; each pass starts from a
/// fresh set-up, and `setup_s` is the median over passes.
const MIN_PASSES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

fn algorithm(name: &str, source: VertexId) -> Box<dyn IterativeAlgorithm> {
    match name {
        "pagerank" => Box::new(PageRank::default()),
        "sssp" => Box::new(Sssp::new(source)),
        "bfs" => Box::new(Bfs::new(source)),
        _ => Box::new(ConnectedComponents),
    }
}

/// Boxed algorithms do not implement `IterativeAlgorithm` themselves, so
/// the pipeline builder gets the concrete type.
fn pipeline(name: &str, bootstrap: &CsrGraph, source: VertexId) -> StreamingPipeline {
    let builder = StreamingPipeline::over(bootstrap);
    let builder = match name {
        "pagerank" => builder.algorithm(PageRank::default()),
        "sssp" => builder.algorithm(Sssp::new(source)),
        "bfs" => builder.algorithm(Bfs::new(source)),
        _ => builder.algorithm(ConnectedComponents),
    };
    builder.build().expect("streaming bootstrap")
}

/// The workload's inputs: the BENCH_PR3 graph (generator seeds 42, 9
/// and 7, as `streaming_report` builds it) and an update schedule whose
/// arrival order the run's seed draws.
pub struct Schedule {
    pub bootstrap: CsrGraph,
    pub batches: Vec<Vec<EdgeUpdate>>,
    pub source: VertexId,
}

pub fn schedule(seed: u64, size: Size) -> Schedule {
    let (num_vertices, num_edges, communities, batches) = match size {
        Size::Tiny => (800, 5_000, 8, 8),
        Size::Standard => (20_000, 150_000, 24, BATCHES),
    };
    let target = with_random_weights(
        &shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices,
                num_edges,
                communities,
                p_intra: 0.85,
                gamma: 2.4,
                seed: 42,
            }),
            9,
        ),
        1.0,
        4.0,
        7,
    );
    let mut edges: Vec<Edge> = target.edges().collect();
    let cut = edges.len() / 2;
    // The seed orders the arrivals.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (cut + 1..edges.len()).rev() {
        let j = rng.random_range(cut..=i);
        edges.swap(i, j);
    }
    let mut b = GraphBuilder::with_capacity(target.num_vertices(), cut);
    b.reserve_vertices(target.num_vertices());
    for e in &edges[..cut] {
        b.add_edge(e.src, e.dst, e.weight);
    }
    let bootstrap = b.build();
    let arrivals = split_batches(&edges[cut..], batches).expect("enough arrivals");
    let batches: Vec<Vec<EdgeUpdate>> = arrivals
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            let mut batch: Vec<EdgeUpdate> = chunk
                .iter()
                .map(|e| EdgeUpdate::insert_weighted(e.src, e.dst, e.weight))
                .collect();
            batch.extend(
                edges[..cut]
                    .iter()
                    .step_by(31)
                    .skip(i)
                    .step_by(arrivals.len())
                    .map(|e| EdgeUpdate::remove(e.src, e.dst)),
            );
            batch
        })
        .collect();
    let source = bootstrap
        .vertices()
        .max_by_key(|&v| bootstrap.out_degree(v))
        .unwrap_or(0);
    Schedule {
        bootstrap,
        batches,
        source,
    }
}

/// One set-up: inputs plus a bootstrapped pipeline per algorithm.
struct Setup {
    schedule: Schedule,
    pipelines: Vec<StreamingPipeline>,
    bootstrap_order: Permutation,
}

fn set_up(seed: u64, size: Size) -> Setup {
    let schedule = schedule(seed, size);
    let pipelines: Vec<StreamingPipeline> = ALGORITHMS
        .iter()
        .map(|name| pipeline(name, &schedule.bootstrap, schedule.source))
        .collect();
    let bootstrap_order = pipelines[0].order().clone();
    Setup {
        schedule,
        pipelines,
        bootstrap_order,
    }
}

/// What one pass over the schedule measured.
#[derive(Default)]
struct Pass {
    seconds: f64,
    publish_ms: Vec<f64>,
    maintain_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    updates: usize,
    rounds: usize,
    non_converged: usize,
}

/// Applies every batch to every pipeline, batch by batch.
fn run_pass(setup: &mut Setup, tr: &mut Tracer, request: u64) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let root = tr.open("stream.pass", None, request);
    let t = Instant::now();
    for batch in &setup.schedule.batches {
        for sp in &mut setup.pipelines {
            let (result, took) = tr.span("engine.stream.apply_batch", root, request, || {
                sp.apply_batch(batch)
            });
            let result = result.map_err(|e| format!("apply_batch: {e}"))?;
            pass.publish_ms.push(took.as_secs_f64() * 1e3);
            pass.maintain_ms
                .push(result.timings.reorder.as_secs_f64() * 1e3);
            pass.execute_ms
                .push(result.timings.execute.as_secs_f64() * 1e3);
            pass.updates += batch.len();
            pass.rounds += result.stats.rounds;
            pass.non_converged += usize::from(!result.stats.converged);
        }
    }
    pass.seconds = t.elapsed().as_secs_f64();
    tr.close(root);
    Ok(pass)
}

/// The stream gates: each pipeline's graph equals the bootstrap graph
/// patched batch by batch, and its warm states equal a cold GoGraph run
/// on that final graph.
fn check(setup: &Setup) -> Result<(), String> {
    let mut patched = setup.schedule.bootstrap.clone();
    for batch in &setup.schedule.batches {
        patched = patched.apply_updates(batch);
    }
    for (name, sp) in ALGORITHMS.iter().zip(&setup.pipelines) {
        check_graph(name, sp.graph(), &patched)?;
        check_states(name, sp.states(), &patched, setup.schedule.source)?;
    }
    Ok(())
}

fn check_graph(name: &str, got: &CsrGraph, patched: &CsrGraph) -> Result<(), String> {
    if got == patched {
        Ok(())
    } else {
        Err(format!(
            "{name}: pipeline CSR differs from the patched graph"
        ))
    }
}

fn check_states(name: &str, warm: &[f64], g: &CsrGraph, source: VertexId) -> Result<(), String> {
    let alg = algorithm(name, source);
    let cold = Pipeline::on(g)
        .reorder(GoGraph::default())
        .algorithm_ref(alg.as_ref())
        .execute()
        .map_err(|e| format!("{name}: cold run: {e}"))?;
    let how = if name == "pagerank" {
        Agreement::Within(PAGERANK_TOLERANCE)
    } else {
        Agreement::Exact
    };
    compare(
        &format!("{name}: warm vs cold"),
        &cold.stats.final_states,
        warm,
        how,
    )
}

pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let origin = Instant::now();
    let mut traced = Tracer::new(true, origin);
    let mut untraced = Tracer::new(false, origin);
    let min_passes = if args.trace {
        2 * MIN_PASSES - 2
    } else {
        MIN_PASSES
    };

    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut traced_seconds = Vec::new();
    let mut measured = 0.0;
    let mut longest = 0.0f64;
    let mut last = None;
    let mut peak = 0.0;
    let mut k = 0u64;
    // Each pass needs fresh pipelines, so each pass is preceded by a
    // set-up; only the passes count towards the run's seconds.
    while (k as usize) < min_passes || measured + longest <= args.seconds {
        drop(last.take());
        let t = Instant::now();
        let mut setup = set_up(args.seed, Size::Standard);
        setups.push(t.elapsed().as_secs_f64());
        let trace_this = args.trace && k.is_multiple_of(2);
        let tr = if trace_this {
            &mut traced
        } else {
            &mut untraced
        };
        let pass = run_pass(&mut setup, tr, k)?;
        measured += pass.seconds;
        longest = longest.max(pass.seconds);
        out.attempted += pass.publish_ms.len() as u64;
        out.failed += pass.non_converged as u64;
        if k == 0 {
            // Memory a run needs: one set-up and one pass.
            peak = crate::record::peak_rss_mib();
        }
        if trace_this {
            traced_seconds.push(pass.seconds);
        }
        passes.push((trace_this, pass));
        last = Some(setup);
        k += 1;
    }
    let setup = last.expect("at least one pass");
    eprintln!(
        "stream_updates: |V|={} bootstrap |E|={} {} batches of ~{} updates, {} passes",
        setup.schedule.bootstrap.num_vertices(),
        setup.schedule.bootstrap.num_edges(),
        setup.schedule.batches.len(),
        setup.schedule.batches[0].len(),
        passes.len()
    );

    check(&setup)?;
    if out.failed > 0 {
        return Err(format!("{} batch runs did not converge", out.failed));
    }

    // More set-ups than passes, for a steadier `setup_s`.
    while setups.len() < SETUPS {
        let t = Instant::now();
        std::hint::black_box(set_up(args.seed, Size::Standard));
        setups.push(t.elapsed().as_secs_f64());
    }

    let untraced_passes: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let job: Vec<f64> = untraced_passes.iter().map(|p| p.seconds).collect();
    let job_s = sum_of_step_medians(
        &untraced_passes
            .iter()
            .map(|p| p.publish_ms.clone())
            .collect::<Vec<_>>(),
    ) / 1e3;
    let publish: Vec<f64> = untraced_passes
        .iter()
        .flat_map(|p| p.publish_ms.clone())
        .collect();
    let updates: usize = untraced_passes.iter().map(|p| p.updates).sum();
    let p50 = percentile(&publish, 0.50)?;
    let p90 = percentile(&publish, 0.90)?;
    let updates_per_s = updates as f64 / job.iter().sum::<f64>();

    if args.trace {
        let traced_passes: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
        let all = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
            traced_passes.iter().flat_map(|p| f(p).clone()).collect()
        };
        out.set(
            "engine.stream.maintain_ms",
            median(&all(|p| &p.maintain_ms)),
        );
        out.set("engine.stream.execute_ms", median(&all(|p| &p.execute_ms)));
        out.set("engine.stream.rounds", traced_passes[0].rounds as f64);
        let sum = |f: fn(&StreamingPipeline) -> usize| -> f64 {
            setup.pipelines.iter().map(f).sum::<usize>() as f64
        };
        // The bootstrap counts as one full reorder per pipeline.
        out.set(
            "engine.stream.full_reorders",
            sum(StreamingPipeline::full_reorders) - setup.pipelines.len() as f64,
        );
        out.set(
            "engine.stream.partition_reorders",
            sum(StreamingPipeline::partition_reorders),
        );
        out.set(
            "core.incremental.positive_fraction",
            setup.pipelines[0].positive_fraction(),
        );
        shadow_replay(&setup, out);
        let b = &setup.schedule.bootstrap;
        let t = Instant::now();
        let order = GoGraph::default().run(b);
        out.set("core.reorder_s", t.elapsed().as_secs_f64());
        out.set(
            "core.metric_fraction",
            metric(b, &order) as f64 / b.num_edges() as f64,
        );
        let t = Instant::now();
        std::hint::black_box(RabbitPartition::default().partition(b));
        out.set("partition.rabbit_s", t.elapsed().as_secs_f64());
        out.set("publish_p50_ms", p50.value);
        out.set("publish_p90_ms", p90.value);
        out.set("updates_per_s", updates_per_s);
        out.set("error_frac", out.failed as f64 / out.attempted as f64);
        out.set(
            "trace.unattributed_frac",
            traced.unattributed_frac("stream.pass"),
        );
        out.set(
            "trace.overhead_frac",
            median(&traced_seconds) / median(&job) - 1.0,
        );
        return crate::write_trace(args, out.workload, &traced);
    }

    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak);
    out.set("job_s", job_s);
    out.set("latency_p50_ms", p50.value);
    out.lines.push(format!(
        "job_s {job_s:.4} s (step medians over {} passes of {} batches x {} pipelines; whole-pass median {:.4} s); setup_s {:.4} s (median of {})",
        job.len(),
        setup.schedule.batches.len(),
        ALGORITHMS.len(),
        median(&job),
        median(&setups),
        setups.len()
    ));
    out.lines.push(format!(
        "publish_p50_ms {:.3} ms (n={}, {} beyond); publish_p90_ms {:.3} ms (n={}, {} beyond); updates_per_s {:.0}; error_frac {}",
        p50.value,
        p50.samples,
        p50.beyond,
        p90.value,
        p90.samples,
        p90.beyond,
        updates_per_s,
        out.failed as f64 / out.attempted as f64
    ));
    Ok(())
}

/// Replays the schedule through the public calls the pipeline makes on
/// each batch, timing each: order ingest, CSR patch, order
/// materialization. Per-batch medians, in ms.
fn shadow_replay(setup: &Setup, out: &mut Outcome) {
    let mut inc = IncrementalGoGraph::from_graph_with_order(
        &setup.schedule.bootstrap,
        &setup.bootstrap_order,
    );
    let mut g = setup.schedule.bootstrap.clone();
    let (mut ingest, mut patch, mut materialize) = (Vec::new(), Vec::new(), Vec::new());
    for batch in &setup.schedule.batches {
        let batch: Vec<EdgeUpdate> = batch
            .iter()
            .copied()
            .filter(|u| u.src() != u.dst())
            .collect();
        let t = Instant::now();
        inc.apply_updates(&batch);
        ingest.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        g = g.apply_updates(&batch);
        patch.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(inc.current_order());
        materialize.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("core.incremental.ingest_ms", median(&ingest));
    out.set("graph.csr_patch_ms", median(&patch));
    out.set("core.incremental.materialize_ms", median(&materialize));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_schedule_passes_the_gates_on_two_seeds() {
        for seed in [3, 11] {
            let mut setup = set_up(seed, Size::Tiny);
            let mut tr = Tracer::new(true, Instant::now());
            let pass = run_pass(&mut setup, &mut tr, 0).unwrap();
            assert_eq!(pass.non_converged, 0);
            assert_eq!(
                pass.publish_ms.len(),
                setup.schedule.batches.len() * ALGORITHMS.len()
            );
            check(&setup).unwrap();
        }
    }

    #[test]
    fn a_corrupted_state_fails_the_gate() {
        let mut setup = set_up(5, Size::Tiny);
        let mut tr = Tracer::new(false, Instant::now());
        run_pass(&mut setup, &mut tr, 0).unwrap();
        let mut patched = setup.schedule.bootstrap.clone();
        for batch in &setup.schedule.batches {
            patched = patched.apply_updates(batch);
        }
        for (name, sp) in ALGORITHMS.iter().zip(&setup.pipelines) {
            let mut states = sp.states().to_vec();
            check_states(name, &states, &patched, setup.schedule.source).unwrap();
            let v = states.iter().position(|x| x.is_finite()).unwrap();
            states[v] += 1.0;
            assert!(check_states(name, &states, &patched, setup.schedule.source).is_err());
        }
        // A graph that missed a batch fails the CSR gate.
        check_graph("t", setup.pipelines[0].graph(), &patched).unwrap();
        let stale = setup
            .schedule
            .bootstrap
            .apply_updates(&setup.schedule.batches[0]);
        assert!(check_graph("t", setup.pipelines[0].graph(), &stale).is_err());
    }
}
