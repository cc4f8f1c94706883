//! `streaming_report` — the evolving-graph subsystem's recorded
//! trajectory (PR 3).
//!
//! Runs a fixed-seed batch schedule (insert-heavy arrivals with light
//! deletion churn over a shuffled power-law community graph) through a
//! warm-started [`StreamingPipeline`] and through cold per-batch
//! recomputes (CSR patch + full GoGraph reorder + from-scratch engine
//! run on each intermediate graph), for PageRank, SSSP, BFS and CC, and
//! writes the total-rounds / wall-time comparison, plus the maintained
//! order's `M/|E|` after each warm batch, as JSON.
//!
//! Usage: `streaming_report [OUT.json]` (default `BENCH_PR3.json`);
//! `GOGRAPH_SCALE=tiny` shrinks the workload for CI smoke runs. Exits
//! non-zero if any run fails to converge, if warm and cold final states
//! diverge beyond tolerance, or if warm-starting does not save rounds
//! overall — so CI gates on correctness and on the subsystem's core
//! claim without gating on timing.

use gograph_bench::datasets::Scale;
use gograph_core::GoGraph;
use gograph_engine::{
    split_batches, Bfs, ConnectedComponents, IterativeAlgorithm, PageRank, Pipeline, Sssp,
    StreamingPipeline,
};
use gograph_graph::generators::{
    planted_partition, shuffle_labels, with_random_weights, PlantedPartitionConfig,
};
use gograph_graph::{CsrGraph, Edge, EdgeUpdate};
use std::fmt::Write as _;
use std::time::Instant;

struct Row {
    algorithm: &'static str,
    warm_sound: bool,
    warm_rounds: usize,
    cold_rounds: usize,
    warm_seconds: f64,
    cold_seconds: f64,
    full_reorders: usize,
    max_state_divergence: f64,
    /// The maintained order's `M/|E|` after each warm batch.
    positive_fractions: Vec<f64>,
}

/// The fixed-seed schedule: bootstrap on half the edges, then
/// `num_batches` batches of arrivals, each with every 31st bootstrap
/// edge departing (round-robin across batches).
fn schedule(target: &CsrGraph, num_batches: usize) -> (CsrGraph, Vec<Vec<EdgeUpdate>>) {
    let edges: Vec<Edge> = target.edges().collect();
    let cut = edges.len() / 2;
    let mut b = gograph_graph::GraphBuilder::with_capacity(target.num_vertices(), cut);
    b.reserve_vertices(target.num_vertices());
    for e in &edges[..cut] {
        b.add_edge(e.src, e.dst, e.weight);
    }
    let bootstrap = b.build();
    let arrival_batches =
        split_batches(&edges[cut..], num_batches).expect("enough arrivals for the schedule");
    let batches: Vec<Vec<EdgeUpdate>> = arrival_batches
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
                    .step_by(arrival_batches.len())
                    .map(|e| EdgeUpdate::remove(e.src, e.dst)),
            );
            batch
        })
        .collect();
    assert!(batches.iter().all(|b| !b.is_empty()));
    (bootstrap, batches)
}

fn run_algorithm<A: IterativeAlgorithm + Clone + 'static>(
    algorithm: &'static str,
    alg: A,
    bootstrap: &CsrGraph,
    batches: &[Vec<EdgeUpdate>],
    tolerance: f64,
) -> Row {
    // Warm side: one StreamingPipeline across all batches.
    let mut sp = StreamingPipeline::over(bootstrap)
        .algorithm(alg.clone())
        .build()
        .expect("streaming bootstrap");
    let mut warm_rounds = 0usize;
    let mut warm_seconds = 0f64;
    let mut positive_fractions = Vec::with_capacity(batches.len());
    for batch in batches {
        let t = Instant::now();
        let r = sp.apply_batch(batch).expect("batch applies");
        warm_seconds += t.elapsed().as_secs_f64();
        assert!(
            r.stats.converged,
            "{algorithm}: warm batch did not converge"
        );
        warm_rounds += r.stats.rounds;
        positive_fractions.push(sp.positive_fraction());
    }

    // Cold side: CSR patch + full reorder + from-scratch run on every
    // intermediate graph. The patch is timed because the warm side pays
    // for it inside `apply_batch`.
    let mut cold_rounds = 0usize;
    let mut cold_seconds = 0f64;
    let mut current = bootstrap.clone();
    let mut cold_final = Vec::new();
    for batch in batches {
        let t = Instant::now();
        current = current.apply_updates(batch);
        let r = Pipeline::on(&current)
            .reorder(GoGraph::default())
            .algorithm(alg.clone())
            .execute()
            .expect("cold pipeline");
        cold_seconds += t.elapsed().as_secs_f64();
        assert!(
            r.stats.converged,
            "{algorithm}: cold batch did not converge"
        );
        cold_rounds += r.stats.rounds;
        cold_final = r.stats.final_states;
    }

    // Differential check: warm and cold must agree on the final graph.
    assert_eq!(&current, sp.graph(), "{algorithm}: CSR batch path diverged");
    let mut max_div = 0f64;
    for (a, b) in sp.states().iter().zip(&cold_final) {
        if a.is_infinite() && b.is_infinite() {
            continue;
        }
        max_div = max_div.max((a - b).abs());
    }
    assert!(
        max_div <= tolerance,
        "{algorithm}: warm/cold states diverged by {max_div} (tol {tolerance})"
    );

    Row {
        algorithm,
        warm_sound: sp.warm_start_is_sound(),
        warm_rounds,
        cold_rounds,
        warm_seconds,
        cold_seconds,
        full_reorders: sp.full_reorders(),
        max_state_divergence: max_div,
        positive_fractions,
    }
}

/// `fractions` to four decimals, joined by `sep`.
fn fraction_list(fractions: &[f64], sep: &str) -> String {
    fractions
        .iter()
        .map(|f| format!("{f:.4}"))
        .collect::<Vec<_>>()
        .join(sep)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR3.json".to_string());
    let scale = Scale::from_env();
    let (num_vertices, num_edges, communities, num_batches) = match scale {
        Scale::Tiny => (800, 5_000, 8, 4),
        Scale::Standard => (20_000, 150_000, 24, 8),
    };
    let seed = 42;
    let target = with_random_weights(
        &shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices,
                num_edges,
                communities,
                p_intra: 0.85,
                gamma: 2.4,
                seed,
            }),
            9,
        ),
        1.0,
        4.0,
        7,
    );
    let (bootstrap, batches) = schedule(&target, num_batches);
    // Source for the single-source algorithms: a well-connected hub of
    // the bootstrap graph, so SSSP/BFS do real propagation work.
    let source = bootstrap
        .vertices()
        .max_by_key(|&v| bootstrap.out_degree(v))
        .unwrap_or(0);
    eprintln!(
        "streaming_report: |V|={} |E|={} (seed {seed}), bootstrap {} edges, {} batches of ~{} updates",
        target.num_vertices(),
        target.num_edges(),
        bootstrap.num_edges(),
        batches.len(),
        batches[0].len(),
    );

    let rows = vec![
        run_algorithm("pagerank", PageRank::default(), &bootstrap, &batches, 1e-4),
        run_algorithm("sssp", Sssp::new(source), &bootstrap, &batches, 0.0),
        run_algorithm("bfs", Bfs::new(source), &bootstrap, &batches, 0.0),
        run_algorithm("cc", ConnectedComponents, &bootstrap, &batches, 0.0),
    ];

    let warm_total: usize = rows.iter().map(|r| r.warm_rounds).sum();
    let cold_total: usize = rows.iter().map(|r| r.cold_rounds).sum();
    for r in &rows {
        eprintln!(
            "  {:9} warm {:3} rounds / {:7.3}s vs cold {:3} rounds / {:7.3}s ({} full reorders, max divergence {:.1e})",
            r.algorithm, r.warm_rounds, r.warm_seconds, r.cold_rounds, r.cold_seconds,
            r.full_reorders, r.max_state_divergence,
        );
        eprintln!(
            "  {:9} maintained M/|E| per batch: {}",
            r.algorithm,
            fraction_list(&r.positive_fractions, " ")
        );
    }
    eprintln!("  total: warm {warm_total} rounds vs cold {cold_total} rounds");
    assert!(
        warm_total < cold_total,
        "warm-start must save rounds overall: warm {warm_total} vs cold {cold_total}"
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"report\": \"streaming_report\",").unwrap();
    writeln!(json, "  \"pr\": 3,").unwrap();
    writeln!(
        json,
        "  \"graph\": {{\"generator\": \"planted-partition-shuffled-weighted\", \"vertices\": {}, \"edges\": {}, \"communities\": {communities}, \"seed\": {seed}}},",
        target.num_vertices(),
        target.num_edges(),
    )
    .unwrap();
    writeln!(
        json,
        "  \"schedule\": {{\"bootstrap_edges\": {}, \"batches\": {}, \"arrivals\": {}, \"removals_every\": 31}},",
        bootstrap.num_edges(),
        batches.len(),
        batches.iter().map(Vec::len).sum::<usize>(),
    )
    .unwrap();
    writeln!(
        json,
        "  \"configuration\": {{\"mode\": \"async\", \"warm\": \"StreamingPipeline (incremental order + warm kernels)\", \"cold\": \"per-batch CSR patch + full GoGraph reorder + cold run\"}},"
    )
    .unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"warm_start_sound\": {}, \"warm_total_rounds\": {}, \"cold_total_rounds\": {}, \"warm_seconds\": {:.6}, \"cold_seconds\": {:.6}, \"full_reorders\": {}, \"max_state_divergence\": {:.3e}, \"positive_fraction_per_batch\": [{}]}}{}",
            r.algorithm,
            r.warm_sound,
            r.warm_rounds,
            r.cold_rounds,
            r.warm_seconds,
            r.cold_seconds,
            r.full_reorders,
            r.max_state_divergence,
            fraction_list(&r.positive_fractions, ", "),
            if i + 1 == rows.len() { "" } else { "," },
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(
        json,
        "  \"total_rounds\": {{\"warm\": {warm_total}, \"cold\": {cold_total}}}"
    )
    .unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("streaming_report: wrote {out_path}");
}
