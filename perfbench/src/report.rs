//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit, its direction, the workloads whose layers do the work it
//! measures, and the end-to-end metric it should move. `BENCHMARK.json`
//! lists the same names; a self-test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineFlat,
    OfflineCompressed,
    StreamUpdates,
    ServeLive,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfflineFlat,
        Workload::OfflineCompressed,
        Workload::StreamUpdates,
        Workload::ServeLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineFlat => "offline_flat",
            Workload::OfflineCompressed => "offline_compressed",
            Workload::StreamUpdates => "stream_updates",
            Workload::ServeLive => "serve_live",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sets, as bit masks over [`Workload::ALL`].
const FLAT: u8 = 1;
const COMPRESSED: u8 = 2;
const STREAM: u8 = 4;
const SERVE: u8 = 8;
const OFFLINE: u8 = FLAT | COMPRESSED;
const ALL: u8 = OFFLINE | STREAM | SERVE;

fn bit(w: Workload) -> u8 {
    match w {
        Workload::OfflineFlat => FLAT,
        Workload::OfflineCompressed => COMPRESSED,
        Workload::StreamUpdates => STREAM,
        Workload::ServeLive => SERVE,
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Workloads on which the metric is measured; elsewhere its layer
    /// does no work and it prints 0.
    applies: u8,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
}

impl Metric {
    pub fn applies_to(&self, w: Workload) -> bool {
        self.applies & bit(w) != 0
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    applies: u8,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        applies,
        moves,
    }
}

/// Printed by every untraced run.
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", ALL, "setup_s"),
    m("peak_rss_mb", "MiB", "lower", ALL, "peak_rss_mb"),
    m("job_s", "s", "lower", ALL, "job_s"),
    m("latency_p50_ms", "ms", "lower", ALL, "latency_p50_ms"),
];

/// Printed by every traced run.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    // graph
    m("graph.relabel_s", "s", "lower", OFFLINE, "job_s"),
    m("graph.compress_s", "s", "lower", COMPRESSED, "job_s"),
    m("graph.bytes_per_edge", "B/edge", "lower", OFFLINE, "peak_rss_mb"),
    m("graph.csr_patch_ms", "ms", "lower", STREAM, "job_s"),
    // partition
    m("partition.rabbit_s", "s", "lower", ALL, "job_s"),
    // core
    m("core.reorder_s", "s", "lower", ALL, "job_s"),
    m("core.metric_fraction", "ratio", "higher", ALL, "job_s"),
    m("core.incremental.ingest_ms", "ms", "lower", STREAM, "job_s"),
    m("core.incremental.materialize_ms", "ms", "lower", STREAM, "job_s"),
    m("core.incremental.positive_fraction", "ratio", "higher", STREAM, "job_s"),
    // engine, offline kernels
    m("engine.async.bfs_s", "s", "lower", OFFLINE, "job_s"),
    m("engine.async.sssp_s", "s", "lower", OFFLINE, "job_s"),
    m("engine.async.pagerank_s", "s", "lower", OFFLINE, "job_s"),
    m("engine.async.cc_s", "s", "lower", OFFLINE, "job_s"),
    m("engine.parallel2.bfs_s", "s", "lower", OFFLINE, "job_s"),
    m("engine.parallel2.sssp_s", "s", "lower", OFFLINE, "job_s"),
    m("engine.parallel2.pagerank_s", "s", "lower", OFFLINE, "job_s"),
    m("engine.parallel2.cc_s", "s", "lower", OFFLINE, "job_s"),
    m("engine.async.bfs_rounds", "count", "lower", OFFLINE, "job_s"),
    m("engine.async.sssp_rounds", "count", "lower", OFFLINE, "job_s"),
    m("engine.async.pagerank_rounds", "count", "lower", OFFLINE, "job_s"),
    m("engine.async.cc_rounds", "count", "lower", OFFLINE, "job_s"),
    m("engine.parallel2.bfs_rounds", "count", "lower", OFFLINE, "job_s"),
    m("engine.parallel2.sssp_rounds", "count", "lower", OFFLINE, "job_s"),
    m("engine.parallel2.pagerank_rounds", "count", "lower", OFFLINE, "job_s"),
    m("engine.parallel2.cc_rounds", "count", "lower", OFFLINE, "job_s"),
    m("engine.push_rounds", "count", "higher", OFFLINE, "job_s"),
    // engine, streaming
    m("engine.stream.maintain_ms", "ms", "lower", STREAM, "latency_p50_ms"),
    m("engine.stream.execute_ms", "ms", "lower", STREAM, "latency_p50_ms"),
    m("engine.stream.rounds", "count", "lower", STREAM, "job_s"),
    m("engine.stream.full_reorders", "count", "lower", STREAM, "job_s"),
    m("engine.stream.partition_reorders", "count", "lower", STREAM, "job_s"),
    // engine, serving
    m("engine.query_runtime_p50_ms", "ms", "lower", SERVE, "latency_p50_ms"),
    // serve
    m("serve.outside_engine_p50_ms", "ms", "lower", SERVE, "latency_p50_ms"),
    m("serve.core.query_p50_ms", "ms", "lower", SERVE, "latency_p50_ms"),
    m("serve.core.enqueue_p50_ms", "ms", "lower", SERVE, "update_ack_p50_ms"),
    m("serve.core.publish_p50_ms", "ms", "lower", SERVE, "publish_p50_ms"),
    m("serve.warm_hit_ratio", "ratio", "higher", SERVE, "latency_p50_ms"),
    m("serve.coalesced_ratio", "ratio", "higher", SERVE, "job_s"),
    m("serve.query_rounds", "count", "lower", SERVE, "latency_p50_ms"),
    m("serve.mutator_rounds", "count", "lower", SERVE, "publish_p50_ms"),
    m("serve.wal_bytes", "B", "lower", SERVE, "update_ack_p50_ms"),
    m("serve.checkpoints_written", "count", "lower", SERVE, "publish_p90_ms"),
    m("serve.checkpoint_bytes", "B", "lower", SERVE, "publish_p90_ms"),
    // Client-observed figures of the streaming and serving workloads.
    // They have no counterpart on the offline workloads, so they cannot
    // be end-to-end metrics of every workload; they are reported here.
    m("publish_p50_ms", "ms", "lower", STREAM | SERVE, "publish_p50_ms"),
    m("publish_p90_ms", "ms", "lower", STREAM | SERVE, "publish_p90_ms"),
    m("updates_per_s", "1/s", "higher", STREAM, "updates_per_s"),
    m("query_p50_ms", "ms", "lower", SERVE, "query_p50_ms"),
    m("query_p99_ms", "ms", "lower", SERVE, "query_p99_ms"),
    m("update_ack_p50_ms", "ms", "lower", SERVE, "update_ack_p50_ms"),
    m("update_ack_p90_ms", "ms", "lower", SERVE, "update_ack_p90_ms"),
    m("capacity_qps", "1/s", "higher", SERVE, "capacity_qps"),
    m("error_frac", "ratio", "lower", ALL, "error_frac"),
    // the benchmark itself
    m("loadgen.late_p99_ms", "ms", "lower", SERVE, "latency_p50_ms"),
    m("trace.unattributed_frac", "ratio", "lower", ALL, "job_s"),
    m("trace.overhead_frac", "ratio", "lower", ALL, "job_s"),
];

fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// What one run measured.
pub struct Outcome {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn new(workload: Workload) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    /// Sets a registered metric. Panics on an unregistered name or on a
    /// metric that does not apply to this workload: both are bugs here.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = lookup(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
        assert!(
            metric.applies_to(self.workload),
            "{name} does not apply to {}",
            self.workload.name()
        );
        self.values.insert(metric.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// One report line per per-layer metric measured on this workload:
    /// its value and unit, its direction, and the end-to-end metric it
    /// should move.
    pub fn layer_lines(&self) -> Vec<String> {
        PER_LAYER
            .iter()
            .filter(|m| m.applies_to(self.workload))
            .filter_map(|m| {
                let v = self.get(m.name)?;
                Some(format!(
                    "{} = {v} {} ({} is better; moves {})",
                    m.name, m.unit, m.better, m.moves
                ))
            })
            .collect()
    }

    /// The result line: every end-to-end metric (`trace == false`) or
    /// every per-layer metric (`trace == true`). Fails when a metric
    /// that applies to the workload was not measured or is not finite.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let set = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, metric) in set.iter().enumerate() {
            let value = if metric.applies_to(self.workload) {
                self.get(metric.name)
                    .ok_or_else(|| format!("metric {} was not measured", metric.name))?
            } else {
                0.0
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", metric.name));
            }
            // `{}` prints every digit an f64 carries, as JSON accepts.
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                metric.name,
                value,
                metric.unit
            );
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad metric name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
            assert!(metric.better == "lower" || metric.better == "higher");
            assert!(
                END_TO_END
                    .iter()
                    .chain(PER_LAYER)
                    .any(|e| e.name == metric.moves),
                "{} moves unknown metric {}",
                metric.name,
                metric.moves
            );
            assert_eq!(
                all.iter().filter(|o| o.name == metric.name).count(),
                1,
                "{} registered twice",
                metric.name
            );
        }
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        for w in Workload::ALL {
            let mut o = Outcome::new(w);
            o.attempted = 3;
            for metric in END_TO_END.iter().chain(PER_LAYER) {
                if metric.applies_to(w) {
                    o.set(metric.name, 1.25);
                }
            }
            for (trace, set) in [(false, END_TO_END), (true, PER_LAYER)] {
                let line = o.result_json(trace).unwrap();
                for metric in set {
                    let needle = format!("\"{}\": {{\"value\": ", metric.name);
                    let at = line
                        .find(&needle)
                        .unwrap_or_else(|| panic!("{} missing", metric.name));
                    let unit = format!("\"unit\": \"{}\"}}", metric.unit);
                    assert!(
                        line[at..].contains(&unit),
                        "{} printed without its unit",
                        metric.name
                    );
                }
            }
        }
    }

    #[test]
    fn an_unmeasured_metric_refuses_the_result() {
        let mut o = Outcome::new(Workload::OfflineFlat);
        o.set("setup_s", 1.0);
        assert!(o.result_json(false).is_err());
        o.set("peak_rss_mb", 1.0);
        o.set("job_s", 1.0);
        o.set("latency_p50_ms", f64::NAN);
        assert!(o.result_json(false).is_err());
        o.set("latency_p50_ms", 2.0);
        assert!(o.result_json(false).is_ok());
    }

    /// BENCHMARK.json at the repository root names exactly these metrics,
    /// with these units and directions, and exactly these workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = compact.matches("\"name\":").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
        for w in Workload::ALL {
            assert!(compact.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
