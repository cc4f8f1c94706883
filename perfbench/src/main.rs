//! The GoGraph system benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_flat|offline_compressed|stream_updates|serve_live> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! number of seconds, checks the outputs, and prints a run record, a few
//! human-readable report lines and, last, one JSON result line: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A failed correctness gate exits with code 1 and prints no
//! result. See `perfbench/README.md` for the workloads and metrics.

mod gates;
mod offline;
mod record;
mod report;
mod serve_live;
mod stats;
mod stream;
mod trace;

use report::{Outcome, Workload};
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Inputs small enough for the self-tests.
    Tiny,
    /// The sizes the workloads are defined at.
    Standard,
}

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: gograph-perfbench --workload <offline_flat|offline_compressed|\
stream_updates|serve_live> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Scratch space for a run (durable serving state, traces), under the
/// working directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Writes a traced run's spans, one JSON object per line.
pub fn write_trace(args: &RunArgs, w: Workload, tr: &trace::Tracer) -> Result<(), String> {
    let path = scratch_dir().join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        w.name(),
        tr.spans().len(),
        path.display()
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::new(args.workload);
    let measured = match args.workload {
        Workload::OfflineFlat | Workload::OfflineCompressed => offline::run(&args, &mut out),
        Workload::StreamUpdates => stream::run(&args, &mut out),
        Workload::ServeLive => serve_live::run(&args, &mut out),
    };
    let result = measured.and_then(|()| out.result_json(args.trace));
    match result {
        Ok(line) => {
            println!(
                "{}",
                record::run_record(args.workload.name(), args.seed, args.seconds, args.trace)
            );
            let layers = if args.trace {
                out.layer_lines()
            } else {
                Vec::new()
            };
            for l in out.lines.iter().chain(&layers) {
                println!("# {}: {l}", args.workload.name());
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("{}: FAILED: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve_live --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeLive);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload offline_flat --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload offline_flat --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload offline_flat --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
