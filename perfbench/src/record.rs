//! The run record printed with every result: source revision, toolchain,
//! host facts and the workload seed. Each fact is read at run time and
//! falls back to "unknown" where the host does not expose it.

use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpuinfo_field(field: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn l3_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| cpuinfo_field("cache size"))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One JSON line describing where and on what the run happened.
pub fn run_record(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"run_record\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"git_rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \
         \"cpu_model\": \"{}\", \"l3\": \"{}\"}}}}",
        escape(&command_line("git", &["rev-parse", "HEAD"])),
        escape(&command_line("rustc", &["-V"])),
        escape(&cpuinfo_field("model name")),
        escape(&l3_size()),
    )
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
