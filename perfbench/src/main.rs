//! The repository benchmark's measuring program.
//!
//! ```text
//! jmso-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--gateway-bin <path>] [--scratch <dir>]
//! ```
//!
//! Runs one workload for `--seconds`, checks its outputs, and prints one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones from a separate traced run. `perfbench/run.py` builds
//! this program and the service binary, then calls it. README.md maps
//! every metric to its layer and workload.

mod batch;
mod live;
mod probe;
mod stats;
mod workloads;

use stats::{result_line, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The end-to-end metrics every `--trace 0` run prints, in order.
pub const END_TO_END: [&str; 13] = [
    "setup_s",
    "wall_s",
    "slots_per_s",
    "slot_p50_us",
    "slot_p99_us",
    "ns_per_live_user_slot",
    "peak_rss_mb",
    "sim_energy_j_per_user",
    "sim_rebuffer_s_per_user",
    "success_ratio",
    "event_apply_p50_ms",
    "event_apply_p99_ms",
    "on_time_ratio",
];

/// The per-layer metrics every `--trace 1` run prints, in order.
pub const PER_LAYER: [&str; 32] = [
    "scenario.build_s",
    "engine.gate_ns_per_slot",
    "gateway.pre_sched_ns_per_slot",
    "gateway.pre_sched_ns_per_live_user_slot",
    "sched.allocate_ns_per_slot",
    "sched.allocate_p99_ns",
    "transmitter.ns_per_slot",
    "engine.device_ns_per_slot",
    "admission.tick_ns_per_slot",
    "engine.post_ns_per_slot",
    "trace.unaccounted_ns_per_slot",
    "trace.overhead_ratio",
    "engine.live_user_slots",
    "sched.grant_units",
    "sched.cap_units",
    "sched.cap_utilization",
    "admission.admitted",
    "admission.deferred",
    "admission.rejected",
    "admission.admit_ratio",
    "abr.switches",
    "rrc.transitions",
    "svc.startup_s",
    "svc.feed_rtt_p50_ms",
    "svc.feed_rtt_p99_ms",
    "svc.bus_rejects",
    "svc.dropped_slots",
    "fanout.bytes_per_slot",
    "fanout.record_lag_p99_ms",
    "fanout.dropped_subscribers",
    "fanout.truncated_streams",
    "loadgen.lag_p99_ms",
];

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB (0 when unreadable).
pub fn vm_hwm_mib(status: &Path) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// This process's resident-set high-water mark, MiB.
pub fn peak_rss_mib() -> f64 {
    vm_hwm_mib(Path::new("/proc/self/status"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    gateway_bin: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)
            .ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    };
    let workload = value("--workload").ok_or("missing --workload")?.to_string();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("bad --trace {t}: 0 or 1")),
    };
    let seconds = num("--seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("bad --seconds {seconds}: 1 to 60"));
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        gateway_bin: value("--gateway-bin").map(PathBuf::from),
        scratch: value("--scratch").map(PathBuf::from),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    if let Some(cells) = workloads::batch_cells(&args.workload, args.seed) {
        return if args.trace {
            batch::run_traced(&cells, args.seed, args.seconds)
        } else {
            batch::run_untraced(&cells, args.seed, args.seconds)
        };
    }
    let (Some(bin), Some(scratch)) = (&args.gateway_bin, &args.scratch) else {
        return Err("gateway-live needs --gateway-bin and --scratch".to_string());
    };
    // The service's socket and scenario file, removed afterwards.
    let dir = scratch.join(format!("live-{}", std::process::id()));
    let out = if args.trace {
        live::run_traced(bin, &dir, args.seed, args.seconds)
    } else {
        live::run_untraced(bin, &dir, args.seed, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jmso-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match run(&args) {
        Ok(o) if !o.metrics.names().eq(expected.iter().copied()) => {
            eprintln!(
                "jmso-perfbench: {}: metric set differs from the declared list",
                args.workload
            );
            ExitCode::FAILURE
        }
        Ok(o) => {
            println!(
                "{}",
                result_line(o.failed == 0, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jmso-perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared lists match BENCHMARK.json's, name for name, and
    /// every name is one the result line may carry.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match json.get(key) {
                Some(serde::Value::Seq(items)) => items
                    .iter()
                    .filter_map(|m| match m.get("name") {
                        Some(serde::Value::Str(n)) => Some(n.clone()),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), workloads::NAMES);
        for n in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_name(n), "{n}");
        }
    }
}
