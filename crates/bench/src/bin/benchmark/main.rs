//! The repository's benchmark: four workloads over the whole stack, end-to-end
//! metrics with tracing off and per-layer metrics from a separate traced pass.
//! `README.md` beside this file says why each workload and metric exists;
//! `/BENCHMARK.json` is the contract the names below are tested against.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--dir D]   one pass of one workload
//! benchmark [--seed N] [--seconds S] [--dir D] [--aa N]               every workload, both passes
//! ```
//!
//! The first form prints the metrics by name and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The second runs the first form in
//! a child process per workload and pass; `--aa N` runs N such sets back to back and
//! fails if the lowest and highest value any end-to-end metric took over the sets
//! differ by more than its bound.

mod device;
mod harness;
mod kv_mixed;
mod layers;
mod page_churn;
mod srv;
mod trace;

use harness::{Outcome, Params};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = [page_churn::NAME, kv_mixed::NAME, srv::GET, srv::PUT_DURABLE];

/// Measured with tracing off; every workload reports every one.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("p50_us", "us"),
    ("write_amp", "ratio"),
    ("device_write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("reopen_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Measured in the traced pass; a workload that never enters a layer reports 0.
const PER_LAYER: [(&str, &str); 82] = [
    ("device.writes", "count"),
    ("device.write_bytes", "B"),
    ("device.write_busy_s", "s"),
    ("device.reads", "count"),
    ("device.read_bytes", "B"),
    ("device.read_busy_s", "s"),
    ("device.syncs", "count"),
    ("device.sync_busy_s", "s"),
    ("device.sync_p99_us", "us"),
    ("device.erases", "count"),
    ("device.syncs_per_op", "ratio"),
    ("device.bytes_per_flip", "B"),
    ("device.model_busy_s", "s"),
    ("cleaner.cycles", "count"),
    ("cleaner.segments_cleaned", "count"),
    ("cleaner.pages_moved", "count"),
    ("cleaner.mean_emptiness", "ratio"),
    ("cleaner.claimed_victims", "count"),
    ("cleaner.writer_stalls", "count"),
    ("cleaner.tombstones_retained", "count"),
    ("cleaner.gc_share_of_writes", "ratio"),
    ("cleaner.fg_stall_ops", "count"),
    ("cleaner.fg_stall_share", "ratio"),
    ("cleaner.put_p999_us", "us"),
    ("cleaner.cycle_ms_p50", "ms"),
    ("cleaner.segments_per_s", "1/s"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.flush_ms_p50", "ms"),
    ("store.absorbed_ratio", "ratio"),
    ("store.device_reads_per_get", "ratio"),
    ("store.segments_sealed", "count"),
    ("store.seal_fill", "ratio"),
    ("store.pages_read_per_kv_op", "ratio"),
    ("store.write_amp_drift", "ratio"),
    ("kv.get_us", "us"),
    ("kv.put_us", "us"),
    ("kv.range_us", "us"),
    ("kv.flush_ms_p50", "ms"),
    ("kv.pool_hit_ratio", "ratio"),
    ("kv.pool_evictions", "count"),
    ("kv.index_write_amp", "ratio"),
    ("kv.read_restarts", "count"),
    ("kv.write_restarts", "count"),
    ("kv.fallbacks", "count"),
    ("kv.crab_depth", "ratio"),
    ("kv.superblock_commits", "count"),
    ("kv.commit_batch", "ratio"),
    ("kv.riders", "count"),
    ("server.get_tax_us", "us"),
    ("server.put_tax_us", "us"),
    ("server.tax_share", "ratio"),
    ("server.pipeline_speedup", "ratio"),
    ("server.replies_per_flush", "ratio"),
    ("server.ops_per_flip", "ratio"),
    ("server.store_errors", "count"),
    ("server.protocol_errors", "count"),
    ("recovery.segments_replayed", "count"),
    ("recovery.scan_mb_s", "MB/s"),
    ("recovery.checkpoint_reopen_s", "s"),
    ("recovery.crash_discarded_segments", "count"),
    ("recovery.crash_lost_writes", "count"),
    ("loadgen.late_frac", "ratio"),
    ("loadgen.max_lag_ms", "ms"),
    ("loadgen.rate_lo_p99_us", "us"),
    ("loadgen.rate_hi_p50_us", "us"),
    ("loadgen.rate_hi_p99_us", "us"),
    ("loadgen.rate_hi_p999_us", "us"),
    ("loadgen.rates_ok", "count"),
    ("loadgen.closed_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.server_incl_s", "s"),
    ("trace.server_self_s", "s"),
    ("trace.kv_incl_s", "s"),
    ("trace.kv_self_s", "s"),
    ("trace.store_incl_s", "s"),
    ("trace.store_self_s", "s"),
    ("trace.cleaner_incl_s", "s"),
    ("trace.cleaner_self_s", "s"),
    ("trace.device_incl_s", "s"),
    ("trace.device_self_s", "s"),
];

/// The contract this benchmark is checked against, bounds included.
const CONTRACT: &str = include_str!("../../../../../BENCHMARK.json");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: Option<PathBuf>,
    aa: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        dir: None,
        aa: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.traced = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--dir" => args.dir = Some(PathBuf::from(value)),
            "--aa" => args.aa = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) || args.aa == 0 {
        return Err("--seconds must be in (0, 600] and --aa at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The benchmark measures the shipped defaults; an override would silently
    // measure something else.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("LSS_"))
    {
        eprintln!(
            "benchmark: refusing to run with {} set",
            name.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = args.dir.clone().unwrap_or_else(default_scratch_root);
    let result = match &args.workload {
        Some(workload) => run_pass(workload, &args, &root),
        None => run_suite(&args, &root),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch lives beside the executable, i.e. inside the build directory of whatever
/// checkout is being measured: real `pwrite`/`pread`/`fdatasync` on that file system.
fn default_scratch_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("."));
    exe.parent().unwrap_or(Path::new(".")).join("bench-scratch")
}

fn run_workload(workload: &str, p: &Params) -> Result<Outcome, String> {
    let mut out = match workload {
        page_churn::NAME => page_churn::run(p),
        kv_mixed::NAME => kv_mixed::run(p),
        srv::GET => srv::run(p, false),
        srv::PUT_DURABLE => srv::run(p, true),
        other => Err(format!("unknown workload {other}")),
    }?;
    if p.traced {
        layers::trace_layers(&mut out);
    }
    Ok(out)
}

/// One pass of one workload in this process. `Ok(false)` = ran, but incorrect.
fn run_pass(workload: &str, args: &Args, root: &Path) -> Result<bool, String> {
    let dir = root.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        dir: dir.clone(),
        tiny: false,
    };
    for line in host_stamp(&p, root) {
        println!("# {line}");
    }
    let outcome = run_workload(workload, &p);
    if p.traced && outcome.is_ok() {
        let path = root.join(format!("trace-{workload}.jsonl"));
        match trace::write_jsonl(&path) {
            Ok(spans) => println!("# {spans} spans written to {}", path.display()),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome?;
    for line in &outcome.notes {
        println!("# {line}");
    }
    let declared: &[(&str, &str)] = if p.traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "# {workload} seed {} {}: attempted {} failed {}",
        p.seed,
        if p.traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    println!("{}", result_line(&outcome, declared)?);
    Ok(outcome.failed == 0)
}

/// The pass's result: human-readable metric lines, then the JSON object last.
fn result_line(outcome: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|name| !PER_LAYER.iter().chain(&END_TO_END).any(|(n, _)| n == *name))
    {
        return Err(format!("metric {stray} is set but not declared"));
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        // A layer the workload never enters has nothing to count.
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        println!("{name:<32} {value:>18.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Where and on what this ran, and every configuration field that is not the
/// shipped default (geometry and the server binary's group-commit window only).
fn host_stamp(p: &Params, root: &Path) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut lines = vec![format!(
        "host: nproc {nproc}, scratch {} on {}, git {}, {}, seed {}",
        root.display(),
        harness::fs_type(root),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
        p.seed
    )];
    let (used, shipped) = (
        p.store_config().serialize(),
        lss_core::StoreConfig::paper_default().serialize(),
    );
    let mut changed = Vec::new();
    if let (Value::Object(used), Value::Object(shipped)) = (used, shipped) {
        for ((name, value), (_, default)) in used.iter().zip(&shipped) {
            if value != default {
                changed.push(format!(
                    "StoreConfig.{name} = {value:?} (shipped {default:?})"
                ));
            }
        }
    }
    changed.push(format!(
        "KvOptions.group_commit_window_us = {} (lss-server's default; the library's is {})",
        harness::GROUP_COMMIT_WINDOW_US,
        lss_btree::kv::KvOptions::default().group_commit_window_us
    ));
    lines.push(format!("non-default config: {}", changed.join("; ")));
    lines
}

// ---------------------------------------------------------------------------
// The whole suite, and the A/A self-check.
// ---------------------------------------------------------------------------

type Metrics = BTreeMap<String, f64>;

/// Run one pass in a child process; returns its metrics, or `None` if it was
/// incorrect or failed.
fn child_pass(
    workload: &str,
    traced: bool,
    args: &Args,
    root: &Path,
) -> Result<Option<Metrics>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(root)
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines.iter().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let Ok(result) = serde_json::parse(last) else {
        return Ok(None);
    };
    let correct = result.get_field("correct") == Some(&Value::Bool(true));
    let mut metrics = Metrics::new();
    if let Some(Value::Object(fields)) = result.get_field("metrics") {
        for (name, entry) in fields {
            if let Some(value) = entry.get_field("value").and_then(number) {
                metrics.insert(name.clone(), value);
            }
        }
    }
    Ok((correct && output.status.success()).then_some(metrics))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// `(name, bound)` of every end-to-end metric in the contract.
fn contract_bounds() -> Result<Vec<(String, f64)>, String> {
    let contract = serde_json::parse(CONTRACT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = contract.get_field("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get_field("name").and_then(Value::as_str);
            let bound = m.get_field("bound").and_then(number);
            name.map(str::to_string)
                .zip(bound)
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_string())
        })
        .collect()
}

fn run_suite(args: &Args, root: &Path) -> Result<bool, String> {
    let mut all_correct = true;
    // sets[set][workload] = end-to-end metrics of that untraced pass.
    let mut sets: Vec<BTreeMap<&str, Metrics>> = Vec::new();
    for set in 0..args.aa {
        let mut end_to_end = BTreeMap::new();
        for workload in WORKLOADS {
            for traced in [false, true] {
                println!(
                    "== set {} · {workload} · {}",
                    set + 1,
                    if traced { "traced" } else { "untraced" }
                );
                match child_pass(workload, traced, args, root)? {
                    Some(metrics) => {
                        for (name, value) in &metrics {
                            println!("{name:<32} {value:>18.6}");
                        }
                        if !traced {
                            end_to_end.insert(workload, metrics);
                        }
                    }
                    None => {
                        println!("FAILED: {workload} did not produce a correct result");
                        all_correct = false;
                    }
                }
            }
        }
        sets.push(end_to_end);
    }
    if sets.len() < 2 {
        return Ok(all_correct);
    }

    println!("== A/A: {} sets of the same code", sets.len());
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>8}",
        "metric", "workload", "lowest", "highest", "gap", "bound"
    );
    let mut agree = true;
    for (name, bound) in contract_bounds()? {
        for workload in WORKLOADS {
            let values = sets
                .iter()
                .filter_map(|set| set.get(workload)?.get(&name).copied());
            let (lowest, highest) = values
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                });
            if lowest > highest {
                continue; // no set has this workload's result; reported above
            }
            let gap = (highest - lowest) / ((highest + lowest) / 2.0);
            let verdict = if gap > bound { "  BEYOND BOUND" } else { "" };
            agree &= gap <= bound;
            println!(
                "{name:<18} {workload:<18} {lowest:>14.4} {highest:>14.4} {gap:>8.4} {bound:>8.2}{verdict}"
            );
        }
    }
    Ok(all_correct && agree)
}

#[cfg(test)]
mod tests;
