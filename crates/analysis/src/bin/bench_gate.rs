//! `bench_gate` — the CI bench-regression gate.
//!
//! Compares freshly generated `BENCH_*.json` files against the committed baselines
//! and fails (exit code 1) when a throughput metric regressed or write amplification
//! rose beyond the configured tolerance:
//!
//! * any numeric field whose key ends in `_per_sec` may not drop more than
//!   `--max-throughput-drop` (default 30%, sized for the documented ±15%
//!   run-to-run variance of the quick-scale benches on the CI box);
//! * any numeric field whose key contains `write_amplification` may not rise more
//!   than `--max-wamp-rise` (default 20%) plus a small absolute slack of 0.05 (so
//!   near-zero baselines do not turn noise into failures);
//! * any numeric field whose key ends in `_ms` (latencies: checkpoint recovery,
//!   full-scan recovery) may not rise more than `--max-latency-rise` (default 150%)
//!   plus an absolute slack of 10 ms — quick-scale recovery times are single-digit
//!   milliseconds, so the wide relative band plus the absolute floor gates real
//!   complexity regressions (a bounded replay degrading into a full scan) without
//!   tripping on scheduler noise.
//!
//! The two JSON trees are walked in parallel: identity fields (`threads`, `mode`,
//! `phase`, `benchmark`, `policy`) must match so
//! metrics are never compared across misaligned rows, result arrays must keep their
//! length, and a metric present in the baseline may not disappear. Fields *added* by
//! a newer bench schema pass freely — the gate compares against what the baseline
//! knows.
//!
//! ```text
//! bench_gate <baseline_dir> <fresh_dir> <file> [<file>...]
//!     [--max-throughput-drop 0.30] [--max-wamp-rise 0.20] [--max-latency-rise 1.50]
//! ```

use serde::Value;

/// Fields that identify a result row; a mismatch means the comparison is misaligned,
/// which is itself a failure (renamed modes, reordered rows).
const IDENTITY_KEYS: &[&str] = &["benchmark", "policy", "mode", "phase", "threads"];

/// Gate thresholds.
struct Gate {
    max_throughput_drop: f64,
    max_wamp_rise: f64,
    max_latency_rise: f64,
}

/// Absolute slack for `_ms` latency metrics: below this many milliseconds of rise,
/// noise on the CI box cannot be told apart from a regression.
const LATENCY_ABS_SLACK_MS: f64 = 10.0;

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn is_throughput_key(key: &str) -> bool {
    key.ends_with("_per_sec")
}

fn is_wamp_key(key: &str) -> bool {
    key.contains("write_amplification")
}

fn is_latency_key(key: &str) -> bool {
    key.ends_with("_ms")
}

fn is_gated_key(key: &str) -> bool {
    is_throughput_key(key) || is_wamp_key(key) || is_latency_key(key)
}

/// True if any key anywhere under `v` is a gated metric (used to decide whether a
/// structural mismatch matters).
fn contains_metric(v: &Value) -> bool {
    match v {
        Value::Object(fields) => fields
            .iter()
            .any(|(k, v)| is_gated_key(k) || contains_metric(v)),
        Value::Array(items) => items.iter().any(contains_metric),
        _ => false,
    }
}

/// Walk baseline and fresh values in parallel, appending human-readable violations.
fn compare(path: &str, key: &str, base: &Value, fresh: &Value, gate: &Gate, out: &mut Vec<String>) {
    // A container in the baseline that came back as a different JSON shape (null, a
    // scalar, array-for-object, …) would fall through every structural arm below and
    // silently drop the whole subtree from gating — the exact "metric disappeared"
    // case the gate exists to catch.
    let shape_mismatch = matches!(base, Value::Object(_)) != matches!(fresh, Value::Object(_))
        || matches!(base, Value::Array(_)) != matches!(fresh, Value::Array(_));
    if shape_mismatch {
        if is_gated_key(key) || contains_metric(base) {
            out.push(format!(
                "{path}: JSON shape changed (baseline {base:?} vs fresh {fresh:?}) — \
                 gated metrics under it are no longer comparable"
            ));
        }
        return;
    }
    match (base, fresh) {
        (Value::Object(base_fields), Value::Object(_)) => {
            for (k, bv) in base_fields {
                let child_path = format!("{path}.{k}");
                match fresh.get_field(k) {
                    Some(fv) => compare(&child_path, k, bv, fv, gate, out),
                    None => {
                        if is_gated_key(k) || contains_metric(bv) {
                            out.push(format!("{child_path}: metric missing from fresh run"));
                        }
                    }
                }
            }
        }
        (Value::Array(base_items), Value::Array(fresh_items)) => {
            if base_items.len() != fresh_items.len() {
                if base_items.iter().any(contains_metric) {
                    out.push(format!(
                        "{path}: result count changed ({} baseline vs {} fresh)",
                        base_items.len(),
                        fresh_items.len()
                    ));
                }
                return;
            }
            for (i, (bv, fv)) in base_items.iter().zip(fresh_items).enumerate() {
                compare(&format!("{path}[{i}]"), key, bv, fv, gate, out);
            }
        }
        _ => {
            if IDENTITY_KEYS.contains(&key) {
                if base != fresh {
                    out.push(format!(
                        "{path}: identity field changed ({base:?} baseline vs {fresh:?} fresh) — \
                         rows are misaligned"
                    ));
                }
                return;
            }
            let gated = is_gated_key(key);
            let (Some(b), Some(f)) = (as_f64(base), as_f64(fresh)) else {
                if gated && as_f64(base).is_some() {
                    out.push(format!(
                        "{path}: metric became non-numeric (baseline {base:?}, fresh {fresh:?})"
                    ));
                }
                return; // non-numeric, non-identity: not gated
            };
            if is_throughput_key(key) && b > 0.0 {
                let floor = b * (1.0 - gate.max_throughput_drop);
                if f < floor {
                    out.push(format!(
                        "{path}: throughput regressed {:.1}% (baseline {b:.1}, fresh {f:.1}, \
                         floor {floor:.1})",
                        (1.0 - f / b) * 100.0
                    ));
                }
            } else if is_wamp_key(key) {
                let ceiling = b * (1.0 + gate.max_wamp_rise) + 0.05;
                if f > ceiling {
                    out.push(format!(
                        "{path}: write amplification rose (baseline {b:.3}, fresh {f:.3}, \
                         ceiling {ceiling:.3})"
                    ));
                }
            } else if is_latency_key(key) {
                let ceiling = b * (1.0 + gate.max_latency_rise) + LATENCY_ABS_SLACK_MS;
                if f > ceiling {
                    out.push(format!(
                        "{path}: latency rose (baseline {b:.2} ms, fresh {f:.2} ms, \
                         ceiling {ceiling:.2} ms)"
                    ));
                }
            }
        }
    }
}

fn load(path: &std::path::Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {}: {e}", path.display()));
    serde_json::parse(&text)
        .unwrap_or_else(|e| panic!("bench_gate: cannot parse {}: {e}", path.display()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut gate = Gate {
        max_throughput_drop: 0.30,
        max_wamp_rise: 0.20,
        max_latency_rise: 1.50,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-throughput-drop" => {
                gate.max_throughput_drop = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-throughput-drop needs a number");
            }
            "--max-wamp-rise" => {
                gate.max_wamp_rise = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-wamp-rise needs a number");
            }
            "--max-latency-rise" => {
                gate.max_latency_rise = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-latency-rise needs a number");
            }
            _ => positional.push(a),
        }
    }
    if positional.len() < 3 {
        eprintln!(
            "usage: bench_gate <baseline_dir> <fresh_dir> <file> [<file>...] \
             [--max-throughput-drop 0.30] [--max-wamp-rise 0.20] [--max-latency-rise 1.50]"
        );
        std::process::exit(2);
    }
    let baseline_dir = std::path::Path::new(&positional[0]);
    let fresh_dir = std::path::Path::new(&positional[1]);

    let mut violations = Vec::new();
    for file in &positional[2..] {
        let base = load(&baseline_dir.join(file));
        let fresh = load(&fresh_dir.join(file));
        let before = violations.len();
        compare(file, "", &base, &fresh, &gate, &mut violations);
        println!(
            "bench_gate: {file}: {}",
            if violations.len() == before {
                "ok".to_string()
            } else {
                format!("{} violation(s)", violations.len() - before)
            }
        );
    }
    if !violations.is_empty() {
        eprintln!("\nbench_gate FAILED ({} violations):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!(
        "bench_gate: all files within tolerance (throughput drop <= {:.0}%, W_amp rise <= {:.0}%, \
         latency rise <= {:.0}%)",
        gate.max_throughput_drop * 100.0,
        gate.max_wamp_rise * 100.0,
        gate.max_latency_rise * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> Gate {
        Gate {
            max_throughput_drop: 0.30,
            max_wamp_rise: 0.20,
            max_latency_rise: 1.50,
        }
    }

    fn check(base: &str, fresh: &str) -> Vec<String> {
        let b = serde_json::parse(base).unwrap();
        let f = serde_json::parse(fresh).unwrap();
        let mut out = Vec::new();
        compare("t", "", &b, &f, &gate(), &mut out);
        out
    }

    #[test]
    fn passes_within_tolerance() {
        let base = r#"{"results":[{"threads":1,"puts_per_sec":1000.0,"write_amplification":1.0}]}"#;
        let ok = r#"{"results":[{"threads":1,"puts_per_sec":800.0,"write_amplification":1.1}]}"#;
        assert!(check(base, ok).is_empty());
        // Improvements always pass.
        let better =
            r#"{"results":[{"threads":1,"puts_per_sec":9000.0,"write_amplification":0.2}]}"#;
        assert!(check(base, better).is_empty());
    }

    #[test]
    fn catches_throughput_regression_and_wamp_rise() {
        let base = r#"{"results":[{"threads":1,"puts_per_sec":1000.0,"write_amplification":1.0}]}"#;
        let slow = r#"{"results":[{"threads":1,"puts_per_sec":699.0,"write_amplification":1.0}]}"#;
        let v = check(base, slow);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("throughput regressed"));

        let churny =
            r#"{"results":[{"threads":1,"puts_per_sec":1000.0,"write_amplification":1.3}]}"#;
        let v = check(base, churny);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("write amplification rose"));
    }

    #[test]
    fn near_zero_wamp_gets_absolute_slack() {
        let base = r#"{"write_amplification":0.01}"#;
        // 0.05 absolute slack: 0.05 over a 0.01 baseline is noise, not a regression.
        assert!(check(base, r#"{"write_amplification":0.055}"#).is_empty());
        assert!(!check(base, r#"{"write_amplification":0.2}"#).is_empty());
    }

    #[test]
    fn catches_latency_regression_with_absolute_slack() {
        // 5 ms -> 12 ms: inside 5 * 2.5 + 10 = 22.5 ms ceiling, passes as noise.
        let base = r#"{"recovery":{"recovery_ms":5.0,"full_scan_ms":40.0}}"#;
        let noisy = r#"{"recovery":{"recovery_ms":12.0,"full_scan_ms":60.0}}"#;
        assert!(check(base, noisy).is_empty());
        // A bounded replay degrading toward a full scan blows through the ceiling.
        let degraded = r#"{"recovery":{"recovery_ms":40.0,"full_scan_ms":40.0}}"#;
        let v = check(base, degraded);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("latency rose"), "{v:?}");
        // A latency metric may not vanish from the fresh schema.
        let missing = r#"{"recovery":{"full_scan_ms":40.0}}"#;
        let v = check(base, missing);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("metric missing"), "{v:?}");
    }

    #[test]
    fn zero_baseline_throughput_is_not_gated() {
        let base = r#"{"idle_puts_per_sec":0.0}"#;
        assert!(check(base, r#"{"idle_puts_per_sec":0.0}"#).is_empty());
    }

    #[test]
    fn structural_and_identity_mismatches_fail() {
        let base =
            r#"{"results":[{"threads":1,"puts_per_sec":10.0},{"threads":2,"puts_per_sec":20.0}]}"#;
        let fewer = r#"{"results":[{"threads":1,"puts_per_sec":10.0}]}"#;
        assert!(check(base, fewer)[0].contains("result count changed"));

        let misaligned =
            r#"{"results":[{"threads":4,"puts_per_sec":10.0},{"threads":2,"puts_per_sec":20.0}]}"#;
        assert!(check(base, misaligned)[0].contains("identity field changed"));

        let missing = r#"{"results":[{"threads":1},{"threads":2,"puts_per_sec":20.0}]}"#;
        assert!(check(base, missing)[0].contains("metric missing"));
    }

    #[test]
    fn shape_changes_over_metrics_fail() {
        // A metric subtree degrading to null / a scalar / the wrong container must be
        // flagged, not silently skipped.
        let base = r#"{"results":[{"threads":1,"puts_per_sec":100.0}]}"#;
        for broken in [
            r#"{"results":null}"#,
            r#"{"results":"oops"}"#,
            r#"{"results":{"threads":1}}"#,
        ] {
            let v = check(base, broken);
            assert_eq!(v.len(), 1, "{broken}: {v:?}");
            assert!(v[0].contains("shape changed"), "{v:?}");
        }
        // Shape changes over metric-free subtrees stay un-gated.
        let no_metrics = r#"{"notes":["a","b"]}"#;
        assert!(check(no_metrics, r#"{"notes":null}"#).is_empty());
    }

    #[test]
    fn new_fields_in_fresh_schema_pass() {
        let base = r#"{"results":[{"threads":1,"puts_per_sec":100.0}]}"#;
        let grown = r#"{"results":[{"threads":1,"puts_per_sec":100.0,"new_gauge":7}]}"#;
        assert!(check(base, grown).is_empty());
    }
}
