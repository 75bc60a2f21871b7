//! End-to-end and per-layer benchmark of the sDTW workspace.
//!
//! ```text
//! sdtw_e2ebench --workload <serve_socket|knn_adaptive|monitor_feed>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               --sdtw <path to the sdtw binary> --out <output dir>
//!               [--commit <id>] [--rustc <version string>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all;
//! `--trace 1` is a separate run that records the harness's own spans
//! around calls into each crate's public functions and reports per-layer
//! self time; it replays a fixed amount of work (not `--seconds`) so its
//! counts repeat exactly for a seed. Every answer is checked against an oracle computed outside
//! the timed sections. The last stdout line is the result object; the
//! line before it is the run record.

mod knn;
mod monitor;
mod serve;
mod util;

use std::path::PathBuf;
use util::{json, render, Outcome, Value};

/// Every end-to-end metric, with its unit, in print order.
/// Operation counts travel as the result line's `attempted`/`failed`
/// (and as `ops`/`ops_failed` in the run record), not as metrics: a
/// failure count of zero has no spread to bound.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("recall_at_5_vs_full", "ratio"),
];

/// Every per-layer metric, with its unit. A workload that never enters a
/// layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.engine.answer_ms", "ms"),
    ("serve.daemon.unattributed_ms", "ms"),
    ("serve.engine.matcher_cache_hit_rate", "ratio"),
    ("serve.engine.entry_prune_rate", "ratio"),
    ("index.coarse_screen_us", "us"),
    ("stream.window_bound_floor_us", "us"),
    ("stream.matcher_new_us", "us"),
    ("stream.find_under_ms", "ms"),
    ("stream.cascade.candidates", "count"),
    ("stream.cascade.pruned_kim", "count"),
    ("stream.cascade.pruned_paa", "count"),
    ("stream.cascade.pruned_keogh", "count"),
    ("stream.cascade.abandoned", "count"),
    ("stream.cascade.dp_completed", "count"),
    ("stream.cascade.cells_filled", "count"),
    ("index.snapshot_decode_ms", "ms"),
    ("index.snapshot_bytes", "bytes"),
    ("salient.extract_us", "us"),
    ("salient.features_per_series", "count"),
    ("align.band_plan_us", "us"),
    ("align.band_fill_frac", "ratio"),
    ("dtw.dp_fill_ns_per_cell", "ns"),
    ("index.query_ms", "ms"),
    ("index.cascade.candidates", "count"),
    ("index.cascade.pruned_kim", "count"),
    ("index.cascade.pruned_paa", "count"),
    ("index.cascade.pruned_keogh", "count"),
    ("index.cascade.pruned_keogh_rev", "count"),
    ("index.cascade.lb_inapplicable", "count"),
    ("index.cascade.abandoned", "count"),
    ("index.cascade.dp_completed", "count"),
    ("index.cascade.cells_filled", "count"),
    ("index.build_ms", "ms"),
    ("stream.monitor.process_us", "us"),
    ("stream.monitor.matches_us", "us"),
    ("stream.monitor.candidates_peak", "count"),
    ("obs.unattributed_ms", "ms"),
    ("obs.traced_wall_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `sdtw` CLI binary the serve workload starts as its daemon.
    pub sdtw: PathBuf,
    /// Directory for snapshots, sockets and trace dumps.
    pub out: PathBuf,
    pub commit: String,
    pub rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        sdtw: PathBuf::from(get("sdtw")?),
        out: PathBuf::from(get("out")?),
        commit: map
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
        rustc: map
            .get("rustc")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdtw_e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("sdtw_e2ebench: {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let outcome = match args.workload.as_str() {
        "serve_socket" => serve::run(&args),
        "knn_adaptive" => knn::run(&args),
        "monitor_feed" => monitor::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) if o.attempted == 0 => Err("no operation ran".to_string()),
        other => other,
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sdtw_e2ebench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    emit(&args, outcome);
}

/// Prints the run record and the result line.
fn emit(args: &Args, outcome: Outcome) {
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let found = outcome.metrics.iter().find(|m| m.name == *name);
        let value = match found {
            Some(m) => {
                assert_eq!(m.unit, *unit, "unit of {name}");
                m.value
            }
            None if args.trace => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        metrics.push((name.to_string(), json!({"value": value, "unit": unit})));
    }
    for f in &outcome.failures {
        eprintln!("sdtw_e2ebench: FAILED {f}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = vec![
        ("workload".to_string(), json!(args.workload)),
        ("seed".to_string(), json!(args.seed)),
        ("trace".to_string(), json!(args.trace)),
        ("nproc".to_string(), json!(nproc)),
        ("commit".to_string(), json!(args.commit)),
        ("rustc".to_string(), json!(args.rustc)),
        ("run_seconds".to_string(), json!(args.seconds)),
        ("ops".to_string(), json!(outcome.attempted)),
        ("ops_failed".to_string(), json!(outcome.failed)),
    ];
    record.extend(outcome.record);
    println!("{}", render(&json!({"record": Value::Object(record)})));
    let result = json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", render(&result));
}
