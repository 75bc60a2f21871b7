//! `sdtw` — command-line front-end over the sDTW reproduction.
//!
//! ```text
//! sdtw dist <corpus.txt> <i> <j> [--policy P] [--width W] [--path]
//! sdtw features <corpus.txt> <i> [--bins B] [--json]
//! sdtw retrieve <corpus.txt> <query-index> [--k K] [--policy P] [--width W]
//! sdtw distmat <corpus.txt> [--policy P] [--width W] [--serial] [--queries q.txt] [--out m.json]
//! sdtw index build <corpus.txt> <out> [--policy P] [--width W] [--radius F] [--znorm] [--format bin|json] [--paa W]
//! sdtw index convert <in> <out> [--format bin|json]
//! sdtw index query <index> <queries.txt> [--k K] [--serial] [--json]
//! sdtw stream find <haystack.txt> <query.txt> [--k K] [--tau T] [--monitor] [--raw]
//! sdtw serve --index <index.json> (--pipe | --socket <path>) [--k K] [--trace t.ndjson]
//! sdtw client emit <queries.txt> [--k K] [--tau T] [--trace]
//! sdtw client print [responses.ndjson|-]
//! sdtw client send <socket> <queries.txt> [--k K] [--tau T] [--shutdown]
//! sdtw report <trace.ndjson>... (`-` reads stdin)
//! sdtw generate <gun|trace|50words> <out.txt> [--seed S]
//! ```
//!
//! Corpora are UCR text files (one series per line, label first). The
//! `generate` subcommand writes the synthetic analogue datasets so every
//! other subcommand has data to work on out of the box.
//!
//! Every distance-computing subcommand accepts `--trace <file>` /
//! `--trace-stdout` to emit one NDJSON [`QueryTrace`] line per logical
//! query; `sdtw report` aggregates those files into prune/latency
//! tables.

mod args;

use args::Args;
use rayon::prelude::*;
use sdtw::{ConstraintPolicy, FeatureStore, KernelChoice, SDtw, SDtwConfig, SalientConfig};
use sdtw_datasets::UcrAnalog;
use sdtw_index::{
    CascadeStats, IndexConfig, SdtwIndex, SnapshotCodec, SnapshotFormat, DEFAULT_PAA_WIDTH,
};
use sdtw_obs::{InputShape, QueryTrace, Recorder, TraceReport, WorkloadKind};
use sdtw_salient::feature::extract_feature_set;
use sdtw_serve::{
    client_roundtrip, run_pipe, ServeConfig, ServeEngine, ServeRequest, ServeResponse, SocketServer,
};
use sdtw_stream::{MonitorBank, StreamConfig, SubseqMatcher, SubseqResult};
use sdtw_tseries::io::{read_ucr_file, write_ucr_file};
use sdtw_tseries::TimeSeries;
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "\
usage: sdtw <command> [args] [options]

commands:
  dist <corpus> <i> <j>      distance between series i and j of a UCR file
                             options: --policy <full|sakoe|itakura|fcaw|acfw|acaw|ac2aw>
                                      --width <frac>   (sakoe/acfw width, default 0.1)
                                      --path           (print the warp path)
                                      --kernel <std|amerced>  (cost kernel, default std)
                                      --penalty <w>    (amerced warp penalty, default 1.0)
                                      --trace <file> / --trace-stdout
                                                       (emit the NDJSON query trace)
  features <corpus> <i>      salient features of series i
                             options: --bins <n> (descriptor length, default 64)
                                      --json     (machine-readable output)
  retrieve <corpus> <i>      top-k neighbours of series i
                             options: --k <n> (default 5), --policy, --width,
                                      --kernel, --penalty
  distmat <corpus>           full pairwise distance matrix of a corpus
                             (parallel over rows by default)
                             options: --policy, --width, --kernel, --penalty
                                      --serial          (disable parallelism)
                                      --queries <file>  (query-vs-corpus matrix
                                                         instead of pairwise)
                                      --out <file.json> (write the matrix)
                                      --trace <file> / --trace-stdout
                                                        (one NDJSON trace for
                                                         the whole batch)
  index build <corpus> <out> prebuild a kNN index (envelopes, summaries,
                             coarse PAA envelopes, cached salient descriptors)
                             options: --policy, --width, --kernel, --penalty
                                      --radius <frac> (envelope window, default 0.1)
                                      --znorm         (z-normalise entries+queries)
                                      --format <bin|json> (snapshot codec;
                                               default json, bin is the binary
                                               columnar v2 layout)
                                      --paa <w> (coarse stage segment width,
                                             default 8; below 2 disables it)
  index convert <in> <out>   re-encode an index snapshot between formats
                             (reads either, auto-detected by magic)
                             options: --format <bin|json> (default bin)
  index query <idx> <q>      answer top-k queries from a prebuilt index
                             (JSON or binary snapshot) via the LB_Kim ->
                             PAA -> LB_Keogh -> reversed LB_Keogh ->
                             early-abandon cascade (parallel by default)
                             options: --k <n> (default 5)
                                      --serial (disable parallelism)
                                      --json   (machine-readable output)
                                      --trace <file> / --trace-stdout
                                               (one NDJSON trace per query)
  stream find <hay> <q>      subsequence search: the k best non-overlapping
                             occurrences of a query pattern inside a long
                             series, via the rolling LB_Kim -> PAA ->
                             LB_Keogh -> early-abandon cascade over sliding
                             windows
                             options: --policy, --width, --kernel, --penalty
                                      --series <i>    (haystack row, default 0)
                                      --query <i>     (query row, default 0)
                                      --queries <f>   (search every row of f
                                                       instead of one query;
                                                       replaces <q>)
                                      --k <n>         (matches, default 3)
                                      --tau <t>       (only matches <= t)
                                      --radius <frac> (envelope window,
                                                       default: --width)
                                      --exclusion <frac> (min match spacing
                                                       as query fraction, 0.5)
                                      --paa <w>       (coarse pre-filter
                                                       segment width, default
                                                       8; < 2 disables)
                                      --parallel      (shard one haystack
                                                       across the rayon pool,
                                                       or fan --queries over
                                                       it)
                                      --shards <n>    (shard count for
                                                       --parallel, default:
                                                       one per worker)
                                      --raw           (skip z-normalisation)
                                      --monitor       (drive the streaming
                                                       ring-buffer monitor —
                                                       a shared-ingest bank
                                                       under --queries)
                                      --json          (machine-readable output)
                                      --trace <file> / --trace-stdout
                                                      (one NDJSON trace per
                                                       query)
  serve --index <idx.json>   resident pattern service: load one immutable
                             index snapshot, then answer NDJSON pattern
                             requests through the two-level cascade
                             (coarse entry screen -> subsequence sweep);
                             results are exact (see `client`)
                             options: --pipe          (NDJSON requests on
                                                       stdin, responses on
                                                       stdout, stop at EOF)
                                      --socket <path> (Unix-socket daemon,
                                                       stop on a Shutdown
                                                       request)
                                      --k <n>         (default k for
                                                       requests that omit
                                                       theirs, 5)
                                      --shards <n>    (level-2 sweep shards
                                                       per entry, default 1
                                                       = per-worker scratch
                                                       reuse; 0 = one per
                                                       rayon worker)
                                      --batch <n>     (pipe-mode batch size
                                                       for the rayon job
                                                       queue, default 32)
                                      --trace <file>  (one NDJSON QueryTrace
                                                       per request, written
                                                       at shutdown)
  client emit <queries>      write one NDJSON request line per query row
                             (pipe into `sdtw serve --pipe`)
                             options: --k <n> (0 = daemon default)
                                      --tau <t>  (inclusive distance cap)
                                      --trace    (request per-query traces)
  client print [file|-]      render NDJSON responses humanly (default -,
                             i.e. stdin — the end of a serve pipeline)
  client send <sock> <q>     connect to a --socket daemon, send the query
                             rows, print the answers
                             options: --k, --tau, --trace, --json (raw
                                      NDJSON), --shutdown (stop the daemon
                                      after the answers)
  report <trace.ndjson>...   aggregate NDJSON trace files (written by
                             --trace) into per-stage prune percentages,
                             p50/p95 span durations, and a cells-per-query
                             histogram; `-` reads NDJSON from stdin
  generate <kind> <out>      write a synthetic corpus (gun|trace|50words)
                             options: --seed <n> (default 20120827)
";

fn policy_from(name: &str, width: f64) -> Result<ConstraintPolicy, String> {
    let policy = match name {
        "full" => ConstraintPolicy::FullGrid,
        "sakoe" => ConstraintPolicy::FixedCoreFixedWidth { width_frac: width },
        "itakura" => ConstraintPolicy::Itakura { slope: 2.0 },
        "fcaw" => ConstraintPolicy::fixed_core_adaptive_width(),
        "acfw" => ConstraintPolicy::adaptive_core_fixed_width(width),
        "acaw" => ConstraintPolicy::adaptive_core_adaptive_width(),
        "ac2aw" => ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
        other => return Err(format!("unknown policy `{other}`")),
    };
    Ok(policy)
}

/// Parses `--kernel` / `--penalty` into a [`KernelChoice`].
fn kernel_from(a: &Args) -> Result<KernelChoice, String> {
    let penalty = a.opt_parse("penalty", 1.0f64)?;
    match a.options.get("kernel").map(String::as_str) {
        None | Some("std") | Some("standard") => {
            if a.flag("penalty") {
                // a silently ignored penalty means the user thought they
                // were running ADTW — refuse rather than mislead
                return Err("--penalty requires --kernel amerced".into());
            }
            Ok(KernelChoice::Standard)
        }
        Some("amerced") | Some("adtw") => {
            if !penalty.is_finite() || penalty < 0.0 {
                return Err(format!("--penalty must be finite and >= 0, got {penalty}"));
            }
            Ok(KernelChoice::Amerced { penalty })
        }
        Some(other) => Err(format!("unknown kernel `{other}` (std|amerced)")),
    }
}

/// Default `--width` fraction (shared between the engine configuration
/// and `stream find`'s "radius defaults to the width" rule).
const DEFAULT_WIDTH: f64 = 0.1;

/// Base engine configuration from the shared CLI options.
fn config_from(a: &Args) -> Result<SDtwConfig, String> {
    let width = a.opt_parse("width", DEFAULT_WIDTH)?;
    let policy = policy_from(
        a.options.get("policy").map_or("ac2aw", String::as_str),
        width,
    )?;
    let mut config = SDtwConfig {
        policy,
        ..SDtwConfig::default()
    };
    config.dtw.kernel = kernel_from(a)?;
    Ok(config)
}

fn load_series(corpus: &[TimeSeries], idx: usize) -> Result<&TimeSeries, String> {
    corpus
        .get(idx)
        .ok_or_else(|| format!("index {idx} out of range (corpus has {})", corpus.len()))
}

/// Where `--trace <file>` / `--trace-stdout` sends NDJSON trace lines.
/// Lines are buffered and written in one `flush` so a failed run never
/// leaves a truncated trace file behind.
struct TraceSink {
    /// `None` means stdout.
    path: Option<String>,
    lines: Vec<String>,
}

impl TraceSink {
    /// The sink the command line asked for, if any. `--trace` and
    /// `--trace-stdout` are mutually exclusive, and stdout traces cannot
    /// combine with `--json` (the interleaved stream would parse as
    /// neither format).
    fn from_args(a: &Args) -> Result<Option<TraceSink>, String> {
        let path = a.options.get("trace").cloned();
        let stdout = a.flag("trace-stdout");
        if path.is_some() && stdout {
            return Err("--trace and --trace-stdout are mutually exclusive".into());
        }
        if stdout && a.flag("json") {
            return Err(
                "--trace-stdout would interleave with --json output; use --trace <file>".into(),
            );
        }
        if path.is_none() && !stdout {
            return Ok(None);
        }
        Ok(Some(TraceSink {
            path,
            lines: Vec::new(),
        }))
    }

    fn push(&mut self, trace: &QueryTrace) {
        self.lines.push(trace.to_json_line());
    }

    fn flush(self) -> Result<(), String> {
        let mut doc = self.lines.join("\n");
        doc.push('\n');
        match self.path {
            Some(p) => {
                std::fs::write(&p, doc).map_err(|e| format!("{p}: {e}"))?;
                println!("wrote {} trace line(s) to {p}", self.lines.len());
            }
            None => print!("{doc}"),
        }
        Ok(())
    }
}

fn cmd_dist(a: &Args) -> Result<(), String> {
    let [path, i, j] = a.positional.as_slice() else {
        return Err("dist needs <corpus> <i> <j>".into());
    };
    let corpus = read_ucr_file(path).map_err(|e| e.to_string())?;
    let i: usize = i.parse().map_err(|_| "i must be an index")?;
    let j: usize = j.parse().map_err(|_| "j must be an index")?;
    let mut config = config_from(a)?;
    config.dtw.compute_path = a.flag("path");
    let mut sink = TraceSink::from_args(a)?;
    let engine = SDtw::new(config).map_err(|e| e.to_string())?;
    let x = load_series(&corpus, i)?;
    let y = load_series(&corpus, j)?;
    let mut rec = if sink.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let t0 = std::time::Instant::now();
    let out = engine
        .query(x, y)
        .recorder(&mut rec)
        .run()
        .map_err(|e| e.to_string())?
        .expect("no cutoff configured");
    let wall = t0.elapsed();
    println!(
        "distance {:.6}  kernel {}  cells {}  coverage {:.1}%  pairs {}/{}",
        out.distance,
        engine.config().dtw.kernel_label(),
        out.cells_filled,
        out.band_coverage * 100.0,
        out.consistent_pairs,
        out.raw_pairs
    );
    if let Some(p) = out.path {
        let steps: Vec<String> = p.steps().iter().map(|(a, b)| format!("{a}:{b}")).collect();
        println!("path {}", steps.join(" "));
    }
    if let Some(mut sink) = sink.take() {
        let mut trace = QueryTrace::new(format!("{i}x{j}"), WorkloadKind::Distance);
        trace.shape = InputShape {
            x_len: x.len() as u64,
            y_len: y.len() as u64,
            k: 1,
            policy: engine.config().policy.label(),
            kernel: engine.config().dtw.kernel_label(),
            engine: "wavefront".into(),
        };
        trace.counters.passes = 1;
        trace.counters.cascade.candidates = 1;
        trace.counters.cascade.dp_completed = 1;
        trace.counters.cascade.cells_filled = out.cells_filled as u64;
        trace.descriptor_comparisons = out.descriptor_comparisons as u64;
        trace.band_area = out.band_area as u64;
        trace.full_grid = (x.len() * y.len()) as u64;
        trace.spans = rec.finish();
        trace.wall = wall;
        sink.push(&trace);
        sink.flush()?;
    }
    Ok(())
}

fn cmd_features(a: &Args) -> Result<(), String> {
    let [path, i] = a.positional.as_slice() else {
        return Err("features needs <corpus> <i>".into());
    };
    let corpus = read_ucr_file(path).map_err(|e| e.to_string())?;
    let i: usize = i.parse().map_err(|_| "i must be an index")?;
    let bins = a.opt_parse("bins", 64usize)?;
    let cfg = SalientConfig::default().with_descriptor_bins(bins);
    let ts = load_series(&corpus, i)?;
    let set = extract_feature_set(ts, &cfg).map_err(|e| e.to_string())?;
    if a.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?
        );
    } else {
        println!("{} features (series length {})", set.len(), set.series_len);
        let counts = set.count_by_scale();
        println!(
            "scale classes: fine {} / medium {} / rough {}",
            counts[0], counts[1], counts[2]
        );
        for f in &set.features {
            println!(
                "  pos {:>4}  sigma {:>6.2}  scope [{:>4},{:>4}]  {:?}",
                f.keypoint.position,
                f.keypoint.sigma,
                f.scope_start,
                f.scope_end,
                f.keypoint.polarity
            );
        }
    }
    Ok(())
}

fn cmd_retrieve(a: &Args) -> Result<(), String> {
    let [path, i] = a.positional.as_slice() else {
        return Err("retrieve needs <corpus> <query-index>".into());
    };
    let corpus = read_ucr_file(path).map_err(|e| e.to_string())?;
    let i: usize = i.parse().map_err(|_| "query index must be a number")?;
    let k = a.opt_parse("k", 5usize)?;
    let config = config_from(a)?;
    let policy = config.policy;
    let engine = SDtw::new(config).map_err(|e| e.to_string())?;
    let store = FeatureStore::new(engine.config().salient.clone()).map_err(|e| e.to_string())?;
    let query = load_series(&corpus, i)?;
    let mut scratch = sdtw::DtwScratch::new();
    let mut scored: Vec<(usize, f64)> = Vec::new();
    for (j, candidate) in corpus.iter().enumerate() {
        if j == i {
            continue;
        }
        let out = engine
            .query(query, candidate)
            .store(&store)
            .scratch(&mut scratch)
            .run()
            .map_err(|e| e.to_string())?
            .expect("no cutoff configured");
        scored.push((j, out.distance));
    }
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
    println!(
        "top-{k} neighbours of series {i} (policy {}, kernel {}):",
        policy.label(),
        engine.config().dtw.kernel_label()
    );
    for (rank, (j, d)) in scored.iter().take(k).enumerate() {
        let label = corpus[*j]
            .label()
            .map_or("-".to_string(), |l| l.to_string());
        println!(
            "  #{:<2} series {:>4}  label {:>3}  distance {:.6}",
            rank + 1,
            j,
            label,
            d
        );
    }
    Ok(())
}

fn cmd_distmat(a: &Args) -> Result<(), String> {
    let [path] = a.positional.as_slice() else {
        return Err("distmat needs <corpus>".into());
    };
    let corpus = read_ucr_file(path).map_err(|e| e.to_string())?;
    if corpus.is_empty() {
        return Err("corpus is empty".into());
    }
    let config = config_from(a)?;
    let policy = config.policy;
    let parallel = !a.flag("serial");
    let queries = match a.options.get("queries") {
        Some(q) => {
            let queries = read_ucr_file(q).map_err(|e| e.to_string())?;
            if queries.is_empty() {
                return Err("query file is empty".into());
            }
            Some(queries)
        }
        None => None,
    };
    let out_path = a.options.get("out");
    let mut sink = TraceSink::from_args(a)?;
    let engine = SDtw::new(config).map_err(|e| e.to_string())?;
    let store = FeatureStore::new(engine.config().salient.clone()).map_err(|e| e.to_string())?;

    // one-time feature indexing (corpus + queries), so the wall time below
    // is pure matching + DP — the paper's cost split. Non-adaptive
    // policies never read features; skip extraction entirely for them.
    let t0 = std::time::Instant::now();
    if policy.needs_alignment() {
        store.warm(&corpus).map_err(|e| e.to_string())?;
        if let Some(q) = &queries {
            store.warm(q).map_err(|e| e.to_string())?;
        }
    }
    let extraction = t0.elapsed();

    let rows = queries.as_ref().map_or(corpus.len(), Vec::len);
    let t1 = std::time::Instant::now();
    let (stats, summary, json) = match &queries {
        Some(queries) => {
            let (m, trace) =
                sdtw_eval::compute_query_matrix_traced(queries, &corpus, &engine, &store, parallel)
                    .map_err(|e| e.to_string())?;
            if let Some(sink) = sink.as_mut() {
                sink.push(&trace);
            }
            let summary = format!("matrix {} queries x {} corpus", m.queries(), m.corpus());
            let json = serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?;
            (m.stats, summary, json)
        }
        None => {
            let (m, trace) = sdtw_eval::compute_matrix_traced(&corpus, &engine, &store, parallel)
                .map_err(|e| e.to_string())?;
            if let Some(sink) = sink.as_mut() {
                sink.push(&trace);
            }
            let summary = format!("matrix {} x {} (pairwise)", m.n(), m.n());
            let json = serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?;
            (m.stats, summary, json)
        }
    };
    let wall = t1.elapsed();

    println!(
        "{summary}  policy {}  kernel {}",
        policy.label(),
        engine.config().dtw.kernel_label()
    );
    println!(
        "mode {}  workers {}",
        if parallel { "parallel" } else { "serial" },
        if parallel {
            rayon::current_num_threads().min(rows)
        } else {
            1
        }
    );
    println!(
        "pairs {}  cells {}  descriptor comparisons {}",
        stats.pairs, stats.cells_filled, stats.descriptor_comparisons
    );
    println!(
        "extraction {extraction:?}  wall {wall:?}  cpu(match+dp) {:?}",
        stats.total_time()
    );
    if let Some(out) = out_path {
        std::fs::write(out, json).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    if let Some(sink) = sink {
        sink.flush()?;
    }
    Ok(())
}

fn cmd_index(a: &Args) -> Result<(), String> {
    match a.positional.first().map(String::as_str) {
        Some("build") => cmd_index_build(a),
        Some("convert") => cmd_index_convert(a),
        Some("query") => cmd_index_query(a),
        _ => {
            Err("index needs a subcommand: `index build`, `index convert` or `index query`".into())
        }
    }
}

/// Parses the `--format` option into a snapshot codec choice.
fn snapshot_format_from(a: &Args, default: SnapshotFormat) -> Result<SnapshotFormat, String> {
    match a.options.get("format").map(String::as_str) {
        None => Ok(default),
        Some("bin" | "binary") => Ok(SnapshotFormat::BinaryV2),
        Some("json") => Ok(SnapshotFormat::Json),
        Some(other) => Err(format!("--format {other}: expected `bin` or `json`")),
    }
}

fn cmd_index_build(a: &Args) -> Result<(), String> {
    let [_, corpus_path, out_path] = a.positional.as_slice() else {
        return Err("index build needs <corpus> <out>".into());
    };
    let corpus = read_ucr_file(corpus_path).map_err(|e| e.to_string())?;
    if corpus.is_empty() {
        return Err("corpus is empty".into());
    }
    let format = snapshot_format_from(a, SnapshotFormat::Json)?;
    let sdtw_config = config_from(a)?;
    let policy = sdtw_config.policy;
    let config = IndexConfig {
        sdtw: sdtw_config,
        z_normalize: a.flag("znorm"),
        lb_radius_frac: a.opt_parse("radius", 0.1)?,
        paa_width: a.opt_parse("paa", DEFAULT_PAA_WIDTH)?,
    };
    let t0 = std::time::Instant::now();
    let index = SdtwIndex::build(&corpus, config).map_err(|e| e.to_string())?;
    let built = t0.elapsed();
    let bytes = SnapshotCodec::encode(&index, format).map_err(|e| e.to_string())?;
    std::fs::write(out_path, &bytes).map_err(|e| e.to_string())?;
    println!(
        "indexed {} series  policy {}  kernel {}  radius {:.0}%  paa {}  znorm {}  build {built:?}",
        index.len(),
        policy.label(),
        index.config().sdtw.dtw.kernel_label(),
        index.config().lb_radius_frac * 100.0,
        index.config().paa_width,
        index.config().z_normalize,
    );
    println!(
        "wrote {out_path} ({} bytes, {} snapshot)",
        bytes.len(),
        format.label()
    );
    Ok(())
}

fn cmd_index_convert(a: &Args) -> Result<(), String> {
    let [_, in_path, out_path] = a.positional.as_slice() else {
        return Err("index convert needs <in> <out>".into());
    };
    let format = snapshot_format_from(a, SnapshotFormat::BinaryV2)?;
    let index = SnapshotCodec::read_file(in_path).map_err(|e| e.to_string())?;
    let bytes = SnapshotCodec::encode(&index, format).map_err(|e| e.to_string())?;
    std::fs::write(out_path, &bytes).map_err(|e| e.to_string())?;
    println!(
        "converted {in_path} -> {out_path} ({} entries, {} bytes, {} snapshot)",
        index.len(),
        bytes.len(),
        format.label()
    );
    Ok(())
}

fn cmd_index_query(a: &Args) -> Result<(), String> {
    let [_, index_path, queries_path] = a.positional.as_slice() else {
        return Err("index query needs <index> <queries>".into());
    };
    let index = SnapshotCodec::read_file(index_path).map_err(|e| e.to_string())?;
    let queries = read_ucr_file(queries_path).map_err(|e| e.to_string())?;
    if queries.is_empty() {
        return Err("query file is empty".into());
    }
    let k = a.opt_parse("k", 5usize)?;
    let parallel = !a.flag("serial");
    let mut sink = TraceSink::from_args(a)?;
    let t0 = std::time::Instant::now();
    let results = match sink.as_mut() {
        None => index
            .batch_query(&queries, k, parallel)
            .map_err(|e| e.to_string())?,
        Some(sink) => {
            // the traced path answers each query through `query_traced`
            // (bit-identical results) and emits one NDJSON line per query
            let run = |i: usize| index.query_traced(&queries[i], k, &format!("q{i}"));
            let traced: Vec<_> = if parallel {
                (0..queries.len()).into_par_iter().map(run).collect()
            } else {
                (0..queries.len()).map(run).collect()
            };
            let mut results = Vec::with_capacity(traced.len());
            for item in traced {
                let (result, trace) = item.map_err(|e| e.to_string())?;
                sink.push(&trace);
                results.push(result);
            }
            results
        }
    };
    let wall = t0.elapsed();
    if a.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?
        );
        if let Some(sink) = sink {
            sink.flush()?;
        }
        return Ok(());
    }
    let mut total = CascadeStats::default();
    for (q, r) in results.iter().enumerate() {
        total.absorb(&r.stats);
        let hits: Vec<String> = r
            .neighbors
            .iter()
            .map(|n| {
                let label = index
                    .entry_series(n.index)
                    .label()
                    .map_or("-".to_string(), |l| l.to_string());
                format!("{}(l{label}, {:.4})", n.index, n.distance)
            })
            .collect();
        println!("query {q:>3}: {}", hits.join("  "));
    }
    println!(
        "cascade over {} candidates: kim {}  paa {}  keogh {}  keogh-rev {}  abandoned {}  dp {}  (lb n/a {})",
        total.candidates,
        total.pruned_kim,
        total.pruned_paa,
        total.pruned_keogh,
        total.pruned_keogh_rev,
        total.abandoned,
        total.dp_completed,
        total.lb_inapplicable,
    );
    println!(
        "prune rate {:.1}%  cells filled {}  mode {}  wall {wall:?}",
        total.prune_rate() * 100.0,
        total.cells_filled,
        if parallel { "parallel" } else { "serial" },
    );
    if total.bounds_disabled {
        println!(
            "note: lower-bound pruning disabled — the configured kernel \
             reports LB_Kim/LB_Keogh inadmissible; queries ran on early \
             abandoning alone"
        );
    }
    if let Some(sink) = sink {
        sink.flush()?;
    }
    Ok(())
}

fn cmd_stream(a: &Args) -> Result<(), String> {
    match a.positional.first().map(String::as_str) {
        Some("find") => cmd_stream_find(a),
        _ => Err("stream needs a subcommand: `stream find`".into()),
    }
}

/// Builds the stream configuration from the shared and stream-specific
/// CLI options.
fn stream_config_from(a: &Args) -> Result<StreamConfig, String> {
    let width = a.opt_parse("width", DEFAULT_WIDTH)?;
    let defaults = StreamConfig::default();
    Ok(StreamConfig {
        sdtw: config_from(a)?,
        z_normalize: !a.flag("raw"),
        lb_radius_frac: a.opt_parse("radius", width)?,
        exclusion_frac: a.opt_parse("exclusion", 0.5)?,
        paa_width: a.opt_parse("paa", defaults.paa_width)?,
    })
}

/// Prints one query's matches plus a cascade summary line.
fn print_stream_result(label: &str, result: &SubseqResult, tau: f64) {
    if result.matches.is_empty() {
        println!(
            "{label}no matches{}",
            if tau.is_finite() { " under tau" } else { "" }
        );
    }
    for (rank, m) in result.matches.iter().enumerate() {
        println!(
            "{label}  #{:<2} offset {:>6}  distance {:.6}",
            rank + 1,
            m.offset,
            m.distance
        );
    }
}

/// Prints the aggregated cascade accounting of one or more searches.
fn print_stream_stats(stats: &sdtw_stream::StreamStats, wall: std::time::Duration) {
    let c = &stats.cascade;
    println!(
        "cascade over {} window visits: kim {}  paa {}  keogh {}  abandoned {}  dp {}  (lb n/a {})",
        c.candidates,
        c.pruned_kim,
        c.pruned_paa,
        c.pruned_keogh,
        c.abandoned,
        c.dp_completed,
        c.lb_inapplicable,
    );
    println!(
        "prune rate {:.1}%  lb-only {:.1}%  passes {}  cache hits {}  cells {}  wall {wall:?}",
        stats.prune_rate() * 100.0,
        stats.lb_prune_rate() * 100.0,
        stats.passes,
        stats.cache_hits,
        c.cells_filled,
    );
    if c.bounds_disabled {
        println!(
            "note: lower-bound pruning disabled — the configured kernel \
             reports the bounds inadmissible; windows ran on early \
             abandoning alone"
        );
    }
}

fn cmd_stream_find(a: &Args) -> Result<(), String> {
    let multi_path = a.options.get("queries");
    let hay_path = match (a.positional.as_slice(), multi_path) {
        ([_, hay], Some(_)) | ([_, hay, _], None) => hay,
        ([_, _, _], Some(_)) => {
            return Err("--queries replaces the positional query file; pass only <haystack>".into())
        }
        _ => {
            return Err(
                "stream find needs <haystack> <query-file> (or <haystack> --queries <file>)".into(),
            )
        }
    };
    if a.flag("monitor") && a.flag("parallel") {
        return Err("--parallel applies to batch scans; the monitor ingests serially".into());
    }
    // --shards parameterises the sharded single-query scan only; on
    // every other path it would be silently ignored
    if a.options.contains_key("shards")
        && (multi_path.is_some() || a.flag("monitor") || !a.flag("parallel"))
    {
        return Err(
            "--shards applies to the single-query sharded scan (--parallel without \
             --queries/--monitor)"
                .into(),
        );
    }
    let haystack = read_ucr_file(hay_path).map_err(|e| e.to_string())?;
    let series = load_series(&haystack, a.opt_parse("series", 0usize)?)?;
    let k = a.opt_parse("k", 3usize)?;
    let tau = a.opt_parse("tau", f64::INFINITY)?;
    let shards = a.opt_parse("shards", 0usize)?;
    let config = stream_config_from(a)?;

    // resolve the query set: every row of --queries, or one row of the
    // positional query file
    let query_list: Vec<TimeSeries> = match multi_path {
        Some(path) => {
            let all = read_ucr_file(path).map_err(|e| e.to_string())?;
            if all.is_empty() {
                return Err("query file is empty".into());
            }
            all
        }
        None => {
            let queries = read_ucr_file(&a.positional[2]).map_err(|e| e.to_string())?;
            vec![load_series(&queries, a.opt_parse("query", 0usize)?)?.clone()]
        }
    };
    let matchers: Vec<SubseqMatcher> = query_list
        .iter()
        .map(|q| SubseqMatcher::new(q, config.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let policy = config.sdtw.policy;
    let kernel = config.sdtw.dtw.kernel_label();
    let mode = match (a.flag("monitor"), a.flag("parallel"), matchers.len()) {
        (true, _, 1) => "monitor",
        (true, _, _) => "monitor-bank",
        (false, true, 1) => "batch-sharded",
        (false, true, _) => "batch-parallel",
        (false, false, _) => "batch",
    };

    let mut sink = TraceSink::from_args(a)?;
    let tracing = sink.is_some();
    let mut traces: Vec<QueryTrace> = Vec::new();
    let t0 = std::time::Instant::now();
    let results: Vec<SubseqResult> = if a.flag("monitor") {
        let mut bank = MonitorBank::uniform(matchers.clone(), k, tau).map_err(|e| e.to_string())?;
        bank.set_tracing(tracing);
        bank.process(series.values()).map_err(|e| e.to_string())?;
        let results = (0..bank.query_count())
            .map(|q| SubseqResult {
                matches: bank.matches(q),
                stats: *bank.stats(q),
            })
            .collect();
        if tracing {
            traces = (0..bank.query_count())
                .map(|q| bank.trace(q, &format!("q{q}")))
                .collect();
        }
        results
    } else if a.flag("parallel") && matchers.len() == 1 {
        // one long haystack: shard it across the rayon pool
        if tracing {
            let (result, trace) = matchers[0]
                .find_k_parallel_traced(series, k, tau, shards, "q0")
                .map_err(|e| e.to_string())?;
            traces.push(trace);
            vec![result]
        } else {
            vec![matchers[0]
                .find_k_parallel(series, k, tau, shards)
                .map_err(|e| e.to_string())?]
        }
    } else if a.flag("parallel") {
        // many queries: fan them across the pool, one serial scan each
        let fanned: Vec<Result<(SubseqResult, Option<QueryTrace>), String>> = (0..matchers.len())
            .into_par_iter()
            .map(|i| {
                if tracing {
                    matchers[i]
                        .find_under_traced(series, k, tau, &format!("q{i}"))
                        .map(|(r, t)| (r, Some(t)))
                        .map_err(|e| e.to_string())
                } else {
                    matchers[i]
                        .find_under(series, k, tau)
                        .map(|r| (r, None))
                        .map_err(|e| e.to_string())
                }
            })
            .collect();
        let mut results = Vec::with_capacity(fanned.len());
        for item in fanned {
            let (result, trace) = item?;
            traces.extend(trace);
            results.push(result);
        }
        results
    } else {
        let mut results = Vec::with_capacity(matchers.len());
        for (i, m) in matchers.iter().enumerate() {
            if tracing {
                let (result, trace) = m
                    .find_under_traced(series, k, tau, &format!("q{i}"))
                    .map_err(|e| e.to_string())?;
                traces.push(trace);
                results.push(result);
            } else {
                results.push(m.find_under(series, k, tau).map_err(|e| e.to_string())?);
            }
        }
        results
    };
    let wall = t0.elapsed();

    if let Some(sink) = sink.as_mut() {
        for trace in &traces {
            sink.push(trace);
        }
    }
    if a.flag("json") {
        // single-query invocations keep their historical contract (one
        // bare SubseqResult object); only --queries emits an array
        let json = if multi_path.is_none() {
            serde_json::to_string_pretty(&results[0])
        } else {
            serde_json::to_string_pretty(&results)
        }
        .map_err(|e| e.to_string())?;
        println!("{json}");
        if let Some(sink) = sink {
            sink.flush()?;
        }
        return Ok(());
    }
    println!(
        "queries {}  haystack len {}  policy {}  kernel {kernel}  znorm {}  mode {mode}",
        matchers.len(),
        series.len(),
        policy.label(),
        config.z_normalize,
    );
    let mut merged = sdtw_stream::StreamStats::default();
    for (qi, result) in results.iter().enumerate() {
        merged.merge(&result.stats);
        let label = if results.len() > 1 {
            println!(
                "query {qi:>3} (len {}, windows {}):",
                matchers[qi].query_len(),
                result.stats.windows
            );
            "  "
        } else {
            println!(
                "query len {}  windows {}",
                matchers[qi].query_len(),
                result.stats.windows
            );
            ""
        };
        print_stream_result(label, result, tau);
    }
    print_stream_stats(&merged, wall);
    if let Some(sink) = sink {
        sink.flush()?;
    }
    Ok(())
}

fn cmd_report(a: &Args) -> Result<(), String> {
    if a.positional.is_empty() {
        return Err("report needs one or more <trace.ndjson> files (`-` for stdin)".into());
    }
    // concatenate all files into one NDJSON document — traces from
    // different workloads aggregate fine (the tables are per-stage and
    // per-phase, not per-workload)
    let mut text = String::new();
    for path in &a.positional {
        let chunk = if path == "-" {
            std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        text.push_str(&chunk);
        text.push('\n');
    }
    let report = TraceReport::from_ndjson(&text)?;
    print!("{}", report.render());
    Ok(())
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let index_path = a
        .options
        .get("index")
        .ok_or("serve needs --index <index> (build one with `sdtw index build`)")?;
    let trace_path = a.options.get("trace").cloned();
    let cfg = ServeConfig {
        default_k: a.opt_parse("k", 5usize)?,
        shards: a.opt_parse("shards", 1usize)?,
        trace: trace_path.is_some(),
    };
    // JSON or binary columnar snapshot, auto-detected by the codec
    let engine = ServeEngine::load(index_path, cfg).map_err(|e| format!("{index_path}: {e}"))?;
    let entries = engine.index().len();
    let traces = match (a.flag("pipe"), a.options.get("socket")) {
        (true, None) => {
            // stdout is the response channel in pipe mode — the banner
            // goes to stderr so the NDJSON stream stays clean
            eprintln!("sdtw serve: {entries} entries resident, pipe mode (stop at EOF)");
            let batch = a.opt_parse("batch", 32usize)?.max(1);
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            run_pipe(&engine, stdin.lock(), &mut stdout, batch).map_err(|e| e.to_string())?
        }
        (false, Some(path)) => {
            let server = SocketServer::bind(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("sdtw serve: {entries} entries resident on {path} (stop via Shutdown)");
            server
                .serve(std::sync::Arc::new(engine))
                .map_err(|e| e.to_string())?
        }
        _ => return Err("serve needs exactly one of --pipe or --socket <path>".into()),
    };
    if let Some(p) = trace_path {
        let mut doc = traces.join("\n");
        if !doc.is_empty() {
            doc.push('\n');
        }
        std::fs::write(&p, doc).map_err(|e| format!("{p}: {e}"))?;
        eprintln!("wrote {} trace line(s) to {p}", traces.len());
    }
    Ok(())
}

fn cmd_client(a: &Args) -> Result<(), String> {
    match a.positional.first().map(String::as_str) {
        Some("emit") => cmd_client_emit(a),
        Some("print") => cmd_client_print(a),
        Some("send") => cmd_client_send(a),
        _ => {
            Err("client needs a subcommand: `client emit`, `client print`, or `client send`".into())
        }
    }
}

/// Builds one request per row of a UCR query file from the shared
/// `client` options.
fn client_requests(a: &Args, queries_path: &str) -> Result<Vec<ServeRequest>, String> {
    let queries = read_ucr_file(queries_path).map_err(|e| e.to_string())?;
    if queries.is_empty() {
        return Err("query file is empty".into());
    }
    let k = a.opt_parse("k", 0usize)?; // 0 = the daemon's default
    let tau = match a.options.get("tau") {
        None => None,
        Some(_) => Some(a.opt_parse("tau", f64::INFINITY)?),
    };
    Ok(queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut r = ServeRequest::query(format!("q{i}"), q.values().to_vec(), k);
            r.tau = tau;
            r.trace = a.flag("trace");
            r
        })
        .collect())
}

fn cmd_client_emit(a: &Args) -> Result<(), String> {
    let [_, queries_path] = a.positional.as_slice() else {
        return Err("client emit needs <queries>".into());
    };
    let requests = client_requests(a, queries_path)?;
    let lines = requests.iter().map(ServeRequest::to_json_line);
    write_lines(&mut io::stdout().lock(), lines).map_err(|e| format!("stdout: {e}"))
}

/// Writes one line per item and flushes. A reader that hangs up early
/// (`sdtw client emit … | head`) ends the output cleanly: a broken pipe
/// is not an error.
fn write_lines<W: Write>(out: &mut W, lines: impl IntoIterator<Item = String>) -> io::Result<()> {
    let written = lines
        .into_iter()
        .try_for_each(|line| writeln!(out, "{line}"))
        .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// Human rendering of daemon responses (shared by `print` and `send`).
fn print_responses(resps: &[ServeResponse]) {
    let (mut pruned, mut swept) = (0u64, 0u64);
    for r in resps {
        if !r.ok {
            println!(
                "{}: error: {}",
                if r.id.is_empty() { "?" } else { &r.id },
                r.error
            );
            continue;
        }
        pruned += r.entries_pruned;
        swept += r.entries_swept;
        let hits: Vec<String> = r
            .hits
            .iter()
            .map(|h| format!("{}@{} ({:.4})", h.entry, h.offset, h.distance))
            .collect();
        println!(
            "{}: {}  [pruned {} / swept {}]",
            r.id,
            if hits.is_empty() {
                "no match under tau".to_string()
            } else {
                hits.join("  ")
            },
            r.entries_pruned,
            r.entries_swept,
        );
    }
    let answered = resps.iter().filter(|r| r.ok).count();
    println!(
        "{answered}/{} answered  entries pruned {pruned} / swept {swept}",
        resps.len(),
    );
}

fn cmd_client_print(a: &Args) -> Result<(), String> {
    let path = match a.positional.as_slice() {
        [_] => "-",
        [_, p] => p.as_str(),
        _ => return Err("client print takes at most one <responses.ndjson> (default -)".into()),
    };
    let text = if path == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let mut resps = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        resps.push(ServeResponse::from_json_line(line)?);
    }
    print_responses(&resps);
    Ok(())
}

fn cmd_client_send(a: &Args) -> Result<(), String> {
    let [_, socket, queries_path] = a.positional.as_slice() else {
        return Err("client send needs <socket> <queries>".into());
    };
    let mut reqs = client_requests(a, queries_path)?;
    if a.flag("shutdown") {
        reqs.push(ServeRequest::shutdown("shutdown"));
    }
    let resps = client_roundtrip(socket, &reqs).map_err(|e| format!("{socket}: {e}"))?;
    if a.flag("json") {
        for r in &resps {
            println!("{}", r.to_json_line());
        }
    } else {
        print_responses(&resps);
    }
    Ok(())
}

fn cmd_generate(a: &Args) -> Result<(), String> {
    let [kind, out] = a.positional.as_slice() else {
        return Err("generate needs <kind> <out.txt>".into());
    };
    let seed = a.opt_parse("seed", 20120827u64)?;
    let analog = match kind.as_str() {
        "gun" => UcrAnalog::Gun,
        "trace" => UcrAnalog::Trace,
        "50words" | "words" => UcrAnalog::Words50,
        other => return Err(format!("unknown dataset kind `{other}`")),
    };
    let ds = analog.generate(seed);
    write_ucr_file(out, &ds.series).map_err(|e| e.to_string())?;
    println!(
        "wrote {} series ({} classes) to {out}",
        ds.series.len(),
        ds.class_count()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.command.as_str() {
        "dist" => cmd_dist(&args),
        "features" => cmd_features(&args),
        "retrieve" => cmd_retrieve(&args),
        "distmat" => cmd_distmat(&args),
        "index" => cmd_index(&args),
        "stream" => cmd_stream(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "report" => cmd_report(&args),
        "generate" => cmd_generate(&args),
        "help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_map_to_paper_labels() {
        assert_eq!(policy_from("full", 0.1).unwrap().label(), "dtw");
        assert_eq!(policy_from("sakoe", 0.2).unwrap().label(), "fc,fw 20%");
        assert_eq!(policy_from("fcaw", 0.1).unwrap().label(), "fc,aw");
        assert_eq!(policy_from("acfw", 0.06).unwrap().label(), "ac,fw 6%");
        assert_eq!(policy_from("acaw", 0.1).unwrap().label(), "ac,aw");
        assert_eq!(policy_from("ac2aw", 0.1).unwrap().label(), "ac2,aw");
        assert!(policy_from("itakura", 0.1)
            .unwrap()
            .label()
            .contains("itakura"));
        assert!(policy_from("bogus", 0.1).is_err());
    }

    #[test]
    fn kernel_flag_parses_and_rejects_bad_input() {
        let parse = |tokens: &[&str]| Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            kernel_from(&parse(&["dist"])).unwrap(),
            KernelChoice::Standard
        );
        assert_eq!(
            kernel_from(&parse(&["dist", "--kernel", "std"])).unwrap(),
            KernelChoice::Standard
        );
        assert_eq!(
            kernel_from(&parse(&["dist", "--kernel", "amerced"])).unwrap(),
            KernelChoice::Amerced { penalty: 1.0 }
        );
        assert_eq!(
            kernel_from(&parse(&["dist", "--kernel", "adtw", "--penalty", "0.25"])).unwrap(),
            KernelChoice::Amerced { penalty: 0.25 }
        );
        assert!(kernel_from(&parse(&["dist", "--kernel", "bogus"])).is_err());
        assert!(kernel_from(&parse(&["dist", "--kernel", "amerced", "--penalty", "-1"])).is_err());
        // a --penalty without --kernel amerced is a mistake, not a no-op
        let err = kernel_from(&parse(&["dist", "--penalty", "0.5"])).unwrap_err();
        assert!(err.contains("requires --kernel amerced"), "{err}");
        let err =
            kernel_from(&parse(&["dist", "--kernel", "std", "--penalty", "0.5"])).unwrap_err();
        assert!(err.contains("requires --kernel amerced"), "{err}");
    }

    /// A sink that accepts `room` bytes, then fails with `kind`.
    struct FailingSink {
        room: usize,
        kind: io::ErrorKind,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::from(self.kind));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_lines_treats_a_broken_pipe_as_a_clean_exit() {
        let lines = || (0..100).map(|i| format!("{{\"id\":\"q{i}\"}}"));
        let mut hung_up = FailingSink {
            room: 40,
            kind: io::ErrorKind::BrokenPipe,
        };
        assert!(write_lines(&mut hung_up, lines()).is_ok());
        // any other write failure still surfaces
        let mut full = FailingSink {
            room: 40,
            kind: io::ErrorKind::StorageFull,
        };
        let err = write_lines(&mut full, lines()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let mut buf = Vec::new();
        write_lines(&mut buf, lines()).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 100);
    }

    #[test]
    fn load_series_reports_range_errors() {
        let corpus = vec![TimeSeries::new(vec![1.0, 2.0]).unwrap()];
        assert!(load_series(&corpus, 0).is_ok());
        let err = load_series(&corpus, 5).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn distmat_subcommand_runs_serial_and_parallel() {
        let dir = std::env::temp_dir().join("sdtw_cli_distmat_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let out_path = dir.join("matrix.json");
        // tiny corpus: first six gun series
        let ds = UcrAnalog::Gun.generate(5);
        write_ucr_file(&corpus_path, &ds.series[..6]).unwrap();

        let base = [
            "distmat",
            corpus_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
        ];
        let mut serial: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        serial.push("--serial".into());
        serial.push("--out".into());
        serial.push(out_path.to_str().unwrap().into());
        cmd_distmat(&Args::parse(serial).unwrap()).unwrap();
        let written = std::fs::read_to_string(&out_path).unwrap();
        assert!(written.contains("\"data\""), "matrix JSON written");

        let parallel: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        cmd_distmat(&Args::parse(parallel).unwrap()).unwrap();

        // query-vs-corpus mode with the corpus file reused as queries
        let mut with_queries: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        with_queries.push("--queries".into());
        with_queries.push(corpus_path.to_str().unwrap().into());
        cmd_distmat(&Args::parse(with_queries).unwrap()).unwrap();

        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn index_build_and_query_round_trip_via_files() {
        let dir = std::env::temp_dir().join("sdtw_cli_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let index_path = dir.join("index.json");
        let ds = UcrAnalog::Gun.generate(9);
        write_ucr_file(&corpus_path, &ds.series[..8]).unwrap();

        let build = [
            "index",
            "build",
            corpus_path.to_str().unwrap(),
            index_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--radius",
            "0.2",
        ];
        cmd_index(&Args::parse(build.iter().map(|s| s.to_string())).unwrap()).unwrap();
        assert!(index_path.exists(), "index JSON written");

        for extra in [&["--serial"][..], &["--json"][..], &[][..]] {
            let mut query = vec![
                "index".to_string(),
                "query".to_string(),
                index_path.to_str().unwrap().to_string(),
                corpus_path.to_str().unwrap().to_string(),
                "--k".to_string(),
                "3".to_string(),
            ];
            query.extend(extra.iter().map(|s| s.to_string()));
            cmd_index(&Args::parse(query).unwrap()).unwrap();
        }

        // amerced kernel end-to-end through build + query
        let amerced_path = dir.join("index_amerced.json");
        let build_am = [
            "index",
            "build",
            corpus_path.to_str().unwrap(),
            amerced_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--kernel",
            "amerced",
            "--penalty",
            "0.5",
        ];
        cmd_index(&Args::parse(build_am.iter().map(|s| s.to_string())).unwrap()).unwrap();
        let query_am = [
            "index",
            "query",
            amerced_path.to_str().unwrap(),
            corpus_path.to_str().unwrap(),
            "--k",
            "2",
            "--serial",
        ];
        cmd_index(&Args::parse(query_am.iter().map(|s| s.to_string())).unwrap()).unwrap();
        std::fs::remove_file(&amerced_path).ok();

        // binary snapshot end-to-end: build --format bin, query it,
        // convert in both directions, query the converted artifacts
        let bin_path = dir.join("index.bin");
        let build_bin = [
            "index",
            "build",
            corpus_path.to_str().unwrap(),
            bin_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--format",
            "bin",
            "--paa",
            "4",
        ];
        cmd_index(&Args::parse(build_bin.iter().map(|s| s.to_string())).unwrap()).unwrap();
        let head = std::fs::read(&bin_path).unwrap();
        assert_eq!(&head[..8], b"SDTWIDX2", "binary magic on disk");
        let conv_json = dir.join("converted.json");
        let conv_bin = dir.join("converted.bin");
        let convert_down = [
            "index",
            "convert",
            bin_path.to_str().unwrap(),
            conv_json.to_str().unwrap(),
            "--format",
            "json",
        ];
        cmd_index(&Args::parse(convert_down.iter().map(|s| s.to_string())).unwrap()).unwrap();
        let convert_up = [
            "index",
            "convert",
            index_path.to_str().unwrap(),
            conv_bin.to_str().unwrap(),
        ];
        cmd_index(&Args::parse(convert_up.iter().map(|s| s.to_string())).unwrap()).unwrap();
        for idx in [&bin_path, &conv_json, &conv_bin] {
            let query_bin = [
                "index",
                "query",
                idx.to_str().unwrap(),
                corpus_path.to_str().unwrap(),
                "--k",
                "2",
                "--serial",
            ];
            cmd_index(&Args::parse(query_bin.iter().map(|s| s.to_string())).unwrap()).unwrap();
        }
        // unknown codec names are reported, not panicked
        let bad_format = [
            "index",
            "convert",
            bin_path.to_str().unwrap(),
            conv_json.to_str().unwrap(),
            "--format",
            "tar",
        ];
        assert!(
            cmd_index(&Args::parse(bad_format.iter().map(|s| s.to_string())).unwrap()).is_err()
        );
        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&conv_json).ok();
        std::fs::remove_file(&conv_bin).ok();

        // bad invocations are reported, not panicked
        assert!(cmd_index(&Args::parse(["index".to_string()]).unwrap()).is_err());
        assert!(cmd_index(
            &Args::parse(
                ["index", "build", "only-one-arg"]
                    .iter()
                    .map(|s| s.to_string())
            )
            .unwrap()
        )
        .is_err());

        std::fs::remove_file(&corpus_path).ok();
        std::fs::remove_file(&index_path).ok();
    }

    #[test]
    fn dist_parses_flag_before_positionals_identically() {
        // the parser regression behind this PR: `--path` (a boolean flag)
        // must not swallow the corpus path that follows it
        let dir = std::env::temp_dir().join("sdtw_cli_flag_order_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        let ds = UcrAnalog::Gun.generate(11);
        write_ucr_file(&path, &ds.series[..4]).unwrap();
        let p = path.to_str().unwrap();

        let flag_first = Args::parse(
            [
                "dist", "--path", p, "0", "1", "--policy", "sakoe", "--width", "0.2",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let flag_last = Args::parse(
            [
                "dist", p, "0", "1", "--policy", "sakoe", "--width", "0.2", "--path",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(flag_first, flag_last, "orderings must parse identically");
        cmd_dist(&flag_first).unwrap();
        cmd_dist(&flag_last).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_find_round_trip_via_files() {
        let dir = std::env::temp_dir().join("sdtw_cli_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let hay_path = dir.join("hay.txt");
        let query_path = dir.join("query.txt");
        // haystack: a long series with the query's shape embedded — use a
        // generated gun series as the query and a concatenation of others
        // as the haystack
        let ds = UcrAnalog::Gun.generate(13);
        let query = ds.series[0].clone();
        let mut hay: Vec<f64> = Vec::new();
        for s in &ds.series[1..5] {
            hay.extend_from_slice(s.values());
        }
        hay.extend_from_slice(query.values());
        for s in &ds.series[5..7] {
            hay.extend_from_slice(s.values());
        }
        let hay = TimeSeries::new(hay).unwrap();
        write_ucr_file(&hay_path, std::slice::from_ref(&hay)).unwrap();
        write_ucr_file(&query_path, std::slice::from_ref(&query)).unwrap();

        let base = [
            "stream",
            "find",
            hay_path.to_str().unwrap(),
            query_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--k",
            "2",
        ];
        for extra in [
            &[][..],
            &["--monitor"][..],
            &["--json"][..],
            &["--raw"][..],
            &["--parallel"][..],
            &["--parallel", "--shards", "3"][..],
            &["--paa", "4"][..],
            &["--paa", "0"][..],
        ] {
            let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            argv.extend(extra.iter().map(|s| s.to_string()));
            cmd_stream(&Args::parse(argv).unwrap()).unwrap();
        }
        // adaptive sDTW bands end to end
        let sdtw_band = [
            "stream",
            "find",
            hay_path.to_str().unwrap(),
            query_path.to_str().unwrap(),
            "--policy",
            "ac2aw",
            "--k",
            "1",
        ];
        cmd_stream(&Args::parse(sdtw_band.iter().map(|s| s.to_string())).unwrap()).unwrap();

        // bad invocations are reported, not panicked
        assert!(cmd_stream(&Args::parse(["stream".to_string()]).unwrap()).is_err());
        assert!(cmd_stream(
            &Args::parse(["stream", "find", "only-one"].iter().map(|s| s.to_string())).unwrap()
        )
        .is_err());
        // --shards without --parallel would be silently ignored — error
        let mut shards_serial: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        shards_serial.push("--shards".into());
        shards_serial.push("2".into());
        let err = cmd_stream(&Args::parse(shards_serial).unwrap()).unwrap_err();
        assert!(err.contains("--shards applies"), "{err}");

        std::fs::remove_file(&hay_path).ok();
        std::fs::remove_file(&query_path).ok();
    }

    #[test]
    fn stream_find_multi_query_modes_round_trip() {
        let dir = std::env::temp_dir().join("sdtw_cli_stream_multi_test");
        std::fs::create_dir_all(&dir).unwrap();
        let hay_path = dir.join("hay.txt");
        let queries_path = dir.join("queries.txt");
        let ds = UcrAnalog::Gun.generate(21);
        let mut hay: Vec<f64> = Vec::new();
        for s in &ds.series[2..6] {
            hay.extend_from_slice(s.values());
        }
        let hay = TimeSeries::new(hay).unwrap();
        write_ucr_file(&hay_path, std::slice::from_ref(&hay)).unwrap();
        write_ucr_file(&queries_path, &ds.series[..2]).unwrap();

        let base = [
            "stream",
            "find",
            hay_path.to_str().unwrap(),
            "--queries",
            queries_path.to_str().unwrap(),
            "--policy",
            "sakoe",
            "--width",
            "0.2",
            "--k",
            "1",
        ];
        // multi-query batch (serial + parallel fan-out), the shared-ingest
        // monitor bank, and JSON output
        for extra in [
            &[][..],
            &["--parallel"][..],
            &["--monitor"][..],
            &["--json"][..],
        ] {
            let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            argv.extend(extra.iter().map(|s| s.to_string()));
            cmd_stream(&Args::parse(argv).unwrap()).unwrap();
        }

        // --queries together with a positional query file is ambiguous
        let mut ambiguous: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        ambiguous.insert(3, queries_path.to_str().unwrap().to_string());
        let err = cmd_stream(&Args::parse(ambiguous).unwrap()).unwrap_err();
        assert!(err.contains("replaces the positional"), "{err}");

        // --monitor and --parallel are mutually exclusive
        let mut both: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        both.push("--monitor".into());
        both.push("--parallel".into());
        let err = cmd_stream(&Args::parse(both).unwrap()).unwrap_err();
        assert!(err.contains("--parallel applies to batch"), "{err}");

        // --shards outside the single-query sharded scan is an error,
        // not a silently ignored option
        let mut shards_multi: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        shards_multi.push("--parallel".into());
        shards_multi.push("--shards".into());
        shards_multi.push("2".into());
        let err = cmd_stream(&Args::parse(shards_multi).unwrap()).unwrap_err();
        assert!(err.contains("--shards applies"), "{err}");

        std::fs::remove_file(&hay_path).ok();
        std::fs::remove_file(&queries_path).ok();
    }

    #[test]
    fn trace_option_round_trips_through_report() {
        let dir = std::env::temp_dir().join("sdtw_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let index_path = dir.join("index.json");
        let trace_path = dir.join("trace.ndjson");
        let ds = UcrAnalog::Gun.generate(33);
        write_ucr_file(&corpus_path, &ds.series[..8]).unwrap();
        let c = corpus_path.to_str().unwrap();
        let i = index_path.to_str().unwrap();
        let t = trace_path.to_str().unwrap();
        let argv = |tokens: &[&str]| Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();

        // index query --trace: one NDJSON line per query
        cmd_index(&argv(&[
            "index", "build", c, i, "--policy", "sakoe", "--width", "0.2",
        ]))
        .unwrap();
        cmd_index(&argv(&["index", "query", i, c, "--k", "3", "--trace", t])).unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let report = TraceReport::from_ndjson(&text).unwrap();
        assert_eq!(report.len(), 8, "one trace per query");
        assert!(report.render().contains("per-stage prune table"));
        cmd_report(&argv(&["report", t])).unwrap();

        // dist --trace: a single distance-workload line
        cmd_dist(&argv(&[
            "dist", c, "0", "1", "--policy", "sakoe", "--width", "0.2", "--trace", t,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let report = TraceReport::from_ndjson(&text).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report.traces()[0].workload.label(), "distance");
        assert_eq!(report.traces()[0].counters.cascade.dp_completed, 1);

        // distmat --trace: one batch-level line
        cmd_distmat(&argv(&[
            "distmat", c, "--policy", "sakoe", "--width", "0.2", "--trace", t,
        ]))
        .unwrap();
        let report =
            TraceReport::from_ndjson(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report.traces()[0].workload.label(), "distance-matrix");

        // stream find --trace across the serial / sharded / monitor modes
        let hay_path = dir.join("hay.txt");
        let mut hay: Vec<f64> = Vec::new();
        for s in &ds.series[1..5] {
            hay.extend_from_slice(s.values());
        }
        let hay = TimeSeries::new(hay).unwrap();
        write_ucr_file(&hay_path, std::slice::from_ref(&hay)).unwrap();
        let h = hay_path.to_str().unwrap();
        let base = [
            "stream", "find", h, c, "--policy", "sakoe", "--width", "0.2",
        ];
        for extra in [
            &["--trace", t][..],
            &["--parallel", "--shards", "2", "--trace", t][..],
            &["--monitor", "--trace", t][..],
        ] {
            let mut tokens: Vec<&str> = base.to_vec();
            tokens.extend_from_slice(extra);
            cmd_stream(&argv(&tokens)).unwrap();
            let report =
                TraceReport::from_ndjson(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
            assert_eq!(report.len(), 1, "mode {extra:?}");
            assert!(
                report.merged_counters().cascade.candidates > 0,
                "mode {extra:?} recorded window visits"
            );
        }

        // conflicting sink requests are refused up front
        let both = argv(&["dist", c, "0", "1", "--trace", t, "--trace-stdout"]);
        let err = cmd_dist(&both).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let json_stdout = argv(&["index", "query", i, c, "--json", "--trace-stdout"]);
        let err = cmd_index(&json_stdout).unwrap_err();
        assert!(err.contains("--trace <file>"), "{err}");

        // report rejects garbage and missing files
        assert!(cmd_report(&argv(&["report"])).is_err());
        assert!(cmd_report(&argv(&["report", "/nonexistent/x.ndjson"])).is_err());

        for p in [&corpus_path, &index_path, &trace_path, &hay_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn generate_and_dist_round_trip_via_files() {
        let dir = std::env::temp_dir().join("sdtw_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        let gen = Args::parse(
            ["generate", "gun", path.to_str().unwrap(), "--seed", "5"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        cmd_generate(&gen).unwrap();
        let dist = Args::parse(
            [
                "dist",
                path.to_str().unwrap(),
                "0",
                "1",
                "--policy",
                "sakoe",
                "--width",
                "0.2",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        cmd_dist(&dist).unwrap();
        let amerced = Args::parse(
            [
                "dist",
                path.to_str().unwrap(),
                "0",
                "1",
                "--policy",
                "sakoe",
                "--width",
                "0.2",
                "--kernel",
                "amerced",
                "--penalty",
                "0.3",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        cmd_dist(&amerced).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_socket_and_client_round_trip_via_files() {
        let dir = std::env::temp_dir().join("sdtw_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let queries_path = dir.join("queries.txt");
        let index_path = dir.join("index.json");
        let sock_path = dir.join("daemon.sock");
        let argv = |tokens: &[&str]| Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();

        // corpus: concatenated gun series (long entries, so a short query
        // pattern has many candidate windows); queries: short prefixes
        let ds = UcrAnalog::Gun.generate(77);
        let mut corpus = Vec::new();
        for pair in ds.series[..8].chunks(2) {
            let mut vals = Vec::new();
            for s in pair {
                vals.extend_from_slice(s.values());
            }
            corpus.push(TimeSeries::new(vals).unwrap());
        }
        write_ucr_file(&corpus_path, &corpus).unwrap();
        let queries: Vec<TimeSeries> = ds.series[8..10]
            .iter()
            .map(|s| TimeSeries::new(s.values()[..40].to_vec()).unwrap())
            .collect();
        write_ucr_file(&queries_path, &queries).unwrap();
        let c = corpus_path.to_str().unwrap();
        let q = queries_path.to_str().unwrap();
        let i = index_path.to_str().unwrap();
        let s = sock_path.to_str().unwrap();

        cmd_index(&argv(&[
            "index", "build", c, i, "--policy", "sakoe", "--width", "0.2",
        ]))
        .unwrap();

        // daemon on a background thread, scripted client in the foreground
        let serve_args = argv(&["serve", "--index", i, "--socket", s, "--k", "3"]);
        let daemon = std::thread::spawn(move || cmd_serve(&serve_args));
        // wait for the socket to appear
        for _ in 0..200 {
            if sock_path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        cmd_client(&argv(&["client", "send", s, q, "--k", "2", "--shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
        assert!(!sock_path.exists(), "daemon removed its socket");

        // emit writes one request line per query row
        let reqs =
            client_requests(&argv(&["client", "emit", q, "--k", "2", "--tau", "5.5"]), q).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].id, "q0");
        assert_eq!(reqs[0].k, 2);
        assert_eq!(reqs[1].tau, Some(5.5));

        // bad invocations are reported, not panicked
        assert!(cmd_serve(&argv(&["serve", "--pipe"])).is_err());
        assert!(cmd_serve(&argv(&["serve", "--index", i])).is_err());
        assert!(cmd_client(&argv(&["client"])).is_err());
        assert!(cmd_client(&argv(&["client", "send", s])).is_err());

        for p in [&corpus_path, &queries_path, &index_path] {
            std::fs::remove_file(p).ok();
        }
    }
}
