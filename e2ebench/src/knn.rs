//! `knn_adaptive`: batch k = 5 nearest-neighbour retrieval through
//! `SdtwIndex::batch_query` on the rayon pool, under the paper's
//! `ac2,aw` adaptive-core, adaptive-width policy
//! (`IndexConfig::sdtw_bands()`).
//!
//! Corpus: the even-indexed 225 series of the run seed's Words50 analog;
//! queries: the first [`QUERIES`] odd-indexed ones, answered in batches
//! of [`BATCH`] that walk the query list in order (wrapping) until the
//! run time is up.

use crate::util::{
    json, median, peak_rss_mb, summarize, timed_reps, windowed_rate, Outcome, Tracer,
};
use crate::Args;
use sdtw_suite::core::{ConstraintPolicy, FeatureStore, SDtw, SDtwConfig};
use sdtw_suite::datasets::UcrAnalog;
use sdtw_suite::dtw::engine::{dtw_run_options, DtwScratch};
use sdtw_suite::eval::compute_query_matrix;
use sdtw_suite::index::{IndexConfig, QueryResult, SdtwIndex};
use sdtw_suite::tseries::TimeSeries;
use std::time::{Duration, Instant};

const K: usize = 5;
/// Distinct queries: trimmed from 225 so the per-run oracle (two full
/// query-vs-corpus matrices) stays short; a run answers each about twice.
const QUERIES: usize = 128;
/// Queries per `batch_query` call; one batch is one latency sample.
const BATCH: usize = 6;
/// Index builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Queries the traced run answers (fixed, so its counts are exact).
const TRACED_QUERIES: usize = 24;

/// Top-k of one oracle row as `(entry, distance bits)`.
fn oracle_rows(
    queries: &[TimeSeries],
    corpus: &[TimeSeries],
    sdtw: &SDtwConfig,
) -> Result<Vec<Vec<(usize, u64)>>, String> {
    let engine = SDtw::new(sdtw.clone()).map_err(|e| e.to_string())?;
    let store = FeatureStore::new(sdtw.salient.clone()).map_err(|e| e.to_string())?;
    let qm =
        compute_query_matrix(queries, corpus, &engine, &store, true).map_err(|e| e.to_string())?;
    Ok((0..queries.len())
        .map(|q| {
            qm.top_k(q, K)
                .into_iter()
                .map(|j| (j, qm.get(q, j).to_bits()))
                .collect()
        })
        .collect())
}

fn result_key(r: &QueryResult) -> Vec<(usize, u64)> {
    r.neighbors
        .iter()
        .map(|n| (n.index, n.distance.to_bits()))
        .collect()
}

/// Checks answers against `compute_query_matrix` under the same engine
/// and returns the mean top-5 overlap with full-grid DTW. `answers[i]`
/// answers query `i`; every answer of a query is checked.
fn check(
    queries: &[TimeSeries],
    corpus: &[TimeSeries],
    answers: &[Vec<QueryResult>],
    out: &mut Outcome,
) -> Result<f64, String> {
    let asked: Vec<usize> = (0..queries.len())
        .filter(|&q| !answers[q].is_empty())
        .collect();
    let picked: Vec<TimeSeries> = asked.iter().map(|&q| queries[q].clone()).collect();
    let cfg = IndexConfig::sdtw_bands().sdtw;
    let same = oracle_rows(&picked, corpus, &cfg)?;
    let full_cfg = SDtwConfig {
        policy: ConstraintPolicy::FullGrid,
        ..cfg
    };
    let full = oracle_rows(&picked, corpus, &full_cfg)?;
    let mut overlap = 0usize;
    for (row, &q) in asked.iter().enumerate() {
        for r in &answers[q] {
            if result_key(r) != same[row] {
                out.fail(format!(
                    "query {q}: neighbours differ from compute_query_matrix"
                ));
            }
        }
        let served = &answers[q][0].neighbors;
        overlap += full[row]
            .iter()
            .filter(|(j, _)| served.iter().any(|n| n.index == *j))
            .count();
    }
    out.note("oracle_queries", json!(asked.len()));
    Ok(overlap as f64 / (asked.len() * K).max(1) as f64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ds = UcrAnalog::Words50.generate(args.seed).series;
    let corpus: Vec<TimeSeries> = ds.iter().step_by(2).cloned().collect();
    let queries: Vec<TimeSeries> = ds
        .iter()
        .skip(1)
        .step_by(2)
        .take(QUERIES)
        .cloned()
        .collect();

    // set-up: corpus feature extraction and index build
    let (setup_secs, index) = timed_reps(SETUP_REPS, || {
        SdtwIndex::build(&corpus, IndexConfig::sdtw_bands())
    });
    let index = index.map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &index, &corpus, &queries, &setup_secs, &mut out)?;
        return Ok(out);
    }

    let mut answers: Vec<Vec<QueryResult>> = vec![Vec::new(); queries.len()];
    let mut batch_ms = Vec::new();
    let mut spans = Vec::new();
    let mut next = 0usize;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let ids: Vec<usize> = (next..next + BATCH).map(|i| i % queries.len()).collect();
        next += BATCH;
        let batch: Vec<TimeSeries> = ids.iter().map(|&i| queries[i].clone()).collect();
        let tb = Instant::now();
        let results = index.batch_query(&batch, K, true);
        let (from, to) = ((tb - t0).as_secs_f64(), t0.elapsed().as_secs_f64());
        batch_ms.push((to - from) * 1e3);
        spans.push((from, to, BATCH as f64));
        out.attempted += BATCH as u64;
        match results {
            Ok(rs) => {
                for (i, r) in ids.into_iter().zip(rs) {
                    answers[i].push(r);
                }
            }
            Err(e) => {
                for _ in 0..BATCH {
                    out.fail(format!("batch at query {}: {e}", next - BATCH));
                }
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb("self").ok_or("VmHWM unreadable")?;
    let recall = check(&queries, &corpus, &answers, &mut out)?;
    let lat = summarize(&batch_ms);
    out.metric("setup_s", median(&setup_secs), "s");
    let (rate, windows) = windowed_rate(&spans, args.seconds);
    out.metric("throughput_ops_s", rate, "1/s");
    out.metric("latency_p50_ms", lat.p50, "ms");
    out.metric("latency_tail_ms", lat.tail, "ms");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("recall_at_5_vs_full", recall, "ratio");
    out.note("latency_ms", lat.record("ms"));
    out.note(
        "latency_is",
        json!(format!("one batch_query call of {BATCH} queries")),
    );
    out.note("setup_s", summarize(&setup_secs).record("s"));
    out.note("measured_s", json!(elapsed));
    out.note("throughput_windows", json!(windows));
    out.note("workers", json!(rayon::current_num_threads()));
    Ok(out)
}

fn traced(
    args: &Args,
    index: &SdtwIndex,
    corpus: &[TimeSeries],
    queries: &[TimeSeries],
    setup_secs: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let picked = &queries[..TRACED_QUERIES];
    let cfg = index.config().clone();
    let sdtw = SDtw::new(cfg.sdtw.clone()).map_err(|e| e.to_string())?;

    // each traced query is also answered untraced, the overhead
    // baseline, in alternating order after a warm-up query outside the
    // traced ones, so neither side is always the colder
    let untraced_once = |q: &TimeSeries| -> Result<f64, String> {
        let t = Instant::now();
        std::hint::black_box(index.query(q, K).map_err(|e| e.to_string())?);
        Ok(t.elapsed().as_secs_f64())
    };
    untraced_once(&queries[queries.len() - 1])?;
    let mut untraced_s = 0.0;

    let mut tr = Tracer::new();
    let mut answers: Vec<Vec<QueryResult>> = vec![Vec::new(); queries.len()];
    let mut traced_s = 0.0;
    let (mut band_cells, mut grid_cells, mut features) = (0u64, 0u64, 0usize);
    let mut scratch = DtwScratch::new();
    for (i, q) in picked.iter().enumerate() {
        // the real query, with the program's own trace beside it
        if i % 2 == 0 {
            untraced_s += untraced_once(q)?;
        }
        let t = Instant::now();
        tr.begin_op("knn.query", i as u64);
        let traced = tr.span("index.query", || index.query_traced(q, K, &format!("q{i}")));
        tr.end_op();
        traced_s += t.elapsed().as_secs_f64();
        if i % 2 == 1 {
            untraced_s += untraced_once(q)?;
        }
        let (result, trace) = traced.map_err(|e| e.to_string())?;
        let c = &result.stats;
        for (name, v) in [
            ("index.cascade.candidates", c.candidates),
            ("index.cascade.pruned_kim", c.pruned_kim),
            ("index.cascade.pruned_paa", c.pruned_paa),
            ("index.cascade.pruned_keogh", c.pruned_keogh),
            ("index.cascade.pruned_keogh_rev", c.pruned_keogh_rev),
            ("index.cascade.lb_inapplicable", c.lb_inapplicable),
            ("index.cascade.abandoned", c.abandoned),
            ("index.cascade.dp_completed", c.dp_completed),
            ("index.cascade.cells_filled", c.cells_filled),
        ] {
            tr.count(name, v);
        }
        tr.program_rows.push(trace.to_json_line());
        answers[i].push(result);
        out.attempted += 1;

        // the same query's layers, one public call at a time: query
        // extraction, then a band plan and an uncut DP fill per entry
        tr.begin_op("knn.layers", i as u64);
        let store = FeatureStore::new(cfg.sdtw.salient.clone()).map_err(|e| e.to_string())?;
        let fq = tr.span("salient.extract", || store.features_for(q));
        let fq = fq.map_err(|e| e.to_string())?;
        features += fq.len();
        for e in index.entries() {
            let (n, m) = (q.len(), e.series.len());
            let (band, _) = tr.span("align.band_plan", || sdtw.plan_band(&fq, &e.features, n, m));
            band_cells += band.area() as u64;
            grid_cells += (n * m) as u64;
            let r = tr.span("dtw.dp_fill", || {
                dtw_run_options(q, &e.series, &band, &cfg.sdtw.dtw, None, &mut scratch)
            });
            tr.count("dtw.cells", r.map_or(0, |r| r.cells_filled) as u64);
        }
        tr.end_op();
    }
    check(queries, corpus, &answers, out)?;

    let st = tr.self_times();
    let nq = picked.len() as f64;
    out.metric(
        "salient.extract_us",
        st.total("salient.extract") / nq * 1e6,
        "us",
    );
    out.metric("salient.features_per_series", features as f64 / nq, "count");
    out.metric(
        "align.band_plan_us",
        st.total("align.band_plan") / nq * 1e6,
        "us",
    );
    out.metric(
        "align.band_fill_frac",
        band_cells as f64 / grid_cells.max(1) as f64,
        "ratio",
    );
    out.metric("index.query_ms", st.total("index.query") / nq * 1e3, "ms");
    out.metric("index.build_ms", median(setup_secs) * 1e3, "ms");
    out.metric(
        "obs.trace_overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );
    crate::util::finish_traced(args, &tr, &st, out)
}
