//! Batch distance evaluation: full pairwise matrices and query-vs-corpus
//! matrices, serial or rayon-parallel, with work/time accounting.
//!
//! The parallel path distributes rows across worker threads with dynamic
//! self-scheduling and keeps **one reusable DP scratch buffer per worker**
//! (`rayon`'s `map_init` + [`sdtw::DtwScratch`]), so a batch of `n²` DTW
//! runs performs `O(workers)` allocations instead of `O(n²)`. Scratch
//! reuse and row-order reassembly make the parallel results
//! **bit-identical** to the serial ones — the tests assert it, and the
//! experiment harness depends on it (a policy's metrics must not depend on
//! the worker count).

use rayon::prelude::*;
use sdtw::{DtwScratch, FeatureStore, PhaseTiming, SDtw};
use sdtw_obs::{InputShape, QueryTrace, Recorder, SpanRecord, TracePhase, WorkloadKind};
use sdtw_salient::SalientFeature;
use sdtw_tseries::{TimeSeries, TsError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Aggregated cost accounting over all pairs of a matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixStats {
    /// One-time salient-feature extraction cost actually paid while
    /// building this matrix (cache misses only — a pre-warmed
    /// [`FeatureStore`] makes this exactly zero). Attributed **once** per
    /// series, never smeared across pairs, and excluded from
    /// [`MatrixStats::total_time`] to match the paper's cost model.
    pub extraction_time: Duration,
    /// Total matching (+ band construction) wall time across pairs.
    pub matching_time: Duration,
    /// Total dynamic-programming wall time across pairs.
    pub dp_time: Duration,
    /// Total DP cells filled across pairs (deterministic work proxy).
    pub cells_filled: u64,
    /// Total descriptor comparisons across pairs.
    pub descriptor_comparisons: u64,
    /// Number of ordered pairs computed.
    pub pairs: u64,
}

impl MatrixStats {
    /// Projects the canonical [`QueryTrace`] into the historical matrix
    /// view — `MatrixStats` no longer hand-rolls its own timing
    /// semantics: the time split comes from the trace's spans (via
    /// [`PhaseTiming::from_spans`], so extraction/matching/DP attribution
    /// is defined in exactly one place) and the work counters from the
    /// trace's counter block. Matrix pairs always run the DP to
    /// completion, so `pairs` is the completed-DP count.
    pub fn from_trace(trace: &QueryTrace) -> MatrixStats {
        let timing = PhaseTiming::from_spans(&trace.spans);
        MatrixStats {
            extraction_time: timing.extraction.unwrap_or_default(),
            matching_time: timing.matching,
            dp_time: timing.dynamic_programming,
            cells_filled: trace.counters.cascade.cells_filled,
            descriptor_comparisons: trace.descriptor_comparisons,
            pairs: trace.counters.cascade.dp_completed,
        }
    }

    /// Total per-pair cost under the paper's accounting (matching + DP;
    /// extraction is a one-time indexed cost, tracked separately in
    /// [`MatrixStats::extraction_time`]).
    pub fn total_time(&self) -> Duration {
        self.matching_time + self.dp_time
    }
}

/// A dense `n × n` distance matrix (row `i` = distances from query `i`).
/// Self-distances are stored as 0; the matrix may be asymmetric (adaptive
/// sDTW constraints are direction-dependent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
    /// Aggregated accounting for the whole matrix.
    pub stats: MatrixStats,
}

impl DistanceMatrix {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance from series `i` to series `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Indices of all other series, ascending by distance from `i`
    /// (stable tie-break by index, self excluded).
    pub fn ranked_neighbors(&self, i: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.n).filter(|&j| j != i).collect();
        idx.sort_by(|&a, &b| {
            self.get(i, a)
                .partial_cmp(&self.get(i, b))
                .expect("distances are finite")
                .then(a.cmp(&b))
        });
        idx
    }

    /// The `k` nearest neighbours of `i` (self excluded).
    pub fn top_k(&self, i: usize, k: usize) -> Vec<usize> {
        let mut r = self.ranked_neighbors(i);
        r.truncate(k);
        r
    }
}

/// A dense `queries × corpus` distance matrix — the retrieval-serving
/// shape: a batch of incoming queries scored against an indexed corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryMatrix {
    queries: usize,
    corpus: usize,
    data: Vec<f64>,
    /// Aggregated accounting for the whole matrix.
    pub stats: MatrixStats,
}

impl QueryMatrix {
    /// Number of query rows.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Number of corpus columns.
    pub fn corpus(&self) -> usize {
        self.corpus
    }

    /// Distance from query `q` to corpus series `j`.
    #[inline]
    pub fn get(&self, q: usize, j: usize) -> f64 {
        self.data[q * self.corpus + j]
    }

    /// Corpus indices ascending by distance from query `q` (stable
    /// tie-break by index).
    pub fn ranked(&self, q: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.corpus).collect();
        idx.sort_by(|&a, &b| {
            self.get(q, a)
                .partial_cmp(&self.get(q, b))
                .expect("distances are finite")
                .then(a.cmp(&b))
        });
        idx
    }

    /// The `k` nearest corpus series of query `q`.
    pub fn top_k(&self, q: usize, k: usize) -> Vec<usize> {
        let mut r = self.ranked(q);
        r.truncate(k);
        r
    }
}

/// Shared per-series feature sets, as cached by the store.
type SharedFeatures = Vec<Arc<Vec<SalientFeature>>>;

/// Pre-extracted (cached) features for a series set; empty when the
/// engine's policy ignores alignment. The returned duration is the
/// extraction cost actually paid (cache misses only): the one-time cost
/// the paper amortises, attributed here exactly once rather than
/// reported as zero-but-present on every pair.
fn features_of(
    series: &[TimeSeries],
    engine: &SDtw,
    store: &FeatureStore,
) -> Result<(SharedFeatures, Duration), TsError> {
    let mut extraction = Duration::ZERO;
    if !engine.config().policy.needs_alignment() {
        return Ok((Vec::new(), extraction));
    }
    let mut features = Vec::with_capacity(series.len());
    for ts in series {
        let (f, d) = store.features_for_timed(ts)?;
        extraction += d.unwrap_or_default();
        features.push(f);
    }
    Ok((features, extraction))
}

/// Runs `row` over `0..rows`, serially or on the worker pool, with one
/// [`DtwScratch`] per worker either way. Output is in row order.
fn run_rows<F>(rows: usize, parallel: bool, row: F) -> Vec<(Vec<f64>, QueryTrace)>
where
    F: Fn(&mut DtwScratch, usize) -> (Vec<f64>, QueryTrace) + Sync,
{
    if parallel {
        (0..rows)
            .into_par_iter()
            .map_init(DtwScratch::new, |scratch, i| row(scratch, i))
            .collect()
    } else {
        let mut scratch = DtwScratch::new();
        (0..rows).map(|i| row(&mut scratch, i)).collect()
    }
}

/// Reassembles row results in order and folds the per-row (shard-local)
/// traces into one matrix-level trace with the standard merge
/// discipline.
fn merge(rows: Vec<(Vec<f64>, QueryTrace)>) -> (Vec<f64>, QueryTrace) {
    let mut data = Vec::with_capacity(rows.iter().map(|(r, _)| r.len()).sum());
    let mut trace = QueryTrace::default();
    for (r, t) in rows {
        data.extend_from_slice(&r);
        trace.merge(&t);
    }
    (data, trace)
}

/// One row of a matrix: scores `targets(i)` pairs through the engine with
/// a row-local recorder, returning the distances and the row's trace.
fn traced_row<'c>(
    engine: &SDtw,
    scratch: &mut DtwScratch,
    row_id: String,
    x: &TimeSeries,
    fx: &[SalientFeature],
    columns: impl Iterator<Item = Option<(&'c TimeSeries, &'c [SalientFeature])>>,
    cols: usize,
) -> (Vec<f64>, QueryTrace) {
    let mut out = vec![0.0; cols];
    let mut trace = QueryTrace::new(row_id, WorkloadKind::DistanceMatrix);
    let mut rec = Recorder::enabled();
    for (j, col) in columns.enumerate() {
        let Some((y, fy)) = col else {
            continue; // the skipped diagonal of a full matrix
        };
        let o = engine
            .query(x, y)
            .features(fx, fy)
            .scratch(scratch)
            .recorder(&mut rec)
            .run()
            .expect("supplied features cannot fail extraction")
            .expect("no cutoff configured");
        out[j] = o.distance;
        trace.counters.cascade.candidates += 1;
        trace.counters.cascade.record_completed(o.cells_filled);
        trace.descriptor_comparisons += o.descriptor_comparisons as u64;
        trace.band_area += o.band_area as u64;
        trace.full_grid += (x.len() * y.len()) as u64;
    }
    trace.spans = rec.finish();
    (out, trace)
}

/// Computes the full pairwise distance matrix of a corpus under an engine.
///
/// Features are taken from (and cached in) `store`, so extraction is a
/// one-time cost excluded from the per-pair accounting — matching the
/// paper's cost model. With `parallel` the rows run on the worker pool
/// (one DP scratch per worker); the accounted times are summed across
/// threads (CPU time, which is what the time-gain ratios compare).
/// Distances are identical between the serial and parallel paths.
///
/// # Errors
///
/// Propagates feature-extraction failures.
pub fn compute_matrix(
    corpus: &[TimeSeries],
    engine: &SDtw,
    store: &FeatureStore,
    parallel: bool,
) -> Result<DistanceMatrix, TsError> {
    Ok(compute_matrix_traced(corpus, engine, store, parallel)?.0)
}

/// [`compute_matrix`] plus the canonical [`QueryTrace`] of the whole
/// batch: per-row (shard-local) traces merged under the standard
/// discipline, the one-time extraction cost as an `Extraction` span, and
/// the matrix's [`MatrixStats`] derived from the trace rather than
/// accumulated separately.
///
/// # Errors
///
/// Propagates feature-extraction failures.
pub fn compute_matrix_traced(
    corpus: &[TimeSeries],
    engine: &SDtw,
    store: &FeatureStore,
    parallel: bool,
) -> Result<(DistanceMatrix, QueryTrace), TsError> {
    let t0 = std::time::Instant::now();
    let n = corpus.len();
    let (features, extraction_time) = features_of(corpus, engine, store)?;
    let empty: Vec<SalientFeature> = Vec::new();
    let needs_features = engine.config().policy.needs_alignment();

    let row = |scratch: &mut DtwScratch, i: usize| -> (Vec<f64>, QueryTrace) {
        let fx: &[SalientFeature] = if needs_features { &features[i] } else { &empty };
        let columns = corpus.iter().enumerate().map(|(j, y)| {
            if i == j {
                return None;
            }
            let fy: &[SalientFeature] = if needs_features { &features[j] } else { &empty };
            Some((y, fy))
        });
        traced_row(
            engine,
            scratch,
            format!("row{i}"),
            &corpus[i],
            fx,
            columns,
            n,
        )
    };

    let (data, rows_trace) = merge(run_rows(n, parallel, row));
    let mut trace = matrix_trace("distmat", corpus, corpus, n as u64, engine);
    trace.merge(&rows_trace);
    if extraction_time > Duration::ZERO {
        trace.spans.push(extraction_span(extraction_time, n as u64));
    }
    trace.wall = t0.elapsed();
    let stats = MatrixStats::from_trace(&trace);
    Ok((DistanceMatrix { n, data, stats }, trace))
}

/// The identity/shape half of a matrix-level trace.
fn matrix_trace(
    id: &str,
    rows: &[TimeSeries],
    cols: &[TimeSeries],
    k: u64,
    engine: &SDtw,
) -> QueryTrace {
    let config = engine.config();
    let mut trace = QueryTrace::new(id, WorkloadKind::DistanceMatrix);
    trace.shape = InputShape {
        x_len: rows.first().map_or(0, |s| s.len() as u64),
        y_len: cols.first().map_or(0, |s| s.len() as u64),
        k,
        policy: config.policy.label(),
        kernel: config.dtw.kernel_label(),
        engine: "wavefront".into(),
    };
    trace
}

/// The batch's one-time extraction cost as a span (attributed once at
/// the driver level — per-pair calls run on supplied features and never
/// extract).
fn extraction_span(duration: Duration, series: u64) -> SpanRecord {
    SpanRecord {
        phase: TracePhase::Extraction,
        start: Duration::ZERO,
        duration,
        count: series,
        thread: 0,
    }
}

/// Computes a query-vs-corpus distance matrix: every query series scored
/// against every corpus series (no self-skipping — queries are external).
///
/// Same caching, parallelism and determinism contract as
/// [`compute_matrix`]; queries and corpus may have different lengths and
/// sizes.
///
/// # Errors
///
/// Propagates feature-extraction failures.
pub fn compute_query_matrix(
    queries: &[TimeSeries],
    corpus: &[TimeSeries],
    engine: &SDtw,
    store: &FeatureStore,
    parallel: bool,
) -> Result<QueryMatrix, TsError> {
    Ok(compute_query_matrix_traced(queries, corpus, engine, store, parallel)?.0)
}

/// [`compute_query_matrix`] plus the batch's canonical [`QueryTrace`]
/// (same contract as [`compute_matrix_traced`]).
///
/// # Errors
///
/// Propagates feature-extraction failures.
pub fn compute_query_matrix_traced(
    queries: &[TimeSeries],
    corpus: &[TimeSeries],
    engine: &SDtw,
    store: &FeatureStore,
    parallel: bool,
) -> Result<(QueryMatrix, QueryTrace), TsError> {
    let t0 = std::time::Instant::now();
    let (q_features, q_extraction) = features_of(queries, engine, store)?;
    let (c_features, c_extraction) = features_of(corpus, engine, store)?;
    let empty: Vec<SalientFeature> = Vec::new();
    let needs_features = engine.config().policy.needs_alignment();
    let cols = corpus.len();

    let row = |scratch: &mut DtwScratch, q: usize| -> (Vec<f64>, QueryTrace) {
        let fq: &[SalientFeature] = if needs_features {
            &q_features[q]
        } else {
            &empty
        };
        let columns = corpus.iter().enumerate().map(|(j, cand)| {
            let fc: &[SalientFeature] = if needs_features {
                &c_features[j]
            } else {
                &empty
            };
            Some((cand, fc))
        });
        traced_row(
            engine,
            scratch,
            format!("q{q}"),
            &queries[q],
            fq,
            columns,
            cols,
        )
    };

    let (data, rows_trace) = merge(run_rows(queries.len(), parallel, row));
    let mut trace = matrix_trace("querymat", queries, corpus, queries.len() as u64, engine);
    trace.merge(&rows_trace);
    let extraction_time = q_extraction + c_extraction;
    if extraction_time > Duration::ZERO {
        trace.spans.push(extraction_span(
            extraction_time,
            (queries.len() + corpus.len()) as u64,
        ));
    }
    trace.wall = t0.elapsed();
    let stats = MatrixStats::from_trace(&trace);
    Ok((
        QueryMatrix {
            queries: queries.len(),
            corpus: cols,
            data,
            stats,
        },
        trace,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdtw::{ConstraintPolicy, SDtwConfig};
    use sdtw_datasets::econ;

    fn small_corpus() -> Vec<TimeSeries> {
        econ::generate(3, 3, 2).series
    }

    fn engine(policy: ConstraintPolicy) -> SDtw {
        SDtw::new(SDtwConfig {
            policy,
            ..SDtwConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn full_matrix_is_symmetric_with_zero_diagonal() {
        let corpus = small_corpus();
        let eng = engine(ConstraintPolicy::FullGrid);
        let store = FeatureStore::new(eng.config().salient.clone()).unwrap();
        let m = compute_matrix(&corpus, &eng, &store, false).unwrap();
        for i in 0..m.n() {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..m.n() {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-9);
            }
        }
        assert_eq!(m.stats.pairs, (corpus.len() * (corpus.len() - 1)) as u64);
        assert!(m.stats.cells_filled > 0);
    }

    #[test]
    fn parallel_and_serial_agree_bitwise() {
        let corpus = small_corpus();
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let store = FeatureStore::new(eng.config().salient.clone()).unwrap();
        store.warm(&corpus).unwrap();
        let a = compute_matrix(&corpus, &eng, &store, false).unwrap();
        let b = compute_matrix(&corpus, &eng, &store, true).unwrap();
        for i in 0..a.n() {
            for j in 0..a.n() {
                assert_eq!(a.get(i, j).to_bits(), b.get(i, j).to_bits());
            }
        }
        assert_eq!(a.stats.cells_filled, b.stats.cells_filled);
        assert_eq!(a.stats.pairs, b.stats.pairs);
    }

    #[test]
    fn ranked_neighbors_sorted_and_exclude_self() {
        let corpus = small_corpus();
        let eng = engine(ConstraintPolicy::FullGrid);
        let store = FeatureStore::new(eng.config().salient.clone()).unwrap();
        let m = compute_matrix(&corpus, &eng, &store, false).unwrap();
        for i in 0..m.n() {
            let r = m.ranked_neighbors(i);
            assert_eq!(r.len(), m.n() - 1);
            assert!(!r.contains(&i));
            for w in r.windows(2) {
                assert!(m.get(i, w[0]) <= m.get(i, w[1]));
            }
        }
        assert_eq!(m.top_k(0, 2).len(), 2);
    }

    #[test]
    fn banded_matrix_dominates_reference() {
        let corpus = small_corpus();
        let store = FeatureStore::new(sdtw::SalientConfig::default()).unwrap();
        let reference =
            compute_matrix(&corpus, &engine(ConstraintPolicy::FullGrid), &store, false).unwrap();
        let banded = compute_matrix(
            &corpus,
            &engine(ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.06 }),
            &store,
            false,
        )
        .unwrap();
        for i in 0..reference.n() {
            for j in 0..reference.n() {
                assert!(banded.get(i, j) >= reference.get(i, j) - 1e-9);
            }
        }
        assert!(banded.stats.cells_filled < reference.stats.cells_filled);
    }

    #[test]
    fn query_matrix_matches_pairwise_distances() {
        let corpus = small_corpus();
        let queries = vec![corpus[0].clone(), corpus[3].clone()];
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let store = FeatureStore::new(eng.config().salient.clone()).unwrap();
        let qm = compute_query_matrix(&queries, &corpus, &eng, &store, false).unwrap();
        assert_eq!(qm.queries(), 2);
        assert_eq!(qm.corpus(), corpus.len());
        assert_eq!(qm.stats.pairs, (2 * corpus.len()) as u64);
        // rows must equal individually computed distances
        for (q, query) in queries.iter().enumerate() {
            let fq = store.features_for(query).unwrap();
            for (j, cand) in corpus.iter().enumerate() {
                let fc = store.features_for(cand).unwrap();
                let d = eng
                    .query(query, cand)
                    .features(&fq, &fc)
                    .run()
                    .unwrap()
                    .unwrap()
                    .distance;
                assert_eq!(qm.get(q, j).to_bits(), d.to_bits());
            }
        }
        // a corpus member used as query is its own nearest neighbour
        assert_eq!(qm.top_k(0, 1), vec![0]);
        assert_eq!(qm.top_k(1, 1), vec![3]);
    }

    #[test]
    fn query_matrix_parallel_and_serial_agree_bitwise() {
        let corpus = small_corpus();
        let queries: Vec<TimeSeries> = corpus.iter().take(3).cloned().collect();
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width_averaged());
        let store = FeatureStore::new(eng.config().salient.clone()).unwrap();
        let a = compute_query_matrix(&queries, &corpus, &eng, &store, false).unwrap();
        let b = compute_query_matrix(&queries, &corpus, &eng, &store, true).unwrap();
        for q in 0..a.queries() {
            for j in 0..a.corpus() {
                assert_eq!(a.get(q, j).to_bits(), b.get(q, j).to_bits());
            }
        }
        assert_eq!(a.stats.cells_filled, b.stats.cells_filled);
    }

    #[test]
    fn extraction_is_attributed_once_and_absent_when_warmed() {
        let corpus = small_corpus();
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        // cold store: the matrix pays extraction exactly once (misses)
        let cold_store = FeatureStore::new(eng.config().salient.clone()).unwrap();
        let cold = compute_matrix(&corpus, &eng, &cold_store, false).unwrap();
        assert!(
            cold.stats.extraction_time > Duration::ZERO,
            "cold store must attribute the one-time extraction"
        );
        // same store again: every lookup hits, extraction is exactly zero
        let warm = compute_matrix(&corpus, &eng, &cold_store, false).unwrap();
        assert_eq!(warm.stats.extraction_time, Duration::ZERO);
        // and extraction never leaks into the per-pair split
        assert_eq!(
            warm.stats.total_time(),
            warm.stats.matching_time + warm.stats.dp_time
        );
        // alignment-free policies never extract at all
        let sakoe = engine(ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.2 });
        let store = FeatureStore::new(sakoe.config().salient.clone()).unwrap();
        let m = compute_matrix(&corpus, &sakoe, &store, false).unwrap();
        assert_eq!(m.stats.extraction_time, Duration::ZERO);
    }

    #[test]
    fn traced_matrix_matches_plain_and_stats_derive_from_the_trace() {
        let corpus = small_corpus();
        let eng = engine(ConstraintPolicy::adaptive_core_adaptive_width());
        let store = FeatureStore::new(eng.config().salient.clone()).unwrap();
        let plain = compute_matrix(&corpus, &eng, &store, false).unwrap();
        let (traced, trace) = compute_matrix_traced(&corpus, &eng, &store, false).unwrap();
        for i in 0..plain.n() {
            for j in 0..plain.n() {
                assert_eq!(plain.get(i, j).to_bits(), traced.get(i, j).to_bits());
            }
        }
        assert_eq!(trace.workload, WorkloadKind::DistanceMatrix);
        assert_eq!(traced.stats, MatrixStats::from_trace(&trace));
        assert_eq!(trace.counters.cascade.dp_completed, traced.stats.pairs);
        assert!(trace.counters.is_consistent());
        assert!(
            trace.spans.iter().any(|s| s.phase == TracePhase::DpFill),
            "row recorders contribute DP spans"
        );
        assert!(trace.band_area > 0);
        assert!(trace.full_grid >= trace.band_area);
        // the NDJSON line round-trips
        let back = QueryTrace::from_json_line(&trace.to_json_line()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn query_matrix_ranking_is_stable_and_sorted() {
        let corpus = small_corpus();
        let queries = vec![corpus[1].clone()];
        let eng = engine(ConstraintPolicy::FullGrid);
        let store = FeatureStore::new(eng.config().salient.clone()).unwrap();
        let qm = compute_query_matrix(&queries, &corpus, &eng, &store, false).unwrap();
        let ranked = qm.ranked(0);
        assert_eq!(ranked.len(), corpus.len());
        for w in ranked.windows(2) {
            assert!(qm.get(0, w[0]) <= qm.get(0, w[1]));
        }
    }
}
