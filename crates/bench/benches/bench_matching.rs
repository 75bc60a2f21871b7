//! Micro-benchmarks of feature matching + inconsistency pruning (the
//! `O(|S_X| × |S_Y|)` step of the paper's complexity analysis).
//!
//! `matching_lanes_<N>core/{lanes,oracle}/words50` times the production
//! lane-batched dominant-pair search against the scalar oracle
//! (`sdtw_align::reference`) on one Words50 pair — 86 × 78 features,
//! the shape of one `ac2,aw` band plan in the adaptive kNN workload. The `matching_lanes_guard/...` record id carries the
//! measured speedup, the lane width and the core count; the body asserts
//! the lanes beat the oracle by at least 1.2×.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdtw_align::reference::match_features_scalar;
use sdtw_align::{match_features, MatchConfig, MatchResult};
use sdtw_bench::{dataset, min_ns_per_call};
use sdtw_datasets::UcrAnalog;
use sdtw_dtw::simd::LANE_WIDTH;
use sdtw_salient::{extract_features, SalientConfig, SalientFeature};
use std::hint::black_box;

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for kind in UcrAnalog::ALL {
        let (name, ..) = kind.table1_spec();
        let ds = dataset(kind);
        let cfg = SalientConfig::default();
        let fx = extract_features(&ds.series[0], &cfg).unwrap();
        let fy = extract_features(&ds.series[1], &cfg).unwrap();
        let n = ds.series[0].len();
        let m = ds.series[1].len();
        let mcfg = MatchConfig::default();
        group.bench_with_input(BenchmarkId::new("match_and_prune", name), &name, |b, _| {
            b.iter(|| black_box(match_features(&fx, &fy, n, m, &mcfg).consistent_pairs.len()))
        });
    }
    group.finish();
}

type Matcher = fn(&[SalientFeature], &[SalientFeature], usize, usize, &MatchConfig) -> MatchResult;

const MATCHERS: [(&str, Matcher); 2] =
    [("lanes", match_features), ("oracle", match_features_scalar)];

/// The lane-batched dominant-pair search against the scalar oracle on
/// the Words50 pair shape, plus the ≥ 1.2× guard.
fn bench_matching_lanes(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let ds = dataset(UcrAnalog::Words50);
    let cfg = SalientConfig::default();
    let fx = extract_features(&ds.series[0], &cfg).unwrap();
    let fy = extract_features(&ds.series[1], &cfg).unwrap();
    let (n, m) = (ds.series[0].len(), ds.series[1].len());
    let mcfg = MatchConfig::default();
    assert_eq!(
        match_features(&fx, &fy, n, m, &mcfg),
        match_features_scalar(&fx, &fy, n, m, &mcfg),
        "the lanes must reproduce the oracle"
    );
    let mut group = c.benchmark_group(&format!("matching_lanes_{cores}core"));
    for (name, matcher) in MATCHERS {
        group.bench_with_input(BenchmarkId::new(name, "words50"), &name, |b, _| {
            b.iter(|| black_box(matcher(&fx, &fy, n, m, &mcfg).raw_pairs.len()))
        });
    }
    group.finish();

    // the guard proper, measured outside the harness
    let ns = |matcher: Matcher| {
        min_ns_per_call(
            &mut || {
                black_box(matcher(&fx, &fy, n, m, &mcfg).raw_pairs.len());
            },
            50,
            8,
        )
    };
    let [(_, lanes), (_, oracle)] = MATCHERS;
    let oracle_ns = ns(oracle);
    let lanes_ns = ns(lanes);
    let speedup = oracle_ns / lanes_ns;
    assert!(
        speedup >= 1.2,
        "lane matching ({lanes_ns:.0} ns) must beat the scalar oracle ({oracle_ns:.0} ns) by \
         ≥ 1.2× on the Words50 pair ({} × {} features; measured {speedup:.2}x)",
        fx.len(),
        fy.len()
    );
    c.bench_function(
        &format!("matching_lanes_guard/speedup_{speedup:.2}x_w{LANE_WIDTH}_cores_{cores}"),
        |b| b.iter(|| black_box(speedup)),
    );
}

criterion_group!(benches, bench_matching, bench_matching_lanes);
criterion_main!(benches);
