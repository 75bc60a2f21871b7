//! End-to-end integration of the kNN index with the evaluation harness:
//! the index must reproduce the brute-force retrieval pipeline exactly —
//! same neighbours, same distances, perfect `retrieval_accuracy` — while
//! pruning real work, on a labelled UCR-analogue corpus.

use sdtw_suite::datasets::econ;
use sdtw_suite::eval::retrieval::retrieval_accuracy;
use sdtw_suite::prelude::*;

#[test]
fn index_reproduces_the_retrieval_pipeline_exactly() {
    let ds = UcrAnalog::Gun.generate(55);
    let corpus = ds.series[..20].to_vec();
    let queries: Vec<TimeSeries> = ds.series[20..25].to_vec();
    for config in [IndexConfig::exact_banded(0.2), IndexConfig::sdtw_bands()] {
        let engine = SDtw::new(config.sdtw.clone()).unwrap();
        let store = FeatureStore::new(config.sdtw.salient.clone()).unwrap();
        let qm = compute_query_matrix(&queries, &corpus, &engine, &store, true).unwrap();
        let index = SdtwIndex::build(&corpus, config).unwrap();
        let results = index.batch_query(&queries, 5, true).unwrap();
        let mut total = CascadeStats::default();
        for (q, r) in results.iter().enumerate() {
            let got: Vec<(usize, u64)> = r
                .neighbors
                .iter()
                .map(|n| (n.index, n.distance.to_bits()))
                .collect();
            let want: Vec<(usize, u64)> = qm
                .top_k(q, 5)
                .into_iter()
                .map(|j| (j, qm.get(q, j).to_bits()))
                .collect();
            assert_eq!(got, want, "query {q} diverged from the oracle");
            total.absorb(&r.stats);
        }
        assert!(total.is_consistent());
    }
}

#[test]
fn index_retrieval_has_perfect_accuracy_against_its_own_engine() {
    // build the full pairwise matrix under one engine, then re-derive the
    // same ranking through the index and score it with the §4.2 metric:
    // the overlap must be exactly 1.0 for every k
    let ds = UcrAnalog::Gun.generate(70);
    let corpus = ds.series[..16].to_vec();
    let config = IndexConfig::exact_banded(0.2);
    let engine = SDtw::new(config.sdtw.clone()).unwrap();
    let store = FeatureStore::new(config.sdtw.salient.clone()).unwrap();
    let reference = compute_matrix(&corpus, &engine, &store, true).unwrap();
    let index = SdtwIndex::build(&corpus, config).unwrap();
    for (i, query) in corpus.iter().enumerate() {
        // k+1 because the matrix ranking excludes self, the index doesn't
        let r = index.query(query, 4).unwrap();
        let got: Vec<usize> = r
            .neighbors
            .iter()
            .map(|n| n.index)
            .filter(|&j| j != i)
            .take(3)
            .collect();
        assert_eq!(got, reference.top_k(i, 3), "query {i} ranking diverged");
    }
    // and the metric itself agrees that identical rankings score 1.0
    assert_eq!(retrieval_accuracy(&reference, &reference, 3), 1.0);
}

#[test]
fn index_prunes_while_staying_exact_on_labelled_data() {
    let ds = UcrAnalog::Trace.generate(31);
    let corpus = ds.series[..24].to_vec();
    let queries: Vec<TimeSeries> = corpus[..6].to_vec();
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let results = index.batch_query(&queries, 1, true).unwrap();
    let mut total = CascadeStats::default();
    for (q, r) in results.iter().enumerate() {
        assert_eq!(r.neighbors[0].index, q, "a member is its own 1-NN");
        assert_eq!(r.neighbors[0].distance, 0.0);
        total.absorb(&r.stats);
    }
    assert!(
        total.prune_rate() > 0.3,
        "self-queries should prune hard, got {}",
        total.prune_rate()
    );
}

/// Three seeded datasets (the suite's standard trio), a handful of
/// series each.
fn seeded_series() -> Vec<(&'static str, Vec<TimeSeries>)> {
    vec![
        ("gun", UcrAnalog::Gun.generate(11).series[..4].to_vec()),
        ("trace", UcrAnalog::Trace.generate(22).series[..4].to_vec()),
        ("econ", econ::generate(7, 2, 2).series),
    ]
}

/// The three constraint-policy families under test.
fn policies() -> Vec<ConstraintPolicy> {
    vec![
        ConstraintPolicy::FixedCoreFixedWidth { width_frac: 0.1 },
        ConstraintPolicy::adaptive_core_adaptive_width(),
        ConstraintPolicy::adaptive_core_adaptive_width_averaged(),
    ]
}

#[test]
fn cascade_stats_are_reproducible_across_execution_modes() {
    // CascadeStats must be a pure function of (index, query, k): identical
    // between fresh-scratch and reused-scratch queries and between serial
    // and parallel batches, for every policy family and both symmetries.
    for (name, series) in seeded_series() {
        for policy in policies() {
            for symmetry in [BandSymmetry::Asymmetric, BandSymmetry::Union] {
                let config = IndexConfig {
                    sdtw: SDtwConfig {
                        policy,
                        symmetry,
                        ..SDtwConfig::default()
                    },
                    z_normalize: false,
                    lb_radius_frac: 0.2,
                    ..IndexConfig::default()
                };
                let index = SdtwIndex::build(&series, config).unwrap();
                let queries: Vec<TimeSeries> = series.iter().take(2).cloned().collect();
                let ctx = format!("{name}/{}/{symmetry:?}", policy.label());

                let mut scratch = DtwScratch::new();
                for q in &queries {
                    let fresh = index.query(q, 3).unwrap();
                    let reused = index.query_with_scratch(q, 3, &mut scratch).unwrap();
                    assert_eq!(fresh, reused, "{ctx}: scratch reuse changed the answer");
                    assert!(fresh.stats.is_consistent(), "{ctx}: stats leak");
                    assert!(!fresh.stats.bounds_disabled, "{ctx}: bounds stay on");
                }
                let serial = index.batch_query(&queries, 3, false).unwrap();
                let parallel = index.batch_query(&queries, 3, true).unwrap();
                assert_eq!(serial, parallel, "{ctx}: parallelism changed the answer");
            }
        }
    }
}

/// Samples near the `f64` range overflow the z-normalisation moments.
fn overflowing_series() -> TimeSeries {
    TimeSeries::new(vec![1e308, 1.5e308, 1e308, 1.5e308, 1e308, 1.5e308]).unwrap()
}

fn znorm_config() -> IndexConfig {
    IndexConfig {
        z_normalize: true,
        ..IndexConfig::exact_banded(0.2)
    }
}

#[test]
fn building_over_an_overflowing_series_is_refused_not_a_panic() {
    let mut corpus = UcrAnalog::Gun.generate(3).series[..3].to_vec();
    corpus.push(overflowing_series());
    let err = SdtwIndex::build(&corpus, znorm_config()).unwrap_err();
    assert!(
        matches!(err, TsError::InvalidParameter { .. }),
        "wrong error: {err:?}"
    );
}

#[test]
fn querying_with_an_overflowing_series_is_refused_not_a_panic() {
    let corpus = UcrAnalog::Gun.generate(3).series[..4].to_vec();
    let index = SdtwIndex::build(&corpus, znorm_config()).unwrap();
    let query = overflowing_series();
    for err in [
        index.query(&query, 2).unwrap_err(),
        index.query_traced(&query, 2, "q").unwrap_err(),
        index.query_detailed(&query, 2).unwrap_err(),
        index
            .batch_query(&[corpus[0].clone(), query.clone()], 2, false)
            .unwrap_err(),
        index
            .batch_query(std::slice::from_ref(&query), 2, true)
            .unwrap_err(),
    ] {
        assert!(
            matches!(err, TsError::InvalidParameter { .. }),
            "wrong error: {err:?}"
        );
    }
    // a well-formed query still answers
    assert_eq!(index.query(&corpus[1], 2).unwrap().neighbors.len(), 2);
}

/// A traced query reports the descriptor comparisons of its adaptive
/// band plans: the sum of the per-entry counts `plan_band` returns for
/// every entry the summary stages let through to planning. An
/// alignment-free (Sakoe) index plans no adaptive band and reports 0.
#[test]
fn traced_queries_report_the_descriptor_comparisons_of_their_band_plans() {
    use sdtw_suite::dtw::StageKind;
    use sdtw_suite::index::EntryOutcome;
    use sdtw_suite::salient::extract_features;
    use sdtw_suite::tseries::transform::try_z_normalize;

    let ds = UcrAnalog::Gun.generate(55);
    let corpus = ds.series[..20].to_vec();
    let query = &ds.series[20];

    let index = SdtwIndex::build(&corpus, IndexConfig::sdtw_bands()).unwrap();
    let (_, trace) = index.query_traced(query, 3, "q").unwrap();
    let (_, dispositions) = index.query_detailed(query, 3).unwrap();
    let cfg = &index.config().sdtw;
    let engine = SDtw::new(cfg.clone()).unwrap();
    let q = if index.config().z_normalize {
        try_z_normalize(query).unwrap()
    } else {
        query.clone()
    };
    let fq = extract_features(&q, &cfg.salient).unwrap();
    let planned = dispositions.iter().filter(|d| {
        !matches!(
            d.outcome,
            EntryOutcome::Pruned(StageKind::Kim | StageKind::Paa)
        )
    });
    let want: u64 = planned
        .map(|d| {
            let entry = &index.entries()[d.index];
            let (_, matched) = engine.plan_band(&fq, &entry.features, q.len(), entry.series.len());
            matched
                .expect("adaptive policies match features")
                .descriptor_comparisons as u64
        })
        .sum();
    assert!(want > 0, "the adaptive plans compare descriptors");
    assert_eq!(trace.descriptor_comparisons, want);

    let sakoe = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let (_, trace) = sakoe.query_traced(query, 3, "q").unwrap();
    assert_eq!(trace.descriptor_comparisons, 0);
}
