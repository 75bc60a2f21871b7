//! Exactness of the cascade: the index must return identical ids and
//! bit-identical distances to the brute-force `compute_query_matrix`
//! oracle (and the deprecated `NnSearch` 1-NN oracle), on several seeded
//! datasets, for k ∈ {1, 5}, in both exact-banded-DTW and sDTW-band
//! modes.

use sdtw::{FeatureStore, KernelChoice, SDtw};
use sdtw_datasets::{econ, UcrAnalog};
use sdtw_eval::compute_query_matrix;
use sdtw_index::{IndexConfig, SdtwIndex, SnapshotCodec, SnapshotFormat};
use sdtw_tseries::transform::z_normalize;
use sdtw_tseries::TimeSeries;

/// Three seeded corpora with held-out queries: (name, corpus, queries).
fn seeded_datasets() -> Vec<(&'static str, Vec<TimeSeries>, Vec<TimeSeries>)> {
    let gun = UcrAnalog::Gun.generate(11).series;
    let trace = UcrAnalog::Trace.generate(22).series;
    let eco = econ::generate(7, 3, 4).series;
    vec![
        // corpus members and held-out members both appear as queries
        (
            "gun",
            gun[..20].to_vec(),
            vec![gun[0].clone(), gun[3].clone(), gun[24].clone()],
        ),
        (
            "trace",
            trace[..14].to_vec(),
            vec![trace[1].clone(), trace[20].clone()],
        ),
        (
            "econ",
            eco[..10].to_vec(),
            vec![eco[2].clone(), eco[10].clone()],
        ),
    ]
}

/// Brute-force oracle ranking under the same engine configuration.
fn oracle_top_k(
    queries: &[TimeSeries],
    corpus: &[TimeSeries],
    config: &IndexConfig,
    k: usize,
) -> Vec<Vec<(usize, u64)>> {
    let engine = SDtw::new(config.sdtw.clone()).unwrap();
    let store = FeatureStore::new(config.sdtw.salient.clone()).unwrap();
    let qm = compute_query_matrix(queries, corpus, &engine, &store, false).unwrap();
    (0..queries.len())
        .map(|q| {
            qm.top_k(q, k)
                .into_iter()
                .map(|j| (j, qm.get(q, j).to_bits()))
                .collect()
        })
        .collect()
}

fn assert_matches_oracle(config: IndexConfig, label: &str) {
    for (name, corpus, queries) in seeded_datasets() {
        let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
        for k in [1usize, 5] {
            let oracle = oracle_top_k(&queries, &corpus, &config, k);
            for (q, query) in queries.iter().enumerate() {
                let got = index.query(query, k).unwrap();
                let got_pairs: Vec<(usize, u64)> = got
                    .neighbors
                    .iter()
                    .map(|n| (n.index, n.distance.to_bits()))
                    .collect();
                assert_eq!(
                    got_pairs, oracle[q],
                    "{label}/{name}: query {q} k={k} diverged from the oracle"
                );
                assert!(got.stats.is_consistent(), "{label}/{name}: stats leak");
            }
        }
    }
}

#[test]
fn exact_banded_mode_matches_the_oracle() {
    assert_matches_oracle(IndexConfig::exact_banded(0.2), "exact");
}

#[test]
fn sdtw_band_mode_matches_the_oracle() {
    assert_matches_oracle(IndexConfig::sdtw_bands(), "sdtw");
}

#[test]
fn z_normalized_index_matches_the_oracle_on_normalized_data() {
    let (_, corpus, queries) = seeded_datasets().remove(0);
    let config = IndexConfig {
        z_normalize: true,
        ..IndexConfig::exact_banded(0.2)
    };
    // the oracle sees pre-normalised data; the index normalises internally
    let corpus_n: Vec<TimeSeries> = corpus.iter().map(z_normalize).collect();
    let queries_n: Vec<TimeSeries> = queries.iter().map(z_normalize).collect();
    let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
    let oracle = oracle_top_k(&queries_n, &corpus_n, &config, 3);
    for (q, query) in queries.iter().enumerate() {
        let got = index.query(query, 3).unwrap();
        let got_pairs: Vec<(usize, u64)> = got
            .neighbors
            .iter()
            .map(|n| (n.index, n.distance.to_bits()))
            .collect();
        assert_eq!(got_pairs, oracle[q], "z-norm query {q} diverged");
    }
}

#[test]
fn distance_ties_break_toward_the_lower_index_like_the_oracle() {
    // duplicated entries produce exact distance ties; the index must
    // resolve them by entry order, exactly as the oracle does
    let base: Vec<f64> = (0..60).map(|i| (i as f64 / 5.0).sin()).collect();
    let other: Vec<f64> = (0..60).map(|i| (i as f64 / 3.0).cos() * 2.0).collect();
    let corpus = vec![
        TimeSeries::new(other.clone()).unwrap(),
        TimeSeries::new(base.clone()).unwrap(),
        TimeSeries::new(other).unwrap(),
        TimeSeries::new(base.clone()).unwrap(),
        TimeSeries::new(base.clone()).unwrap(),
    ];
    let query = TimeSeries::new(base).unwrap();
    let config = IndexConfig::exact_banded(0.2);
    let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
    let got = index.query(&query, 3).unwrap();
    let idx: Vec<usize> = got.neighbors.iter().map(|n| n.index).collect();
    assert_eq!(
        idx,
        vec![1, 3, 4],
        "zero-distance ties must keep entry order"
    );
    let oracle = oracle_top_k(&[query], &corpus, &config, 3);
    let got_pairs: Vec<(usize, u64)> = got
        .neighbors
        .iter()
        .map(|n| (n.index, n.distance.to_bits()))
        .collect();
    assert_eq!(got_pairs, oracle[0]);
}

#[test]
fn one_nn_agrees_with_the_query_matrix_oracle() {
    // the 1-NN role the deprecated `NnSearch` scan used to play: a
    // corpus-member query must come back as its own exact nearest
    // neighbour, bit-identical to the brute-force matrix ranking
    let corpus = UcrAnalog::Gun.generate(33).series[..16].to_vec();
    let query = corpus[7].clone();
    let config = IndexConfig::exact_banded(0.2);
    let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
    let got = index.query(&query, 1).unwrap();
    let oracle = oracle_top_k(&[query], &corpus, &config, 1);
    assert_eq!(got.neighbors[0].index, oracle[0][0].0);
    assert_eq!(got.neighbors[0].distance.to_bits(), oracle[0][0].1);
    assert_eq!(got.neighbors[0].index, 7, "self is its own nearest");
    assert!(
        !got.stats.bounds_disabled,
        "standard kernel keeps bounds on"
    );
}

#[test]
fn amerced_kernel_index_matches_the_oracle_with_bounds_on() {
    // ω ≥ 0 keeps LB_Kim/LB_Keogh admissible (the amerced cost of any
    // path dominates its symmetric1 cost), so the cascade stays enabled
    // and must still be exact against the amerced brute force
    let mut exact = IndexConfig::exact_banded(0.2);
    exact.sdtw.dtw.kernel = KernelChoice::Amerced { penalty: 0.05 };
    assert_matches_oracle(exact.clone(), "amerced-exact");
    let mut sdtw_mode = IndexConfig::sdtw_bands();
    sdtw_mode.sdtw.dtw.kernel = KernelChoice::Amerced { penalty: 0.05 };
    assert_matches_oracle(sdtw_mode, "amerced-sdtw");
    // and the bounds were preserved, not disabled
    let (_, corpus, queries) = seeded_datasets().remove(0);
    let index = SdtwIndex::build(&corpus, exact).unwrap();
    let got = index.query(&queries[0], 3).unwrap();
    assert!(!got.stats.bounds_disabled);
    assert!(got.stats.is_consistent());
}

#[test]
fn amerced_kernel_changes_the_nearest_neighbour() {
    // q: a centred bump; A: the same bump shifted (DTW-near, pointwise
    // far); B: the bump plus small noise (pointwise-near). Plain DTW
    // warps the shift away and picks A; amercing prices those warp steps
    // and flips the nearest neighbour to B.
    let n = 64usize;
    let bump = |c: f64, i: usize| {
        let d = (i as f64 - c) / 4.0;
        (-d * d / 2.0).exp()
    };
    let q: Vec<f64> = (0..n).map(|i| bump(32.0, i)).collect();
    let a: Vec<f64> = (0..n).map(|i| bump(37.0, i)).collect();
    let b: Vec<f64> = (0..n)
        .map(|i| bump(32.0, i) + 0.1 * ((i * 7) as f64).sin())
        .collect();
    let corpus = vec![
        sdtw_tseries::TimeSeries::new(a).unwrap(),
        sdtw_tseries::TimeSeries::new(b).unwrap(),
    ];
    let query = sdtw_tseries::TimeSeries::new(q).unwrap();

    let standard = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.3)).unwrap();
    let nn_std = standard.query(&query, 1).unwrap().neighbors[0];
    assert_eq!(nn_std.index, 0, "plain DTW warps the shift away: A wins");

    let mut amerced_cfg = IndexConfig::exact_banded(0.3);
    amerced_cfg.sdtw.dtw.kernel = KernelChoice::Amerced { penalty: 1.0 };
    let amerced = SdtwIndex::build(&corpus, amerced_cfg.clone()).unwrap();
    let nn_am = amerced.query(&query, 1).unwrap().neighbors[0];
    assert_eq!(nn_am.index, 1, "amercing prices the warp: B wins");

    // both answers are exact against their own oracle
    let oracle = oracle_top_k(
        std::slice::from_ref(&query),
        &corpus,
        &IndexConfig::exact_banded(0.3),
        1,
    );
    assert_eq!((nn_std.index, nn_std.distance.to_bits()), oracle[0][0]);
    let oracle_am = oracle_top_k(&[query], &corpus, &amerced_cfg, 1);
    assert_eq!((nn_am.index, nn_am.distance.to_bits()), oracle_am[0][0]);
}

#[test]
fn batch_queries_are_bit_identical_serial_and_parallel() {
    let (_, corpus, queries) = seeded_datasets().remove(2);
    let index = SdtwIndex::build(&corpus, IndexConfig::sdtw_bands()).unwrap();
    let serial = index.batch_query(&queries, 3, false).unwrap();
    let parallel = index.batch_query(&queries, 3, true).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.neighbors.len(), p.neighbors.len());
        for (a, b) in s.neighbors.iter().zip(&p.neighbors) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        assert_eq!(s.stats, p.stats);
    }
}

/// The JSON snapshot text of an index.
fn json_snapshot(index: &SdtwIndex) -> String {
    String::from_utf8(SnapshotCodec::encode(index, SnapshotFormat::Json).unwrap()).unwrap()
}

#[test]
fn json_snapshot_roundtrips_to_identical_results() {
    let (_, corpus, queries) = seeded_datasets().remove(0);
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let json = json_snapshot(&index);
    let loaded = SnapshotCodec::decode(json.as_bytes()).unwrap();
    assert_eq!(index.len(), loaded.len());
    for query in &queries {
        let a = index.query(query, 4).unwrap();
        let b = loaded.query(query, 4).unwrap();
        assert_eq!(a, b, "loaded index must answer identically");
    }
}

#[test]
fn snapshots_of_both_formats_answer_bit_identically() {
    // the codec seam: a JSON snapshot and a binary columnar snapshot of
    // the same index must answer every query with the same ids, the same
    // distance bits, and the same cascade accounting — in both engine
    // modes, on every seeded corpus
    for config in [IndexConfig::exact_banded(0.2), IndexConfig::sdtw_bands()] {
        for (name, corpus, queries) in seeded_datasets() {
            let index = SdtwIndex::build(&corpus, config.clone()).unwrap();
            let json = SnapshotCodec::encode(&index, SnapshotFormat::Json).unwrap();
            let bin = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).unwrap();
            let from_json = SnapshotCodec::decode(&json).unwrap();
            let from_bin = SnapshotCodec::decode(&bin).unwrap();
            assert_eq!(from_json.entries(), from_bin.entries(), "{name}");
            for (qi, query) in queries.iter().enumerate() {
                let a = from_json.query(query, 4).unwrap();
                let b = from_bin.query(query, 4).unwrap();
                let c = index.query(query, 4).unwrap();
                assert_eq!(a, b, "{name}/q{qi}: formats must agree");
                assert_eq!(a, c, "{name}/q{qi}: loads must match the build");
            }
        }
    }
}

#[test]
fn converting_between_formats_is_lossless() {
    // the `sdtw index convert` path: JSON -> binary -> JSON round-trips
    // to an identical index (and the final JSON re-encoding is a fixed
    // point, so nothing silently drifts per hop)
    let (_, corpus, _) = seeded_datasets().remove(1);
    let index = SdtwIndex::build(&corpus, IndexConfig::sdtw_bands()).unwrap();
    let json = SnapshotCodec::encode(&index, SnapshotFormat::Json).unwrap();
    let via_bin = SnapshotCodec::encode(
        &SnapshotCodec::decode(&json).unwrap(),
        SnapshotFormat::BinaryV2,
    )
    .unwrap();
    let back = SnapshotCodec::decode(&via_bin).unwrap();
    assert_eq!(back.entries(), index.entries());
    assert_eq!(back.config(), index.config());
    let json_again = SnapshotCodec::encode(&back, SnapshotFormat::Json).unwrap();
    assert_eq!(json, json_again);
}

#[test]
fn corrupted_binary_snapshot_is_rejected() {
    let corpus = econ::generate(3, 2, 2).series;
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let bytes = SnapshotCodec::encode(&index, SnapshotFormat::BinaryV2).unwrap();
    // flip one byte in every region of the file: header, table, columns
    for at in [9usize, 30, 50, bytes.len() / 2, bytes.len() - 9] {
        let mut tampered = bytes.clone();
        tampered[at] ^= 0x3f;
        if tampered == bytes {
            continue;
        }
        // either the decode rejects it, or the decoded index differs in
        // a payload column the structural checks deliberately trust
        // (sample values themselves carry no checksum)
        if let Ok(loaded) = SnapshotCodec::decode(&tampered) {
            assert_ne!(
                loaded.entries(),
                index.entries(),
                "byte {at}: tamper vanished"
            );
        }
    }
}

#[test]
fn corrupted_snapshot_is_rejected() {
    let corpus = econ::generate(3, 2, 2).series;
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.2)).unwrap();
    let json = json_snapshot(&index);
    assert!(SnapshotCodec::decode(b"not json").is_err());
    // tamper with the envelope radius so the dimension check trips
    let tampered = json.replace("\"radius\":", "\"radius\": 9");
    if tampered != json {
        assert!(SnapshotCodec::decode(tampered.as_bytes()).is_err());
    }
}

#[test]
fn snapshot_with_out_of_range_features_is_rejected() {
    // adaptive mode caches salient features; a feature whose scope
    // escapes its series must fail the load-time structural check
    let corpus = UcrAnalog::Gun.generate(5).series[..6].to_vec();
    let index = SdtwIndex::build(&corpus, IndexConfig::sdtw_bands()).unwrap();
    let json = json_snapshot(&index);
    let key = "\"scope_end\":";
    let pos = json.find(key).expect("adaptive snapshot stores features");
    let digits_start = pos + key.len();
    let digits_len = json[digits_start..]
        .find(|c: char| !c.is_ascii_digit())
        .unwrap();
    let tampered = format!(
        "{}{key}99999{}",
        &json[..pos],
        &json[digits_start + digits_len..]
    );
    assert!(SnapshotCodec::decode(tampered.as_bytes()).is_err());
    // untampered snapshot still loads
    assert!(SnapshotCodec::decode(json.as_bytes()).is_ok());
}

#[test]
fn k_larger_than_corpus_returns_everything_ranked() {
    let corpus = econ::generate(5, 2, 2).series;
    let index = SdtwIndex::build(&corpus, IndexConfig::exact_banded(0.3)).unwrap();
    let got = index.query(&corpus[0], 50).unwrap();
    assert_eq!(got.neighbors.len(), corpus.len());
    for w in got.neighbors.windows(2) {
        assert!(w[0].distance <= w[1].distance);
    }
}

#[test]
fn k_zero_is_rejected_and_empty_index_answers_empty() {
    let corpus = econ::generate(5, 2, 2).series;
    let index = SdtwIndex::build(&corpus, IndexConfig::default()).unwrap();
    assert!(index.query(&corpus[0], 0).is_err());
    let empty = SdtwIndex::build(&[], IndexConfig::default()).unwrap();
    assert!(empty.is_empty());
    let got = empty.query(&corpus[0], 3).unwrap();
    assert!(got.neighbors.is_empty());
    assert_eq!(got.stats.candidates, 0);
}
