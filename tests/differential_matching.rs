//! Differential harness for the dominant-pair search: the lane-batched,
//! abandoning production search (`align::match_features`) against the
//! scalar oracle (`align::reference::match_features_scalar`) on seeded
//! feature sets. Every output must agree exactly — raw pairs down to the
//! distance bits, consistent pairs, partition and comparison count.

mod common;

use common::{structured_series, TestRng};
use sdtw_suite::align::reference::match_features_scalar;
use sdtw_suite::align::{match_features, MatchConfig, MatchResult};
use sdtw_suite::salient::{extract_features, Keypoint, Polarity, SalientConfig, SalientFeature};

/// Descriptor lengths: the production 64 plus lengths that leave a tail
/// shorter than one eight-dimension abandonment chunk.
const DESC_LENS: [usize; 4] = [4, 6, 10, 64];

/// Feature counts around the lane width, plus the Words50 pair shape.
const COUNTS: [usize; 6] = [0, 1, 7, 8, 9, 81];

fn configs() -> Vec<(&'static str, MatchConfig)> {
    vec![
        ("default", MatchConfig::default()),
        (
            "tau_s off",
            MatchConfig {
                tau_s: None,
                ..MatchConfig::default()
            },
        ),
        (
            "tau_a on",
            MatchConfig {
                tau_a: Some(0.5),
                ..MatchConfig::default()
            },
        ),
        (
            "no ceiling",
            MatchConfig {
                max_desc_distance: None,
                ..MatchConfig::default()
            },
        ),
        (
            "tau_d = 1",
            MatchConfig {
                tau_d: 1.0,
                ..MatchConfig::default()
            },
        ),
    ]
}

fn unit(rng: &mut TestRng, len: usize) -> Vec<f64> {
    let v: Vec<f64> = (0..len).map(|_| rng.f64_in(-1.0, 1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
    v.into_iter().map(|x| x / norm).collect()
}

fn feature(rng: &mut TestRng, descriptor: Vec<f64>) -> SalientFeature {
    let position = rng.usize_in(0, 400);
    let sigma = rng.f64_in(1.0, 12.0);
    let scope = (3.0 * sigma) as usize;
    SalientFeature {
        keypoint: Keypoint {
            position,
            octave_position: position,
            octave: 0,
            level: 1,
            sigma,
            response: 0.5,
            polarity: Polarity::Peak,
        },
        scope_start: position.saturating_sub(scope),
        scope_end: position + scope,
        scope_len: 6.0 * sigma + 1.0,
        amplitude: rng.f64_in(-1.0, 1.0),
        descriptor,
    }
}

/// A feature set of `count` unit descriptors of length `len`. With
/// `base`, about half the descriptors are perturbed (small noise) or
/// exact copies of `base` descriptors, so dominant pairs, exact ties and
/// zero distances all occur; a few are duplicated within the set.
fn feature_set(
    rng: &mut TestRng,
    count: usize,
    len: usize,
    base: &[SalientFeature],
) -> Vec<SalientFeature> {
    let mut out: Vec<SalientFeature> = Vec::with_capacity(count);
    for _ in 0..count {
        let descriptor = match rng.usize_in(0, 6) {
            0 | 1 if !base.is_empty() => {
                let src = &base[rng.usize_in(0, base.len())].descriptor;
                let noise = rng.f64_in(0.0, 0.3);
                src.iter().map(|&x| x + rng.f64_in(-noise, noise)).collect()
            }
            2 if !base.is_empty() => base[rng.usize_in(0, base.len())].descriptor.clone(),
            3 if !out.is_empty() => out[rng.usize_in(0, out.len())].descriptor.clone(),
            _ => unit(rng, len),
        };
        out.push(feature(rng, descriptor));
    }
    out
}

fn assert_same(got: &MatchResult, want: &MatchResult, ctx: &str) {
    let bits = |r: &MatchResult| -> Vec<(usize, usize, u64)> {
        r.raw_pairs
            .iter()
            .map(|p| (p.idx1, p.idx2, p.desc_distance.to_bits()))
            .collect()
    };
    assert_eq!(bits(got), bits(want), "raw pairs differ: {ctx}");
    assert_eq!(
        got.descriptor_comparisons, want.descriptor_comparisons,
        "comparison counts differ: {ctx}"
    );
    assert_eq!(got.consistent_pairs, want.consistent_pairs, "{ctx}");
    assert_eq!(got.partition, want.partition, "{ctx}");
    assert_eq!(got, want, "{ctx}");
}

#[test]
fn lane_search_matches_the_scalar_oracle_on_seeded_sets() {
    let mut rng = TestRng::new(1517);
    let mut matched = 0usize;
    for len in DESC_LENS {
        for n1 in COUNTS {
            for n2 in COUNTS {
                let f1 = feature_set(&mut rng, n1, len, &[]);
                let f2 = feature_set(&mut rng, n2, len, &f1);
                for (name, cfg) in configs() {
                    let ctx = format!("len {len}, {n1} x {n2}, {name}");
                    let want = match_features_scalar(&f1, &f2, 500, 500, &cfg);
                    let got = match_features(&f1, &f2, 500, 500, &cfg);
                    assert_same(&got, &want, &ctx);
                    // and with the roles swapped, as symmetric bands plan
                    let want = match_features_scalar(&f2, &f1, 500, 500, &cfg);
                    let got = match_features(&f2, &f1, 500, 500, &cfg);
                    assert_same(&got, &want, &format!("{ctx}, swapped"));
                    matched += want.raw_pairs.len();
                }
            }
        }
    }
    assert!(
        matched > 1000,
        "the sets must produce dominant pairs ({matched})"
    );
}

#[test]
fn duplicated_descriptors_tie_exactly_like_the_oracle() {
    let mut rng = TestRng::new(1518);
    for len in DESC_LENS {
        // every descriptor twice in each set: zero distances, and exact
        // ties the first `j` must win
        let base = feature_set(&mut rng, 9, len, &[]);
        let f1: Vec<SalientFeature> = base.iter().chain(&base).cloned().collect();
        let f2: Vec<SalientFeature> = base.iter().rev().chain(&base).cloned().collect();
        for (name, cfg) in configs() {
            let want = match_features_scalar(&f1, &f2, 500, 500, &cfg);
            let got = match_features(&f1, &f2, 500, 500, &cfg);
            assert_same(&got, &want, &format!("len {len}, {name}"));
        }
    }
}

#[test]
fn lane_search_matches_the_oracle_on_extracted_features() {
    let mut rng = TestRng::new(1519);
    let cfg = SalientConfig::default();
    for case in 0..24 {
        let ts1 = structured_series(&mut rng);
        let ts2 = structured_series(&mut rng);
        let f1 = extract_features(&ts1, &cfg).unwrap();
        let f2 = extract_features(&ts2, &cfg).unwrap();
        for (name, mcfg) in configs() {
            let (n, m) = (ts1.len(), ts2.len());
            let want = match_features_scalar(&f1, &f2, n, m, &mcfg);
            let got = match_features(&f1, &f2, n, m, &mcfg);
            assert_same(&got, &want, &format!("case {case}, {name}"));
        }
    }
}
