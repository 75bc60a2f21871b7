//! Test oracles: reference implementations that no production path
//! calls.
//!
//! Production matching runs through [`crate::match_features`], whose
//! dominant-pair search compares descriptors in lane-batched
//! `F64Lanes` passes and abandons a comparison once it cannot change the
//! outcome. The oracle here is the plain scalar search: every screened
//! pair's full `euclidean` distance, one pair at a time. The lane search
//! must reproduce it exactly — the same raw pairs down to the distance
//! bits, hence the same consistent pairs and partition, and the same
//! comparison count. Differential tests and the matching benchmark
//! compare against it. It is kept out of the crate-root re-exports and
//! the prelude on purpose.

use crate::config::MatchConfig;
use crate::matcher::{finish_match, MatchResult, MatchedPair};
use sdtw_salient::SalientFeature;
use sdtw_tseries::metric::euclidean;

/// [`crate::match_features`] with the scalar dominant-pair search: no
/// lanes, no abandonment. Oracle-only — never call it outside tests and
/// benchmarks.
pub fn match_features_scalar(
    feats1: &[SalientFeature],
    feats2: &[SalientFeature],
    n: usize,
    m: usize,
    cfg: &MatchConfig,
) -> MatchResult {
    let (raw_pairs, comparisons) = dominant_pairs_scalar(feats1, feats2, cfg);
    finish_match(raw_pairs, comparisons, feats1, feats2, n, m)
}

/// For each feature of series 1, the nearest screened candidate of
/// series 2, kept iff it is small enough and `τ_d`-dominates every other
/// screened candidate; plus the number of screen-passing pairs.
fn dominant_pairs_scalar(
    feats1: &[SalientFeature],
    feats2: &[SalientFeature],
    cfg: &MatchConfig,
) -> (Vec<MatchedPair>, usize) {
    let mut out = Vec::new();
    let mut comparisons = 0usize;
    for (i, f1) in feats1.iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        let mut second_best = f64::INFINITY;
        for (j, f2) in feats2.iter().enumerate() {
            if !passes_screens(f1, f2, cfg) {
                continue;
            }
            comparisons += 1;
            let d = euclidean(&f1.descriptor, &f2.descriptor);
            match best {
                None => best = Some((j, d)),
                Some((_, bd)) if d < bd => {
                    second_best = bd;
                    best = Some((j, d));
                }
                _ => second_best = second_best.min(d),
            }
        }
        if let Some((j, d)) = best {
            // absolute "small distance" ceiling, then the dominance test:
            // best * tau_d must not exceed every other candidate's
            // distance (vacuously true with no second)
            let small_enough = cfg.max_desc_distance.is_none_or(|max| d <= max);
            if small_enough && d * cfg.tau_d <= second_best {
                out.push(MatchedPair::unscored(i, j, d, feats1, feats2));
            }
        }
    }
    (out, comparisons)
}

/// Checks the `τ_a` / `τ_s` screens for a candidate pair.
fn passes_screens(f1: &SalientFeature, f2: &SalientFeature, cfg: &MatchConfig) -> bool {
    if let Some(tau_a) = cfg.tau_a {
        if (f1.amplitude - f2.amplitude).abs() >= tau_a {
            return false;
        }
    }
    if let Some(tau_s) = cfg.tau_s {
        let (a, b) = (f1.keypoint.sigma, f2.keypoint.sigma);
        let ratio = if a > b { a / b } else { b / a };
        if ratio >= tau_s {
            return false;
        }
    }
    true
}
